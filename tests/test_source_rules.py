"""Source rules: three syntax-level bans, checked over the repository's own code.

Each rule judges one AST node at a time, so a rule is a function from a
parsed module to ``(line, message)`` pairs.  A violation fails
:func:`test_tree_obeys_rule` with ``path:line: [rule] message``; what each
rule flags and what it lets pass is pinned on snippets by :data:`CASES`.

``determinism`` — ``src/repro``, ``benchmarks/`` and ``tests/`` (minus
    ``tests/data/``; ``tests/make_golden_traces.py`` included).  Bans
    unseeded ``np.random.default_rng()``, draws from numpy's global state
    (``np.random.random(...)``), stdlib ``random.*`` draws and wall-clock
    reads (``time.time``, ``datetime.now``, ...).  Guards the contract that
    every trace, trial and benchmark replays draw for draw from a recorded
    seed: golden traces, backend equivalence and exact checkpoint resume
    all rest on it.  Its first run removed the unseeded fallbacks of
    ``theory.lemma2_empirical_quantile`` and of both graph generators'
    ``_ensure_rng``.  Constructors over explicit seed
    material (``SeedSequence(seed)``, ``Generator(bitgen)``) are fine.

``atomic-write`` — ``src/repro`` except ``simulation/io.py``.  Bans
    writable ``open()``/``Path.open()``/``os.fdopen()`` and
    ``write_text``/``write_bytes``.  A crash mid-write leaves a torn result
    file that a resumed sweep reads back; every writer goes through
    ``io.atomic_write_bytes``/``atomic_write_text`` (same-directory temp
    file plus ``os.replace``), the one module that holds the raw
    primitives.  Caught a torn write: ``Report.write`` in the since
    deleted ``analysis/report.py`` wrote through ``Path.write_text``.

``exception-hygiene`` — ``src/repro``.  Flags bare, ``Exception`` and
    ``BaseException`` handlers that neither re-raise, log nor use the bound
    exception.  A swallowed failure is how shared-memory segments leak and
    sweeps go silently wrong.  No code is exempt: :data:`ALLOWED` is empty.
    An exemption added there carries its reason, and one that no longer
    matches fails the test too.

Leaks of pools, shared-memory segments and file descriptors are checked at
run time instead, by the autouse guard in ``tests/conftest.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent

Violation = Tuple[int, str]


# --------------------------------------------------------------------------- #
# name resolution
# --------------------------------------------------------------------------- #
def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted module/object they bind.

    ``import numpy as np`` -> ``{"np": "numpy"}``; ``from datetime import
    datetime as dt`` -> ``{"dt": "datetime.datetime"}``.  Function-local
    imports count too: the bound name is what matters, not where.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                aliases[local] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative imports never bind the banned stdlib names
            for alias in node.names:
                if alias.name != "*":
                    aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def _canonical_name(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve an ``Attribute`` chain rooted in a ``Name`` to a dotted name.

    Chains rooted in anything else (a call result, a subscript) resolve to
    ``None``: ``default_rng(0).random()`` draws from an explicitly seeded
    generator and must not be flagged.
    """
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


# --------------------------------------------------------------------------- #
# the rules
# --------------------------------------------------------------------------- #
#: stdlib ``random`` functions that draw from (or reseed) the hidden global state.
_STDLIB_RANDOM_FNS = frozenset(
    "random randint randrange choice choices shuffle sample uniform triangular "
    "gauss normalvariate lognormvariate expovariate vonmisesvariate "
    "gammavariate betavariate paretovariate weibullvariate binomialvariate "
    "seed getrandbits randbytes".split()
)
#: wall-clock reads: seeds or decisions derived from these differ run to run.
_WALL_CLOCK_FNS = frozenset(
    "time.time time.time_ns datetime.datetime.now datetime.datetime.utcnow "
    "datetime.datetime.today datetime.date.today".split()
)


def determinism(tree: ast.Module) -> Iterator[Violation]:
    aliases = _import_aliases(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _canonical_name(node.func, aliases)
        if name is None:
            continue
        if name == "numpy.random.default_rng":
            if not node.args and not node.keywords:
                yield node.lineno, "unseeded np.random.default_rng(): thread a seed or Generator"
        elif name.startswith("numpy.random."):
            # Draw functions are lowercase; capitalised names (Generator,
            # SeedSequence, bit generators) take explicit seed material.
            tail = name[len("numpy.random.") :]
            if "." not in tail and tail.islower():
                yield node.lineno, f"np.random.{tail}() draws from numpy's global state"
        elif name.startswith("random.") and name[len("random.") :] in _STDLIB_RANDOM_FNS:
            yield node.lineno, f"{name}() draws from the stdlib global RNG"
        elif name in _WALL_CLOCK_FNS:
            yield node.lineno, f"{name}() is a wall-clock entropy source"


def _mode(node: ast.AST) -> Optional[str]:
    """The string ``node`` holds if it reads as an ``open()`` mode, else None."""
    text = node.value if isinstance(node, ast.Constant) else None
    return text if isinstance(text, str) and text and set(text) <= set("rwxabt+") else None


def atomic_write(tree: ast.Module) -> Iterator[Violation]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if isinstance(func, ast.Attribute) and name in ("write_text", "write_bytes"):
            yield node.lineno, f".{name}() is not atomic: use io.atomic_write_*"
        elif name in ("open", "fdopen"):
            # open(file, mode) and os.fdopen(fd, mode) take the mode second;
            # Path.open(mode) takes it first, gzip.open(file, mode) second.
            method_open = isinstance(func, ast.Attribute) and name == "open"
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
            modes += node.args[:2] if method_open else node.args[1:2]
            mode = next(filter(None, map(_mode, modes)), "")
            if set(mode) & set("wax+"):
                yield node.lineno, f"writable {name}(..., {mode!r}): use io.atomic_write_*"


_BROAD_TYPES = frozenset({"Exception", "BaseException"})
#: calls that count as "the handler reported the failure"
_REPORTING_CALLS = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical", "log", "warn", "print_exc"}
)


def _reports(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(ast.Module(body=handler.body, type_ignores=[])):
        if isinstance(node, ast.Raise):
            return True
        if handler.name and isinstance(node, ast.Name) and node.id == handler.name:
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _REPORTING_CALLS:
                return True
    return False


def exception_hygiene(tree: ast.Module) -> Iterator[Violation]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        broad = node.type is None or any(
            getattr(t, "id", getattr(t, "attr", None)) in _BROAD_TYPES for t in types
        )
        if broad and not _reports(node):
            caught = "bare except" if node.type is None else f"except {ast.unparse(node.type)}"
            yield node.lineno, f"{caught} swallows the failure: re-raise, log or use it"


#: rule -> (check, roots it scans, path prefixes exempt from it), relative to the repo root
RULES = {
    "determinism": (determinism, ["src/repro", "benchmarks", "tests"], ["tests/data/"]),
    "atomic-write": (atomic_write, ["src/repro"], ["src/repro/simulation/io.py"]),
    "exception-hygiene": (exception_hygiene, ["src/repro"], []),
}

#: (rule, file, enclosing function) -> why that violation is accepted
ALLOWED: Dict[Tuple[str, str, str], str] = {}


def _enclosing(tree: ast.Module, line: int) -> str:
    """Dotted name of the classes/functions whose body spans ``line``."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return ".".join(
        node.name
        for node in ast.walk(tree)  # breadth first: outer scopes come first
        if isinstance(node, scopes) and node.lineno <= line <= (node.end_lineno or line)
    )


# --------------------------------------------------------------------------- #
# tests
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("rule", sorted(RULES))
def test_tree_obeys_rule(rule):
    check, roots, exempt = RULES[rule]
    violations: List[str] = []
    allowed_hits = set()
    for root in roots:
        files = [
            path
            for path in sorted((ROOT / root).rglob("*.py"))
            if not path.relative_to(ROOT).as_posix().startswith(tuple(exempt))
        ]
        assert files, f"[{rule}] scanned no file under {root}/"
        for path in files:
            rel = path.relative_to(ROOT).as_posix()
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=rel)
            for line, message in check(tree):
                key = (rule, rel, _enclosing(tree, line))
                if key in ALLOWED:
                    allowed_hits.add(key)
                else:
                    violations.append(f"{rel}:{line}: [{rule}] {message}")
    assert not violations, "\n".join(violations)
    stale = {key for key in ALLOWED if key[0] == rule} - allowed_hits
    assert not stale, f"ALLOWED entries that no longer match anything: {sorted(stale)}"


@pytest.mark.parametrize("rule, exempt", [("atomic-write", "src/repro/simulation/io.py")])
def test_exemption_is_load_bearing(rule, exempt):
    """The exempt path does what the rule bans; an exemption that stops doing so goes."""
    check = RULES[rule][0]
    files = [ROOT / exempt] if exempt.endswith(".py") else sorted((ROOT / exempt).rglob("*.py"))
    assert any(list(check(ast.parse(path.read_text(encoding="utf-8")))) for path in files)


#: (rule, snippet, findings it must yield); every finding is on the snippet's last line.
#: Violations and near misses together walk every branch of the rules and of the
#: import-alias resolution.
CASES = [
    ("determinism", "import numpy as np; np.random.default_rng()", 1),
    ("determinism", "from numpy.random import default_rng; default_rng()", 1),
    ("determinism", "from numpy.random import default_rng as make; make()", 1),
    ("determinism", "import numpy.random as npr; npr.default_rng()", 1),
    ("determinism", "from numpy import random as nr; nr.default_rng()", 1),
    ("determinism", "import numpy; numpy.random.default_rng()", 1),
    ("determinism", "def f():\n    import numpy as np\n    return np.random.default_rng()", 1),
    ("determinism", "import numpy as np; np.random.random(4)", 1),
    ("determinism", "import numpy as np; np.random.seed(0)", 1),
    ("determinism", "import numpy as np; np.random.shuffle(items)", 1),
    ("determinism", "import numpy as np; np.random.randint(0, 5)", 1),
    ("determinism", "from numpy.random import rand; rand(3)", 1),
    ("determinism", "import random; random.shuffle(items)", 1),
    ("determinism", "import random; random.choice(items)", 1),
    ("determinism", "import random; random.seed(1)", 1),
    ("determinism", "import random as r; r.getrandbits(8)", 1),
    ("determinism", "from random import randint; randint(0, 3)", 1),
    ("determinism", "import time; time.time()", 1),
    ("determinism", "import time; time.time_ns()", 1),
    ("determinism", "from time import time; time()", 1),
    ("determinism", "from datetime import datetime; datetime.now()", 1),
    ("determinism", "import datetime; datetime.datetime.utcnow()", 1),
    ("determinism", "from datetime import date; date.today()", 1),
    ("determinism", "import time, datetime; time.time() + datetime.datetime.now().day", 2),
    ("determinism", "import numpy as np; rng = np.random.default_rng(0); rng.random()", 0),
    ("determinism", "import numpy as np; np.random.default_rng(seed)", 0),
    ("determinism", "import numpy as np; np.random.default_rng(seed=seed)", 0),
    ("determinism", "import numpy as np; np.random.Generator(np.random.PCG64(seed))", 0),
    ("determinism", "import numpy as np; np.random.SeedSequence(seed).spawn(4)", 0),
    ("determinism", "import numpy as np; np.random.default_rng(0).random()", 0),
    ("determinism", "import random; random.Random(seed).random()", 0),
    ("determinism", "import time; time.perf_counter() - time.monotonic()", 0),
    ("determinism", "from datetime import datetime; datetime.fromtimestamp(ts)", 0),
    ("determinism", "from .random import choice; choice(items)", 0),
    ("determinism", "rng.random(4); rng.choice(items)", 0),
    ("atomic-write", "open(path, 'w')", 1),
    ("atomic-write", "open(path, mode='wb')", 1),
    ("atomic-write", "open(path, 'a')", 1),
    ("atomic-write", "open(path, 'x')", 1),
    ("atomic-write", "open(path, 'r+')", 1),
    ("atomic-write", "Path(path).write_text(text)", 1),
    ("atomic-write", "Path(path).write_bytes(blob)", 1),
    ("atomic-write", "Path(path).open('w')", 1),
    ("atomic-write", "gzip.open(path, 'wb')", 1),
    ("atomic-write", "os.fdopen(fd, 'wb')", 1),
    ("atomic-write", "open(path)", 0),
    ("atomic-write", "open(path, 'rb')", 0),
    ("atomic-write", "open(path, mode='r')", 0),
    ("atomic-write", "Path(path).read_text()", 0),
    ("atomic-write", "Path(path).open()", 0),
    ("atomic-write", "gzip.open('trace.gz')", 0),
    ("atomic-write", "atomic_write_text(Path(path), text)", 0),
    ("exception-hygiene", "try: f()\nexcept: pass", 1),
    ("exception-hygiene", "try: f()\nexcept Exception: pass", 1),
    ("exception-hygiene", "try: f()\nexcept BaseException: x = -1", 1),
    ("exception-hygiene", "try: f()\nexcept (ValueError, Exception): pass", 1),
    ("exception-hygiene", "try: f()\nexcept builtins.Exception: pass", 1),
    ("exception-hygiene", "try: f()\nexcept Exception as exc: pass", 1),
    ("exception-hygiene", "try: f()\nexcept Exception: log.warning('f failed')", 0),
    ("exception-hygiene", "try: f()\nexcept Exception: log.exception('f failed')", 0),
    ("exception-hygiene", "try: f()\nexcept Exception: traceback.print_exc()", 0),
    ("exception-hygiene", "try: f()\nexcept BaseException: raise", 0),
    ("exception-hygiene", "try: f()\nexcept Exception: raise RuntimeError('f') from None", 0),
    ("exception-hygiene", "try: f()\nexcept Exception as exc: results.append(exc)", 0),
    ("exception-hygiene", "try: f()\nexcept KeyError: pass", 0),
]


@pytest.mark.parametrize(
    "rule, snippet, expected",
    CASES,
    ids=[f"{rule}:{snippet.splitlines()[-1].strip()}" for rule, snippet, _ in CASES],
)
def test_rule_on_snippet(rule, snippet, expected):
    found = [line for line, _ in RULES[rule][0](ast.parse(snippet))]
    assert found == [snippet.count("\n") + 1] * expected


@pytest.mark.parametrize("rule", sorted(RULES))
def test_every_rule_has_a_violation_and_a_near_miss(rule):
    assert {expected > 0 for name, _, expected in CASES if name == rule} == {True, False}
