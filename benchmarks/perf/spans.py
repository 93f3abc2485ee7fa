"""Outside-in layer tracing for the perf benchmark.

A :class:`Tracer` swaps wrappers in for the program's layer entry points,
records one span ``(name, start, end, parent, trial)`` per call, and puts
every original back on :meth:`Tracer.uninstall`.  The program carries no
instrumentation of its own; spans are recorded around calls *into* each
layer.  Layers are named after the modules that own them.

Where the wrappers go:

* class level on ``ArrayGraph``/``ArrayDiGraph`` (they use ``__slots__``,
  so instance attributes raise) and on the two network engines;
* module-attribute level for the graph generators, every function that
  ``repro.graphs.bitset`` exports, ``make_process``, ``run_trials`` and the
  checkpoint functions: every ``repro`` module holding the original
  function gets the wrapper, so ``from x import f`` call sites are covered;
* instance level on each process ``make_process`` returns (which includes
  processes rebuilt by ``restore_process``).

``propose``, ``apply_edge`` and ``messages_for_proposal`` are never
wrapped.  ``DiscoveryProcess`` probes those names (``_propose_is``,
``_default_accounting``, the ``"apply_edge" in self.__dict__`` test), and a
wrapper there would silently switch rounds to the per-node fallback: a
different program.

Spans live in flat arrays while the workload runs; :meth:`Tracer.layers`
reduces them to calls, total and self time per layer (self time is a
span's duration minus the time its child spans cover), and
:meth:`Tracer.write_jsonl` writes them out, one JSON array per line.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.graphs import bitset, directed_generators, generators
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph
from repro.network import AsyncNetworkSimulator, NetworkSimulator
from repro.simulation import checkpoint, engine, runner
from repro.simulation.io import atomic_write_text

After = Optional[Callable[[tuple, object], None]]

#: marks a wrapper so tests can prove none is left behind.
TRACED_ATTR = "__traced_layer__"


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._trial = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.trial = -1
        self.counters: Dict[str, int] = {}
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def set_trial(self, trial: int) -> None:
        """Label the spans that follow with ``trial`` (the workload's trial index)."""
        self.trial = trial

    def wrap(self, name: str, fn: Callable, after: After = None) -> Callable:
        """``fn`` recording one span named ``name`` per call.

        ``after(args, result)`` runs once the span has closed, so counting
        costs are charged to the caller, not to the layer.
        """
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        names, parents, trials = self._name, self._parent, self._trial
        starts, ends, stack = self._start, self._end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            trials.append(tracer.trial)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        setattr(traced, TRACED_ATTR, name)
        return traced

    def phase(self, name: str, fn: Callable, *args):
        """Call ``fn(*args)`` under one span (the workload's setup or measured section)."""
        return self.wrap(name, fn)(*args)

    def _add(self, counter: str, amount: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + int(amount)

    # ------------------------------------------------------------------ #
    # installing the wrappers
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Put every wrapper in place; :meth:`uninstall` undoes exactly this."""
        functions: List[Tuple[types.ModuleType, str, str, After]] = [
            (generators, "make_family", "graphs.generate", None),
            (directed_generators, "make_directed_family", "graphs.generate", None),
            (engine, "make_process", "simulation.make_process", self._instrument_process),
            (runner, "run_trials", "simulation.run_trials", None),
            (checkpoint, "save_checkpoint", "simulation.checkpoint.save", self._count_snapshot),
            (checkpoint, "load_checkpoint", "simulation.checkpoint.load", None),
            (checkpoint, "restore_process", "simulation.checkpoint.restore", None),
        ]
        functions += [
            (bitset, name, "graphs.bitset", None)
            for name in bitset.__all__
            if isinstance(getattr(bitset, name), types.FunctionType)
        ]
        methods: List[Tuple[type, str, str, After]] = [
            (ArrayGraph, "random_neighbors", "graphs.random_neighbors", None),
            (ArrayDiGraph, "random_out_neighbors", "graphs.random_neighbors", None),
            (ArrayGraph, "add_edges_batch_arrays", "graphs.add_edges_batch_arrays", self._count_insert),
            (ArrayDiGraph, "add_edges_batch_arrays", "graphs.add_edges_batch_arrays", self._count_insert),
            (ArrayGraph, "is_complete", "graphs.is_complete", None),
            (NetworkSimulator, "run_to_convergence", "network.sync_run", self._count_messages),
            (NetworkSimulator, "step", "network.sync_step", None),
            (NetworkSimulator, "send", "network.send", None),
            (AsyncNetworkSimulator, "run_to_convergence", "network.async_run", self._count_messages),
            (AsyncNetworkSimulator, "send", "network.send", None),
        ]
        replacements = {}
        for module, attr, name, after in functions:
            original = getattr(module, attr)
            replacements[id(original)] = (original, self.wrap(name, original, after))
        for module in list(sys.modules.values()):
            if not isinstance(module, types.ModuleType) or not module.__name__.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])
                    self._undo.append(functools.partial(setattr, module, key, value))
        for cls, attr, name, after in methods:
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(name, original, after))
            self._undo.append(functools.partial(setattr, cls, attr, original))

    def uninstall(self) -> None:
        """Restore every patched module attribute and class method."""
        while self._undo:
            self._undo.pop()()

    def _instrument_process(self, args: tuple, process) -> None:
        """Wrap one process's round-engine methods on the instance."""
        owner = type(process).step.__module__
        step_layer = "baselines.step" if owner.startswith("repro.baselines") else "core.step"

        def note_graph(args: tuple, result) -> None:
            nbytes = getattr(process.graph, "membership_nbytes", None)
            if nbytes is not None:
                key = "graphs.membership_bytes"
                self.counters[key] = max(self.counters.get(key, 0), nbytes())

        for attr, layer, after in (
            ("run_to_convergence", "core.run", note_graph),
            ("step", step_layer, None),
            ("propose_batch", "core.propose_batch", self._count_proposals),
            ("apply_proposals", "core.apply_proposals", self._count_added),
            ("is_converged", "core.is_converged", None),
        ):
            setattr(process, attr, self.wrap(layer, getattr(process, attr), after))

    # ------------------------------------------------------------------ #
    # counters, measured where the work happens
    # ------------------------------------------------------------------ #
    def _count_insert(self, args: tuple, added) -> None:
        self._add("graphs.candidate_edges", len(args[1]))
        self._add("graphs.new_edges", len(added))

    def _count_proposals(self, args: tuple, proposals) -> None:
        us = getattr(proposals, "us", None)
        count = len(us) if us is not None else sum(edge is not None for _, edge in proposals)
        self._add("core.proposals", count)

    def _count_added(self, args: tuple, added) -> None:
        self._add("core.edges_added", len(added))

    def _count_snapshot(self, args: tuple, envelope: Path) -> None:
        written = envelope.stat().st_size + envelope.with_suffix(".npz").stat().st_size
        self._add("simulation.checkpoint.bytes_written", written)

    def _count_messages(self, args: tuple, stats) -> None:
        self._add("network.messages_sent", stats.messages_sent)
        self._add("network.messages_delivered", stats.messages_delivered)

    # ------------------------------------------------------------------ #
    # reduction and output
    # ------------------------------------------------------------------ #
    def layers(self) -> Dict[str, object]:
        """Per-layer ``calls``/``total_s``/``self_s``, the counters, and step-time quantiles."""
        ids = np.asarray(self._name, dtype=np.int64)
        parent = np.asarray(self._parent, dtype=np.int64)
        dur = np.asarray(self._end) - np.asarray(self._start)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - covered
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        self_s = np.bincount(ids, weights=own, minlength=k)
        spans = {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }
        step_us: Dict[str, float] = {}
        if "core.step" in self._ids:
            steps = dur[ids == self._ids["core.step"]] * 1e6
            if steps.size:
                step_us = {"p50": float(np.percentile(steps, 50)), "p99": float(np.percentile(steps, 99))}
        return {"spans": spans, "counters": dict(self.counters), "step_us": step_us}

    def write_jsonl(self, path: Path) -> None:
        """Write every span as ``[name, start_s, end_s, parent, trial]``, one per line.

        Times are seconds since the first span started; ``parent`` is the
        line index (0-based) of the enclosing span, ``-1`` at top level.
        """
        t0 = self._start[0] if len(self._start) else 0.0
        names = self.names
        lines = (
            f'["{names[n]}",{s - t0:.7f},{e - t0:.7f},{p},{t}]\n'
            for n, s, e, p, t in zip(self._name, self._start, self._end, self._parent, self._trial)
        )
        atomic_write_text(path, "".join(lines))
