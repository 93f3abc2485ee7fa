"""Every script under ``examples/`` runs to completion at a tiny size.

Each script runs in its own interpreter with ``repro`` on its path, the
way a reader would run it, so a stale import or a renamed API fails here
rather than in the reader's terminal.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SRC = Path(repro.__file__).resolve().parent.parent

RUNS = {
    "quickstart.py": ["16", "1"],
    "p2p_resource_discovery.py": ["--n", "16", "--seed", "1"],
    "directed_discovery.py": ["--sizes", "6", "8", "--seed", "3"],
    "group_discovery.py": ["--host-n", "64", "--groups", "4", "8"],
    "social_network_growth.py": ["--n", "24", "--rounds", "20"],
}


def test_every_example_has_a_run():
    assert sorted(p.name for p in EXAMPLES.glob("*.py")) == sorted(RUNS)


@pytest.mark.parametrize("script", sorted(RUNS))
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *RUNS[script]],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()
