"""Exact checkpoint/resume: the draw-for-draw equivalence contract.

The property pinned here is the crash-tolerance substrate's whole point:
a run checkpointed at any round and resumed — in this process or a fresh
one — reproduces the uninterrupted run exactly (same contact graphs, same
counters, same bit-generator end state), for every registered process,
and for every trial of a checkpointed sweep.  Files written by the
removed list graph substrate still resume.  The
format tests pin the failure modes: truncated envelopes, checksum
mismatches, foreign versions and files this build cannot replay all
refuse to resume instead of continuing from corrupt state.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graphs import directed_generators as dgen
from repro.graphs import generators as gen
from repro.simulation.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    capture_checkpoint,
    latest_checkpoint,
    load_checkpoint,
    periodic_checkpointer,
    restore_process,
    resume_from_checkpoint,
    save_checkpoint,
)
from repro.simulation.engine import (
    PROCESS_REGISTRY,
    make_process,
    measure_convergence_rounds,
)
from repro.simulation.experiment import ExperimentSpec
from repro.simulation.runner import run_trials

ALL_NAMES = sorted(PROCESS_REGISTRY)
DATA_DIR = Path(__file__).parent / "data"
N = 12
SEED = 20120614
CHECKPOINT_AT = 4  # run this many rounds (capped by convergence) before snapshotting


def canon(edges):
    return sorted((int(u), int(v)) for u, v in edges)


def build(name: str):
    rng = np.random.default_rng(SEED)
    _, needs_directed = PROCESS_REGISTRY[name]
    if needs_directed:
        graph = dgen.make_directed_family("random_strong", N, rng)
    else:
        graph = gen.make_family("cycle", N, rng)
    return make_process(name, graph, rng=rng)


def assert_same_end_state(a, b) -> None:
    """The two processes agree on every piece of observable end state."""
    assert a.round_index == b.round_index
    assert a.total_edges_added == b.total_edges_added
    assert a.total_messages == b.total_messages
    assert a.total_bits == b.total_bits
    assert canon(a.graph.edges()) == canon(b.graph.edges())
    assert a.rng.bit_generator.state == b.rng.bit_generator.state
    assert a.is_converged() == b.is_converged()


@pytest.mark.parametrize("name", ALL_NAMES)
def test_resume_equivalence_every_process(name, tmp_path):
    """checkpoint-at-k + resume == uninterrupted, for the whole registry."""
    uninterrupted = build(name)
    interrupted = build(name)
    interrupted.run(max_rounds=CHECKPOINT_AT)
    k = interrupted.round_index  # fast convergers stop before CHECKPOINT_AT
    path = save_checkpoint(interrupted, tmp_path / f"round_{k:08d}")
    resumed = restore_process(load_checkpoint(path))
    assert_same_end_state(interrupted, resumed)

    uninterrupted.run_to_convergence()
    resumed.run_to_convergence()
    assert_same_end_state(uninterrupted, resumed)


def test_resume_from_checkpoint_reports_total_rounds(tmp_path):
    """resume_from_checkpoint's RunResult equals the uninterrupted run's."""
    uninterrupted = build("push")
    reference = uninterrupted.run_to_convergence()

    interrupted = build("push")
    interrupted.run(max_rounds=CHECKPOINT_AT)
    path = save_checkpoint(interrupted, tmp_path / "snap")
    result = resume_from_checkpoint(path)
    assert result.rounds == reference.rounds
    assert result.converged == reference.converged
    assert result.total_edges_added == reference.total_edges_added
    assert result.total_messages == reference.total_messages
    assert result.total_bits == reference.total_bits


def test_resume_in_fresh_process(tmp_path):
    """A brand-new interpreter resumes to the same end state (true crash shape)."""
    uninterrupted = build("pull")
    uninterrupted.run_to_convergence()

    interrupted = build("pull")
    interrupted.run(max_rounds=CHECKPOINT_AT)
    path = save_checkpoint(interrupted, tmp_path / "snap")

    script = (
        "import json, sys\n"
        "from repro.simulation.checkpoint import load_checkpoint, restore_process\n"
        f"process = restore_process(load_checkpoint({str(path)!r}))\n"
        "process.run_to_convergence()\n"
        "print(json.dumps({\n"
        "    'rounds': process.round_index,\n"
        "    'edges': sorted((int(u), int(v)) for u, v in process.graph.edges()),\n"
        "    'rng': str(process.rng.bit_generator.state),\n"
        "}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        cwd=str(Path(__file__).resolve().parent.parent),
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    fresh = json.loads(out.stdout)
    assert fresh["rounds"] == uninterrupted.round_index
    assert [tuple(edge) for edge in fresh["edges"]] == canon(uninterrupted.graph.edges())
    assert fresh["rng"] == str(uninterrupted.rng.bit_generator.state)


def test_periodic_checkpoints_via_measure(tmp_path):
    """measure_convergence_rounds(checkpoint_every=) writes resumable snapshots."""
    rng = np.random.default_rng(SEED)
    graph = gen.make_family("cycle", N, rng)
    reference = measure_convergence_rounds(
        "push", graph, rng=np.random.default_rng(SEED), checkpoint_every=3,
        checkpoint_dir=tmp_path,
    )
    stems = sorted(p.stem for p in tmp_path.glob("round_*.json"))
    assert stems, "no checkpoints written"
    assert all(int(s.split("_")[1]) % 3 == 0 for s in stems)

    latest = latest_checkpoint(tmp_path)
    assert latest.stem == stems[-1]
    result = resume_from_checkpoint(latest)
    assert result.rounds == reference.rounds
    assert result.total_edges_added == reference.total_edges_added


def test_checkpointed_sweep_trial_resumes_to_its_result(tmp_path):
    """A trial of a checkpointed run_trials sweep resumes to its own TrialResult."""
    sweep = ExperimentSpec(
        process="push", family="cycle", n=N, trials=2,
        checkpoint_every=3, checkpoint_dir=str(tmp_path),
    )
    trial = run_trials(sweep, root_seed=SEED)[1]
    result = resume_from_checkpoint(latest_checkpoint(tmp_path / "trial_0001"))
    assert (result.rounds, result.total_edges_added, result.total_messages, result.total_bits) == (
        trial.rounds, trial.edges_added, trial.messages, trial.bits,
    )


def test_checkpoint_requires_dir():
    rng = np.random.default_rng(SEED)
    graph = gen.make_family("cycle", N, rng)
    with pytest.raises(ValueError, match="checkpoint_dir"):
        measure_convergence_rounds("push", graph, rng=rng, checkpoint_every=5)


def test_envelope_format_and_checksum(tmp_path):
    process = build("push")
    process.run(max_rounds=2)
    path = save_checkpoint(process, tmp_path / "snap")
    envelope = json.loads(path.read_text())
    assert envelope["format"] == "repro-gossip-trial-checkpoint"
    assert envelope["version"] == CHECKPOINT_VERSION
    assert envelope["checksum"]["algorithm"] == "sha256"
    assert envelope["meta"]["process"] == "push"
    assert envelope["meta"]["round_index"] == process.round_index


def test_sharded_checkpoint_is_refused(tmp_path):
    """Checkpoints carry no shard fields; a v1 file recording shards > 1 will not restore."""
    process = build("push")
    process.run(max_rounds=2)
    path = save_checkpoint(process, tmp_path / "snap")
    envelope = json.loads(path.read_text())
    assert "shards" not in envelope["meta"]
    envelope["meta"]["shards"] = 3  # the checksum covers only the .npz payload
    path.write_text(json.dumps(envelope))
    with pytest.raises(CheckpointError, match="shards=3"):
        restore_process(load_checkpoint(path))


def test_load_rejects_truncated_envelope(tmp_path):
    process = build("push")
    process.run(max_rounds=2)
    path = save_checkpoint(process, tmp_path / "snap")
    raw = path.read_text()
    path.write_text(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError, match="JSON"):
        load_checkpoint(path)


def test_load_rejects_corrupt_payload(tmp_path):
    process = build("push")
    process.run(max_rounds=2)
    path = save_checkpoint(process, tmp_path / "snap")
    npz = path.with_suffix(".npz")
    data = npz.read_bytes()
    npz.write_bytes(data[:-1] + bytes([data[-1] ^ 0xFF]))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_load_rejects_unknown_version(tmp_path):
    process = build("push")
    process.run(max_rounds=2)
    path = save_checkpoint(process, tmp_path / "snap")
    envelope = json.loads(path.read_text())
    envelope["version"] = CHECKPOINT_VERSION + 1
    path.write_text(json.dumps(envelope))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_load_rejects_missing_payload(tmp_path):
    process = build("push")
    process.run(max_rounds=2)
    path = save_checkpoint(process, tmp_path / "snap")
    path.with_suffix(".npz").unlink()
    with pytest.raises(CheckpointError, match="payload"):
        load_checkpoint(path)


def test_load_rejects_missing_envelope(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read checkpoint envelope"):
        load_checkpoint(tmp_path / "absent")


@pytest.mark.parametrize(
    "envelope",
    [pytest.param([1, 2], id="not-an-object"), pytest.param({"format": "other"}, id="foreign")],
)
def test_load_rejects_foreign_json(tmp_path, envelope):
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(envelope))
    with pytest.raises(CheckpointError, match="is not a repro-gossip-trial-checkpoint"):
        load_checkpoint(path)


def test_restore_rejects_unknown_bit_generator(tmp_path):
    process = build("push")
    process.run(max_rounds=2)
    path = save_checkpoint(process, tmp_path / "snap")
    envelope = json.loads(path.read_text())
    envelope["rng_state"]["bit_generator"] = "NoSuchBitGenerator"
    path.write_text(json.dumps(envelope))
    with pytest.raises(CheckpointError, match="unknown bit generator"):
        restore_process(load_checkpoint(path))


@pytest.mark.parametrize("name", ["push", "directed_pull"])
def test_restore_rejects_edge_count_that_disagrees_with_rows(tmp_path, name):
    """The envelope's edge count is checked against the rows it describes."""
    process = build(name)
    process.run(max_rounds=2)
    path = save_checkpoint(process, tmp_path / "snap")
    envelope = json.loads(path.read_text())
    envelope["meta"]["num_edges"] += 1  # the checksum covers only the .npz payload
    path.write_text(json.dumps(envelope))
    with pytest.raises(CheckpointError, match="inconsistent"):
        restore_process(load_checkpoint(path))


def test_periodic_checkpointer_rejects_nonpositive_period(tmp_path):
    with pytest.raises(ValueError, match="period must be >= 1"):
        periodic_checkpointer(tmp_path, 0)


def test_resume_with_checkpoint_every_requires_dir(tmp_path):
    process = build("push")
    process.run(max_rounds=2)
    path = save_checkpoint(process, tmp_path / "snap")
    with pytest.raises(ValueError, match="checkpoint_dir"):
        resume_from_checkpoint(path, checkpoint_every=2)


def test_resumed_run_keeps_checkpointing(tmp_path):
    """A resumed run writes later checkpoints, and resuming from those still
    reproduces the uninterrupted run."""
    reference = build("pull").run_to_convergence()

    interrupted = build("pull")
    interrupted.run(max_rounds=2)
    first = save_checkpoint(interrupted, tmp_path / "snap")
    later_dir = tmp_path / "later"
    resumed = resume_from_checkpoint(first, checkpoint_every=2, checkpoint_dir=later_dir)
    later = latest_checkpoint(later_dir)
    assert int(later.stem.split("_")[1]) > 2
    again = resume_from_checkpoint(later)
    for result in (resumed, again):
        assert (result.rounds, result.total_edges_added, result.total_messages) == (
            reference.rounds, reference.total_edges_added, reference.total_messages,
        )
        assert result.total_bits == reference.total_bits


def test_latest_checkpoint_skips_foreign_round_names(tmp_path):
    process = build("push")
    process.run(max_rounds=2)
    save_checkpoint(process, tmp_path / "round_00000002")
    (tmp_path / "round_final.json").write_text("{}")
    assert latest_checkpoint(tmp_path) == tmp_path / "round_00000002"


def test_latest_checkpoint_empty_dir(tmp_path):
    with pytest.raises(CheckpointError, match="no round_"):
        latest_checkpoint(tmp_path)


def test_instance_patched_process_not_checkpointable():
    from repro.core.scheduler import BernoulliActivation, ScheduledProcess

    process = build("push")
    ScheduledProcess(process, BernoulliActivation(0.5))
    with pytest.raises(CheckpointError, match="instance-patched"):
        capture_checkpoint(process)


def test_unregistered_process_not_checkpointable():
    from repro.core.push import PushDiscovery

    class Custom(PushDiscovery):
        pass

    rng = np.random.default_rng(SEED)
    process = Custom(gen.make_family("cycle", N, rng), rng=rng)
    with pytest.raises(CheckpointError, match="not a registered process"):
        capture_checkpoint(process)


@pytest.mark.parametrize("name", ["push", "directed_pull", "name_dropper"])
def test_list_substrate_checkpoint_resumes(name):
    """A version-1 file written on the removed list graphs (``capacity`` 0)
    resumes onto the array graph and ends where its uninterrupted run did.

    The files and the run's end state were recorded on list graphs:
    12-node graphs, push without replacement, checkpoints at rounds 1-6."""
    checkpoint = load_checkpoint(DATA_DIR / f"checkpoint_v1_list_{name}")
    assert (checkpoint.meta["backend"], checkpoint.meta["capacity"]) == ("list", 0)
    process = restore_process(checkpoint)
    process.run_to_convergence()
    state = json.dumps(process.rng.bit_generator.state, sort_keys=True).encode()
    expected = json.loads((DATA_DIR / "checkpoint_v1_list_expected.json").read_text())
    assert {
        "rounds": process.round_index,
        "edges": process.graph.number_of_edges(),
        "edges_added": process.total_edges_added,
        "messages": process.total_messages,
        "bits": process.total_bits,
        "rng_state_sha256": hashlib.sha256(state).hexdigest(),
    } == expected[name]
