"""Exact trial checkpoint/resume: snapshot a running process, restart it later.

Long experiments must survive worker death and process restarts (the
ROADMAP's simulation-as-a-service prerequisite), so this module serialises
the *complete* dynamic state of a trial — graph, process counters, and the
RNG — and restores it so that a resumed run is **draw-for-draw identical**
to the uninterrupted one: same contact graphs round by round, same final
bit-generator state.  The property is pinned by ``tests/test_checkpoint.py``
for every registered process.

Checkpoint file format (version 1)
----------------------------------
A checkpoint is two files sharing one stem, written atomically (temp file
in the target directory + ``os.replace``) and in order:

``<stem>.npz``
    The array payload (an uncompressed NumPy ``.npz``): the padded
    (out-)neighbour rows trimmed to the occupied width, the degree vector,
    and per-process extras (the directed walk's packed target-closure
    rows, directed pointer jump's missing-closure pairs as a sorted
    ``(k, 2)`` array).  The rows are written as ``int32``, the dtype the
    graphs hold them in; files with ``int64`` rows, as written before,
    load the same.
    Packed membership bitsets and in-degrees are *derived* state — they
    are rebuilt exactly from the rows on restore and never stored.  The
    payload is streamed from the live arrays into its temporary file a
    block at a time (:func:`~repro.simulation.io.atomic_write_npz`), and
    the checksum is read back from that file, so a snapshot never holds a
    second copy of the rows or of the file's bytes in memory.
``<stem>.json``
    The envelope, written **after** the payload so it is the commit point:
    ``format`` and ``version`` fields, a ``checksum`` block holding the
    SHA-256 of the ``.npz`` file, the ``meta`` block (process registry
    name, backend, semantics, round/message/bit counters, the directed
    deficit counter), and the full ``rng_state`` — the process
    generator's ``bit_generator.state`` dict.  ``backend`` is always
    ``"array"`` now.  Files written by the removed list backend store the
    same payload (rows trimmed, in insertion order) with ``capacity`` 0,
    and restore onto the array graph like any other.

Compatibility policy: the loader accepts exactly
:data:`CHECKPOINT_VERSION`.  Any format evolution bumps the version and
must ship an explicit migration; a mismatched version, a wrong checksum,
a truncated envelope, or a version-1 file that this build cannot replay
draw-for-draw all raise :class:`CheckpointError` rather than resuming
from silently corrupt state.

Older version-1 ``directed_pull`` files also carry ``closure_reach``, the
closure of the evolving graph, which never differs from the start's (the
walk only adds closure edges).  This build ignores it and resumes such
files draw for draw, but no longer writes it: a loader that requires it
cannot resume a ``directed_pull`` checkpoint written by this build.

What is checkpointable
----------------------
Every process constructible through the registry
(:data:`repro.simulation.engine.PROCESS_REGISTRY`).  A process with an
instance-patched ``propose`` or ``participating_nodes`` (one that
:func:`~repro.core.scheduler.apply_schedule` gave a schedule) and an
unregistered subclass raise :class:`CheckpointError`: their extra state
lives outside the format.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.core.base import DiscoveryProcess, RunResult, UpdateSemantics
from repro.core.directed import DirectedTwoHopWalk
from repro.core.push import PushDiscovery
from repro.baselines.pointer_jump import RandomPointerJump
from repro.graphs import bitset
from repro.graphs import array_adjacency
from repro.graphs.array_adjacency import ROW_DTYPE, ArrayDiGraph, ArrayGraph, _round_up_pow2
from repro.simulation.engine import PROCESS_REGISTRY, make_process
from repro.simulation.io import atomic_write_bytes, atomic_write_npz

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "TrialCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    "restore_process",
    "resume_from_checkpoint",
    "periodic_checkpointer",
    "latest_checkpoint",
]

PathLike = Union[str, Path]

CHECKPOINT_FORMAT = "repro-gossip-trial-checkpoint"
CHECKPOINT_VERSION = 1

_ROUND_STEM = re.compile(r"^round_(\d+)$")


class CheckpointError(RuntimeError):
    """A checkpoint could not be captured, written, verified, or restored."""


@dataclass
class TrialCheckpoint:
    """In-memory form of one checkpoint: envelope metadata plus array payload.

    ``meta`` mirrors the JSON envelope's ``meta`` block; ``arrays`` holds
    the ``.npz`` payload; ``rng_state`` is the generator's
    ``bit_generator.state`` dict (restored verbatim, which is what makes
    resumed draws identical).  A :func:`capture_checkpoint` result's
    arrays are views of the live process state: write or copy them before
    the process runs another round.
    """

    meta: Dict[str, object]
    arrays: Dict[str, np.ndarray]
    rng_state: Dict[str, object]
    version: int = CHECKPOINT_VERSION

    @property
    def process_name(self) -> str:
        """Registry name of the checkpointed process."""
        return str(self.meta["process"])

    @property
    def round_index(self) -> int:
        """Round the checkpoint was taken at (rounds completed so far)."""
        return int(self.meta["round_index"])


# --------------------------------------------------------------------------- #
# capture
# --------------------------------------------------------------------------- #
def _registry_name(process: DiscoveryProcess) -> str:
    """Reverse registry lookup by exact type (subclasses are distinct entries)."""
    directed = bool(getattr(process.graph, "directed", False))
    for name, (ctor, needs_directed) in PROCESS_REGISTRY.items():
        if ctor is type(process) and needs_directed == directed:
            return name
    raise CheckpointError(
        f"{type(process).__name__} is not a registered process; only registry "
        f"processes are checkpointable (known: {sorted(PROCESS_REGISTRY)})"
    )


def _graph_payload(graph) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """Neighbour rows + degrees: the complete graph state, as live views.

    Rows are stored trimmed to the occupied width; everything else (packed
    membership bits, in-degrees, the capacity padding) is derived on
    restore.  Insertion order inside each row is preserved, which is the
    property the draw-stream contract rests on.
    """
    directed = graph.directed
    rows, deg = graph.out_neighbor_rows() if directed else graph.neighbor_rows()
    width = int(deg.max()) if deg.size else 0
    meta = {
        "n": graph.n,
        "directed": directed,
        "num_edges": graph.number_of_edges(),
        "capacity": graph.capacity,
    }
    arrays = {"nbr": rows[:, : max(width, 1)], "deg": deg}
    return meta, arrays


def capture_checkpoint(process: DiscoveryProcess) -> TrialCheckpoint:
    """Snapshot ``process``: its envelope metadata and views of its arrays."""
    if "propose" in process.__dict__ or "participating_nodes" in process.__dict__:
        raise CheckpointError(
            "process has instance-patched hooks (e.g. a schedule from apply_schedule); "
            "its extra state lies outside the checkpoint format"
        )
    name = _registry_name(process)
    graph_meta, arrays = _graph_payload(process.graph)

    # Constructor kwargs, keyed by exact type: the faulty variants subclass
    # push/pull but do not accept ``without_replacement``.
    kwargs: Dict[str, object] = {}
    if type(process) is PushDiscovery:
        kwargs["without_replacement"] = bool(process.without_replacement)
    if hasattr(process, "failure_prob"):
        kwargs["failure_prob"] = float(process.failure_prob)
        kwargs["participation_prob"] = float(process.participation_prob)

    meta: Dict[str, object] = {
        "process": name,
        "backend": "array",
        "semantics": process.semantics.value,
        "round_index": process.round_index,
        "total_edges_added": process.total_edges_added,
        "total_messages": process.total_messages,
        "total_bits": process.total_bits,
        "process_kwargs": kwargs,
        **graph_meta,
    }
    if isinstance(process, DirectedTwoHopWalk):
        meta["deficit"] = int(process._deficit)
        arrays["target_bits"] = process._target_bits
    if isinstance(process, RandomPointerJump) and process.graph.directed:
        meta["has_missing"] = True
        arrays["missing"] = process.missing_closure_pairs()
    return TrialCheckpoint(
        meta=meta,
        arrays=arrays,
        rng_state=process.rng.bit_generator.state,
    )


# --------------------------------------------------------------------------- #
# serialisation
# --------------------------------------------------------------------------- #
def _stem(path: PathLike) -> Path:
    """Normalise a checkpoint path (stem, ``.json`` or ``.npz``) to its stem."""
    p = Path(path)
    if p.suffix in (".json", ".npz"):
        return p.with_suffix("")
    return p


def save_checkpoint(process: DiscoveryProcess, path: PathLike) -> Path:
    """Checkpoint ``process`` under ``path`` (stem); returns the envelope path.

    Streams ``<stem>.npz`` from the live arrays into its temporary file
    first, then writes the ``<stem>.json`` envelope carrying the SHA-256 of
    the file written — the envelope is the commit point, so a crash
    mid-write never leaves a checkpoint that both exists and fails to load.
    """
    checkpoint = capture_checkpoint(process)
    stem = _stem(path)
    npz = atomic_write_npz(stem.with_suffix(".npz"), checkpoint.arrays)
    envelope = {
        "format": CHECKPOINT_FORMAT,
        "version": checkpoint.version,
        "checksum": {"algorithm": "sha256", "npz": _sha256(npz)},
        "meta": checkpoint.meta,
        "rng_state": checkpoint.rng_state,
    }
    target = stem.with_suffix(".json")
    atomic_write_bytes(target, (json.dumps(envelope, indent=2, sort_keys=True) + "\n").encode())
    return target


def _sha256(path: Path) -> str:
    """Hex SHA-256 of the file at ``path``, read in chunks."""
    with path.open("rb") as handle:
        return hashlib.file_digest(handle, "sha256").hexdigest()


def load_checkpoint(path: PathLike) -> TrialCheckpoint:
    """Load and verify a checkpoint written by :func:`save_checkpoint`.

    Raises :class:`CheckpointError` on a missing file, invalid/truncated
    JSON, an unknown format or version, or a payload checksum mismatch.
    """
    stem = _stem(path)
    envelope_path = stem.with_suffix(".json")
    npz_path = stem.with_suffix(".npz")
    try:
        raw = envelope_path.read_text()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint envelope {envelope_path}: {exc}") from exc
    try:
        envelope = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint envelope {envelope_path} is not valid JSON "
            f"(truncated or corrupt write?): {exc}"
        ) from exc
    if not isinstance(envelope, dict) or envelope.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{envelope_path} is not a {CHECKPOINT_FORMAT} envelope")
    version = envelope.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version!r} is not supported "
            f"(this build reads version {CHECKPOINT_VERSION} only)"
        )
    try:
        digest = _sha256(npz_path)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint payload {npz_path}: {exc}") from exc
    checksum = envelope.get("checksum", {})
    expected = checksum.get("npz")
    if expected != digest:
        raise CheckpointError(
            f"checkpoint payload {npz_path} fails its checksum "
            f"(expected sha256 {expected}, got {digest}); refusing to resume"
        )
    with np.load(npz_path) as npz:
        arrays = {key: npz[key] for key in npz.files}
    return TrialCheckpoint(
        meta=envelope["meta"],
        arrays=arrays,
        rng_state=envelope["rng_state"],
        version=int(version),
    )


# --------------------------------------------------------------------------- #
# restore
# --------------------------------------------------------------------------- #
def _restore_rng(state: Dict[str, object]) -> np.random.Generator:
    """Rebuild a generator whose bit generator is in exactly ``state``."""
    name = state.get("bit_generator")
    ctor = getattr(np.random, str(name), None)
    if ctor is None:
        raise CheckpointError(f"unknown bit generator {name!r} in checkpoint RNG state")
    bit_generator = ctor()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def _restore_graph(meta: Dict[str, object], rows: np.ndarray, deg: np.ndarray):
    """Rebuild the graph from trimmed rows (bits/in-degrees derived).

    A ``capacity`` of 0 (written by the removed list backend) or one
    narrower than the rows means the smallest power of two that fits.
    The rows become ``int32`` whatever dtype the file stored, and the
    membership bits are set one block of rows at a time, so no temporary
    outgrows :data:`~repro.graphs.array_adjacency.CHUNK` entries.
    """
    n = int(meta["n"])
    directed = bool(meta["directed"])
    width = rows.shape[1]
    cap = max(_round_up_pow2(width if n else 1), int(meta.get("capacity") or 0))
    nbr = np.full((n, cap), -1, dtype=ROW_DTYPE)
    nbr[:, :width] = rows
    graph = ArrayDiGraph(n) if directed else ArrayGraph(n)
    bits = graph.adjacency_bits()
    in_deg = np.zeros(n, dtype=np.int64)
    step = max(1, array_adjacency.CHUNK // max(width, 1))
    for start in range(0, n, step):
        owners, slots = np.nonzero(np.arange(width) < deg[start : start + step, None])
        owners += start
        targets = nbr[owners, slots]
        bitset.set_bits(bits, owners, targets)
        if directed:
            in_deg += np.bincount(targets, minlength=n)
    if directed:
        graph._cap = cap
        graph._out = nbr
        graph._out_deg = deg.copy()
        graph._in_deg = in_deg
        graph._num_edges = int(deg.sum())
    else:
        graph._cap = cap
        graph._nbr = nbr
        graph._deg = deg.copy()
        graph._num_edges = int(deg.sum()) // 2
    if graph._num_edges != int(meta["num_edges"]):
        raise CheckpointError(
            f"checkpoint graph payload is inconsistent: rows encode "
            f"{graph._num_edges} edges, envelope says {meta['num_edges']}"
        )
    return graph


def restore_process(checkpoint: TrialCheckpoint) -> DiscoveryProcess:
    """Rebuild the checkpointed process, ready to continue draw-for-draw."""
    meta = checkpoint.meta
    # Version-1 files from the removed row-sharded engine drew each round's
    # uniforms from a per-round stream; resuming one here would silently
    # follow a different trajectory.
    shards = int(meta.get("shards", 1))
    if shards > 1:
        raise CheckpointError(
            f"checkpoint was taken with shards={shards}; row-sharded rounds draw "
            "a different stream, so it cannot be resumed draw-for-draw"
        )
    deg = np.asarray(checkpoint.arrays["deg"], dtype=np.int64)
    graph = _restore_graph(meta, checkpoint.arrays["nbr"], deg)
    process = make_process(
        checkpoint.process_name,
        graph,
        rng=_restore_rng(checkpoint.rng_state),
        semantics=UpdateSemantics(meta["semantics"]),
        **dict(meta.get("process_kwargs") or {}),
    )
    process.round_index = int(meta["round_index"])
    process.total_edges_added = int(meta["total_edges_added"])
    process.total_messages = int(meta["total_messages"])
    process.total_bits = int(meta["total_bits"])
    # The constructors recompute the closure bookkeeping from the restored
    # graph (exact, because these processes only ever add closure-internal
    # edges); overwrite with the stored rows anyway so the restored state
    # is the checkpoint, not an invariant argument about it.  An older
    # file's ``closure_reach`` array is not read.
    if isinstance(process, DirectedTwoHopWalk):
        process._target_bits = np.asarray(checkpoint.arrays["target_bits"], dtype=np.uint64)
        process._deficit = int(meta["deficit"])
    if isinstance(process, RandomPointerJump) and meta.get("has_missing"):
        missing = np.asarray(checkpoint.arrays["missing"], dtype=np.int64).reshape(-1, 2)
        target = graph.adjacency_bits().copy()
        bitset.set_bits(target, missing[:, 0], missing[:, 1])
        process._target_bits = target
        process._deficit = missing.shape[0]
    return process


# --------------------------------------------------------------------------- #
# run-loop integration
# --------------------------------------------------------------------------- #
def periodic_checkpointer(checkpoint_dir: PathLike, every: int):
    """A run-loop callback that checkpoints every ``every`` completed rounds.

    Checkpoints are written as ``round_<index>`` stems under
    ``checkpoint_dir`` (index = rounds completed, zero-padded so
    lexicographic order is round order).
    """
    if every < 1:
        raise ValueError(f"checkpoint period must be >= 1, got {every}")
    directory = Path(checkpoint_dir)

    def callback(process: DiscoveryProcess, result) -> None:
        if process.round_index % every == 0:
            save_checkpoint(process, directory / f"round_{process.round_index:08d}")

    return callback


def latest_checkpoint(checkpoint_dir: PathLike) -> Path:
    """The highest-round ``round_*`` checkpoint stem under ``checkpoint_dir``."""
    directory = Path(checkpoint_dir)
    best: Optional[Tuple[int, Path]] = None
    for candidate in directory.glob("round_*.json"):
        match = _ROUND_STEM.match(candidate.stem)
        if match is None:
            continue
        key = (int(match.group(1)), candidate.with_suffix(""))
        if best is None or key[0] > best[0]:
            best = key
    if best is None:
        raise CheckpointError(f"no round_* checkpoints found under {directory}")
    return best[1]


def resume_from_checkpoint(
    path: PathLike,
    max_rounds: Optional[int] = None,
    checkpoint_every: int = 0,
    checkpoint_dir: Optional[PathLike] = None,
    record_history: bool = False,
) -> RunResult:
    """Restore a checkpoint and run it to convergence.

    The returned :class:`RunResult` reports ``rounds`` as the process's
    total round count *since the start of the trial* (not just the rounds
    executed after the resume), so a resumed run's result equals the
    uninterrupted run's.  ``checkpoint_every``/``checkpoint_dir`` continue
    periodic checkpointing from where the interrupted run left off.
    """
    process = restore_process(load_checkpoint(path))
    callbacks = ()
    if checkpoint_every:
        if checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")
        callbacks = (periodic_checkpointer(checkpoint_dir, checkpoint_every),)
    result = process.run_to_convergence(
        max_rounds=max_rounds, callbacks=callbacks, record_history=record_history
    )
    return replace(result, rounds=process.round_index)
