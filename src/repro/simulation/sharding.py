"""Sharded round execution over row-partitioned packed membership rows.

The array backend executes a whole round as bulk NumPy work; this module
splits that work across **contiguous node-row shards** so large-``n``
sweeps can use several cores.  The design is the row-partitioned fan-out
of the PRAM/MPC round-compression literature, specialised to the packed
bitset substrate:

1. **Partition.**  :class:`ShardPlan` cuts the node rows ``0 .. n-1`` into
   ``k`` contiguous, near-equal ranges.  A shard owns the *proposals* (or,
   for the payload processes, the *received deliveries*) of its rows; the
   round-start graph state is shared read-only by every shard.
2. **Propose per shard.**  Each shard runs its propose phase
   independently: one bulk draw per shard (see the RNG convention below)
   plus the same index math as the unsharded vectorized kernels, over the
   shared padded (out-)neighbour rows and packed membership rows.
3. **OR-merge.**  Shards report packed membership deltas — proposal
   endpoint arrays for the gossip processes (push, pull and the directed
   two-hop walk), a packed block of delta rows for the payload baselines
   (flooding, Name Dropper, pointer jump) — which the coordinator
   accumulates in a :class:`repro.graphs.bitset.DeltaRows`
   (``or_into_range`` for row blocks).  New edges are extracted in
   canonical row-major order and applied through the graph's batched
   insert, so the application order never depends on the shard count.

The whole registry is shardable: the directed walk's two hops are pull's
two-hop index math over the out-neighbour rows, and the Name Dropper /
pointer-jump payload rounds OR-merge through the same
``or_into_range``/``DeltaRows`` kernels flooding's deliveries do (Name
Dropper partitions by *recipient* — every shard derives the identical
full-round target draw and keeps the deliveries landing in its own row
range; pointer jump partitions by *puller*, whose learned row is its own).

Execution is in-process by default; for large ``n`` (or on request) the
shards run on a :class:`concurrent.futures.ProcessPoolExecutor`, with the
round-start arrays (neighbour rows, degrees, packed membership) published
through :mod:`multiprocessing.shared_memory` so workers never pickle the
O(n²) state.

The pool path is crash-tolerant: worker death
(:class:`~concurrent.futures.process.BrokenProcessPool`) discards the
broken pool and **retries the round** on a fresh one with capped
exponential backoff — safe because the round's uniforms derive from
``(entropy, round_index)``, not from pool state, so a retried round is
draw-for-draw identical to the attempt that died.  After ``retries``
failed attempts within a round the process degrades permanently to
in-process sharded execution (identical semantics, no pool).  Every
failure path — retry, degradation, or a propagating worker exception —
releases the published shared-memory blocks, so no segment outlives the
round that created it.

Per-shard RNG convention (the trace contract)
---------------------------------------------
``shards=1`` never enters this module's round path: it delegates straight
to the wrapped process, so it is draw-for-draw identical to the unsharded
array backend (the golden traces pass unmodified).

For ``shards >= 2`` every round derives one child stream from the trial's
:class:`numpy.random.SeedSequence` — ``SeedSequence(entropy,
spawn_key=(round_index,))`` — and each shard instantiates its own copy of
that child generator, draws the round's full logical ``(stages, n)``
uniform array, and consumes the row slice it owns.  Redrawing the whole
array per shard costs O(n) (trivial next to the shard's row-union work)
and buys the two properties the tests pin:

* **determinism** — a fixed ``(seed, shard count)`` always produces the
  same trajectory, regardless of worker scheduling;
* **shard-count invariance** — the per-node uniforms do not depend on
  where the shard boundaries fall, so for push/pull (and trivially for
  the deterministic flooding) the edge trajectory is *identical* for any
  ``shards >= 2``.

The sharded stream is intentionally distinct from the unsharded one
(which consumes the process's own generator sequentially); sharding is a
scaling mode, not a replay mode, and the contract is the three-way one
above, exactly as pinned by ``tests/test_sharding.py``.
"""

from __future__ import annotations

import logging
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.baselines._packed import concat_rows, packed_rows
from repro.baselines.flooding import NeighborhoodFlooding
from repro.baselines.name_dropper import NameDropper
from repro.baselines.pointer_jump import RandomPointerJump
from repro.core.base import BatchProposals, DiscoveryProcess, RoundResult
from repro.core.base import UpdateSemantics
from repro.core.directed import DirectedTwoHopWalk
from repro.core.pull import PullDiscovery
from repro.core.push import PushDiscovery
from repro.graphs import bitset
from repro.graphs.array_adjacency import EdgeArrays, backend_name
from repro.graphs.sampling import masked_counts, uniform_indices

__all__ = [
    "ShardPlan",
    "ShardedProcess",
    "SHARDABLE_PROCESSES",
    "DEFAULT_PARALLEL_THRESHOLD",
    "DEFAULT_SHARD_RETRIES",
]

logger = logging.getLogger(__name__)

#: process classes with a registered sharded propose kernel (exact types —
#: subclasses may customise ``propose`` and must opt in explicitly).  The
#: gossip processes merge sparse proposal endpoints, the payload baselines
#: merge packed delta-row blocks.  The faulty variants (``faulty_push``,
#: ``faulty_pull``) are the registry's only processes left out: they draw
#: per-call fault decisions inside ``propose``, while the shard kernels
#: replay only the bulk per-round uniform convention, so sharding them
#: would change the draw sequence.
SHARDABLE_PROCESSES: Dict[type, str] = {
    PushDiscovery: "push",
    PullDiscovery: "pull",
    DirectedTwoHopWalk: "directed_walk",
    NeighborhoodFlooding: "flooding",
    NameDropper: "name_dropper",
    RandomPointerJump: "pointer_jump",
}

#: kinds whose shards report packed delta-row blocks (OR-merged through
#: ``DeltaRows.or_into_range``); the rest report proposal endpoint arrays.
_ROWBLOCK_KINDS = frozenset({"flooding", "name_dropper", "pointer_jump"})

#: below this n the per-round process-pool round-trip costs more than the
#: round itself; the auto mode stays in-process.
DEFAULT_PARALLEL_THRESHOLD = 2048

#: pool-death retries per round before degrading to in-process execution
DEFAULT_SHARD_RETRIES = 3

#: backoff after the k-th pool failure is BASE * 2**(k-1), capped
_BACKOFF_BASE_SECONDS = 0.05
_BACKOFF_CAP_SECONDS = 2.0

#: uniform stages per round for the RNG-driven kernels (two hops / two
#: endpoints; the single-draw payload rounds consume stage 0 only, which
#: keeps the logical round array one fixed shape for every kind).
_STAGES = 2


class ShardPlan:
    """Contiguous near-equal partition of the node rows ``0 .. n-1``.

    ``shards`` is clamped to ``n`` (a shard must own at least one row);
    the effective count is exposed as :attr:`shards`.
    """

    __slots__ = ("n", "shards", "bounds")

    def __init__(self, n: int, shards: int) -> None:
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        if n < 0:
            raise ValueError(f"node count must be non-negative, got {n}")
        self.n = int(n)
        self.shards = max(1, min(int(shards), self.n)) if self.n else 1
        edges = [(i * self.n) // self.shards for i in range(self.shards + 1)]
        self.bounds: List[Tuple[int, int]] = list(zip(edges[:-1], edges[1:]))

    def __repr__(self) -> str:
        return f"ShardPlan(n={self.n}, shards={self.shards})"


# --------------------------------------------------------------------------- #
# per-shard kernels (pure functions: shareable arrays in, fresh arrays out)
# --------------------------------------------------------------------------- #
def _gather(block: np.ndarray, rowsel: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``block[rowsel[i], idx[i]]`` with ``-1`` passthrough for ``idx < 0``."""
    gathered = block[rowsel, np.maximum(idx, 0)]
    return np.where(idx >= 0, gathered, -1)


def _push_shard(
    nbr: np.ndarray,
    deg: np.ndarray,
    lo: int,
    hi: int,
    u1: np.ndarray,
    u2: np.ndarray,
    without_replacement: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Push proposals of rows ``[lo, hi)`` — the sliced form of the unsharded kernel."""
    counts = deg[lo:hi]
    block = nbr[lo:hi]
    rowsel = np.arange(hi - lo, dtype=np.int64)
    if without_replacement:
        i = uniform_indices(u1, counts)
        j = uniform_indices(u2, counts - 1)
        j = np.where(j >= i, j + 1, j)
        vs = _gather(block, rowsel, i)
        ws = _gather(block, rowsel, np.where(counts >= 2, j, -1))
        valid = counts >= 2
    else:
        vs = _gather(block, rowsel, uniform_indices(u1, counts))
        ws = _gather(block, rowsel, uniform_indices(u2, counts))
        valid = (vs >= 0) & (vs != ws)
    pos = np.flatnonzero(valid)
    return vs[pos], ws[pos], pos + lo


def _pull_shard(
    nbr: np.ndarray,
    deg: np.ndarray,
    lo: int,
    hi: int,
    u1: np.ndarray,
    u2: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pull proposals of rows ``[lo, hi)``: both hops over the shared rows."""
    nodes = np.arange(lo, hi, dtype=np.int64)
    rowsel = np.arange(hi - lo, dtype=np.int64)
    vs = _gather(nbr[lo:hi], rowsel, uniform_indices(u1, deg[lo:hi]))
    safe, counts2 = masked_counts(vs, deg)
    ws = _gather(nbr, safe, uniform_indices(u2, counts2))
    valid = (vs >= 0) & (ws >= 0) & (ws != nodes)
    pos = np.flatnonzero(valid)
    return nodes[pos], ws[pos], pos + lo


def _flooding_shard(
    nbr: np.ndarray, deg: np.ndarray, bits: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """Packed delta rows ``[lo, hi)`` of one flooding round (receiver-partitioned).

    Row ``v`` of the result holds the bits ``v`` newly learns this round:
    the OR of its neighbours' round-start rows, minus the diagonal and the
    bits it already had.  Flooding has every node send, so partitioning by
    receiver keeps each shard's output confined to its own row range.
    """
    merged = bits[lo:hi].copy()
    local = np.flatnonzero(deg[lo:hi] > 0)
    if local.size:
        receivers = local + lo
        counts = deg[receivers]
        senders = concat_rows(nbr, receivers, counts)
        bitset.rows_or_into(merged, np.repeat(local, counts), bits, senders)
    rowsel = np.arange(hi - lo, dtype=np.int64)
    bitset.clear_bits(merged, rowsel, rowsel + lo)
    np.bitwise_and(merged, ~bits[lo:hi], out=merged)
    return merged


def _bulk_target_draw(nbr: np.ndarray, deg: np.ndarray, u_row: np.ndarray) -> np.ndarray:
    """Full-round uniform (out-)neighbour targets from one logical uniform row.

    The sharded form of ``random_neighbors(arange(n))``: ``-1`` marks nodes
    with no (out-)neighbours.  Shard-count invariant by construction — the
    uniforms come from the shared logical round array.
    """
    nodes = np.arange(deg.shape[0], dtype=np.int64)
    return _gather(nbr, nodes, uniform_indices(u_row, deg))


def _name_dropper_shard(
    nbr: np.ndarray, deg: np.ndarray, bits: np.ndarray, lo: int, hi: int, u_row: np.ndarray
) -> np.ndarray:
    """Packed delta rows ``[lo, hi)`` of one Name Dropper round (recipient-partitioned).

    Every shard derives the identical full-round target draw from the
    shared logical uniforms and keeps only the deliveries landing in its
    own row range: recipient ``v``'s delta is the OR of its senders'
    round-start rows plus the senders' own ID bits ("every ID I know, then
    my own"), minus ``v``'s own bit and the bits it already had.
    """
    targets = _bulk_target_draw(nbr, deg, u_row)
    send = np.flatnonzero((targets >= lo) & (targets < hi))
    merged = np.zeros((hi - lo, bits.shape[1]), dtype=np.uint64)
    if send.size:
        recipients = targets[send] - lo
        bitset.rows_or_into(merged, recipients, bits, send)
        bitset.set_bits(merged, recipients, send)
    rowsel = np.arange(hi - lo, dtype=np.int64)
    bitset.clear_bits(merged, rowsel, rowsel + lo)
    np.bitwise_and(merged, ~bits[lo:hi], out=merged)
    return merged


def _pointer_jump_shard(
    nbr: np.ndarray, deg: np.ndarray, bits: np.ndarray, lo: int, hi: int, u_slice: np.ndarray
) -> np.ndarray:
    """Packed delta rows ``[lo, hi)`` of one pointer-jump round (puller-partitioned).

    Each puller ``u`` in the shard's range learns its chosen neighbour's
    entire round-start (out-)row, so the learned rows stay confined to the
    shard's own range — the same shape as flooding's receiver partition.
    """
    rowsel = np.arange(hi - lo, dtype=np.int64)
    vs = _gather(nbr[lo:hi], rowsel, uniform_indices(u_slice, deg[lo:hi]))
    ok = np.flatnonzero(vs >= 0)
    merged = np.zeros((hi - lo, bits.shape[1]), dtype=np.uint64)
    if ok.size:
        bitset.rows_or_into(merged, ok, bits, vs[ok])
    bitset.clear_bits(merged, rowsel, rowsel + lo)
    np.bitwise_and(merged, ~bits[lo:hi], out=merged)
    return merged


def _run_kernel(
    kind: str,
    nbr: np.ndarray,
    deg: np.ndarray,
    bits: Optional[np.ndarray],
    lo: int,
    hi: int,
    u: Optional[np.ndarray],
    without_replacement: bool = False,
):
    """Dispatch one shard of one round to its kind's kernel.

    Shared by the in-process loop and the pool worker so the two execution
    paths can never drift apart.
    """
    if kind == "flooding":
        return _flooding_shard(nbr, deg, bits, lo, hi)
    if kind == "push":
        return _push_shard(nbr, deg, lo, hi, u[0, lo:hi], u[1, lo:hi], without_replacement)
    if kind in ("pull", "directed_walk"):
        # The directed two-hop walk is pull's two-hop index math over the
        # shared out-neighbour rows (the round state already carries them).
        return _pull_shard(nbr, deg, lo, hi, u[0, lo:hi], u[1, lo:hi])
    if kind == "name_dropper":
        return _name_dropper_shard(nbr, deg, bits, lo, hi, u[0])
    if kind == "pointer_jump":
        return _pointer_jump_shard(nbr, deg, bits, lo, hi, u[0, lo:hi])
    raise ValueError(f"unknown shard kind {kind!r}")


def _round_uniforms(entropy: int, round_index: int, n: int) -> np.ndarray:
    """The round's full logical ``(stages, n)`` uniform array.

    Every shard of a round derives the identical child stream —
    ``SeedSequence(entropy, spawn_key=(round_index,))`` — so the per-node
    uniforms are independent of the shard boundaries (the shard-count
    invariance half of the trace contract).
    """
    ss = np.random.SeedSequence(entropy, spawn_key=(round_index,))
    return np.random.default_rng(ss).random((_STAGES, n))


# --------------------------------------------------------------------------- #
# the multiprocess worker (module-level so it crosses a spawn boundary)
# --------------------------------------------------------------------------- #
def _attach(spec: Tuple[str, tuple, str], refs: list) -> np.ndarray:
    """Map a ``(shm_name, shape, dtype)`` spec to a live array view."""
    name, shape, dtype = spec
    shm = shared_memory.SharedMemory(name=name)
    refs.append(shm)
    return np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)


def _shard_task(payload: dict):
    """Run one shard of one round against the shared round-start arrays.

    Returns fresh (non-shared) arrays only, because the shared-memory
    views are closed before the result is pickled back.
    """
    directive = payload.get("fault")
    if directive is not None:
        # Executed before any shared memory is attached, so an injected
        # "exit" death leaves no worker-side references behind.
        from repro.network.failures import FaultInjector

        FaultInjector.execute(
            directive, f"shard {payload['shard']} of round {payload['round_index']}"
        )
    refs: list = []
    try:
        nbr = _attach(payload["nbr"], refs)
        deg = _attach(payload["deg"], refs)
        bits = _attach(payload["bits"], refs) if "bits" in payload else None
        kind = payload["kind"]
        u = None
        if kind != "flooding":
            u = _round_uniforms(payload["entropy"], payload["round_index"], payload["n"])
        return _run_kernel(
            kind,
            nbr,
            deg,
            bits,
            payload["lo"],
            payload["hi"],
            u,
            payload.get("without_replacement", False),
        )
    finally:
        for shm in refs:
            shm.close()


class _SharedBlock:
    """One shared-memory array slot, re-created when the source shape grows."""

    __slots__ = ("shm", "shape", "dtype")

    def __init__(self) -> None:
        self.shm: Optional[shared_memory.SharedMemory] = None
        self.shape: Optional[tuple] = None
        self.dtype: Optional[np.dtype] = None

    def publish(self, array: np.ndarray) -> Tuple[str, tuple, str]:
        """Copy ``array`` into the slot; return the worker-side spec."""
        if self.shm is None or self.shape != array.shape or self.dtype != array.dtype:
            self.release()
            self.shm = shared_memory.SharedMemory(create=True, size=max(array.nbytes, 1))
            self.shape = array.shape
            self.dtype = array.dtype
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=self.shm.buf)
        np.copyto(view, array)
        return self.shm.name, array.shape, array.dtype.str

    def release(self) -> None:
        """Close and unlink the segment; never silent — failures are logged.

        Unlink is the step that actually frees the kernel object; when it
        fails for any reason other than "already gone", the segment name
        is logged so a leak is attributable instead of invisible.
        """
        if self.shm is None:
            return
        name = self.shm.name
        try:
            self.shm.close()
        except OSError as exc:  # pragma: no cover - close failure is exotic
            logger.warning("closing shared-memory segment %s failed: %s", name, exc)
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        except OSError as exc:  # pragma: no cover - unlink failure is exotic
            logger.warning(
                "unlinking shared-memory segment %s failed: %s (segment may leak)",
                name,
                exc,
            )
        finally:
            self.shm = None
            self.shape = None
            self.dtype = None


class ShardedProcess:
    """Run a supported process with its rounds executed shard by shard.

    Parameters
    ----------
    process:
        Any registered process — push, pull, the directed two-hop walk,
        Name Dropper, Random Pointer Jump (undirected or directed) or
        neighbourhood flooding (see :data:`SHARDABLE_PROCESSES`) — on the
        **array backend** with synchronous semantics and default (full)
        activation.  The wrapper mutates the process's graph and counters,
        so the wrapped instance stays the single source of truth for
        convergence and metrics (including the directed processes'
        closure-deficit tracking, fed through their ``_absorb_added``
        hooks).
    shards:
        Requested shard count (clamped to ``n``).  ``shards=1`` delegates
        every ``step()`` straight to the process — draw-for-draw identical
        to the unsharded array backend.
    seed:
        Entropy for the per-round shard streams: an ``int``, a
        :class:`numpy.random.SeedSequence` (e.g. the trial's), or ``None``
        to derive it deterministically from the process's own generator.
        Ignored when ``shards=1``.
    parallel:
        ``True`` — run shards on a process pool over shared memory;
        ``False`` — run shards in-process (still sharded semantics);
        ``None`` — auto: use the pool when ``n >= parallel_threshold``.
    parallel_threshold:
        The auto-mode cutover size (default
        :data:`DEFAULT_PARALLEL_THRESHOLD`).
    retries:
        Worker-pool deaths tolerated per round before degrading
        permanently to in-process sharded execution (default
        :data:`DEFAULT_SHARD_RETRIES`).  Retries are draw-for-draw safe:
        the round's uniforms derive from ``(entropy, round_index)``.
    fault_injector:
        Test hook: a :class:`repro.network.failures.FaultInjector` whose
        scheduled ``(round, shard)`` faults fire inside pool workers.
    """

    def __init__(
        self,
        process: DiscoveryProcess,
        shards: int,
        seed: Union[int, np.random.SeedSequence, None] = None,
        parallel: Optional[bool] = None,
        parallel_threshold: int = DEFAULT_PARALLEL_THRESHOLD,
        retries: int = DEFAULT_SHARD_RETRIES,
        fault_injector=None,
    ) -> None:
        kind = SHARDABLE_PROCESSES.get(type(process))
        if kind is None:
            supported = sorted(cls.__name__ for cls in SHARDABLE_PROCESSES)
            raise ValueError(
                f"{type(process).__name__} has no sharded round kernel; "
                f"shardable processes: {supported}"
            )
        if backend_name(process.graph) != "array":
            raise ValueError("sharded execution requires the array graph backend")
        if process.semantics is not UpdateSemantics.SYNCHRONOUS:
            raise ValueError("sharded execution requires synchronous semantics")
        if "propose" in process.__dict__ or "participating_nodes" in process.__dict__:
            raise ValueError(
                "sharded execution assumes the process's default propose rule and "
                "full activation; wrap with ScheduledProcess/ChurnModel instead of sharding"
            )
        self.process = process
        self.kind = kind
        self._directed = bool(getattr(process.graph, "directed", False))
        self.plan = ShardPlan(process.graph.n, shards)
        self.shards = self.plan.shards
        if self.shards > 1:
            if isinstance(seed, np.random.SeedSequence):
                self._entropy = int(seed.generate_state(1, np.uint64)[0])
            elif seed is not None:
                self._entropy = int(seed)
            else:
                # Deterministic given the process's seed, and drawn exactly
                # once regardless of the shard count (so it cannot break
                # cross-shard-count equivalence).
                self._entropy = int(process.rng.integers(np.iinfo(np.int64).max))
        else:
            self._entropy = 0
        if parallel is None:
            # Auto mode: pool only when the rounds are big enough to amortise
            # the round-trip, and never from inside a daemonic worker (the
            # trial runner's own fan-out), which may not spawn children.
            parallel = (
                self.shards > 1
                and process.graph.n >= parallel_threshold
                and not multiprocessing.current_process().daemon
            )
        self._parallel = bool(parallel) and self.shards > 1
        self._pool: Optional[ProcessPoolExecutor] = None
        self._blocks: Dict[str, _SharedBlock] = {}
        self._retries = int(retries)
        self._fault_injector = fault_injector
        #: cumulative worker-pool deaths survived (observability/tests)
        self.pool_failures = 0

    # ------------------------------------------------------------------ #
    # the sharded round
    # ------------------------------------------------------------------ #
    def step(self) -> RoundResult:
        """Execute one round: propose per shard, OR-merge, apply once."""
        if self.shards == 1:
            return self.process.step()
        # One logical draw per round, shared by the in-process kernels and
        # the accounting (pool workers regenerate it from the entropy —
        # cheaper than shipping it across the process boundary).
        u = None
        if self.kind != "flooding":
            u = _round_uniforms(self._entropy, self.process.round_index, self.plan.n)
        shard_results = self._run_shards(u)
        if self.kind in _ROWBLOCK_KINDS:
            return self._merge_rowblocks(shard_results, u)
        return self._merge_proposals(shard_results)

    def _round_state(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Shared round-start arrays: padded (out-)neighbour rows, degrees, bits."""
        state = packed_rows(self.process.graph)
        assert state is not None  # guaranteed by the array-backend gate
        return state

    def _run_shards(self, u: Optional[np.ndarray]) -> List:
        attempts = 0
        while self._parallel:
            try:
                return self._run_shards_parallel()
            except BrokenProcessPool:
                # Worker death (crash, OOM kill, injected fault).  Discard
                # the broken pool and retry the round — the uniforms derive
                # from (entropy, round_index), so the retry replays the dead
                # attempt draw-for-draw.
                self._discard_pool()
                self.pool_failures += 1
                attempts += 1
                if attempts > self._retries:
                    logger.warning(
                        "shard pool died %d times in round %d; degrading to "
                        "in-process sharded execution",
                        attempts,
                        self.process.round_index,
                    )
                    self._release_blocks()
                    self._parallel = False
                    break
                logger.warning(
                    "shard pool died in round %d (attempt %d/%d); rebuilding",
                    self.process.round_index,
                    attempts,
                    self._retries + 1,
                )
                time.sleep(
                    min(
                        _BACKOFF_BASE_SECONDS * (2 ** (attempts - 1)),
                        _BACKOFF_CAP_SECONDS,
                    )
                )
            except BaseException:
                # A deterministic worker exception (not worker death) must
                # propagate — but never with live shared-memory segments.
                # BaseException on purpose: KeyboardInterrupt mid-round must
                # also release the segments or they leak past process exit.
                logger.error(
                    "shard round %d failed with a non-pool error; releasing "
                    "shared memory and re-raising",
                    self.process.round_index,
                )
                self.close()
                raise
        nbr, deg, bits = self._round_state()
        wor = bool(getattr(self.process, "without_replacement", False))
        return [
            _run_kernel(self.kind, nbr, deg, bits, lo, hi, u, wor)
            for lo, hi in self.plan.bounds
        ]

    def _run_shards_parallel(self) -> List:
        nbr, deg, bits = self._round_state()
        base = {
            "kind": self.kind,
            "n": self.plan.n,
            "entropy": self._entropy,
            "round_index": self.process.round_index,
            "nbr": self._publish("nbr", nbr),
            "deg": self._publish("deg", deg),
        }
        if self.kind in _ROWBLOCK_KINDS:
            # The payload kernels OR whole membership rows, so the packed
            # matrix crosses the process boundary through shared memory too.
            base["bits"] = self._publish("bits", bits)
        else:
            base["without_replacement"] = bool(
                getattr(self.process, "without_replacement", False)
            )
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.shards)
        futures = []
        for shard, (lo, hi) in enumerate(self.plan.bounds):
            payload = {**base, "lo": lo, "hi": hi, "shard": shard}
            if self._fault_injector is not None:
                directive = self._fault_injector.take_shard_round(
                    self.process.round_index, shard
                )
                if directive is not None:
                    payload["fault"] = directive
            futures.append(self._pool.submit(_shard_task, payload))
        return [f.result() for f in futures]

    def _discard_pool(self) -> None:
        """Drop a (possibly broken) pool without waiting on dead workers."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _release_blocks(self) -> None:
        for block in self._blocks.values():
            block.release()
        self._blocks.clear()

    def _publish(self, key: str, array: np.ndarray) -> Tuple[str, tuple, str]:
        block = self._blocks.setdefault(key, _SharedBlock())
        return block.publish(np.ascontiguousarray(array))

    def _merge_proposals(self, shard_results: Sequence[tuple]) -> RoundResult:
        """Merge the shards' proposal endpoints and apply them once.

        The sparse form of the delta-row OR-merge: a gossip round proposes
        O(n) edges, so instead of accumulating an n×n delta matrix the
        proposals are canonicalised (``min < max`` for undirected edges,
        orientation preserved for the directed walk), filtered against the
        packed membership rows, and deduped by sorted key — which is
        exactly the canonical row-major order
        :meth:`bitset.DeltaRows.new_edges` would report, so the application
        order stays shard-count invariant.
        """
        process = self.process
        graph = process.graph
        n = graph.n
        result = RoundResult(round_index=process.round_index)
        us = np.concatenate([r[0] for r in shard_results])
        vs = np.concatenate([r[1] for r in shard_results])
        result.attach_batch(
            BatchProposals(n, us, vs, np.concatenate([r[2] for r in shard_results]))
        )
        if self._directed:
            low, high = us, vs
        else:
            low = np.minimum(us, vs)
            high = np.maximum(us, vs)
        keep = low != high
        low, high = low[keep], high[keep]
        fresh = ~bitset.get_bits(graph.adjacency_bits(), low, high)
        keys = np.unique(low[fresh] * np.int64(n) + high[fresh])
        added = graph.add_edges_batch_arrays(keys // n, keys % n)
        result.added_edges = added
        result.messages_sent = process.MESSAGES_PER_NODE * n
        result.bits_sent = result.messages_sent * process._id_bits
        return self._finish_round(result, added)

    def _merge_rowblocks(
        self, shard_results: Sequence[np.ndarray], u: Optional[np.ndarray]
    ) -> RoundResult:
        """Row-range OR-merge of the shards' packed delta blocks.

        Flooding's deltas are symmetric (both endpoints of a new edge
        receive the same sender's row), so its new edges extract once per
        undirected pair.  The Name Dropper / pointer-jump deliveries are
        one-sided — only the learner's row gains the bit — so their new
        edges are extracted bit by bit in row-major order and the graph's
        batched insert canonicalises cross-orientation duplicates.  Either
        way the merged delta matrix never depends on where the shard
        boundaries fall, so the applied edge order is shard-count
        invariant.
        """
        process = self.process
        graph = process.graph
        n = graph.n
        result = RoundResult(round_index=process.round_index)
        bits = graph.adjacency_bits()
        delta = bitset.DeltaRows(n, n)
        for (lo, _hi), block in zip(self.plan.bounds, shard_results):
            delta.or_into_range(lo, block)
        add_us, add_vs = delta.new_edges(bits, directed=self.kind != "flooding")
        self._account_rowblocks(result, u)
        added = graph.add_edges_batch_arrays(add_us, add_vs)
        result.added_edges = added
        return self._finish_round(result, added)

    def _account_rowblocks(self, result: RoundResult, u: Optional[np.ndarray]) -> None:
        """Round message/bit accounting for the payload kinds (round-start state)."""
        process = self.process
        nbr, deg, _bits = self._round_state()
        if self.kind == "flooding":
            # Every node sends its (deg+1)-ID knowledge set to every neighbour.
            result.messages_sent = int(deg.sum())
            result.bits_sent = int((deg * (deg + 1)).sum()) * process._id_bits
        elif self.kind == "name_dropper":
            senders = deg > 0
            result.messages_sent = int(senders.sum())
            result.bits_sent = int((deg[senders] + 1).sum()) * process._id_bits
        else:  # pointer_jump: the reply size is the *chosen* neighbour's degree
            targets = _bulk_target_draw(nbr, deg, u[0])
            chosen = targets[targets >= 0]
            result.messages_sent = 2 * int(chosen.size)  # request + bulk reply each
            result.bits_sent = int((1 + deg[chosen]).sum()) * process._id_bits

    def _finish_round(self, result: RoundResult, added: EdgeArrays) -> RoundResult:
        """Advance the wrapped process's counters exactly like its own step().

        ``added`` is the round's insert result, handed on as arrays: reading
        ``result.added_edges`` would build one tuple per new edge.
        """
        process = self.process
        # Processes with closure-deficit bookkeeping (the directed walk,
        # pointer jump) fold the round's new edges into it here — the same
        # hook their own batched rounds use.
        absorb = getattr(process, "_absorb_added", None)
        if absorb is not None:
            absorb(added)
        process._note_added_edges(added)
        process.round_index += 1
        process.total_edges_added += result.num_added
        process.total_messages += result.messages_sent
        process.total_bits += result.bits_sent
        return result

    # ------------------------------------------------------------------ #
    # the run loop (reuses the engine's, driven by our step())
    # ------------------------------------------------------------------ #
    run = DiscoveryProcess.run
    run_to_convergence = DiscoveryProcess.run_to_convergence

    def is_converged(self) -> bool:
        """Delegate to the wrapped process."""
        return self.process.is_converged()

    def default_round_cap(self) -> int:
        """Delegate to the wrapped process's cap (process-specific bounds)."""
        return self.process.default_round_cap()

    def degree_view(self):
        """The wrapped process's incremental degree cache (for recorders)."""
        return self.process.degree_view()

    def cached_min_degree(self) -> int:
        """The wrapped process's incremental minimum degree."""
        return self.process.cached_min_degree()

    # ------------------------------------------------------------------ #
    # pass-through state (the wrapped process owns every counter)
    # ------------------------------------------------------------------ #
    @property
    def graph(self):
        """The wrapped process's graph."""
        return self.process.graph

    @property
    def rng(self) -> np.random.Generator:
        """The wrapped process's generator (unused by multi-shard rounds)."""
        return self.process.rng

    @property
    def backend(self) -> str:
        """The wrapped process's graph backend name (always ``"array"``)."""
        return self.process.backend

    @property
    def semantics(self) -> UpdateSemantics:
        """The wrapped process's update semantics."""
        return self.process.semantics

    @property
    def round_index(self) -> int:
        return self.process.round_index

    @round_index.setter
    def round_index(self, value: int) -> None:
        self.process.round_index = value

    @property
    def total_edges_added(self) -> int:
        return self.process.total_edges_added

    @total_edges_added.setter
    def total_edges_added(self, value: int) -> None:
        self.process.total_edges_added = value

    @property
    def total_messages(self) -> int:
        return self.process.total_messages

    @total_messages.setter
    def total_messages(self, value: int) -> None:
        self.process.total_messages = value

    @property
    def total_bits(self) -> int:
        return self.process.total_bits

    @total_bits.setter
    def total_bits(self, value: int) -> None:
        self.process.total_bits = value

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut the worker pool down and release the shared-memory blocks.

        Block release runs even when the pool shutdown raises: the
        segments are the resource the kernel will not reclaim on its own.
        """
        try:
            # getattr: close() must work on a partially-constructed instance
            # (the constructor validates before creating these slots).
            pool = getattr(self, "_pool", None)
            if pool is not None:
                pool.shutdown(wait=True)
                self._pool = None
        finally:
            if getattr(self, "_blocks", None) is not None:
                self._release_blocks()

    def __enter__(self) -> "ShardedProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception as exc:
            # Finalizer context: never raise, but never hide a failed
            # cleanup either — a leaked segment must be attributable.
            try:
                logger.warning(
                    "ShardedProcess finalizer cleanup failed (%s); a "
                    "shared-memory segment may have leaked",
                    exc,
                )
            # Interpreter-exit finalizer: the logging machinery itself may be
            # torn down, and raising from __del__ is worse than silence.
            except Exception:
                pass

    def __repr__(self) -> str:
        mode = "process-pool" if self._parallel else "in-process"
        return (
            f"ShardedProcess({type(self.process).__name__}, n={self.process.graph.n}, "
            f"shards={self.shards}, {mode})"
        )
