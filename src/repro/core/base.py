"""Process interface and the synchronous round engine.

The paper's model is synchronous: in round ``t`` every node acts on the
*same* snapshot ``G_t`` and all added edges appear together in ``G_{t+1}``.
:class:`DiscoveryProcess` implements that contract.  Because the graphs
are append-only and proposals are sampled before any edge is applied, the
synchronous semantics is achieved without copying the graph: a round
first collects every node's proposed edge(s) and only then applies them.

A synchronous round is one call of :meth:`DiscoveryProcess.propose_batch`,
the process's vectorized kernel (bulk RNG draws, whole-array index math),
followed by one batched edge insert.  :meth:`~DiscoveryProcess.propose`
and :meth:`~DiscoveryProcess.apply_edge` state the same rule one node and
one edge at a time; only the sequential ablation calls them.

The bulk draw convention: a round of ``m`` participating nodes that
samples in two stages (push's two endpoints, the two hops of pull and of
the directed walk) consumes ``2m`` uniforms, ``m`` per stage in stage
order.  A kernel draws them as one ``rng.random((2, m))`` block and reads
row ``s`` at stage ``s``.  NumPy fills a block in order, so this is the
stream one ``rng.random(m)`` per stage would consume (see
:mod:`repro.graphs.sampling`).

The processes run on :class:`~repro.graphs.array_adjacency.ArrayGraph`
and :class:`~repro.graphs.array_adjacency.ArrayDiGraph`, which every
generator returns; a process handed another kind of graph raises
``TypeError``.

A ``sequential`` update mode is provided as an ablation (nodes act in index
order and see edges added earlier in the same round) — the paper's proofs
are for the synchronous mode, and experiment E1/E2 variants measure the
difference empirically.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Protocol, Sequence, Tuple, Union

import numpy as np

from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph, EdgeArrays

__all__ = [
    "UpdateSemantics",
    "RoundResult",
    "RunResult",
    "BatchProposals",
    "DiscoveryProcess",
    "id_bits",
    "node_array",
]

GraphLike = Union[ArrayGraph, ArrayDiGraph]
Edge = Tuple[int, int]
#: a round's new edges: tuples, or the batched insert's endpoint arrays.
AddedEdges = Union[List[Edge], EdgeArrays]


class ProposalSource(Protocol):
    """Array-form proposals (:class:`BatchProposals`, the payload baselines' own)."""

    def edges(self) -> List[Edge]:
        """The proposals as plain ``(u, v)`` tuples in order."""


def id_bits(n: int) -> int:
    """Bits needed to name one node among ``n`` — ``max(1, ceil(log2 n))``.

    This is the paper's ``O(log n)``-bit message payload unit.  It is the
    single authority for bit accounting: the round engine and the
    message-level network layer both charge ``id_bits(n)`` per transmitted
    node ID, so the two layers can never drift apart on ``bits_sent``.
    Degenerate sizes are pinned by tests: a 1- or 2-node system still pays
    1 bit per ID.
    """
    return max(1, (max(int(n), 2) - 1).bit_length())


def node_array(nodes: Iterable[int]) -> np.ndarray:
    """A round's participating nodes as an ``int64`` array, order preserved.

    ``participating_nodes()`` returns ``range(n)`` under full activation.
    ``np.asarray`` converts a range element by element, which at n=1024
    costs more than a push round's whole sampling stage; ``np.arange``
    builds the same array in one call.  The gossip kernels and the
    baselines' packed rounds both convert through here, so activation
    schedules restrict every kind of process alike.
    """
    if isinstance(nodes, range):
        return np.arange(nodes.start, nodes.stop, nodes.step, dtype=np.int64)
    if isinstance(nodes, np.ndarray):
        return nodes.astype(np.int64, copy=False)
    return np.asarray(list(nodes), dtype=np.int64).reshape(-1)


class UpdateSemantics(str, enum.Enum):
    """When edges proposed during a round become visible.

    ``SYNCHRONOUS``
        All proposals are sampled against the round-start graph ``G_t`` and
        applied together afterwards (the paper's model).
    ``SEQUENTIAL``
        Nodes act in index order and immediately apply their edge, so later
        nodes in the same round can already exploit it (ablation).
    """

    SYNCHRONOUS = "synchronous"
    SEQUENTIAL = "sequential"


class RoundResult:
    """Outcome of a single round.

    Attributes
    ----------
    round_index:
        Zero-based index of the round that was executed.
    proposed_edges:
        Every edge proposed by some node this round (including duplicates
        and already-present edges), in node order.  Length equals the
        number of participating nodes for single-proposal processes.
        Materialised lazily when the round came from a vectorized kernel —
        hot convergence loops never touch it, so they never pay for the
        tuple conversion.
    added_edges:
        The subset of proposals that were genuinely new edges.  Like
        ``proposed_edges``, built as tuples on first access when the
        batched insert returned them as :class:`EdgeArrays`.
    messages_sent:
        Number of protocol messages this round (for bit accounting).
    bits_sent:
        Total message payload in bits, assuming ``ceil(log2 n)``-bit node IDs.
    """

    __slots__ = ("round_index", "messages_sent", "bits_sent", "_proposed", "_batch", "_added")

    def __init__(
        self,
        round_index: int,
        proposed_edges: Optional[List[Edge]] = None,
        added_edges: Optional[List[Edge]] = None,
        messages_sent: int = 0,
        bits_sent: int = 0,
    ) -> None:
        self.round_index = round_index
        self._proposed: Optional[List[Edge]] = (
            proposed_edges if proposed_edges is not None else []
        )
        self._batch: Optional[ProposalSource] = None
        self._added: AddedEdges = added_edges if added_edges is not None else []
        self.messages_sent = messages_sent
        self.bits_sent = bits_sent

    @property
    def proposed_edges(self) -> List[Edge]:
        """This round's proposals as tuples (materialised on first access)."""
        if self._proposed is None:
            self._proposed = self._batch.edges() if self._batch is not None else []
        return self._proposed

    def attach_batch(self, batch: ProposalSource) -> None:
        """Record the array-form proposals, deferring tuple conversion."""
        self._batch = batch
        self._proposed = None

    @property
    def added_edges(self) -> List[Edge]:
        """This round's new edges as tuples (materialised on first access)."""
        if isinstance(self._added, EdgeArrays):
            self._added = self._added.tolist()
        return self._added

    @added_edges.setter
    def added_edges(self, value: AddedEdges) -> None:
        self._added = value

    @property
    def num_added(self) -> int:
        """Number of new edges created this round."""
        return len(self._added)

    def __repr__(self) -> str:
        return (
            f"RoundResult(round_index={self.round_index}, "
            f"added={self.num_added}, messages={self.messages_sent}, bits={self.bits_sent})"
        )


class BatchProposals:
    """Array-form result of a vectorized synchronous round's sampling stage.

    The vectorized ``propose_batch`` kernels return this, so the round
    engine stays in NumPy all the way to the batched edge insert.
    ``us``/``vs`` hold the endpoints of the *valid* proposals only, in node
    order; ``pos`` maps each proposal back to its index among the round's
    ``count`` participating nodes (used by the faulty variants to align
    their bulk failure draw).
    """

    __slots__ = ("count", "us", "vs", "pos")

    def __init__(self, count: int, us: np.ndarray, vs: np.ndarray, pos: np.ndarray) -> None:
        self.count = count
        self.us = us
        self.vs = vs
        self.pos = pos

    def edges(self) -> List[Edge]:
        """The proposals as plain ``(u, v)`` tuples in node order."""
        return list(zip(self.us.tolist(), self.vs.tolist()))


@dataclass
class RunResult:
    """Outcome of running a process until convergence or a round limit.

    Attributes
    ----------
    rounds:
        Number of rounds executed.
    converged:
        True when the stopping predicate was satisfied (rather than the
        round limit being hit).
    total_edges_added:
        Total number of new edges created over the run.
    total_messages:
        Total protocol messages over the run.
    total_bits:
        Total message payload bits over the run.
    history:
        Optional per-round results (present when ``record_history=True``).
    """

    rounds: int
    converged: bool
    total_edges_added: int
    total_messages: int
    total_bits: int
    history: Optional[List[RoundResult]] = None


class DiscoveryProcess(abc.ABC):
    """Common machinery for all discovery processes.

    Subclasses implement :meth:`propose_batch` — the synchronous round's
    kernel —, :meth:`propose` — the same rule for one node, which the
    sequential ablation calls — and :meth:`is_converged`.  The base class
    owns the round loop, the update semantics, message accounting, and the
    participation hook used by the robustness variants.

    Parameters
    ----------
    graph:
        The starting graph; it is mutated in place.  Pass ``graph.copy()``
        if the caller needs to keep the original.
    rng:
        A :class:`numpy.random.Generator` or an integer seed.  Every random
        choice of the process flows through this generator.
    semantics:
        Synchronous (paper model, default) or sequential updates.
    """

    #: messages sent per participating node per round (overridden by subclasses).
    MESSAGES_PER_NODE: int = 2

    def __init__(
        self,
        graph: GraphLike,
        rng: Union[np.random.Generator, int, None] = None,
        semantics: UpdateSemantics = UpdateSemantics.SYNCHRONOUS,
    ) -> None:
        self.graph = graph
        if isinstance(rng, np.random.Generator):
            self.rng = rng
        else:
            self.rng = np.random.default_rng(rng)
        self.semantics = UpdateSemantics(semantics)
        self.round_index = 0
        self.total_edges_added = 0
        self.total_messages = 0
        self.total_bits = 0
        self._id_bits = id_bits(graph.n)
        # Incrementally-maintained convergence counters (built lazily by
        # degree_view): the cached (out-)degree vector, the edge count it
        # reflects, and a lazily-refreshed minimum degree.
        self._deg_cache: Optional[np.ndarray] = None
        self._deg_cache_edges = -1
        self._min_deg = 0
        self._min_deg_dirty = True

    # ------------------------------------------------------------------ #
    # to be provided by subclasses
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def propose(self, node: int) -> Optional[Edge]:
        """Return the edge node ``node`` proposes this round, or None.

        The proposal must be sampled from the process's local rule using
        only ``self.graph`` and ``self.rng``.  Returning ``None`` means the
        node makes no proposal (e.g. an isolated node in a variant).
        """

    @abc.abstractmethod
    def is_converged(self) -> bool:
        """True when the process has reached its absorbing state."""

    # ------------------------------------------------------------------ #
    # hooks that subclasses may override
    # ------------------------------------------------------------------ #
    def participating_nodes(self) -> Iterable[int]:
        """Nodes that act this round (all nodes by default)."""
        return self.graph.nodes()

    def propose_batch(self, nodes: Iterable[int]) -> BatchProposals:
        """Sample every participating node's proposal for one synchronous round.

        This is the process's vectorized kernel.  It reads only the
        round-start graph and ``self.rng`` and returns the valid proposals,
        in node order, as a :class:`BatchProposals`.  Processes that
        replace :meth:`step` (the baselines) need none.
        """
        raise NotImplementedError(f"{type(self).__name__} has no synchronous round kernel")

    def apply_proposals(self, batch: BatchProposals) -> EdgeArrays:
        """Insert a round's proposals with the graph's batched insert; return the new ones.

        The batch contract matches applying the proposals one by one in
        order, first occurrence winning, and the new edges stay in array
        form.  They patch the cached convergence counters through
        :meth:`_note_added_edges`, so nothing rescans the graph.
        """
        added = self.graph.add_edges_batch_arrays(batch.us, batch.vs)
        self._note_added_edges(added)
        return added

    def apply_edge(self, edge: Edge) -> bool:
        """Insert one proposed edge (the sequential ablation); True when it is new."""
        return self.graph.add_edge(*edge)

    # ------------------------------------------------------------------ #
    # incrementally-maintained convergence counters
    # ------------------------------------------------------------------ #
    def degree_view(self) -> np.ndarray:
        """The (out-)degree vector as a read-only cached array.

        Built lazily from the graph on first use, then patched in
        O(#added edges) per round by :meth:`_note_added_edges` instead of
        recomputed/copied O(n) every convergence check.  Self-healing: if
        the graph was mutated outside the round engine (a process that
        overrides :meth:`step`, direct ``add_edge`` calls), the cached edge
        count disagrees and the vector is rebuilt from the graph.  Callers
        must not mutate the returned array.
        """
        m = self.graph.number_of_edges()
        if self._deg_cache is None or self._deg_cache_edges != m:
            graph = self.graph
            self._deg_cache = graph.out_degrees() if graph.directed else graph.degrees()
            self._deg_cache_edges = m
            self._min_deg_dirty = True
        return self._deg_cache

    def cached_min_degree(self) -> int:
        """Minimum (out-)degree via the incremental cache.

        The vector minimum is recomputed only when some node at the current
        minimum gained an edge since the last query (degrees never decrease
        under the append-only contract), so convergence predicates that
        poll every round usually pay O(1).
        """
        deg = self.degree_view()
        if self._min_deg_dirty:
            self._min_deg = int(deg.min()) if deg.size else 0
            self._min_deg_dirty = False
        return self._min_deg

    def _note_added_edges(self, added: AddedEdges) -> None:
        """Patch the cached degree counters for one round's new edges."""
        if self._deg_cache is None or not len(added):
            return
        edges = EdgeArrays.of(added)
        ends = edges.us if self.graph.directed else np.concatenate((edges.us, edges.vs))
        deg = self._deg_cache
        if not self._min_deg_dirty and bool((deg[ends] == self._min_deg).any()):
            self._min_deg_dirty = True
        np.add.at(deg, ends, 1)
        self._deg_cache_edges += len(added)

    # ------------------------------------------------------------------ #
    # the round engine
    # ------------------------------------------------------------------ #
    def step(self) -> RoundResult:
        """Execute one synchronous (or sequential) round and return its result."""
        result = RoundResult(round_index=self.round_index)
        if self.semantics is UpdateSemantics.SYNCHRONOUS:
            batch = self.propose_batch(self.participating_nodes())
            result.attach_batch(batch)
            result.added_edges = self.apply_proposals(batch)
            participants = batch.count
        else:  # sequential ablation
            participants = 0
            for node in self.participating_nodes():
                participants += 1
                edge = self.propose(node)
                if edge is None:
                    continue
                result.proposed_edges.append(edge)
                if self.apply_edge(edge):
                    result.added_edges.append(edge)
            self._note_added_edges(result.added_edges)
        # A participant pays for its messages whether or not it proposed an edge.
        result.messages_sent = self.MESSAGES_PER_NODE * participants
        result.bits_sent = result.messages_sent * self._id_bits
        self.round_index += 1
        self.total_edges_added += result.num_added
        self.total_messages += result.messages_sent
        self.total_bits += result.bits_sent
        return result

    def run(
        self,
        max_rounds: int,
        until: Optional[Callable[["DiscoveryProcess"], bool]] = None,
        record_history: bool = False,
        callbacks: Sequence[Callable[["DiscoveryProcess", RoundResult], None]] = (),
    ) -> RunResult:
        """Run rounds until convergence, a custom predicate, or ``max_rounds``.

        Parameters
        ----------
        max_rounds:
            Hard cap on the number of rounds executed by this call.
        until:
            Optional extra stopping predicate evaluated after every round
            (in addition to :meth:`is_converged`).
        record_history:
            When True, keep every :class:`RoundResult` in the returned
            :class:`RunResult` (memory grows linearly with rounds).
        callbacks:
            Callables invoked after every round with ``(process, result)``
            — used by the metrics recorder and the checkpoint writer.
        """
        if max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")
        history: Optional[List[RoundResult]] = [] if record_history else None
        converged = self.is_converged() or (until is not None and until(self))
        rounds_run = 0
        while not converged and rounds_run < max_rounds:
            result = self.step()
            rounds_run += 1
            if history is not None:
                history.append(result)
            for callback in callbacks:
                callback(self, result)
            converged = self.is_converged() or (until is not None and until(self))
        return RunResult(
            rounds=rounds_run,
            converged=converged,
            total_edges_added=self.total_edges_added,
            total_messages=self.total_messages,
            total_bits=self.total_bits,
            history=history,
        )

    def run_to_convergence(
        self,
        max_rounds: Optional[int] = None,
        record_history: bool = False,
        callbacks: Sequence[Callable[["DiscoveryProcess", RoundResult], None]] = (),
    ) -> RunResult:
        """Run until :meth:`is_converged` holds, with a safety cap.

        The default cap is a generous multiple of the paper's upper bounds
        (``40 · n · (log₂ n + 1)²`` for undirected processes) so a stuck run
        cannot loop forever; hitting the cap returns ``converged=False``.
        """
        if max_rounds is None:
            max_rounds = self.default_round_cap()
        return self.run(max_rounds, record_history=record_history, callbacks=callbacks)

    def default_round_cap(self) -> int:
        """A generous safety cap derived from the paper's upper bound for the process."""
        n = max(self.graph.n, 2)
        log_n = float(np.log2(n)) + 1.0
        return int(40 * n * log_n * log_n) + 100

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.graph.n}, round={self.round_index}, "
            f"edges={self.graph.number_of_edges()})"
        )
