"""The discovery protocols as transitions on message batches.

Each protocol has two hooks, both written over whole batches:

* :meth:`GossipProtocol.initiate_batch` — given the nodes that act at a
  tick (all alive nodes, in node order), sample the messages they
  originate.  Sampling reads only tick-start state.
* :meth:`GossipProtocol.deliver_batch` — apply a delivered batch's state
  transitions in row order, and return any follow-up messages (the
  ``PULL_REPLY`` answering a ``PULL_REQUEST``) with the row each answers.

The engine (:class:`~repro.network.async_simulator.AsyncNetworkSimulator`)
calls both and owns delivery.  A protocol reaches engine state through
three services: ``sim.rng`` for its draws, ``sim.contacts`` (an
:class:`~repro.graphs.array_adjacency.ArrayDiGraph` whose row ``u`` is
node ``u``'s contact list in insertion order) and ``sim.learn(us, vs)``,
which stores ``vs[i]`` at ``us[i]`` in order and records discoveries.

Per-protocol shapes:

* **Push**: each acting node sends two ``INTRODUCE`` messages, one to each
  chosen neighbour, carrying the other neighbour's ID.  The two sampling
  stages draw one ``rng.random((2, m))`` block, the same values as two
  ``rng.random(m)`` calls, mapped to neighbours by
  :func:`repro.graphs.sampling.uniform_indices` — the convention of the
  vectorized round engine.  So the protocol stays draw-for-draw identical
  to :class:`repro.core.push.PushDiscovery` given the same seed and
  starting graph.
* **Pull**: ``PULL_REQUEST`` to a random neighbour; the delivered request
  triggers a ``PULL_REPLY`` carrying a random ID from the replier's
  current contacts; the delivered reply is *recorded at the requester*
  and triggers a ``CONNECT`` that informs the discovered node.  (The
  requester keeps the ID as soon as the reply arrives — an earlier
  implementation only recorded it if the outgoing ``CONNECT`` was also
  delivered, which silently discarded knowledge under message loss.)
* **Name Dropper**: each acting node sends its entire contact list (plus
  its own ID) to one random neighbour.

Pull and Name Dropper draw one ``integers`` value per acting node in node
order, and pull one per answered request in delivery order; an array
``rng.integers(highs)`` call gives the values of those scalar calls.
"""

from __future__ import annotations

import abc
from typing import FrozenSet, List, Optional, Tuple

import numpy as np

from repro.network.message import MessageBatch, MessageKind, kind_code

__all__ = [
    "GossipProtocol",
    "PushProtocol",
    "PullProtocol",
    "NameDropperProtocol",
    "protocol_names",
    "resolve_protocol",
]

FollowUps = Optional[Tuple[MessageBatch, np.ndarray]]


class GossipProtocol(abc.ABC):
    """Interface for a message-level discovery protocol."""

    #: short name used by the simulator factories and the experiments.
    name: str = "abstract"
    #: message kinds whose delivery sends a follow-up message.
    answered: FrozenSet[MessageKind] = frozenset()

    @abc.abstractmethod
    def initiate_batch(self, nodes: np.ndarray, sim) -> MessageBatch:
        """Messages originated by the acting ``nodes`` at one tick, in node order.

        Sampling must read only tick-start state — implementations never
        apply state changes here.
        """

    def deliver_batch(self, batch: MessageBatch, sim) -> FollowUps:
        """Apply ``batch`` at its receivers in row order.

        Returns ``None`` or the follow-up messages and, for each, the row
        of ``batch`` it answers (non-decreasing).  Follow-ups are returned,
        not sent, so the engine controls delivery.  By default every
        receiver stores the payload IDs, and nothing is answered.
        """
        sim.learn(*batch.payload_pairs())
        return None


class PushProtocol(GossipProtocol):
    """Triangulation as messages: introduce two random contacts to each other."""

    name = "push"

    def initiate_batch(self, nodes, sim):
        m = nodes.shape[0]
        # Row s of the block is sampling stage s; both stages gather at once.
        u = sim.rng.random((2, m))
        both = np.concatenate((nodes, nodes))
        vw = sim.contacts.sample_out_neighbors(both, u.ravel()).reshape(2, m)
        keep = (vw[0] >= 0) & (vw[0] != vw[1])
        pair = vw[:, keep].T  # row i: (v, w) of the i-th introducer
        return MessageBatch.of_kind(
            MessageKind.INTRODUCE, np.repeat(nodes[keep], 2), pair.ravel(), pair[:, ::-1].ravel()
        )


def _random_contacts(sim, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Which of ``nodes`` have a contact, and one uniform contact of each that does.

    One ``integers`` draw per node with a contact, in order.
    """
    rows, deg = sim.contacts.out_neighbor_rows()
    has = deg[nodes] > 0
    nodes = nodes[has]
    return has, rows[nodes, sim.rng.integers(deg[nodes])]


_REQUEST = kind_code(MessageKind.PULL_REQUEST)
_REPLY = kind_code(MessageKind.PULL_REPLY)
_CONNECT = kind_code(MessageKind.CONNECT)


class PullProtocol(GossipProtocol):
    """Two-hop walk as messages: request / reply / connect."""

    name = "pull"
    answered = frozenset({MessageKind.PULL_REQUEST, MessageKind.PULL_REPLY})

    def initiate_batch(self, nodes, sim):
        has, targets = _random_contacts(sim, nodes)
        return MessageBatch.of_kind(MessageKind.PULL_REQUEST, nodes[has], targets)

    def deliver_batch(self, batch, sim):
        kinds = batch.kinds
        unknown = (kinds != _REQUEST) & (kinds != _REPLY) & (kinds != _CONNECT)
        if unknown.any():
            kind = batch.message(int(np.argmax(unknown))).kind
            raise ValueError(f"pull protocol cannot handle {kind!r}")
        requests = kinds == _REQUEST
        # A request reads its replier's contacts as they stand when it
        # lands, so the batch runs in segments: requests, then the replies
        # and connects that change state.
        cuts = (np.flatnonzero(requests[1:] & ~requests[:-1]) + 1).tolist()
        out: List[MessageBatch] = []
        parents: List[np.ndarray] = []
        for lo, hi in zip([0] + cuts, cuts + [len(batch)]):
            asked = lo + np.flatnonzero(requests[lo:hi])
            has, handed = _random_contacts(sim, batch.receivers[asked])
            asked = asked[has]
            out.append(
                MessageBatch.of_kind(
                    MessageKind.PULL_REPLY, batch.receivers[asked], batch.senders[asked], handed
                )
            )
            parents.append(asked)
            # The requester keeps the handed ID the moment the reply lands;
            # the CONNECT only *informs* the discovered node.  (Tying the
            # requester's record to the CONNECT's delivery made a node
            # forget an ID it had already received whenever the follow-up
            # was dropped.)  A CONNECT hands its receiver the connector.
            rest = lo + np.flatnonzero(~requests[lo:hi])
            learners, ids = batch.receivers[rest], batch.ids[batch.offsets[rest]]
            sim.learn(learners, ids)
            replied = (kinds[rest] == _REPLY) & (ids != learners)
            out.append(
                MessageBatch.of_kind(
                    MessageKind.CONNECT, learners[replied], ids[replied], learners[replied]
                )
            )
            parents.append(rest[replied])
        return MessageBatch.concat(out), np.concatenate(parents)


class NameDropperProtocol(GossipProtocol):
    """Name Dropper as messages: bulk knowledge transfer to one random neighbour."""

    name = "name_dropper"

    def initiate_batch(self, nodes, sim):
        has, targets = _random_contacts(sim, nodes)
        senders = nodes[has]
        rows, deg = sim.contacts.out_neighbor_rows()
        # Payload: the sender's contact row, then its own ID.
        k = deg[senders]
        block = np.empty((senders.shape[0], rows.shape[1] + 1), dtype=np.int64)
        block[:, :-1] = rows[senders]
        block[np.arange(senders.shape[0]), k] = senders
        ids = block[np.arange(block.shape[1]) <= k[:, None]]
        offsets = np.concatenate(([0], np.cumsum(k + 1)))
        kinds = np.full(senders.shape[0], kind_code(MessageKind.KNOWLEDGE), dtype=np.int8)
        return MessageBatch(kinds, senders, targets, offsets, ids)


_PROTOCOLS = {
    "push": PushProtocol,
    "pull": PullProtocol,
    "name_dropper": NameDropperProtocol,
}


def protocol_names() -> List[str]:
    """All registered protocol names (the CLI ``--protocol`` choices)."""
    return sorted(_PROTOCOLS)


def resolve_protocol(protocol) -> GossipProtocol:
    """Instantiate ``protocol`` when given by name; pass instances through."""
    if isinstance(protocol, GossipProtocol):
        return protocol
    try:
        return _PROTOCOLS[protocol]()
    except (KeyError, TypeError):
        raise KeyError(
            f"unknown protocol {protocol!r}; known: {sorted(_PROTOCOLS)}"
        ) from None
