"""Protocol messages, message batches and bit accounting.

The paper's model allows each node to send messages of at most
``O(log n)`` bits per round — i.e. a constant number of node IDs.  Every
message carries an explicit payload of node IDs and knows its size in
bits, so the simulator can verify the per-round bandwidth budget of the
gossip protocols and expose the Θ(n)-bit messages of the baselines.

The engine moves messages as :class:`MessageBatch` objects: kind codes,
senders and receivers as arrays, and payloads as offsets into one flat ID
array (a Name Dropper payload is a whole contact list).  :class:`Message`
is the one-message form that ``send()`` accepts and that tests build.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.base import id_bits

__all__ = ["MessageKind", "Message", "MessageBatch", "LocalityError", "id_bits_for", "kind_code"]


class LocalityError(ValueError):
    """A node addressed a message to an ID it has never been handed.

    The paper's model only lets a node contact IDs it knows: current
    contacts, nodes it heard from, or IDs carried by a delivered payload.
    The engine raises this instead of silently delivering a message that
    no real deployment could route.
    """


def id_bits_for(n: int) -> int:
    """Bits needed to name one node out of ``n`` (at least 1).

    Alias of :func:`repro.core.base.id_bits` — the single authority for the
    per-ID bit cost — kept for the network layer's historical API.
    """
    return id_bits(n)


class MessageKind(str, enum.Enum):
    """The message types used by the discovery protocols.

    Declaration order defines the kind codes of :class:`MessageBatch`:
    the protocol kinds come first, then the two liveness kinds.
    """

    #: push: "here is the ID of a node you should connect to" (sent by the introducer).
    INTRODUCE = "introduce"
    #: pull: "please send me the ID of one of your neighbours".
    PULL_REQUEST = "pull_request"
    #: pull: the reply carrying one neighbour ID.
    PULL_REPLY = "pull_reply"
    #: pull: "I am connecting to you" notification to the discovered node.
    CONNECT = "connect"
    #: name dropper: bulk transfer of every ID the sender knows.
    KNOWLEDGE = "knowledge"
    #: liveness probe sent to a contact (payload: ping id).
    PING = "ping"
    #: liveness acknowledgement (payload: the echoed ping id).
    PONG = "pong"


_KINDS: Tuple[MessageKind, ...] = tuple(MessageKind)
_CODES = {kind: code for code, kind in enumerate(_KINDS)}


def kind_code(kind: MessageKind) -> int:
    """The batch code of ``kind`` (its position in :class:`MessageKind`)."""
    return _CODES[kind]


@dataclass(frozen=True)
class Message:
    """One protocol message.

    Attributes
    ----------
    kind:
        The protocol-level message type.
    sender, receiver:
        Node IDs of the endpoints.  Sending requires that the receiver is
        a contact of the sender or an ID the sender was handed; the engine
        raises :class:`LocalityError` otherwise.
    payload:
        The node IDs carried by the message (possibly empty for requests).
    """

    kind: MessageKind
    sender: int
    receiver: int
    payload: Tuple[int, ...] = field(default_factory=tuple)

    def bits(self, n: int) -> int:
        """Payload size in bits for a network of ``n`` nodes.

        Requests with empty payloads still cost one ID's worth of bits
        (the sender must identify itself).
        """
        return max(1, len(self.payload)) * id_bits_for(n)


class MessageBatch:
    """Messages as parallel arrays, in row order.

    Row ``i`` is a message of kind code ``kinds[i]`` from ``senders[i]``
    to ``receivers[i]`` whose payload is ``ids[offsets[i]:offsets[i + 1]]``.
    """

    __slots__ = ("kinds", "senders", "receivers", "offsets", "ids")

    def __init__(
        self,
        kinds: np.ndarray,
        senders: np.ndarray,
        receivers: np.ndarray,
        offsets: np.ndarray,
        ids: np.ndarray,
    ) -> None:
        self.kinds = kinds
        self.senders = senders
        self.receivers = receivers
        self.offsets = offsets
        self.ids = ids

    @classmethod
    def of_kind(
        cls,
        kind: MessageKind,
        senders: np.ndarray,
        receivers: np.ndarray,
        ids: "np.ndarray | None" = None,
    ) -> "MessageBatch":
        """Rows of one kind, each carrying ``ids[i]`` (or no payload when ``ids`` is None)."""
        k = senders.shape[0]
        kinds = np.full(k, kind_code(kind), dtype=np.int8)
        if ids is None:
            return cls(kinds, senders, receivers, np.zeros(k + 1, np.int64), np.zeros(0, np.int64))
        return cls(kinds, senders, receivers, np.arange(k + 1), ids)

    @classmethod
    def of(cls, messages: Sequence[Message]) -> "MessageBatch":
        """The batch holding ``messages`` in order."""
        lengths = [len(m.payload) for m in messages]
        return cls(
            np.array([kind_code(m.kind) for m in messages], dtype=np.int8),
            np.array([m.sender for m in messages], dtype=np.int64),
            np.array([m.receiver for m in messages], dtype=np.int64),
            np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))),
            np.array([i for m in messages for i in m.payload], dtype=np.int64),
        )

    @classmethod
    def concat(cls, batches: Sequence["MessageBatch"]) -> "MessageBatch":
        """The rows of ``batches`` one after the other."""
        if len(batches) == 1:
            return batches[0]
        starts = np.cumsum([0] + [b.ids.shape[0] for b in batches[:-1]])
        return cls(
            np.concatenate([b.kinds for b in batches]),
            np.concatenate([b.senders for b in batches]),
            np.concatenate([b.receivers for b in batches]),
            np.concatenate(
                [b.offsets[:-1] + s for b, s in zip(batches, starts)]
                + [[starts[-1] + batches[-1].ids.shape[0]]]
            ),
            np.concatenate([b.ids for b in batches]),
        )

    def __len__(self) -> int:
        return self.kinds.shape[0]

    def lengths(self) -> np.ndarray:
        """Payload length of every row."""
        return self.offsets[1:] - self.offsets[:-1]

    def bits(self, n: int) -> np.ndarray:
        """Size of every row in bits: ``max(1, len(payload)) · id_bits(n)``."""
        return np.maximum(self.lengths(), 1) * id_bits_for(n)

    def payload_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(receiver, id)`` for every payload ID, in row then payload order."""
        return np.repeat(self.receivers, self.lengths()), self.ids

    def take(self, rows: np.ndarray) -> "MessageBatch":
        """The batch of rows ``rows``, in that order."""
        starts = self.offsets[:-1][rows]
        lengths = self.offsets[1:][rows] - starts
        offsets = np.zeros(rows.shape[0] + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        flat = np.repeat(starts - offsets[:-1], lengths) + np.arange(offsets[-1])
        return MessageBatch(
            self.kinds[rows], self.senders[rows], self.receivers[rows], offsets, self.ids[flat]
        )

    def section(self, lo: int, hi: int) -> "MessageBatch":
        """Rows ``lo`` to ``hi - 1``."""
        first, last = self.offsets[lo], self.offsets[hi]
        return MessageBatch(
            self.kinds[lo:hi],
            self.senders[lo:hi],
            self.receivers[lo:hi],
            self.offsets[lo : hi + 1] - first,
            self.ids[first:last],
        )

    def message(self, i: int) -> Message:
        """Row ``i`` as a :class:`Message`."""
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return Message(
            _KINDS[self.kinds[i]],
            int(self.senders[i]),
            int(self.receivers[i]),
            tuple(self.ids[lo:hi].tolist()),
        )

    def messages(self) -> List[Message]:
        """Every row as a :class:`Message`."""
        return [self.message(i) for i in range(len(self))]
