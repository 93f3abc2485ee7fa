"""Seed management for reproducible experiments.

Every random decision in the library flows through a
:class:`numpy.random.Generator`.  Experiments need many independent
streams (one per trial, sometimes one per node); spawning them from a
single root :class:`numpy.random.SeedSequence` guarantees independence and
lets a whole sweep be reproduced from one integer.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "SeedSequenceFactory",
    "fresh_root_seed",
    "require_seed",
    "spawn_rngs",
    "rng_from_seed",
]


def fresh_root_seed() -> int:
    """A root seed drawn from OS entropy, as an int a later run can pass back.

    Unseeded runs draw their root seed here and report it, so every run
    can be replayed with ``--seed`` (or ``root_seed=``).
    """
    return int(np.random.SeedSequence().entropy)


def require_seed(seed: Optional[int], who: str) -> None:
    """Raise ``ValueError`` when ``seed`` is None.

    An unseeded run would draw OS entropy that nothing records, so its
    result could not be replayed; callers that want fresh entropy pass
    :func:`fresh_root_seed` and keep what it returns.
    """
    if seed is None:
        raise ValueError(
            f"{who} requires an explicit seed (an integer); an unseeded run cannot be replayed"
        )


def rng_from_seed(seed: Optional[int]) -> np.random.Generator:
    """A fresh generator from an integer seed (or entropy when ``None``)."""
    return np.random.default_rng(seed)


def spawn_rngs(root_seed: Optional[int], count: int) -> List[np.random.Generator]:
    """Spawn ``count`` independent generators from a single root seed."""
    if count < 0:
        raise ValueError("count must be non-negative")
    root = np.random.SeedSequence(root_seed)
    return [np.random.default_rng(child) for child in root.spawn(count)]


class SeedSequenceFactory:
    """Hands out independent generators on demand, all derived from one root seed.

    Used by the trial runner so that trial ``i`` of an experiment always
    receives the same stream regardless of how many other trials ran
    before it (the spawn index is the trial index).
    """

    def __init__(self, root_seed: Optional[int] = None) -> None:
        self.root_seed = root_seed
        self._root = np.random.SeedSequence(root_seed)

    def seed_for_index(self, index: int) -> np.random.SeedSequence:
        """The child :class:`~numpy.random.SeedSequence` for trial ``index``.

        The trial's generator is built from this child.  Children derive
        from the root's entropy, which is fixed when the factory is built,
        so an unseeded factory also returns the same child for the same
        index on every call.
        """
        if index < 0:
            raise ValueError("index must be non-negative")
        root = np.random.SeedSequence(self._root.entropy)
        return root.spawn(index + 1)[index]

    def rng_for_index(self, index: int) -> np.random.Generator:
        """Return the generator deterministically associated with ``index``.

        Independent of how many other streams were handed out: the stream
        for index ``i`` is always spawned from the root sequence's child
        ``i``.
        """
        return np.random.default_rng(self.seed_for_index(index))
