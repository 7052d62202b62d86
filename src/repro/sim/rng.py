"""Deterministic random-number helper.

All stochastic behaviour in the simulator (jitter on wire latencies,
tie-breaking among equidistant lock waiters, workload generators) draws
from seeded :class:`Rng` streams, one per entity, each derived from the
run's seed, so that a run is reproducible from one seed.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, TypeVar

T = TypeVar("T")


class Rng:
    """Thin, explicit wrapper around :class:`random.Random`.

    A wrapper rather than the module-level functions so that (a) the seed is
    mandatory and visible, and (b) sub-streams can be forked for independent
    components without perturbing each other's sequences.
    """

    __slots__ = ("seed", "_r")

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._r = random.Random(seed)

    def fork(self, salt: int) -> "Rng":
        """Derive an independent deterministic sub-stream."""
        return Rng((self.seed * 1_000_003 + salt) & 0x7FFFFFFF)

    def uniform(self, lo: float, hi: float) -> float:
        return self._r.uniform(lo, hi)

    def randint(self, lo: int, hi: int) -> int:
        return self._r.randint(lo, hi)

    def jitter_ns(self, base: int, frac: float) -> int:
        """``base`` ns +/- ``frac`` relative jitter, never negative."""
        if frac <= 0.0:
            return base
        lo = base * (1.0 - frac)
        hi = base * (1.0 + frac)
        return max(0, int(self._r.uniform(lo, hi)))

    def choice(self, seq: Sequence[T]) -> T:
        return self._r.choice(seq)

    def shuffle(self, lst: list) -> None:
        self._r.shuffle(lst)

    def expovariate(self, rate: float) -> float:
        return self._r.expovariate(rate)

    def random(self) -> float:
        return self._r.random()

    def bytes(self, n: int) -> bytes:
        return self._r.randbytes(n)
