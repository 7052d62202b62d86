"""CPU sets.

A :class:`CpuSet` is an immutable bitmask of core ids, mirroring
``cpu_set_t`` / Marcel's vpsets.  The communication library attaches one to
each task to restrict which cores may execute it (paper §III); PIOMan maps
the set to the narrowest topology node whose core span covers it.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a non-negative int, lowest first.

    Shared helper for bitmask walks (CPU sets, the queue hierarchy's
    occupancy summary): isolating the lowest set bit with ``mask & -mask``
    jumps straight between set bits instead of shifting through every
    zero in between, which matters for sparse masks over many positions.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class CpuSet:
    """Immutable set of core ids backed by an int bitmask.

    ``single``, ``range`` and ``all`` hand out one shared instance per
    mask (at most O(ncores²) of them), so the many tasks that name the
    same core or node span keep no set of their own; ``mask`` refuses
    assignment, which is what makes the sharing safe.
    """

    __slots__ = ("mask",)

    def __init__(self, cores: Iterable[int] | int = ()) -> None:
        if isinstance(cores, int):
            if cores < 0:
                raise ValueError("mask must be non-negative")
            m = cores
        else:
            m = 0
            for c in cores:
                if c < 0:
                    raise ValueError(f"negative core id {c}")
                m |= 1 << c
        object.__setattr__(self, "mask", m)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"CpuSet is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"CpuSet is immutable: cannot delete {name!r}")

    def __reduce__(self) -> tuple:
        # the default slot-state protocol restores ``mask`` by assignment
        return (CpuSet, (self.mask,))

    # -- constructors ---------------------------------------------------
    @staticmethod
    def single(core: int) -> "CpuSet":
        """The set containing exactly one core."""
        return _shared(1 << core)

    @staticmethod
    def range(lo: int, hi: int) -> "CpuSet":
        """Cores ``lo..hi-1`` (half-open, like :func:`range`)."""
        if hi < lo:
            raise ValueError("empty or inverted range")
        return _shared(((1 << (hi - lo)) - 1) << lo)

    @staticmethod
    def all(ncores: int) -> "CpuSet":
        """The full set for a machine with ``ncores`` cores."""
        return _shared((1 << ncores) - 1)

    # -- set algebra -----------------------------------------------------
    def __or__(self, other: "CpuSet") -> "CpuSet":
        return CpuSet(self.mask | other.mask)

    def __and__(self, other: "CpuSet") -> "CpuSet":
        return CpuSet(self.mask & other.mask)

    def __sub__(self, other: "CpuSet") -> "CpuSet":
        return CpuSet(self.mask & ~other.mask)

    def __xor__(self, other: "CpuSet") -> "CpuSet":
        return CpuSet(self.mask ^ other.mask)

    def issubset(self, other: "CpuSet") -> bool:
        return self.mask & ~other.mask == 0

    def issuperset(self, other: "CpuSet") -> bool:
        return other.mask & ~self.mask == 0

    def intersects(self, other: "CpuSet") -> bool:
        return bool(self.mask & other.mask)

    def contains(self, core: int) -> bool:
        return bool(self.mask >> core & 1)

    __contains__ = contains

    # -- inspection --------------------------------------------------------
    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CpuSet) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(("CpuSet", self.mask))

    def first(self) -> int:
        """Lowest core id in the set (the set must be non-empty)."""
        if not self.mask:
            raise ValueError("empty CpuSet")
        return (self.mask & -self.mask).bit_length() - 1

    def __repr__(self) -> str:
        return f"CpuSet({list(self)})"


#: the shared instance of each mask ``single``/``range``/``all`` returned
_SHARED: dict[int, CpuSet] = {}


def _shared(mask: int) -> CpuSet:
    cpuset = _SHARED.get(mask)
    if cpuset is None:
        cpuset = _SHARED[mask] = CpuSet(mask)
    return cpuset


#: The empty CPU set (meaning "no restriction" is expressed by an explicit
#: full set, never by emptiness — an empty set in a task is an error).
EMPTY = CpuSet(0)
