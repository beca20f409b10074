"""SplitMix64: a tiny deterministic PRNG with 64-bit state.

Chosen over the stdlib generator because runs must replay exactly from a
single integer seed, across processes and Python versions, and because
independent substreams (one per fuzz instance, one per sampled schedule)
are seeded from draws of a parent stream. Constants
are the standard SplitMix64 ones (Steele, Lea & Flood's mixer).
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Deterministic 64-bit PRNG; not for cryptographic use."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return (self.next_u64() >> 11) / float(1 << 53)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq):
        if not seq:
            raise ValueError("empty sequence")
        return seq[self.next_u64() % len(seq)]
