"""Deterministic, platform-independent pseudorandom primitives.

Fold assignment and synthetic-corpus planting must be reproducible
bit-for-bit from a seed alone, independent of Python's hash randomization
or library version. Everything here is defined over explicit 64-bit
integer arithmetic so any implementation can reproduce the sequences:

* SplitMix64 stream: state advances by 0x9E3779B97F4A7C15 per draw; each
  output is the advanced state mixed by xor-shift-multiply with constants
  0xBF58476D1CE4E5B9 and 0x94D049BB133111EB (shifts 30, 27, 31).
* Shuffle: Fisher-Yates from the last index down, j = next() % (i + 1).
* String keying: FNV-1a 64-bit over the UTF-8 bytes.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


class SplitMix64:
    """64-bit SplitMix sequence; cheap, seedable, and easy to port."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this stream (``next_u64`` inlined)."""
        state = self._state
        for i in range(len(items) - 1, 0, -1):
            state = (state + 0x9E3779B97F4A7C15) & _MASK
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            # The modulo bias is negligible for bounds far below 2**64, and the
            # reduction is part of the documented sequence contract.
            j = (z ^ (z >> 31)) % (i + 1)
            items[i], items[j] = items[j], items[i]
        self._state = state


def fnv1a64(text: str) -> int:
    """FNV-1a 64-bit hash of the UTF-8 encoding of ``text``."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & _MASK
    return h
