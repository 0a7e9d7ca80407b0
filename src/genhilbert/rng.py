"""Reproducible random streams for the classical-inequality check.

The generator contract is fixed so independent implementations can replay
identical trials from a seed:

- State: one 64-bit unsigned integer, the seed as given.
- next_u64: state += 0x9E3779B97F4A7C15 (mod 2^64); z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 (mod 2^64);
  z = (z ^ (z >> 27)) * 0x94D049BB133111EB (mod 2^64);
  return z ^ (z >> 31).
- uniform01: next_u64() >> 11, divided by 2^53 (result in [0,1)).
- below(n): next_u64() mod n.

This is the splitmix-style mixer; it is deliberately hand-rolled rather
than delegated to a library so the stream is pinned by this file, not by
any library version.
"""

from __future__ import annotations

__all__ = ["SplitMix64"]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """64-bit splitmix-style generator with the documented fixed stream."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform01(self) -> float:
        """Uniform double in [0,1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        """Integer in [0, n); modulo reduction (bias is irrelevant here)."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        return self.next_u64() % n
