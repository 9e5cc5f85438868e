"""Position-addressed reproducible random streams.

Built on the Philox generator, which computes its output at any position
directly. A stream is identified by (seed, stream_id) and the uniform at
each absolute position is well-defined independently of how draws are
batched, so chunked or parallel execution can reproduce the serial sequence
exactly.

Philox produces its output in blocks of four 64-bit values; to start at an
arbitrary position we advance whole blocks and discard the remainder. The
rules ``_seed``, ``_count`` and ``_level`` check a run's scalar inputs, each
raising a ``DomainError`` that names the field.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .errors import DomainError

__all__ = ["RngStream", "derive_seed"]

_MASK64 = 0xFFFFFFFFFFFFFFFF

# uniforms are clamped into the open interval so the normal inverse CDF
# never returns an infinity
_U_LOW = 1e-300
_U_HIGH = 1.0 - 1e-16


def _count(label: str, k, low=1) -> int:
    """``k`` as a Python int, refused unless an integer >= ``low`` (any if None)."""
    # bool is an int subclass, but True is no count or seed
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise DomainError(f"{label} must be an integer, got {k!r}")
    if low is not None and k < low:
        raise DomainError(f"{label} must be >= {low}, got {k}")
    return int(k)


def _level(label: str, p) -> float:
    """``p`` as a float, refused unless a real number strictly in (0, 1)."""
    if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 0.0 < p < 1.0:
        raise DomainError(f"{label} must be a number in (0, 1), got {p!r}")
    return float(p)


def _seed(label: str, k) -> int:
    """``k`` as a Python int, refused unless it is an integer in [0, 2**64).

    A float would be truncated to another seed, a numpy integer would
    overflow the 64-bit arithmetic below, and a value out of range would
    alias one inside it.
    """
    k = _count(label, k, low=None)
    if not 0 <= k <= _MASK64:
        raise DomainError(f"{label} must be in [0, 2**64), got {k}")
    return k


def derive_seed(seed: int, index: int) -> int:
    """Derive an independent 64-bit seed from (seed, index).

    splitmix64 finalizer over the combined value; used to give sub-tasks
    (coverage trials) reproducible, well-separated seeds.
    """
    z = (_seed("seed", seed) * 0x9E3779B97F4A7C15 + index + 1) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RngStream:
    """A position-addressed uniform random stream.

    (seed, stream_id) fully determines the uniform at every position;
    distinct stream_ids give statistically independent streams.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for label in ("seed", "stream_id"):
            object.__setattr__(self, label, _seed(label, getattr(self, label)))

    def uniforms(self, start: int, n: int) -> np.ndarray:
        """The n uniforms in [0, 1) at positions start .. start + n - 1."""
        if start < 0 or n < 0:
            raise ValueError(f"start and n must be >= 0, got {start} and {n}")
        bg = Philox(key=[self.seed, self.stream_id])
        skip_blocks, pre = divmod(start, 4)
        if skip_blocks:
            bg.advance(skip_blocks)
        return Generator(bg).random(pre + n)[pre:]
