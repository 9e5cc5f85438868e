"""Counter-based reproducible random streams.

Built on the Philox counter-based generator. A stream is identified by
(seed, stream_id) and a uniform at absolute position ``counter`` is
well-defined independently of how draws are batched, so chunked or parallel
execution can reproduce the serial sequence exactly.

Philox advances its 128-bit counter in blocks of four 64-bit outputs; to
start at an arbitrary offset we advance whole blocks and discard the
remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

__all__ = ["RngStream", "derive_seed"]

_MASK64 = 0xFFFFFFFFFFFFFFFF

# uniforms are clamped into the open interval so the normal inverse CDF
# never returns an infinity
_U_LOW = 1e-300
_U_HIGH = 1.0 - 1e-16


def derive_seed(seed: int, index: int) -> int:
    """Derive an independent 64-bit seed from (seed, index).

    splitmix64 finalizer over the combined value; used to give sub-tasks
    (coverage trials, sweep rows) reproducible, well-separated seeds.
    """
    z = (seed * 0x9E3779B97F4A7C15 + index + 1) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass
class RngStream:
    """A position-addressable uniform random stream.

    (seed, stream_id, counter) fully determines all future output; distinct
    stream_ids give statistically independent streams.
    """

    seed: int
    stream_id: int = 0
    counter: int = field(default=0)

    def uniforms(self, n: int) -> np.ndarray:
        """Return the next n uniforms in [0, 1) and advance the counter."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        bg = Philox(key=[self.seed & _MASK64, self.stream_id & _MASK64])
        skip_blocks, pre = divmod(self.counter, 4)
        if skip_blocks:
            bg.advance(skip_blocks)
        out = Generator(bg).random(pre + n)[pre:]
        self.counter += n
        return out

    def at(self, counter: int) -> "RngStream":
        """A fresh stream positioned at an absolute counter offset."""
        return RngStream(self.seed, self.stream_id, counter)

