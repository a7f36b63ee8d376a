"""Counter-based substreams for reproducible parallel simulation.

Each replication owns a fixed-size slice of a single Philox counter
stream, keyed by the run seed.  Philox advances its counter in blocks of
four 64-bit outputs and one uniform double consumes one output, so a
replication that needs n uniforms is allotted ceil(n/4) blocks.  Any
partition of the replication range into chunks (and any worker count)
therefore reproduces the exact same numbers.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

_OUTPUTS_PER_BLOCK = 4
MIN_UNIFORM = 2.0**-64  # keep inverse-CDF sampling away from u = 0


def blocks_per_rep(draws_per_rep: int) -> int:
    """Philox counter blocks reserved per replication."""
    return -(-draws_per_rep // _OUTPUTS_PER_BLOCK)


def uniform_block(seed: int, first_rep: int, reps: int, draws_per_rep: int) -> np.ndarray:
    """Uniforms in (0, 1) of shape (reps, draws_per_rep) for a chunk of
    replications [first_rep, first_rep + reps), deterministic in
    (seed, replication index) only.

    The result is a view of the whole Philox buffer (clamped in place), so
    its rows are not contiguous unless draws_per_rep is a multiple of 4.
    """
    stride = blocks_per_rep(draws_per_rep)
    bitgen = Philox(key=seed)
    bitgen.advance(first_rep * stride)
    u = Generator(bitgen).random(reps * stride * _OUTPUTS_PER_BLOCK)
    np.maximum(u, MIN_UNIFORM, out=u)
    return u.reshape(reps, stride * _OUTPUTS_PER_BLOCK)[:, :draws_per_rep]


def substream(seed: int, rep: int, draws_per_rep: int) -> Generator:
    """Generator positioned at the start of one replication's slice."""
    bitgen = Philox(key=seed)
    bitgen.advance(rep * blocks_per_rep(draws_per_rep))
    return Generator(bitgen)
