"""Counter-based substreams for reproducible parallel simulation.

Each replication owns a fixed-size slice of a single Philox counter
stream, keyed by the run seed.  Philox advances its counter in blocks of
four 64-bit outputs and one draw consumes one output, so a replication
that needs n draws is allotted ceil(n/4) blocks.  Any partition of the
replication range into chunks (and any worker count) therefore reproduces
the exact same numbers.  A draw is either the raw output r (word_block) or
the uniform Generator.random makes of it, (r >> 11) * 2**-53, clamped to
at least MIN_UNIFORM (uniform_block, substream callers).
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

_OUTPUTS_PER_BLOCK = 4
MIN_UNIFORM = 2.0**-64  # keep inverse-CDF sampling away from u = 0


def blocks_per_rep(draws_per_rep: int) -> int:
    """Philox counter blocks reserved per replication."""
    return -(-draws_per_rep // _OUTPUTS_PER_BLOCK)


def _positioned(seed: int, rep: int, draws_per_rep: int) -> Philox:
    """Philox at the start of replication rep's slice."""
    bitgen = Philox(key=seed)
    bitgen.advance(rep * blocks_per_rep(draws_per_rep))
    return bitgen


def uniform_block(seed: int, first_rep: int, reps: int, draws_per_rep: int) -> np.ndarray:
    """Uniforms in (0, 1) of shape (reps, draws_per_rep) for a chunk of
    replications [first_rep, first_rep + reps), deterministic in
    (seed, replication index) only.

    The result is a view of the whole Philox buffer (clamped in place), so
    its rows are not contiguous unless draws_per_rep is a multiple of 4.
    """
    width = blocks_per_rep(draws_per_rep) * _OUTPUTS_PER_BLOCK
    u = Generator(_positioned(seed, first_rep, draws_per_rep)).random(reps * width)
    np.maximum(u, MIN_UNIFORM, out=u)
    return u.reshape(reps, width)[:, :draws_per_rep]


def word_block(seed: int, first_rep: int, reps: int, draws_per_rep: int) -> np.ndarray:
    """The raw 64-bit Philox outputs behind uniform_block(seed, first_rep,
    reps, draws_per_rep), as the whole contiguous uint64 buffer.

    Its shape is (reps, 4 * blocks_per_rep(draws_per_rep)): the first
    draws_per_rep columns of a row are the replication's draws, the rest
    pad the row to whole Philox blocks.
    """
    width = blocks_per_rep(draws_per_rep) * _OUTPUTS_PER_BLOCK
    words = _positioned(seed, first_rep, draws_per_rep).random_raw(reps * width)
    return words.reshape(reps, width)


def substream(seed: int, rep: int, draws_per_rep: int) -> Generator:
    """Generator positioned at the start of one replication's slice."""
    return Generator(_positioned(seed, rep, draws_per_rep))
