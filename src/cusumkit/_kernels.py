"""Hot numeric kernels with a numba fast path and a pure-numpy fallback.

The Lindley kernel is the last stage of the Monte Carlo chunk pipeline in
simulate.py: Philox uniforms (rng.uniform_block), then the model's inverse
CDF (IncrementModel.quantile), then the fold here, on chunks of about one
million elements so each stage's output is still in cache for the next.
The numpy fold keeps the rep-major (reps, n) layout and updates its two
per-path accumulators in place, one column per step.

The fallback is selected automatically when numba is unavailable, or
explicitly by setting the environment variable CUSUMKIT_NO_NUMBA=1 before
import.  Both paths produce bit-identical results for the Lindley kernel
(elementwise max/add in the same order) and agree to float rounding for
the convolution recursion; benchmarks/bench_kernels.py compares them.
"""

from __future__ import annotations

import os

import numpy as np

_want_numba = os.environ.get("CUSUMKIT_NO_NUMBA", "").strip() not in ("1", "true", "yes")

if _want_numba:
    try:
        import numba
    except ImportError:  # pragma: no cover - exercised via env flag instead
        numba = None
else:
    numba = None

HAVE_NUMBA = numba is not None


# ---------------------------------------------------------------------------
# Lindley recursion over a block of simulated paths
# ---------------------------------------------------------------------------


def _lindley_block_np(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold W_{t+1} = max(W_t + y_t, 0) over axis 1 of a (reps, n) block.

    Returns the terminal value W_n and the running maximum per path.
    """
    reps, n = y.shape
    w = np.zeros(reps)
    mx = np.zeros(reps)
    for t in range(n):
        np.add(w, y[:, t], out=w)
        np.maximum(w, 0.0, out=w)
        np.maximum(mx, w, out=mx)
    return w, mx


def _lindley_block_jit(y):  # pragma: no cover - compiled path
    reps, n = y.shape
    w = np.zeros(reps)
    mx = np.zeros(reps)
    for r in range(reps):
        acc = 0.0
        best = 0.0
        for t in range(n):
            acc = max(acc + y[r, t], 0.0)
            if acc > best:
                best = acc
        w[r] = acc
        mx[r] = best
    return w, mx


# ---------------------------------------------------------------------------
# convolution-style recursion b_{n+1} = (1/(n+1)) sum_k b_k x_{n-k+1}
# ---------------------------------------------------------------------------


def _convolution_recursion_np(x: np.ndarray) -> np.ndarray:
    """Given x[0..N-1] = x_1..x_N, return b[0..N] with b_0 = 1."""
    n_terms = x.shape[0]
    b = np.empty(n_terms + 1)
    b[0] = 1.0
    for n in range(n_terms):
        b[n + 1] = np.dot(b[: n + 1], x[n::-1]) / (n + 1)
    return b


def _convolution_recursion_jit(x):  # pragma: no cover - compiled path
    n_terms = x.shape[0]
    b = np.empty(n_terms + 1)
    b[0] = 1.0
    for n in range(n_terms):
        acc = 0.0
        for k in range(n + 1):
            acc += b[k] * x[n - k]
        b[n + 1] = acc / (n + 1)
    return b


if HAVE_NUMBA:
    _lindley_block_jit = numba.njit(cache=True)(_lindley_block_jit)
    _convolution_recursion_jit = numba.njit(cache=True)(_convolution_recursion_jit)
    lindley_block = _lindley_block_jit
    convolution_recursion = _convolution_recursion_jit
else:
    lindley_block = _lindley_block_np
    convolution_recursion = _convolution_recursion_np
