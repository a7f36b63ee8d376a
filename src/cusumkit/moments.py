"""Exact CUSUM moment and MGF sequences.

Two routes to the exponential moments M_n(lambda) = E exp(lambda * W_n)
run one blocked forward substitution (_toeplitz_forward) on the same
lower-triangular Toeplitz system: the convolution recursion solves its
rows as they are (cusum_mgf_recursive), and the matrix route solves them
scaled to a unit diagonal, without forming its matrix (cusum_mgf_matrix,
behind ``mgf --method matrix``).  The variance table V_0..V_N
(cusum_variance) takes its cross sum from one real FFT of the sequence
E S_k+ / k, O(N log N).  The slant asymptote of M_n(lambda*)
(asymptote_slope) is one sum over x_k - 2, read off Spitzer's identity.
The tests hold the independent references they must match
(tests/_oracles.py): the one-term-at-a-time O(N^2) loop of the
recursion, the dense matrix solve, the direct O(N^2) self-convolution of
the variance and, for small n, brute-force integer-partition summation.

Variance note: the published recursive increment for Var W_n does not
reproduce the direct expression derived from the generating function (its
cross term double-counts the square of the running mean; already at n = 1
it adds (E Y+)^2 to Var Y+).  Exact enumeration for discrete models
confirms the direct expression, so cusum_variance returns the direct
values and reports the recursion's discrepancy as a diagnostic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import toeplitz
from scipy.linalg.lapack import dtrtrs

from .errors import DivergentMoment, FormulaMismatch, NoConvergence
from .models import IncrementModel, _check_mgf_args, cached_lambda_star

__all__ = [
    "MomentTable",
    "MgfSeries",
    "cusum_mean",
    "cusum_variance",
    "moment_table",
    "cusum_mgf_recursive",
    "cusum_mgf_matrix",
    "asymptote_slope",
]

# rows per block of _toeplitz_forward, the forward substitution of both
# M_n routes; 64 and 256 were slower at N = 2 000 and 20 000
_BLOCK = 128
_MISMATCH_TOL = 1e-9
# asymptote_slope sums x_k - 2 until they fall below _SLOPE_TOL, within
# _SLOPE_MAX_TERMS terms (NormalLLR(0.1) needs 2^15)
_SLOPE_TOL = 1e-10
_SLOPE_MAX_TERMS = 2**15


@dataclass(frozen=True)
class MomentTable:
    """Mean and variance sequences E_0..E_N, V_0..V_N of the CUSUM."""

    horizon: int
    means: np.ndarray
    variances: np.ndarray
    recursion_gap: float  # max |direct - published recursion| diagnostic


@dataclass(frozen=True)
class MgfSeries:
    """Exponential moment sequence M_0(lambda)..M_N(lambda)."""

    lam: float
    horizon: int
    values: np.ndarray


def _toeplitz_forward(x: np.ndarray, scale_rows: bool) -> np.ndarray:
    """Given x[0..N-1] = x_1..x_N, return b[0..N] with b_0 = 1 solving the
    lower-triangular rows r b_r - sum_{0<c<r} x_{r-c} b_c = x_r, r = 1..N,
    each row divided by r first when scale_rows is set.

    Forward substitution in blocks of _BLOCK rows: for the rows i0..i1-1 of
    a block, one correlation adds up the terms over the solved
    b_0..b_{i0-1}, and one triangular solve (LAPACK dtrtrs, called
    directly) finishes the block.  Its matrix is the same strictly lower
    Toeplitz block -x_{r-c} for every block, with r on the diagonal of row
    r; divided per row, that diagonal is exactly 1.0.
    """
    n_terms = x.shape[0]
    b = np.empty(n_terms + 1)
    b[0] = 1.0
    size = min(_BLOCK, n_terms)
    block = toeplitz(np.concatenate(([0.0], -x[: size - 1])), np.zeros(size))
    diagonal = block.reshape(-1)[:: size + 1]  # a view: written per block
    for i0 in range(1, n_terms + 1, _BLOCK):
        i1 = min(i0 + _BLOCK, n_terms + 1)
        rows = np.arange(i0, i1)
        # rhs[r - i0] = sum_{c < i0} x_{r-c} b_c for r = i0..i1-1
        rhs = np.correlate(x[: i1 - 1], b[i0 - 1 :: -1], "valid")
        diagonal[: rows.size] = rows
        panel = block[: rows.size, : rows.size]
        if scale_rows:
            rhs = rhs / rows
            panel = panel / rows[:, None]
        # solve_triangular(panel, rhs, lower=True) without its 30-45 us of
        # wrapper: the same LAPACK call on the transposed (Fortran-ordered)
        # upper triangle, so the same bits.  The diagonal is i0..i1-1 >= 1,
        # or 1.0, so the solve never meets a zero pivot.
        b[i0:i1], _ = dtrtrs(panel.T, rhs, lower=0, trans=1)
    return b


def convolution_recursion(x: np.ndarray) -> np.ndarray:
    """Given x[0..N-1] = x_1..x_N, return b[0..N] with b_0 = 1 and
    b_{n+1} = (1/(n+1)) sum_{k<=n} b_k x_{n-k+1}.

    The b_n solve the unscaled rows of _toeplitz_forward.  The products are
    those of the term-by-term recursion, summed in another order, so the
    two agree to rounding for inputs of any sign.
    """
    return _toeplitz_forward(x, scale_rows=False)


@lru_cache(maxsize=64)
def _x_seq(model: IncrementModel, lam: float, n: int) -> np.ndarray:
    """Cached x_k = E exp(lam * S_k+) for k = 1..n (read-only); a non-finite
    x_k is refused, for both M_n routes."""
    xs = model.rectified_exp_seq(lam, n)
    bad = ~np.isfinite(xs)
    if bad.any():
        raise DivergentMoment(
            f"E exp(lam * S_k+) is not finite at lam = {lam:g}, "
            f"k = {bad.argmax() + 1}, for {model.spec()}"
        )
    xs.setflags(write=False)
    return xs


@lru_cache(maxsize=64)
def _sum_moment_seq(model: IncrementModel, n: int):
    m1, m2 = model.rectified_moment_seq(n)
    m1.setflags(write=False)
    m2.setflags(write=False)
    return m1, m2


def cusum_mean(model: IncrementModel, n: int) -> np.ndarray:
    """E_0..E_n via E_k = E_{k-1} + E S_k+ / k."""
    out = np.zeros(n + 1)
    if n > 0:
        m1, _ = _sum_moment_seq(model, n)
        out[1:] = np.cumsum(m1 / np.arange(1, n + 1))
    return out


def cusum_variance(model: IncrementModel, n: int) -> tuple[np.ndarray, float]:
    """V_0..V_n plus the published-recursion discrepancy diagnostic.

    Returned values use the direct expression
    V_n = sum_{k<=n} E(S_k+)^2 / k  -  sum_{k1+k2>n; k1,k2<=n} m_k1 m_k2
    with m_k = E S_k+ / k.  The cross sum is evaluated through the full
    self-convolution of (m_k), taken from one real FFT of (m_k) for the
    whole table, O(n log n).  The FFT errs by about eps log n times
    sum_k m_k^2 <= (sum_k m_k)^2 in each term, so V_n keeps about the
    accuracy its cancellation (sum_k m_k)^2 - inside allows, and terms where
    m_k underflows cost no more than the others.
    """
    out = np.zeros(n + 1)
    if n == 0:
        return out, 0.0
    m1, m2 = _sum_moment_seq(model, n)
    # csum**2 and the sums below exceed V_n by up to a factor (1 + ln n)^2,
    # so they can overflow where V_n is a float: then they are taken in
    # units of a power of two u (exact) for which the largest m2 / u^2 is
    # below 2, and the results scaled back
    top = float(m2.max())
    unit = 1.0 if top < 2.0**900 else 2.0 ** (math.frexp(top)[1] // 2)
    m1 = m1 / unit
    m2 = m2 / unit / unit
    k = np.arange(1, n + 1)
    m = m1 / k
    second = np.cumsum(m2 / k)
    csum = np.cumsum(m)
    # conv[j] = sum_{k1+k2 = j+2} m_k1 m_k2, j = 0..2n-2: m zero-padded to
    # a power of two >= 2n - 1, so the circular convolution does not wrap
    size = 1 << (2 * n - 2).bit_length()
    spectrum = np.fft.rfft(m, size)
    conv = np.fft.irfft(spectrum * spectrum, size)[: 2 * n - 1]
    inside = np.concatenate(([0.0], np.cumsum(conv)[: n - 1]))  # pairs with sum <= n
    out[1:] = second - (csum**2 - inside)

    # published recursive increment, kept as a diagnostic only:
    # rec_i = rec_{i-1} + Var(S_i+)/i + sum_{k<=i} m_k m_{i+1-k}, whose
    # cross term is conv[i-1]
    var_plus = m2 - m1**2
    rec = np.concatenate(([0.0], np.cumsum(var_plus / k + conv[:n])))
    gap = np.abs(rec - out)
    with np.errstate(over="ignore"):  # refused below
        for a in (out, gap):
            a *= unit
            a *= unit
    bad = ~(np.isfinite(out) & np.isfinite(gap))
    if bad.any():
        raise DivergentMoment(
            f"Var W_k or its recursion gap overflows at k = {bad.argmax()} "
            f"for {model.spec()}")
    gap = float(np.max(gap))
    if gap > _MISMATCH_TOL:
        warnings.warn(
            f"published variance recursion deviates from the direct form "
            f"by up to {gap:.3g}; direct values returned",
            FormulaMismatch,
            stacklevel=2,
        )
    return out, gap


def moment_table(model: IncrementModel, n: int) -> MomentTable:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FormulaMismatch)
        variances, gap = cusum_variance(model, n)
    return MomentTable(
        horizon=n,
        means=cusum_mean(model, n),
        variances=variances,
        recursion_gap=gap,
    )


def cusum_mgf_recursive(model: IncrementModel, lam: float, n: int) -> MgfSeries:
    """M_0..M_n by the convolution recursion
    M_{k+1} = (1/(k+1)) sum_{j<=k} M_j x_{k-j+1}, solved by blocked forward
    substitution (convolution_recursion)."""
    _check_mgf_args(lam, n)
    values = convolution_recursion(_x_seq(model, lam, n))
    return MgfSeries(lam=lam, horizon=n, values=values)


def cusum_mgf_matrix(model: IncrementModel, lam: float, n: int) -> MgfSeries:
    """M_0..M_n as the solution of the unit lower-triangular system
    (I - A) M = e, A[r, c] = x_{r-c} / r for c < r, by the blocked forward
    substitution of _toeplitz_forward; the matrix is never formed.  Each
    row is scaled by 1/r before the solve, so the route is numerically
    separate from cusum_mgf_recursive, which solves the unscaled rows."""
    _check_mgf_args(lam, n)
    values = _toeplitz_forward(_x_seq(model, lam, n), scale_rows=True)
    return MgfSeries(lam=lam, horizon=n, values=values)


def asymptote_slope(model: IncrementModel) -> tuple[float, float]:
    """Slope a and intercept b of the slant asymptote M_n(lambda*) ~ a n + b.

    Spitzer's identity sum_n M_n t^n = exp(sum_k x_k t^k / k) = D(t) /
    (1 - t)^2 gives a = D(1) = exp(sum_k (x_k - 2) / k) and b = a (1 -
    sum_k (x_k - 2)).  At lambda* every x_k - 2 = -P(S_k > 0) -
    E[exp(lambda* S_k); S_k <= 0] is negative.  Both sums stop once the
    last 64 terms, not just one, are below _SLOPE_TOL in magnitude; a law
    that does not get there within _SLOPE_MAX_TERMS terms raises
    NoConvergence.
    """
    lam_star = cached_lambda_star(model)  # rejects P(Y > 0) = 0 models
    size = 256
    while True:
        y = _x_seq(model, lam_star, size) - 2.0
        if np.all(np.abs(y[-64:]) < _SLOPE_TOL):
            slope = math.exp(float(np.sum(y / np.arange(1, size + 1))))
            return slope, slope * (1.0 - float(np.sum(y)))
        if size >= _SLOPE_MAX_TERMS:
            raise NoConvergence(
                f"x_k - 2 did not fall below {_SLOPE_TOL:g} within "
                f"{_SLOPE_MAX_TERMS} terms for {model.spec()}"
            )
        size = min(2 * size, _SLOPE_MAX_TERMS)
