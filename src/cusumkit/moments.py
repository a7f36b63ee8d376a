"""Exact CUSUM moment and MGF sequences.

Two routes to the exponential moments M_n(lambda) = E exp(lambda * W_n)
are provided: the convolution recursion, solved by blocked forward
substitution (cusum_mgf_recursive), and the row-scaled unit
lower-triangular system, solved in panels without forming its matrix
(cusum_mgf_matrix, behind ``mgf --method matrix``).  The variance table
V_0..V_N (cusum_variance) takes its cross sum from one real FFT of the
sequence E S_k+ / k, O(N log N).  The tests hold the independent
references they must match (tests/_oracles.py): the one-term-at-a-time
O(N^2) loop of the recursion, the dense matrix solve, the direct O(N^2)
self-convolution of the variance and, for small n, brute-force
integer-partition summation.

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
from .models import IncrementModel, cached_lambda_star

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

# rows per forward-substitution block of convolution_recursion; 64 and 256
# were slower at N = 2 000 and 20 000
_BLOCK = 128
_MISMATCH_TOL = 1e-9


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


def convolution_recursion(x: np.ndarray) -> np.ndarray:
    """Given x[0..N-1] = x_1..x_N, return b[0..N] with b_0 = 1 and
    b_{n+1} = (1/(n+1)) sum_{k<=n} b_k x_{n-k+1}.

    The b_n solve the lower-triangular system n b_n - sum_{0<k<n} x_{n-k} b_k
    = x_n b_0, n = 1..N, which is solved by forward substitution in blocks
    of _BLOCK rows.  For the rows i0..i1-1 of a block, one correlation adds
    up the terms over the solved b_0..b_{i0-1}, and one triangular solve
    (LAPACK dtrtrs, called directly) finishes the block; its matrix is the
    same strictly lower Toeplitz block -x_{r-c} for every block, with r on
    the diagonal of row r.  The products are those of the term-by-term
    recursion, summed in another order, so the two agree to rounding for
    inputs of any sign.
    """
    n_terms = x.shape[0]
    b = np.empty(n_terms + 1)
    b[0] = 1.0
    size = min(_BLOCK, n_terms)
    block = toeplitz(np.concatenate(([0.0], -x[: size - 1])), np.zeros(size))
    diagonal = block.reshape(-1)[:: size + 1]  # a view: written per block
    for i0 in range(1, n_terms + 1, _BLOCK):
        i1 = min(i0 + _BLOCK, n_terms + 1)
        rows = i1 - i0
        # rhs[r - i0] = sum_{c < i0} x_{r-c} b_c for r = i0..i1-1
        rhs = np.correlate(x[: i1 - 1], b[i0 - 1 :: -1], "valid")
        diagonal[:rows] = np.arange(i0, i1)
        # solve_triangular(block[:rows, :rows], rhs, lower=True) without
        # its 30-45 us of wrapper: the same LAPACK call on the transposed
        # (Fortran-ordered) upper triangle, so the same bits.  The diagonal
        # is i0..i1-1 >= 1, so the solve never meets a zero pivot.
        b[i0:i1], _ = dtrtrs(block[:rows, :rows].T, rhs, lower=0, trans=1)
    return b


@lru_cache(maxsize=64)
def _x_seq(model: IncrementModel, lam: float, n: int) -> np.ndarray:
    """Cached x_k = E exp(lam * S_k+) for k = 1..n (read-only)."""
    xs = model.rectified_exp_seq(lam, n)
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


def _check_lambda(lam: float) -> None:
    if math.isnan(lam):
        raise ValueError(f"lambda must be a number, got {lam:g}")
    if math.isinf(lam):
        raise ValueError(f"lambda must be finite, got {lam:g}")


def cusum_mgf_recursive(model: IncrementModel, lam: float, n: int) -> MgfSeries:
    """M_0..M_n by the convolution recursion
    M_{k+1} = (1/(k+1)) sum_{j<=k} M_j x_{k-j+1}, solved by blocked forward
    substitution (convolution_recursion)."""
    _check_lambda(lam)
    xs = _x_seq(model, lam, n) if n > 0 else np.empty(0)
    values = convolution_recursion(xs)
    return MgfSeries(lam=lam, horizon=n, values=values)


def cusum_mgf_matrix(model: IncrementModel, lam: float, n: int) -> MgfSeries:
    """M_0..M_n as the solution of the unit lower-triangular system
    (I - A) M = e, A[r, c] = x_{r-c} / r for c < r, by forward substitution
    in panels of _BLOCK rows; the matrix is never formed.

    For the rows i0..i1-1 of a panel, one correlation over the solved
    M_0..M_{i0-1}, divided by r, gives the sum of the off-panel terms, and
    one triangular solve (LAPACK dtrtrs, unit diagonal) finishes the panel;
    its block -x_{r-c} / r is one Toeplitz block divided per row.  Each row
    is scaled by 1/r before the solve, so the route is numerically separate
    from cusum_mgf_recursive, which solves the unscaled rows."""
    _check_lambda(lam)
    if n == 0:
        return MgfSeries(lam=lam, horizon=0, values=np.ones(1))
    xs = _x_seq(model, lam, n)
    if not np.isfinite(xs).all():
        raise DivergentMoment(
            f"E exp(lam * S_k+) is not finite at lam = {lam:g} for some k <= {n}"
        )
    values = np.empty(n + 1)
    values[0] = 1.0
    size = min(_BLOCK, n)
    block = toeplitz(np.concatenate(([0.0], -xs[: size - 1])), np.zeros(size))
    for i0 in range(1, n + 1, _BLOCK):
        i1 = min(i0 + _BLOCK, n + 1)
        rows = np.arange(i0, i1)
        # rhs[r - i0] = sum_{c < i0} x_{r-c} M_c / r for r = i0..i1-1
        rhs = np.correlate(xs[: i1 - 1], values[i0 - 1 :: -1], "valid") / rows
        panel = block[: rows.size, : rows.size] / rows[:, None]
        # the transposed (Fortran-ordered) upper triangle: the lower
        # triangular solve without solve_triangular's wrapper, as in
        # convolution_recursion; the zero diagonal is read as ones
        values[i0:i1], _ = dtrtrs(panel.T, rhs, lower=0, trans=1, unitdiag=1)
    return MgfSeries(lam=lam, horizon=n, values=values)


def asymptote_slope(
    model: IncrementModel,
    tol: float = 1e-10,
    max_terms: int = 5000,
) -> tuple[float, float]:
    """Slope and intercept of the slant asymptote of M_n(lambda*).

    The slope is the convergent series a = sum_k d_k with
    d_k = B~_k(x_1 - 2, ..., x_k - 2) evaluated at lambda*, summed until
    the terms contract below tol (the tail decays geometrically once the
    inputs are near zero); the intercept follows from the weighted tail
    1 - sum_{k>=2} (k-1) d_k.
    """
    lam_star = cached_lambda_star(model)  # rejects P(Y > 0) = 0 models
    size = 256
    while True:
        xs = model.rectified_exp_seq(lam_star, size)
        d = convolution_recursion(xs - 2.0)
        stop = None
        for k in range(2, size + 1):
            prev, cur = abs(d[k - 1]), abs(d[k])
            ratio = min(cur / prev, 0.9) if prev > 0 else 0.0
            if cur < tol * (1.0 - ratio):
                stop = k
                break
        if stop is not None:
            slope = float(np.sum(d[: stop + 1]))
            weights = np.arange(-1, stop, dtype=float)  # k-1 for k = 0..stop
            intercept = 1.0 - float(np.sum(weights[2:] * d[2:stop + 1]))
            return slope, intercept
        if size >= max_terms:
            raise NoConvergence(
                f"difference series did not contract within {max_terms} terms"
            )
        size = min(2 * size, max_terms)
