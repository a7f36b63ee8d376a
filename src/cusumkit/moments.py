"""Exact CUSUM moment and MGF sequences.

Four independent routes to the exponential moments M_n(lambda) =
E exp(lambda * W_n) are provided: the O(N^2) convolution recursion, the
lower-triangular matrix solve, brute-force integer-partition summation
(small n), and the rescaled-Bell-polynomial view.  They must agree to
float precision and the tests enforce it.

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
from scipy.linalg import solve_triangular

from ._kernels import convolution_recursion
from .errors import FormulaMismatch, NoConvergence, TooLarge
from .models import IncrementModel, cached_lambda_star

__all__ = [
    "MomentTable",
    "MgfSeries",
    "cusum_mean",
    "cusum_variance",
    "moment_table",
    "cusum_mgf_recursive",
    "cusum_mgf_matrix",
    "cusum_mgf_partitions",
    "rescaled_bell",
    "asymptote_slope",
]

_PARTITION_LIMIT = 12
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
    self-convolution of (m_k), O(n^2) once for the whole table.
    """
    out = np.zeros(n + 1)
    if n == 0:
        return out, 0.0
    m1, m2 = _sum_moment_seq(model, n)
    k = np.arange(1, n + 1)
    m = m1 / k
    second = np.cumsum(m2 / k)
    csum = np.cumsum(m)
    # conv[j] = sum_{k1+k2 = j+2} m_k1 m_k2, j = 0..2n-2
    conv = np.convolve(m, m)
    inside = np.concatenate(([0.0], np.cumsum(conv)[: n - 1]))  # pairs with sum <= n
    out[1:] = second - (csum**2 - inside)

    # published recursive increment, kept as a diagnostic only:
    # rec_i = rec_{i-1} + Var(S_i+)/i + sum_{k<=i} m_k m_{i+1-k}, whose
    # cross term is conv[i-1]
    var_plus = m2 - m1**2
    rec = np.concatenate(([0.0], np.cumsum(var_plus / k + conv[:n])))
    gap = float(np.max(np.abs(rec - out)))
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
    M_{k+1} = (1/(k+1)) sum_{j<=k} M_j x_{k-j+1}."""
    xs = _x_seq(model, lam, n) if n > 0 else np.empty(0)
    values = convolution_recursion(np.ascontiguousarray(xs))
    return MgfSeries(lam=lam, horizon=n, values=values)


def cusum_mgf_matrix(model: IncrementModel, lam: float, n: int) -> MgfSeries:
    """M_0..M_n as the solution of the unit lower-triangular system
    (I - A) M = e, by forward substitution (BLAS trsv); no inverse is formed."""
    if n == 0:
        return MgfSeries(lam=lam, horizon=0, values=np.ones(1))
    xs = _x_seq(model, lam, n)
    size = n + 1
    system = np.eye(size)
    for i in range(1, size):
        system[i, :i] = -xs[i - 1 :: -1] / i
    rhs = np.zeros(size)
    rhs[0] = 1.0
    values = solve_triangular(system, rhs, lower=True)
    return MgfSeries(lam=lam, horizon=n, values=values)


def _partitions(total: int, largest: int):
    """Partitions of `total` as nonincreasing part lists."""
    if total == 0:
        yield []
        return
    for part in range(min(total, largest), 0, -1):
        for rest in _partitions(total - part, part):
            yield [part] + rest


def cusum_mgf_partitions(model: IncrementModel, lam: float, n: int) -> float:
    """M_n(lambda) by direct summation over integer partitions of n.

    Each partition with multiplicities (k_1..k_n) contributes
    prod_r x_r^{k_r} / (r^{k_r} k_r!).  Guarded to n <= 12; this is the
    slow oracle for the recursive and matrix routes.
    """
    if n > _PARTITION_LIMIT:
        raise TooLarge(f"partition summation limited to n <= {_PARTITION_LIMIT}")
    if n == 0:
        return 1.0
    xs = _x_seq(model, lam, n)
    log_space = bool(np.max(xs) > 1e300)
    total = 0.0
    for parts in _partitions(n, n):
        mult: dict[int, int] = {}
        for p in parts:
            mult[p] = mult.get(p, 0) + 1
        if log_space:
            log_term = sum(
                k * (math.log(xs[r - 1]) - math.log(r)) - math.lgamma(k + 1)
                for r, k in mult.items()
            )
            total += math.exp(log_term)
        else:
            term = 1.0
            for r, k in mult.items():
                term *= xs[r - 1] ** k / (r**k * math.factorial(k))
            total += term
    return total


def rescaled_bell(xs) -> np.ndarray:
    """Rescaled Bell polynomial sequence B~_0..B~_N of the inputs.

    B~_0 = 1 and B~_{n+1} = (1/(n+1)) sum_{k<=n} B~_k x_{n-k+1}; feeding
    the rectified exponential moments reproduces the CUSUM MGF sequence.
    """
    return convolution_recursion(np.ascontiguousarray(xs, dtype=float))


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
        d = convolution_recursion(np.ascontiguousarray(xs - 2.0))
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
