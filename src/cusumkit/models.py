"""Increment distributions and everything derived from a single increment.

An increment model describes the law of one step Y of the random walk that
drives the CUSUM recursion W_{n+1} = max(W_n + Y_{n+1}, 0).  The model owns
its MGF m(lambda) = E exp(lambda*Y), the critical exponent lambda* solving
m(lambda*) = 1, the Cramer rate function I(x), the moments of rectified
partial sums S_n+ = max(S_n, 0), and the total-variation discrepancy of
log-likelihood-ratio increments.

Conventions: normal kinds are parameterized by (mean, standard deviation),
not variance.  NormalLLR(delta) is Y ~ Normal(-delta^2/2, delta), the
log-likelihood-ratio increment for a standardized mean shift of size delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtri

from .errors import (
    DivergentMoment,
    NoConvergence,
    NoPositiveRoot,
    NotAnLLRModel,
    OutOfDomain,
    TooLarge,
)
from .special import norm_cdf, norm_pdf

__all__ = [
    "IncrementModel",
    "NormalLLR",
    "ShiftedNormal",
    "BernoulliPM",
    "DiscreteTable",
    "RateFunction",
    "parse_model",
]

_PROB_TOL = 1e-12
_ROOT_TOL = 1e-12
_GRID = 1e-12  # finite supports are keyed by the integers round(y / _GRID)
_PRUNE = 1e-300  # sparse sum laws and exact enumeration drop smaller masses
# widest lattice (in steps of the key gcd, 0 included) whose sum laws are
# dense arrays; wider ones are merged key by key.  No benchmark workload
# has a lattice near this width, so the value is not tuned.
_DENSE_MAX_WIDTH = 4096
_MAX_KEY = 2**63  # int64 keys, and every partial sum of them, stay below this
_MAX_EXPO = 700.0  # exp() of larger exponents is near the float64 limit
# up to exp(600), masses too small for float64 (or pruned below 1e-300)
# weigh less than 1e-39 each in E exp(lam * S_k+)
_SAFE_EXPO = 600.0


class IncrementModel:
    """Common interface of all increment kinds.

    Instances are immutable and all methods are pure functions of the
    instance and their arguments, so models are safe to share across
    threads.
    """

    # -- single-increment quantities ------------------------------------

    def mean(self) -> float:
        raise NotImplementedError

    def var(self) -> float:
        raise NotImplementedError

    def mgf(self, lam: float) -> float:
        """m(lambda) = E exp(lambda*Y); may return inf."""
        raise NotImplementedError

    def mgf_prime(self, lam: float) -> float:
        """E[Y exp(lambda*Y)]."""
        raise NotImplementedError

    def _mgf_second(self, lam: float) -> float:
        """E[Y^2 exp(lambda*Y)]."""
        raise NotImplementedError

    @property
    def mgf_domain_sup(self) -> float:
        """B = sup{lambda : m(lambda) < inf}.  All built-in kinds have
        normal or bounded support, hence B = inf."""
        return math.inf

    def prob_positive(self) -> float:
        """P(Y > 0)."""
        raise NotImplementedError

    @property
    def is_llr(self) -> bool:
        """True when Y is a log-likelihood-ratio increment (E exp(Y) = 1)."""
        return False

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF: increments distributed as Y from uniforms u in (0, 1).

        The only map from uniforms to increments; Monte Carlo output for a
        seed is fixed by it, so it must stay bit-identical across releases.
        Returns a new C-contiguous array of the shape of u.
        """
        raise NotImplementedError

    # -- critical exponent ----------------------------------------------

    def lambda_star(self) -> float:
        """Positive root of m(lambda) = 1, with |m(root) - 1| <= 1e-12.

        Raises NoPositiveRoot when the equation has no positive solution
        (mean(Y) >= 0, or Y never positive).
        """
        if self.mean() >= 0.0:
            raise NoPositiveRoot(
                f"mean(Y) = {self.mean():g} >= 0; m(lambda) = 1 has no "
                "positive root"
            )
        if self.prob_positive() == 0.0:
            raise NoPositiveRoot("P(Y > 0) = 0; m(lambda) < 1 for all lambda > 0")
        root = self._lambda_star_impl()
        residual = abs(self.mgf(root) - 1.0)
        if not residual <= _ROOT_TOL:
            raise NoConvergence(
                f"lambda* = {root!r} leaves |m(lambda*) - 1| = {residual:g} "
                f"above {_ROOT_TOL:g}"
            )
        return root

    def _lambda_star_impl(self) -> float:
        # Bracket: m is convex with m(0) = 1, m'(0) < 0 and m -> inf, so
        # the root is the unique positive point where m crosses 1 upward.
        hi = 1.0
        while self.mgf(hi) <= 1.0:
            hi *= 2.0
            if hi > 1e6:  # pragma: no cover - unreachable for valid models
                raise NoPositiveRoot("failed to bracket the root of m(lambda)=1")
        # keep lo strictly positive: m(0) = 1 is the trivial root
        lo = hi / 2.0
        while self.mgf(lo) >= 1.0:
            lo /= 2.0
        root = brentq(lambda t: self.mgf(t) - 1.0, lo, hi, xtol=1e-15, rtol=1e-15)
        return _polish_root(lambda t: self.mgf(t) - 1.0, self.mgf_prime, root)

    # -- rate function ---------------------------------------------------

    def rate_domain(self) -> tuple[float, float]:
        """Open interval (EY, A0) on which the rate function is defined."""
        raise NotImplementedError

    def tilt_var(self, lam: float) -> float:
        """Variance of Y under the exponential tilt by lam, which is the
        derivative of the tilted mean m'(lam)/m(lam)."""
        m = self.mgf(lam)
        m1 = self.mgf_prime(lam)
        return self._mgf_second(lam) / m - (m1 / m) ** 2

    def rate_function(self, x: float) -> tuple[float, float]:
        """Cramer rate function I(x) and its maximizer lambda(x).

        Solves E[Y exp(lam*Y)] / E[exp(lam*Y)] = x by monotone root search
        and returns (I(x), lambda(x)) with I(x) = lam*x - log m(lam).
        """
        lo, hi = self.rate_domain()
        if not lo < x < hi:
            raise OutOfDomain(f"x = {x:g} outside the rate domain ({lo:g}, {hi:g})")
        if x == self.mean():  # pragma: no cover - open-interval guard above
            return 0.0, 0.0

        def tilt_mean(lam: float) -> float:
            return self.mgf_prime(lam) / self.mgf(lam)

        # tilt_mean is strictly increasing with tilt_mean(0) = EY < x.
        a, b = 0.0, 1.0
        while tilt_mean(b) < x:
            a, b = b, 2.0 * b
        lam = brentq(lambda t: tilt_mean(t) - x, a, b, xtol=1e-15, rtol=1e-15)
        lam = _polish_root(lambda t: tilt_mean(t) - x, self.tilt_var, lam)
        rate = lam * x - math.log(self.mgf(lam))
        return max(rate, 0.0), lam

    # -- rectified partial sums ------------------------------------------

    def rectified_exp_seq(self, lam: float, n: int) -> np.ndarray:
        """Array of x_k = E exp(lam * S_k+) for k = 1..n."""
        raise NotImplementedError

    def rectified_exp_moment(self, lam: float, n: int) -> float:
        """E exp(lam * S_n+)."""
        if lam == 0.0:
            return 1.0
        return float(self.rectified_exp_seq(lam, n)[n - 1])

    def rectified_moment_seq(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Arrays of E S_k+ and E (S_k+)^2 for k = 1..n."""
        raise NotImplementedError

    def rectified_moments(self, n: int) -> tuple[float, float]:
        """(E S_n+, Var S_n+)."""
        m1, m2 = self.rectified_moment_seq(n)
        return float(m1[n - 1]), float(m2[n - 1] - m1[n - 1] ** 2)

    # -- discrepancy ------------------------------------------------------

    def tv_discrepancy(self) -> float:
        """D = E(1 - exp(Y))+ for log-likelihood-ratio increments.

        Equals the total-variation discrepancy between the default and
        disturbed distributions generating Y.
        """
        raise NotAnLLRModel(
            f"{type(self).__name__} increments are not log-likelihood ratios"
        )

    def one_minus_exp_pos_mean(self, lam: float) -> float:
        """E(1 - exp(lam*Y))+, the scaled discrepancy used by the bounds."""
        raise NotImplementedError

    # -- specification grammar --------------------------------------------

    def spec(self) -> str:
        """The model-grammar string parse_model() accepts."""
        raise NotImplementedError


def _polish_root(f, fprime, root: float) -> float:
    """One or two safeguarded Newton steps to push |f| to <= 1e-12."""
    for _ in range(3):
        fx = f(root)
        if abs(fx) <= _ROOT_TOL:
            return root
        d = fprime(root)
        if d == 0.0:  # pragma: no cover
            break
        root -= fx / d
    return root


# ---------------------------------------------------------------------------
# normal kinds
# ---------------------------------------------------------------------------


class _NormalBase(IncrementModel):
    """Shared closed forms for Y ~ Normal(loc, scale^2)."""

    loc: float
    scale: float

    def mean(self) -> float:
        return self.loc

    def var(self) -> float:
        return self.scale**2

    def mgf(self, lam: float) -> float:
        return math.exp(lam * self.loc + 0.5 * (lam * self.scale) ** 2)

    def mgf_prime(self, lam: float) -> float:
        return (self.loc + lam * self.scale**2) * self.mgf(lam)

    def prob_positive(self) -> float:
        return float(norm_cdf(self.loc / self.scale))

    def tilt_var(self, lam: float) -> float:
        return self.scale**2

    def quantile(self, u: np.ndarray) -> np.ndarray:
        # in place on ndtri's output; same bits as loc + scale * ndtri(u)
        z = ndtri(u)
        z *= self.scale
        z += self.loc
        return z

    def _lambda_star_impl(self) -> float:
        # m(lam) = 1  <=>  lam * loc + lam^2 scale^2 / 2 = 0.
        return -2.0 * self.loc / self.scale**2

    def rate_domain(self) -> tuple[float, float]:
        return self.loc, math.inf

    def rate_function(self, x: float) -> tuple[float, float]:
        lo, hi = self.rate_domain()
        if not lo < x < hi:
            raise OutOfDomain(f"x = {x:g} outside the rate domain ({lo:g}, inf)")
        lam = (x - self.loc) / self.scale**2
        return (x - self.loc) ** 2 / (2.0 * self.scale**2), lam

    def _sum_params(self, n) -> tuple[np.ndarray, np.ndarray]:
        k = np.arange(1, n + 1, dtype=float)
        return k * self.loc, np.sqrt(k) * self.scale

    def rectified_exp_seq(self, lam: float, n: int) -> np.ndarray:
        mu, sd = self._sum_params(n)
        expo = lam * mu + 0.5 * (lam * sd) ** 2
        if np.any(expo > _MAX_EXPO):
            raise DivergentMoment(
                f"exp moment overflows at lam = {lam:g}, n = {n}"
            )
        return norm_cdf(-mu / sd) + np.exp(expo) * norm_cdf(mu / sd + lam * sd)

    def rectified_moment_seq(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        mu, sd = self._sum_params(n)
        z = mu / sd
        m1 = mu * norm_cdf(z) + sd * norm_pdf(z)
        m2 = (mu**2 + sd**2) * norm_cdf(z) + mu * sd * norm_pdf(z)
        return m1, m2

    def one_minus_exp_pos_mean(self, lam: float) -> float:
        # E(1 - e^{lam Y}) 1{Y < 0}
        z = self.loc / self.scale
        expo = lam * self.loc + 0.5 * (lam * self.scale) ** 2
        return float(
            norm_cdf(-z) - math.exp(expo) * norm_cdf(-z - lam * self.scale)
        )


@dataclass(frozen=True)
class NormalLLR(_NormalBase):
    """Log-likelihood-ratio increment of a normal mean shift.

    Y ~ Normal(-delta^2/2, delta) where delta = |theta1 - theta0| / sigma
    is the standardized detectable difference.  Satisfies E exp(Y) = 1.
    """

    delta: float

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ValueError("delta must be positive")

    @property
    def loc(self) -> float:
        return -0.5 * self.delta**2

    @property
    def scale(self) -> float:
        return self.delta

    @property
    def is_llr(self) -> bool:
        return True

    def _lambda_star_impl(self) -> float:
        return 1.0

    def tv_discrepancy(self) -> float:
        return float(2.0 * norm_cdf(0.5 * self.delta) - 1.0)

    def spec(self) -> str:
        return f"normal-llr:delta={self.delta:.17g}"


@dataclass(frozen=True)
class ShiftedNormal(_NormalBase):
    """Y ~ Normal(a, sigma^2), parameterized by mean and standard deviation."""

    a: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")

    @property
    def loc(self) -> float:
        return self.a

    @property
    def scale(self) -> float:
        return self.sigma

    def spec(self) -> str:
        return f"shifted-normal:a={self.a:.17g},sigma={self.sigma:.17g}"


# ---------------------------------------------------------------------------
# discrete kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Lattice:
    """The atoms with p > 0 of a finite support, keyed by k = round(y / _GRID).

    The keys are lo + g*i for i = 0..span, and d divides every key; keys
    and their sums are exact for integer and half-integer supports.
    """

    keys: np.ndarray  # int64, in support order
    probs: np.ndarray
    lo: int
    hi: int
    g: int  # gcd of the differences keys - lo
    d: int  # gcd of the keys themselves

    @property
    def span(self) -> int:
        """Steps of g from the lowest key to the highest."""
        return (self.hi - self.lo) // self.g

    @property
    def width(self) -> int:
        """Steps of d from min(lo, 0) to max(hi, 0): the grid that holds
        one increment together with 0."""
        return (max(self.hi, 0) - min(self.lo, 0)) // self.d

    def check_horizon(self, n: int) -> None:
        """Raise TooLarge when n-step key sums could leave int64."""
        if n * max(self.hi, -self.lo) >= _MAX_KEY:
            raise TooLarge(
                f"n = {n} steps of support values up to "
                f"{max(self.hi, -self.lo) * _GRID:g} overflow the 1e-12 key grid"
            )

    def tilted(self, lam: float) -> tuple[Lattice, float]:
        """The step law tilted by lam, p e^(lam y) / m(lam), and log m(lam),
        with y = key * _GRID as in the sum laws."""
        logw = np.log(self.probs) + lam * (self.keys * _GRID)
        top = logw.max()
        w = np.exp(logw - top)
        total = w.sum()
        return replace(self, probs=w / total), float(top + math.log(total))


def _merge_atoms(keys: tuple[np.ndarray, ...], mass: np.ndarray):
    """Drop masses below _PRUNE, then sum the masses of equal key tuples.

    Returns the distinct key tuples in np.lexsort order (the last array is
    the primary key) and their total masses.
    """
    keep = mass >= _PRUNE
    if not keep.all():
        keys = tuple(k[keep] for k in keys)
        mass = mass[keep]
    order = np.lexsort(keys)
    keys = tuple(k[order] for k in keys)
    same = np.ones(mass.size, dtype=bool)  # key tuple equals the previous one
    same[0] = False
    for k in keys:
        same[1:] &= k[1:] == k[:-1]
    starts = np.flatnonzero(~same)
    return tuple(k[starts] for k in keys), np.add.reduceat(mass[order], starts)


def _sum_laws(lat: Lattice, n: int):
    """Laws of S_1..S_n on lat: dense when the lattice is at most
    _DENSE_MAX_WIDTH steps wide, else sparse."""
    lat.check_horizon(n)
    if lat.width <= _DENSE_MAX_WIDTH:
        return _dense_sum_laws(lat, n)
    return _sparse_sum_laws(lat, n)


def _dense_sum_laws(lat: Lattice, n: int):
    # S_k is a pmf over k*lo + g*i, i = 0..span*k, one convolution per step
    step = np.bincount((lat.keys - lat.lo) // lat.g, weights=lat.probs,
                       minlength=lat.span + 1)
    # the values of every S_k are strided views of one grid of multiples
    # of d, so no step computes values; the grid counts in units of d, so
    # no entry exceeds a partial sum and its length is exact in float64
    base = n * min(lat.lo, 0)
    grid = lat.d * np.arange(base // lat.d, base // lat.d + n * lat.width + 1,
                             dtype=np.int64) * _GRID
    grid.setflags(write=False)
    stride = lat.g // lat.d
    probs = np.ones(1)
    for k in range(1, n + 1):
        probs = np.convolve(probs, step)
        start = (k * lat.lo - base) // lat.d
        yield grid[start : start + stride * lat.span * k + 1 : stride], probs


def _sparse_sum_laws(lat: Lattice, n: int):
    keys = np.zeros(1, dtype=np.int64)
    probs = np.ones(1)
    for _ in range(n):
        (keys,), probs = _merge_atoms(
            ((keys[:, None] + lat.keys).ravel(),), np.outer(probs, lat.probs).ravel()
        )
        yield keys * _GRID, probs


class _DiscreteBase(IncrementModel):
    """Shared exact-sum machinery for finite-support kinds."""

    @property
    def support(self) -> tuple[float, ...]:
        raise NotImplementedError

    @property
    def probs(self) -> tuple[float, ...]:
        raise NotImplementedError

    def mean(self) -> float:
        return float(np.dot(self.support, self.probs))

    def var(self) -> float:
        s = np.asarray(self.support)
        return float(np.dot(s * s, self.probs) - self.mean() ** 2)

    def mgf(self, lam: float) -> float:
        return float(np.dot(np.exp(lam * np.asarray(self.support)), self.probs))

    def mgf_prime(self, lam: float) -> float:
        s = np.asarray(self.support)
        return float(np.dot(s * np.exp(lam * s), self.probs))

    def _mgf_second(self, lam: float) -> float:
        s = np.asarray(self.support)
        return float(np.dot(s * s * np.exp(lam * s), self.probs))

    def prob_positive(self) -> float:
        return float(sum(p for y, p in zip(self.support, self.probs) if y > 0))

    def quantile(self, u: np.ndarray) -> np.ndarray:
        # Atom index = #{j < k - 1 : cum[j] <= u}, which equals
        # min(searchsorted(cum, u, "right"), k - 1) for any support order;
        # leaving out cum[-1] covers cum[-1] < 1 from rounding.
        support = np.asarray(self.support)
        cum = np.cumsum(self.probs)[:-1]
        idx = np.zeros(np.shape(u), dtype=np.min_scalar_type(len(cum)))
        for c in cum:
            idx += u >= c
        return support[idx]

    def rate_domain(self) -> tuple[float, float]:
        # A0 = lim of the tilted mean as lambda -> inf = max(support).
        return self.mean(), max(self.support)

    def lattice(self) -> Lattice:
        """The integer-key lattice of the atoms with positive probability."""
        probs = np.asarray(self.probs, dtype=float)
        pos = probs > 0.0
        with np.errstate(over="ignore"):  # inf keys are refused below
            scaled = np.rint(np.asarray(self.support, dtype=float)[pos] / _GRID)
        if np.abs(scaled).max() >= _MAX_KEY:
            raise TooLarge(
                f"support values up to {np.abs(scaled).max() * _GRID:g} "
                "overflow the 1e-12 key grid"
            )
        keys = scaled.astype(np.int64)
        lo, hi = int(keys.min()), int(keys.max())
        d = int(np.gcd.reduce(keys)) or 1
        g = int(np.gcd.reduce(keys - lo)) or d
        return Lattice(keys=keys, probs=probs[pos], lo=lo, hi=hi, g=g, d=d)

    def sum_distributions(self, n: int):
        """Exact laws of S_1..S_n as (values, probs) array pairs.

        Values ascend and are keys * _GRID.  Lattices at most
        _DENSE_MAX_WIDTH steps wide give dense pmfs that may hold zero
        masses, read-only values and no pruning; wider ones give only the
        atoms with mass >= 1e-300.
        """
        yield from _sum_laws(self.lattice(), n)

    def rectified_exp_seq(self, lam: float, n: int) -> np.ndarray:
        lat = self.lattice()
        out = np.empty(n)
        if lam * max(lat.hi, 0) * _GRID * n <= _SAFE_EXPO:
            for k, (vals, probs) in enumerate(self.sum_distributions(n)):
                out[k] = np.dot(np.exp(lam * np.maximum(vals, 0.0)), probs)
            return out
        # Larger lam * S_k: x_k = P(S_k <= 0) + m(lam)^k Q(S_k > 0), where
        # Q is the law of S_k under steps tilted by lam.  exp(lam * S_k) is
        # never formed: where it overflows, the masses it would weigh
        # underflow, while Q keeps those atoms at the size they contribute.
        tilted, log_m = lat.tilted(lam)
        laws = zip(self.sum_distributions(n), _sum_laws(tilted, n))
        for k, ((vals, probs), (tvals, tprobs)) in enumerate(laws, start=1):
            x = float(probs[: vals.searchsorted(0.0, "right")].sum())
            above = tprobs[tvals.searchsorted(0.0, "right") :].sum()
            if above > 0.0:
                expo = k * log_m + math.log(above)
                if expo > _MAX_EXPO:
                    raise DivergentMoment(
                        f"E exp(lam * S_{k}+) overflows at lam = {lam:g}"
                    )
                x += math.exp(expo)
            out[k - 1] = x
        return out

    def rectified_moment_seq(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        m1 = np.empty(n)
        m2 = np.empty(n)
        for k, (vals, probs) in enumerate(self.sum_distributions(n)):
            pos = np.maximum(vals, 0.0)
            m1[k] = np.dot(pos, probs)
            m2[k] = np.dot(pos * pos, probs)
        return m1, m2

    def one_minus_exp_pos_mean(self, lam: float) -> float:
        s = np.asarray(self.support)
        return float(np.dot(np.maximum(1.0 - np.exp(lam * s), 0.0), self.probs))


@dataclass(frozen=True)
class BernoulliPM(_DiscreteBase):
    """Two-point increment Y in {+1, -1} with P(Y = +1) = p."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie strictly inside (0, 1)")

    @property
    def support(self) -> tuple[float, ...]:
        return (1.0, -1.0)

    @property
    def probs(self) -> tuple[float, ...]:
        return (self.p, 1.0 - self.p)

    @property
    def is_llr(self) -> bool:
        # E e^Y = p e + (1 - p)/e equals 1 exactly at p = 1/(1 + e).
        return abs(self.mgf(1.0) - 1.0) <= 1e-9

    def _lambda_star_impl(self) -> float:
        # p z^2 - z + (1 - p) = 0 with z = e^lambda; roots z = 1, (1-p)/p.
        return math.log((1.0 - self.p) / self.p)

    def tv_discrepancy(self) -> float:
        if not self.is_llr:
            raise NotAnLLRModel(
                f"BernoulliPM(p={self.p:g}) has E exp(Y) != 1"
            )
        return self.one_minus_exp_pos_mean(1.0)

    def spec(self) -> str:
        return f"bernoulli-pm:p={self.p:.17g}"


@dataclass(frozen=True)
class DiscreteTable(_DiscreteBase):
    """Finite-support increment given by an explicit value/probability table."""

    values: tuple[float, ...]
    weights: tuple[float, ...]
    llr: bool = False

    def __post_init__(self):
        if len(self.values) != len(self.weights) or not self.values:
            raise ValueError("support and probabilities must match and be nonempty")
        if len(set(self.values)) != len(self.values):
            raise ValueError("support values must be distinct")
        if any(not 0.0 <= w <= 1.0 for w in self.weights):
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(sum(self.weights) - 1.0) > _PROB_TOL:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        if self.llr and abs(self.mgf(1.0) - 1.0) > 1e-9:
            raise ValueError("llr flag requires E exp(Y) = 1 within 1e-9")

    @property
    def support(self) -> tuple[float, ...]:
        return self.values

    @property
    def probs(self) -> tuple[float, ...]:
        return self.weights

    @property
    def is_llr(self) -> bool:
        return self.llr

    def tv_discrepancy(self) -> float:
        if not self.llr:
            raise NotAnLLRModel("table not flagged as log-likelihood ratios")
        return self.one_minus_exp_pos_mean(1.0)

    def spec(self) -> str:
        y = ";".join(f"{v:.17g}" for v in self.values)
        p = ";".join(f"{w:.17g}" for w in self.weights)
        return f"table:y={y},p={p}" + (",llr" if self.llr else "")


# ---------------------------------------------------------------------------
# rate-function view
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateFunction:
    """Cramer rate function of an increment model as a callable object."""

    model: IncrementModel

    @property
    def domain(self) -> tuple[float, float]:
        return self.model.rate_domain()

    def __call__(self, x: float) -> float:
        return self.model.rate_function(x)[0]

    def maximizer(self, x: float) -> float:
        """lambda(x), the tilt achieving the supremum at x."""
        return self.model.rate_function(x)[1]


# ---------------------------------------------------------------------------
# model-specification grammar
# ---------------------------------------------------------------------------


def parse_model(text: str) -> IncrementModel:
    """Parse the shared model grammar.

    Accepted forms:
      normal-llr:delta=<float>
      shifted-normal:a=<float>,sigma=<float>
      bernoulli-pm:p=<float>
      table:y=<v1;v2;...>,p=<p1;p2;...>[,llr]
    """
    kind, _, body = text.strip().partition(":")
    if not body:
        raise ValueError(f"malformed model spec {text!r}")
    flags = []
    fields = {}
    for part in body.split(","):
        if "=" in part:
            key, val = part.split("=", 1)
            fields[key.strip()] = val.strip()
        else:
            flags.append(part.strip())
    try:
        if kind == "normal-llr":
            return NormalLLR(delta=float(fields["delta"]))
        if kind == "shifted-normal":
            return ShiftedNormal(a=float(fields["a"]), sigma=float(fields["sigma"]))
        if kind == "bernoulli-pm":
            return BernoulliPM(p=float(fields["p"]))
        if kind == "table":
            values = tuple(float(v) for v in fields["y"].split(";"))
            weights = tuple(float(w) for w in fields["p"].split(";"))
            return DiscreteTable(values=values, weights=weights, llr="llr" in flags)
    except KeyError as exc:
        raise ValueError(f"model spec {text!r} is missing field {exc}") from None
    raise ValueError(f"unknown model kind {kind!r}")


@lru_cache(maxsize=None)
def cached_lambda_star(model: IncrementModel) -> float:
    """Memoized lambda* for frozen (hashable) models."""
    return model.lambda_star()
