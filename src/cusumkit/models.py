"""Increment distributions and everything derived from a single increment.

An increment model describes the law of one step Y of the random walk that
drives the CUSUM recursion W_{n+1} = max(W_n + Y_{n+1}, 0).  The model owns
its MGF m(lambda) = E exp(lambda*Y), the critical exponent lambda* solving
m(lambda*) = 1, the moments of rectified partial sums S_n+ = max(S_n, 0),
the normal law of S_n where it has one (the segment lower bounds of
bounds.py read it), and the scaled discrepancy E(1 - exp(lambda*Y))+ of
the bounds, which at lambda = 1 is the total-variation discrepancy D of
log-likelihood-ratio increments.

Finite supports take their rectified sums E f(S_k), k = 1..n, from one engine,
_sum_law_means.  On a dense lattice it works in blocks of b = _BLOCK_WIDTH //
(span + 1) steps (see _block_steps): per weight f, a correlation of the pmf of
S_k0 with f gives the terms every S_k0+j of the block needs, a small matvec
with the pmfs of S_1..S_b finishes them, and one convolution moves the pmf on
by b steps.  Its weights are bounded: x_k = m(lam)^k + E(1 - exp(lam S_k))+
for lam >= 0.  The per-step loops it replaced are the test oracles
rectified_exp_seq_loop and rectified_moment_seq_loop (tests/_oracles.py).

Conventions: normal kinds are parameterized by (mean, standard deviation),
not variance.  NormalLLR(delta) is Y ~ Normal(-delta^2/2, delta), the
log-likelihood-ratio increment for a standardized mean shift of size delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from functools import lru_cache

import numpy as np
from scipy.special import erfcx, ndtr, ndtri

from . import rng
from .errors import (
    DivergentMoment,
    NoConvergence,
    NoPositiveRoot,
    NotSupportedModel,
    TooLarge,
)

__all__ = [
    "IncrementModel",
    "NormalLLR",
    "ShiftedNormal",
    "BernoulliPM",
    "DiscreteTable",
    "Spec",
    "parse_model",
]

_PROB_TOL = 1e-12
_ROOT_TOL = 1e-12
_EPS = float(np.finfo(float).eps)
_GRID = 1e-12  # finite supports are keyed by the integers round(y / _GRID)
_PRUNE = 1e-300  # sparse sum laws and exact enumeration drop smaller masses
# widest lattice (in steps of the key gcd, 0 included) whose sum laws, and
# the rectified sums of _sum_law_means, run on dense arrays; wider ones are
# merged key by key, one step at a time.  No benchmark workload has a
# lattice near this width, so the value is not tuned.
_DENSE_MAX_WIDTH = 4096
# lattice points that one block of the dense sum-law engine covers: a block
# runs _BLOCK_WIDTH // (span + 1) steps (BernoulliPM 64, a five-point
# integer table 25), so lattices 128 or more steps wide take one step per
# block; _block_steps gives the rule in full
_BLOCK_WIDTH = 128
# most atoms the sparse sum laws of S_1..S_n may hold in all, by the count
# of _sparse_sum_laws; a generic 3-atom support reaches it near n = 380,
# after about 2 s on a 2-core x86-64 host
_SPARSE_MAX_ATOMS = 10**7
_MAX_KEY = 2**63  # int64 keys, and every partial sum of them, stay below this
# draws per slice of the finite-support inverse CDF
_QUANTILE_SLICE = 1 << 16
# values of f one root search may take; the test suite's lambda* searches
# take at most 52 (51 to 55 in random hypothesis runs), its own functions 69
_MAX_EVALS = 100
_MAX_EXPO = 700.0  # exp() of larger exponents is near the float64 limit
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _norm_pdf(x):
    """Standard normal density."""
    return _INV_SQRT_2PI * np.exp(-0.5 * np.square(x))


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

    def prob_positive(self) -> float:
        """P(Y > 0)."""
        raise NotImplementedError

    @property
    def can_be_positive(self) -> bool:
        """P(Y > 0) > 0, decided exactly rather than from a float that may
        underflow."""
        return self.prob_positive() > 0.0

    @property
    def is_llr(self) -> bool:
        """True when Y is a log-likelihood-ratio increment: |E exp(Y) - 1|
        <= 1e-9, whatever the kind of model."""
        return abs(self.mgf(1.0) - 1.0) <= 1e-9

    def quantile(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Inverse CDF: increments distributed as Y from uniforms u in (0, 1).

        Monte Carlo output for a seed is fixed by this map of the Philox
        uniforms, so it must stay bit-identical across releases; finite
        supports reach the same bits from the raw Philox words
        (_DiscreteBase.from_words).  Without ``out``, returns a new
        C-contiguous array of the shape of u.  With ``out``, a float64
        array of that shape (possibly strided, or u itself), writes the
        increments into it and returns it; nothing outside ``out`` is
        written, and the values are those of ``quantile(u)`` bit for bit.
        """
        raise NotImplementedError

    def increments_block(self, seed: int, first_rep: int, reps: int,
                         n: int) -> np.ndarray:
        """Increments of Monte Carlo replications [first_rep, first_rep +
        reps) of a seed, shape (reps, n), written over one Philox block.

        This is ``quantile(u, out=u)`` of ``rng.uniform_block(seed,
        first_rep, reps, n)``, so the result is a view whose rows are not
        contiguous unless n is a multiple of 4.
        """
        u = rng.uniform_block(seed, first_rep, reps, n)
        return self.quantile(u, out=u)

    # -- critical exponent ----------------------------------------------

    def lambda_star(self) -> float:
        """Positive root of m(lambda) = 1, with |m(root) - 1| <= 1e-12 (for
        finite supports, with the sum p * expm1(root * y) within its own
        rounding error of 0).

        Raises NoPositiveRoot when the equation has no positive solution
        (mean(Y) >= 0, or Y never positive).
        """
        if self.mean() >= 0.0:
            raise NoPositiveRoot(
                f"mean(Y) = {self.mean():g} >= 0; m(lambda) = 1 has no "
                "positive root"
            )
        if not self.can_be_positive:
            raise NoPositiveRoot("P(Y > 0) = 0; m(lambda) < 1 for all lambda > 0")
        root = self._lambda_star_impl()
        form, residual, tol = self._root_residual(root)
        if not residual <= tol:
            raise NoConvergence(
                f"lambda* = {root!r} leaves {form} = {residual:g} above {tol:g}"
            )
        return root

    def _root_residual(self, root: float) -> tuple[str, float, float]:
        """The form _lambda_star_impl solved, its |value| at root and the
        bound that value must keep."""
        return "|m(lambda*) - 1|", abs(self.mgf(root) - 1.0), _ROOT_TOL

    def _lambda_star_impl(self) -> float:
        """The positive root of m(lambda) = 1, or of the form of it that
        _root_residual names, given mean(Y) < 0 < P(Y > 0)."""
        raise NotImplementedError

    def llr_delta(self) -> float | None:
        """delta of the NormalLLR whose law lambda* Y has, for normal kinds:
        lambda* scale.  None for the others."""
        return None

    # -- partial sums -----------------------------------------------------

    def _sum_params(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Arrays of the mean and standard deviation of S_k, k = 1..n, for
        kinds whose S_k is normal; NotSupportedModel for the others."""
        raise NotSupportedModel(
            f"S_k of {type(self).__name__} increments has no normal law"
        )

    def rectified_exp_seq(self, lam: float, n: int) -> np.ndarray:
        """Array of x_k = E exp(lam * S_k+), k = 1..n; ValueError for a NaN or inf lam."""
        raise NotImplementedError

    def rectified_moment_seq(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Arrays of E S_k+ and E (S_k+)^2 for k = 1..n."""
        raise NotImplementedError

    def lattice(self) -> Lattice:
        """The integer-key lattice of a finite support (exact enumeration)."""
        raise TypeError("exact enumeration requires a finite-support model")

    # -- discrepancy ------------------------------------------------------

    def one_minus_exp_pos_mean(self, lam: float) -> float:
        """E(1 - exp(lam*Y))+, the scaled discrepancy used by the bounds."""
        raise NotImplementedError

    # -- specification grammar --------------------------------------------

    def spec(self) -> str:
        """The model-grammar string parse_model() accepts."""
        raise NotImplementedError


def _check_mgf_args(lam: float, n: int) -> None:
    if math.isnan(lam):
        raise ValueError(f"lambda must be a number, got {lam:g}")
    if math.isinf(lam):
        raise ValueError(f"lambda must be finite, got {lam:g}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")


def _newton_root(f, fprime, lo: float, hi: float) -> float:
    """The root of an increasing f in [lo, hi], f(lo) <= 0 <= f(hi); its one
    caller is the lambda* search of finite supports.

    Each step moves one end to the Newton step from the end with the
    smaller |f| (to the next float, if that step rounds to 0), or bisects,
    at sqrt(lo hi) if 0 < 4 lo < hi, when the step is not finite, leaves
    the bracket, or the bracket has not halved in two steps.  The end with
    the smaller |f| is returned at an exact zero or once no float lies
    between the ends.  NaN values, ends of one sign and _MAX_EVALS values
    of f short of that raise NoConvergence.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is +-inf
        flo, fhi = float(f(lo)), float(f(hi))
        widths = [math.inf, math.inf]  # of the bracket before each step
        while flo < 0.0 < fhi and lo < 0.5 * (lo + hi) < hi:
            if len(widths) == _MAX_EVALS:
                raise NoConvergence(f"root search: [{lo!r}, {hi!r}] holds floats "
                                    f"after {_MAX_EVALS} values of f")
            x, fx, far = (lo, flo, hi) if -flo < fhi else (hi, fhi, lo)
            d = float(fprime(x))
            t = x - fx / d if d > 0.0 else math.nan
            if t == x:
                t = math.nextafter(x, far)
            if not (lo < t < hi and hi - lo <= 0.5 * widths[-2]):
                t = math.sqrt(lo) * math.sqrt(hi) if 0 < 4 * lo < hi else 0.5 * (lo + hi)
            widths.append(hi - lo)
            ft = float(f(t))
            if ft < 0.0:
                lo, flo = t, ft
            else:
                hi, fhi = t, ft
    if not flo <= 0.0 <= fhi:  # a NaN, or ends of one sign
        raise NoConvergence(f"root search: f({lo!r}) = {flo:g} and f({hi!r}) = {fhi:g} "
                            "bracket no root")
    return lo if -flo < fhi else hi


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
        try:
            return math.exp(lam * self.loc + 0.5 * (lam * self.scale) ** 2)
        except OverflowError:
            return math.inf

    def mgf_prime(self, lam: float) -> float:
        return (self.loc + lam * self.scale**2) * self.mgf(lam)

    def prob_positive(self) -> float:
        return float(ndtr(self.loc / self.scale))

    @property
    def can_be_positive(self) -> bool:
        # a normal law charges (0, inf) even where Phi(loc / scale) underflows
        return True

    def quantile(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # in place on ndtri's output; same bits as loc + scale * ndtri(u)
        z = ndtri(u, out=out)
        z *= self.scale
        z += self.loc
        return z

    def _lambda_star_impl(self) -> float:
        # m(lam) = 1  <=>  lam * loc + lam^2 scale^2 / 2 = 0.
        return -2.0 * self.loc / self.scale**2

    def llr_delta(self) -> float:
        # lambda* Y ~ N(lambda* loc, (lambda* scale)^2), and lambda* loc =
        # -(lambda* scale)^2 / 2
        return self.lambda_star() * self.scale

    def _sum_params(self, n) -> tuple[np.ndarray, np.ndarray]:
        k = np.arange(1, n + 1, dtype=float)
        return k * self.loc, np.sqrt(k) * self.scale

    def rectified_exp_seq(self, lam: float, n: int) -> np.ndarray:
        _check_mgf_args(lam, n)
        mu, sd = self._sum_params(n)
        z = mu / sd
        with np.errstate(over="ignore", invalid="ignore"):  # mended below
            a = z + lam * sd
            expo = lam * mu + 0.5 * (lam * sd) ** 2
            x = ndtr(-z) + np.exp(expo) * ndtr(a)
            over = ~(expo <= _MAX_EXPO)  # past it, or NaN from -inf + inf
            if lam > 0.0 and over.any():
                raise DivergentMoment(f"exp moment overflows at lam = {lam:g}, n = {n}")
            # there lam < 0, so a < 0, and exp(expo) Phi(a) = erfcx(-a / sqrt 2)
            # exp(-z^2 / 2) / 2, whose factors lie in [0, 1]
            x[over] = (ndtr(-z[over])
                       + 0.5 * erfcx(-a[over] / math.sqrt(2.0)) * np.exp(-0.5 * z[over] ** 2))
        return x

    def rectified_moment_seq(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        mu, sd = self._sum_params(n)
        z = mu / sd
        with np.errstate(over="ignore"):  # z**2 = inf is a density of 0
            cdf, pdf = ndtr(z), _norm_pdf(z)
        # where both underflow S_k+ is 0 in float64, and mu**2 may be inf
        live = (cdf > 0.0) | (pdf > 0.0)
        mu, sd, cdf, pdf = mu[live], sd[live], cdf[live], pdf[live]
        m1 = np.zeros(n)
        m2 = np.zeros(n)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            m1[live] = mu * cdf + sd * pdf
            direct = (mu**2 + sd**2) * cdf + mu * sd * pdf
            # mu**2 + sd**2 can overflow where the moment is a float: there,
            # and only there (other entries keep their bits), scale by cdf
            # first
            scaled = mu * (mu * cdf) + sd * (sd * cdf) + mu * (sd * pdf)
            m2[live] = np.where(np.isfinite(direct), direct, scaled)
        bad = ~(np.isfinite(m1) & np.isfinite(m2))
        if bad.any():
            raise DivergentMoment(
                f"E S_k+ or E (S_k+)^2 overflows at k = {bad.argmax() + 1} "
                f"for {self.spec()}"
            )
        return m1, m2

    def one_minus_exp_pos_mean(self, lam: float) -> float:
        # E(1 - e^{lam Y}) 1{Y < 0}
        z = self.loc / self.scale
        expo = lam * self.loc + 0.5 * (lam * self.scale) ** 2
        return float(
            ndtr(-z) - math.exp(expo) * ndtr(-z - lam * self.scale)
        )


@dataclass(frozen=True)
class NormalLLR(_NormalBase):
    """Log-likelihood-ratio increment of a normal mean shift.

    Y ~ Normal(-delta^2/2, delta) where delta = |theta1 - theta0| / sigma
    is the standardized detectable difference.  Satisfies E exp(Y) = 1.
    """

    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta:g}")
        if math.isinf(self.delta * self.delta):
            raise ValueError(f"delta must have a finite square, got {self.delta:g}")

    @property
    def loc(self) -> float:
        return -0.5 * self.delta**2

    @property
    def scale(self) -> float:
        return self.delta

    def _lambda_star_impl(self) -> float:
        return 1.0

    def spec(self) -> str:
        return f"normal-llr:delta={self.delta:.17g}"


@dataclass(frozen=True)
class ShiftedNormal(_NormalBase):
    """Y ~ Normal(a, sigma^2), parameterized by mean and standard deviation."""

    a: float
    sigma: float

    def __post_init__(self):
        if not math.isfinite(self.a):
            raise ValueError(f"a must be finite, got {self.a:g}")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma:g}")
        if math.isinf(self.sigma * self.sigma):
            raise ValueError(f"sigma must have a finite square, got {self.sigma:g}")

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

    def mgf_powers(self, lam: float, n: int) -> np.ndarray:
        """m(lam)^k, k = 1..n, m(lam) = sum p e^(lam y) with y = key * _GRID:
        m, summed in 25-digit decimals, is m_hi (1 + r), m_hi a double and
        |r| <= eps / 2, and np.power(m_hi, k) exp(k r) is within about an ulp
        (np.power of m_hi alone errs by up to k eps / 2).  DivergentMoment
        from the first k with k log m > _MAX_EXPO."""
        with localcontext(Context(prec=25, traps=[])):
            m = sum(Decimal(p) * (Decimal(lam) * Decimal(y)).exp()
                    for p, y in zip(self.probs.tolist(), (self.keys * _GRID).tolist()))
            m_hi = float(m)
            # r is 0 where m_hi is subnormal or 0 (m^k ~ 0) or inf (refused)
            r = float(m / Decimal(m_hi) - 1) if 2.0**-1022 <= m_hi < math.inf else 0.0
        k = np.arange(1, n + 1)
        over = k * math.log(max(m_hi, 1.0)) > _MAX_EXPO
        if over.any():
            raise DivergentMoment(f"E exp(lam * S_{over.argmax() + 1}+) overflows "
                                  f"at lam = {lam:g}")
        return np.power(m_hi, k) * np.exp(k * r)


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


def _dense(lat: Lattice, n: int) -> bool:
    """Whether the sum laws of n steps on lat run on dense arrays: when the
    lattice is at most _DENSE_MAX_WIDTH steps wide.  Raises TooLarge first
    when their keys could leave int64."""
    lat.check_horizon(n)
    return lat.width <= _DENSE_MAX_WIDTH


def _sum_laws(lat: Lattice, n: int):
    """Laws of S_1..S_n on lat, dense or sparse as _dense decides."""
    return _dense_sum_laws(lat, n) if _dense(lat, n) else _sparse_sum_laws(lat, n)


def _step_pmf(lat: Lattice) -> np.ndarray:
    """The pmf of one step over lo + g*i, i = 0..span."""
    return np.bincount((lat.keys - lat.lo) // lat.g, weights=lat.probs,
                       minlength=lat.span + 1)


def _value_planes(lat: Lattice, n: int) -> tuple[np.ndarray, int]:
    """The values of the multiples of d from n*min(lo, 0) to n*max(hi, 0),
    as read-only planes[r, m] = the value of grid index r + (g/d)*m, and
    the key of the first.

    The values of S_k, k <= n, are one contiguous slice of one plane:
    planes[r, q : q + span*k + 1] with (q, r) = divmod((k*lo - base) // d,
    g // d).  The grid counts in units of d, so no entry exceeds a partial
    sum, and the last column repeats the last value where the grid runs
    out.
    """
    base = n * min(lat.lo, 0)
    stride = lat.g // lat.d
    cols = -(-(n * lat.width + 1) // stride)
    index = np.arange(stride)[:, None] + stride * np.arange(cols)
    planes = lat.d * (base // lat.d + np.minimum(index, n * lat.width)) * _GRID
    planes.setflags(write=False)
    return planes, base


def _dense_sum_laws(lat: Lattice, n: int):
    # S_k is a pmf over k*lo + g*i, i = 0..span*k, one convolution per step
    step = _step_pmf(lat)
    planes, base = _value_planes(lat, n)
    probs = np.ones(1)
    for k in range(1, n + 1):
        probs = np.convolve(probs, step)
        q, r = divmod((k * lat.lo - base) // lat.d, planes.shape[0])
        yield planes[r, q : q + probs.size], probs


def _sum_law_means(lat: Lattice, n: int, weights) -> np.ndarray:
    """E f(S_k) for k = 1..n, one row per function f in weights.

    Each f maps an array of values to their weights, which must be bounded
    (one that overflows where P(S_k = v) underflows gives NaN).  Dense
    lattices (see _dense) run the blocked engine; wider ones take one dot
    product per step with the sparse laws.
    """
    if _dense(lat, n):
        return _dense_sum_law_means(lat, n, weights)
    out = np.empty((len(weights), n))
    for k, (vals, probs) in enumerate(_sparse_sum_laws(lat, n)):
        for r, f in enumerate(weights):
            out[r, k] = np.dot(f(vals), probs)
    return out


def _block_steps(lat: Lattice) -> int:
    """Steps per block of _dense_sum_law_means: _BLOCK_WIDTH // (span + 1).

    The grid offsets j*lo/d of a block's steps fall into P residue classes
    mod g/d, and each class reads its own correlation over the whole
    block, so a step costs about P*(span + 1) correlation terms.  When
    P*P exceeds the block, a class holds fewer than P of its steps, and
    one step per block (one convolution and one correlation of length 1,
    a dot product) costs less.
    """
    stride = lat.g // lat.d
    steps = max(1, _BLOCK_WIDTH // (lat.span + 1))
    return 1 if (stride // math.gcd(lat.lo // lat.d, stride)) ** 2 > steps else steps


def _dense_sum_law_means(lat: Lattice, n: int, weights) -> np.ndarray:
    """E f(S_k) on a dense lattice, b = _block_steps(lat) steps per block.

    Each f is tabulated once on the value planes.  A block starts from the
    pmf p of S_k0.  Per f, one correlation per residue class gives
    c[e] = sum_i p[i] f(k0*lo + g*i + e) at the offsets e = j*lo + g*u the
    block needs; E f(S_{k0+j}) = sum_u T_j[u] c[j*lo + g*u], j = 0..b-1, is
    then one small matvec with the pmfs T_j of S_j, built once; and one
    convolution gives the pmf p * T_b of S_{k0+b}.  With b = 1 this is one
    dot product and one convolution per step.  The correlations skip the
    terms where f is 0.
    """
    out = np.empty((len(weights), n))
    if n == 0:
        return out
    planes, base = _value_planes(lat, n)
    stride = planes.shape[0]
    tables = [f(planes) for f in weights]
    # the first and last column where each plane of each f is not 0: the
    # correlations skip the rest
    bounds = []
    for table in tables:
        live = table != 0.0
        found = live.any(axis=1)
        first = np.where(found, live.argmax(axis=1), table.shape[1])
        last = np.where(found, table.shape[1] - 1 - live[:, ::-1].argmax(axis=1), -1)
        bounds.append(list(zip(first.tolist(), last.tolist())))
    step = _step_pmf(lat)
    rows = min(_block_steps(lat), n)
    laws = [np.ones(1)]  # laws[j] is the pmf of S_j
    for _ in range(rows):
        laws.append(np.convolve(laws[-1], step))
    sums = np.zeros((rows, 1, (rows - 1) * lat.span + 1))  # T_j as 1-row matrices
    for j in range(rows):
        sums[j, 0, : laws[j].size] = laws[j]
    probs = laws[1]
    for k0 in range(1, n + 1, rows):
        m = min(rows, n + 1 - k0)
        if k0 == 1 or m < rows:
            groups, index = _block_plan(lat, m, sums.shape[2])
        start = (k0 * lat.lo - base) // lat.d  # grid index of min S_k0
        for row, table, nz in zip(out, tables, bounds):
            parts = []
            for t, first, count in groups:
                shift, r = divmod(start + t, stride)
                i0 = shift + first
                # c[e] = sum_i p[i] table[r, i0 + e + i] for e < count, over
                # the i where some table[r, i0 + e + i] is not 0
                lo = max(0, nz[r][0] - i0 - count + 1)
                hi = min(probs.size, nz[r][1] - i0 + 1)
                if lo < hi:
                    view = table[r, i0 + lo : i0 + hi + count - 1]
                    parts.append(np.correlate(view, probs[lo:hi], "valid"))
                else:
                    parts.append(np.zeros(count))
            c = parts[0] if len(parts) == 1 else np.concatenate(parts)
            # entries past a row's last u meet T_j = 0; "clip" keeps them in
            # c.  One dot product per row, as a stack of 1 x K by K x 1
            # matrix products: np.vecdot would need NumPy 2.
            terms = c.take(index, mode="clip")[:, :, None]
            row[k0 - 1 : k0 - 1 + m] = np.matmul(sums[:m], terms)[:, 0, 0]
        if k0 + rows <= n:
            probs = np.convolve(probs, laws[rows])
    return out


def _block_plan(lat: Lattice, rows: int, cols: int):
    """Where a block of _dense_sum_law_means reads its correlations.

    The grid index of min S_{k0+j} is start + j*lo/d.  The offsets j*lo/d
    fall into groups by their residue t mod g/d; the offsets of a group
    are t + (g/d)*w_j, and its correlation covers w from first to
    first + count - 1, enough for u = 0..j*span.  Returns the groups as
    (t, first, count), and index[j, u], the position of c[j*lo + g*u] in
    the groups' correlations laid end to end.  Neither depends on k0.
    """
    stride = lat.g // lat.d
    offsets = np.arange(rows) * (lat.lo // lat.d)
    residues = offsets % stride
    w = (offsets - residues) // stride
    reach = w + np.arange(rows) * lat.span
    groups = []
    index = np.empty((rows, cols), dtype=np.intp)
    filled = 0  # correlation entries of the groups before this one
    for t in np.unique(residues):
        sel = residues == t
        first = int(w[sel].min())
        count = int(reach[sel].max()) - first + 1
        index[sel] = filled + (w[sel] - first)[:, None] + np.arange(cols)
        groups.append((int(t), first, count))
        filled += count
    return groups, index


def _sparse_sum_laws(lat: Lattice, n: int):
    """Laws of S_1..S_n, merged atom by atom.

    Raises TooLarge before any work when they could hold more than
    _SPARSE_MAX_ATOMS atoms in all: S_k has at most one atom per
    composition of k into one part per support atom, C(k+s-1, s-1) for s
    atoms, and at most one per point k*lo + g*i, i = 0..k*span.
    """
    atoms = 0
    for k in range(1, n + 1):
        atoms += min(math.comb(k + lat.keys.size - 1, k), k * lat.span + 1)
        if atoms > _SPARSE_MAX_ATOMS:
            raise TooLarge(
                f"the sparse sum laws of {n} steps over {lat.keys.size} atoms "
                f"may hold over {_SPARSE_MAX_ATOMS:.0e} atoms"
            )
    return _merged_sum_laws(lat, n)


def _merged_sum_laws(lat: Lattice, n: int):
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
        with np.errstate(over="ignore"):  # an overflow is m(lam) = inf
            return float(np.dot(np.exp(lam * np.asarray(self.support)), self.probs))

    def mgf_prime(self, lam: float) -> float:
        s = np.asarray(self.support)
        with np.errstate(over="ignore"):  # as in mgf
            return float(np.dot(s * np.exp(lam * s), self.probs))

    def prob_positive(self) -> float:
        return float(sum(p for y, p in zip(self.support, self.probs) if y > 0))

    def _spread(self) -> float:
        """E|Y|."""
        return float(np.dot(np.abs(np.asarray(self.support)), self.probs))

    def _expm1_sum(self, lam: float) -> float:
        """m(lam) - 1 summed as sum p * expm1(lam * y)."""
        with np.errstate(over="ignore"):
            return float(np.dot(np.expm1(lam * np.asarray(self.support)), self.probs))

    def _lambda_star_impl(self) -> float:
        # m(lambda) - 1 is summed as p * expm1(lambda * y), which errs by a
        # few eps * E|Y| * lambda, where m(lambda) itself would round to a
        # multiple of eps and leave small roots only the digits that allows.
        # Near 0 the sum is lambda * mean(Y) + O(lambda^2), so a mean within
        # 8 eps * E|Y| of 0 has no root the floats resolve.
        spread = self._spread()
        mean = self.mean()
        if -mean <= 8.0 * _EPS * spread:
            raise NoPositiveRoot(
                f"mean(Y) = {mean:g} is 0 up to rounding (E|Y| = {spread:g})"
            )
        f = self._expm1_sum
        # Bracket: m is convex with m(0) = 1, m'(0) < 0 and m -> inf, so
        # the root is the unique positive point where m crosses 1 upward.
        hi = 1.0
        while f(hi) <= 0.0:
            hi *= 2.0
            if hi > 1e6:  # pragma: no cover - unreachable for valid models
                raise NoPositiveRoot("failed to bracket the root of m(lambda)=1")
        # keep lo strictly positive: m(0) = 1 is the trivial root
        lo = hi / 2.0
        while f(lo) >= 0.0:
            lo /= 2.0
            if lo == 0.0:  # a mean that is negative by rounding only
                raise NoPositiveRoot(
                    f"m(lambda) >= 1 down to the smallest lambda > 0 although "
                    f"mean(Y) = {mean:g}: the mean is 0 up to rounding"
                )
        return _newton_root(f, self.mgf_prime, lo, hi)

    def _root_residual(self, root: float) -> tuple[str, float, float]:
        # m(root) - 1 rounds to 0 at any root below about eps / |mean(Y)|,
        # so the expm1 sum, the form solved, is checked against its own
        # rounding error of a few eps * root * E|Y|
        return ("|sum p expm1(lambda* y)|", abs(self._expm1_sum(root)),
                64.0 * _EPS * root * self._spread())

    def _cum(self) -> np.ndarray:
        """The cut-points cum_j = p_0 + .. + p_j of the inverse CDF, j < k - 1.

        Atom index = #{j : cum_j <= u}, which equals min(searchsorted(cum,
        u, "right"), k - 1) for any support order; leaving out the last
        cumulative sum covers one that rounds below 1.
        """
        return np.cumsum(self.probs)[:-1]

    def _atoms(self, x: np.ndarray, cuts: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """Write support[#{j : x >= cuts[j]}] per element of x into out.

        The index lies in [0, k - 1], so take's "clip" never alters it.
        Slices of rows of about _QUANTILE_SLICE draws keep the small index
        array, and take's intp copy of it, in cache; each slice of x is
        read in full before the same slice of out is written, so out may
        share x's memory.
        """
        x = np.asarray(x)
        if out is None:
            out = np.empty(x.shape)
        if x.ndim == 0:  # a scalar goes through as a one-element view
            self._atoms(x.reshape(1), cuts, out.reshape(1))
            return out
        support = np.asarray(self.support, dtype=float)
        index_type = np.min_scalar_type(len(cuts))
        rows = len(x)
        step = max(1, _QUANTILE_SLICE * rows // max(x.size, 1))
        for lo in range(0, rows, step):
            part = x[lo : lo + step]
            idx = np.zeros(part.shape, dtype=index_type)
            for c in cuts:
                idx += part >= c
            np.take(support, idx, out=out[lo : lo + step], mode="clip")
        return out

    def quantile(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return self._atoms(u, self._cum(), out)

    def from_words(self, words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """quantile(max((r >> 11) * 2**-53, rng.MIN_UNIFORM)) bit for bit,
        from raw uint64 Philox words r, without forming the uniforms.

        With a = r >> 11, the clamped uniform max(a * 2**-53, 2**-64)
        reaches a cut-point cum_j > 2**-64 exactly when a >= T_j =
        ceil(cum_j * 2**53), that is when r >= T_j * 2**11.  A cut-point
        of at most 2**-64 is always reached (T_j = 0), and one with T_j >=
        2**53 never, as a < 2**53, so it is left out.  ``out`` is as for
        quantile, and may be the words' own memory.
        """
        cum = self._cum()
        t = np.where(cum > rng.MIN_UNIFORM, np.ceil(np.ldexp(cum, 53)), 0.0)
        cuts = t[t < 2.0**53].astype(np.uint64) << np.uint64(11)
        return self._atoms(words, cuts, out)

    def increments_block(self, seed: int, first_rep: int, reps: int,
                         n: int) -> np.ndarray:
        # The raw words map to increments in place over the whole
        # contiguous Philox block, padding columns included, so every
        # np.take writes a contiguous slice; the caller reads [:, :n].
        words = rng.word_block(seed, first_rep, reps, n)
        return self.from_words(words, out=words.view(np.float64))[:, :n]

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
        atoms with mass >= 1e-300.  The rectified sums below do not go
        through it: they take E f(S_k) from _sum_law_means.
        """
        yield from _sum_laws(self.lattice(), n)

    def rectified_exp_seq(self, lam: float, n: int) -> np.ndarray:
        _check_mgf_args(lam, n)
        lat = self.lattice()
        # lam * v may overflow; exp(-inf) = 0 and expm1(-inf) = -1 are exact
        with np.errstate(over="ignore"):
            if lam < 0.0:  # the weight e^(lam v+) lies in (0, 1]
                return _sum_law_means(lat, n, [lambda v: np.exp(lam * np.maximum(v, 0.0))])[0]
            # e^(lam S+) = e^(lam S) + (1 - e^(lam S))+, whose weight lies in [0, 1)
            below = _sum_law_means(lat, n, [lambda v: -np.expm1(lam * np.minimum(v, 0.0))])[0]
        return below + lat.mgf_powers(lam, n)

    def rectified_moment_seq(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        m1, m2 = _sum_law_means(self.lattice(), n, [
            lambda v: np.maximum(v, 0.0),
            lambda v: np.square(np.maximum(v, 0.0)),
        ])
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

    def _lambda_star_impl(self) -> float:
        # p z^2 - z + (1 - p) = 0 with z = e^lambda; roots z = 1, (1-p)/p.
        return math.log((1.0 - self.p) / self.p)

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
        if not all(map(math.isfinite, self.values)):
            raise ValueError(f"values must be finite, got {self.values}")
        if len(set(self.values)) != len(self.values):
            raise ValueError("support values must be distinct")
        if any(not 0.0 <= w <= 1.0 for w in self.weights):
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(sum(self.weights) - 1.0) > _PROB_TOL:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        if self.llr and not self.is_llr:
            raise ValueError("llr flag requires E exp(Y) = 1 within 1e-9")

    @property
    def support(self) -> tuple[float, ...]:
        return self.values

    @property
    def probs(self) -> tuple[float, ...]:
        return self.weights

    def spec(self) -> str:
        y = ";".join(f"{v:.17g}" for v in self.values)
        p = ";".join(f"{w:.17g}" for w in self.weights)
        return f"table:y={y},p={p}" + (",llr" if self.llr else "")


# ---------------------------------------------------------------------------
# model-specification grammar
# ---------------------------------------------------------------------------


class Spec:
    """A ``kind:key=val,...`` spec string; other nonblank parts are flags.

    Reading a field the spec lacks, or one that is not a number, raises
    ValueError, so a malformed spec reaches the command line as an error
    message rather than a traceback.  So does a repeated part, and, at
    ``close``, a part that no reader asked for.
    """

    def __init__(self, text: str):
        self.text = text
        self.kind, _, body = text.strip().partition(":")
        self.fields: dict[str, str] = {}
        self.flags: list[str] = []
        for part in filter(None, map(str.strip, body.split(","))):
            key, eq, val = part.partition("=")
            key = key.strip()
            if key in (self.fields if eq else self.flags):
                raise ValueError(f"spec {text!r} repeats {key!r}")
            if eq:
                self.fields[key] = val.strip()
            else:
                self.flags.append(key)
        self._read: set[tuple[str, str]] = set()  # (kind, name) pairs asked for

    def _field(self, key: str) -> str:
        if key not in self.fields:
            raise ValueError(f"spec {self.text!r} is missing field {key!r}")
        self._read.add(("field", key))
        return self.fields[key]

    def number(self, key: str) -> float:
        return float(self._field(key))

    def numbers(self, key: str) -> tuple[float, ...]:
        """A ';'-separated list of numbers."""
        return tuple(float(v) for v in self._field(key).split(";"))

    def flag(self, name: str) -> bool:
        """Whether the flag is given."""
        self._read.add(("flag", name))
        return name in self.flags

    def close(self) -> None:
        """Refuse the fields and flags that no reader asked for."""
        for kind, names in (("field", self.fields), ("flag", self.flags)):
            for name in names:
                if (kind, name) not in self._read:
                    raise ValueError(f"spec {self.text!r} has unknown {kind} {name!r}")


def parse_model(text: str) -> IncrementModel:
    """Parse the shared model grammar.

    Accepted forms:
      normal-llr:delta=<float>
      shifted-normal:a=<float>,sigma=<float>
      bernoulli-pm:p=<float>
      table:y=<v1;v2;...>,p=<p1;p2;...>[,llr]
    """
    spec = Spec(text)
    if spec.kind == "normal-llr":
        model = NormalLLR(delta=spec.number("delta"))
    elif spec.kind == "shifted-normal":
        model = ShiftedNormal(a=spec.number("a"), sigma=spec.number("sigma"))
    elif spec.kind == "bernoulli-pm":
        model = BernoulliPM(p=spec.number("p"))
    elif spec.kind == "table":
        model = DiscreteTable(values=spec.numbers("y"), weights=spec.numbers("p"),
                              llr=spec.flag("llr"))
    else:
        raise ValueError(f"unknown model kind {spec.kind!r}")
    spec.close()
    return model


@lru_cache(maxsize=None)
def cached_lambda_star(model: IncrementModel) -> float:
    """Memoized lambda* for frozen (hashable) models."""
    return model.lambda_star()
