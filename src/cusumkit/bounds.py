"""Analytic bounds on CUSUM tails and all detection-threshold variants.

Threshold variants for false-alarm level alpha over a window of n
observations:

  UB-1  log(M_n(lambda*) / alpha) / lambda*   (Doob maximal inequality)
  UB-2  log((n + 1) / alpha) / lambda*        (universal, Stirling bound)
  UB-3  log((1 + n D) / alpha) / lambda*      (compensator bound, D the
                                               total-variation discrepancy)
  LB-1  best segment-splitting lower envelope over segment length k
  LB-2  the k = 1 member of the same family

The log-likelihood-ratio formulas are stated at lambda* = 1; for general
negative-drift models the increments are rescaled by lambda* and the
thresholds divided by lambda*, which extends the bounds beyond the
change-point setting.  The lower bounds use the normal closed form and
are only defined for NormalLLR models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri_exp

from .errors import DivergentMoment, InvalidAlpha, NotSupportedModel, UnstableQueue
from .models import IncrementModel, NormalLLR, cached_lambda_star
from .moments import cusum_mgf_recursive

__all__ = [
    "Regime",
    "ThresholdReport",
    "LowerBoundDetail",
    "exp_moment_upper",
    "max_tail_upper",
    "max_tail_lower",
    "threshold_ub",
    "threshold_lb",
    "lower_bound_detail",
    "regime",
    "stopped_tail_bound",
    "queue_tail_bound",
    "threshold_report",
]

_UB_VARIANTS = ("ub1", "ub2", "ub3")
_LB_VARIANTS = ("lb1", "lb2")
_CRITICAL_RTOL = 1e-12


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"alpha must lie in (0, 1), got {alpha:g}")


def _check_threshold(h: float) -> None:
    if math.isnan(h):
        raise ValueError(f"threshold h must be a number, got {h:g}")


def scaled_discrepancy(model: IncrementModel) -> float:
    """E(1 - exp(lambda* Y))+, the discrepancy of the rescaled increments."""
    return model.one_minus_exp_pos_mean(cached_lambda_star(model))


def exp_moment_upper(model: IncrementModel, n: int) -> float:
    """Upper bound 1 + n E(1 - exp(lambda* Y))+ on M_n(lambda*)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return 1.0 + n * scaled_discrepancy(model)


def max_tail_upper(model: IncrementModel, n: int, h: float) -> float:
    """Upper bound on P(max over [0, n] of W_t >= h), clamped at 1."""
    _check_threshold(h)
    lam_star = cached_lambda_star(model)
    return min(math.exp(-lam_star * h) * exp_moment_upper(model, n), 1.0)


def max_tail_lower(model: IncrementModel, n: int, h: float, k: int) -> float:
    """Lower bound on P(max over [0, n] of W_t >= h) from n // k independent
    length-k segments, each crossing with the normal tail probability.

    Valid for any segment length k in [1, n]; the tightest choice depends
    on (h, n, delta).  Normal-specific.
    """
    _check_threshold(h)
    if not isinstance(model, NormalLLR):
        raise NotSupportedModel(
            "segment tail bounds are normal-specific; got "
            f"{type(model).__name__}"
        )
    if not 1 <= k <= n:
        raise ValueError(f"segment length k must lie in [1, n], got {k}")
    delta = model.delta
    z = (h + k * delta**2 / 2.0) / (delta * math.sqrt(k))
    return 1.0 - float(ndtr(z)) ** (n // k)


def threshold_ub(model: IncrementModel, n: int, alpha: float, variant: str) -> float:
    """The named upper-bound threshold; crossing it has probability <= alpha."""
    _check_alpha(alpha)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if variant not in _UB_VARIANTS:
        raise ValueError(f"unknown upper variant {variant!r}")
    lam_star = cached_lambda_star(model)
    if variant == "ub1":
        # M_n(lambda*) <= exp_moment_upper exactly, but not always in floats
        # (x_k of NormalLLR(80) come out above 2); both levels are valid,
        # so the tighter one keeps ub1 <= ub3 <= ub2
        level = min(float(cusum_mgf_recursive(model, lam_star, n).values[n]),
                    exp_moment_upper(model, n))
    elif variant == "ub2":
        level = n + 1.0
    else:
        level = exp_moment_upper(model, n)
    return math.log(level / alpha) / lam_star


@dataclass(frozen=True)
class LowerBoundDetail:
    """Segment-splitting lower envelope and its maximizing segment length."""

    lb1: float
    k1: int  # maximizer over k in [1, n]
    lb2: float  # the k = 1 member


def lower_bound_detail(model: IncrementModel, n: int, alpha: float) -> LowerBoundDetail:
    _check_alpha(alpha)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not isinstance(model, NormalLLR):
        raise NotSupportedModel(
            "lower-bound closed forms are normal-specific; got "
            f"{type(model).__name__}"
        )
    delta = model.delta
    # h[k - 1] = delta sqrt(k) z_s - k delta^2 / 2, the level at which each
    # of the s = n // k segments of length k crosses with probability
    # 1 - q, q = (1 - alpha)^(1/s).  z_s = ndtri(q) is taken as
    # ndtri_exp(log q), which keeps its digits where q is near or at 1,
    # once per distinct s, of which there are about 2 sqrt(n).
    k = np.arange(1, n + 1)
    segments, where = np.unique(n // k, return_inverse=True)
    z = ndtri_exp(math.log1p(-alpha) / segments)
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats
        h = delta * np.sqrt(k) * z[where] - k * delta**2 / 2.0
    h[np.isnan(h)] = -math.inf  # the loop's `h > best_h` never takes a NaN
    best = int(np.argmax(h))
    return LowerBoundDetail(lb1=float(h[best]), k1=best + 1, lb2=float(h[0]))


def threshold_lb(model: IncrementModel, n: int, alpha: float, variant: str) -> float:
    """Lower envelope: no valid threshold at level alpha can be smaller."""
    if variant not in _LB_VARIANTS:
        raise ValueError(f"unknown lower variant {variant!r}")
    detail = lower_bound_detail(model, n, alpha)
    return detail.lb1 if variant == "lb1" else detail.lb2


@dataclass(frozen=True)
class Regime:
    """Growth regime of M_n(lambda) relative to the critical exponent."""

    kind: str  # "subcritical" | "critical" | "supercritical"
    lam: float
    lam_star: float
    omega: float | None = None  # lam / lam* for the subcritical case
    growth: float | None = None  # m(lam) > 1 for the supercritical case


def regime(model: IncrementModel, lam: float) -> Regime:
    """Classify lambda against lambda* (relative tolerance 1e-12)."""
    if not lam >= 0.0:
        raise ValueError(f"lambda must be nonnegative, got {lam:g}")
    if math.isinf(lam):
        raise ValueError(f"lambda must be finite, got {lam:g}")
    lam_star = cached_lambda_star(model)
    if abs(lam - lam_star) <= _CRITICAL_RTOL * lam_star:
        return Regime(kind="critical", lam=lam, lam_star=lam_star)
    if lam < lam_star:
        return Regime(
            kind="subcritical", lam=lam, lam_star=lam_star, omega=lam / lam_star
        )
    growth = model.mgf(lam)
    if math.isinf(growth):
        raise DivergentMoment(f"m(lambda) overflows at lambda = {lam:g}")
    return Regime(kind="supercritical", lam=lam, lam_star=lam_star, growth=growth)


def stopped_tail_bound(discrepancy: float, expected_stop: float, h: float) -> float:
    """Tail bound (1 + D * E T) exp(-h), clamped at 1, for a CUSUM watched
    up to a stopping time T with mean E T.

    This is the literal compensator/Lenglart bound on the stopped process;
    it is used here as a tail bound for the running maximum up to T.
    """
    _check_threshold(h)
    if not 0.0 <= discrepancy <= 1.0:
        raise ValueError("discrepancy must lie in [0, 1]")
    if expected_stop <= 0.0 or not math.isfinite(expected_stop):
        raise ValueError("expected stopping time must be positive and finite")
    return min((1.0 + discrepancy * expected_stop) * math.exp(-h), 1.0)


def queue_tail_bound(model: IncrementModel, n: int, h: float) -> float:
    """P(waiting time exceeds h at least once in n steps), upper bound.

    The increment model is Y = service minus interarrival time; a stable
    queue requires mean(Y) < 0 (utilization below 1).
    """
    if model.mean() >= 0.0:
        raise UnstableQueue(
            f"mean increment {model.mean():g} >= 0: utilization >= 1"
        )
    return max_tail_upper(model, n, h)


@dataclass(frozen=True)
class ThresholdReport:
    """All threshold variants for one (model, n, alpha) scenario."""

    model_spec: str
    n: int
    alpha: float
    ub1: float
    ub2: float
    ub3: float
    lb1: float | None
    lb2: float | None
    mc_quantile: float | None = None
    mc_stderr: float | None = None
    mc_reps: int = 0
    seed: int | None = None


def threshold_report(
    model: IncrementModel,
    n: int,
    alpha: float,
    mc_reps: int = 0,
    seed: int = 0,
    parallel_streams: int = 1,
) -> ThresholdReport:
    """Assemble every threshold variant, optionally with an MC quantile."""
    _check_alpha(alpha)
    if mc_reps < 0:
        raise ValueError(f"mc_reps must be >= 0, got {mc_reps}")
    ub = {v: threshold_ub(model, n, alpha, v) for v in _UB_VARIANTS}
    lb1 = lb2 = None
    if isinstance(model, NormalLLR):
        detail = lower_bound_detail(model, n, alpha)
        lb1, lb2 = detail.lb1, detail.lb2
    mc_q = mc_se = None
    if mc_reps > 0:
        from .simulate import mc_quantile_max

        mc_q, mc_se = mc_quantile_max(
            model, n, alpha, mc_reps, seed, parallel_streams
        )
    return ThresholdReport(
        model_spec=model.spec(),
        n=n,
        alpha=alpha,
        ub1=ub["ub1"],
        ub2=ub["ub2"],
        ub3=ub["ub3"],
        lb1=lb1,
        lb2=lb2,
        mc_quantile=mc_q,
        mc_stderr=mc_se,
        mc_reps=mc_reps,
        seed=seed if mc_reps > 0 else None,
    )
