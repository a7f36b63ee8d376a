"""Ground truth by brute force: Monte Carlo paths and exact enumeration.

Monte Carlo uses counter-based Philox substreams (one fixed-size slice per
replication), so results are bit-identical for a given seed regardless of
chunking or worker count.  Exact enumeration runs a dynamic program over
the joint states (W_n, max W) for finite-support increments, held as int64
arrays of keys on the support's 1e-12 grid (models.Lattice), and is the
trusted oracle for the analytic moment engine.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import rng
from ._kernels import lindley_block
from .errors import HorizonExceeded, InsufficientReps, StateBudgetExceeded
from .models import _GRID, IncrementModel, _DiscreteBase, _merge_atoms

__all__ = [
    "SimConfig",
    "SimResult",
    "ExactDistribution",
    "simulate_cusum",
    "mc_quantile_max",
    "mc_tail_max",
    "exact_enumerate",
    "stopping_stats",
    "StoppingStats",
]

# 8 MB of float64 per chunk: each pipeline stage's output stays in cache
# and TLB reach for the next stage to read
_TARGET_CHUNK_ELEMENTS = 1_000_000


@dataclass(frozen=True)
class SimConfig:
    """Replication plan for one simulation run."""

    model: IncrementModel
    n: int
    reps: int
    seed: int
    parallel_streams: int = 1

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.n < 0:
            raise ValueError("n must be >= 0")


@dataclass(frozen=True)
class SimResult:
    """Per-replication terminal values and running maxima, with summaries."""

    config: SimConfig
    w_final: np.ndarray
    w_max: np.ndarray
    mean: float
    variance: float
    mean_stderr: float
    exp_lam: float | None = None
    exp_moment: float | None = None
    exp_moment_stderr: float | None = None


def _increments_chunk(
    model: IncrementModel, seed: int, first_rep: int, reps: int, n: int
) -> np.ndarray:
    return model.quantile(rng.uniform_block(seed, first_rep, reps, n))


def _run_chunk(config: SimConfig, first_rep: int, reps: int):
    y = _increments_chunk(config.model, config.seed, first_rep, reps, config.n)
    return lindley_block(y)


def simulate_cusum(config: SimConfig, exp_lam: float | None = None) -> SimResult:
    """Simulate W over [0, n] per replication.

    Records (W_n, max over [0, n] of W_t) for every replication.  When
    exp_lam is given, additionally estimates M_n(exp_lam) with its sample
    standard error; the sample MGF has high variance, so analytic values
    should be preferred whenever they are available.
    """
    n, reps = config.n, config.reps
    w_final = np.zeros(reps)
    w_max = np.zeros(reps)
    if n > 0:
        chunk = max(1, _TARGET_CHUNK_ELEMENTS // n)
        starts = list(range(0, reps, chunk))
        jobs = [(s, min(chunk, reps - s)) for s in starts]
        if config.parallel_streams > 1 and len(jobs) > 1:
            with ThreadPoolExecutor(max_workers=config.parallel_streams) as pool:
                results = list(
                    pool.map(lambda j: _run_chunk(config, j[0], j[1]), jobs)
                )
        else:
            results = [_run_chunk(config, s, c) for s, c in jobs]
        for (s, c), (wf, wm) in zip(jobs, results):
            w_final[s : s + c] = wf
            w_max[s : s + c] = wm

    mean = float(np.mean(w_final))
    variance = float(np.var(w_final, ddof=1)) if reps > 1 else 0.0
    mean_stderr = float(np.sqrt(variance / reps))
    exp_moment = exp_stderr = None
    if exp_lam is not None:
        e = np.exp(exp_lam * w_final)
        exp_moment = float(np.mean(e))
        exp_stderr = float(np.std(e, ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0
    return SimResult(
        config=config,
        w_final=w_final,
        w_max=w_max,
        mean=mean,
        variance=variance,
        mean_stderr=mean_stderr,
        exp_lam=exp_lam,
        exp_moment=exp_moment,
        exp_moment_stderr=exp_stderr,
    )


def mc_quantile_max(
    model: IncrementModel, n: int, alpha: float, reps: int, seed: int,
    parallel_streams: int = 1,
) -> tuple[float, float]:
    """Empirical upper-alpha quantile of max W over [0, n], with stderr.

    The quantile is the ceil(reps*(1-alpha))-th order statistic
    (conservative, deterministic); the standard error comes from the
    order-statistic bracket at +-sqrt(reps*alpha*(1-alpha)) ranks.
    """
    if reps * alpha < 100:
        raise InsufficientReps(
            f"need reps * alpha >= 100 for a stable quantile, got {reps * alpha:g}"
        )
    if alpha >= 1.0:
        return 0.0, 0.0
    res = simulate_cusum(SimConfig(model, n, reps, seed, parallel_streams))
    return _upper_quantile(res.w_max, alpha)


def _upper_quantile(samples: np.ndarray, alpha: float) -> tuple[float, float]:
    reps = samples.shape[0]
    rank = int(np.ceil(reps * (1.0 - alpha)))  # 1-based
    spread = np.sqrt(reps * alpha * (1.0 - alpha))
    lo = max(int(np.floor(rank - spread)), 1)
    hi = min(int(np.ceil(rank + spread)), reps)
    # Order statistics lo..reps only: one partition, then a sort of the
    # top tail.  Cheaper than a full sort; partitioning at all three ranks
    # at once is slower than numpy's vectorized sort.
    tail = np.sort(np.partition(samples, lo - 1)[lo - 1 :])
    h = float(tail[rank - lo])
    stderr = float((tail[hi - lo] - tail[0]) / 2.0)
    return h, stderr


def mc_tail_max(
    model: IncrementModel, n: int, h: float, reps: int, seed: int,
    parallel_streams: int = 1,
) -> tuple[float, float]:
    """MC estimate of P(max W over [0, n] >= h) with a 3-sigma halfwidth."""
    res = simulate_cusum(SimConfig(model, n, reps, seed, parallel_streams))
    p_hat = float(np.mean(res.w_max >= h))
    ci = 3.0 * float(np.sqrt(p_hat * (1.0 - p_hat) / reps))
    return p_hat, ci


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactDistribution:
    """Exact joint law of (W_n, max over [0, n] of W_t).

    Atoms map pairs of grid keys (kw, km), the values divided by 1e-12, to
    probabilities.  Keys are sums of the support's keys round(y / 1e-12),
    so they are exact for integer and half-integer supports.
    """

    n: int
    atoms: dict[tuple[int, int], float] = field(repr=False)

    def items(self):
        for (kw, km), p in self.atoms.items():
            yield kw * _GRID, km * _GRID, p

    def total(self) -> float:
        return float(sum(self.atoms.values()))

    def w_marginal(self) -> tuple[np.ndarray, np.ndarray]:
        acc: dict[int, float] = {}
        for (kw, _), p in self.atoms.items():
            acc[kw] = acc.get(kw, 0.0) + p
        keys = np.array(sorted(acc), dtype=np.int64)
        return keys * _GRID, np.array([acc[k] for k in keys])

    def mean_w(self) -> float:
        vals, probs = self.w_marginal()
        return float(np.dot(vals, probs))

    def var_w(self) -> float:
        vals, probs = self.w_marginal()
        mu = np.dot(vals, probs)
        return float(np.dot(vals * vals, probs) - mu * mu)

    def mgf_w(self, lam: float) -> float:
        vals, probs = self.w_marginal()
        return float(np.dot(np.exp(lam * vals), probs))

    def prob_max_ge(self, h: float) -> float:
        return float(
            sum(p for (_, km), p in self.atoms.items() if km * _GRID >= h - 1e-15)
        )


def exact_enumerate(
    model: IncrementModel, n: int, state_budget: int = 10_000_000
) -> ExactDistribution:
    """Dynamic program over joint states (W, max W) for finite supports.

    One step maps (w, m) to (w', max(m, w')) with w' = max(w + y, 0) for
    every support atom y, on int64 grid keys, then merges equal states.
    Exact up to float rounding; probabilities below 1e-300 only are pruned.
    """
    if not isinstance(model, _DiscreteBase):
        raise TypeError("exact enumeration requires a finite-support model")
    lat = model.lattice()
    lat.check_horizon(n)
    kw = km = np.zeros(1, dtype=np.int64)
    q = np.ones(1)
    for _ in range(n):
        w = np.maximum(kw[:, None] + lat.keys, 0)
        (kw, km), q = _merge_atoms(
            (w.ravel(), np.maximum(km[:, None], w).ravel()),
            np.outer(q, lat.probs).ravel(),
        )
        if q.size > state_budget:
            raise StateBudgetExceeded(
                f"{q.size} states exceed the budget of {state_budget}"
            )
    atoms = dict(zip(zip(kw.tolist(), km.tolist()), q.tolist()))
    return ExactDistribution(n=n, atoms=atoms)


# ---------------------------------------------------------------------------
# stopping-time statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StoppingStats:
    """Estimates for Page's rule versus the CUSUM's returns to zero."""

    p_hat: float  # P(threshold crossed before the k-th zero)
    p_stderr: float
    mean_tau1: float  # expected first return time to zero
    tau1_stderr: float
    horizon_exceeded: int


def stopping_stats(
    model: IncrementModel,
    h: float,
    k_zeros: int,
    reps: int,
    seed: int,
    max_steps: int = 100_000,
    block: int = 256,
) -> StoppingStats:
    """Simulate excursions of the CUSUM until the k-th return to zero or a
    threshold crossing, whichever comes first.

    Also estimates E tau1, the expected first return time to zero, from a
    second set of substreams.  Requires mean(Y) < 0 so excursions
    terminate; paths that exceed max_steps are counted and reported via a
    HorizonExceeded warning.
    """
    if model.mean() >= 0.0:
        raise ValueError("stopping statistics require mean(Y) < 0")
    crossed = np.zeros(reps, dtype=bool)
    tau1 = np.zeros(reps)
    exceeded = 0

    for rep in range(2 * reps):
        # allot one extra block of slack so a partially used final block
        # never reads into the next replication's slice
        gen = rng.substream(seed, rep, max_steps + block)
        first_pass = rep < reps
        w = 0.0
        zeros = 0
        first_zero_at = 0
        hit = False
        steps = 0
        done = False
        while not done and steps < max_steps:
            u = gen.random(block)
            y = model.quantile(np.maximum(u, rng.MIN_UNIFORM, out=u))
            for inc in y:
                steps += 1
                w = max(w + inc, 0.0)
                if first_pass and w >= h:
                    hit = True
                    done = True
                    break
                if w == 0.0:
                    zeros += 1
                    if first_zero_at == 0:
                        first_zero_at = steps
                    if (first_pass and zeros >= k_zeros) or not first_pass:
                        done = True
                        break
                if steps >= max_steps:
                    break
        if not done:
            exceeded += 1
        if first_pass:
            crossed[rep] = hit
        else:
            tau1[rep - reps] = first_zero_at if first_zero_at else steps

    if exceeded:
        warnings.warn(
            f"{exceeded} excursions hit the {max_steps}-step cap",
            HorizonExceeded,
            stacklevel=2,
        )
    p_hat = float(np.mean(crossed))
    p_stderr = float(np.sqrt(p_hat * (1.0 - p_hat) / reps))
    return StoppingStats(
        p_hat=p_hat,
        p_stderr=p_stderr,
        mean_tau1=float(np.mean(tau1)),
        tau1_stderr=float(np.std(tau1, ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0,
        horizon_exceeded=exceeded,
    )
