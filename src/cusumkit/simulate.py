"""Ground truth by brute force: Monte Carlo paths and exact enumeration.

Monte Carlo uses counter-based Philox substreams (one fixed-size slice per
replication), so results are bit-identical for a given seed regardless of
chunking or worker count.  Exact enumeration runs a dynamic program over
the joint states (W_n, max W) for finite-support increments, held as int64
arrays of keys on the support's 1e-12 grid (models.Lattice), and is the
trusted oracle for the analytic moment engine.
"""

from __future__ import annotations

import math
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import rng
from .errors import (
    DivergentMoment,
    HorizonExceeded,
    InsufficientReps,
    InvalidAlpha,
    StateBudgetExceeded,
)
from .models import _GRID, _PRUNE, IncrementModel, _merge_atoms

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
# draws per refill of a stopping-time walk; it sizes every substream slice
_EXCURSION_BLOCK = 256
# exact_enumerate merges a step by a dense (W, max W) index while its box
# holds at most this many cells per candidate state, else by sorting.
# Timed on the steps of eight lattice tables (2-core x86-64 host): below 8
# cells per candidate the dense merge was 1.7-4.7x faster, at 8-16 the two
# tied, and at 16-32 the sort was 1.3x faster.
_CELLS_PER_CANDIDATE = 8


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
        if self.parallel_streams < 1:
            raise ValueError("parallel_streams must be >= 1")


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
    # the increments overwrite the uniforms: one float64 array per chunk
    u = rng.uniform_block(seed, first_rep, reps, n)
    return model.quantile(u, out=u)


def lindley_block(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold W_{t+1} = max(W_t + y_t, 0) over axis 1 of a (reps, n) block.

    Returns the terminal value W_n and the running maximum per path.  This
    is the last stage of the chunk pipeline: Philox uniforms
    (rng.uniform_block), then the model's inverse CDF written over them
    (IncrementModel.quantile with out=), then this fold, on chunks of about
    one million elements so each stage's output is still in cache for the
    next.  The fold keeps the rep-major layout and updates its two per-path
    accumulators in place, one column per step.
    """
    reps, n = y.shape
    w = np.zeros(reps)
    mx = np.zeros(reps)
    for t in range(n):
        np.add(w, y[:, t], out=w)
        np.maximum(w, 0.0, out=w)
        np.maximum(mx, w, out=mx)
    return w, mx


def _run_chunk(config: SimConfig, first_rep: int, reps: int,
               w_final: np.ndarray, w_max: np.ndarray, /) -> None:
    """Fold replications first_rep .. first_rep + reps - 1 into their rows
    of the caller's result arrays w_final and w_max."""
    y = _increments_chunk(config.model, config.seed, first_rep, reps, config.n)
    rows = slice(first_rep, first_rep + reps)
    w_final[rows], w_max[rows] = lindley_block(y)


def _run_streams(config: SimConfig, jobs: list[tuple[int, int]],
                 w_final: np.ndarray, w_max: np.ndarray) -> None:
    """Run the (first_rep, reps) chunks of jobs on up to parallel_streams
    streams, each taking the next chunk from the shared list.

    The calling thread is one stream, so there are at most
    parallel_streams - 1 helper threads, and none for one stream or one
    chunk.  Each stream holds one Philox block at a time; the caller's
    stream reuses the memory its thread's allocator kept from earlier
    calls.  Once a chunk raises, no stream takes another chunk, the helpers
    are joined and the error propagates.
    """
    lock = threading.Lock()
    pending = iter(jobs)
    failed = False

    def stream() -> None:
        nonlocal failed
        while True:
            with lock:
                job = None if failed else next(pending, None)
            if job is None:
                return
            try:
                _run_chunk(config, job[0], job[1], w_final, w_max)
            except BaseException:
                with lock:
                    failed = True
                raise

    helpers = min(config.parallel_streams, len(jobs)) - 1
    if helpers < 1:
        stream()
        return
    with ThreadPoolExecutor(max_workers=helpers) as pool:
        futures = [pool.submit(stream) for _ in range(helpers)]
        try:
            stream()
        finally:
            for future in futures:
                future.result()


def simulate_cusum(config: SimConfig, exp_lam: float | None = None) -> SimResult:
    """Simulate W over [0, n] per replication.

    Records (W_n, max over [0, n] of W_t) for every replication.  When
    exp_lam is given, additionally estimates M_n(exp_lam) with its sample
    standard error; the sample MGF has high variance, so analytic values
    should be preferred whenever they are available.
    """
    if exp_lam is not None and not math.isfinite(exp_lam):
        raise ValueError(f"lambda must be finite, got {exp_lam:g}")
    n, reps = config.n, config.reps
    w_final = np.zeros(reps)
    w_max = np.zeros(reps)
    if n > 0:
        chunk = max(1, _TARGET_CHUNK_ELEMENTS // n)
        jobs = [(s, min(chunk, reps - s)) for s in range(0, reps, chunk)]
        _run_streams(config, jobs, w_final, w_max)

    mean = float(np.mean(w_final))
    variance = float(np.var(w_final, ddof=1)) if reps > 1 else 0.0
    mean_stderr = float(np.sqrt(variance / reps))
    exp_moment = exp_stderr = None
    if exp_lam is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            e = np.exp(exp_lam * w_final)
            exp_moment = float(np.mean(e))
            exp_stderr = float(np.std(e, ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0
        if not math.isfinite(exp_moment + exp_stderr):
            raise DivergentMoment(
                f"sample exp moment overflows at lambda = {exp_lam:g}")
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
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"alpha must lie in (0, 1), got {alpha:g}")
    if reps * alpha < 100:
        raise InsufficientReps(
            f"need reps * alpha >= 100 for a stable quantile, got {reps * alpha:g}"
        )
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


def _check_threshold(h: float) -> None:
    if not h >= 0.0:
        raise ValueError(f"h must be >= 0, got {h:g}")


def mc_tail_max(
    model: IncrementModel, n: int, h: float, reps: int, seed: int,
    parallel_streams: int = 1,
) -> tuple[float, float]:
    """MC estimate of P(max W over [0, n] >= h) with a 3-sigma halfwidth."""
    _check_threshold(h)
    res = simulate_cusum(SimConfig(model, n, reps, seed, parallel_streams))
    p_hat = float(np.mean(res.w_max >= h))
    ci = 3.0 * float(np.sqrt(p_hat * (1.0 - p_hat) / reps))
    return p_hat, ci


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ExactDistribution:
    """Exact joint law of (W_n, max over [0, n] of W_t).

    Atoms are pairs of grid keys (kw, km), the values divided by 1e-12,
    with their probabilities: held as the read-only arrays w_keys,
    max_keys and probs in np.lexsort order, and as the dict ``atoms``.
    Keys are sums of the support's keys round(y / 1e-12), so they are
    exact for integer and half-integer supports.
    """

    n: int
    w_keys: np.ndarray = field(repr=False)
    max_keys: np.ndarray = field(repr=False)
    probs: np.ndarray = field(repr=False)

    @cached_property
    def atoms(self) -> dict[tuple[int, int], float]:
        """Probability of each (kw, km) key pair."""
        keys = zip(self.w_keys.tolist(), self.max_keys.tolist())
        return dict(zip(keys, self.probs.tolist()))

    def items(self):
        for kw, km, p in zip(self.w_keys.tolist(), self.max_keys.tolist(),
                             self.probs.tolist()):
            yield kw * _GRID, km * _GRID, p

    def total(self) -> float:
        return float(sum(self.probs.tolist()))

    @cached_property
    def _w_law(self) -> tuple[np.ndarray, np.ndarray]:
        (keys,), probs = _merge_atoms((self.w_keys,), self.probs)
        vals = keys * _GRID
        vals.setflags(write=False)
        probs.setflags(write=False)
        return vals, probs

    def w_marginal(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending values of W_n and their probabilities (read-only)."""
        return self._w_law

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
        return float(sum(self.probs[self.max_keys * _GRID >= h - 1e-15].tolist()))


def exact_enumerate(
    model: IncrementModel, n: int, state_budget: int = 10_000_000
) -> ExactDistribution:
    """Dynamic program over joint states (W, max W) for finite supports.

    One step maps (w, m) to (w', max(m, w')) with w' = max(w + y, 0) for
    every support atom y, then merges equal states.  Exact up to float
    rounding; probabilities below 1e-300 only are pruned, and state_budget
    caps the live states after each step.

    Keys count in units of the lattice's d, so after a step every state
    lies in the box [0, top]^2, where top is the largest max W so far plus
    max(hi, 0) / d.  When the box holds at most 8 (_CELLS_PER_CANDIDATE)
    cells per candidate state, the step merges by the dense index
    m * (top + 1) + w with one np.bincount; its nonzero cells come out in
    the np.lexsort order of the sort merge (models._merge_atoms), which
    the step falls back to when the box is mostly empty.  At 8 cells per candidate the two
    merges take about the same time.  The bincount adds the masses of a
    state one at a time and np.add.reduceat in partial sums, so the two
    agree to rounding.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    lat = model.lattice()
    lat.check_horizon(n)
    steps = lat.keys // lat.d
    rise = max(lat.hi, 0) // lat.d
    kw = km = np.zeros(1, dtype=np.int64)
    q = np.ones(1)
    for _ in range(n):
        w = np.maximum(kw[:, None] + steps, 0)
        m = np.maximum(km[:, None], w)
        p = np.outer(q, lat.probs)
        side = int(km[-1]) + rise + 1  # km ascends: km[-1] is the largest
        if side * side <= _CELLS_PER_CANDIDATE * p.size:
            kw, km, q = _merge_dense(w, m, p, side)
        else:
            (kw, km), q = _merge_atoms((w.ravel(), m.ravel()), p.ravel())
        if q.size > state_budget:
            raise StateBudgetExceeded(
                f"{q.size} states exceed the budget of {state_budget}"
            )
    kw, km = kw * lat.d, km * lat.d
    for a in (kw, km, q):
        a.setflags(write=False)
    return ExactDistribution(n=n, w_keys=kw, max_keys=km, probs=q)


def _merge_dense(w: np.ndarray, m: np.ndarray, p: np.ndarray, side: int):
    """_merge_atoms((w, m), p) for keys in [0, side): one bincount over the
    index m * side + w of the masses that survive the pruning."""
    cell = m * side + w
    keep = p >= _PRUNE
    if not keep.all():
        cell, p = cell[keep], p[keep]
    mass = np.bincount(cell.ravel(), weights=p.ravel())
    cells = np.flatnonzero(mass)
    km, kw = np.divmod(cells, side)
    return kw, km, mass[cells]


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


def _excursion(model: IncrementModel, seed: int, rep: int, h: float,
               zeros_to_stop: int, max_steps: int) -> tuple[int, bool, bool]:
    """Walk W from 0 until W >= h or its zeros_to_stop-th return to zero,
    for at most max_steps steps: (steps, reached h, stopped before the cap).

    The slice of max_steps + _EXCURSION_BLOCK draws keeps a partly used
    last block out of the next replication's slice.
    """
    gen = rng.substream(seed, rep, max_steps + _EXCURSION_BLOCK)
    w = 0.0
    steps = zeros = 0
    while steps < max_steps:
        u = gen.random(_EXCURSION_BLOCK)
        y = model.quantile(np.maximum(u, rng.MIN_UNIFORM, out=u), out=u)
        for inc in y[: max_steps - steps].tolist():
            steps += 1
            w = max(w + inc, 0.0)
            if w >= h:
                return steps, True, True
            if w == 0.0:
                zeros += 1
                if zeros >= zeros_to_stop:
                    return steps, False, True
    return steps, False, False


def stopping_stats(
    model: IncrementModel,
    h: float,
    k_zeros: int,
    reps: int,
    seed: int,
    max_steps: int = 100_000,
) -> StoppingStats:
    """Simulate excursions of the CUSUM until the k-th return to zero or a
    threshold crossing, whichever comes first.

    Replications 0..reps-1 estimate the crossing probability; replications
    reps..2*reps-1 walk to the first return to zero (h = inf), so tau1 is
    their step count.  Requires mean(Y) < 0 so excursions terminate; walks
    that reach max_steps are counted and reported via a HorizonExceeded
    warning, and a capped tau1 walk counts max_steps.
    """
    _check_threshold(h)
    for name, count in (("k_zeros", k_zeros), ("reps", reps), ("max_steps", max_steps)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    if model.mean() >= 0.0:
        raise ValueError("stopping statistics require mean(Y) < 0")
    crossing = [_excursion(model, seed, rep, h, k_zeros, max_steps)
                for rep in range(reps)]
    first_zero = [_excursion(model, seed, rep, np.inf, 1, max_steps)
                  for rep in range(reps, 2 * reps)]
    exceeded = sum(not finished for _, _, finished in crossing + first_zero)
    if exceeded:
        warnings.warn(
            f"{exceeded} excursions hit the {max_steps}-step cap",
            HorizonExceeded,
            stacklevel=2,
        )
    p_hat = float(np.mean([reached for _, reached, _ in crossing]))
    tau1 = np.array([steps for steps, _, _ in first_zero], dtype=float)
    p_stderr = float(np.sqrt(p_hat * (1.0 - p_hat) / reps))
    return StoppingStats(
        p_hat=p_hat,
        p_stderr=p_stderr,
        mean_tau1=float(np.mean(tau1)),
        tau1_stderr=float(np.std(tau1, ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0,
        horizon_exceeded=exceeded,
    )
