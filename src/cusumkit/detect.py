"""Change-point detection on data streams.

Builds log-likelihood-ratio increments from a hypothesis pair (default
density f against disturbed density g), runs the offline CUSUM scan for
abrupt and transient changes, and offers a streaming monitor with
threshold alarms and multi-change resets.  The scan and the monitor share
one Lindley fold, ``monitor_run``, over Python floats.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CusumkitError, UnsupportedValue
from .models import DiscreteTable, IncrementModel, NormalLLR

# data are matched to support points by round(x * _KEY_SCALE)
_KEY_SCALE = 1e9

__all__ = [
    "NormalPair",
    "DiscretePair",
    "CusumState",
    "DetectionReport",
    "llr_increments",
    "scan_offline",
    "monitor_run",
    "monitor_step",
]


@dataclass(frozen=True)
class NormalPair:
    """Normal mean-shift hypotheses: f = N(theta0, sigma), g = N(theta1, sigma)."""

    theta0: float
    theta1: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        if self.theta0 == self.theta1:
            raise ValueError("hypotheses must differ")

    @property
    def delta(self) -> float:
        """Standardized detectable difference |theta1 - theta0| / sigma."""
        return abs(self.theta1 - self.theta0) / self.sigma

    def increment_model(self) -> IncrementModel:
        """Law of the log-likelihood ratio under the default distribution."""
        return NormalLLR(delta=self.delta)

    def llr(self, data: np.ndarray) -> np.ndarray:
        shift = (self.theta1 - self.theta0) / self.sigma**2
        mid = 0.5 * (self.theta0 + self.theta1)
        return shift * (np.asarray(data, dtype=float) - mid)


@dataclass(frozen=True)
class DiscretePair:
    """Hypotheses over a shared finite support with pmfs f and g."""

    support: tuple[float, ...]
    f: tuple[float, ...]
    g: tuple[float, ...]

    def __post_init__(self):
        if not len(self.support) == len(self.f) == len(self.g):
            raise ValueError("support and both pmfs must have equal length")
        for name, pmf in (("f", self.f), ("g", self.g)):
            if any(p < 0.0 for p in pmf) or abs(sum(pmf) - 1.0) > 1e-12:
                raise ValueError(f"{name} must be a pmf summing to 1")
        for x, fp, gp in zip(self.support, self.f, self.g):
            if (fp == 0.0) != (gp == 0.0):  # log(g / f) would be +-inf
                raise ValueError(f"f and g must vanish together; support point "
                                 f"{x:g} has f = {fp:g}, g = {gp:g}")
        self._llr_lookup  # keys the support once, refusing shared keys

    def increment_model(self) -> IncrementModel:
        # Distinct support points can share one log-ratio value; merge
        # their f-probabilities so the table stays a valid distribution.
        acc: dict[float, float] = {}
        for fp, gp in zip(self.f, self.g):
            if fp > 0.0:
                y = math.log(gp / fp)
                acc[y] = acc.get(y, 0.0) + fp
        values = tuple(sorted(acc))
        return DiscreteTable(
            values=values, weights=tuple(acc[v] for v in values), llr=True
        )

    @cached_property
    def _llr_lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending data keys of the points with f > 0, and their log-ratios."""
        keys = np.rint(np.asarray(self.support, dtype=float) * _KEY_SCALE)
        if np.unique(keys).size < keys.size:
            raise ValueError(
                f"support points closer than 1/{_KEY_SCALE:g} share a data key"
            )
        live = [i for i, fp in enumerate(self.f) if fp > 0.0]
        ratios = np.array([math.log(self.g[i] / self.f[i]) for i in live])
        order = np.argsort(keys[live])
        return keys[live][order], ratios[order]

    def llr(self, data: np.ndarray) -> np.ndarray:
        keys, ratios = self._llr_lookup
        x = np.asarray(data, dtype=float)
        wanted = np.rint(x * _KEY_SCALE)
        pos = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
        miss = np.flatnonzero(keys[pos] != wanted)
        if miss.size:
            raise UnsupportedValue(
                f"datum {x[miss[0]]:g} has zero density under the default pmf"
            )
        return ratios[pos]


def llr_increments(pair, data) -> np.ndarray:
    """Y_i = log g(x_i) - log f(x_i) for each datum."""
    return pair.llr(np.asarray(data, dtype=float))


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of an offline scan over n increments."""

    n: int
    threshold: float
    statistic_final: float  # W_n, the abrupt-change statistic
    statistic_max: float  # max over [0, n] of W_b, the transient statistic
    detected: bool
    change_interval: tuple[int, int] | None  # (a_hat, b_hat], when detected
    path: np.ndarray = field(repr=False)  # W_0, ..., W_n


def scan_offline(increments, h: float) -> DetectionReport:
    """Full CUSUM scan of a batch of increments against threshold h.

    Reports both W_n and the running maximum.  When the maximum reaches h,
    the estimated change interval (a_hat, b_hat] is the argmax pair of
    S_b - S_a, ties broken by smallest b then largest a (the shortest,
    latest maximizing interval).
    """
    if not h > 0.0:
        raise ValueError(f"threshold must be positive, got {h:g}")
    y = np.asarray(increments, dtype=float)
    n = y.shape[0]
    # the path is the monitor's fold itself, so folding monitor_step over
    # the same increments matches it bit for bit; W >= nan never alarms
    _, _, path = monitor_run(CusumState(), y, math.nan)
    w = np.empty(n + 1)
    w[0] = 0.0
    w[1:] = path
    stat_max = float(np.max(w))
    detected = stat_max >= h
    interval = None
    if detected and n > 0:
        s = np.concatenate(([0.0], np.cumsum(y)))
        b_hat = int(np.argmax(w))  # first index attaining the max
        lo = np.min(s[: b_hat + 1])
        candidates = np.nonzero(s[:b_hat] == lo)[0]
        a_hat = int(candidates[-1])  # largest minimizing start
        interval = (a_hat, b_hat)
    return DetectionReport(
        n=n,
        threshold=h,
        statistic_final=float(w[-1]),
        statistic_max=stat_max,
        detected=detected,
        change_interval=interval,
        path=w,
    )


@dataclass(frozen=True)
class CusumState:
    """Streaming monitor state; immutable, JSON round-trippable."""

    w: float = 0.0
    t: int = 0
    running_max: float = 0.0
    alarms: tuple[tuple[int, float], ...] = ()

    def to_json(self) -> str:
        return json.dumps(
            {
                "w": self.w,
                "t": self.t,
                "running_max": self.running_max,
                "alarms": [[t, v] for t, v in self.alarms],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "CusumState":
        """The state ``to_json`` writes: w and running_max finite numbers >= 0,
        t an integer >= 0, alarms a list of [integer, finite number] pairs.
        Anything else raises CusumkitError."""
        try:
            raw = json.loads(text)
        except ValueError as exc:
            raise CusumkitError(f"not JSON: {exc}") from None
        if type(raw) is not dict:
            raise CusumkitError("not a JSON object")
        for k in ("w", "t", "running_max", "alarms"):
            if k not in raw:
                raise CusumkitError(f"missing field {k!r}")
        for k in ("w", "running_max"):
            if not (_finite_number(raw[k]) and raw[k] >= 0):
                raise CusumkitError(f"{k} must be a finite number >= 0, got {raw[k]!r}")
        if not (type(raw["t"]) is int and raw["t"] >= 0):
            raise CusumkitError(f"t must be an integer >= 0, got {raw['t']!r}")
        alarms = raw["alarms"]
        if type(alarms) is not list or not all(
                type(a) is list and len(a) == 2 and type(a[0]) is int
                and _finite_number(a[1]) for a in alarms):
            raise CusumkitError("alarms must be a list of [t, w] pairs")
        return cls(w=float(raw["w"]), t=raw["t"], running_max=float(raw["running_max"]),
                   alarms=tuple((t, float(v)) for t, v in alarms))


def _finite_number(v) -> bool:
    """A JSON number (not a boolean) that converts to a finite float."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def monitor_run(
    state: CusumState, ys, h: float = math.inf
) -> tuple[CusumState, list[tuple[int, float]], list[float]]:
    """Fold a batch of increments through the streaming monitor.

    Applies the reflected recursion to each increment; when the updated
    value reaches h an alarm (time, value) is recorded and the statistic
    resets to zero so later changes are detected under the same familywise
    threshold.  Returns the new state, the alarms of this batch, and the
    path: W after each step, 0.0 after an alarm's reset.

    ``w += y`` then clamping when ``w < 0.0`` is the IEEE result of
    ``max(w + y, 0.0)``, -0.0 and NaN included, so any split of the
    increments into batches gives the same bits.
    """
    w, t, top = state.w, state.t, state.running_max
    alarms: list[tuple[int, float]] = []
    path: list[float] = []
    record = path.append
    for y in np.asarray(ys, dtype=float).tolist():
        w += y
        if w < 0.0:
            w = 0.0
        if w > top:
            top = w
        if w >= h:
            alarms.append((t + len(path) + 1, w))
            w = 0.0
        record(w)
    new = CusumState(w=w, t=t + len(path), running_max=top,
                     alarms=state.alarms + tuple(alarms))
    return new, alarms, path


def monitor_step(
    state: CusumState, y: float, h: float = math.inf
) -> tuple[CusumState, tuple[int, float] | None]:
    """One step of the streaming monitor: ``monitor_run`` on one increment."""
    new, alarms, _ = monitor_run(state, (y,), h)
    return new, alarms[0] if alarms else None
