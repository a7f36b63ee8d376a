"""Change-point detection on data streams.

Builds log-likelihood-ratio increments from a hypothesis pair (default
density f against disturbed density g), runs the offline CUSUM scan for
abrupt and transient changes, and offers a streaming monitor with
threshold alarms and multi-change resets.  The scan and the monitor share
one Lindley fold, ``monitor_run``: a Python loop on tiny batches and on
those holding a NaN; otherwise lanes folded in lockstep from a guess of
their entering state, then re-folded from the true state until they meet
it (in lockstep passes on short batches), with the loop's bits either way.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import orjson

from .errors import CusumkitError, UnsupportedValue
from .models import DiscreteTable, IncrementModel, NormalLLR

# data are matched to support points by round(x * _KEY_SCALE)
_KEY_SCALE = 1e9
# monitor times stay below this, so JSON writes them as 64-bit integers
_T_END = 2**63

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
        # the slope of llr; a sigma^2 that underflows to 0 leaves it undefined
        if not math.isfinite((self.theta1 - self.theta0) / (self.sigma**2 or math.nan)):
            raise ValueError(f"the llr slope (theta1 - theta0) / sigma^2 is not finite "
                             f"for theta0 = {self.theta0:g}, theta1 = {self.theta1:g}, "
                             f"sigma = {self.sigma:g}")

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
        return orjson.dumps({"w": self.w, "t": self.t, "running_max": self.running_max,
                             "alarms": self.alarms},
                            option=orjson.OPT_SERIALIZE_NUMPY).decode()

    @classmethod
    def from_json(cls, text: str | bytes) -> "CusumState":
        """The state ``to_json`` writes: w and running_max finite numbers >= 0,
        t an integer in [0, 2**63), alarms a list of [integer in [0, 2**63),
        finite number] pairs.  Anything else raises CusumkitError."""
        try:
            return cls._of(orjson.loads(text))
        except (orjson.JSONDecodeError, CusumkitError):
            pass
        # json words the refusal: orjson refuses NaN and Infinity, and reads
        # integers from 2**64 on as floats
        try:
            raw = json.loads(text)
        except ValueError as exc:
            raise CusumkitError(f"not JSON: {exc}") from None
        return cls._of(raw)

    @classmethod
    def _of(cls, raw) -> "CusumState":
        """The state a parsed JSON value holds, checked as ``from_json`` says."""
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
        if raw["t"] >= _T_END:
            raise CusumkitError(f"t must be below 2**63, got {raw['t']}")
        times, values = _alarm_columns(raw["alarms"])
        if times and not (min(times) >= 0 and max(times) < _T_END):
            raise CusumkitError("alarm times must lie in [0, 2**63)")
        return cls(w=float(raw["w"]), t=raw["t"], running_max=float(raw["running_max"]),
                   alarms=tuple(zip(times, map(float, values))))


def _alarm_columns(alarms) -> tuple[tuple, tuple]:
    """The times and the values of a JSON list of [integer, finite number]
    pairs (booleans are neither); anything else raises CusumkitError."""
    if type(alarms) is list and not alarms:
        return (), ()
    if (type(alarms) is list and set(map(type, alarms)) == {list}
            and set(map(len, alarms)) == {2}):
        times, values = zip(*alarms)
        kinds = set(map(type, values))
        if set(map(type, times)) == {int} and kinds <= _NUMBER_TYPES:
            # an integer just past the largest float would round down to it
            finite = all(map(_finite_number if int in kinds else math.isfinite, values))
            if finite:
                return times, values
    raise CusumkitError("alarms must be a list of [t, w] pairs")


_NUMBER_TYPES = frozenset((int, float))


def _finite_number(v) -> bool:
    """A JSON number (not a boolean) that converts to a finite float."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def monitor_run(
    state: CusumState, ys, h: float = math.inf
) -> tuple[CusumState, list[tuple[int, float]], np.ndarray]:
    """Fold a batch of increments through the streaming monitor.

    Applies the reflected recursion to each increment; when the updated
    value reaches h an alarm (time, value) is recorded and the statistic
    resets to zero so later changes are detected under the same familywise
    threshold.  Returns the new state, the alarms of this batch, and the
    path as a float64 array: W after each step, 0.0 after an alarm's reset.

    ``w += y`` then clamping when ``w < 0.0`` is the IEEE result of
    ``max(w + y, 0.0)``, -0.0 and NaN included, so any split of the
    increments into batches gives the same bits.  Batches shorter than
    ``_SHORT_MIN``, and batches holding a NaN increment (the NaN that the
    sum of two NaNs carries depends on the adder), run that loop one step
    at a time; longer ones run ``_lane_fold``, which gives the loop's bits:
    short lanes with lockstep correction passes below ``_LANE_MIN``, and
    about sqrt(n) lanes from there.  Short lanes that do not settle (a walk
    without a downward drift) hand the batch back to the loop.
    The running maximum is the largest value before a reset (NaN skipped),
    taken when it is above the old one: for a state whose running_max is
    not negative, the loop's ``w > top``.  A batch that would carry t to
    2**63 or past is refused with CusumkitError before any step.
    """
    y = np.asarray(ys, dtype=float)
    w, t, top = state.w, state.t, state.running_max
    if t + y.shape[0] >= _T_END:
        raise CusumkitError(f"t would reach {t + y.shape[0]}, past 2**63 - 1")
    folded = None
    if y.shape[0] >= _SHORT_MIN and not np.isnan(y).any():
        folded = _lane_fold(float(w), y, h)
    if folded is None:
        alarms: list[tuple[int, float]] = []
        path: list[float] = []
        record = path.append
        for v in y.tolist():
            w += v
            if w < 0.0:
                w = 0.0
            if w > top:
                top = w
            if w >= h:
                alarms.append((t + len(path) + 1, w))
                w = 0.0
            record(w)
        values = np.array(path, dtype=float)
    else:
        w, values = folded
        peak = np.fmax.reduce(values)
        if peak > top:
            top = float(peak)
        hits = np.flatnonzero(values >= h)
        alarms = list(zip((hits + (t + 1)).tolist(), values[hits].tolist()))
        values[hits] = 0.0
    new = CusumState(w=w, t=t + len(values), running_max=top,
                     alarms=state.alarms + tuple(alarms))
    return new, alarms, values


# Below _SHORT_MIN increments the fold is the scalar loop, below _LANE_MIN it
# runs lanes of _LANE steps with correction passes, and from there about
# sqrt(n) lanes and the walk alone.  Measured at 4 096 increments, short
# lanes take 0.3-0.45 of the loop's time at drift -0.5; on a walk whose
# lanes do not settle, the one pass before the loop takes over adds 10 %
# (20 % at 2 048).  Long lanes beat the loop from about 16 000 increments
# of a driftless walk, and 16-step lanes lose to them there.
_SHORT_MIN = 4096
_LANE_MIN = 16384
_LANE = 16
# at most _PASSES correction passes, while each settles half of the lanes it
# re-folds; more than 2/3 of the lanes unsettled after the first fold, or a
# quarter after a pass, hand the batch to the loop, and the rest to the walk
_PASSES = 4
_WALK_MAX = 16
# scalar steps per burst of the re-fold; runs of at least _QUIET_MIN steps
# without a clamp or an alarm switch it to cumsum runs
_BURST = 16
_QUIET_MIN = 32


def _lane_fold(w: float, y: np.ndarray, h: float) -> tuple[float, np.ndarray] | None:
    """The loop's values before each reset, and its final state, from w;
    None when short lanes do not settle and the loop should run instead.

    The increments are cut into contiguous lanes, and every lane is folded
    from +0.0 in lockstep over a transposed copy, by the loop's own
    operations.  The map from (w, y, h) to the next state is deterministic,
    so once the true state entering a step equals a lane's provisional one
    bit for bit, the rest of the lane is the true path.  A lane is settled
    when it was folded from the state its predecessor ends in (the first
    from w): then, by induction, every lane before the first unsettled one
    holds the true path.

    Long batches are cut into about sqrt(n) lanes.  Short ones are cut into
    lanes of _LANE steps, first folded without resets; correction passes
    then re-fold in lockstep, with resets, the lanes that reached h and
    those not settled, from the state their predecessors now end in (a
    -0.0, which ``np.maximum`` may not keep, is left to the walk).  The
    walk visits the unsettled lanes in order, carrying the true state, and
    ``_refold`` re-folds each from it until the two meet.  Under the
    pre-change law W returns to 0 every few steps, so they meet almost at
    once.  ``y`` holds no NaN, so no sum has two NaN operands.
    """
    n = y.shape[0]
    short = n < _LANE_MIN
    m = _LANE if short else -(-n // math.isqrt(n))  # steps per lane; the last may be shorter
    lanes = -(-n // m)
    full = (lanes - 1) * m
    grid = np.empty((m, lanes))
    grid[:, :-1] = y[:full].reshape(lanes - 1, m).T
    grid[: n - full, -1] = y[full:]
    grid[n - full:, -1] = math.nan  # w + nan neither clamps nor alarms
    steps = grid.copy() if short else None
    enter = np.zeros(lanes)  # the state each lane was folded from
    want = np.empty(lanes)  # the state its predecessor ends in
    want[0] = w
    passes = _PASSES if short else 0
    limit = 2 * lanes // 3 if short else lanes  # long lanes always go to the walk
    with np.errstate(over="ignore", invalid="ignore"):
        # without resets a pass costs a third as much
        _lockstep(grid, enter, math.nan if short else h)
        redo = (grid >= h).any(axis=0) if short else np.zeros(lanes, bool)
        while True:
            want[1:] = np.where(grid[-1, :-1] >= h, 0.0, grid[-1, :-1])
            moved = want.view(np.int64) != enter.view(np.int64)
            count = np.count_nonzero(moved | redo)
            if count > limit:  # the passes do not pay: the loop or the walk
                if 4 * count > lanes:
                    return None
                break
            if not passes or count <= _WALK_MAX and not redo.any():
                break
            limit, passes = count // 2, passes - 1
            moved &= want.view(np.int64) != _NEG_ZERO_BITS
            enter[moved] = want[moved]
            pick = np.flatnonzero(moved | redo)
            part = steps[:, pick]
            _lockstep(part, enter[pick], h)
            grid[:, pick] = part
            redo[:] = False
        values = np.empty(n)
        values[:full].reshape(lanes - 1, m)[...] = grid[:, :-1].T
        values[full:] = grid[: n - full, -1]
        del grid, steps
        enter = enter.tolist()
        done = 0
        for j in np.flatnonzero(moved).tolist():
            if j < done:  # reached by the walk already
                continue
            v = w if j == 0 else _after(values[j * m - 1], h)
            quiet = 0
            while j < lanes and not _same(v, enter[j]):
                v, quiet = _refold(v, quiet, y, values, j * m, min(j * m + m, n), h)
                j += 1
            done = j
    return _after(values[n - 1], h), values


_NEG_ZERO_BITS = np.array(-0.0).view(np.int64)


def _lockstep(grid: np.ndarray, start: np.ndarray, h: float) -> None:
    """Fold every column of ``grid`` from ``start`` in place, one row per
    step: each row becomes the lanes' values before any reset."""
    alarming = not math.isnan(h)
    prev = start
    for row in grid:
        np.add(prev, row, out=row)
        # the clamp where w < 0.0: a lane not folded from -0.0 never holds
        # it, and maximum returns a NaN operand as it is
        np.maximum(row, 0.0, out=row)
        prev = np.where(row >= h, 0.0, row) if alarming else row


def _same(a: float, b: float) -> bool:
    """a and b are the same float, the sign of a zero included (not NaN)."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _refold(w, quiet, y, values, i, stop, h) -> tuple[float, int]:
    """Fold y[i:stop] from the true state w, writing the true values into
    ``values``, until the state equals the lane's provisional one; return
    the true state after ``stop - 1`` and the count of steps since the last
    clamp or alarm (0 when the lane met).

    While the last clamp or alarm lies fewer than ``_QUIET_MIN`` steps back,
    the fold takes one step at a time.  Otherwise it takes ``np.cumsum`` of
    the next increments prefixed with w, which adds in the loop's order: up
    to the first sum below 0 or at h, the sums are the loop's states.
    """
    while i < stop:
        if quiet < _QUIET_MIN:
            j = min(i + _BURST, stop)
            out = []
            for k, (v, p) in enumerate(zip(y[i:j].tolist(), values[i:j].tolist()), i):
                w += v
                quiet += 1
                if w < 0.0:
                    w = 0.0
                    quiet = 0
                out.append(w)
                if w >= h:
                    w = 0.0
                    quiet = 0
                if p >= h:
                    p = 0.0
                if w == p and (w != 0.0 or math.copysign(1.0, w) > 0.0):
                    values[i:k + 1] = out
                    return _after(values[stop - 1], h), 0
            values[i:j] = out
            i = j
            continue
        j = min(i + 2 * quiet, stop)
        run = np.empty(j - i + 1)
        run[0] = w
        run[1:] = y[i:j]
        sums = np.cumsum(run)[1:]
        prov = values[i:j]
        prov = np.where(prov >= h, 0.0, prov)  # the lane's states after each step
        event = (sums < 0.0) | (sums >= h)
        halt = event | (sums.view(np.int64) == prov.view(np.int64))
        k = int(halt.argmax())
        if not halt[k]:
            values[i:j] = sums
            w = float(sums[-1])
            quiet += j - i
            i = j
            continue
        values[i:i + k] = sums[:k]
        w = float(sums[k])
        if not event[k]:  # met the lane's state
            values[i + k] = w
            return _after(values[stop - 1], h), 0
        if w < 0.0:
            w = 0.0
        values[i + k] = w
        if w >= h:
            w = 0.0
        quiet = 0
        i += k + 1
        p = float(prov[k])
        if w == p and (w != 0.0 or math.copysign(1.0, w) > 0.0):
            return _after(values[stop - 1], h), 0
    return w, quiet


def _after(value, h: float) -> float:
    """The state after a step whose value before any reset is ``value``."""
    return 0.0 if value >= h else float(value)


def monitor_step(
    state: CusumState, y: float, h: float = math.inf
) -> tuple[CusumState, tuple[int, float] | None]:
    """One step of the streaming monitor: ``monitor_run`` on one increment."""
    new, alarms, _ = monitor_run(state, (y,), h)
    return new, alarms[0] if alarms else None
