import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cusumkit
from cusumkit import detect, models
from cusumkit.errors import CusumkitError, UnsupportedValue

from _oracles import brute_max_increment_span, monitor_run_loop, monitor_step_max


class TestLlrIncrements:
    def test_identical_densities_give_zero(self):
        pair = detect.DiscretePair((0.0, 1.0), (0.5, 0.5), (0.5, 0.5))
        np.testing.assert_array_equal(
            detect.llr_increments(pair, [0.0, 1.0, 0.0]), [0.0, 0.0, 0.0]
        )

    def test_normal_midpoint_is_zero(self):
        pair = detect.NormalPair(theta0=0.0, theta1=1.0, sigma=1.0)
        assert detect.llr_increments(pair, [0.5])[0] == pytest.approx(0.0, abs=1e-15)

    def test_normal_at_alternative_mean(self):
        pair = detect.NormalPair(theta0=0.0, theta1=1.0, sigma=1.0)
        # x = theta1 gives Y = delta^2/2
        assert detect.llr_increments(pair, [1.0])[0] == pytest.approx(0.5)

    def test_increment_model_is_standardized(self):
        pair = detect.NormalPair(theta0=2.0, theta1=5.0, sigma=2.0)
        m = pair.increment_model()
        assert isinstance(m, models.NormalLLR)
        assert m.delta == pytest.approx(1.5)

    def test_discrete_pair_unit_exp_moment(self):
        pair = detect.DiscretePair(
            (0.0, 1.0, 2.0), (0.5, 0.3, 0.2), (0.2, 0.3, 0.5)
        )
        m = pair.increment_model()
        assert m.mgf(1.0) == pytest.approx(1.0, abs=1e-9)
        assert m.is_llr

    def test_discrete_pair_merges_equal_ratios(self):
        pair = detect.DiscretePair(
            (0.0, 1.0, 2.0), (0.25, 0.25, 0.5), (0.125, 0.125, 0.75)
        )
        m = pair.increment_model()
        # points 0 and 1 share log(1/2); the table merges them
        assert len(m.values) == 2
        assert m.weights[m.values.index(math.log(0.5))] == pytest.approx(0.5)

    def test_datum_outside_support(self):
        pair = detect.DiscretePair((0.0, 1.0), (0.5, 0.5), (0.25, 0.75))
        with pytest.raises(UnsupportedValue):
            detect.llr_increments(pair, [2.0])

    @pytest.mark.parametrize("data", [[1.0, 0.0, 0.5], [-1.0], [0.0, 1.0 + 1e-8],
                                      [1.0, np.nan], [np.inf, 0.0], [5.0]],
                             ids=["between", "below", "off-key", "nan", "inf", "zero-f"])
    def test_off_support_data_rejected(self, data):
        pair = detect.DiscretePair((0.0, 1.0, 5.0), (0.5, 0.5, 0.0), (0.25, 0.75, 0.0))
        with pytest.raises(UnsupportedValue):
            detect.llr_increments(pair, data)

    def test_llr_matches_per_datum_lookup(self):
        # the per-datum dictionary lookup the array search replaced
        def reference(pair, data):
            lookup = {round(x * 1e9): math.log(gp / fp)
                      for x, fp, gp in zip(pair.support, pair.f, pair.g) if fp > 0.0}
            return np.array([lookup[round(x * 1e9)] for x in data])

        gen = np.random.default_rng(3)
        support = (-2.5, 0.1, 0.3, 1e-9, 7.0, 1234.5678, 3e6)
        f = gen.dirichlet(np.ones(len(support)))
        g = gen.dirichlet(np.ones(len(support)))
        pair = detect.DiscretePair(support, tuple(f), tuple(g))
        data = gen.choice(support, size=500)
        data[:3] = (0.1 + 0.2, 0.3 + 2e-10, 1e-9 - 4e-10)  # within 0.5e-9 of a point
        want = reference(pair, data)
        got = detect.llr_increments(pair, data)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert detect.llr_increments(pair, []).shape == (0,)

    def test_support_points_sharing_a_key_rejected(self):
        with pytest.raises(ValueError, match="share"):
            detect.DiscretePair((0.0, 1.0, 1.0 + 1e-10), (0.5, 0.25, 0.25),
                                (0.25, 0.5, 0.25))

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            detect.NormalPair(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            detect.NormalPair(0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="support point 1 has f = 0, g = 0.5"):
            detect.DiscretePair((0.0, 1.0), (1.0, 0.0), (0.5, 0.5))
        with pytest.raises(ValueError, match="support point 2 has f = 0.25, g = 0"):
            detect.DiscretePair((0.0, 1.0, 2.0), (0.5, 0.25, 0.25), (0.5, 0.5, 0.0))


class TestScanOffline:
    def test_all_zero_increments(self):
        rep = detect.scan_offline(np.zeros(10), h=0.5)
        assert rep.statistic_max == 0.0
        assert not rep.detected
        assert rep.change_interval is None

    def test_hand_traced_example(self):
        rep = detect.scan_offline([1.0, 1.0, -5.0, 1.0], h=1.5)
        assert rep.statistic_max == 2.0
        assert rep.statistic_final == 1.0
        assert rep.detected
        assert rep.change_interval == (0, 2)
        np.testing.assert_array_equal(rep.path, [0.0, 1.0, 2.0, 0.0, 1.0])

    def test_tie_breaking_smallest_b_largest_a(self):
        # two maximizing windows: (0,1] and after the reset (2,3]
        rep = detect.scan_offline([1.0, -1.0, -1.0, 1.0], h=0.5)
        assert rep.change_interval == (0, 1)  # first b attaining the max
        # equal prefix minima: the latest minimizing start is chosen
        rep2 = detect.scan_offline([0.0, 1.0], h=0.5)
        assert rep2.change_interval == (1, 2)

    def test_max_equals_brute_force_span(self):
        gen = np.random.default_rng(8)
        for _ in range(20):
            y = gen.normal(-0.2, 1.0, size=50)
            rep = detect.scan_offline(y, h=1e9)
            assert rep.statistic_max == pytest.approx(
                brute_max_increment_span(y), abs=1e-12
            )

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            detect.scan_offline([1.0], h=0.0)

    def test_nan_threshold_refused(self):
        with pytest.raises(ValueError, match="threshold must be positive, got nan"):
            detect.scan_offline([1.0], h=math.nan)

    def test_overflow_to_inf(self):
        # the scan keeps W = +inf in its path; it never alarms and resets
        with np.errstate(over="ignore"):
            rep = detect.scan_offline([1e308, 1e308, -1.0], h=1.0)
        assert rep.path.tolist() == [0.0, 1e308, math.inf, math.inf]
        assert rep.statistic_max == rep.statistic_final == math.inf
        assert rep.detected and rep.change_interval == (0, 2)


class TestMonitor:
    def test_reflection_at_zero(self):
        state, alarm = detect.monitor_step(detect.CusumState(), -2.0)
        assert state.w == 0.0 and alarm is None

    def test_alarm_and_reset(self):
        state = detect.CusumState(w=1.4, t=10, running_max=1.4)
        state, alarm = detect.monitor_step(state, 0.2, h=1.5)
        assert alarm == (11, pytest.approx(1.6))
        assert state.w == 0.0
        assert state.alarms == (alarm,)

    def test_fold_reproduces_offline_path(self):
        gen = np.random.default_rng(3)
        for _ in range(10):
            y = gen.normal(-0.3, 1.0, size=200)
            rep = detect.scan_offline(y, h=1e9)
            state = detect.CusumState()
            path = [0.0]
            for inc in y:
                state, _ = detect.monitor_step(state, float(inc))
                path.append(state.w)
            np.testing.assert_array_equal(np.asarray(path), rep.path)
            assert state.running_max == rep.statistic_max

    def test_state_json_round_trip(self):
        state = detect.CusumState(
            w=0.75, t=42, running_max=3.25, alarms=((7, 2.5), (30, 3.25))
        )
        again = detect.CusumState.from_json(state.to_json())
        assert again == state

    @given(w=st.floats(0.0, allow_infinity=False), top=st.floats(0.0, allow_infinity=False),
           t=st.integers(0, 2**63 - 1),
           alarms=st.lists(st.tuples(st.integers(0, 2**63 - 1),
                                     st.floats(allow_nan=False, allow_infinity=False)),
                           max_size=40))
    def test_state_json_round_trip_of_any_alarms(self, w, top, t, alarms):
        state = detect.CusumState(w=w, t=t, running_max=top, alarms=tuple(alarms))
        text = state.to_json()
        again = detect.CusumState.from_json(text)
        assert repr(again) == repr(state)  # -0.0 keeps its sign
        assert detect.CusumState.from_json(text.encode()) == state

    def test_state_written_by_earlier_releases_still_loads(self):
        # 0.6.1 wrote the state with json.dumps: spaces after separators,
        # and floats such as 1e+16 in repr's form
        text = ('{"w": 0.75, "t": 42, "running_max": 1e+16, '
                '"alarms": [[7, 2.5], [30, 1e+16], [41, 3]]}')
        state = detect.CusumState.from_json(text)
        assert repr(state) == repr(detect.CusumState(
            w=0.75, t=42, running_max=1e16, alarms=((7, 2.5), (30, 1e16), (41, 3.0))))
        assert detect.CusumState.from_json(state.to_json()) == state
        assert state.to_json() == ('{"w":0.75,"t":42,"running_max":1e16,'
                                   '"alarms":[[7,2.5],[30,1e16],[41,3.0]]}')

    def test_time_past_int64_refused(self):
        # times are written as JSON integers, which hold at most 2**63 - 1
        state = detect.CusumState(t=2**63 - 2)
        state, _ = detect.monitor_step(state, 1.0)
        assert state.t == 2**63 - 1
        with pytest.raises(CusumkitError, match=r"t would reach 9223372036854775808"):
            detect.monitor_step(state, 1.0)
        for t, alarms in ((2**63, ()), (0, ((2**63, 1.0),))):
            text = detect.CusumState(t=t, alarms=alarms).to_json()
            with pytest.raises(CusumkitError):
                detect.CusumState.from_json(text)

    def test_multi_change_alarms_accumulate(self):
        state = detect.CusumState()
        alarms = []
        for y in (2.0, -0.5, 2.0, 2.0):
            state, alarm = detect.monitor_step(state, y, h=1.5)
            if alarm:
                alarms.append(alarm)
        assert [t for t, _ in alarms] == [1, 3, 4]
        assert state.alarms == tuple(alarms)


# increments with exact zeros of both signs, NaN, values that cancel, and a
# range wide enough that small thresholds alarm often and large ones never
_increment = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, math.nan]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=True),
)
_threshold = st.one_of(
    st.sampled_from([1e-9, 0.5, 1.0, 3.0, 1e300, math.inf]),
    st.floats(1e-6, 1e4),
)


def _split(ys, cuts):
    edges = sorted({min(c, len(ys)) for c in cuts} | {0, len(ys)})
    return [ys[a:b] for a, b in zip(edges, edges[1:])]


class TestMonitorRun:
    @given(ys=st.lists(_increment, max_size=60), h=_threshold,
           cuts=st.lists(st.integers(0, 60), max_size=6),
           w0=st.sampled_from([0.0, -0.0, 0.25]))
    def test_batches_equal_step_fold_bit_for_bit(self, ys, h, cuts, w0):
        start = detect.CusumState(w=w0, t=5, running_max=w0, alarms=((2, 9.0),))
        # the step fold, and the max-form reference on plain values
        state, steps, step_path = start, [], []
        ref = (w0, 5, w0, ((2, 9.0),))
        for y in ys:
            state, alarm = detect.monitor_step(state, y, h)
            ref, ref_alarm = monitor_step_max(*ref, y, h)
            assert repr(alarm) == repr(ref_alarm)
            if alarm is not None:
                steps.append(alarm)
            step_path.append(state.w)
        assert repr((state.w, state.t, state.running_max, state.alarms)) == repr(ref)
        # any split into batches gives the same state, alarms and path
        batched, alarms, path = start, [], []
        for batch in _split(ys, cuts):
            batched, new, part = detect.monitor_run(batched, np.array(batch), h)
            alarms += new
            path += part.tolist()
        assert repr(batched) == repr(state)
        assert repr(alarms) == repr(steps)
        assert repr(path) == repr(step_path)

    @given(ys=st.lists(_increment, max_size=80))
    def test_scan_path_is_fold_at_infinite_h(self, ys):
        _, alarms, path = detect.monitor_run(detect.CusumState(), ys)
        assert alarms == []
        rep = detect.scan_offline(ys, h=1e300)
        assert rep.path.tobytes() == np.array([0.0, *path]).tobytes()

    def test_empty_batch_keeps_state(self):
        state = detect.CusumState(w=1.5, t=7, running_max=2.0, alarms=((3, 2.0),))
        again, alarms, path = detect.monitor_run(state, [], h=1.0)
        assert again == state and alarms == [] and path.tolist() == []
        assert path.dtype == np.float64

    def test_path_records_post_reset_value(self):
        _, alarms, path = detect.monitor_run(detect.CusumState(), [1.0, 1.0, -3.0, 2.0],
                                             h=1.5)
        assert alarms == [(2, 2.0), (4, 2.0)]
        assert path.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_exported_by_the_package(self):
        state, alarms, path = cusumkit.monitor_run(cusumkit.CusumState(),
                                                   [1.0, 2.5, -4.0], 3.0)
        assert alarms == [(2, 3.5)] and path.tolist() == [1.0, 0.0, 0.0]
        assert state == cusumkit.CusumState(w=0.0, t=3, running_max=3.5,
                                            alarms=((2, 3.5),))

    def test_many_alarms_in_one_batch(self):
        k = 20_000
        start = detect.CusumState(alarms=((1, 4.0),), t=1, running_max=4.0)
        ys = np.full(2 * k, 0.75)  # every second step reaches h
        state, alarms, _ = detect.monitor_run(start, ys, h=1.5)
        assert len(alarms) == k and len(state.alarms) == k + 1
        assert state.alarms[0] == (1, 4.0)
        assert alarms[-1] == state.alarms[-1] == (1 + 2 * k, 1.5)
        assert (state.t, state.w) == (1 + 2 * k, 0.0)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def _stream(rng, n, kind, drift, specials):
    """n increments: normal with a drift, the same after a run of -0.0 (which
    keeps a start at -0.0 there), with a drift that flips sign mid-stream,
    or a symmetric log-ratio lattice +-log c whose sums return to 0 up to
    rounding; then ``specials`` of +-0.0, nan and +-inf."""
    if kind in ("drift", "zeros"):
        y = rng.standard_normal(n) + drift
        if kind == "zeros":
            y[: rng.integers(0, n + 1)] = -0.0
    elif kind == "flip":
        y = rng.standard_normal(n) + np.where(np.arange(n) < rng.integers(0, n + 1),
                                              drift, -drift)
    else:
        step = math.log(4.0 if kind == "log4" else 1.5)
        y = np.where(rng.random(n) < 0.5 + 0.4 * drift, step, -step)
    if n:
        at = rng.integers(0, n, len(specials))
        y[at] = specials
    return y


_LANE_MIN, _SHORT_MIN, _LANE = detect._LANE_MIN, detect._SHORT_MIN, detect._LANE


class TestLaneFold:
    """``monitor_run`` on batches from ``_SHORT_MIN`` increments runs the lane
    fold; it must give the one-step loop's path, state and alarms bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([0, 500, _SHORT_MIN - 1, _SHORT_MIN, _SHORT_MIN + 1,
                              300 * _LANE - 1, 300 * _LANE, 300 * _LANE + 1, 5000,
                              _LANE_MIN - 1, _LANE_MIN, _LANE_MIN + 1, 3 * _LANE_MIN]),
           kind=st.sampled_from(["drift", "zeros", "flip", "log4", "log1.5"]),
           drift=st.floats(-1.0, 1.0),
           specials=st.lists(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
                             max_size=4),
           h=st.sampled_from([math.nan, math.inf, 0.5, 1.0, 3.0]),
           w0=st.sampled_from([0.0, -0.0, 0.3, 40.0]),
           top0=st.sampled_from([0.0, 2.0, 100.0]),
           cuts=st.lists(st.integers(0, 3 * _LANE_MIN), max_size=3),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_loop_bit_for_bit(self, n, kind, drift, specials, h, w0, top0, cuts, seed):
        y = _stream(np.random.default_rng(seed), n, kind, drift, specials)
        start = detect.CusumState(w=w0, t=3, running_max=max(w0, top0), alarms=((1, 9.0),))
        want, want_alarms, want_path = monitor_run_loop(start, y, h)
        got, alarms, path = detect.monitor_run(start, y, h)
        assert path.dtype == np.float64
        assert (_bits(path) == _bits(want_path)).all() and len(path) == n
        assert got.t == want.t and got.alarms == want.alarms
        assert _bits([got.w, got.running_max]).tolist() == _bits([want.w, want.running_max]).tolist()
        assert [t for t, _ in alarms] == [t for t, _ in want_alarms]
        assert _bits([v for _, v in alarms]).tolist() == _bits([v for _, v in want_alarms]).tolist()
        # any split into batches, some of them long enough for lanes
        state, parts = start, []
        for batch in _split(y, cuts):
            state, _, part = detect.monitor_run(state, batch, h)
            parts.append(part)
        assert (_bits(np.concatenate([np.empty(0), *parts])) == _bits(want_path)).all()
        assert _bits([state.w, state.running_max]).tolist() == _bits([want.w, want.running_max]).tolist()
        assert state.t == want.t and state.alarms == want.alarms

    @pytest.mark.parametrize("at", [100, -50])
    def test_nan_meets_nan(self, at):
        # inf - inf is one NaN and the data's nan another; which of the two
        # their sum keeps depends on the adder (numpy's vector body and its
        # scalar tail differ), so such a batch runs the loop.  Of the 257
        # lanes of 66 536 increments the first is in the vector body and the
        # last in the tail.
        y = np.random.default_rng(5).standard_normal(66_536) - 0.5
        y[at:at + 4 or None] = [math.inf, -math.inf, math.nan, 1.0]
        # h = nan, as in a scan: at h = 3 the inf would alarm and reset
        want, _, want_path = monitor_run_loop(detect.CusumState(), y, math.nan)
        got, _, path = detect.monitor_run(detect.CusumState(), y, math.nan)
        assert (_bits(path) == _bits(want_path)).all()
        assert _bits([got.w, got.running_max]).tolist() == _bits([want.w, want.running_max]).tolist()

    @pytest.mark.parametrize("tail", ["normal", "zeros"])
    def test_start_at_negative_zero(self, tail):
        # -0.0 + -0.0 stays -0.0, which a lane folded from +0.0 never holds:
        # equal as floats, the two states must not meet
        n = 2 * _LANE_MIN
        y = np.random.default_rng(6).standard_normal(n) - 0.5 if tail == "normal" else np.zeros(n)
        y[: n // 2 + 77] = -0.0
        start = detect.CusumState(w=-0.0, running_max=-0.0)
        want, want_alarms, want_path = monitor_run_loop(start, y, 3.0)
        got, alarms, path = detect.monitor_run(start, y, 3.0)
        assert (_bits(path) == _bits(want_path)).all()
        assert _bits([got.w, got.running_max]).tolist() == _bits([want.w, want.running_max]).tolist()
        assert repr((got, alarms)) == repr((want, want_alarms))

    @pytest.mark.parametrize("drift, scale, h", [
        (-0.5, 1.0, math.nan), (0.0, 1.0, math.nan), (0.5, 1.0, math.nan), (-0.5, 1.0, 3.0),
        (0.5, 1.0, 3.0), (0.0, 1.0, 0.0), (0.002, 0.05, 3.0), (0.0, 0.05, 3.0),
    ], ids=["pre-change", "in-control", "post-change", "pre-change-h3", "post-change-h3", "h0",
            "slow-h3", "slow-in-control-h3"])
    def test_long_stream(self, drift, scale, h):
        # lanes that meet at once, late or never; an h = 0 that alarms on
        # every step; small steps, whose long runs between a clamp and an
        # alarm go through cumsum
        y = np.random.default_rng(11).standard_normal(5 * _LANE_MIN) * scale + drift
        assert detect._lane_fold(0.0, y, h) is not None  # long lanes never go back to the loop
        want, want_alarms, want_path = monitor_run_loop(detect.CusumState(), y, h)
        got, alarms, path = detect.monitor_run(detect.CusumState(), y, h)
        assert (_bits(path) == _bits(want_path)).all()
        assert repr((got, alarms)) == repr((want, want_alarms))

    @pytest.mark.parametrize("drift, h, w0, handed_back", [
        (-0.5, 3.0, 0.0, False), (-0.5, math.nan, 7.5, False), (-0.375, 3.0, 0.0, False),
        (0.0, math.inf, 0.0, True), (0.5, 3.0, 0.0, True), (0.0, 0.0, 0.0, True),
        (-0.5, 3.0, -0.0, False),
    ], ids=["pre-change-h3", "pre-change-scan", "slow-drift-h3", "driftless-inf",
            "post-change-h3", "h0", "negative-zero"])
    def test_short_batch(self, drift, h, w0, handed_back):
        # 5 000 increments with a 400-step change in the middle: lanes that
        # settle after one or two correction passes and the walk, lanes that
        # never settle and go back to the loop (a driftless walk at h = inf,
        # or h = 0, where every step alarms), and a start at -0.0 kept by a
        # run of -0.0, from which no lockstep pass may fold
        y = np.random.default_rng(12).standard_normal(5000) + drift
        y[2000:2400] += 1.0
        if w0 == 0.0 and math.copysign(1.0, w0) < 0.0:
            y[:1000] = -0.0
        assert (detect._lane_fold(w0, y, h) is None) == handed_back
        start = detect.CusumState(w=w0, t=3, running_max=abs(w0))
        want, want_alarms, want_path = monitor_run_loop(start, y, h)
        got, alarms, path = detect.monitor_run(start, y, h)
        assert (_bits(path) == _bits(want_path)).all()
        assert _bits([got.w, got.running_max]).tolist() == _bits([want.w, want.running_max]).tolist()
        assert repr((got, alarms)) == repr((want, want_alarms))
