import math

import numpy as np
import pytest

from cusumkit import detect, models
from cusumkit.errors import UnsupportedValue

from _oracles import brute_max_increment_span


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
        with pytest.raises(ValueError):
            detect.DiscretePair((0.0, 1.0), (1.0, 0.0), (0.5, 0.5))


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

    def test_multi_change_alarms_accumulate(self):
        state = detect.CusumState()
        alarms = []
        for y in (2.0, -0.5, 2.0, 2.0):
            state, alarm = detect.monitor_step(state, y, h=1.5)
            if alarm:
                alarms.append(alarm)
        assert [t for t, _ in alarms] == [1, 3, 4]
        assert state.alarms == tuple(alarms)
