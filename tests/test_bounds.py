import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from cusumkit import bounds, models, moments, simulate
from cusumkit.errors import (
    DivergentMoment,
    InvalidAlpha,
    NotSupportedModel,
    UnstableQueue,
)

from _oracles import fixed_point_k_brentq, lower_bound_argmax_loop, segment_lower_bound


def _bound_at_fixed_point(delta, n, alpha):
    """The segment bound at the published single-k approximation, the
    fixed point rounded into [1, n]."""
    k = max(1, min(n, int(round(fixed_point_k_brentq(delta, n)))))
    return segment_lower_bound(delta, n, alpha, k)


@pytest.fixture(scope="module")
def nllr():
    return models.NormalLLR(1.0)


class TestSandwich:
    @pytest.mark.parametrize(
        "model",
        [
            models.NormalLLR(0.5),
            models.NormalLLR(2.0),
            models.ShiftedNormal(-0.5, 1.0),
            models.BernoulliPM(1.0 / (1.0 + math.e)),
        ],
        ids=["llr-half", "llr-two", "shifted", "bernoulli"],
    )
    def test_critical_moment_between_one_and_linear_caps(self, model):
        lam_star = models.cached_lambda_star(model)
        n = 200
        vals = moments.cusum_mgf_recursive(model, lam_star, n).values
        for k in range(n + 1):
            upper = bounds.exp_moment_upper(model, k)
            assert 1.0 <= vals[k] <= upper + 1e-12
            assert upper <= k + 1.0 + 1e-12

    def test_tail_upper_clamped(self, nllr):
        assert bounds.max_tail_upper(nllr, 1000, 0.0) == 1.0
        assert 0.0 < bounds.max_tail_upper(nllr, 100, 10.0) < 1.0


class TestUpperThresholds:
    def test_ub2_closed_form(self, nllr):
        got = bounds.threshold_ub(nllr, 500, 0.05, "ub2")
        assert got == pytest.approx(math.log(501 / 0.05), rel=1e-14)

    def test_ordering_ub1_ub3_ub2(self):
        for delta in (0.25, 1.0, 3.0):
            m = models.NormalLLR(delta)
            for n in (10, 200):
                u1 = bounds.threshold_ub(m, n, 0.05, "ub1")
                u3 = bounds.threshold_ub(m, n, 0.05, "ub3")
                u2 = bounds.threshold_ub(m, n, 0.05, "ub2")
                assert u1 <= u3 + 1e-12 <= u2 + 1e-12

    def test_general_model_rescaled_by_lambda_star(self):
        m = models.ShiftedNormal(-0.5, 1.0)
        lam_star = models.cached_lambda_star(m)
        got = bounds.threshold_ub(m, 100, 0.05, "ub2")
        assert got == pytest.approx(math.log(101 / 0.05) / lam_star, rel=1e-13)

    def test_alpha_validated(self, nllr):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(InvalidAlpha):
                bounds.threshold_ub(nllr, 10, bad, "ub2")
        with pytest.raises(ValueError):
            bounds.threshold_ub(nllr, 10, 0.05, "ub9")

    def test_normal_llr_delta_80_lambda_star_is_one(self):
        # P(Y > 0) = Phi(-40) underflows to 0.0, yet lambda* = 1 exactly
        m = models.NormalLLR(80.0)
        assert m.prob_positive() == 0.0
        assert m.lambda_star() == 1.0
        got = {v: bounds.threshold_ub(m, 10, 0.05, v) for v in ("ub1", "ub2", "ub3")}
        assert all(map(math.isfinite, got.values()))
        # x_k = 2 Phi(40 sqrt(k)) = 2, so M_n = n + 1 and D = 1: all three agree
        for v in ("ub1", "ub3"):
            assert got[v] == pytest.approx(got["ub2"], rel=1e-12)

    def test_normal_llr_delta_80_ub1_le_ub3_le_ub2_exactly(self):
        # D = 1, and the float M_10(1) comes out 3.2e-13 relative above
        # 1 + nD = 11, so ub1 takes the smaller of the two valid levels
        m = models.NormalLLR(80.0)
        assert moments.cusum_mgf_recursive(m, 1.0, 10).values[10] > 11.0
        got = {v: bounds.threshold_ub(m, 10, 0.05, v) for v in ("ub1", "ub2", "ub3")}
        assert got["ub1"] <= got["ub3"] <= got["ub2"]

    @pytest.mark.parametrize("variant", ["ub1", "ub2", "ub3"])
    def test_negative_horizon_refused(self, nllr, variant):
        with pytest.raises(ValueError, match=r"^n must be >= 0, got -3$"):
            bounds.threshold_ub(nllr, -3, 0.05, variant)
        with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
            bounds.exp_moment_upper(nllr, -1)


class TestLowerThresholds:
    def test_lb1_dominates_lb2(self, nllr):
        detail = bounds.lower_bound_detail(nllr, 500, 0.05)
        assert detail.lb1 >= detail.lb2
        assert 1 <= detail.k1 <= 500
        assert detail.lb1 >= _bound_at_fixed_point(nllr.delta, 500, 0.05) - 1e-12

    def test_fixed_point_below_every_float_rounds_to_zero(self):
        # the root is near n exp(-delta^2 / 8) = 10 exp(-800)
        detail = bounds.lower_bound_detail(models.NormalLLR(80.0), 10, 0.05)
        assert fixed_point_k_brentq(80.0, 10) == 0.0
        assert _bound_at_fixed_point(80.0, 10, 0.05) == detail.lb2 == detail.lb1

    def test_normal_only(self):
        with pytest.raises(NotSupportedModel):
            bounds.threshold_lb(models.BernoulliPM(0.2), 100, 0.05, "lb1")

    def test_threshold_is_the_detail_envelope(self, nllr):
        detail = bounds.lower_bound_detail(nllr, 300, 0.01)
        assert bounds.threshold_lb(nllr, 300, 0.01, "lb1") == detail.lb1
        assert bounds.threshold_lb(nllr, 300, 0.01, "lb2") == detail.lb2

    def test_variant_names(self, nllr):
        with pytest.raises(ValueError):
            bounds.threshold_lb(nllr, 10, 0.05, "lb9")

    @given(delta=st.floats(0.01, 80.0), n=st.integers(1, 3000),
           alpha=st.floats(1e-9, 0.5))
    @settings(max_examples=200, deadline=None)
    def test_envelope_matches_loop(self, delta, n, alpha):
        detail = bounds.lower_bound_detail(models.NormalLLR(delta), n, alpha)
        assert (detail.lb1, detail.k1) == lower_bound_argmax_loop(delta, n, alpha)
        assert detail.lb2 == segment_lower_bound(delta, n, alpha, 1)
        assert detail.lb1 >= _bound_at_fixed_point(delta, n, alpha)

    @pytest.mark.parametrize("alpha", [1e-17, 1e-20, 1e-300])
    @pytest.mark.parametrize("n", [10, 2000])
    def test_alpha_below_rounding_gives_finite_bounds(self, nllr, n, alpha):
        # 1 - alpha rounds to 1, so (1 - alpha)^(1/s) does too
        detail = bounds.lower_bound_detail(nllr, n, alpha)
        assert math.isfinite(detail.lb1) and math.isfinite(detail.lb2)
        assert detail.lb2 <= detail.lb1 <= bounds.threshold_ub(nllr, n, alpha, "ub1")
        assert (detail.lb1, detail.k1) == lower_bound_argmax_loop(1.0, n, alpha)
        delta = nllr.delta
        for h, k in ((detail.lb2, 1), (detail.lb1, detail.k1)):
            z = (h + k * delta**2 / 2.0) / (delta * math.sqrt(k))
            assert z == pytest.approx(-float(ndtri(alpha / (n // k))), rel=1e-12)

    def test_small_alpha_keeps_its_digits(self, nllr):
        # q = (1 - 1e-15)^(1/10) lies 1e-16 below 1, where ndtri(q) kept
        # about 3 digits (lb2 = 7.70954); ndtri_exp(log q) keeps them all
        lb2 = bounds.lower_bound_detail(nllr, 10, 1e-15).lb2
        assert lb2 == pytest.approx(-float(ndtri(1e-16)) - 0.5, rel=1e-12)

    @pytest.mark.parametrize("n", [0, -2])
    def test_empty_horizon_refused(self, nllr, n):
        with pytest.raises(ValueError, match=rf"^n must be >= 1, got {n}$"):
            bounds.lower_bound_detail(nllr, n, 0.05)


class TestTailLowerEnvelope:
    def test_monotone_in_h_and_valid_range(self, nllr):
        p4 = bounds.max_tail_lower(nllr, 500, 4.0, 5)
        p6 = bounds.max_tail_lower(nllr, 500, 6.0, 5)
        assert 0.0 < p6 < p4 < 1.0

    def test_consistent_with_threshold_inversion(self, nllr):
        # solving 1 - Phi^{n//k}(..) = alpha at k gives the segment bound
        n, alpha, k = 500, 0.05, 7
        h = segment_lower_bound(nllr.delta, n, alpha, k)
        assert bounds.max_tail_lower(nllr, n, h, k) == pytest.approx(
            alpha, rel=1e-10
        )

    def test_k_validated(self, nllr):
        with pytest.raises(ValueError):
            bounds.max_tail_lower(nllr, 10, 2.0, 0)
        with pytest.raises(NotSupportedModel):
            bounds.max_tail_lower(models.BernoulliPM(0.2), 10, 2.0, 1)


class TestRegimes:
    def test_classification(self, nllr):
        sub = bounds.regime(nllr, 0.5)
        assert sub.kind == "subcritical" and sub.omega == pytest.approx(0.5)
        crit = bounds.regime(nllr, 1.0)
        assert crit.kind == "critical"
        sup = bounds.regime(nllr, 1.5)
        assert sup.kind == "supercritical"
        assert sup.growth == pytest.approx(nllr.mgf(1.5), rel=1e-14)

    def test_negative_lambda_rejected(self, nllr):
        with pytest.raises(ValueError):
            bounds.regime(nllr, -0.1)

    def test_infinite_lambda_rejected(self, nllr):
        with pytest.raises(ValueError, match="^lambda must be finite, got inf$"):
            bounds.regime(nllr, math.inf)

    @pytest.mark.parametrize("model", [models.NormalLLR(1.0), models.BernoulliPM(0.3)],
                             ids=["normal-llr", "bernoulli"])
    def test_overflowing_growth_refused(self, model):
        with pytest.raises(DivergentMoment, match="overflows at lambda = 1000"):
            bounds.regime(model, 1000.0)

    def test_nan_lambda_rejected(self, nllr):
        with pytest.raises(ValueError, match="nonnegative, got nan"):
            bounds.regime(nllr, math.nan)


class TestStoppedAndQueueBounds:
    def test_stopped_bound_formula(self):
        d, et, h = 0.3, 20.0, 8.0
        want = (1 + d * et) * math.exp(-h)
        assert bounds.stopped_tail_bound(d, et, h) == pytest.approx(want)
        assert bounds.stopped_tail_bound(0.9, 1e6, 0.1) == 1.0

    def test_stopped_bound_validation(self):
        with pytest.raises(ValueError):
            bounds.stopped_tail_bound(1.5, 10.0, 1.0)
        with pytest.raises(ValueError):
            bounds.stopped_tail_bound(0.5, -1.0, 1.0)

    def test_nan_threshold_refused(self, nllr):
        for call in (
            lambda: bounds.max_tail_upper(models.ShiftedNormal(-0.5, 1.0), 10, math.nan),
            lambda: bounds.max_tail_lower(nllr, 10, math.nan, 2),
            lambda: bounds.stopped_tail_bound(0.5, 10.0, math.nan),
        ):
            with pytest.raises(ValueError, match="^threshold h must be a number, got nan$"):
                call()

    def test_queue_requires_negative_drift(self):
        with pytest.raises(UnstableQueue):
            bounds.queue_tail_bound(models.ShiftedNormal(0.1, 1.0), 10, 5.0)

    def test_queue_bound_covers_simulation(self):
        # waiting-time tail: MC estimate must sit below the analytic bound
        m = models.ShiftedNormal(-0.5, 1.0)
        n, h = 200, 5.0
        bound = bounds.queue_tail_bound(m, n, h)
        p_hat, ci = simulate.mc_tail_max(m, n, h, reps=20_000, seed=42)
        assert p_hat - ci <= bound


class TestThresholdReport:
    def test_report_chain(self, nllr):
        rep = bounds.threshold_report(nllr, 200, 0.05, mc_reps=20_000, seed=1)
        assert rep.lb2 <= rep.lb1
        assert rep.lb1 <= rep.mc_quantile + 3 * rep.mc_stderr
        assert rep.mc_quantile <= rep.ub1 + 3 * rep.mc_stderr
        assert rep.ub1 <= rep.ub3 <= rep.ub2
        assert rep.model_spec == nllr.spec()

    def test_negative_mc_reps_refused(self, nllr):
        with pytest.raises(ValueError, match="mc_reps"):
            bounds.threshold_report(nllr, 50, 0.05, mc_reps=-5)

    def test_report_without_mc_or_lb(self):
        rep = bounds.threshold_report(models.BernoulliPM(0.2), 50, 0.1)
        assert rep.mc_quantile is None and rep.lb1 is None
        assert rep.ub1 <= rep.ub3 <= rep.ub2
