import decimal
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from cusumkit import bounds, models, moments
from cusumkit.errors import DivergentMoment, FormulaMismatch, NoConvergence

import _oracles
from _oracles import (
    convolution_recursion_loop,
    cusum_mgf_matrix_dense,
    cusum_variance_direct,
    mgf_partitions,
    path_mean_var_mgf,
    rectified_exp_seq_loop,
)

BERN_LLR_P = 1.0 / (1.0 + math.e)
EPS = float(np.finfo(float).eps)


@pytest.fixture(scope="module")
def nllr():
    return models.NormalLLR(1.0)


class TestHandValues:
    def test_first_two_exp_moments_delta_one(self, nllr):
        # M_1(1) = E e^{max(Y,0)} = 2*Phi(delta/2) for the llr increment
        vals = moments.cusum_mgf_recursive(nllr, 1.0, 2).values
        m1 = 2.0 * float(ndtr(0.5))
        assert vals[0] == 1.0
        assert vals[1] == pytest.approx(m1, rel=1e-14)
        # M_2 = (x_1^2 + x_2) / 2 with x_2 = 2*Phi(delta*sqrt(2)/2)
        x2 = 2.0 * float(ndtr(math.sqrt(2) / 2))
        assert vals[2] == pytest.approx((m1**2 + x2) / 2.0, rel=1e-14)

    def test_first_mean_is_rectified_increment_mean(self, nllr):
        means = moments.cusum_mean(nllr, 1)
        m1, _ = nllr.rectified_moment_seq(1)
        assert means[1] == m1[0]

    def test_first_variance_is_rectified_increment_variance(self, nllr):
        vars_, _ = moments.cusum_variance(nllr, 1)
        m1, m2 = nllr.rectified_moment_seq(1)
        assert vars_[1] == pytest.approx(m2[0] - m1[0] ** 2, rel=1e-14)


@pytest.mark.filterwarnings("ignore::cusumkit.errors.FormulaMismatch")
class TestPathEnumerationOracle:
    @pytest.mark.parametrize(
        "model",
        [
            models.BernoulliPM(BERN_LLR_P),
            models.DiscreteTable((1.0, -0.5, -2.0), (0.25, 0.5, 0.25)),
        ],
        ids=["bernoulli", "table3"],
    )
    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_mean_var_mgf_match_exhaustive_paths(self, model, n):
        want_mean, want_var, want_mgf = path_mean_var_mgf(
            model.support, model.probs, n, lam=1.0
        )
        assert moments.cusum_mean(model, n)[n] == pytest.approx(
            want_mean, rel=1e-12
        )
        vars_, _ = moments.cusum_variance(model, n)
        assert vars_[n] == pytest.approx(want_var, rel=1e-12)
        got_mgf = moments.cusum_mgf_recursive(model, 1.0, n).values[n]
        assert got_mgf == pytest.approx(want_mgf, rel=1e-12)


class TestCrossMethodIdentity:
    @pytest.mark.parametrize("delta", [0.1, 1.0, 5.0])
    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_recursive_matrix_partitions_bell_agree(self, delta, lam):
        # the blocked recursion against the matrix route, the partition sum
        # and the rescaled-Bell recursion taken one term at a time
        m = models.NormalLLR(delta)
        n = 12
        rec = moments.cusum_mgf_recursive(m, lam, n).values
        mat = moments.cusum_mgf_matrix(m, lam, n).values
        np.testing.assert_allclose(mat, rec, rtol=1e-12)
        part = mgf_partitions(m, lam, n)
        assert part == pytest.approx(rec[n], rel=1e-12)
        bell = convolution_recursion_loop(m.rectified_exp_seq(lam, n))
        np.testing.assert_allclose(bell, rec, rtol=1e-13)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_matrix_refuses_non_finite_x(self, bad):
        # both routes, ub1 behind the recursive one and asymptote_slope
        # refuse a model whose x_4 is not finite, all through _x_seq;
        # unchecked, ub1 would fall back to ub3's level and asymptote_slope
        # read 2^15 terms of NaN before giving NoConvergence
        class BadX(models.ShiftedNormal):
            def rectified_exp_seq(self, lam, n):
                xs = super().rectified_exp_seq(lam, n)
                xs[3:] = bad
                return xs

        model = BadX(-0.5, 1.0)
        for route in (moments.cusum_mgf_matrix, moments.cusum_mgf_recursive):
            with pytest.raises(DivergentMoment, match="not finite"):
                route(model, 1.0, 6)
        with pytest.raises(DivergentMoment, match="not finite"):
            bounds.threshold_ub(model, 6, 0.05, "ub1")
        with pytest.raises(DivergentMoment, match="not finite"):
            moments.asymptote_slope(model)
        assert moments.cusum_mgf_recursive(model, 1.0, 3).values[3] > 1.0

    @pytest.mark.parametrize("route", [moments.cusum_mgf_recursive,
                                       moments.cusum_mgf_matrix])
    def test_nan_lambda_refused(self, nllr, route):
        with pytest.raises(ValueError, match="got nan"):
            route(nllr, math.nan, 5)

    @pytest.mark.parametrize("route", [moments.cusum_mgf_recursive,
                                       moments.cusum_mgf_matrix])
    @pytest.mark.parametrize("model", [models.NormalLLR(1.0), models.BernoulliPM(0.3)],
                             ids=["normal", "lattice"])
    def test_negative_horizon_refused(self, model, route):
        with pytest.raises(ValueError, match=r"^n must be >= 0, got -3$"):
            route(model, 1.0, -3)

    def test_zero_horizon(self, nllr):
        assert moments.cusum_mgf_recursive(nllr, 1.0, 0).values.tolist() == [1.0]
        assert moments.cusum_mgf_matrix(nllr, 1.0, 0).values.tolist() == [1.0]
        assert moments.cusum_mean(nllr, 0).tolist() == [0.0]


@st.composite
def _increment_models(draw):
    """Normal and lattice models with a negative mean and P(Y > 0) > 0."""
    kind = draw(st.sampled_from(["normal-llr", "shifted-normal", "bernoulli", "table"]))
    if kind == "normal-llr":
        return models.NormalLLR(draw(st.floats(0.1, 5.0)))
    if kind == "shifted-normal":
        return models.ShiftedNormal(draw(st.floats(-2.0, -0.05)), draw(st.floats(0.3, 3.0)))
    if kind == "bernoulli":
        return models.BernoulliPM(draw(st.floats(0.05, 0.45)))
    values = draw(st.lists(st.integers(-4, 3), min_size=2, max_size=5, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(values),
                            max_size=len(values)))
    # the sign of the mean is taken in integers: the float dot product of a
    # zero-mean table can round to -1e-16 and pass as negative
    if max(values) <= 0 or sum(v * w for v, w in zip(values, weights)) >= 0:
        reject()
    probs = tuple(w / sum(weights) for w in weights)
    return models.DiscreteTable(tuple(map(float, values)), probs)


class TestConvolutionEngine:
    """The blocked forward substitution against the term-by-term loop."""

    @given(model=_increment_models(), factor=st.floats(0.3, 1.2),
           n=st.integers(0, 600))
    @settings(max_examples=60, deadline=None)
    def test_matches_loop(self, model, factor, n):
        lam = factor * models.cached_lambda_star(model)
        try:
            xs = model.rectified_exp_seq(lam, n)
        except DivergentMoment:
            reject()
        want = convolution_recursion_loop(xs)
        if not np.isfinite(want).all():
            reject()
        np.testing.assert_allclose(moments.convolution_recursion(xs), want,
                                   rtol=1e-13, atol=0.0)
        # inputs of both signs, such as x_k - 2, let b_n cancel to far
        # below its terms; each b_n is then held to 1e-13 of the sum of its
        # terms' magnitudes, which is b_n of the inputs |x_k - 2|
        mixed = xs - 2.0
        scale = convolution_recursion_loop(np.abs(mixed))
        if not np.isfinite(scale).all():
            reject()
        gap = np.abs(moments.convolution_recursion(mixed) - convolution_recursion_loop(mixed))
        assert np.all(gap <= 1e-13 * scale)

    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 256, 257, 600])
    def test_block_edges(self, nllr, n):
        xs = nllr.rectified_exp_seq(1.0, n)
        np.testing.assert_allclose(moments.convolution_recursion(xs),
                                   convolution_recursion_loop(xs), rtol=1e-13, atol=0.0)

    def test_constant_inputs_give_binomial_coefficients(self):
        # x_k = 2 for every k gives b_n = n + 1 exactly
        b = moments.convolution_recursion(np.full(300, 2.0))
        np.testing.assert_array_equal(b, np.arange(1.0, 302.0))


class TestMatrixPanels:
    """The matrix route's panel solve against the dense matrix solve."""

    @given(model=_increment_models(), factor=st.floats(0.3, 1.2),
           n=st.one_of(st.sampled_from([0, 1, 127, 128, 129, 257, 600]),
                       st.integers(0, 600)))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_solve(self, model, factor, n):
        lam = factor * models.cached_lambda_star(model)
        try:
            want = cusum_mgf_matrix_dense(model, lam, n).values
        except DivergentMoment:
            reject()
        if not np.isfinite(want).all():
            reject()
        np.testing.assert_allclose(moments.cusum_mgf_matrix(model, lam, n).values,
                                   want, rtol=1e-13, atol=0.0)

    def test_memory_is_linear_in_the_horizon(self, nllr):
        # the dense system would take 8 (N+1)^2 bytes, 200 MB at N = 5 000
        n = 5000
        moments._x_seq.cache_clear()
        tracemalloc.start()
        try:
            moments.cusum_mgf_matrix(nllr, 1.0, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * 8 * (n + 1) ** 2


class TestConvolutionKernel:
    def test_empty_input(self):
        out = moments.convolution_recursion(np.empty(0))
        np.testing.assert_array_equal(out, [1.0])


class TestLatticeOverflow:
    """exp(lambda* S_k+) leaves the float range on the upper tail of S_k
    while x_k = E exp(lambda* S_k+) stays at most 2."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_critical_moments_finite_beyond_exp_range(self):
        model = models.BernoulliPM(0.27)
        lam = models.cached_lambda_star(model)
        n = 2000
        xs = model.rectified_exp_seq(lam, n)
        assert lam * n > 709.8  # exp(lam * n) is not a float
        assert np.all(np.isfinite(xs))
        assert np.all((xs >= 1.0) & (xs <= 2.0 + 1e-12))
        rec = moments.cusum_mgf_recursive(model, lam, n).values
        mat = moments.cusum_mgf_matrix(model, lam, n).values
        assert np.all(np.isfinite(rec))
        np.testing.assert_allclose(rec, mat, rtol=1e-9)
        upper = [bounds.exp_moment_upper(model, k) for k in range(n + 1)]
        assert np.all(rec >= 1.0) and np.all(rec <= np.array(upper) + 1e-9)
        assert upper[-1] <= n + 1.0

    def test_critical_moments_match_binomial_closed_form(self):
        # S_k = 2 Bin(k, p) - k, and under the tilt by lambda the step is +1
        # with probability p' = p e^lambda / m(lambda), so
        # x_k = P(Bin(k, p) <= k/2) + m(lambda)^k P(Bin(k, p') > k/2); at
        # lambda* m = 1 and p' = 1 - p
        from scipy.stats import binom

        p, n = 0.27, 2000
        model = models.BernoulliPM(p)
        k = np.arange(1, n + 1)
        lam_star = models.cached_lambda_star(model)
        for lam in (lam_star, 1.5 * lam_star):
            xs = model.rectified_exp_seq(lam, n)
            m = model.mgf(lam)
            tilted_p = p * math.exp(lam) / m
            if lam == lam_star:
                assert tilted_p == pytest.approx(1.0 - p, rel=1e-15)
            want = binom.cdf(k // 2, k, p) + m**k * binom.sf(k // 2, k, tilted_p)
            np.testing.assert_allclose(xs, want, rtol=1e-12)
            # x_1 = E e^(lambda Y) + E(1 - e^(lambda Y))+
            assert xs[0] == pytest.approx(m + model.one_minus_exp_pos_mean(lam),
                                          rel=4 * EPS, abs=0.0)

    @pytest.mark.parametrize("spec, lam, n", [
        ("bernoulli-pm:p=0.3", -0.7, 64),
        ("table:y=-2.5;0.5,p=0.5;0.5", -3.0, 64),
        ("bernoulli-pm:p=0.27", "star", 64),
        ("table:y=-2.5;0.5,p=0.5;0.5", "star", 64),
        # lambda * max S_n = 599.76: the direct sum of version 0.4.0 erred
        # by 5.3e-14 here
        ("bernoulli-pm:p=0.375", 9.52, 63),
        # lambda * max S_n = 768 and 713: exp(lambda * max S_n) is not a float
        ("bernoulli-pm:p=0.2", 12.0, 64),
        ("table:y=-0.5;2.5,p=0.5;0.5", 4.6, 62),
    ], ids=["bernoulli-negative", "table-negative", "bernoulli-star", "table-star",
            "bernoulli-9.52", "bernoulli-past-709", "table-past-709"])
    def test_two_point_laws_match_exact_binomial_sums(self, spec, lam, n):
        # x_k = sum_j C(k, j) p^j q^(k-j) exp(lam max(j b + (k - j) a, 0)) over
        # the lattice's own atoms a < b and probabilities, in 40-digit decimals
        model = models.parse_model(spec)
        if lam == "star":
            lam = models.cached_lambda_star(model)
        lat = model.lattice()
        (a, q), (b, p) = sorted(zip((lat.keys * models._GRID).tolist(), lat.probs.tolist()))
        xs = model.rectified_exp_seq(lam, n)
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            a, b, p, q, lam_d = map(decimal.Decimal, (a, b, p, q, lam))
            for k in range(1, n + 1):
                want = sum(math.comb(k, j) * p**j * q ** (k - j)
                           * (lam_d * max(j * b + (k - j) * a, 0)).exp()
                           for j in range(k + 1))
                err = abs(decimal.Decimal(xs[k - 1]) / want - 1)
                assert err <= decimal.Decimal("2e-14"), (k, err)

    @pytest.mark.parametrize(
        "model",
        [
            models.BernoulliPM(0.3),
            models.DiscreteTable((2.0, -1.0, 0.5, -3.0, 1.0), (0.1, 0.4, 0.0, 0.2, 0.3)),
            models.DiscreteTable((math.log(0.5), math.log(1.5)), (0.5, 0.5)),
        ],
        ids=["bernoulli", "table5", "irrational"],
    )
    @pytest.mark.parametrize("lam", [-0.5, 0.3, 1.5])
    def test_tilted_form_matches_direct_sum(self, model, lam, monkeypatch):
        # The oracle's two routes, the direct sum and (with its cutoff at
        # -inf) the tilted form x_k = P(S_k <= 0) + m^k Q(S_k > 0), agree,
        # and the engine's single pass agrees with both
        direct = rectified_exp_seq_loop(model, lam, 80)
        monkeypatch.setattr(_oracles, "_LOOP_DIRECT_EXPO", -math.inf)
        tilted = rectified_exp_seq_loop(model, lam, 80)
        np.testing.assert_allclose(tilted, direct, rtol=1e-12)
        np.testing.assert_allclose(model.rectified_exp_seq(lam, 80), direct, rtol=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_moment_raises(self):
        # x_k itself exceeds the float range well before k = 2000
        with pytest.raises(DivergentMoment):
            models.BernoulliPM(0.27).rectified_exp_seq(3.0, 2000)


class TestNormalMomentOverflow:
    """Rectified moments of k-step sums that leave the float range are
    refused, not returned as inf or NaN."""

    def test_shifted_normal_a_minus_1_sigma_1e154(self):
        # E (S_4+)^2 is about 2 sigma^2 = 2e308, beyond the float range
        with pytest.raises(DivergentMoment, match="sigma=1e"):
            moments.moment_table(models.ShiftedNormal(-1.0, 1e154), 4)

    def test_shifted_normal_a_1e160_sigma_1(self):
        # E (S_1+)^2 is about a^2 = 1e320
        with pytest.raises(DivergentMoment, match="k = 1 "):
            moments.moment_table(models.ShiftedNormal(1e160, 1.0), 3)

    def test_finite_moments_below_the_edge(self):
        table = moments.moment_table(models.ShiftedNormal(-1.0, 1e152), 3)
        assert np.isfinite(table.variances).all()
        assert np.isfinite(table.recursion_gap)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sigma, n", [(1e154, 3), (5e152, 1000)])
    def test_finite_moments_whose_sums_of_squares_overflow(self, sigma, n):
        # sigma = 1e154: mu**2 + sd**2 overflows at k = 2 and 3, where
        # E (S_k+)^2 = 6.95e307 and 1.05e308 are floats.  sigma = 5e152:
        # E (S_1000+)^2 = 1.25e308, and the sums of cusum_variance reach
        # 1.6e308.  Both match the table of sigma = 1 scaled up.
        m1, m2 = models.ShiftedNormal(-1.0, sigma).rectified_moment_seq(n)
        r1, r2 = models.ShiftedNormal(-1.0 / sigma, 1.0).rectified_moment_seq(n)
        np.testing.assert_allclose(m1 / sigma, r1, rtol=1e-13)
        np.testing.assert_allclose(m2 / sigma / sigma, r2, rtol=1e-13)
        table = moments.moment_table(models.ShiftedNormal(-1.0, sigma), n)
        ref = moments.moment_table(models.ShiftedNormal(-1.0 / sigma, 1.0), n)
        np.testing.assert_allclose(table.variances / sigma / sigma, ref.variances,
                                   rtol=1e-13)
        assert table.recursion_gap / sigma / sigma == pytest.approx(
            ref.recursion_gap, rel=1e-13)

    def test_overflowing_variance_refused(self, monkeypatch):
        # E (S_k+)^2 = 1.5e308 for every k: V_2 >= 1.5e308 (1 + 1/2) - 1
        sums = (np.ones(3), np.full(3, 1.5e308))
        monkeypatch.setattr(moments, "_sum_moment_seq", lambda model, n: sums)
        with pytest.raises(DivergentMoment, match="overflows at k = 2 for shifted-normal"):
            moments.cusum_variance(models.ShiftedNormal(-1.0, 1.0), 3)


class TestVarianceRecursionDiagnostic:
    def test_mismatch_warning_and_direct_values(self, nllr):
        with pytest.warns(FormulaMismatch):
            vars_, gap = moments.cusum_variance(nllr, 10)
        assert gap > 1e-3
        # the gap appears already at n = 1: the recursion adds (E Y+)^2
        m1, m2 = nllr.rectified_moment_seq(1)
        with pytest.warns(FormulaMismatch):
            one, gap1 = moments.cusum_variance(nllr, 1)
        assert one[1] == pytest.approx(m2[0] - m1[0] ** 2, rel=1e-13)
        assert gap1 == pytest.approx(m1[0] ** 2, rel=1e-10)

    @pytest.mark.filterwarnings("ignore::cusumkit.errors.FormulaMismatch")
    @pytest.mark.parametrize(
        "model",
        [
            models.NormalLLR(1.0),
            models.BernoulliPM(BERN_LLR_P),
            models.DiscreteTable((1.0, -0.5, -2.0), (0.25, 0.5, 0.25)),
        ],
        ids=["normal", "bernoulli", "table3"],
    )
    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    def test_gap_matches_loop_form(self, model, n):
        vars_, gap = moments.cusum_variance(model, n)
        # the published recursion, written as the n-step loop it is stated as
        m1, m2 = model.rectified_moment_seq(n)
        m = m1 / np.arange(1, n + 1)
        rec = np.zeros(n + 1)
        for i in range(1, n + 1):
            cross = np.dot(m[:i], m[:i][::-1])  # sum_k m_k m_{i+1-k}
            rec[i] = rec[i - 1] + (m2[i - 1] - m1[i - 1] ** 2) / i + cross
        assert gap == pytest.approx(np.max(np.abs(rec - vars_)), rel=1e-12)

    def test_moment_table_is_quiet(self, nllr):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = moments.moment_table(nllr, 10)
        assert table.recursion_gap > 0.0
        assert np.all(np.diff(table.means) > 0)


def _check_variance_against_direct(model, n):
    """V_k and the recursion gap of cusum_variance against the direct
    self-convolution, within 1e-13 of the scale of the cancellation in V_k:
    sum_{j<=k} E(S_j+)^2 / j + (sum_{j<=k} m_j)^2."""
    vars_, gap = moments.cusum_variance(model, n)
    want, want_gap = cusum_variance_direct(model, n)
    m1, m2 = moments._sum_moment_seq(model, n)
    k = np.arange(1, n + 1)
    scale = np.concatenate(([0.0], np.cumsum(m2 / k) + np.cumsum(m1 / k) ** 2))
    assert np.all(np.abs(vars_ - want) <= 1e-13 * scale)
    assert abs(gap - want_gap) <= 1e-13 * scale[-1]


_HORIZONS = [1, 2, 3, 127, 128, 2000]
_DELTAS = [0.05, 1.5, 8.0, 40.0]


@pytest.mark.filterwarnings("ignore::cusumkit.errors.FormulaMismatch")
class TestVarianceCrossSum:
    """The FFT cross sum of cusum_variance against np.convolve's direct
    self-convolution."""

    @given(model=st.one_of(_increment_models(),
                           st.sampled_from(_DELTAS).map(models.NormalLLR)),
           n=st.sampled_from(_HORIZONS))
    @settings(max_examples=60, deadline=None)
    def test_matches_direct(self, model, n):
        _check_variance_against_direct(model, n)

    @pytest.mark.parametrize("delta", _DELTAS)
    def test_underflowing_terms(self, delta):
        # m_k = E S_k+ / k decays like exp(-k delta^2 / 8): at delta = 8 and
        # 40 most of the 2 000 terms are subnormal or 0, and at 1.5 many of
        # the products m_i m_j are subnormal
        _check_variance_against_direct(models.NormalLLR(delta), 2000)


class TestAsymptote:
    def test_slope_matches_empirical_growth(self, nllr):
        slope, intercept = moments.asymptote_slope(nllr)
        vals = moments.cusum_mgf_recursive(nllr, 1.0, 400).values
        emp = (vals[400] - vals[300]) / 100.0
        assert slope == pytest.approx(emp, rel=1e-3)
        assert vals[400] == pytest.approx(slope * 400 + intercept, rel=1e-3)

    def test_slope_positive_and_below_discrepancy(self):
        for delta in (0.5, 1.0, 2.0):
            m = models.NormalLLR(delta)
            slope, _ = moments.asymptote_slope(m)
            assert 0.0 < slope < bounds.scaled_discrepancy(m)

    @pytest.mark.parametrize("p", [0.25, 0.3, 0.4, 0.45])
    def test_bernoulli_closed_form(self, p):
        # M_{n+1} - M_n = (1 - 2p) P(W_n = 0) and P(W_inf = 0) = (1 - 2p)/(1 - p)
        slope, intercept = moments.asymptote_slope(models.BernoulliPM(p))
        assert slope == pytest.approx((1 - 2 * p) ** 2 / (1 - p), rel=1e-9, abs=0.0)
        assert intercept == pytest.approx(1 / (1 - p), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("spec", [
        "table:y=3;-1,p=0.2;0.8",
        "table:y=2;-1,p=0.3;0.7",
        "table:y=1;-1;0,p=0.3;0.5;0.2",
        "normal-llr:delta=0.1",
        "normal-llr:delta=0.5",
        "normal-llr:delta=1",
        "normal-llr:delta=2",
        "normal-llr:delta=3",
    ])
    def test_matches_growth_at_long_horizon(self, spec):
        # the first two tables return to 0 only every 4 and 3 steps; w = 1 200
        # is a multiple of each period, so the difference quotient holds no
        # partial period
        model = models.parse_model(spec)
        slope, intercept = moments.asymptote_slope(model)
        n, w = 20_000, 1_200
        vals = moments.cusum_mgf_recursive(model, models.cached_lambda_star(model), n).values
        assert slope == pytest.approx((vals[n] - vals[n - w]) / w, rel=1e-9, abs=0.0)
        assert vals[n] - slope * n == pytest.approx(intercept, rel=0.0, abs=1e-8)

    def test_budget_exhausted_raises(self, monkeypatch):
        # BernoulliPM(0.45) needs 8 192 terms; 256 are refused, not summed
        monkeypatch.setattr(moments, "_SLOPE_MAX_TERMS", 256)
        with pytest.raises(NoConvergence, match="within 256 terms"):
            moments.asymptote_slope(models.BernoulliPM(0.45))
