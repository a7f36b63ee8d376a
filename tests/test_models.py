import math
import re
import subprocess
import sys
import textwrap
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from cusumkit import models, moments, rng
from cusumkit.errors import (
    DivergentMoment,
    NoConvergence,
    NoPositiveRoot,
    NotAnLLRModel,
    OutOfDomain,
    TooLarge,
)

from _oracles import (
    enumerate_paths,
    quad_one_minus_exp_pos,
    quad_rectified_exp,
    quad_rectified_moments,
    rectified_exp_seq_loop,
    rectified_moment_seq_loop,
)

BERN_LLR_P = 1.0 / (1.0 + math.e)


@pytest.fixture(scope="module")
def nllr():
    return models.NormalLLR(1.0)


class TestNormalClosedForms:
    @pytest.mark.parametrize("delta", [0.25, 1.0, 2.5])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_rectified_exp_matches_quadrature(self, delta, n):
        m = models.NormalLLR(delta)
        mu, sd = n * m.loc, math.sqrt(n) * m.scale
        for lam in (0.3, 1.0):
            got = m.rectified_exp_moment(lam, n)
            want = quad_rectified_exp(mu, sd, lam)
            assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("a,sigma", [(-0.5, 1.0), (-0.2, 2.0)])
    def test_rectified_moments_match_quadrature(self, a, sigma):
        m = models.ShiftedNormal(a, sigma)
        for n in (1, 3):
            mu, sd = n * a, math.sqrt(n) * sigma
            m1, m2 = m.rectified_moment_seq(n)
            w1, w2 = quad_rectified_moments(mu, sd)
            assert m1[n - 1] == pytest.approx(w1, rel=1e-10, abs=1e-12)
            assert m2[n - 1] == pytest.approx(w2, rel=1e-10, abs=1e-12)

    def test_discrepancy_closed_form(self, nllr):
        # E(1 - e^Y)+ for the llr increment, against quadrature
        want = quad_one_minus_exp_pos(nllr.loc, nllr.scale, 1.0)
        assert nllr.tv_discrepancy() == pytest.approx(want, rel=1e-10)
        assert nllr.one_minus_exp_pos_mean(1.0) == pytest.approx(want, rel=1e-10)

    def test_scaled_discrepancy_general_lambda(self):
        m = models.ShiftedNormal(-0.5, 1.3)
        for lam in (0.4, 1.0, 1.7):
            want = quad_one_minus_exp_pos(m.a, m.sigma, lam)
            assert m.one_minus_exp_pos_mean(lam) == pytest.approx(want, rel=1e-9)

    def test_llr_unit_exp_moment(self, nllr):
        assert nllr.mgf(1.0) == pytest.approx(1.0, abs=1e-14)
        assert nllr.is_llr

    def test_mgf_overflow_is_inf(self):
        m = models.ShiftedNormal(800.0, 1.0)
        assert m.mgf(1.0) == math.inf
        assert not m.is_llr

    def test_moments_where_the_sums_underflow(self):
        # S_k ~ N(-1e160 k, k): Phi and phi of mu / sd underflow, and mu**2
        # overflows, so the table is exactly 0 rather than inf * 0 = nan
        table = moments.moment_table(models.ShiftedNormal(-1e160, 1.0), 3)
        for column in (table.means, table.variances):
            assert np.isfinite(column).all() and not column.any()


class TestLambdaStar:
    def test_normal_llr_is_one(self, nllr):
        assert nllr.lambda_star() == 1.0

    def test_shifted_normal_closed_form(self):
        m = models.ShiftedNormal(-0.3, 1.7)
        assert m.lambda_star() == pytest.approx(2 * 0.3 / 1.7**2, rel=1e-13)

    def test_bernoulli_closed_form(self):
        m = models.BernoulliPM(0.2)
        assert m.lambda_star() == pytest.approx(math.log(4.0), rel=1e-13)

    def test_table_root_solves_equation(self):
        m = models.DiscreteTable((1.5, -1.0, -0.25), (0.2, 0.5, 0.3))
        lam = m.lambda_star()
        assert lam > 0
        assert m.mgf(lam) == pytest.approx(1.0, abs=1e-12)

    def test_positive_mean_rejected(self):
        with pytest.raises(NoPositiveRoot):
            models.ShiftedNormal(0.1, 1.0).lambda_star()

    def test_never_positive_rejected(self):
        m = models.DiscreteTable((-1.0, -2.0), (0.5, 0.5))
        with pytest.raises(NoPositiveRoot):
            m.lambda_star()

    def test_bad_root_rejected(self):
        class BadRoot(models.ShiftedNormal):
            def _lambda_star_impl(self):
                return 0.5

        with pytest.raises(NoConvergence):
            BadRoot(-0.3, 1.7).lambda_star()

    def test_bad_root_rejected_under_optimize(self):
        # the postcondition must survive python -O, which strips asserts
        code = textwrap.dedent("""
            import sys
            from cusumkit import models
            from cusumkit.errors import NoConvergence

            class BadRoot(models.ShiftedNormal):
                def _lambda_star_impl(self):
                    return 0.5

            try:
                BadRoot(-0.3, 1.7).lambda_star()
            except NoConvergence:
                sys.exit(0)
            sys.exit(1)
        """)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestRateFunction:
    def test_normal_quadratic(self):
        m = models.ShiftedNormal(-0.5, 2.0)
        rate, lam = m.rate_function(1.0)
        assert rate == pytest.approx(1.5**2 / (2 * 4.0), rel=1e-13)
        assert lam == pytest.approx(1.5 / 4.0, rel=1e-13)

    def test_discrete_legendre_dual(self):
        # I(x) must dominate lam*x - log m(lam) for every lam, with
        # equality at the reported maximizer.
        m = models.BernoulliPM(0.3)
        x = 0.2
        rate, lam_hat = m.rate_function(x)
        grid = np.linspace(0.0, 5.0, 200)
        dual = grid * x - np.log([m.mgf(t) for t in grid])
        assert rate >= dual.max() - 1e-9
        assert rate == pytest.approx(
            lam_hat * x - math.log(m.mgf(lam_hat)), abs=1e-12
        )

    def test_domain_enforced(self):
        m = models.BernoulliPM(0.3)
        with pytest.raises(OutOfDomain):
            m.rate_function(1.5)  # beyond max support
        with pytest.raises(OutOfDomain):
            m.rate_function(m.mean())  # open interval

    def test_callable_view(self):
        rf = models.RateFunction(models.ShiftedNormal(-1.0, 1.0))
        assert rf(0.0) == pytest.approx(0.5, rel=1e-13)
        assert rf.maximizer(0.0) == pytest.approx(1.0, rel=1e-13)


class TestDiscreteSums:
    def test_bernoulli_sum_law_binomial(self):
        from scipy.stats import binom

        p = 0.35
        m = models.BernoulliPM(p)
        for k, (vals, probs) in enumerate(m.sum_distributions(6), start=1):
            # S_k = 2*Binomial(k, p) - k
            want = binom.pmf((vals + k) / 2, k, p)
            np.testing.assert_allclose(probs, want, rtol=1e-12)

    def test_table_sums_match_path_enumeration(self):
        import itertools

        m = models.DiscreteTable((1.0, -0.5, -2.0), (0.25, 0.5, 0.25))
        n = 5
        dists = list(m.sum_distributions(n))
        vals, probs = dists[n - 1]
        acc = {}
        for idx in itertools.product(range(3), repeat=n):
            s = sum(m.values[i] for i in idx)
            p = math.prod(m.weights[i] for i in idx)
            key = round(s, 9)
            acc[key] = acc.get(key, 0.0) + p
        got = {round(v, 9): p for v, p in zip(vals, probs)}
        assert set(got) == set(acc)
        for key in acc:
            assert got[key] == pytest.approx(acc[key], rel=1e-12)

    @pytest.mark.parametrize(
        "model,dense",
        [
            # unsorted, with a zero atom; a few lattice steps wide
            (models.DiscreteTable((2.0, -1.0, 0.5, -3.0, 1.0),
                                  (0.1, 0.4, 0.0, 0.2, 0.3)), True),
            # three atoms on an integer lattice, hundreds of steps wide
            (models.DiscreteTable((-3.0, 1.0, 347.0), (0.5, 0.3, 0.2)), True),
            # the same, wider than dense arrays are used for
            (models.DiscreteTable((-3.0, 1.0, 5000.0), (0.5, 0.3, 0.2)), False),
            # log-ratio values: no coarse lattice holds them
            (models.DiscreteTable((math.log(0.5), math.log(1.5), math.sqrt(2)),
                                  (0.5, 0.3, 0.2)), False),
        ],
        ids=["table5", "wide-integer", "wider-integer", "irrational"],
    )
    def test_sum_laws_match_path_enumeration(self, model, dense):
        assert (model.lattice().width <= models._DENSE_MAX_WIDTH) == dense
        n = 6
        for k, (vals, probs) in enumerate(model.sum_distributions(n), start=1):
            assert np.all(np.diff(vals) > 0.0)
            want = {}
            for ys, p in enumerate_paths(model.support, model.probs, k):
                key = round(math.fsum(ys), 9) + 0.0
                want[key] = want.get(key, 0.0) + p
            got = {round(v, 9) + 0.0: p for v, p in zip(vals, probs) if p > 0.0}
            assert set(got) == {key for key, p in want.items() if p > 0.0}
            for key, p in got.items():
                assert p == pytest.approx(want[key], rel=1e-12)

    def test_nonlattice_support_stays_exact(self):
        m = models.DiscreteTable((0.1, -0.3), (0.4, 0.6))
        vals, probs = list(m.sum_distributions(40))[-1]
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_lattice_descriptor(self):
        lat = models.BernoulliPM(0.3).lattice()
        assert (lat.lo, lat.hi, lat.g, lat.d) == (-10**12, 10**12, 2 * 10**12, 10**12)
        assert (lat.span, lat.width) == (1, 2)
        # the zero-probability atom 0.5 does not refine the lattice
        lat = models.DiscreteTable(
            (2.0, -1.0, 0.5, -3.0, 1.0), (0.1, 0.4, 0.0, 0.2, 0.3)
        ).lattice()
        assert lat.keys.tolist() == [2 * 10**12, -(10**12), -3 * 10**12, 10**12]
        assert (lat.span, lat.width) == (5, 5)
        lat = models.DiscreteTable((3.0,), (1.0,)).lattice()
        assert (lat.span, lat.width) == (0, 1)

    def test_bernoulli_values_are_exact_integers(self):
        for k, (vals, _) in enumerate(models.BernoulliPM(0.3).sum_distributions(50), 1):
            assert vals.tolist() == list(range(-k, k + 1, 2))
            assert not vals.flags.writeable

    def test_single_atom(self):
        m = models.DiscreteTable((-0.5,), (1.0,))
        laws = list(m.sum_distributions(4))
        assert [v.tolist() for v, _ in laws] == [[-0.5], [-1.0], [-1.5], [-2.0]]
        assert all(p.tolist() == [1.0] for _, p in laws)

    def test_keys_beyond_int64_refused(self):
        m = models.DiscreteTable((-5e6, 1e6), (0.5, 0.5))
        with pytest.raises(TooLarge):
            next(m.sum_distributions(1000))

    @pytest.mark.parametrize("value", [1e7, -9.3e6, 1e300])
    def test_support_beyond_int64_refused(self, value):
        m = models.DiscreteTable((value, -1.0), (0.5, 0.5))
        with pytest.raises(TooLarge):
            m.lattice()

    def test_large_keys_up_to_int64(self):
        # 150 * 4e16 < 2**63 although 150 * (hi - lo) = 150 * 8e16 is not
        m = models.DiscreteTable((4e4, -4e4), (0.4, 0.6))
        for k, (vals, probs) in enumerate(m.sum_distributions(150), start=1):
            assert vals.tolist() == [4e4 * j for j in range(-k, k + 1, 2)]
        np.testing.assert_array_equal(
            probs, list(models.BernoulliPM(0.4).sum_distributions(150))[-1][1]
        )

    def test_sparse_sum_law_budget_refuses_fast(self):
        # log-likelihood ratios of a 4-point pair: S_k may hold C(k+3, 3)
        # atoms, so 3 000 steps could hold about 3e12 of them
        f, g = (0.4, 0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4)
        m = models.DiscreteTable(tuple(math.log(b / a) for a, b in zip(f, g)), f)
        start = time.perf_counter()
        with pytest.raises(TooLarge, match="sparse sum laws of 3000 steps"):
            m.rectified_exp_seq(1.0, 3000)
        with pytest.raises(TooLarge):
            m.sum_distributions(3000).__next__()
        assert time.perf_counter() - start < 1.0
        # a horizon within the budget still runs
        assert len(list(m.sum_distributions(100))) == 100

    def test_sparse_atom_count_uses_the_lattice_span(self):
        # five atoms on a 4 205-step integer lattice: from k = 45 on, the
        # compositions of k outnumber the k * 4205 + 1 lattice points
        m = models.DiscreteTable((4200.0, -1.0, -2.0, -3.0, -5.0),
                                 (0.1, 0.3, 0.2, 0.2, 0.2))
        assert m.lattice().width > models._DENSE_MAX_WIDTH
        assert math.comb(65 + 5, 5) - 1 > models._SPARSE_MAX_ATOMS
        assert len(list(m.sum_distributions(65))) == 65

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_dense_and_sparse_laws_agree(self, data):
        # integer or half-integer supports, so both paths key them exactly
        half = data.draw(st.booleans())
        raw = data.draw(st.lists(st.integers(-12, 12), min_size=1, max_size=6,
                                 unique=True))
        values = tuple(v / 2.0 if half else float(v) for v in raw)
        weights = data.draw(st.lists(st.integers(0, 9), min_size=len(raw),
                                     max_size=len(raw)).filter(lambda w: sum(w) > 0))
        model = models.DiscreteTable(values, tuple(w / sum(weights) for w in weights))
        lat = model.lattice()
        n = data.draw(st.integers(1, 25))
        dense = list(models._dense_sum_laws(lat, n))
        sparse = list(models._sparse_sum_laws(lat, n))
        for (dv, dp), (sv, sp) in zip(dense, sparse):
            keep = dp >= 1e-300
            # the dense pmf only adds lattice points of mass 0 (or < 1e-300)
            assert np.all(dp[~np.isin(dv, sv)] < 1e-300)
            np.testing.assert_array_equal(dv[np.isin(dv, sv) | keep], sv)
            np.testing.assert_allclose(dp[np.isin(dv, sv)], sp, rtol=1e-12)


@st.composite
def _lattice_models(draw):
    """Finite supports on dense lattices with P(Y > 0) > 0: Bernoulli +-1,
    integer tables, half-integer tables whose grid stride g/d may exceed 1,
    and wide tables whose few atoms span 128 or more steps, so that the
    engine takes one step per block."""
    kind = draw(st.sampled_from(["bernoulli", "integer", "half", "wide"]))
    if kind == "bernoulli":
        return models.BernoulliPM(draw(st.floats(0.05, 0.45)))
    if kind == "wide":
        low = draw(st.lists(st.integers(-6, -1), min_size=1, max_size=3, unique=True))
        big = draw(st.floats(0.001, 0.004))
        return models.DiscreteTable((float(draw(st.integers(128, 160))), *map(float, low)),
                                    (big, *[(1.0 - big) / len(low)] * len(low)))
    if kind == "integer":
        values = draw(st.lists(st.integers(-4, 3), min_size=2, max_size=5, unique=True))
    else:  # (a + g*i) / 2: strides up to g
        a, g = draw(st.integers(-9, -1)), draw(st.sampled_from([2, 3, 4]))
        steps = draw(st.lists(st.integers(0, 5), min_size=2, max_size=4, unique=True))
        values = [(a + g * i) / 2 for i in steps]
    weights = draw(st.lists(st.integers(1, 9), min_size=len(values),
                            max_size=len(values)))
    if max(values) <= 0:
        reject()
    return models.DiscreteTable(tuple(map(float, values)),
                                tuple(w / sum(weights) for w in weights))


class TestSumLawEngine:
    """The blocked sum-law engine against the per-step loops."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_loops(self, data):
        model = data.draw(_lattice_models())
        lat = model.lattice()
        b = models._block_steps(lat)
        # the loops convolve a wide table's 129+ taps per step: about 1 s
        # per call at n = 600, so wide tables stop at 200
        top = 200 if lat.span >= 128 else 600
        n = data.draw(st.one_of(st.sampled_from([0, 1, b - 1, b, b + 1, 2 * b + 1]),
                                st.integers(0, top)))
        # lambda * max S_n runs from -600 to 1200, across the 600 at which
        # the tilted form takes over; past it x_k may overflow
        lam = data.draw(st.floats(-1.0, 2.0)) * 600.0 / (max(model.support) * max(n, 1))
        try:
            want = rectified_exp_seq_loop(model, lam, n)
        except DivergentMoment as exc:
            with pytest.raises(DivergentMoment) as got:
                model.rectified_exp_seq(lam, n)
            assert str(got.value) == str(exc)
        else:
            np.testing.assert_allclose(model.rectified_exp_seq(lam, n), want,
                                       rtol=1e-13, atol=0.0)
        for got, want in zip(model.rectified_moment_seq(n),
                             rectified_moment_seq_loop(model, n)):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("spec, steps", [
        ("bernoulli-pm:p=0.3", 64),
        ("table:y=-2;-1;0;1;2,p=0.25;0.3;0.2;0.15;0.1", 25),
        ("table:y=2;-1;0.5,p=0.1;0.6;0.3", 42),
        ("table:y=-40;-7;0;3;25,p=0.3;0.3;0.2;0.15;0.05", 1),
        ("table:y=40;-1,p=0.01;0.99", 1),
    ], ids=["bernoulli", "table5", "stride3", "span65", "classes41"])
    def test_block_steps(self, spec, steps):
        assert models._block_steps(models.parse_model(spec).lattice()) == steps

    @pytest.mark.parametrize("lam", [1.0, -1000.0])
    def test_positive_support_one_step_per_block(self, lam):
        # stride 9 puts y = 1, 10 at one step per block; on a support above
        # 0 the weight 1{v <= 0} (lam = 1, tilted form) and exp(lam v+)
        # (lam = -1000, underflowing) are 0 on every column S_k can reach
        model = models.parse_model("table:y=1;10,p=0.5;0.5")
        assert models._block_steps(model.lattice()) == 1
        np.testing.assert_allclose(model.rectified_exp_seq(lam, 70),
                                   rectified_exp_seq_loop(model, lam, 70),
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_refused_like_the_loop(self):
        model = models.BernoulliPM(0.27)
        with pytest.raises(DivergentMoment) as want:
            rectified_exp_seq_loop(model, 3.0, 2000)
        with pytest.raises(DivergentMoment) as got:
            model.rectified_exp_seq(3.0, 2000)
        assert str(got.value) == str(want.value)


class TestTiltVariance:
    def test_normal_is_scale_squared(self):
        m = models.ShiftedNormal(-0.5, 1.7)
        assert m.tilt_var(0.3) == 1.7**2

    @pytest.mark.parametrize("lam", [-0.4, 0.0, 0.8])
    def test_discrete_is_derivative_of_tilted_mean(self, lam):
        m = models.DiscreteTable((1.5, -1.0, -0.25), (0.2, 0.5, 0.3))
        eps = 1e-6

        def tilt_mean(t):
            return m.mgf_prime(t) / m.mgf(t)

        fd = (tilt_mean(lam + eps) - tilt_mean(lam - eps)) / (2 * eps)
        assert m.tilt_var(lam) == pytest.approx(fd, rel=1e-7)
        if lam == 0.0:
            assert m.tilt_var(lam) == pytest.approx(m.var(), rel=1e-13)


class TestValidationAndGrammar:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            models.NormalLLR(0.0)
        with pytest.raises(ValueError):
            models.BernoulliPM(1.0)
        with pytest.raises(ValueError):
            models.DiscreteTable((1.0, 1.0), (0.5, 0.5))
        with pytest.raises(ValueError):
            models.DiscreteTable((1.0, -1.0), (0.6, 0.6))
        with pytest.raises(ValueError):
            models.DiscreteTable((1.0, -1.0), (0.5, 0.5), llr=True)
        for delta in (math.inf, math.nan):
            with pytest.raises(ValueError, match="delta must be positive and finite"):
                models.NormalLLR(delta)
        for a in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="a must be finite"):
                models.ShiftedNormal(a, 1.0)
        for sigma in (math.inf, math.nan):
            with pytest.raises(ValueError, match="sigma must be positive and finite"):
                models.ShiftedNormal(-1.0, sigma)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="values must be finite"):
                models.DiscreteTable((1.0, bad), (0.5, 0.5))
        # the square of 1.35e154 overflows float64; that of 1.34e154 does not
        for delta in (1e200, 1.35e154):
            with pytest.raises(ValueError, match="delta must have a finite square"):
                models.NormalLLR(delta)
        for sigma in (1e160, 1.35e154):
            with pytest.raises(ValueError, match="sigma must have a finite square"):
                models.ShiftedNormal(-1.0, sigma)
        assert models.NormalLLR(1.34e154).is_llr
        models.ShiftedNormal(-1.0, 1.34e154)

    def test_non_llr_discrepancy_rejected(self):
        with pytest.raises(NotAnLLRModel):
            models.ShiftedNormal(-1.0, 1.0).tv_discrepancy()
        with pytest.raises(NotAnLLRModel, match="^bernoulli-pm:p=0.4"):
            models.BernoulliPM(0.4).tv_discrepancy()

    def test_llr_is_a_property_of_the_law(self, nllr):
        # the shifted normal N(-1/2, 1) is the law of NormalLLR(1)
        same = models.ShiftedNormal(-0.5, 1.0)
        assert same.is_llr
        assert same.tv_discrepancy() == nllr.tv_discrepancy()
        # the two-point table at p = 1/(1+e) is BernoulliPM's LLR point,
        # flagged or not
        table = models.DiscreteTable((1.0, -1.0), (BERN_LLR_P, 1.0 - BERN_LLR_P))
        assert table.is_llr
        assert table.tv_discrepancy() == models.BernoulliPM(BERN_LLR_P).tv_discrepancy()

    def test_bernoulli_llr_point(self):
        m = models.BernoulliPM(BERN_LLR_P)
        assert m.is_llr
        assert m.tv_discrepancy() == pytest.approx(
            (1 - BERN_LLR_P) * (1 - math.exp(-1)), rel=1e-12
        )

    @pytest.mark.parametrize(
        "spec",
        [
            "normal-llr:delta=0.75",
            "shifted-normal:a=-0.5,sigma=2",
            "bernoulli-pm:p=0.3",
            "table:y=1;-0.5;-2,p=0.25;0.5;0.25",
            "normal-llr:delta=2",
        ],
    )
    def test_spec_round_trip(self, spec):
        m = models.parse_model(spec)
        again = models.parse_model(m.spec())
        assert again == m

    def test_malformed_specs(self):
        for bad in ("", "normal-llr", "normal-llr:foo=1", "martian:x=1"):
            with pytest.raises(ValueError):
                models.parse_model(bad)
        # parts that nothing reads, and repeated parts, are named
        for bad, message in [
            ("normal-llr:delta=1,sigma=3", "has unknown field 'sigma'"),
            ("shifted-normal:a=-1,sigma=1,delta=2", "has unknown field 'delta'"),
            ("normal-llr:delta=1,delta=2", "repeats 'delta'"),
            ("bernoulli-pm:p=0.3,foo", "has unknown flag 'foo'"),
            ("bernoulli-pm:p=0.3,llr", "has unknown flag 'llr'"),
            ("table:y=1;-1,p=0.4;0.6,llrr", "has unknown flag 'llrr'"),
            ("table:y=1;-1,p=0.4;0.6,y", "has unknown flag 'y'"),
            ("table:y=1;-1,p=0.4;0.6,p=0.5;0.5", "repeats 'p'"),
            ("table:y=1;-1,p=0.4;0.6,llr,llr", "repeats 'llr'"),
        ]:
            with pytest.raises(ValueError, match=re.escape(f"spec {bad!r} {message}")):
                models.parse_model(bad)


class TestMgfProperties:
    @given(
        lam1=st.floats(0.0, 3.0),
        lam2=st.floats(0.0, 3.0),
        p=st.floats(0.05, 0.45),
    )
    @settings(max_examples=50, deadline=None)
    def test_mgf_midpoint_convexity(self, lam1, lam2, p):
        m = models.BernoulliPM(p)
        mid = m.mgf(0.5 * (lam1 + lam2))
        assert mid <= 0.5 * (m.mgf(lam1) + m.mgf(lam2)) + 1e-12

    @given(delta=st.floats(0.1, 4.0))
    @settings(max_examples=50, deadline=None)
    def test_llr_family_critical_at_one(self, delta):
        m = models.NormalLLR(delta)
        assert abs(m.mgf(1.0) - 1.0) < 1e-12
        assert m.mgf(0.5) < 1.0  # strictly below 1 inside (0, lambda*)
        assert m.mgf(1.5) > 1.0

    def test_mgf_prime_is_derivative(self):
        m = models.DiscreteTable((1.5, -1.0, -0.25), (0.2, 0.5, 0.3))
        lam, eps = 0.7, 1e-6
        fd = (m.mgf(lam + eps) - m.mgf(lam - eps)) / (2 * eps)
        assert m.mgf_prime(lam) == pytest.approx(fd, rel=1e-8)


TABLE3 = models.DiscreteTable((1.0, -0.5, -2.0), (0.25, 0.5, 0.25))


def _searchsorted_quantile(model, u):
    """The inverse CDF the Monte Carlo pipeline used before quantile()."""
    support = np.asarray(model.support)
    cum = np.cumsum(model.probs)
    idx = np.searchsorted(cum, u, side="right")
    return support[np.minimum(idx, len(support) - 1)]


@st.composite
def _tables(draw):
    # narrow supports, and wide ones on both sides of the uint8 index limit
    k = draw(st.one_of(st.integers(1, 7), st.integers(254, 258)))
    # only the order of the support matters to the inverse CDF
    values = [float(v) - 0.5 * k for v in draw(st.permutations(range(k)))]
    raw = draw(st.lists(st.integers(0, 5), min_size=k, max_size=k)
               .filter(lambda w: sum(w) > 0))
    weights = [w / sum(raw) for w in raw]
    # shrink the total by a few ulps-worth so cum[-1] can fall below 1
    shrink = draw(st.sampled_from([1.0, 1.0 - 2e-16, 1.0 - 5e-13]))
    return models.DiscreteTable(tuple(values), tuple(w * shrink for w in weights))


def _uniforms(draw, cum):
    """Open-interval uniforms plus every cumulative probability exactly
    and its neighbours on both sides."""
    free = draw(st.lists(st.floats(2.0**-64, 1.0, exclude_max=True),
                         min_size=1, max_size=40))
    edges = [x for c in cum for x in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0))]
    u = np.array(free + [x for x in edges if 2.0**-64 <= x < 1.0])
    return np.maximum(u, 2.0**-64)


class TestQuantile:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_lattice_matches_searchsorted(self, data):
        model = data.draw(st.one_of(
            _tables(), st.floats(0.01, 0.99).map(models.BernoulliPM)))
        u = _uniforms(data.draw, np.cumsum(model.probs))
        want = _searchsorted_quantile(model, u)
        for shape in (u.shape, (1, u.size)):
            got = model.quantile(u.reshape(shape))
            assert got.dtype == want.dtype and got.shape == shape
            assert got.tobytes() == want.tobytes()

    @given(
        model=st.one_of(
            st.floats(0.05, 5.0).map(models.NormalLLR),
            st.builds(models.ShiftedNormal, st.floats(-5.0, 5.0),
                      st.floats(0.05, 5.0)),
        ),
        u=st.lists(st.floats(2.0**-64, 1.0, exclude_max=True), min_size=1,
                   max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_normal_matches_closed_form(self, model, u):
        u = np.array(u)
        want = model.loc + model.scale * ndtri(u)
        assert model.quantile(u).tobytes() == want.tobytes()

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_out_matches_fresh_array(self, data):
        model = data.draw(st.one_of(
            _tables(), st.floats(0.01, 0.99).map(models.BernoulliPM),
            st.floats(0.05, 5.0).map(models.NormalLLR)))
        shape = data.draw(st.sampled_from(["philox-view", "flat", "strided-out"]))
        if shape == "philox-view":
            # rows of n draws inside rows of 4 * ceil(n / 4) Philox outputs
            n = data.draw(st.integers(1, 23).filter(lambda n: n % 4))
            u = rng.uniform_block(data.draw(st.integers(0, 99)), 0,
                                  data.draw(st.integers(1, 9)), n)
            buffer = u.base.reshape(len(u), -1)
        else:
            u = _uniforms(data.draw, np.cumsum(model.probs)) if hasattr(
                model, "support") else rng.uniform_block(3, 0, 1, 37)[0].copy()
            if shape == "strided-out":
                u = u.reshape(1, -1)
                buffer = np.full((1, 3 * u.size), 7.0)
        want = model.quantile(u.copy())
        before = buffer.copy() if shape != "flat" else None
        out = u if shape != "strided-out" else buffer[:, ::3]
        # slices of one row, a few rows, and the whole block
        slice_draws = data.draw(st.sampled_from([1, 5, 40, 1 << 16]))
        with mock.patch.object(models, "_QUANTILE_SLICE", slice_draws):
            got = model.quantile(u, out=out)
        assert got is out
        assert got.tobytes() == want.tobytes()
        if shape == "philox-view":
            padding = np.ones(buffer.shape, dtype=bool)
            padding[:, : u.shape[1]] = False
            assert buffer[padding].tobytes() == before[padding].tobytes()
        elif shape == "strided-out":
            assert (np.delete(buffer, np.s_[::3], axis=1) == 7.0).all()

    def test_scalar_uniform(self):
        for model in (models.NormalLLR(1.0), models.BernoulliPM(0.3), TABLE3):
            for u in (0.2, 0.9):
                want = model.quantile(np.array([u]))
                assert model.quantile(np.float64(u)).tobytes() == want.tobytes()

    def test_strided_block(self):
        # uniform_block hands over a non-contiguous view of the Philox buffer
        u = np.random.default_rng(1).random((6, 8))[:, :7]
        for model in (models.NormalLLR(1.0), models.BernoulliPM(0.3),
                      models.DiscreteTable((1.0, -0.5, -2.0), (0.25, 0.5, 0.25))):
            got = model.quantile(u)
            assert got.flags.c_contiguous and got.shape == u.shape
            if isinstance(model, models.NormalLLR):
                want = model.loc + model.scale * ndtri(u)
            else:
                want = _searchsorted_quantile(model, u)
            assert got.tobytes() == want.tobytes()
