import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from cusumkit import models
from cusumkit.errors import (
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

    def test_non_llr_discrepancy_rejected(self):
        with pytest.raises(NotAnLLRModel):
            models.ShiftedNormal(-1.0, 1.0).tv_discrepancy()
        with pytest.raises(NotAnLLRModel):
            models.BernoulliPM(0.4).tv_discrepancy()

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
