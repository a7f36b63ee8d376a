import math
import re
import subprocess
import sys
import textwrap
import time
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from cusumkit import cli, models, moments, rng
from cusumkit.errors import (
    DivergentMoment,
    NoConvergence,
    NoPositiveRoot,
    NotAnLLRModel,
    TooLarge,
)

from _oracles import (
    enumerate_paths,
    expm1_root_decimal,
    lambda_star_brentq,
    quad_one_minus_exp_pos,
    quad_rectified_exp,
    quad_rectified_exp_below,
    quad_rectified_moments,
    rectified_exp_seq_loop,
    rectified_moment_seq_loop,
)

BERN_LLR_P = 1.0 / (1.0 + math.e)
_EPS = float(np.finfo(float).eps)


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
            got = m.rectified_exp_seq(lam, n)[n - 1]
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

    def test_table_2_m2_m3_3_0_mean_zero_by_rounding_refused(self):
        # the exact mean is 0 and the float mean -5.6e-17, so m(lambda) >= 1
        # for every lambda down to 0; the bracket search used to halve lo
        # forever, hence the subprocess and its timeout
        spec = ("table:y=2;-2;-3;3;0,p=0.06896551724137931;0.06896551724137931;"
                "0.3103448275862069;0.3103448275862069;0.2413793103448276")
        code = ("import sys; from cusumkit import cli; sys.exit(cli.main(["
                f"'threshold', '--model', {spec!r}, '--n', '10', '--alpha', '0.05']))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: NoPositiveRoot: ")
        assert "0 up to rounding" in proc.stderr

    def test_table_3_2_1_m2_m3_mean_zero_by_rounding_refused(self, capsys):
        # probabilities 13, 10, 20, 11, 19 / 73 sum to 1 - 2.2e-16 as floats,
        # so m(lambda) dips below 1 near 0 and brentq found lambda* = 2.3e-10
        # in the rounding (ub1 = 1.29e10)
        spec = ("table:y=3;2;1;-2;-3,p=0.1780821917808219;0.136986301369863;"
                "0.273972602739726;0.1506849315068493;0.2602739726027397")
        with pytest.raises(NoPositiveRoot, match="0 up to rounding"):
            models.parse_model(spec).lambda_star()
        code = cli.main(["threshold", "--model", spec, "--n", "50", "--alpha", "0.05"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: NoPositiveRoot: ")

    @pytest.mark.parametrize("values, probs", [
        ((1.0, -1.0), (0.49999999995, 0.50000000005)),
        ((2.0, -1.0), (0.33333333330000003, 0.6666666667)),
    ], ids=["pm1", "2-m1"])
    def test_small_negative_mean_keeps_its_root(self, values, probs):
        # E Y = -1e-10: lambda* = 2|E Y| / Var Y to O(E Y^2), where the
        # rounding of m(lambda) alone would put the root near 1e-15
        m = models.DiscreteTable(values, probs)
        assert m.mean() == pytest.approx(-1e-10, rel=1e-4)
        assert m.lambda_star() == pytest.approx(-2.0 * m.mean() / m.var(), rel=1e-5)

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

    def test_wrong_tiny_root_of_small_mean_refused(self):
        # m(lambda) - 1 rounds to 0.0 both at the root 2.0e-10 and at
        # 6.1e-16; the expm1 sum, the form solved for this mean, does not
        m = models.DiscreteTable((1.0, -1.0), (0.49999999995, 0.50000000005))
        assert m.mgf(6.1e-16) - 1.0 == 0.0
        with mock.patch.object(models.DiscreteTable, "_lambda_star_impl",
                               lambda self: 6.1e-16):
            with pytest.raises(NoConvergence, match="expm1"):
                m.lambda_star()


def _counted(f, counts):
    """f, appending 1 to counts at each call."""
    def g(x):
        counts.append(1)
        return f(x)
    return g


@contextmanager
def _solve_counts():
    """Within it, each root search through models._newton_root appends its
    number of values of f to the yielded list."""
    counts = []
    solve = models._newton_root

    def counting(f, fprime, lo, hi):
        calls = []
        try:
            return solve(_counted(f, calls), fprime, lo, hi)
        finally:
            counts.append(len(calls))

    with mock.patch.object(models, "_newton_root", counting):
        yield counts


class TestNewtonRoot:
    """models._newton_root on increasing functions with their derivatives."""

    @pytest.mark.parametrize("f, fprime, lo, hi, root", [
        (lambda x: x**3 - 2.0, lambda x: 3.0 * x * x, 0.0, 4.0, 2.0 ** (1.0 / 3.0)),
        (lambda x: 0.0 if abs(x - 0.2) < 1e-3 else x - 0.2, lambda x: 1.0, -1.0, 2.0,
         None),
        (lambda x: math.copysign(1.0, x - 0.7), lambda x: 0.0, -1.0, 2.0, 0.7),
        (lambda x: math.inf if x > 0.5 else math.atan(x - 0.3),
         lambda x: 1.0 / (1.0 + (x - 0.3) ** 2), -1.0, 10.0, 0.3),
        (lambda x: float(np.exp(800.0 * x)) - 2.0,
         lambda x: 800.0 * float(np.exp(800.0 * x)), 0.0, 4.0, math.log(2.0) / 800.0),
        (lambda x: (x - 0.1) ** 3 * 1e-300, lambda x: 3e-300 * (x - 0.1) ** 2, -1.0, 2.0,
         None),
    ], ids=["cubic", "flat-zero", "step", "inf-inside", "overflow", "tiny"])
    def test_root(self, f, fprime, lo, hi, root):
        x = models._newton_root(f, fprime, lo, hi)
        if root is None:  # a run of exact zeros: any of them
            assert f(x) == 0.0
        else:
            assert abs(x - root) <= 2.0 * math.ulp(root)

    def test_wide_flat_bracket(self):
        # the expm1 sum of a table whose mean is 0 up to rounding changes
        # sign near 5.2e-15, where rounding leaves it flat and noisy, so the
        # search bisects; at the midpoint of [3.55e-15, 1] it used up its
        # 100 values of f a few floats short of a sign change
        model = models.DiscreteTable((0.03, -0.02, -0.01), (1 / 3, 1 / 3, 1 / 3))
        f = model._expm1_sum
        calls = []
        x = models._newton_root(_counted(f, calls), model.mgf_prime, 3.55e-15, 1.0)
        assert len(calls) <= models._MAX_EVALS
        assert 3.55e-15 < x < 1e-14
        fx = f(x)
        assert (fx == 0.0 or fx < 0.0 <= f(math.nextafter(x, math.inf))
                or f(math.nextafter(x, -math.inf)) <= 0.0 < fx)

    @pytest.mark.parametrize("f, fprime, lo, hi, message", [
        (lambda x: math.nan if 1.0 < x < 2.0 else x - 1.5, lambda x: 1.0, 0.0, 3.0,
         "f(0.0) = -1.5 and f(1.5) = nan bracket no root"),
        (lambda x: math.nan, lambda x: 1.0, 0.0, 3.0,
         "f(0.0) = nan and f(3.0) = nan bracket no root"),
        (lambda x: x * x + 1.0, lambda x: 2.0 * x, -1.0, 2.0,
         "f(-1.0) = 2 and f(2.0) = 5 bracket no root"),
        (lambda x: x - 3.0, lambda x: 1.0, -1.0, 2.0,
         "f(-1.0) = -4 and f(2.0) = -1 bracket no root"),
        # bisection alone: from a width of 2 to the floats around 1e-200
        (lambda x: math.copysign(1.0, x - 1e-200), lambda x: 0.0, -1.0, 1.0,
         "holds floats after 100 values of f"),
    ], ids=["nan-inside", "nan-end", "same-sign", "no-root", "evaluation-cap"])
    def test_refused(self, f, fprime, lo, hi, message):
        calls = []
        with pytest.raises(NoConvergence, match=re.escape(message)):
            models._newton_root(_counted(f, calls), fprime, lo, hi)
        assert len(calls) <= models._MAX_EVALS


@st.composite
def _negative_drift_tables(draw):
    """Finite supports with E Y < 0 < P(Y > 0): scaled integer tables, and
    two-point tables whose mean is -eps E|Y| with eps down to 1e-12, whose
    roots come from the expm1 sum."""
    if draw(st.booleans()):
        up, down = draw(st.floats(0.01, 1e4)), draw(st.floats(0.01, 1e4))
        eps = 10.0 ** draw(st.floats(-12.0, -4.5))
        p = down / (up + down) * (1.0 - eps)
        return models.DiscreteTable((up, -down), (p, 1.0 - p))
    values = draw(st.lists(st.integers(-4, 3), min_size=2, max_size=5, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(values),
                            max_size=len(values)))
    y = np.array(values, dtype=float) * draw(st.floats(0.01, 3.0))
    p = np.array(weights) / sum(weights)
    if max(values) <= 0 or np.dot(y, p) >= 0.0:
        reject()
    return models.DiscreteTable(tuple(y.tolist()), tuple(p.tolist()))


def _rounding_band(model, root, ref):
    """16 eps S / |f'(root)| + 2 ulp, S the sum of the absolute terms of
    the expm1 sum at ref: the distance from ref within which the float
    root of that sum may land."""
    y, p = np.asarray(model.support), np.asarray(model.probs)
    terms = float(np.dot(np.abs(np.expm1(ref * y)), p))
    return 16.0 * _EPS * terms / abs(model.mgf_prime(root)) + 2.0 * math.ulp(ref)


def _lambda_star_checked(model):
    """model.lambda_star(), None when the mean is 0 up to rounding, after
    checking that no search took more than _MAX_EVALS values."""
    with _solve_counts() as counts:
        try:
            root = model.lambda_star()
        except NoPositiveRoot:
            return None
    assert counts and max(counts) <= models._MAX_EVALS
    return root


_BAND_TABLES = [
    "table:y=2;-1;0.5,p=0.1;0.6;0.3",
    "table:y=1.5;-1;-0.25,p=0.2;0.5;0.3",
    "table:y=1;-0.5;-2,p=0.25;0.5;0.25",
    # the llr table of the discrete detect pair, whose lambda* is 1
    "table:y=-1.3862943611198906;-0.40546510810816427;0.40546510810816422;"
    "1.3862943611198906,p=0.4;0.3;0.2;0.1",
    "table:y=1;-1,p=0.49999999995;0.50000000005",
    "table:y=2;-1,p=0.33333333330000003;0.6666666667",
    "table:y=100000;-40000,p=0.28;0.72",
    "table:y=5000;-7,p=0.001;0.999",
]


_GENERIC_FUNCTIONS = [
    pytest.param(lambda x: x**3 - 2.0, lambda x: 3.0 * x * x, id="cubic"),
    pytest.param(lambda x: math.tanh(x - 0.3) + 1e-12 * x,
                 lambda x: 1.0 - math.tanh(x - 0.3) ** 2 + 1e-12, id="tanh"),
    pytest.param(lambda x: math.copysign(1.0, x - 0.7), lambda x: 0.0, id="step"),
    pytest.param(lambda x: 0.0 if abs(x - 0.2) < 1e-3 else x - 0.2,
                 lambda x: 0.0 if abs(x - 0.2) < 1e-3 else 1.0, id="flat-zero"),
    # a sign change at a pole, where f' < 0 leaves bisection alone
    pytest.param(lambda x: 1.0 / (x - 0.4) if x != 0.4 else math.inf,
                 lambda x: -1.0 / (x - 0.4) ** 2 if x != 0.4 else math.inf, id="pole"),
    pytest.param(lambda x: math.nan if x > 1.0 else x - 0.5,
                 lambda x: math.nan if x > 1.0 else 1.0, id="nan"),
    pytest.param(lambda x: (x - 0.1) ** 3 * 1e-300,
                 lambda x: 3e-300 * (x - 0.1) ** 2, id="tiny"),
    pytest.param(lambda x: x * x + 1.0, lambda x: 2.0 * x, id="same-sign"),
]


def _check_against_brentq(f, fprime, a, b, xtol, rtol, maxiter, band=lambda x: 0.0):
    """models._newton_root on [min(a, b), max(a, b)] against scipy's brentq
    on (a, b) at the given tolerances.

    Ends of one sign are refused by both, and a NaN at an end by the Newton
    search.  Otherwise the Newton root is a float at a sign change of f, and
    where brentq converges its root is within xtol + rtol |root| + band(root)
    of it (or both are exact zeros of f); band(x) bounds how far rounding in
    f may spread the sign changes around x."""
    lo, hi = min(a, b), max(a, b)
    flo, fhi = f(lo), f(hi)
    if not flo <= 0.0 <= fhi:
        if not (math.isnan(flo) or math.isnan(fhi)):
            with pytest.raises(ValueError, match="must have different signs"):
                brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
        with pytest.raises(NoConvergence, match="bracket no root"):
            models._newton_root(f, fprime, lo, hi)
        return
    x = models._newton_root(f, fprime, lo, hi)
    fx = f(x)
    assert lo <= x <= hi
    assert (fx == 0.0 or fx < 0.0 <= f(math.nextafter(x, math.inf))
            or f(math.nextafter(x, -math.inf)) <= 0.0 < fx)
    try:
        ref = brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
    except RuntimeError:  # brentq's iteration cap; the Newton search has none of its own
        return
    assert (abs(x - ref) <= xtol + rtol * abs(ref) + math.ulp(ref) + band(ref)
            or fx == 0.0 == f(ref))


class TestBrentq:
    """The root searches against scipy's brentq and the route they replaced;
    the library itself finds its roots without scipy.optimize."""

    @pytest.mark.parametrize("spec", _BAND_TABLES)
    def test_lambda_star_within_rounding_band(self, spec):
        model = models.parse_model(spec)
        root = _lambda_star_checked(model)
        ref = expm1_root_decimal(model, root / 2.0, 2.0 * root)
        assert abs(root - ref) <= _rounding_band(model, root, ref)

    def test_wide_table_root_to_float_precision(self):
        # lambda* = 4.0e-7, where m' = 780: brentq's absolute xtol of 1e-15
        # left the root 3.9e-11 off, and a search on m - 1, a multiple of
        # 1.1e-16 there, 2.6e-13 relative off; on the expm1 sum it lands
        # within that sum's rounding band
        model = models.parse_model("table:y=100000;-40000,p=0.28;0.72")
        root = model.lambda_star()
        ref = expm1_root_decimal(model, root / 2.0, 2.0 * root)
        assert abs(root - ref) <= _rounding_band(model, root, ref)
        assert abs(lambda_star_brentq(model) - ref) > 3e-11 * ref

    @given(model=_negative_drift_tables())
    @settings(max_examples=150, deadline=None)
    def test_lambda_star_properties(self, model):
        root = _lambda_star_checked(model)
        if root is None:
            reject()
        ref = expm1_root_decimal(model, root / 2.0, 2.0 * root)
        band = _rounding_band(model, root, ref)
        assert abs(root - ref) <= band
        # brentq stopped within xtol + rtol * lambda = 1e-15 (1 + lambda) of
        # a float root of the form it solved: loose for small roots, 1.6e-6
        # relative at lambda = 6.4e-10.  For means below -1e-4 E|Y| that
        # form was m - 1, whose float roots lie within 16 eps (m + 1) / m'
        # of ref: 7e-10 for y = (0.03125, -1), mean -1.0e-5, where it
        # landed 5.0e-12 from the expm1 sum's root
        old_band = band
        if not -model.mean() < 1e-4 * model._spread():
            old_band = (16.0 * _EPS * (model.mgf(ref) + 1.0) / abs(model.mgf_prime(root))
                        + 2.0 * math.ulp(ref))
        assert (abs(root - lambda_star_brentq(model))
                <= band + old_band + 1e-15 * (1.0 + root))

    @given(values=st.lists(st.integers(-4, 3), min_size=2, max_size=5, unique=True),
           data=st.data(), xtol=st.sampled_from([1e-15, 1e-12, 2e-12]),
           maxiter=st.sampled_from([3, 100]))
    @settings(max_examples=150, deadline=None)
    def test_critical_exponent_roots(self, values, data, xtol, maxiter):
        # both forms of m(t) = 1 on the brackets lambda_star builds, and on
        # brackets from the trivial root 0 and from below it
        weights = data.draw(st.lists(st.integers(1, 9), min_size=len(values),
                                     max_size=len(values)))
        y = np.array(values, dtype=float) * data.draw(st.floats(0.01, 3.0))
        p = np.array(weights) / sum(weights)
        # a mean within 8 eps E|Y| of 0, which lambda_star refuses, leaves
        # m(t) = 1 no root the floats resolve
        if max(values) <= 0 or -np.dot(y, p) <= 8.0 * _EPS * np.dot(np.abs(y), p):
            reject()

        def fprime(t):
            return float(np.dot(y * np.exp(t * y), p))

        for f, terms in ((lambda t: float(np.dot(np.exp(t * y), p)) - 1.0,
                          lambda t: float(np.dot(np.exp(t * y), p)) + 1.0),
                         (lambda t: float(np.dot(np.expm1(t * y), p)),
                          lambda t: float(np.dot(np.abs(np.expm1(t * y)), p)))):
            def band(t, terms=terms):
                """16 eps S / |f'(t)| + 2 ulp, S the sum of the absolute
                terms of f: how far rounding may move a sign change."""
                return 16.0 * _EPS * terms(t) / abs(fprime(t)) + 2.0 * math.ulp(t)

            hi = 1.0
            while f(hi) <= 0.0:
                hi *= 2.0
            lo = hi / 2.0
            while f(lo) >= 0.0 and lo > 1e-300:
                lo /= 2.0
            for a in (lo, 0.0, -hi):
                _check_against_brentq(f, fprime, a, hi, xtol, 1e-15, maxiter, band)

    @pytest.mark.parametrize("f, fprime", _GENERIC_FUNCTIONS)
    @pytest.mark.parametrize("a, b", [(-1.0, 2.0), (2.0, -1.0), (0.0, 1.5), (-3.0, 0.9)])
    @pytest.mark.parametrize("xtol, rtol, maxiter", [
        (2e-12, 4 * np.finfo(float).eps, 100), (1e-300, 1e-15, 100),
        (1e-3, 1e-6, 100), (1e-15, 1e-15, 2),
    ], ids=["default", "tight", "loose", "maxiter-2"])
    def test_generic_functions(self, f, fprime, a, b, xtol, rtol, maxiter):
        _check_against_brentq(f, fprime, a, b, xtol, rtol, maxiter)

    def test_cli_import_leaves_scipy_optimize_out(self):
        code = "import sys, cusumkit.cli; sys.exit('scipy.optimize' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


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


class TestRectifiedExpArguments:
    """x_k of a NaN or infinite lambda is refused as the MGF routes refuse
    it (moments._check_mgf_args), for every kind of model."""

    @pytest.mark.parametrize("model", [
        models.NormalLLR(1.0),
        models.BernoulliPM(0.3),
        models.DiscreteTable((-2.0, -1.0, 0.0, 1.0, 2.0), (0.25, 0.3, 0.2, 0.15, 0.1)),
    ], ids=["normal", "bernoulli", "table5"])
    @pytest.mark.parametrize("lam, message", [
        (math.nan, "lambda must be a number, got nan"),
        (math.inf, "lambda must be finite, got inf"),
        (-math.inf, "lambda must be finite, got -inf"),
    ], ids=["nan", "inf", "-inf"])
    def test_non_finite_lambda_refused(self, model, lam, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            model.rectified_exp_seq(lam, 5)
        with pytest.raises(ValueError, match=re.escape(message)):
            moments.cusum_mgf_recursive(model, lam, 5)


class TestExtremeLambda:
    """x_k where lam * mu_k + (lam sd_k)^2 / 2, or lam * y, leaves the
    float range: values in (0, 1] for lam < 0, DivergentMoment for lam > 0,
    and never a RuntimeWarning."""

    @pytest.mark.parametrize("model", [models.NormalLLR(1.0), models.ShiftedNormal(-0.5, 2.0)],
                             ids=["normal-llr", "shifted-normal"])
    @pytest.mark.parametrize("lam", [-1.0, -5.0, -20.0, -1e300])
    def test_normal_negative_lambda_matches_quadrature(self, model, lam):
        # the direct form exp(expo) Phi(a) overflows from k = 701 at lam =
        # -1 for normal-llr:delta=1, and at k = 1 from lam = -20 for sigma = 2
        n = 2000
        xs = model.rectified_exp_seq(lam, n)
        assert np.all(np.isfinite(xs)) and np.all((xs > 0.0) & (xs <= 1.0))
        mu, sd = model._sum_params(n)
        if lam == -1e300:
            np.testing.assert_array_equal(xs, ndtr(-mu / sd))
        for k in (1, 2, 10, 100, 700, 701, 702, 1000, 1999, 2000):
            want = quad_rectified_exp_below(mu[k - 1], sd[k - 1], lam)
            assert xs[k - 1] == pytest.approx(want, rel=1e-12, abs=0.0), k

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("model", [
        models.BernoulliPM(0.3),
        models.parse_model("table:y=-2;-1;0;1;2,p=0.25;0.3;0.2;0.15;0.1"),
        models.NormalLLR(1.0),
        models.ShiftedNormal(0.3, 2.0),
    ], ids=["bernoulli", "table5", "normal-llr", "shifted-normal-up"])
    @pytest.mark.parametrize("lam", [-1.7e308, -1e200, 1e200, 1.7e308])
    def test_no_overflow_warning(self, model, lam):
        if lam > 0.0:
            with pytest.raises(DivergentMoment):
                model.rectified_exp_seq(lam, 3)
            return
        xs = model.rectified_exp_seq(lam, 3)
        assert np.all((xs > 0.0) & (xs <= 1.0))
        if isinstance(model, models.BernoulliPM):  # P(S_k <= 0)
            np.testing.assert_allclose(xs, [0.7, 0.91, 0.784], rtol=2 * _EPS, atol=0.0)


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


# atoms of probability 0, below 2**-64, at it and just above it
_TINY_PROBS = (0.0, 2.0**-70, float(np.nextafter(2.0**-64, 0.0)), 2.0**-64,
               float(np.nextafter(2.0**-64, 1.0)), 1e-300)


@st.composite
def _word_tables(draw):
    """Finite supports for the word map: 1 to 258 atoms, on both sides of
    the uint8 index limit, with tiny atoms, dyadic cumulative sums (0.5 and
    the like) and a total rounding below or above 1."""
    k = draw(st.one_of(st.integers(1, 7), st.integers(251, 255)))
    if draw(st.booleans()):
        # 2**-e / 2**ceil(log2 k) each, the last atom taking the exact rest
        scale = 2.0 ** -math.ceil(math.log2(k))
        head = [2.0 ** -draw(st.integers(0, 6)) * scale for _ in range(k - 1)]
        weights = head + [1.0 - sum(head)]
    else:
        raw = draw(st.lists(st.integers(0, 5), min_size=k, max_size=k)
                   .filter(lambda w: sum(w) > 0))
        weights = [w / sum(raw) for w in raw]
    for _ in range(draw(st.integers(0, 3))):
        weights.insert(draw(st.integers(0, len(weights))),
                       draw(st.sampled_from(_TINY_PROBS)))
    shrink = draw(st.sampled_from([1.0, 1.0 - 2e-16, 1.0 - 5e-13, 1.0 + 2e-16,
                                   1.0 + 5e-13]))
    values = [float(v) - 0.5 * len(weights)
              for v in draw(st.permutations(range(len(weights))))]
    return models.DiscreteTable(tuple(values),
                                tuple(min(w * shrink, 1.0) for w in weights))


class TestWordMap:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_words_match_clamped_uniforms(self, data):
        model = data.draw(st.one_of(
            _word_tables(), st.floats(0.01, 0.99).map(models.BernoulliPM),
            st.just(models.BernoulliPM(0.5))))
        # each cut-point T_j = ceil(cum_j * 2**53) in exact arithmetic, and
        # the words on both sides of T_j * 2**11
        words = [0, 2**11 - 1, 2**64 - 1]
        for c in np.cumsum(model.probs).tolist():
            t = math.ceil(Fraction(c) * 2**53)
            words += [t * 2**11 - 1, t * 2**11]
        words += data.draw(st.lists(st.integers(0, 2**64 - 1), max_size=40))
        r = np.array([w for w in words if 0 <= w < 2**64], dtype=np.uint64)
        u = np.maximum((r >> np.uint64(11)) * 2.0**-53, rng.MIN_UNIFORM)
        want = model.quantile(u)
        assert model.from_words(r).tobytes() == want.tobytes()
        # in place over the words' own memory, in slices of a few rows
        block = r.reshape(-1, 1).copy()
        with mock.patch.object(models, "_QUANTILE_SLICE", data.draw(st.sampled_from([1, 5]))):
            got = model.from_words(block, out=block.view(np.float64))
        assert got.base is block and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 7, 12])
    @pytest.mark.parametrize("model", [models.BernoulliPM(0.3), TABLE3],
                             ids=["bernoulli", "table3"])
    def test_block_matches_uniform_quantile(self, model, n):
        y = model.increments_block(5, 2, 9, n)
        want = model.quantile(rng.uniform_block(5, 2, 9, n))
        assert y.shape == (9, n) and y.tobytes() == want.tobytes()
