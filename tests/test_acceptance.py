"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  The heavy Monte Carlo cells (1e5 replications) are simulated once
and shared across the criteria that need them.
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest

from cusumkit import bounds, detect, models, moments, rng, simulate

from _oracles import convolution_recursion_loop, mgf_partitions

MC_REPS = 100_000
MC_SEED = 20260824
ALPHA = 0.05

BERN = models.BernoulliPM(1.0 / (1.0 + math.e))
TABLE3 = models.DiscreteTable((1.0, -0.5, -2.0), (0.25, 0.5, 0.25))
FIG_DELTAS = (0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
FIG_NS = (50, 200, 500, 1000)


def report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@lru_cache(maxsize=None)
def mc_cell(delta, n):
    """Shared 1e5-replication running-maximum sample for one (delta, n)."""
    cfg = simulate.SimConfig(
        models.NormalLLR(delta), n, MC_REPS, MC_SEED, parallel_streams=4
    )
    return simulate.simulate_cusum(cfg).w_max


@lru_cache(maxsize=None)
def mgf_curve(delta, lam, n):
    return moments.cusum_mgf_recursive(models.NormalLLR(delta), lam, n).values


def test_01_exact_enumeration_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for model in (BERN, TABLE3):
        n_max = 14
        means = moments.cusum_mean(model, n_max)
        table = moments.moment_table(model, n_max)
        curves = {
            lam: moments.cusum_mgf_recursive(model, lam, n_max).values
            for lam in (0.5, 1.0, 1.3)
        }
        for n in range(1, n_max + 1):
            dist = simulate.exact_enumerate(model, n)
            worst = max(worst, abs(dist.mean_w() - means[n]))
            worst = max(worst, abs(dist.var_w() - table.variances[n]))
            for lam, vals in curves.items():
                worst = max(worst, abs(dist.mgf_w(lam) - vals[n]))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-10 and elapsed < 10.0,
        f"max |engine - enumeration| = {worst:.3g} (tol 1e-10), "
        f"{elapsed:.1f}s (limit 10s)",
    )


def test_02_cross_method_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for delta in (0.1, 0.5, 1.0, 2.0, 5.0):
        m = models.NormalLLR(delta)
        rec = moments.cusum_mgf_recursive(m, 1.0, 500).values
        mat = moments.cusum_mgf_matrix(m, 1.0, 500).values
        loop = convolution_recursion_loop(m.rectified_exp_seq(1.0, 500))
        worst = max(worst, float(np.max(np.abs(mat / rec - 1.0))))
        worst = max(worst, float(np.max(np.abs(loop / rec - 1.0))))
        for n in (6, 12):
            part = mgf_partitions(m, 1.0, n)
            worst = max(worst, abs(part / rec[n] - 1.0))
    elapsed = time.perf_counter() - t0
    report(
        2,
        worst <= 1e-12 and elapsed < 10.0,
        f"max relative spread across methods = {worst:.3g} (tol 1e-12), "
        f"{elapsed:.1f}s (limit 10s)",
    )


def test_03_critical_moment_linearity():
    t0 = time.perf_counter()
    worst_diff = worst_slope = 0.0
    for delta in (0.5, 1.0):
        vals = mgf_curve(delta, 1.0, 2000)
        d1000 = vals[1000] - vals[999]
        d2000 = vals[2000] - vals[1999]
        worst_diff = max(worst_diff, abs(d2000 / d1000 - 1.0))
        emp = (vals[2000] - vals[1000]) / 1000.0
        slope, _ = moments.asymptote_slope(models.NormalLLR(delta))
        worst_slope = max(worst_slope, abs(slope / emp - 1.0))
    elapsed = time.perf_counter() - t0
    report(
        3,
        worst_diff <= 0.01 and worst_slope <= 0.01 and elapsed < 30.0,
        f"first-difference drift {worst_diff:.2%}, slope mismatch "
        f"{worst_slope:.2%} (tol 1% each), {elapsed:.1f}s (limit 30s)",
    )


def test_04_mean_variance_stabilization():
    table = moments.moment_table(models.NormalLLR(1.0), 2000)
    de = abs(table.means[2000] - table.means[1000])
    dv = abs(table.variances[2000] - table.variances[1000])
    report(
        4,
        de < 1e-4 and dv < 1e-3,
        f"|E_2000 - E_1000| = {de:.3g} (tol 1e-4), "
        f"|V_2000 - V_1000| = {dv:.3g} (tol 1e-3)",
    )


def test_05_bound_sandwich():
    violations = 0
    checked = 0
    cases = [(BERN, 14), (TABLE3, 14)]
    cases += [(models.NormalLLR(d), 500) for d in (0.1, 0.5, 1.0, 2.0, 5.0)]
    cases += [(models.NormalLLR(d), 2000) for d in (0.5, 1.0)]
    for model, n_max in cases:
        lam_star = models.cached_lambda_star(model)
        vals = moments.cusum_mgf_recursive(model, lam_star, n_max).values
        disc = model.one_minus_exp_pos_mean(lam_star)
        for n in range(n_max + 1):
            checked += 1
            upper = 1.0 + n * disc
            if not (1.0 - 1e-12 <= vals[n] <= upper + 1e-12 <= n + 1 + 1e-12):
                violations += 1
    report(
        5,
        violations == 0,
        f"{violations} violations of 1 <= M_n <= 1 + nD <= n + 1 over "
        f"{checked} (model, n) pairs",
    )


def test_06_growth_regimes():
    crit = mgf_curve(1.0, 1.0, 2000)
    sub = mgf_curve(1.0, 0.999, 2000)
    sup = mgf_curve(1.0, 1.001, 2000)
    growth = models.NormalLLR(1.0).mgf(1.001)
    ns = np.arange(2001)
    sub_bad = int(np.sum(sub > crit**0.999 * (1 + 1e-12)))
    sup_bad = int(np.sum(sup < growth**ns * (1 - 1e-12)))
    report(
        6,
        sub_bad == 0 and sup_bad == 0,
        f"subcritical cap violations {sub_bad}, supercritical floor "
        f"violations {sup_bad} over n <= 2000",
    )


def test_07_threshold_chain():
    t0 = time.perf_counter()
    bad = []
    for delta in FIG_DELTAS:
        m = models.NormalLLR(delta)
        for n in FIG_NS:
            h_mc, se = simulate._upper_quantile(mc_cell(delta, n), ALPHA)
            det = bounds.lower_bound_detail(m, n, ALPHA)
            ub1 = bounds.threshold_ub(m, n, ALPHA, "ub1")
            ub3 = bounds.threshold_ub(m, n, ALPHA, "ub3")
            ub2 = bounds.threshold_ub(m, n, ALPHA, "ub2")
            ok = (
                det.lb2 <= det.lb1 <= h_mc + 3 * se
                and h_mc <= ub1 + 3 * se
                and ub1 <= ub3 <= ub2
            )
            if not ok:
                bad.append((delta, n))
    elapsed = time.perf_counter() - t0
    report(
        7,
        not bad and elapsed < 300.0,
        f"chain lb2<=lb1<=h_mc<=ub1<=ub3<=ub2 broken at {bad or 'none'} "
        f"({len(FIG_DELTAS) * len(FIG_NS)} cells, {MC_REPS} reps each), "
        f"{elapsed:.0f}s (limit 300s)",
    )


def test_08_false_alarm_coverage():
    m = models.NormalLLR(0.5)
    w_max = mc_cell(0.5, 500)
    msgs = []
    ok = True
    for variant in ("ub1", "ub3"):
        h = bounds.threshold_ub(m, 500, ALPHA, variant)
        rate = float(np.mean(w_max >= h))
        se = math.sqrt(rate * (1.0 - rate) / MC_REPS) or 1.0 / MC_REPS
        ok = ok and rate <= ALPHA + 3 * se
        msgs.append(f"{variant}: rate {rate:.4f} <= {ALPHA} + 3*{se:.1g}")
    report(8, ok, "; ".join(msgs))


def test_09_threshold_vs_delta_shape():
    qs = {
        d: simulate._upper_quantile(mc_cell(d, 1000), ALPHA)
        for d in (0.1, 1.0, 4.0)
    }
    gap_lo = qs[1.0][0] - qs[0.1][0]
    gap_hi = qs[1.0][0] - qs[4.0][0]
    se_lo = 3 * (qs[1.0][1] + qs[0.1][1])
    se_hi = 3 * (qs[1.0][1] + qs[4.0][1])
    report(
        9,
        gap_lo > se_lo and gap_hi > se_hi,
        f"h(0.1)={qs[0.1][0]:.3f} < h(1.0)={qs[1.0][0]:.3f} > "
        f"h(4.0)={qs[4.0][0]:.3f}, gaps {gap_lo:.3f}/{gap_hi:.3f} vs "
        f"3se {se_lo:.3f}/{se_hi:.3f}",
    )


def test_10_superpolynomial_growth():
    vals = mgf_curve(1.0, 1.0, 2000)
    ratios = [vals[n] / n**0.9 for n in (500, 1000, 2000)]
    report(
        10,
        ratios[0] < ratios[1] < ratios[2],
        f"M_n(1)/n^0.9 at n=500,1000,2000 = "
        + ", ".join(f"{r:.4f}" for r in ratios),
    )


def test_11_detector_calibration():
    pair = detect.NormalPair(theta0=0.0, theta1=0.5, sigma=1.0)
    n, datasets = 500, 10_000
    h = bounds.threshold_ub(pair.increment_model(), n, ALPHA, "ub3")
    from scipy.special import ndtri

    x = ndtri(rng.uniform_block(MC_SEED + 1, 0, datasets, n))  # null data
    y = pair.llr(x)
    _, w_max = simulate.lindley_block(y)
    rate = float(np.mean(w_max >= h))
    se = math.sqrt(rate * (1.0 - rate) / datasets) or 1.0 / datasets
    calibrated = rate <= ALPHA + 3 * se

    mismatches = 0
    for i in range(100):
        rep = detect.scan_offline(y[i], h)
        state = detect.CusumState()
        path = [0.0]
        for inc in y[i]:
            state, _ = detect.monitor_step(state, float(inc))
            path.append(state.w)
        if not np.array_equal(np.asarray(path), rep.path):
            mismatches += 1
    report(
        11,
        calibrated and mismatches == 0,
        f"null detection rate {rate:.4f} <= {ALPHA} + 3*{se:.1g} at ub3; "
        f"{mismatches} offline/monitor path mismatches over 100 datasets",
    )


def test_12_tail_lower_envelope():
    m = models.NormalLLR(1.0)
    n, h = 500, 4.0
    w_max = mc_cell(1.0, n)
    p_hat = float(np.mean(w_max >= h))
    se = math.sqrt(p_hat * (1.0 - p_hat) / MC_REPS)
    bad = []
    for k in (1, 5, 10, 20):
        lower = bounds.max_tail_lower(m, n, h, k)
        if p_hat < lower - 3 * se:
            bad.append(k)
    report(
        12,
        not bad,
        f"p_hat = {p_hat:.4f} (se {se:.1g}) dominates the segment lower "
        f"envelope for k in (1, 5, 10, 20); failures: {bad or 'none'}",
    )
