"""The benchmark's workloads: generated inputs, operations and output checks.

A workload is a list of operations, one *cycle*, that the runner repeats in a
closed loop with a single client.  An operation calls the program the way a
user does: ``cusumkit.cli.main([...])`` with ``--output`` naming a file, or a
public library function where no subcommand exists.  The output is checked
after the timed call returns.

Parameters are drawn from the workload seed, fresh in every cycle, while the
input sizes stay fixed, so every cycle does the same amount of work.  Each
operation counts towards one of the workload's two end-to-end rates:

  workload       primary_per_s                  secondary_per_s
  mc_threshold   MC steps/s, normal cells       MC steps/s, lattice cells
  exact_tables   analytic (normal) ops/s        lattice (finite-support) ops/s
  detect_stream  obs/s, transient/abrupt scans  obs/s, batched monitor

The --parallel 2 cell of mc_threshold counts towards neither: on a shared
2-core host its rate is too unsteady to bound, so the run description and
the traced run report it instead.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr

from cusumkit import bounds, cli, detect, errors, models, moments, simulate

ALPHA = 0.05
MC_REPS = 100_000
MAX_EXP = math.log(np.finfo(float).max)  # exp() overflows beyond this
RTOL_METHODS = 1e-9  # recursive vs matrix MGF
TOL_ORACLE = 1e-10  # exact enumeration vs the moment engine
TOL_ORDER = 1e-12  # rounding slack for inequalities between exact values

# The rates of each workload under the names the ROADMAP uses,
# with the operation tags (Op.rate) each one sums over.
RATE_NAMES = {
    "mc_threshold": {"mc_steps_per_s": ("primary", "secondary"),
                     "mc_normal_steps_per_s": ("primary",),
                     "mc_lattice_steps_per_s": ("secondary",),
                     "mc_steps_per_s_2streams": ("parallel2",)},
    "exact_tables": {"analytic_ops_per_s": ("primary",), "lattice_ops_per_s": ("secondary",)},
    "detect_stream": {"scan_obs_per_s": ("primary",), "monitor_obs_per_s": ("secondary",)},
}


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass
class Op:
    """One program call with the check of its output.

    The same ``slot`` does the same ``work`` in every cycle; ``rate`` names
    the end-to-end rate ("primary" or "secondary") the work counts towards,
    or another tag for work reported only in the run description.
    ``overflow`` marks inputs in the region where the finite-support engine
    is known to overflow (see ``Law.overflows``).
    """

    slot: str
    rate: str
    work: float
    call: Callable[[], Any]
    check: Callable[[Any], None]
    overflow: bool = False


@dataclass
class CliRun:
    """Exit code, captured stderr and output file of one CLI call."""

    code: int
    stderr: str
    output: Path


class Context:
    """Where a run keeps its files, how large its inputs are, and counts
    the operations themselves record (state-file bytes)."""

    def __init__(self, work_dir: Path, scale: float = 1.0):
        self.work_dir = work_dir
        self.scale = scale
        self.counts: Counter = Counter()

    def size(self, n: int, lo: int) -> int:
        return max(lo, int(round(n * self.scale)))

    def path(self, name: str) -> Path:
        return self.work_dir / name


# ---------------------------------------------------------------------------
# calling the program and reading what it returns
# ---------------------------------------------------------------------------


def run_cli(argv: list[str], out: Path) -> CliRun:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main([*argv, "--output", str(out)])
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return CliRun(code, err.getvalue(), out)


def cli_result(outcome) -> dict:
    if isinstance(outcome, BaseException):
        raise CheckFailed(f"raised {type(outcome).__name__}: {outcome}")
    if outcome.code != 0:
        raise CheckFailed(f"exit code {outcome.code}: {outcome.stderr.strip()[:300]}")
    payload = json.loads(outcome.output.read_text())
    if "result" not in payload:
        raise CheckFailed("output has no result")
    return payload["result"]


def lib_result(outcome):
    if isinstance(outcome, BaseException):
        raise CheckFailed(f"raised {type(outcome).__name__}: {outcome}")
    return outcome


_ERROR_LINE = re.compile(r"error: (\w+): ")


def is_typed_error(outcome) -> bool:
    """True when the program refused the input with a CusumkitError."""
    if isinstance(outcome, errors.CusumkitError):
        return True
    if isinstance(outcome, CliRun) and outcome.code == 1:
        match = _ERROR_LINE.match(outcome.stderr)
        cls = getattr(errors, match.group(1), None) if match else None
        return isinstance(cls, type) and issubclass(cls, errors.CusumkitError)
    return False


def corrupt(outcome) -> None:
    """Replace the first number in a CLI result with NaN (smoke test only)."""
    payload = json.loads(outcome.output.read_text())

    def poison(node):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            if isinstance(value, float):
                node[key] = math.nan
                return True
            if isinstance(value, (dict, list)) and poison(value):
                return True
        return False

    poison(payload["result"])
    outcome.output.write_text(json.dumps(payload))


# ---------------------------------------------------------------------------
# check helpers
# ---------------------------------------------------------------------------


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def expect_finite(node, where: str = "result", skip: tuple[str, ...] = ()) -> None:
    if isinstance(node, float):
        expect(math.isfinite(node), f"{where} is {node}")
    elif isinstance(node, dict):
        for key, value in node.items():
            if key not in skip:
                expect_finite(value, f"{where}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            expect_finite(value, f"{where}[{i}]")


def expect_le(a: float, b: float, what: str) -> None:
    expect(a <= b + TOL_ORDER * max(1.0, abs(a), abs(b)), f"{what}: {a!r} > {b!r}")


def expect_close(a, b, rtol: float, what: str) -> None:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    expect(a.shape == b.shape, f"{what}: shapes {a.shape} != {b.shape}")
    gap = np.abs(a - b) / np.maximum(1.0, np.abs(b))
    expect(bool(np.all(gap <= rtol)), f"{what}: relative gap {np.max(gap):.3g} > {rtol:g}")


# ---------------------------------------------------------------------------
# increment laws, described independently of the program for the checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Law:
    """An increment law: its model spec, plus normal (mu, sigma) or a
    finite support with probabilities."""

    spec: str
    mu: float = 0.0
    sigma: float = 0.0
    support: tuple[float, ...] = ()
    probs: tuple[float, ...] = ()

    @property
    def lattice(self) -> bool:
        return bool(self.support)

    def mgf(self, lam: float) -> float:
        if self.lattice:
            return float(np.dot(self.probs, np.exp(lam * np.asarray(self.support))))
        return math.exp(lam * self.mu + 0.5 * (lam * self.sigma) ** 2)

    def lam_star(self) -> float:
        if not self.lattice:
            return -2.0 * self.mu / self.sigma**2
        hi = 1.0
        while self.mgf(hi) <= 1.0:
            hi *= 2.0
        lo = hi / 2.0
        while self.mgf(lo) >= 1.0:
            lo /= 2.0
        return brentq(lambda t: self.mgf(t) - 1.0, lo, hi, xtol=1e-15, rtol=1e-15)

    def discrepancy(self, lam: float) -> float:
        """E(1 - exp(lam Y))+, the D of the sandwich 1 <= M_n <= 1 + nD."""
        if self.lattice:
            y = np.asarray(self.support)
            return float(np.dot(self.probs, np.maximum(1.0 - np.exp(lam * y), 0.0)))
        z = self.mu / self.sigma
        tilt = math.exp(lam * self.mu + 0.5 * (lam * self.sigma) ** 2)
        return float(ndtr(-z) - tilt * ndtr(-z - lam * self.sigma))

    def overflows(self, lam: float, n: int) -> bool:
        """True when exp(lam * S_n+) exceeds the float range for the largest
        partial sum: the region where the finite-support engine is known to
        return NaN instead of a value or a typed error."""
        return self.lattice and lam * n * max(self.support) > MAX_EXP


def _draw(rng, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 6)


def normal_llr(rng, lo: float = 0.25, hi: float = 2.0) -> Law:
    d = _draw(rng, lo, hi)
    return Law(f"normal-llr:delta={d!r}", mu=-0.5 * d * d, sigma=d)


def shifted_normal(rng) -> Law:
    a, s = _draw(rng, -1.0, -0.2), _draw(rng, 0.5, 2.0)
    return Law(f"shifted-normal:a={a!r},sigma={s!r}", mu=a, sigma=s)


def bernoulli_pm(rng) -> Law:
    p = _draw(rng, 0.25, 0.4)
    return Law(f"bernoulli-pm:p={p!r}", support=(1.0, -1.0), probs=(p, 1.0 - p))


_TABLE_SUPPORT = (-2.0, -1.0, 0.0, 1.0, 2.0)
_TABLE_BASE = (0.25, 0.3, 0.2, 0.15, 0.1)  # mean -0.45


def integer_table(rng) -> Law:
    w = np.asarray(_TABLE_BASE) + rng.uniform(-0.03, 0.03, size=len(_TABLE_BASE))
    head = [round(float(v), 6) for v in w[:-1] / w.sum()]
    probs = (*head, 1.0 - sum(head))
    y = ";".join(f"{v:g}" for v in _TABLE_SUPPORT)
    p = ";".join(repr(v) for v in probs)
    return Law(f"table:y={y},p={p}", support=_TABLE_SUPPORT, probs=probs)


def _seed(rng) -> int:
    return int(rng.integers(1, 2**31 - 1))


# ---------------------------------------------------------------------------
# operations shared by several workloads
# ---------------------------------------------------------------------------


def cli_op(ctx, slot, rate, argv, check, work=1.0, overflow=False) -> Op:
    out = ctx.path(f"{slot}.json")
    return Op(slot, rate, work, lambda: run_cli(argv, out),
              lambda o: check(cli_result(o)), overflow)


def sandwich(values, law: Law, what: str) -> None:
    """1 <= M_k(lambda*) <= 1 + kD <= k + 1 for every k."""
    v = np.asarray(values, dtype=float)
    k = np.arange(v.shape[0])
    upper = 1.0 + k * law.discrepancy(law.lam_star())
    expect(bool(np.all(v >= 1.0 - TOL_ORDER)), f"{what}: M_k < 1")
    expect(bool(np.all(v <= upper * (1.0 + RTOL_METHODS))), f"{what}: M_k > 1 + kD")
    expect(bool(np.all(upper <= k + 1.0 + TOL_ORDER)), f"{what}: 1 + kD > k + 1")


def check_thresholds(r: dict, law: Law, n: int) -> None:
    """ub1 <= ub3 <= ub2, with ub2 and ub3 recomputed from their formulas,
    and lb2 <= lb1 <= ub1 for normal models."""
    expect_finite(r, skip=("lb1", "lb2", "mc_quantile", "mc_stderr", "seed"))
    expect(r["n"] == n and r["alpha"] == ALPHA, "echoed n or alpha differs")
    lam = law.lam_star()
    expect_close(r["ub2"], math.log((n + 1) / ALPHA) / lam, 1e-9, "ub2")
    ub3 = math.log((1.0 + n * law.discrepancy(lam)) / ALPHA) / lam
    expect_close(r["ub3"], ub3, 1e-9, "ub3")
    expect_le(r["ub1"], r["ub3"], "ub1 <= ub3")
    expect_le(r["ub3"], r["ub2"], "ub3 <= ub2")
    if law.lattice:
        expect(r["lb1"] is None and r["lb2"] is None, "lattice model has lower bounds")
    else:
        expect_finite([r["lb1"], r["lb2"]], "lower bounds")
        expect_le(r["lb2"], r["lb1"], "lb2 <= lb1")


# ---------------------------------------------------------------------------
# mc_threshold
# ---------------------------------------------------------------------------


def _threshold_mc_op(ctx, slot, law, n, reps, seed, parallel, memo, same_as=None) -> Op:
    argv = ["threshold", "--model", law.spec, "--n", str(n), "--alpha", str(ALPHA),
            "--mc-reps", str(reps), "--seed", str(seed), "--parallel", str(parallel)]

    def check(r):
        check_thresholds(r, law, n)
        expect(r["mc_reps"] == reps and r["seed"] == seed, "echoed reps or seed differs")
        mc, se = r["mc_quantile"], r["mc_stderr"]
        expect_finite([mc, se], "mc quantile")
        expect_le(mc, r["ub1"] + 3.0 * se, "mc <= ub1 + 3se")
        if not law.lattice:
            expect_le(r["lb1"], mc + 3.0 * se, "lb1 <= mc + 3se")
        if same_as is not None:
            expect(r == memo.get(same_as), f"differs from {same_as} (seed invariance)")
        memo[slot] = r

    rate = "parallel2" if parallel == 2 else "secondary" if law.lattice else "primary"
    return cli_op(ctx, slot, rate, argv, check, work=float(reps * n),
                  overflow=law.overflows(law.lam_star(), n))


def mc_threshold(ctx: Context, rng) -> list[Op]:
    """``threshold --mc-reps 100000`` cells in the figure-4 shape."""
    reps = ctx.size(MC_REPS, 2_000)  # the program needs reps * alpha >= 100
    cells = [
        ("normal_n50", normal_llr(rng), ctx.size(50, 5)),
        ("normal_n1000", normal_llr(rng), ctx.size(1000, 10)),
        ("bernoulli_n200", bernoulli_pm(rng), ctx.size(200, 5)),
        ("table_n100", integer_table(rng), ctx.size(100, 5)),
    ]
    seeds = [_seed(rng) for _ in cells]
    memo: dict = {}
    ops = [_threshold_mc_op(ctx, slot, law, n, reps, seed, 1, memo)
           for (slot, law, n), seed in zip(cells, seeds)]
    slot, law, n = cells[1]  # the longest window again, on two streams
    ops.append(_threshold_mc_op(ctx, f"{slot}_parallel2", law, n, reps, seeds[1], 2,
                                memo, same_as=slot))
    return ops


# ---------------------------------------------------------------------------
# exact_tables
# ---------------------------------------------------------------------------


def _moments_op(ctx, slot, rate, law, n) -> Op:
    def check(r):
        expect_finite(r)
        means, var = np.asarray(r["means"]), np.asarray(r["variances"])
        expect(means.shape == var.shape == (n + 1,), "table length differs from n + 1")
        expect(means[0] == 0.0 and var[0] == 0.0, "E_0 or V_0 is not 0")
        expect(bool(np.all(np.diff(means) >= -TOL_ORDER)), "E_n decreases")
        expect(bool(np.all(var >= -1e-9 * max(1.0, float(var.max())))), "V_n < 0")

    argv = ["moments", "--model", law.spec, "--n", str(n)]
    return cli_op(ctx, slot, rate, argv, check)


def _mgf_pair(ctx, slot, rate, law, n) -> list[Op]:
    """``mgf --lambda star`` by the recursion and by the matrix solve."""
    memo: dict = {}
    lam = law.lam_star()

    def check(method, r):
        expect_close(r["lambda"], lam, 1e-9, "lambda*")
        values = np.asarray(r["values"], dtype=float)
        expect(values.shape == (n + 1,), "table length differs from n + 1")
        expect_finite(values.tolist(), "values")
        expect(values[0] == 1.0, "M_0 != 1")
        sandwich(values, law, "M_n(lambda*)")
        if method == "matrix":
            expect("recursive" in memo, "recursive result missing")
            expect_close(values, memo["recursive"], RTOL_METHODS, "matrix vs recursive")
        else:
            memo["recursive"] = values

    return [
        cli_op(ctx, f"{slot}_{method}", rate,
               ["mgf", "--model", law.spec, "--lambda", "star", "--n", str(n),
                "--method", method],
               lambda r, m=method: check(m, r), overflow=law.overflows(lam, n))
        for method in ("recursive", "matrix")
    ]


def _subcritical_mgf_op(ctx, slot, law, share, n) -> Op:
    lam = round(share * law.lam_star(), 6)

    def check(r):
        values = np.asarray(r["values"], dtype=float)
        expect(values.shape == (n + 1,), "table length differs from n + 1")
        expect_finite(values.tolist(), "values")
        k = np.arange(n + 1)
        # Jensen: M_k(lam) <= M_k(lambda*)^(lam/lambda*) <= (k + 1)^(lam/lambda*)
        expect(bool(np.all(values >= 1.0 - TOL_ORDER)), "M_k < 1")
        expect(bool(np.all(values <= (k + 1.0) ** (lam / law.lam_star()) * (1 + 1e-9))),
               "M_k above the Jensen bound")

    argv = ["mgf", "--model", law.spec, "--lambda", repr(lam), "--n", str(n)]
    return cli_op(ctx, slot, "primary", argv, check)


def _threshold_op(ctx, slot, rate, law, n) -> Op:
    def check(r):
        check_thresholds(r, law, n)
        if not law.lattice:
            expect_le(r["lb1"], r["ub1"], "lb1 <= ub1")

    argv = ["threshold", "--model", law.spec, "--n", str(n), "--alpha", str(ALPHA)]
    return cli_op(ctx, slot, rate, argv, check, overflow=law.overflows(law.lam_star(), n))


def _regimes_op(ctx, slot, law, lam) -> Op:
    def check(r):
        expect_finite(r)
        star = law.lam_star()
        expect_close(r["lam_star"], star, 1e-9, "lambda*")
        kind = "subcritical" if lam < star else "supercritical"
        expect(r["kind"] == kind, f"kind {r['kind']} for lambda {lam} vs {star}")
        if kind == "subcritical":
            expect_close(r["omega"], lam / star, 1e-9, "omega")
        else:
            expect_close(r["growth"], law.mgf(lam), 1e-9, "growth m(lambda)")

    argv = ["regimes", "--model", law.spec, "--lambda", repr(lam)]
    return cli_op(ctx, slot, "primary", argv, check)


def _queue_bound_op(ctx, slot, rate, law, n, h) -> Op:
    def check(r):
        expect_finite(r)
        star = law.lam_star()
        expect_close(r["lambda_star"], star, 1e-9, "lambda*")
        bound = min(math.exp(-star * h) * (1.0 + n * law.discrepancy(star)), 1.0)
        expect_close(r["bound"], bound, 1e-9, "queue tail bound")

    argv = ["queue-bound", "--model", law.spec, "--n", str(n), "--h", repr(h)]
    return cli_op(ctx, slot, rate, argv, check)


def _figure_ops(ctx, rng, n) -> list[Op]:
    deltas1 = [_draw(rng, 0.1, 5.0) for _ in range(5)]
    deltas2 = [_draw(rng, 0.1, 5.0) for _ in range(5)]
    delta3 = _draw(rng, 0.1, 5.0)

    def rows(r, width):
        table = np.asarray(r["rows"], dtype=float)
        expect(table.shape == (n + 1, width), f"table shape {table.shape}")
        expect(bool(np.all(np.isfinite(table))), "non-finite table entry")
        expect(bool(np.all(table[:, 0] == np.arange(n + 1))), "n column")
        return table[:, 1:]

    def check1(r):  # M_n(1) for normal LLR increments, where lambda* = 1
        cols = rows(r, 6)
        for j, d in enumerate(deltas1):
            sandwich(cols[:, j], Law("", mu=-0.5 * d * d, sigma=d), f"delta {d}")

    def check2(r):
        cols = rows(r, 11)
        means, var = cols[:, 0::2], cols[:, 1::2]
        expect(bool(np.all(np.diff(means, axis=0) >= -TOL_ORDER)), "E_n decreases")
        expect(bool(np.all(var >= -1e-9 * max(1.0, float(var.max())))), "V_n < 0")

    def check3(r):
        sub, crit, sup = rows(r, 4).T
        expect(bool(np.all(sub >= 1.0 - TOL_ORDER)), "M_n < 1")
        expect(bool(np.all(sub <= crit * (1 + TOL_ORDER))), "subcritical above critical")
        expect(bool(np.all(crit <= sup * (1 + TOL_ORDER))), "critical above supercritical")
        sandwich(crit, Law("", mu=-0.5 * delta3**2, sigma=delta3), "critical column")

    def deltas(ds):
        return ",".join(repr(d) for d in ds)

    return [
        cli_op(ctx, "figure1", "primary",
               ["figures", "--which", "1", "--deltas", deltas(deltas1), "--n", str(n)], check1),
        cli_op(ctx, "figure2", "primary",
               ["figures", "--which", "2", "--deltas", deltas(deltas2), "--n", str(n)], check2),
        cli_op(ctx, "figure3", "primary",
               ["figures", "--which", "3", "--delta", repr(delta3), "--n", str(n)], check3),
    ]


def _asymptote_op(slot, rate, law) -> Op:
    def call():
        return moments.asymptote_slope(models.parse_model(law.spec))

    def check(outcome):
        slope, intercept = lib_result(outcome)
        expect_finite([slope, intercept], "asymptote")
        # M_n(lambda*) <= 1 + nD bounds the slope of its asymptote by D
        d = law.discrepancy(law.lam_star())
        expect(0.0 < slope <= d * (1.0 + 1e-9), f"slope {slope} outside (0, D = {d}]")

    return Op(slot, rate, 1.0, call, check)


def _enumerate_op(slot, law, n) -> Op:
    """Exact enumeration as the oracle for mean, variance and M_n(lambda*)."""

    def call():
        model = models.parse_model(law.spec)
        dist = simulate.exact_enumerate(model, n)
        lam = models.cached_lambda_star(model)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", errors.FormulaMismatch)
            var = moments.cusum_variance(model, n)[0][n]
        mean = moments.cusum_mean(model, n)[n]
        mgf = moments.cusum_mgf_recursive(model, lam, n).values[n]
        return dist, lam, (mean, var, mgf)

    def check(outcome):
        dist, lam, engine = lib_result(outcome)
        expect_close(lam, law.lam_star(), 1e-9, "lambda*")
        expect_close(dist.total(), 1.0, TOL_ORACLE, "enumerated mass")
        oracle = (dist.mean_w(), dist.var_w(), dist.mgf_w(lam))
        expect_finite([float(v) for v in engine], "engine values")
        expect_close(engine, oracle, TOL_ORACLE, "engine (mean, var, M_n) vs enumeration")

    return Op(slot, "secondary", 1.0, call, check)


def exact_tables(ctx: Context, rng) -> list[Op]:
    """Exact moments, MGFs, thresholds, regimes, queue bounds and figure
    tables, without Monte Carlo, plus exact-enumeration oracle checks."""
    n = ctx.size(2000, 20)  # the CLI's default horizon for figures
    n_lat = ctx.size(400, 10)  # below the lattice overflow region
    n_tab = ctx.size(150, 10)  # the integer-table sum law is a dict DP
    ops = [
        _moments_op(ctx, "normal_moments", "primary", normal_llr(rng, 0.3, 3.0), n),
        *_mgf_pair(ctx, "normal_mgf", "primary", normal_llr(rng, 0.3, 3.0), n),
    ]
    law = shifted_normal(rng)
    ops += [
        _subcritical_mgf_op(ctx, "shifted_mgf_sub", law, _draw(rng, 0.3, 0.95), ctx.size(1000, 10)),
        _threshold_op(ctx, "normal_threshold_n500", "primary", normal_llr(rng), ctx.size(500, 10)),
        _threshold_op(ctx, "normal_threshold", "primary", normal_llr(rng), n),
        _regimes_op(ctx, "normal_regimes", normal_llr(rng), _draw(rng, 0.0, 2.0)),
        _queue_bound_op(ctx, "shifted_queue_bound", "primary", shifted_normal(rng),
                        ctx.size(1000, 10), _draw(rng, 1.0, 10.0)),
        *_figure_ops(ctx, rng, n),
        _asymptote_op("normal_asymptote", "primary", normal_llr(rng, 0.5, 3.0)),
    ]
    bern, table = bernoulli_pm(rng), integer_table(rng)
    ops += [
        _moments_op(ctx, "bernoulli_moments", "secondary", bern, n),
        *_mgf_pair(ctx, "bernoulli_mgf", "secondary", bern, n),
        *_mgf_pair(ctx, "bernoulli_mgf_n400", "secondary", bernoulli_pm(rng), n_lat),
        _threshold_op(ctx, "bernoulli_threshold", "secondary", bernoulli_pm(rng), n),
        _moments_op(ctx, "table_moments", "secondary", table, n_tab),
        *_mgf_pair(ctx, "table_mgf", "secondary", integer_table(rng), n_tab),
        _threshold_op(ctx, "table_threshold", "secondary", integer_table(rng), n_tab),
        _enumerate_op("bernoulli_enumerate", bernoulli_pm(rng), ctx.size(100, 8)),
        _enumerate_op("table_enumerate", integer_table(rng), ctx.size(30, 5)),
        _asymptote_op("bernoulli_asymptote", "secondary", bernoulli_pm(rng)),
        _queue_bound_op(ctx, "table_queue_bound", "secondary", integer_table(rng), n,
                        _draw(rng, 1.0, 10.0)),
    ]
    return ops


# ---------------------------------------------------------------------------
# detect_stream
# ---------------------------------------------------------------------------

CHANGE_LEN = 400  # observations under the disturbed law per injected change
SLACK = 40  # how far an estimated change end may lie from the injected one
MONITOR_BATCHES = 20
LOW_H = 3.0  # custom monitor threshold that makes alarms frequent
DELTA = 1.0  # standardized mean shift of the normal pairs


@dataclass
class Stream:
    path: Path
    n: int
    change: tuple[int, int]  # observations a+1..b follow the disturbed law
    pair: list[str]  # CLI arguments naming the hypothesis pair


@dataclass
class MonitorRun:
    """A batched monitor and its in-memory reference fold."""

    name: str
    h_args: list[str]
    h: float
    marks: list[tuple[int, float, float, int]]  # (t, w, running max, alarms) per batch
    alarms: list[list]


@dataclass
class DetectInputs:
    scans: list[tuple[str, str, Stream]]  # (slot, mode, stream)
    head: Path
    n_head: int
    normal_pair: list[str]
    batches: list[Path]
    monitors: list[MonitorRun]


def _write_lines(path: Path, header: str | None, lines) -> None:
    with path.open("w") as fh:
        if header:
            fh.write(header + "\n")
        fh.write("\n".join(lines))
        fh.write("\n")


def _change_at(rng, n, lo, hi) -> tuple[int, int]:
    a = int(rng.integers(int(lo * n), int(hi * n)))
    return a, a + CHANGE_LEN


def prepare_detect(ctx: Context, rng) -> DetectInputs:
    """Write the data files and fold the reference monitor paths."""
    n_big, n_abrupt = ctx.size(1_000_000, 20_000), ctx.size(200_000, 5_000)
    n_json, n_disc = ctx.size(100_000, 5_000), ctx.size(100_000, 5_000)
    n_mon = ctx.size(100_000, 4_000)
    n_head = ctx.size(50_000, 1_000)
    scans = []

    # normal pair, CSV with a header row; the standardized shift is fixed so
    # that every seed raises alarms at the same rate
    theta0, sigma = _draw(rng, -1.0, 1.0), _draw(rng, 0.5, 2.0)
    theta1 = theta0 + DELTA * sigma
    pair = ["--theta0", repr(theta0), "--theta1", repr(theta1), "--sigma", repr(sigma)]
    transient = theta0 + sigma * rng.standard_normal(n_big)
    change = _change_at(rng, n_mon, 0.25, 0.6)  # inside the monitored head
    transient[change[0]:change[1]] += theta1 - theta0
    abrupt = theta0 + sigma * rng.standard_normal(n_abrupt)
    abrupt[n_abrupt - CHANGE_LEN:] += theta1 - theta0
    for mode, data, chg in (("transient", transient, change),
                            ("abrupt", abrupt, (n_abrupt - CHANGE_LEN, n_abrupt))):
        path = ctx.path(f"normal_{mode}.csv")
        _write_lines(path, "value", map(repr, data.tolist()))
        scans.append((f"normal_csv_{mode}", mode, Stream(path, len(data), chg, pair)))
    head = ctx.path("normal_head.csv")
    _write_lines(head, "value", map(repr, transient[:n_head].tolist()))

    # normal pair given as densities, JSONL with the value in a named field
    mean0, sd = _draw(rng, 5.0, 15.0), _draw(rng, 0.5, 3.0)
    mean1 = mean0 - DELTA * sd
    jpair = ["--f", f"normal:mean={mean0!r},sigma={sd!r}",
             "--g", f"normal:mean={mean1!r},sigma={sd!r}", "--field", "reading"]
    for mode, lo, hi in (("transient", 0.3, 0.7), ("abrupt", None, None)):
        data = mean0 + sd * rng.standard_normal(n_json)
        chg = _change_at(rng, n_json, lo, hi) if lo else (n_json - CHANGE_LEN, n_json)
        data[chg[0]:chg[1]] += mean1 - mean0
        path = ctx.path(f"stream_{mode}.jsonl")
        _write_lines(path, None, (f'{{"t": {t}, "reading": {x!r}}}'
                                  for t, x in enumerate(data.tolist())))
        scans.append((f"jsonl_{mode}", mode, Stream(path, n_json, chg, jpair)))

    # discrete pair over the support 0..3
    f = np.array([0.4, 0.3, 0.2, 0.1]) + rng.uniform(-0.03, 0.03, 4)
    g = f[::-1].copy()
    f, g = f / f.sum(), g / g.sum()
    f_head, g_head = [round(float(v), 6) for v in f[:-1]], [round(float(v), 6) for v in g[:-1]]
    f, g = (*f_head, 1.0 - sum(f_head)), (*g_head, 1.0 - sum(g_head))
    dpair = ["--f", "table:y=0;1;2;3,p=" + ";".join(map(repr, f)),
             "--g", "table:y=0;1;2;3,p=" + ";".join(map(repr, g))]
    for mode, lo, hi in (("transient", 0.3, 0.7), ("abrupt", None, None)):
        data = rng.choice(4, size=n_disc, p=f)
        chg = _change_at(rng, n_disc, lo, hi) if lo else (n_disc - CHANGE_LEN, n_disc)
        data[chg[0]:chg[1]] = rng.choice(4, size=CHANGE_LEN, p=g)
        path = ctx.path(f"discrete_{mode}.csv")
        _write_lines(path, None, map(str, data.tolist()))
        scans.append((f"discrete_{mode}", mode, Stream(path, n_disc, chg, dpair)))

    # the monitored head of the normal stream, in equal batches
    per = n_mon // MONITOR_BATCHES
    batches = []
    for i in range(MONITOR_BATCHES):
        path = ctx.path(f"batch_{i:02d}.csv")
        _write_lines(path, "value", map(repr, transient[i * per:(i + 1) * per].tolist()))
        batches.append(path)
    normal = detect.NormalPair(theta0, theta1, sigma)
    increments = normal.llr(transient[:per * MONITOR_BATCHES])
    quiet_h = bounds.threshold_ub(normal.increment_model(), per, ALPHA, "ub3")
    monitors = [
        _fold("monitor_quiet", [], quiet_h, increments, per),
        _fold("monitor_alarms", ["--threshold-variant", "custom", "--h", repr(LOW_H)],
              LOW_H, increments, per),
    ]
    return DetectInputs(scans, head, n_head, pair, batches, monitors)


def _fold(name, h_args, h, increments, per) -> MonitorRun:
    """One in-memory ``monitor_step`` fold over all batches."""
    state = detect.CusumState()
    marks, alarms = [], []
    for i, y in enumerate(increments.tolist(), start=1):
        state, alarm = detect.monitor_step(state, y, h)
        if alarm is not None:
            alarms.append(list(alarm))
        if i % per == 0:
            marks.append((state.t, state.w, state.running_max, len(alarms)))
    return MonitorRun(name, h_args, h, marks, alarms)


def _scan_op(ctx, slot, mode, stream: Stream) -> Op:
    def check(r):
        expect_finite(r)
        expect(r["mode"] == mode and r["n"] == stream.n, "echoed mode or n differs")
        expect(r["detected"] is True, "injected change not detected")
        a_hat, b_hat = r["change_interval"]
        a, b = stream.change
        # the injected change, up to SLACK observations at each end, lies
        # inside the reported interval, which is not much longer than it
        expect(a_hat <= a + SLACK and b_hat >= b - SLACK and b_hat - a_hat <= b - a + 2 * SLACK,
               f"reported ({a_hat}, {b_hat}] vs injected ({a}, {b}]")

    argv = ["detect", *stream.pair, "--mode", mode, "--input", str(stream.path)]
    return cli_op(ctx, slot, "primary", argv, check, work=float(stream.n))


def _path_pair(ctx, inputs: DetectInputs) -> list[Op]:
    """The scan path equals the monitor path when the monitor never alarms."""
    memo: dict = {}
    n = inputs.n_head

    def check_scan(r):
        expect_finite(r, skip=("change_interval",))
        path = r["path"]
        expect(len(path) == n + 1 and path[0] == [0, 0.0], "scan path shape")
        memo["path"] = path[1:]

    def check_monitor(r):
        expect_finite(r, skip=("threshold",))
        expect(r["t"] == n and r["new_alarms"] == [], "monitor with h = inf alarmed")
        expect(r["path"] == memo.get("path"), "monitor path differs from scan path")

    src = ["detect", *inputs.normal_pair, "--input", str(inputs.head), "--emit-path"]
    return [
        cli_op(ctx, "head_scan_path", "primary", [*src, "--mode", "transient"], check_scan,
               work=float(n)),
        cli_op(ctx, "head_monitor_path", "secondary",
               [*src, "--mode", "monitor", "--threshold-variant", "custom", "--h", "inf"],
               check_monitor, work=float(n)),
    ]


def _monitor_ops(ctx, inputs: DetectInputs, run: MonitorRun) -> list[Op]:
    state = ctx.path(f"{run.name}.state.json")

    def state_bytes():
        return state.stat().st_size if state.exists() else 0

    per = run.marks[0][0]
    ops = []
    for i, batch in enumerate(inputs.batches):
        argv = ["detect", *inputs.normal_pair, "--mode", "monitor", "--state", str(state),
                "--input", str(batch), *run.h_args]
        out = ctx.path(f"{run.name}_{i:02d}.json")

        def call(argv=argv, out=out, first=(i == 0)):
            if first:  # a new monitor starts without a state file
                state.unlink(missing_ok=True)
            read = state_bytes()
            outcome = run_cli(argv, out)
            ctx.counts["cli.state_io.bytes"] += read + state_bytes()
            return outcome

        def check(outcome, i=i):
            r = cli_result(outcome)
            expect_finite(r)
            t, w, top, k = run.marks[i]
            k0 = run.marks[i - 1][3] if i else 0
            expect(r["threshold"] == run.h, "threshold differs from the reference")
            expect((r["t"], r["w"], r["running_max"]) == (t, w, top),
                   f"state (t, w, max) = {(r['t'], r['w'], r['running_max'])} != {(t, w, top)}")
            expect(r["new_alarms"] == run.alarms[k0:k], "new alarms differ from the fold")
            expect(r["all_alarms"] == run.alarms[:k], "alarm history differs from the fold")

        ops.append(Op(f"{run.name}_{i:02d}", "secondary", float(per), call, check))
    return ops


def detect_stream(ctx: Context, inputs: DetectInputs) -> list[Op]:
    """Offline scans over the seeded data files and the batched monitors;
    every cycle reads the same files."""
    ops = [_scan_op(ctx, slot, mode, stream) for slot, mode, stream in inputs.scans]
    ops += _path_pair(ctx, inputs)
    for run in inputs.monitors:
        ops += _monitor_ops(ctx, inputs, run)
    return ops


# ---------------------------------------------------------------------------
# warm-up: the first operation of each workload in a fresh process
# ---------------------------------------------------------------------------


def warm_up(workload: str, work_dir: Path) -> None:
    """Run the workload's warm-up operation; raise if it fails."""
    out = work_dir / f"warm_up_{workload}.json"
    if workload == "mc_threshold":
        argv = ["threshold", "--model", "normal-llr:delta=1", "--n", "50", "--alpha", "0.05",
                "--mc-reps", "2000", "--seed", "1"]
    elif workload == "exact_tables":
        argv = ["threshold", "--model", "bernoulli-pm:p=0.3", "--n", "50", "--alpha", "0.05"]
    else:
        data = work_dir / "warm_up.csv"
        data.write_text("\n".join(str(x) for x in [0.1, -0.4, 2.5, 1.9, 2.2] * 20) + "\n")
        argv = ["detect", "--theta0", "0", "--theta1", "2", "--input", str(data)]
    cli_result(run_cli(argv, out))


WORKLOADS = ("mc_threshold", "exact_tables", "detect_stream")
