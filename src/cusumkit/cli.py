"""Command-line interface.

One executable with subcommands for moment/MGF tables, threshold reports,
simulation, regime classification, queue bounds, detection, and the data
tables behind the standard diagnostic figures.  JSON output carries a
schema_version and echoes the fully resolved configuration; CSV output
prefixes the same configuration as a single '# config: ...' comment line
above the header row.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import bounds, detect, models, moments, simulate
from .errors import CusumkitError

SCHEMA_VERSION = 1
_SEED_ENV = "CUSUMKIT_SEED"


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _json_fragment(obj) -> str:
    """JSON with floats printed at 17 significant digits."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return format(x, ".17g")
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ",".join(
            f"{json.dumps(str(k))}:{_json_fragment(v)}" for k, v in obj.items()
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(_json_fragment(v) for v in obj) + "]"
    if dataclasses.is_dataclass(obj):
        return _json_fragment(dataclasses.asdict(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".12g")
    return str(v)


def _config_of(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _emit(args, result, csv_header=None, csv_rows=None) -> None:
    out = sys.stdout if args.output == "-" else open(args.output, "w")
    try:
        config = _config_of(args)
        if args.format == "json":
            payload = {
                "schema_version": SCHEMA_VERSION,
                "config": config,
                "result": result,
            }
            out.write(_json_fragment(payload) + "\n")
        else:
            if csv_header is None:
                raise CusumkitError("this subcommand has no CSV form")
            out.write("# config: " + json.dumps(config, default=str) + "\n")
            out.write(",".join(csv_header) + "\n")
            for row in csv_rows:
                out.write(",".join(_csv_cell(v) for v in row) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_moments(args) -> None:
    model = models.parse_model(args.model)
    table = moments.moment_table(model, args.n)
    ns = list(range(args.n + 1))
    result = {
        "means": table.means,
        "variances": table.variances,
        "variance_recursion_gap": table.recursion_gap,
    }
    rows = zip(ns, table.means, table.variances)
    _emit(args, result, ["n", "mean", "variance"], rows)


def _cmd_mgf(args) -> None:
    model = models.parse_model(args.model)
    lam = args.lam
    if lam == "star":
        lam = models.cached_lambda_star(model)
    else:
        lam = float(lam)
    if args.method == "matrix":
        series = moments.cusum_mgf_matrix(model, lam, args.n)
    else:
        series = moments.cusum_mgf_recursive(model, lam, args.n)
    result = {"lambda": lam, "values": series.values}
    rows = zip(range(args.n + 1), series.values)
    _emit(args, result, ["n", "value"], rows)


def _threshold_row(report: bounds.ThresholdReport, delta) -> list:
    return [
        delta,
        report.n,
        report.alpha,
        report.lb2,
        report.lb1,
        report.mc_quantile,
        report.ub1,
        report.ub3,
        report.ub2,
    ]


_THRESHOLD_HEADER = ["delta", "n", "alpha", "lb2", "lb1", "mc", "ub1", "ub3", "ub2"]


def _cmd_threshold(args) -> None:
    model = models.parse_model(args.model)
    report = bounds.threshold_report(
        model,
        args.n,
        args.alpha,
        mc_reps=args.mc_reps,
        seed=args.seed,
        parallel_streams=args.parallel,
    )
    delta = model.delta if isinstance(model, models.NormalLLR) else None
    _emit(args, report, _THRESHOLD_HEADER, [_threshold_row(report, delta)])


def _cmd_simulate(args) -> None:
    model = models.parse_model(args.model)
    config = simulate.SimConfig(
        model, args.n, args.reps, args.seed, parallel_streams=args.parallel
    )
    res = simulate.simulate_cusum(config, exp_lam=args.lam)
    result = {
        "seed": args.seed,
        "mean": res.mean,
        "variance": res.variance,
        "mean_stderr": res.mean_stderr,
        "exp_lambda": res.exp_lam,
        "exp_moment": res.exp_moment,
        "exp_moment_stderr": res.exp_moment_stderr,
    }
    if args.emit_reps:
        rows = zip(range(args.reps), res.w_final, res.w_max)
        _emit(args, result, ["rep", "w_n", "max_w"], rows)
    else:
        _emit(
            args,
            result,
            ["mean", "variance", "mean_stderr", "exp_moment", "exp_moment_stderr"],
            [[res.mean, res.variance, res.mean_stderr, res.exp_moment,
              res.exp_moment_stderr]],
        )


def _cmd_regimes(args) -> None:
    model = models.parse_model(args.model)
    reg = bounds.regime(model, args.lam)
    _emit(
        args,
        reg,
        ["kind", "lambda", "lambda_star", "omega", "growth"],
        [[reg.kind, reg.lam, reg.lam_star, reg.omega, reg.growth]],
    )


def _cmd_queue_bound(args) -> None:
    model = models.parse_model(args.model)
    bound = bounds.queue_tail_bound(model, args.n, args.h)
    lam_star = models.cached_lambda_star(model)
    result = {"bound": bound, "lambda_star": lam_star}
    _emit(args, result, ["n", "h", "bound", "lambda_star"],
          [[args.n, args.h, bound, lam_star]])


# -- detection ---------------------------------------------------------------


def _parse_density(text: str):
    kind, _, body = text.strip().partition(":")
    fields = {}
    for part in body.split(","):
        if "=" in part:
            k, v = part.split("=", 1)
            fields[k.strip()] = v.strip()
    if kind == "normal":
        return ("normal", float(fields["mean"]), float(fields["sigma"]))
    if kind == "table":
        ys = tuple(float(v) for v in fields["y"].split(";"))
        ps = tuple(float(v) for v in fields["p"].split(";"))
        return ("table", ys, ps)
    raise ValueError(f"unknown density kind {kind!r}")


def _build_pair(args):
    if args.theta0 is not None or args.theta1 is not None:
        if args.theta0 is None or args.theta1 is None:
            raise CusumkitError("--theta0 and --theta1 must be given together")
        return detect.NormalPair(args.theta0, args.theta1, args.sigma)
    if args.f is None or args.g is None:
        raise CusumkitError("provide --f/--g or --theta0/--theta1/--sigma")
    f = _parse_density(args.f)
    g = _parse_density(args.g)
    if f[0] != g[0]:
        raise CusumkitError("f and g must be the same density kind")
    if f[0] == "normal":
        if f[2] != g[2]:
            raise CusumkitError("normal pair requires equal sigma")
        return detect.NormalPair(theta0=f[1], theta1=g[1], sigma=f[2])
    if f[1] != g[1]:
        raise CusumkitError("table pair requires a shared support")
    return detect.DiscretePair(support=f[1], f=f[2], g=g[2])


def _read_values(path: str, field: str) -> np.ndarray:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return np.empty(0)
    if lines[0].lstrip().startswith("{"):
        vals = []
        for i, ln in enumerate(lines):
            record = json.loads(ln)
            if field not in record or not isinstance(record[field], (int, float)):
                raise CusumkitError(f"line {i + 1}: missing numeric field {field!r}")
            vals.append(float(record[field]))
        return np.asarray(vals)
    start = 0
    try:
        float(lines[0].split(",")[0])
    except ValueError:
        start = 1  # header row
    vals = []
    for i, ln in enumerate(lines[start:], start=start + 1):
        cell = ln.split(",")[0].strip()
        try:
            vals.append(float(cell))
        except ValueError:
            raise CusumkitError(f"line {i}: non-numeric value {cell!r}") from None
    return np.asarray(vals)


def _cmd_detect(args) -> None:
    pair = _build_pair(args)
    data = _read_values(args.input, args.field)
    increments = detect.llr_increments(pair, data)
    n = len(increments)

    if args.threshold_variant == "custom":
        if args.h is None:
            raise CusumkitError("--threshold-variant custom requires --h")
        h = args.h
    else:
        h = bounds.threshold_ub(
            pair.increment_model(), n, args.alpha, args.threshold_variant
        )

    if args.mode == "monitor":
        state = detect.CusumState()
        if args.state and os.path.exists(args.state):
            with open(args.state) as fh:
                state = detect.CusumState.from_json(fh.read())
        new_alarms = []
        path = []
        for y in increments:
            state, alarm = detect.monitor_step(state, float(y), h)
            path.append((state.t, state.w))
            if alarm is not None:
                new_alarms.append(alarm)
        if args.state:
            with open(args.state, "w") as fh:
                fh.write(state.to_json())
        result = {
            "mode": "monitor",
            "threshold": h,
            "observations": n,
            "t": state.t,
            "w": state.w,
            "running_max": state.running_max,
            "new_alarms": new_alarms,
            "all_alarms": list(state.alarms),
        }
        if args.emit_path:
            result["path"] = path
        _emit(args, result, ["t", "w"], path)
        return

    report = detect.scan_offline(increments, h)
    statistic = (
        report.statistic_final if args.mode == "abrupt" else report.statistic_max
    )
    detected = statistic >= h
    result = {
        "mode": args.mode,
        "threshold": h,
        "threshold_variant": args.threshold_variant,
        "n": n,
        "statistic": statistic,
        "statistic_final": report.statistic_final,
        "statistic_max": report.statistic_max,
        "detected": detected,
        "change_interval": report.change_interval if detected else None,
    }
    if args.emit_path:
        result["path"] = [(t, w) for t, w in enumerate(report.path)]
    _emit(args, result, ["t", "w"], list(enumerate(report.path)))


# -- figure data -------------------------------------------------------------


def _parse_float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _cmd_figures(args) -> None:
    deltas = _parse_float_list(args.deltas) if args.deltas else None
    if args.which == 1:
        deltas = deltas or [0.1, 0.5, 1.0, 2.0, 5.0]
        header = ["n"] + [f"mgf_delta_{d:g}" for d in deltas]
        cols = [
            moments.cusum_mgf_recursive(models.NormalLLR(d), 1.0, args.n).values
            for d in deltas
        ]
        rows = [[n] + [c[n] for c in cols] for n in range(args.n + 1)]
    elif args.which == 2:
        deltas = deltas or [0.1, 0.5, 1.0, 2.0, 5.0]
        header = ["n"]
        cols = []
        for d in deltas:
            table = moments.moment_table(models.NormalLLR(d), args.n)
            header += [f"mean_delta_{d:g}", f"var_delta_{d:g}"]
            cols += [table.means, table.variances]
        rows = [[n] + [c[n] for c in cols] for n in range(args.n + 1)]
    elif args.which == 3:
        model = models.NormalLLR(args.delta)
        header = ["n", "subcritical", "critical", "supercritical"]
        sub = moments.cusum_mgf_recursive(model, 0.999, args.n).values
        crit = moments.cusum_mgf_recursive(model, 1.0, args.n).values
        sup = moments.cusum_mgf_recursive(model, 1.001, args.n).values
        rows = [[n, sub[n], crit[n], sup[n]] for n in range(args.n + 1)]
    elif args.which == 4:
        deltas = deltas or [0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]
        ns = [int(v) for v in args.ns.split(",")]
        header = _THRESHOLD_HEADER
        rows = []
        for d in deltas:
            model = models.NormalLLR(d)
            for n in ns:
                report = bounds.threshold_report(
                    model, n, args.alpha, mc_reps=args.mc_reps, seed=args.seed,
                    parallel_streams=args.parallel,
                )
                rows.append(_threshold_row(report, d))
    elif args.which == 5:
        deltas = deltas or [0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]
        reps = args.mc_reps or 20_000
        header = ["delta", "n", "alpha", "mc", "stderr"]
        rows = []
        for d in deltas:
            h, se = simulate.mc_quantile_max(
                models.NormalLLR(d), args.n, args.alpha, reps, args.seed,
                parallel_streams=args.parallel,
            )
            rows.append([d, args.n, args.alpha, h, se])
    else:
        raise CusumkitError(f"unknown figure {args.which}")
    result = {"columns": header, "rows": rows}
    _emit(args, result, header, rows)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _default_seed() -> int:
    return int(os.environ.get(_SEED_ENV, "0"))


def _add_output_flags(sub) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--output", default="-", help="output path, - for stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cusumkit",
        description="moments, bounds, thresholds and detection for CUSUM processes",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("moments", help="mean/variance table E_n, V_n")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_moments)

    p = subs.add_parser("mgf", help="exponential moment table M_n(lambda)")
    p.add_argument("--model", required=True)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="a float, or 'star' for the critical exponent")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("recursive", "matrix"), default="recursive")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_mgf)

    p = subs.add_parser("threshold", help="all threshold variants for a scenario")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--mc-reps", type=int, default=0)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--parallel", type=int, default=1)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_threshold)

    p = subs.add_parser("simulate", help="Monte Carlo CUSUM paths")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="also estimate M_n at this lambda")
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--emit-reps", action="store_true",
                   help="CSV rows per replication instead of the summary row")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("regimes", help="classify lambda against lambda*")
    p.add_argument("--model", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_regimes)

    p = subs.add_parser("queue-bound", help="waiting-time tail bound for G/G/1")
    p.add_argument("--model", required=True,
                   help="increment model: service minus interarrival time")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", type=float, required=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_queue_bound)

    p = subs.add_parser("detect", help="offline scan or streaming monitor")
    p.add_argument("--f", default=None, help="default density spec")
    p.add_argument("--g", default=None, help="disturbed density spec")
    p.add_argument("--theta0", type=float, default=None)
    p.add_argument("--theta1", type=float, default=None)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--threshold-variant",
                   choices=("ub1", "ub2", "ub3", "custom"), default="ub3")
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--mode", choices=("abrupt", "transient", "monitor"),
                   default="transient")
    p.add_argument("--input", required=True, help="data path, - for stdin")
    p.add_argument("--field", default="value", help="JSONL numeric field name")
    p.add_argument("--state", default=None, help="monitor state file (JSON)")
    p.add_argument("--emit-path", action="store_true")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_detect)

    p = subs.add_parser("figures", help="data tables behind the diagnostic figures")
    p.add_argument("--which", type=int, required=True, choices=(1, 2, 3, 4, 5))
    p.add_argument("--deltas", default=None)
    p.add_argument("--delta", type=float, default=1.0, help="figure 3 only")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--ns", default="50,200,500,1000", help="figure 4 only")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--mc-reps", type=int, default=0)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--parallel", type=int, default=1)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_figures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except CusumkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
