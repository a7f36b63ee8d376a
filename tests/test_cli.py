import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cusumkit import cli, models, moments, simulate
from cusumkit.errors import CusumkitError

from _oracles import (
    convolution_recursion_loop,
    csv_rows,
    cusum_mgf_matrix_dense,
    cusum_variance_direct,
    json_fragment,
    read_values_per_line,
    rectified_exp_seq_loop,
    rectified_moment_seq_loop,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPlumbing:
    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["moments"])
        assert exc.value.code == 2

    def test_unknown_flag_is_hard_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["moments", "--model", "normal-llr:delta=1", "--n", "3",
                      "--bogus"])
        assert exc.value.code == 2

    def test_computation_error_exit_1(self, capsys):
        code, out, err = run(capsys, "moments", "--model", "martian:x=1",
                             "--n", "3")
        assert code == 1
        assert "model" in err

    def test_invalid_alpha_reports_module_error(self, capsys):
        code, _, err = run(capsys, "threshold", "--model",
                           "normal-llr:delta=1", "--n", "10", "--alpha", "2")
        assert code == 1
        assert "InvalidAlpha" in err

    def test_shifted_normal_threshold_is_normal_llr_threshold(self, capsys):
        # shifted-normal:a=-0.5,sigma=1 is the law of normal-llr:delta=1, so
        # every threshold, the segment lower bounds included, is the same
        results = []
        for spec in ("normal-llr:delta=1", "shifted-normal:a=-0.5,sigma=1"):
            code, out, _ = run(capsys, "threshold", "--model", spec, "--n", "200",
                               "--alpha", "0.05")
            assert code == 0
            result = json.loads(out)["result"]
            assert result.pop("model_spec") == spec
            results.append(result)
        assert results[0] == results[1]
        assert results[1]["lb1"] == 4.243534204641378

    @pytest.mark.parametrize("alpha", ["1.5", "0", "nan"])
    def test_mc_figure_refuses_alpha_outside_unit_interval(self, capsys, alpha):
        code, out, err = run(capsys, "figures", "--which", "5", "--n", "10",
                             "--alpha", alpha, "--mc-reps", "2000")
        assert code == 1 and out == ""
        assert err == f"error: InvalidAlpha: alpha must lie in (0, 1), got {alpha}\n"

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for sub in ("moments", "mgf", "threshold", "simulate", "regimes",
                    "queue-bound", "detect", "figures"):
            assert sub in out

    def test_json_echoes_config_and_schema(self, capsys):
        code, out, _ = run(capsys, "mgf", "--model", "normal-llr:delta=1",
                           "--lambda", "1", "--n", "5")
        payload = json.loads(out)
        assert code == 0
        assert payload["schema_version"] == 1
        assert payload["config"]["model"] == "normal-llr:delta=1"
        assert payload["config"]["method"] == "recursive"  # defaulted value

    def test_csv_has_config_comment_and_header(self, capsys):
        code, out, _ = run(capsys, "moments", "--model", "normal-llr:delta=1",
                           "--n", "2", "--format", "csv")
        lines = out.splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == "n,mean,variance"
        assert len(lines) == 5

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, "regimes", "--model", "normal-llr:delta=1",
                           "--lambda", "0.5", "--output", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["result"]["kind"] == "subcritical"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_failed_write_leaves_output_file(self, capsys, tmp_path, monkeypatch, fmt):
        target = tmp_path / "out.txt"
        target.write_text("earlier output\n")

        def fail(*args, **kwargs):
            raise ValueError("cannot write the table")

        if fmt == "json":
            monkeypatch.setattr(cli.orjson, "dumps", fail)  # the one JSON writer call
        else:
            monkeypatch.setattr(cli, "_rows", fail)
        code, out, err = run(capsys, "mgf", "--model", "normal-llr:delta=1",
                             "--lambda", "1", "--n", "5", "--format", fmt,
                             "--output", str(target))
        assert code == 1 and out == ""
        assert "cannot write the table" in err
        assert target.read_text() == "earlier output\n"


class TestHorizons:
    @pytest.mark.parametrize("argv, flag, value", [
        (["queue-bound", "--model", "shifted-normal:a=-0.5,sigma=1", "--n", "-4",
          "--h", "8"], "--n", "-4"),
        (["mgf", "--model", "normal-llr:delta=1", "--lambda", "1", "--n", "-2"],
         "--n", "-2"),
        (["threshold", "--model", "normal-llr:delta=1", "--n", "-3", "--alpha", "0.05"],
         "--n", "-3"),
        (["figures", "--which", "4", "--ns", "50,-5"], "--ns", "-5"),
        (["moments", "--model", "normal-llr:delta=1", "--n", "-1"], "--n", "-1"),
        (["simulate", "--model", "normal-llr:delta=1", "--n", "-1", "--reps", "10"],
         "--n", "-1"),
        (["figures", "--which", "1", "--n", "-2"], "--n", "-2"),
        (["moments", "--model", "normal-llr:delta=1", "--n", "-" + "1" * 5000],
         "--n", "-" + "1" * 5000),
    ], ids=["queue-bound", "mgf", "threshold", "figures-ns", "moments", "simulate",
            "figures-n", "moments-5000-digits"])
    def test_negative_horizon_refused(self, capsys, argv, flag, value):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.endswith(
            f"error: argument {flag}: expected an integer >= 0, got '{value}'\n")

    # no large --parallel value: it would start that many threads
    @pytest.mark.parametrize("argv, flag, value, minimum", [
        (["threshold", "--model", "normal-llr:delta=1", "--n", "10", "--alpha", "0.05",
          "--mc-reps", "-5"], "--mc-reps", "-5", 0),
        (["threshold", "--model", "normal-llr:delta=1", "--n", "10", "--alpha", "0.05",
          "--mc-reps", "2000", "--parallel", "0"], "--parallel", "0", 1),
        (["simulate", "--model", "normal-llr:delta=1", "--n", "10", "--reps", "100",
          "--parallel", "0"], "--parallel", "0", 1),
        (["simulate", "--model", "normal-llr:delta=1", "--n", "10", "--reps", "100",
          "--parallel", "-3"], "--parallel", "-3", 1),
        (["simulate", "--model", "normal-llr:delta=1", "--n", "10", "--reps", "0"],
         "--reps", "0", 1),
        (["simulate", "--model", "normal-llr:delta=1", "--n", "10", "--reps", "1.5"],
         "--reps", "1.5", 1),
        (["figures", "--which", "5", "--mc-reps", "-1"], "--mc-reps", "-1", 0),
        (["figures", "--which", "4", "--parallel", "0"], "--parallel", "0", 1),
    ], ids=["threshold-mc-reps", "threshold-parallel", "simulate-parallel-0",
            "simulate-parallel-neg", "simulate-reps", "simulate-reps-float",
            "figures-mc-reps", "figures-parallel"])
    def test_bad_count_refused(self, capsys, argv, flag, value, minimum):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.endswith(
            f"error: argument {flag}: expected an integer >= {minimum}, got '{value}'\n")

    # each value is past 2**63 - 1, so argparse refuses it before any work
    # (a --parallel value that passed would start that many threads)
    @pytest.mark.parametrize("argv, flag, value", [
        (["queue-bound", "--model", "shifted-normal:a=-0.5,sigma=1",
          "--n", "1000000000000000000000000000000", "--h", "8"],
         "--n", "1000000000000000000000000000000"),
        (["figures", "--which", "4", "--ns", f"50,{2**63}"], "--ns", str(2**63)),
        (["threshold", "--model", "normal-llr:delta=1", "--n", "10", "--alpha", "0.05",
          "--mc-reps", str(2**63)], "--mc-reps", str(2**63)),
        (["simulate", "--model", "normal-llr:delta=1", "--n", "10",
          "--reps", str(2**64)], "--reps", str(2**64)),
        (["simulate", "--model", "normal-llr:delta=1", "--n", "10", "--reps", "100",
          "--parallel", str(2**63)], "--parallel", str(2**63)),
        # past the 4 300 digits int() reads
        (["moments", "--model", "normal-llr:delta=1", "--n", "1" * 5000], "--n", "1" * 5000),
        (["figures", "--which", "4", "--ns", "+" + "1" * 5000], "--ns", "+" + "1" * 5000),
    ], ids=["queue-bound-n", "figures-ns", "threshold-mc-reps", "simulate-reps",
            "simulate-parallel", "moments-n-5000-digits", "figures-ns-5000-digits"])
    def test_count_past_int64_refused(self, capsys, argv, flag, value):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.endswith(
            f"error: argument {flag}: expected an integer <= {2**63 - 1}, got '{value}'\n")

    def test_largest_horizon_written(self, capsys):
        code, out, _ = run(capsys, "queue-bound", "--model", "shifted-normal:a=-0.5,sigma=1",
                           "--n", str(2**63 - 1), "--h", "8")
        assert code == 0
        assert json.loads(out)["config"]["n"] == 2**63 - 1

    @pytest.mark.parametrize("value, bound", [
        ("-1", "an integer >= 0"), (str(2**64), f"an integer <= {2**64 - 1}"),
    ], ids=["negative", "past-uint64"])
    def test_seed_outside_uint64_refused(self, capsys, monkeypatch, value, bound):
        argv = ["simulate", "--model", "normal-llr:delta=1", "--n", "5", "--reps", "10"]
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--seed", value])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.endswith(
            f"error: argument --seed: expected {bound}, got '{value}'\n")
        monkeypatch.setenv("CUSUMKIT_SEED", value)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: CusumkitError: CUSUMKIT_SEED: expected {bound}, got '{value}'\n"

    def test_largest_seed_runs(self, capsys):
        code, out, _ = run(capsys, "simulate", "--model", "normal-llr:delta=1", "--n", "5",
                           "--reps", "10", "--seed", str(2**64 - 1))
        assert code == 0
        assert json.loads(out)["result"]["seed"] == 2**64 - 1

    def test_unwritable_integer_refused(self, tmp_path):
        target = tmp_path / "out.json"
        args = argparse.Namespace(format="json", output=str(target))
        with pytest.raises(CusumkitError, match="Integer exceeds 64-bit range"):
            cli._emit(args, {"t": 2**64})
        assert not target.exists()

    def test_threshold_at_zero_horizon(self, capsys):
        code, out, err = run(capsys, "threshold", "--model", "normal-llr:delta=1",
                             "--n", "0", "--alpha", "0.05")
        assert code == 1 and out == ""
        assert err == "error: n must be >= 1, got 0\n"


class TestNanParameters:
    @pytest.mark.parametrize("argv, message", [
        (["detect", "--theta0", "0", "--theta1", "1", "--threshold-variant", "custom",
          "--h", "nan"], "CusumkitError: --h must be positive, got nan"),
        (["detect", "--theta0", "0", "--theta1", "1", "--threshold-variant", "custom",
          "--h", "nan", "--mode", "monitor"], "CusumkitError: --h must be positive, got nan"),
        (["mgf", "--model", "normal-llr:delta=1", "--lambda", "nan", "--n", "3"],
         "lambda must be a number, got nan"),
        (["mgf", "--model", "normal-llr:delta=1", "--lambda", "nan", "--n", "3",
          "--method", "matrix"], "lambda must be a number, got nan"),
        (["queue-bound", "--model", "shifted-normal:a=-0.5,sigma=1", "--n", "10",
          "--h", "nan"], "threshold h must be a number, got nan"),
        (["regimes", "--model", "normal-llr:delta=1", "--lambda", "nan"],
         "lambda must be nonnegative, got nan"),
        (["moments", "--model", "normal-llr:delta=inf", "--n", "3"],
         "delta must be positive and finite, got inf"),
        (["moments", "--model", "shifted-normal:a=-1,sigma=inf", "--n", "3"],
         "sigma must be positive and finite, got inf"),
        (["moments", "--model", "shifted-normal:a=nan,sigma=1", "--n", "3"],
         "a must be finite, got nan"),
        (["moments", "--model", "table:y=1;nan,p=0.5;0.5", "--n", "3"],
         "values must be finite, got (1.0, nan)"),
        (["mgf", "--model", "normal-llr:delta=1", "--lambda", "inf", "--n", "3"],
         "lambda must be finite, got inf"),
        (["mgf", "--model", "bernoulli-pm:p=0.3", "--lambda=-inf", "--n", "3"],
         "lambda must be finite, got -inf"),
        (["mgf", "--model", "normal-llr:delta=1", "--lambda", "inf", "--n", "3",
          "--method", "matrix"], "lambda must be finite, got inf"),
        (["simulate", "--model", "normal-llr:delta=1", "--n", "3", "--reps", "5",
          "--lambda", "inf"], "lambda must be finite, got inf"),
        (["simulate", "--model", "normal-llr:delta=1", "--n", "3", "--reps", "5",
          "--lambda", "1e300"],
         "DivergentMoment: sample exp moment overflows at lambda = 1e+300"),
        (["regimes", "--model", "normal-llr:delta=1", "--lambda", "inf"],
         "lambda must be finite, got inf"),
        (["regimes", "--model", "normal-llr:delta=1", "--lambda", "1000"],
         "DivergentMoment: m(lambda) overflows at lambda = 1000"),
        (["regimes", "--model", "bernoulli-pm:p=0.3", "--lambda", "1000"],
         "DivergentMoment: m(lambda) overflows at lambda = 1000"),
        (["moments", "--model", "normal-llr:delta=1e200", "--n", "3"],
         "delta must have a finite square, got 1e+200"),
        (["threshold", "--model", "normal-llr:delta=1e200", "--n", "3", "--alpha",
          "0.05"], "delta must have a finite square, got 1e+200"),
        (["threshold", "--model", "shifted-normal:a=-1,sigma=1e160", "--n", "3",
          "--alpha", "0.05"], "sigma must have a finite square, got 1e+160"),
        (["moments", "--model", "normal-llr:delta=1,sigma=3", "--n", "3"],
         "spec 'normal-llr:delta=1,sigma=3' has unknown field 'sigma'"),
        # sigma^2 underflows to 0, or (theta1 - theta0) / sigma^2 overflows
        (["detect", "--theta0", "0", "--theta1", "1", "--sigma", "1e-200"],
         "the llr slope (theta1 - theta0) / sigma^2 is not finite for theta0 = 0, "
         "theta1 = 1, sigma = 1e-200"),
        (["detect", "--theta0", "0", "--theta1", "1", "--sigma", "1e-160"],
         "the llr slope (theta1 - theta0) / sigma^2 is not finite for theta0 = 0, "
         "theta1 = 1, sigma = 1e-160"),
        (["detect", "--theta0", "0"],
         "CusumkitError: --theta0 and --theta1 must be given together"),
        (["detect"], "CusumkitError: provide --f/--g or --theta0/--theta1/--sigma"),
        (["detect", "--theta0", "0", "--theta1", "1", "--threshold-variant", "custom"],
         "CusumkitError: --threshold-variant custom requires --h"),
        (["moments", "--model", "table:y=1;-1,p=1", "--n", "3"],
         "support and probabilities must match and be nonempty"),
        (["moments", "--model", "table:y=1;-1,p=1.5;-0.5", "--n", "3"],
         "probabilities must lie in [0, 1]"),
    ], ids=["detect-scan", "detect-monitor", "mgf", "mgf-matrix", "queue-bound",
            "regimes", "normal-llr-delta", "shifted-normal-sigma", "shifted-normal-a",
            "table-values", "mgf-inf", "mgf-neg-inf", "mgf-matrix-inf", "simulate-inf",
            "simulate-overflow", "regimes-inf", "regimes-overflow",
            "regimes-overflow-bernoulli", "normal-llr-delta-square",
            "threshold-delta-square", "threshold-sigma-square", "spec-unknown-field",
            "detect-sigma-square-zero", "detect-slope-overflow", "detect-theta0-alone",
            "detect-no-pair", "detect-custom-without-h", "table-lengths",
            "table-p-outside"])
    def test_nan_refused(self, capsys, tmp_path, argv, message):
        if argv[0] == "detect":
            data = tmp_path / "obs.csv"
            data.write_text("5\n5\n5\n")
            argv = argv + ["--input", str(data)]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_monitor_accepts_infinite_h(self, capsys, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text("5\n5\n5\n")
        code, out, _ = run(capsys, "detect", "--theta0", "0", "--theta1", "1",
                           "--threshold-variant", "custom", "--h", "inf",
                           "--mode", "monitor", "--input", str(data))
        result = json.loads(out)["result"]
        assert code == 0 and result["new_alarms"] == []
        assert result["running_max"] == 13.5


class TestMathRunsOut:
    """Models at the edge of float range: a typed answer or a typed refusal."""

    @pytest.mark.parametrize("spec, n", [
        ("shifted-normal:a=-1,sigma=1e154", "4"),
        ("shifted-normal:a=1e160,sigma=1", "3"),
    ], ids=["a=-1,sigma=1e154", "a=1e160,sigma=1"])
    def test_overflowing_moments_refused(self, capsys, spec, n):
        code, out, err = run(capsys, "moments", "--model", spec, "--n", n)
        assert code == 1 and out == ""
        assert err.startswith("error: DivergentMoment: ") and "\n" not in err.rstrip()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_moments_whose_sums_of_squares_overflow(self, capsys):
        code, out, _ = run(capsys, "moments", "--model", "shifted-normal:a=-1,sigma=5e152",
                           "--n", "1000")
        doc = json.loads(out)
        assert code == 0
        values = doc["result"]["means"] + doc["result"]["variances"]
        assert len(values) == 2002 and all(map(math.isfinite, values))
        assert math.isfinite(doc["result"]["variance_recursion_gap"])

    def test_normal_llr_delta_80_threshold(self, capsys):
        code, out, _ = run(capsys, "threshold", "--model", "normal-llr:delta=80",
                           "--n", "10", "--alpha", "0.05")
        rep = json.loads(out)["result"]
        assert code == 0
        assert all(math.isfinite(rep[v]) for v in ("ub1", "ub2", "ub3", "lb1", "lb2"))
        assert rep["ub1"] <= rep["ub3"] <= rep["ub2"]

    def test_sparse_sum_law_budget_refuses_detect_fast(self, capsys, monkeypatch):
        data = "".join(f"{i % 4}\n" for i in range(3000))
        monkeypatch.setattr("sys.stdin", io.StringIO(data))
        start = time.perf_counter()
        code, _, err = run(capsys, *_PAIR, "--threshold-variant", "ub1")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and err.startswith("error: TooLarge: the sparse sum laws")


class TestNumericPayloads:
    def test_mgf_matches_module(self, capsys):
        _, out, _ = run(capsys, "mgf", "--model", "normal-llr:delta=1",
                        "--lambda", "1", "--n", "50")
        got = json.loads(out)["result"]["values"]
        want = moments.cusum_mgf_recursive(models.NormalLLR(1.0), 1.0, 50).values
        assert got == list(want)  # the shortest round-trip text parses exactly

    def test_threshold_ub2_closed_form(self, capsys):
        _, out, _ = run(capsys, "threshold", "--model", "normal-llr:delta=0.5",
                        "--n", "500", "--alpha", "0.05")
        rep = json.loads(out)["result"]
        assert rep["ub2"] == pytest.approx(math.log(501 / 0.05), rel=1e-15)

    def test_queue_bound_matches_library(self, capsys):
        code, out, _ = run(capsys, "queue-bound", "--model",
                           "shifted-normal:a=-0.5,sigma=1.5", "--n", "10", "--h", "6")
        result = json.loads(out)["result"]
        model = models.ShiftedNormal(-0.5, 1.5)
        lam = models.cached_lambda_star(model)
        d = model.one_minus_exp_pos_mean(lam)
        assert code == 0
        assert result["lambda_star"] == lam
        assert result["bound"] == min(math.exp(-lam * 6.0) * (1.0 + 10 * d), 1.0) < 1.0

    def test_simulate_emit_reps_csv(self, capsys):
        code, out, _ = run(capsys, "simulate", "--model", "bernoulli-pm:p=0.3",
                           "--n", "30", "--reps", "25", "--seed", "4", "--emit-reps",
                           "--format", "csv")
        lines = out.splitlines()
        res = simulate.simulate_cusum(
            simulate.SimConfig(models.BernoulliPM(0.3), 30, 25, seed=4))
        assert code == 0 and lines[1] == "rep,w_n,max_w"
        assert lines[2:] == [f"{i},{w:.12g},{m:.12g}"
                             for i, (w, m) in enumerate(zip(res.w_final, res.w_max))]

    def test_rerun_reproduces_payload(self, capsys):
        args = ["simulate", "--model", "normal-llr:delta=1", "--n", "20",
                "--reps", "200", "--seed", "7"]
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_seed_env_default(self, capsys, monkeypatch):
        # the parser is built once per process; the env is read on every call
        argv = ["simulate", "--model", "normal-llr:delta=1", "--n", "5",
                "--reps", "10"]
        for seed in ("123", "7"):
            monkeypatch.setenv("CUSUMKIT_SEED", seed)
            code, out, _ = run(capsys, *argv)
            payload = json.loads(out)
            assert code == 0
            assert payload["config"]["seed"] == int(seed)
            assert payload["result"]["seed"] == int(seed)


class TestDetectSubcommand:
    def test_stdin_csv_transient(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("value\n1.5\n1.5\n-9\n"))
        code, out, _ = run(capsys, "detect", "--theta0", "0", "--theta1", "1",
                           "--mode", "transient", "--input", "-",
                           "--threshold-variant", "custom", "--h", "1.0",
                           "--emit-path")
        rep = json.loads(out)["result"]
        assert code == 0
        assert rep["detected"] is True
        assert rep["statistic"] == pytest.approx(2.0)
        assert rep["change_interval"] == [0, 2]
        assert len(rep["path"]) == 4

    def test_jsonl_field(self, capsys, tmp_path):
        data = tmp_path / "obs.jsonl"
        data.write_text('{"x": 0.5}\n{"x": 0.5}\n')
        code, out, _ = run(capsys, "detect", "--theta0", "0", "--theta1", "1",
                           "--mode", "abrupt", "--input", str(data),
                           "--field", "x", "--threshold-variant", "custom",
                           "--h", "3.0")
        rep = json.loads(out)["result"]
        assert code == 0 and rep["detected"] is False
        assert rep["statistic"] == pytest.approx(0.0)

    def test_non_numeric_row_is_error(self, capsys, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text("value\n1.0\noops\n")
        code, _, err = run(capsys, "detect", "--theta0", "0", "--theta1", "1",
                           "--input", str(data), "--threshold-variant",
                           "custom", "--h", "1.0")
        assert code == 1
        assert "line 3" in err

    def test_monitor_state_round_trip(self, capsys, tmp_path):
        state = tmp_path / "state.json"
        data1 = tmp_path / "a.csv"
        data1.write_text("0.8\n0.9\n")
        data2 = tmp_path / "b.csv"
        data2.write_text("0.9\n")
        common = ["detect", "--theta0", "0", "--theta1", "1", "--mode",
                  "monitor", "--threshold-variant", "custom", "--h", "1.2",
                  "--state", str(state)]
        run(capsys, *common, "--input", str(data1))
        code, out, _ = run(capsys, *common, "--input", str(data2))
        rep = json.loads(out)["result"]
        assert code == 0
        assert rep["t"] == 3
        # cumulative llr 0.3 + 0.4 + 0.4 = 1.1 < 1.2: no alarm yet
        assert rep["w"] == pytest.approx(1.1)
        assert rep["new_alarms"] == []

    def test_monitor_path_and_csv_rows(self, capsys, tmp_path):
        state = tmp_path / "state.json"
        (tmp_path / "a.csv").write_text("1.5\n1.5\n")
        (tmp_path / "b.csv").write_text("1.0\n")
        common = ["detect", "--theta0", "0", "--theta1", "1", "--mode", "monitor",
                  "--threshold-variant", "custom", "--h", "1.5", "--state", str(state)]
        code, out, _ = run(capsys, *common, "--input", str(tmp_path / "a.csv"),
                           "--emit-path")
        rep = json.loads(out)["result"]
        assert code == 0
        assert rep["new_alarms"] == [[2, 2.0]]
        assert rep["path"] == [[1, 1.0], [2, 0.0]]  # the value after the reset
        code, out, _ = run(capsys, *common, "--input", str(tmp_path / "b.csv"),
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[1:] == ["t,w", "3,0.5"]

    def test_input_file_closed(self, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text("value\n0.5\n1.5\n")
        code = (
            "import sys; from cusumkit import cli;"
            "sys.exit(cli.main(['detect', '--theta0', '0', '--theta1', '1',"
            f" '--input', {str(data)!r}, '--threshold-variant', 'custom',"
            f" '--h', '1.0', '--output', {str(tmp_path / 'out.json')!r}]))"
        )
        # a leaked handle warns at garbage collection, where an error is
        # only printed, so the check is on standard error
        proc = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-c", code],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ResourceWarning" not in proc.stderr

    def test_density_spec_pair(self, capsys, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("1\n1\n")
        code, out, _ = run(capsys, "detect",
                           "--f", "table:y=0;1,p=0.5;0.5",
                           "--g", "table:y=0;1,p=0.25;0.75",
                           "--input", str(data), "--threshold-variant",
                           "custom", "--h", "0.5")
        rep = json.loads(out)["result"]
        assert code == 0
        assert rep["statistic"] == pytest.approx(2 * math.log(1.5))

    def test_normal_density_pair_matches_theta_flags(self, capsys, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("value\n" + "".join(f"{0.37 * (i % 7) - 0.4}\n" for i in range(60)))
        argv = ["--input", str(data), "--emit-path"]
        _, by_theta, _ = run(capsys, "detect", "--theta0", "0.5", "--theta1", "1.25",
                             "--sigma", "0.8", *argv)
        code, by_density, _ = run(capsys, "detect", "--f", "normal:mean=0.5,sigma=0.8",
                                  "--g", "normal:mean=1.25,sigma=0.8", *argv)
        assert code == 0
        assert json.loads(by_density)["result"] == json.loads(by_theta)["result"]

    @pytest.mark.parametrize("f, g, message", [
        ("normal:mean=0,sigma=1", "table:y=0;1,p=0.5;0.5",
         "CusumkitError: f and g must be the same density kind"),
        ("normal:mean=0,sigma=1", "normal:mean=1,sigma=2",
         "CusumkitError: normal pair requires equal sigma"),
        ("table:y=0;1,p=0.5;0.5", "table:y=0;2,p=0.5;0.5",
         "CusumkitError: table pair requires a shared support"),
        ("normal:mean=0,sigma=1,p=3", "normal:mean=1,sigma=1",
         "spec 'normal:mean=0,sigma=1,p=3' has unknown field 'p'"),
        ("normal:mean=0,sigma=1", "normal:mean=1,mean=2,sigma=1",
         "spec 'normal:mean=1,mean=2,sigma=1' repeats 'mean'"),
        ("table:y=0;1,p=0.5;0.5,llr", "table:y=0;1,p=0.25;0.75",
         "spec 'table:y=0;1,p=0.5;0.5,llr' has unknown flag 'llr'"),
        ("gamma:shape=2", "normal:mean=1,sigma=1", "unknown density kind 'gamma'"),
        ("normal:mean=0,sigma=1", "poisson:mean=1", "unknown density kind 'poisson'"),
        ("normal:mean=0,sigma=1e-200", "normal:mean=1,sigma=1e-200",
         "the llr slope (theta1 - theta0) / sigma^2 is not finite for theta0 = 0, "
         "theta1 = 1, sigma = 1e-200"),
        ("table:y=0;1,p=0.5;0.5", "table:y=0;1,p=1",
         "support and both pmfs must have equal length"),
        ("table:y=0;1,p=0.5;0.6", "table:y=0;1,p=0.5;0.5", "f must be a pmf summing to 1"),
    ], ids=["kinds-differ", "sigmas-differ", "supports-differ", "unknown-field",
            "repeated-field", "stray-flag", "unknown-kind-f", "unknown-kind-g",
            "sigma-square-zero", "pmf-lengths", "pmf-sum"])
    def test_density_pair_refused(self, capsys, tmp_path, f, g, message):
        data = tmp_path / "d.csv"
        data.write_text("1\n")
        code, out, err = run(capsys, "detect", "--f", f, "--g", g, "--input", str(data))
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("f, g", [
        ("normal:mean=0", "normal:mean=1,sigma=1"),
        ("table:y=0;1", "table:y=0;1,p=0.25;0.75"),
    ], ids=["normal", "table"])
    def test_density_spec_missing_field(self, capsys, tmp_path, f, g):
        data = tmp_path / "d.csv"
        data.write_text("1\n")
        code, _, err = run(capsys, "detect", "--f", f, "--g", g,
                           "--input", str(data))
        assert code == 1
        assert err.startswith("error: ") and "missing field" in err

    @pytest.mark.parametrize("pair", [
        ["--theta0", "0", "--theta1", "1"],
        ["--f", "table:y=0;1,p=0.5;0.5", "--g", "table:y=0;1,p=0.25;0.75"],
    ], ids=["normal", "table"])
    @pytest.mark.parametrize("name, text, line", [
        ("obs.csv", "value\n1\ninf\n0\n", 3),
        ("obs.csv", "nan\n", 1),
        ("obs.jsonl", '{"value": 1}\n{"value": 0}\n{"value": NaN}\n', 3),
        ("obs.jsonl", '{"value": -Infinity}\n', 1),
        ("obs.jsonl", '{"value": 0}\n{"value": 1%s}\n' % ("0" * 400), 2),
    ], ids=["csv-inf", "csv-nan", "jsonl-nan", "jsonl-inf", "jsonl-huge-int"])
    def test_non_finite_value_is_error(self, capsys, tmp_path, pair, name, text, line):
        data = tmp_path / name
        data.write_text(text)
        code, out, err = run(capsys, "detect", *pair, "--input", str(data),
                             "--threshold-variant", "custom", "--h", "1.0")
        assert code == 1 and out == ""
        assert f"line {line}: non-finite" in err

    def test_deeply_nested_record_names_the_line(self, capsys, tmp_path):
        data = tmp_path / "obs.jsonl"
        data.write_text('{"value": 1}\n' + "[" * 100_000 + "\n")
        code, out, err = run(capsys, "detect", "--theta0", "0", "--theta1", "1",
                             "--input", str(data), "--threshold-variant", "custom",
                             "--h", "1.0")
        assert code == 1 and out == ""
        assert err == ("error: CusumkitError: line 2: maximum recursion depth exceeded "
                       "while decoding a JSON array from a unicode string\n")

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "not a JSON object"),
        ("{}", "missing field 'w'"),
        ('{"w": 0.5, "t": 2, "running_max": 0.5}', "missing field 'alarms'"),
        ('{"w": NaN, "t": 2, "running_max": 0.5, "alarms": []}',
         "w must be a finite number >= 0, got nan"),
        ('{"w": -0.5, "t": 2, "running_max": 0.5, "alarms": []}',
         "w must be a finite number >= 0, got -0.5"),
        ('{"w": 0.5, "t": 2, "running_max": Infinity, "alarms": []}',
         "running_max must be a finite number >= 0, got inf"),
        ('{"w": 0.5, "t": -1, "running_max": 0.5, "alarms": []}',
         "t must be an integer >= 0, got -1"),
        ('{"w": 0.5, "t": 2.5, "running_max": 0.5, "alarms": []}',
         "t must be an integer >= 0, got 2.5"),
        ('{"w": 0.5, "t": 2, "running_max": 0.5, "alarms": [[1]]}',
         "alarms must be a list of [t, w] pairs"),
        ('{"w": 0.5, "t": 2, "running_max": 0.5, "alarms": 5}',
         "alarms must be a list of [t, w] pairs"),
        ("not json", "not JSON: Expecting value: line 1 column 1 (char 0)"),
        (f'{{"w": 0.5, "t": {2**63}, "running_max": 0.5, "alarms": []}}',
         f"t must be below 2**63, got {2**63}"),
        (f'{{"w": 0.5, "t": 2, "running_max": 0.5, "alarms": [[{2**63}, 5.5]]}}',
         "alarm times must lie in [0, 2**63)"),
        ('{"w": 0.5, "t": 2, "running_max": 0.5, "alarms": [[-1, 5.5]]}',
         "alarm times must lie in [0, 2**63)"),
    ], ids=["not-object", "empty-object", "missing-alarms", "nan-w", "negative-w",
            "infinite-max", "negative-t", "fractional-t", "short-alarm", "alarms-number",
            "not-json", "t-past-int64", "alarm-past-int64", "negative-alarm"])
    def test_invalid_monitor_state_refused(self, capsys, tmp_path, text, message):
        state = tmp_path / "state.json"
        state.write_text(text)
        data = tmp_path / "a.csv"
        data.write_text("0.8\n0.9\n")
        code, out, err = run(capsys, "detect", "--theta0", "0", "--theta1", "1",
                             "--mode", "monitor", "--threshold-variant", "custom",
                             "--h", "5", "--state", str(state), "--input", str(data))
        assert code == 1 and out == ""
        assert err == f"error: CusumkitError: state file {state}: {message}\n"
        assert state.read_text() == text

    def test_monitor_time_past_int64_refused(self, capsys, monkeypatch, tmp_path):
        state = tmp_path / "state.json"
        state.write_text(f'{{"w": 0.5, "t": {2**63 - 2}, "running_max": 0.5, "alarms": []}}')
        before = state.read_bytes()
        monkeypatch.setattr("sys.stdin", io.StringIO("0.5\n0.5\n"))
        code, out, err = run(capsys, "detect", "--theta0", "0", "--theta1", "1",
                             "--input", "-", "--state", str(state), "--mode", "monitor",
                             "--threshold-variant", "custom", "--h", "5")
        assert code == 1 and out == ""
        assert err == f"error: CusumkitError: t would reach {2**63}, past 2**63 - 1\n"
        assert state.read_bytes() == before

    def test_infinite_threshold_is_strict_json(self, capsys, monkeypatch):
        # RFC 8259 has no NaN or Infinity: non-finite floats are written as null
        monkeypatch.setattr("sys.stdin", io.StringIO("value\n0.5\n1.5\n"))
        code, out, _ = run(capsys, "detect", "--theta0", "0", "--theta1", "1",
                           "--input", "-", "--mode", "monitor",
                           "--threshold-variant", "custom", "--h", "inf")
        payload = json.loads(out, parse_constant=_refuse_constant)
        assert code == 0
        assert payload["result"]["threshold"] is None
        assert payload["config"]["h"] is None
        assert payload["result"]["t"] == 2 and payload["result"]["all_alarms"] == []

    def test_infinite_threshold_config_line_is_strict_json(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("value\n0.5\n1.5\n"))
        code, out, _ = run(capsys, "detect", "--theta0", "0", "--theta1", "1",
                           "--input", "-", "--mode", "monitor", "--format", "csv",
                           "--threshold-variant", "custom", "--h", "inf")
        first = out.splitlines()[0]
        assert code == 0 and first.startswith("# config: ")
        config = json.loads(first[len("# config: "):], parse_constant=_refuse_constant)
        assert config["h"] is None and config["theta1"] == 1.0

    @pytest.mark.parametrize("argv, t", [
        ([], 2),
        (["--mode", "monitor", "--threshold-variant", "custom", "--h", "inf"], 6),
    ], ids=["scan", "monitor"])
    def test_overflowed_statistic_refused(self, capsys, monkeypatch, tmp_path, argv, t):
        # W = 1e308 + 1e308 overflows at the second observation; the scan
        # reported W = inf, and the monitor recorded the alarm (6, inf)
        state = tmp_path / "state.json"
        state.write_text('{"w": 0.5, "t": 4, "running_max": 2.0, "alarms": [[2, 3.5]]}')
        before = state.read_bytes()
        monkeypatch.setattr("sys.stdin", io.StringIO("1e308\n1e308\n-1e308\n"))
        code, out, err = run(capsys, "detect", "--theta0", "0", "--theta1", "1",
                             "--input", "-", "--state", str(state), *argv)
        assert code == 1 and out == ""
        assert err == f"error: CusumkitError: observation {t}: W = inf leaves float64\n"
        assert state.read_bytes() == before

    @pytest.mark.parametrize("target", ["serialise", "replace"])
    def test_monitor_state_survives_failed_write(self, capsys, tmp_path, monkeypatch,
                                                 target):
        state = tmp_path / "state.json"
        data = tmp_path / "a.csv"
        data.write_text("0.8\n0.9\n")
        argv = ["detect", "--theta0", "0", "--theta1", "1", "--mode", "monitor",
                "--threshold-variant", "custom", "--h", "5", "--state", str(state),
                "--input", str(data)]
        assert run(capsys, *argv)[0] == 0
        before = state.read_text()

        def fail(*args):
            raise OSError("write failed")

        if target == "serialise":
            monkeypatch.setattr(cli.detect.CusumState, "to_json", fail)
        else:
            monkeypatch.setattr(cli.os, "replace", fail)
        code, _, err = run(capsys, *argv)
        assert code == 1 and "write failed" in err
        assert state.read_text() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "state.json"]


def _outcome(read, path, field="value"):
    """The array a reader returns, or the type and text of its error."""
    try:
        return read(str(path), field).tobytes()
    except (CusumkitError, ValueError) as exc:
        return type(exc).__name__, str(exc)


_blank = st.sampled_from(["", "  ", "\t"])
_cell = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1e3", "-0.0", "1_000", "nan", "inf", "-Infinity", "x", "", "1.5.2"]),
)
_csv_row = st.tuples(
    st.sampled_from(["", " ", "\t "]), _cell, st.sampled_from(["", " ", "  "]),
    st.lists(st.sampled_from(["a", "2", "", " 3 "]), max_size=2),
).map(lambda r: r[0] + r[1] + r[2] + "".join("," + c for c in r[3]))
_number = st.one_of(
    st.integers(-10**20, 10**20).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["NaN", "Infinity", "1" + "0" * 400]),
)
_record = st.one_of(
    st.tuples(st.integers(0, 99), _number).map(
        lambda r: f'{{"t": {r[0]}, "value": {r[1]}}}'),
    _number.map(lambda v: f'{{"value":{v}}}'),
    st.sampled_from(['{"t": 1}', '{"value": true}', '{"value": "1"}', '{"value": null}',
                     '"value"', "[1]", "3", '{"value": 1', '  {"value": 2}',
                     '{"value": 1}, {"value": 2}', '{"value": 1, "s": "}{"}',
                     '{"s": "a}', '{", "value": 2}']),
)

# number tokens on which a JSON parser and float() could part: signed
# zeros, underflow, forms only float() reads, integers past 2**53 and
# 2**64, overflow, and JSON values that are not numbers
_token = st.one_of(
    st.sampled_from([
        "-0", "-0.0", "1e-400", "-1e-400", "01", "1.", ".5", "+1", "1_0", "1E5",
        str(2**53 + 1), str(2**64 - 1), str(2**64), str(10**30), f"-{2**53 + 1}",
        f"-{2**64 - 1}", f"-{2**64}", f"-{10**30}", "1e400", "true", "null", '"1.5"',
        "[1]"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-2**70, 2**70).map(str),
)


# inputs on which the CSV fast path and the per-line pass could part
_EDGE_CSV = {
    "whitespace-line": "value\n1\n   \n2\n",
    "cr-breaks": "1\r2\r3\r",
    "cr-after-header": "value\r1\n2\n",
    "formfeed-break": "1\x0c2\n3\n",
    "formfeed-after-header": "value\x0c1\n2\n",
    "formfeed-after-comma": "1,\x0c2\n3\n",
    "line-separator": "1,\u20282\n3\n",
    "underscore-digits": "1_0\n2\n",
    "arabic-indic-digits": "\u0661\u0662\n3\n",
    "hash-comment": "1.5 # c\n2\n",
    "quoted-cell": '"1.5"\n2\n',
    "trailing-comma": "1.5,\n2,\n",
    "extra-columns": "value,b\n1.5,x,y\n2,3\n",
    "header-after-blanks": "\n\n  \nvalue\n1\n2\n",
    "empty": "",
    "blank-only": "\n  \n",
    "header-only": "value\n\n",
    "nan-cell": "value\n1\nnan\n",
    "inf-cell": "1\n-inf\n",
    "overflowing-cell": "1\n1e500\n",
    "empty-cell": "1\n,2\n",
}


class TestReadValues:
    @pytest.mark.parametrize("name, text, message", [
        ("obs.csv", "value\n1\n\nx\n", "line 4: non-numeric value 'x'"),
        ("obs.csv", "value\n1\n\n  \ninf\n", "line 5: non-finite value inf"),
        ("obs.jsonl", '{"value": 1}\n\n{"value": NaN}\n', "line 3: non-finite value nan"),
        ("obs.jsonl", '\n{"value": 1}\n\n{"other": 2}\n',
         "line 4: missing numeric field 'value'"),
        ("obs.jsonl", '{"value": 1}\n\n{bad}\n', "line 3: Expecting property name "
         "enclosed in double quotes: line 1 column 2 (char 1)"),
    ], ids=["csv-non-numeric", "csv-non-finite", "jsonl-non-finite", "jsonl-missing",
            "jsonl-syntax"])
    def test_errors_name_the_physical_line(self, capsys, tmp_path, name, text, message):
        data = tmp_path / name
        data.write_text(text)
        code, out, err = run(capsys, "detect", "--theta0", "0", "--theta1", "1",
                             "--input", str(data), "--threshold-variant", "custom",
                             "--h", "1.0")
        assert code == 1 and out == ""
        assert err == f"error: CusumkitError: {message}\n"

    @pytest.mark.parametrize("text, line", [
        ('{"value": 1}\n"value"\n', 2),
        ('{"value": true}\n', 1),
        ('{"value": 1}\n[1]\n', 2),
        ('{"value": 1}\n{"value": false}\n', 2),
    ], ids=["string-record", "boolean-field", "array-record", "boolean-later"])
    def test_record_without_a_number_is_typed_error(self, capsys, tmp_path, text, line):
        data = tmp_path / "obs.jsonl"
        data.write_text(text)
        code, out, err = run(capsys, "detect", "--theta0", "0", "--theta1", "1",
                             "--input", str(data), "--threshold-variant", "custom",
                             "--h", "1.0")
        assert code == 1 and out == ""
        assert err == f"error: CusumkitError: line {line}: missing numeric field 'value'\n"

    @pytest.mark.parametrize("text", [
        '{"value": 1\n"x": 2}, {"value": 3}\n',
        '{"value": 1, "w": [{}\n{}]}\n{"value": 2}, {"value": 3}\n',
        '{"value": 1, "s": "}\n{"}, {"value": 2}\n',
        '{"s": "a}\n{", "value": 2}\n',
    ], ids=["split-object", "nested-object", "brace-in-string", "braces-balanced"])
    def test_record_spanning_lines_refused(self, tmp_path, text):
        # each of these files decodes as one JSON array of numeric records
        data = tmp_path / "obs.jsonl"
        data.write_text(text)
        assert _outcome(cli._read_values, data) == _outcome(read_values_per_line, data)
        with pytest.raises(CusumkitError, match="^line 1: "):
            cli._read_values(str(data), "value")

    @pytest.mark.parametrize("text", [
        '{"value": 1}\n{"value": 2} x\n',
        '{"value": 1}\n{"value": 2}, {"value": 3}\n',
        '{"value": 1}\n{"value": 2}{"value": 3}\n',
    ], ids=["word", "second-record", "adjacent-record"])
    def test_data_after_record_refused(self, tmp_path, text):
        data = tmp_path / "obs.jsonl"
        data.write_text(text)
        assert _outcome(cli._read_values, data) == _outcome(read_values_per_line, data)
        with pytest.raises(CusumkitError, match="^line 2: Extra data"):
            cli._read_values(str(data), "value")

    @given(header=st.sampled_from(["", "value", "value,other", " t ,x"]),
           rows=st.lists(st.one_of(_csv_row, _blank), max_size=25),
           newline=st.sampled_from(["\n", "\r\n", "\r"]), last=st.booleans())
    def test_csv_matches_per_line_reader(self, tmp_path_factory, header, rows, newline,
                                         last):
        lines = ([header] if header else []) + rows
        data = tmp_path_factory.mktemp("csv") / "obs.csv"
        data.write_bytes((newline.join(lines) + (newline if last else "")).encode())
        assert _outcome(cli._read_values, data) == _outcome(read_values_per_line, data)

    @given(rows=st.lists(st.one_of(_record, _blank), max_size=25),
           newline=st.sampled_from(["\n", "\r\n"]))
    def test_jsonl_matches_per_line_reader(self, tmp_path_factory, rows, newline):
        data = tmp_path_factory.mktemp("jsonl") / "obs.jsonl"
        data.write_bytes(newline.join(['{"value": 0.5}', *rows]).encode())
        assert _outcome(cli._read_values, data) == _outcome(read_values_per_line, data)

    @pytest.mark.parametrize("chunk", [1, 7])
    @given(header=st.sampled_from(["", "value", "value,other", " t ,x"]),
           rows=st.lists(st.one_of(_csv_row, _blank), max_size=25),
           newline=st.sampled_from(["\n", "\r\n", "\r"]), last=st.booleans())
    def test_csv_chunks_match_per_line_reader(self, tmp_path_factory, chunk, header, rows,
                                              newline, last):
        # chunks of a few characters, cut at the next line break, so that
        # cuts fall on blank lines, header rows and rows with commas
        lines = ([header] if header else []) + rows
        data = tmp_path_factory.mktemp("csv") / "obs.csv"
        data.write_bytes((newline.join(lines) + (newline if last else "")).encode())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_CSV_CHUNK", chunk)
            assert _outcome(cli._read_values, data) == _outcome(read_values_per_line, data)

    @pytest.mark.parametrize("chunk", [None, 1, 7])
    @given(header=st.sampled_from(["", "value"]),
           rows=st.lists(st.one_of(
               _token, _blank, st.tuples(_token, _token).map(",".join)), max_size=12))
    def test_number_tokens_match_per_line_reader(self, tmp_path_factory, chunk, header,
                                                 rows):
        folder = tmp_path_factory.mktemp("tokens")
        csv, jsonl = folder / "obs.csv", folder / "obs.jsonl"
        csv.write_text("\n".join(([header] if header else []) + rows) + "\n")
        jsonl.write_text("".join(f'{{"t": 1, "value": {r}}}\n' if r.strip() else r + "\n"
                                 for r in ["0.5", *rows]))
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(cli, "_CSV_CHUNK", chunk)
            for data in (csv, jsonl):
                assert _outcome(cli._read_values, data) == _outcome(read_values_per_line, data)

    @pytest.mark.parametrize("name, text", [
        ("obs.csv", "value\n1\n-0\n2\n"),
        ("obs.csv", "-0,5\n3\n"),
        ("obs.jsonl", '{"value": 1}\n{"value": -0}\n'),
        ("obs.jsonl", '{"value": -0, "t": 0}\n'),
    ], ids=["csv", "csv-comma", "jsonl", "jsonl-first"])
    def test_integer_minus_zero_keeps_its_sign(self, tmp_path, name, text):
        # orjson reads the integer -0 as 0; float("-0") is -0.0
        data = tmp_path / name
        data.write_text(text)
        got = cli._read_values(str(data), "value")
        assert got.tobytes() == read_values_per_line(data, "value").tobytes()
        assert np.signbit(got).sum() == 1

    @pytest.mark.parametrize("text", _EDGE_CSV.values(), ids=_EDGE_CSV.keys())
    def test_edge_corpus_matches_per_line_reader(self, tmp_path, monkeypatch, text):
        # numpy's tokenizer reads these as the per-line pass does or raises;
        # each raise or warning, and each nan or inf, goes to the per-line
        # pass, and no warning leaks
        data = tmp_path / "obs.csv"
        data.write_bytes(text.encode())
        want = _outcome(read_values_per_line, data)
        assert _outcome(lambda path, field: cli._parse_lines(text, field), data) == want
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _outcome(cli._read_values, data) == want
            # the same text on stdin, where nothing translates "\r"
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            assert _outcome(lambda path, field: cli._read_values("-", field), data) == want
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("text", ["value\n0.5\n-1.25\n\n3\n", "\n\n  \nvalue\n1\n2\n",
                                      "1.5,\n2,3,4\n", "value\r\n1e3\r\n-0.0\r\n"],
                             ids=["header", "header-after-blanks", "extra-columns", "crlf"])
    def test_clean_csv_skips_the_per_line_pass(self, tmp_path, monkeypatch, text):
        data = tmp_path / "obs.csv"
        data.write_bytes(text.encode())
        want = read_values_per_line(data, "value")

        def refuse(*args):
            raise AssertionError("per-line pass called")

        monkeypatch.setattr(cli, "_parse_lines", refuse)
        assert cli._read_values(str(data), "value").tobytes() == want.tobytes()

    @pytest.mark.parametrize("text", [
        '{"t": 0, "value": 0.5}\n{"t": 1, "value": -1.25}\n',
        '\n  {"value": 2}\n\n{"value": 1e3, "s": "x,y"}\n  \n',
        '{"value": -0.0}\r\n{"value": 12345678901234567890}\r\n',
    ], ids=["records", "blank-lines", "crlf-ints"])
    def test_clean_jsonl_skips_the_per_line_pass(self, tmp_path, monkeypatch, text):
        data = tmp_path / "obs.jsonl"
        data.write_bytes(text.encode())
        want = read_values_per_line(data, "value")

        def refuse(*args):
            raise AssertionError("per-line pass called")

        monkeypatch.setattr(cli, "_parse_lines", refuse)
        assert cli._read_values(str(data), "value").tobytes() == want.tobytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_named_pipe_read_once(self, tmp_path):
        # opening the pipe again for the tokenizer would wait for a writer
        # that has gone
        fifo = tmp_path / "obs.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_text("value\n0.5\n1.5\n"))
        writer.start()
        got = {}
        reader = threading.Thread(
            target=lambda: got.update(out=cli._read_values(str(fifo), "value")), daemon=True)
        reader.start()
        reader.join(timeout=30)
        hung = reader.is_alive()
        if hung:
            fifo.write_text("")  # release the second open
            reader.join(timeout=30)
        writer.join(timeout=30)
        assert not hung and not writer.is_alive()
        assert got["out"].tolist() == [0.5, 1.5]

    def test_int_and_float_fields(self, tmp_path):
        data = tmp_path / "obs.jsonl"
        data.write_text('{"t": 0, "value": 2}\n{"t": 1, "value": -0.25}\n'
                        '{"value": 12345678901234567890}\n')
        got = cli._read_values(str(data), "value")
        np.testing.assert_array_equal(got, [2.0, -0.25, 12345678901234567890.0])
        assert got.tobytes() == read_values_per_line(data, "value").tobytes()


class TestFigures:
    def test_figure1_columns_grow_linearly(self, capsys):
        code, out, _ = run(capsys, "figures", "--which", "1", "--n", "400",
                           "--deltas", "0.5,1")
        rows = json.loads(out)["result"]["rows"]
        assert code == 0
        d_early = rows[200][1] - rows[100][1]
        d_late = rows[400][1] - rows[300][1]
        assert d_late == pytest.approx(d_early, rel=0.05)

    @pytest.mark.parametrize("given, used", [([], 20_000), (["--mc-reps", "3000"], 3000)],
                             ids=["default", "given"])
    def test_figure5_echoes_reps_used(self, capsys, given, used):
        code, out, _ = run(capsys, "figures", "--which", "5", "--n", "5",
                           "--deltas", "1", "--seed", "0", *given)
        payload = json.loads(out)
        want = simulate.mc_quantile_max(models.NormalLLR(1.0), 5, 0.05, used, 0)
        assert code == 0 and payload["config"]["mc_reps"] == used
        assert payload["result"]["rows"] == [[1.0, 5, 0.05, *want]]

    @pytest.mark.parametrize("deltas", [",,", "", " , "])
    def test_deltas_without_a_number_refused(self, capsys, deltas):
        with pytest.raises(SystemExit) as exc:
            cli.main(["figures", "--which", "1", "--n", "5", "--deltas", deltas])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.endswith(
            f"error: argument --deltas: expected at least one number, got {deltas!r}\n")

    def test_figure4_rows_csv(self, capsys):
        code, out, _ = run(capsys, "figures", "--which", "4", "--deltas", "1",
                           "--ns", "50", "--format", "csv")
        lines = out.splitlines()
        assert code == 0
        assert lines[1].split(",")[0] == "delta"
        assert len(lines) == 3


_special = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                            1e16, 1e308, -1e308, math.nan, -math.nan, math.inf,
                            -math.inf])
_float = st.one_of(st.floats(), _special)
_object = st.one_of(_float, st.integers(-10**20, 10**20), st.none(), st.booleans(),
                    st.sampled_from(["inf", "nan", "a,b", 'q"uote', "%d"]))


def _columns(height):
    def cells(elements):
        return st.lists(elements, min_size=height, max_size=height)

    return st.one_of(
        cells(_float).map(lambda v: np.array(v, dtype=float)),
        cells(st.integers(-2**63, 2**63 - 1)).map(lambda v: np.array(v, dtype=np.int64)),
        cells(_float),
        cells(st.integers(-10**30, 10**30)),
        cells(st.integers(-2**63, 2**64 - 1)),
        cells(_object),
        cells(st.one_of(_float, st.none())),
    )


@st.composite
def _tables(draw):
    height = draw(st.integers(0, 6))
    return [draw(_columns(height)) for _ in range(draw(st.integers(1, 4)))]


def _emitted(result):
    """``result`` as the JSON writer writes it, parsed strictly."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(argparse.Namespace(format="json", output="-"), result)
    return json.loads(out.getvalue(), parse_constant=_refuse_constant)["result"]


def _refuse_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def _parsed(v):
    """What a cell reads as after the JSON writer: the same double, None
    for a non-finite one, and the same int."""
    if isinstance(v, (float, np.floating)):
        return float(v) if math.isfinite(v) else None
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return int(v)
    return v


def _same_cells(got, want):
    """Equal lists whose floats are equal bit for bit and ints are ints."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w), (g, w)
        if isinstance(w, float):
            assert g.hex() == w.hex(), (g, w)
        else:
            assert g == w, (g, w)


def _ints_writable(cells) -> bool:
    return all(-2**63 <= v < 2**64 for v in cells
               if isinstance(v, (int, np.integer)) and not isinstance(v, bool))


class TestTableWriter:
    """CSV has the bytes of the per-value reference writer; JSON parses to
    the cells' values."""

    @given(columns=_tables())
    def test_matches_reference(self, columns):
        rows = [list(row) for row in zip(*columns)]
        assert cli._rows(columns) == csv_rows(rows)
        result = {"table": cli.Table(*columns), "column": columns[0],
                  "of_rows": cli.Table.of_rows(rows, len(columns))}
        if not _ints_writable(v for col in columns for v in col):
            with pytest.raises(CusumkitError, match="Integer exceeds 64-bit range"):
                _emitted(result)
            return
        got = _emitted(result)
        for name in ("table", "of_rows"):
            assert len(got[name]) == len(rows)
            for g, row in zip(got[name], rows):
                _same_cells(g, [_parsed(v) for v in row])
        _same_cells(got["column"], [_parsed(v) for v in columns[0]])

    def test_rows_of_unequal_length_refused(self):
        columns = (np.arange(3), np.zeros(2))
        with pytest.raises(ValueError):
            cli._rows(columns)
        with pytest.raises(ValueError):
            cli._json_default(cli.Table(*columns))


def _detect_data() -> str:
    # exact binary fractions, so the input bytes need no libm
    values = [((i * 7919) % 1001) / 512 - 1.0 + (1.5 if 1200 <= i < 1300 else 0.0)
              for i in range(2000)]
    return "value\n" + "\n".join(map(repr, values)) + "\n"


_DETECT = ["detect", "--theta0", "0", "--theta1", "1", "--input", "-", "--emit-path"]


def _digest(argv, out: str) -> str:
    """The digest of standard output as the per-value writer printed it:
    CSV as written, and JSON parsed and written again by json_fragment,
    floats at 17 significant digits, so the digest checks every double."""
    if "csv" not in argv:
        out = json_fragment(json.loads(out, parse_constant=_refuse_constant)) + "\n"
    return hashlib.sha256(out.encode()).hexdigest()


class TestGoldenOutput:
    """Standard output holds the doubles of the per-value writer's output,
    and CSV its bytes.

    Digests were recorded with the per-value writer (tests/_oracles.py's
    json_fragment and csv_cell), numpy 2.4.6 and scipy 1.17.1; the detect
    data come on standard input, so the echoed configuration holds no path.
    fig1, fig3 and mgf-recursive print M_n to 17 digits and were recorded
    again for the blocked convolution engine, mgf-matrix for the blocked
    sum-law engine, again for the panel solve of the matrix route and
    again for the one-pass x_k = m(lambda)^k + E(1 - e^(lambda S_k))+ of
    version 0.5.0, which moves its Bernoulli M_n at lambda = 0.7 by up to
    6.7e-16 relative, and fig2 and moments, which print Var W_n to 17
    digits, for the FFT cross sum of the variance; TestRecursionOracleGolden
    keeps the digests of the loops, the dense solve and the direct
    self-convolution they replaced.
    """

    @pytest.mark.parametrize("argv, digest", [
        (["figures", "--which", "1", "--n", "200"], "d267710098d90a7a35f6ba84403ef02e9065ca287ab0d4266cd9a9e88840c06c"),
        (["figures", "--which", "2", "--n", "200"], "b2244603a164ba407bac572d448c1a98752aba5351d716f321877734c1739eec"),
        (["figures", "--which", "3", "--n", "200"], "429b3e0665b459dd401646c74b11ad9c8089fa26642d00dc3fa3d0a6dd7d250e"),
        (["moments", "--model", "normal-llr:delta=0.5", "--n", "200"], "17d9df0bc738388c75e4488ab8f57108e49f5ea005bbd5efeda7362c747ff496"),
        (["mgf", "--model", "normal-llr:delta=1", "--lambda", "star", "--n", "200"], "c06cd4d2770a1fcc8c21979bc032fc4c5ae50f3aff51e2e7bd409a36907229cb"),
        (["mgf", "--model", "bernoulli-pm:p=0.3", "--lambda", "0.7", "--n", "200",
          "--method", "matrix"], "2a9564bcfb47fd0ddff14b8614e67c4df1c5fa2a228d766427413353f50f18dd"),
        (_DETECT, "a37af0e13c008188b85c6bf15c280ffff4ae0869a20dcbd2c062df3397be0f13"),
        (_DETECT + ["--mode", "monitor", "--threshold-variant", "custom", "--h", "3"], "f994076aa07cef0a3b386f5021dc5a8929b06aa67f088e92e190fba6a7ff3680"),
        (["figures", "--which", "1", "--n", "200", "--format", "csv"], "0b3ca73be2404669c9ccbd1a92094278d40e1da30e4770a58b902d1cb0ad36c2"),
        (["figures", "--which", "2", "--n", "200", "--format", "csv"], "3b492f797ac4371fd564a0c9f14c91cdcc715620c9b9a43ef06552c36da16884"),
        (["figures", "--which", "3", "--n", "200", "--format", "csv"], "a5bebff191cc04532457646722ae8f8d90b924588e42d740dc9827bd14d6942c"),
        (["moments", "--model", "normal-llr:delta=0.5", "--n", "200", "--format", "csv"],
         "046a5646301ea63d4895e2ebe5502a45455f0f1d8691f5c936d08ce702534b96"),
        (["mgf", "--model", "normal-llr:delta=1", "--lambda", "star", "--n", "200",
          "--format", "csv"], "ab9eb15d1d5a2484483e0fab3bd39b654d16fe3733a4ca2a4ec33512b54d9f09"),
        (["mgf", "--model", "bernoulli-pm:p=0.3", "--lambda", "0.7", "--n", "200",
          "--method", "matrix", "--format", "csv"], "3620ee7aead2459534bcbef15f88602676ded128801972002507271a456cd09b"),
        (_DETECT + ["--format", "csv"], "bd3c44ec0a1d29b63851c4b479e1c3bd3befe255485ae40b82bde518db6cdc88"),
        (_DETECT + ["--mode", "monitor", "--threshold-variant", "custom", "--h", "3",
                    "--format", "csv"], "cbc737604b0d1fb2cab100ba4822a09a82a7039cb8f938bfd752f111fa68c4df"),
    ], ids=["fig1", "fig2", "fig3", "moments", "mgf-recursive", "mgf-matrix",
            "detect-scan", "detect-monitor", "fig1-csv", "fig2-csv", "fig3-csv",
            "moments-csv", "mgf-recursive-csv", "mgf-matrix-csv", "detect-scan-csv",
            "detect-monitor-csv"])
    def test_stdout_digest(self, capsys, monkeypatch, argv, digest):
        monkeypatch.setattr("sys.stdin", io.StringIO(_detect_data()))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert _digest(argv, out) == digest


def _discrete_data() -> str:
    # support points of the table pair below; the last third leans high
    return "value\n" + "".join(
        f"{(i * 7919) % 4 if i < 400 else (i * 7919) % 3 + 1}\n" for i in range(600))


_PAIR = ["detect", "--f", "table:y=0;1;2;3,p=0.4;0.3;0.2;0.1",
         "--g", "table:y=0;1;2;3,p=0.1;0.2;0.3;0.4", "--input", "-"]


class TestDiscreteGoldenOutput:
    """Thresholds of finite-support models and detection on a discrete pair,
    byte for byte; digests recorded as in TestGoldenOutput.
    threshold-bernoulli prints ub1 to 17 digits and was recorded again for
    the blocked convolution engine, as in TestGoldenOutput.  detect-pair-scan
    prints the pair's ub3 threshold to 17 digits and was recorded again for
    the Newton root search: lambda* of its llr table went from
    1.0000000000000004 to 1.0, and ub3 from 8.480529207044643 to
    8.480529207044645."""

    @pytest.mark.parametrize("argv, digest", [
        (["threshold", "--model", "bernoulli-pm:p=0.3", "--n", "50", "--alpha", "0.05",
          "--seed", "0"], "05be37eab56b97c8faf4c79e8639b18d97d0ddeb71d575af77557a29682967ec"),
        (["threshold", "--model", "table:y=2;-1;0.5,p=0.1;0.6;0.3", "--n", "40",
          "--alpha", "0.01", "--seed", "0", "--format", "csv"],
         "d4be34b67ef8027108777b4f75b7182c11c1fd3012d7a6ead552ae880aae08d7"),
        (_PAIR + ["--emit-path"],
         "b7f04cee3138f53adc78e5afb39394c396cc7d0eb278b8ccb7e9c30427fd44cd"),
        (_PAIR + ["--mode", "monitor", "--threshold-variant", "ub2", "--format", "csv"],
         "f428cd619fcd1f1a6c1ccd9733345abafc5049cda4ef9b00673ee920d8261db7"),
    ], ids=["threshold-bernoulli", "threshold-table-csv", "detect-pair-scan",
            "detect-pair-monitor-csv"])
    def test_stdout_digest(self, capsys, monkeypatch, argv, digest):
        monkeypatch.setattr("sys.stdin", io.StringIO(_discrete_data()))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert _digest(argv, out) == digest


_MGF_OUTPUTS = [
    (["figures", "--which", "1", "--n", "200"], _detect_data,
     "ca00ee1c55cdf8a5ed7e446e159cd8b9ee3e9fc3c0a5b903c2ec0a1dbd46aa70"),
    (["figures", "--which", "3", "--n", "200"], _detect_data,
     "b17219252bc720395c3147d65637530dd2cc2486998d1ed2edf38cb310d1bfb5"),
    (["mgf", "--model", "normal-llr:delta=1", "--lambda", "star", "--n", "200"],
     _detect_data, "f1b29c5dd214712616dd7c3bdd603c4aab6f3898701aab4869102233b8861ecc"),
    (["threshold", "--model", "bernoulli-pm:p=0.3", "--n", "50", "--alpha", "0.05",
      "--seed", "0"], _discrete_data,
     "aa0e109a2671ccba6de9d9169e6ce0e9386d59ddebd5106b1de01ba1b3189888"),
    (["mgf", "--model", "bernoulli-pm:p=0.3", "--lambda", "0.7", "--n", "200",
      "--method", "matrix"], _detect_data,
     "794be847f64fc97986015fcdc0f9c2ee5479c31db563117bea2c1dad6f76743a"),
    (["figures", "--which", "2", "--n", "200"], _detect_data,
     "30c1491f74512cff8ff4d42c9a9001f105d1f0f5db132c83f5d7f138ef5ac5f5"),
    (["moments", "--model", "normal-llr:delta=0.5", "--n", "200"], _detect_data,
     "ad2c7cce776cd1d4686f3bb5df65f4bf5d3394c079787f3236cd86c8e0af8bc1"),
]
_MGF_IDS = ["fig1", "fig3", "mgf-recursive", "threshold-bernoulli", "mgf-matrix",
            "fig2", "moments"]


@pytest.fixture
def loop_oracles(monkeypatch):
    """Returns a function that routes M_n, the matrix route's M_n, Var W_n
    and the rectified sums of finite supports through the loops, the dense
    solve and the direct self-convolution of tests/_oracles.py.  The moment
    caches are emptied when it is called and after the test, so no value
    crosses between the oracles and the engines."""

    def use_loops():
        monkeypatch.setattr(moments, "convolution_recursion", convolution_recursion_loop)
        monkeypatch.setattr(moments, "cusum_mgf_matrix", cusum_mgf_matrix_dense)
        monkeypatch.setattr(moments, "cusum_variance", cusum_variance_direct)
        monkeypatch.setattr(models._DiscreteBase, "rectified_exp_seq", rectified_exp_seq_loop)
        monkeypatch.setattr(models._DiscreteBase, "rectified_moment_seq",
                            rectified_moment_seq_loop)
        clear()

    def clear():
        moments._x_seq.cache_clear()
        moments._sum_moment_seq.cache_clear()

    yield use_loops
    clear()


def _same_but_numbers(got, want, where="result"):
    """Equal structure and strings; numbers equal within 1e-13 relative."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            _same_but_numbers(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _same_but_numbers(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert got == pytest.approx(want, rel=1e-13, abs=0.0), where
    else:
        assert got == want, where


class TestRecursionOracleGolden:
    """The outputs whose digests moved with the blocked convolution engine,
    the blocked sum-law engine, the panel solve of the matrix route or the
    FFT cross sum of the variance.

    Through the oracles of tests/_oracles.py (the term-by-term recursion,
    the per-step rectified sums, the dense matrix solve and the direct
    self-convolution) they keep the bytes recorded before the engines; through the engines they differ from
    those only in the last digits of numbers.
    """

    @pytest.mark.parametrize("argv, data, digest", _MGF_OUTPUTS, ids=_MGF_IDS)
    def test_loop_reproduces_earlier_digest(self, capsys, monkeypatch, loop_oracles,
                                            argv, data, digest):
        monkeypatch.setattr("sys.stdin", io.StringIO(data()))
        loop_oracles()
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert _digest(argv, out) == digest

    @pytest.mark.parametrize("argv, data, digest", _MGF_OUTPUTS, ids=_MGF_IDS)
    def test_engine_differs_only_in_numbers(self, capsys, monkeypatch, loop_oracles,
                                            argv, data, digest):
        monkeypatch.setattr("sys.stdin", io.StringIO(data()))
        code, engine_out, _ = run(capsys, *argv)
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(data()))
        loop_oracles()
        code, loop_out, _ = run(capsys, *argv)
        assert code == 0
        assert engine_out != loop_out
        _same_but_numbers(json.loads(engine_out), json.loads(loop_out))
