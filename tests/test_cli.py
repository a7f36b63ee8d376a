import json
import math
import subprocess
import sys

import pytest

from cusumkit import cli, models, moments


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


class TestNumericPayloads:
    def test_mgf_matches_module(self, capsys):
        _, out, _ = run(capsys, "mgf", "--model", "normal-llr:delta=1",
                        "--lambda", "1", "--n", "50")
        got = json.loads(out)["result"]["values"]
        want = moments.cusum_mgf_recursive(models.NormalLLR(1.0), 1.0, 50).values
        assert got == list(want)  # 17 significant digits round-trip exactly

    def test_threshold_ub2_closed_form(self, capsys):
        _, out, _ = run(capsys, "threshold", "--model", "normal-llr:delta=0.5",
                        "--n", "500", "--alpha", "0.05")
        rep = json.loads(out)["result"]
        assert rep["ub2"] == pytest.approx(math.log(501 / 0.05), rel=1e-15)

    def test_rerun_reproduces_payload(self, capsys):
        args = ["simulate", "--model", "normal-llr:delta=1", "--n", "20",
                "--reps", "200", "--seed", "7"]
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_seed_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("CUSUMKIT_SEED", "123")
        parser = cli.build_parser()
        args = parser.parse_args(["simulate", "--model", "normal-llr:delta=1",
                                  "--n", "5", "--reps", "10"])
        # parser defaults are bound at build time, so rebuild under the env
        assert args.seed == 123


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

class TestFigures:
    def test_figure1_columns_grow_linearly(self, capsys):
        code, out, _ = run(capsys, "figures", "--which", "1", "--n", "400",
                           "--deltas", "0.5,1")
        rows = json.loads(out)["result"]["rows"]
        assert code == 0
        d_early = rows[200][1] - rows[100][1]
        d_late = rows[400][1] - rows[300][1]
        assert d_late == pytest.approx(d_early, rel=0.05)

    def test_figure4_rows_csv(self, capsys):
        code, out, _ = run(capsys, "figures", "--which", "4", "--deltas", "1",
                           "--ns", "50", "--format", "csv")
        lines = out.splitlines()
        assert code == 0
        assert lines[1].split(",")[0] == "delta"
        assert len(lines) == 3
