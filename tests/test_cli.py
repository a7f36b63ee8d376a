import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cusumkit import cli, models, moments
from cusumkit.errors import CusumkitError

from _oracles import read_values_per_line


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

    def test_figure4_rows_csv(self, capsys):
        code, out, _ = run(capsys, "figures", "--which", "4", "--deltas", "1",
                           "--ns", "50", "--format", "csv")
        lines = out.splitlines()
        assert code == 0
        assert lines[1].split(",")[0] == "delta"
        assert len(lines) == 3
