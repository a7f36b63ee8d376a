"""Command-line interface.

One executable with subcommands for moment/MGF tables, threshold reports,
simulation, regime classification, queue bounds, detection, and the data
tables behind the standard diagnostic figures.  JSON output carries a
schema_version and echoes the fully resolved configuration; it is strict
RFC 8259 JSON written by orjson, floats in the shortest text that parses
back to the same double and non-finite ones as null.  CSV output prefixes
the same configuration as a single '# config: ...' comment line above the
header row.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import re
import stat
import sys
import tempfile

import numpy as np
import orjson

from . import bounds, detect, models, moments, simulate
from .errors import CusumkitError

SCHEMA_VERSION = 1
_SEED_ENV = "CUSUMKIT_SEED"


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


_INT64_MAX = 2**63 - 1  # orjson writes integers in [-2**63, 2**64)
_JSON_OPTIONS = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE


class Table:
    """Rows held as columns: arrays or sequences, all of one length.

    JSON writes a table as a list of rows (``_json_default``) and CSV as one
    line per row (``_rows``).
    """

    def __init__(self, *columns):
        self.columns = columns

    @classmethod
    def of_rows(cls, rows, width: int) -> "Table":
        return cls(*(list(zip(*rows)) or [()] * width))


def _json_default(obj):
    """What orjson does not write itself: a Table as its list of rows, and
    an array that is not C-contiguous as nested lists."""
    if isinstance(obj, Table):
        cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in obj.columns]
        return list(zip(*cells, strict=True))
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".12g")
    return str(v)


def _kind(cells: list) -> type | None:
    """int or float when every cell is one (bool is neither), else None."""
    types = set(map(type, cells))
    if all(issubclass(t, (int, np.integer)) and t is not bool for t in types):
        return int
    if all(issubclass(t, (float, np.floating)) for t in types):
        return float
    return None


def _column(values) -> tuple[str, list]:
    """The %-field that writes one CSV column, and its cells.

    Ints take %d and floats %.12g, the formatter of ``format(x, ".12g")``,
    so the bytes are those of ``_csv_cell``.  Other cells are rendered one
    at a time by ``_csv_cell`` and take %s.
    """
    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iuf":
        kind = float if values.dtype.kind == "f" else int
        cells = values.tolist()
    else:
        cells = list(values)
        kind = _kind(cells)
    if kind is int:
        return "%d", cells
    if kind is float:
        return "%.12g", cells
    return "%s", [_csv_cell(v) for v in cells]


def _rows(columns) -> str:
    """Every row of ``columns`` as a CSV line, written by one %-template."""
    fields, cells = zip(*map(_column, columns))
    width, height = len(cells), len(cells[0])
    if width == 1:
        flat = cells[0]
    else:
        flat = [None] * (width * height)
        for j, col in enumerate(cells):
            flat[j::width] = col  # raises unless every column has `height` cells
    return ((",".join(fields) + "\n") * height) % tuple(flat)


def _config_of(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _emit(args, result, csv_header=None, csv_rows=None) -> None:
    """Write ``result`` (JSON) or the ``csv_rows`` Table (CSV) to
    ``args.output``.

    The whole text is built before the file is opened, so a failure before
    the write leaves an existing file as it was.  The file is opened
    without O_TRUNC, written whole and, if it is a regular file, cut to
    the length written: truncating first frees the file's blocks, and ext4
    then starts writeback at close.  The path keeps its inode, mode and
    links, and a device, FIFO or tty is not cut.  A crash mid-write can
    leave old and new bytes mixed; the monitor's state file, which must
    survive one, is written by ``_replace_file``."""
    config = _config_of(args)
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config": config,
            "result": result,
        }
        try:
            text = orjson.dumps(payload, default=_json_default,
                                option=_JSON_OPTIONS).decode()
        except orjson.JSONEncodeError as exc:
            raise CusumkitError(f"cannot write JSON: {exc}") from None
    else:
        if csv_header is None:
            raise CusumkitError("this subcommand has no CSV form")
        strict = {k: None if isinstance(v, float) and not math.isfinite(v) else v
                  for k, v in config.items()}  # RFC 8259 has no nan or inf
        text = ("# config: " + json.dumps(strict, default=str) + "\n"
                + ",".join(csv_header) + "\n" + _rows(csv_rows.columns))
    if args.output == "-":
        sys.stdout.write(text)
    else:
        fd = os.open(args.output, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w") as out:
            out.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                out.truncate()  # flushes, then cuts at the end of the text


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_moments(args) -> None:
    model = models.parse_model(args.model)
    table = moments.moment_table(model, args.n)
    result = {
        "means": table.means,
        "variances": table.variances,
        "variance_recursion_gap": table.recursion_gap,
    }
    rows = Table(np.arange(args.n + 1), table.means, table.variances)
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
    rows = Table(np.arange(args.n + 1), series.values)
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
    rows = Table.of_rows([_threshold_row(report, model.llr_delta())], len(_THRESHOLD_HEADER))
    _emit(args, report, _THRESHOLD_HEADER, rows)


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
        rows = Table(np.arange(args.reps), res.w_final, res.w_max)
        _emit(args, result, ["rep", "w_n", "max_w"], rows)
    else:
        _emit(
            args,
            result,
            ["mean", "variance", "mean_stderr", "exp_moment", "exp_moment_stderr"],
            Table.of_rows([[res.mean, res.variance, res.mean_stderr, res.exp_moment,
                            res.exp_moment_stderr]], 5),
        )


def _cmd_regimes(args) -> None:
    model = models.parse_model(args.model)
    reg = bounds.regime(model, args.lam)
    _emit(
        args,
        reg,
        ["kind", "lambda", "lambda_star", "omega", "growth"],
        Table.of_rows([[reg.kind, reg.lam, reg.lam_star, reg.omega, reg.growth]], 5),
    )


def _cmd_queue_bound(args) -> None:
    model = models.parse_model(args.model)
    bound = bounds.queue_tail_bound(model, args.n, args.h)
    lam_star = models.cached_lambda_star(model)
    result = {"bound": bound, "lambda_star": lam_star}
    _emit(args, result, ["n", "h", "bound", "lambda_star"],
          Table.of_rows([[args.n, args.h, bound, lam_star]], 4))


# -- detection ---------------------------------------------------------------


def _parse_density(text: str):
    spec = models.Spec(text)
    if spec.kind == "normal":
        density = ("normal", spec.number("mean"), spec.number("sigma"))
    elif spec.kind == "table":
        density = ("table", spec.numbers("y"), spec.numbers("p"))
    else:
        raise ValueError(f"unknown density kind {spec.kind!r}")
    spec.close()
    return density


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


# the per-line pass's decoder, which also words its errors; huge ints become inf
_JSONL = json.JSONDecoder(parse_int=float)


# line breaks of str.splitlines other than "\n" and "\r".  The CSV fast path
# cuts lines at "\n" alone, so an input holding one of them or a non-ASCII
# byte goes to the per-line pass.
_CELL_BREAKS = b"\x0b\x0c\x1c\x1d\x1e"
_CSV_CHUNK = 1 << 18  # bytes per orjson.loads of a CSV column
_REST_OF_LINE = re.compile(rb",[^\n]*")
_NOT_NUMBERS = b'tfn"[{'  # the first characters of JSON values other than numbers
_JSONL_START = re.compile(r"\s*\{")  # \s is the whitespace of str.strip
_NEG_ZERO = re.compile(r"-0(?![.eE\d])")  # an integer -0, which orjson reads as 0
_NEG_ZERO_CELL = re.compile(rb"-(?<![eE]-)0(?![.eE\d])")  # the same, not in 1e-0
_NUMBER_TYPES = frozenset((float, int))


def _read_values(path: str, field: str) -> np.ndarray:
    """One value per non-blank line: the first comma field of a CSV row
    (after an optional header row), or ``field`` of a JSONL record.

    orjson parses the numbers (``_read_fast``); an input it refuses or that
    holds a nan or inf goes through ``_parse_lines``, the per-line pass,
    which gives the same values or names the bad line.
    """
    if path == "-":
        data, decode = _stdin()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
        decode = _file_text
    try:
        out = _read_fast(data, field, decode)
    except (ValueError, KeyError, TypeError):  # orjson.JSONDecodeError is a ValueError
        out = None
    if out is not None and np.isfinite(out).all():
        return out
    return _parse_lines(decode(data), field)


def _file_text(data: bytes) -> str:
    """The text of a file's bytes, as ``open(path).read()`` gives it."""
    return io.TextIOWrapper(io.BytesIO(data)).read()


def _stdin() -> tuple[bytes | str, object]:
    """Standard input's bytes, and the function that decodes them as its text
    stream does (which translates no line ends); a stream without a byte
    buffer, such as ``io.StringIO``, gives its text and ``str``."""
    stdin = sys.stdin
    buffer = getattr(stdin, "buffer", None)
    if buffer is None:
        return stdin.read(), str
    return buffer.read(), functools.partial(bytes.decode, encoding=stdin.encoding,
                                            errors=stdin.errors)


def _read_fast(data: bytes | str, field: str, decode) -> np.ndarray | None:
    """The values of ``_parse_lines`` read by orjson, or None when it does not
    apply.  JSON numbers are a subset of what ``float`` reads, with the same
    correctly rounded value, except the integer -0 (refused); any other element
    raises.  An ASCII CSV is read from bytes, one array per chunk; ``decode``
    gives the text of ``data`` for the other formats."""
    raw = data.encode() if isinstance(data, str) else data
    if raw.isascii() and not any(c in raw for c in _CELL_BREAKS):
        if b"\r" in raw and _lone_cr(raw):
            raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        pos = _csv_head(raw)
        if pos is not None:
            parts = [np.empty(0)]  # for a file with no data row too
            stop = len(raw) - raw.endswith(b"\n")  # the last line break ends no line
            while pos < stop:
                end = raw.find(b"\n", pos + _CSV_CHUNK, stop)
                if end < 0:
                    end = stop
                parts.append(_first_cells(raw[pos:end]))
                pos = end + 1
            return np.concatenate(parts)
    text = decode(data)
    if not _JSONL_START.match(text):
        return None
    vals = []
    for ln in text.splitlines():
        try:
            vals.append(orjson.loads(ln)[field])
        except orjson.JSONDecodeError:
            if ln.strip():
                raise
    return np.array(_only_numbers(vals, text), dtype=float)


def _lone_cr(raw: bytes) -> bool:
    """Whether a "\\r" that no "\\n" follows ends a line of ``raw``.  orjson
    reads the "\\r" of "\\r\\n", or one that ends ``raw``, as whitespace, so
    only such a line end needs the translation to "\\n"."""
    b = np.frombuffer(raw, np.uint8)
    cr = b[:-1] == ord("\r")
    cr &= b[1:] != ord("\n")
    return bool(cr.any())


def _first_cells(lines: bytes) -> np.ndarray:
    """The first comma cells of the non-blank ``lines``, one orjson parse."""
    try:
        return _json_column(lines)
    except orjson.JSONDecodeError:  # maybe a blank line; drop them and retry
        # str.strip's whitespace, of the bytes that get here
        kept = b"\n".join(ln for ln in lines.split(b"\n") if ln.strip(b" \t\r\x1f"))
        if len(kept) == len(lines):
            raise
        return _json_column(kept)


def _json_column(lines: bytes) -> np.ndarray:
    """The first comma cells of ``lines``, parsed as one JSON array.  A blank
    line or an empty first cell leaves an empty element, which orjson refuses,
    unless it is the only one: then the array is empty.  Cells without any of
    ``_NOT_NUMBERS`` hold numbers only; an integer -0 is looked for if one is 0."""
    commas = b"," in lines
    cells = _REST_OF_LINE.sub(b"", lines) if commas else lines
    if any(c in cells for c in _NOT_NUMBERS):
        raise TypeError("not a number")
    vals = orjson.loads(b"[" + cells.replace(b"\n", b",") + b"]")
    if not vals and commas:
        raise ValueError("an empty first cell")
    out = np.fromiter(vals, float, len(vals))
    if not out.all() and _NEG_ZERO_CELL.search(cells):
        raise ValueError("an integer -0")
    return out


def _only_numbers(vals: list, text: str) -> list:
    """``vals`` when each is a float or an int (bool is neither) and ``text``
    writes no integer -0: the check of a JSONL file's field values."""
    types = set(map(type, vals))
    if not types <= _NUMBER_TYPES:
        raise TypeError("not a number")
    if int in types and _NEG_ZERO.search(text):
        raise ValueError("an integer -0")
    return vals


def _csv_head(data: bytes) -> int | None:
    """Where the first CSV data row of ASCII ``data`` starts: after the blank
    lines and a header row, sniffed as ``_parse_lines`` does.  None when no
    line is non-blank or the first that is opens a JSONL record."""
    pos = 0
    while True:
        end = data.find(b"\n", pos)
        line = (data[pos:] if end < 0 else data[pos:end]).decode()
        if line.strip():
            break
        if end < 0:
            return None
        pos = end + 1
    if line.lstrip().startswith("{"):
        return None
    try:
        float(line.split(",")[0])
    except ValueError:
        return len(data) if end < 0 else end + 1  # a header row
    return pos


def _parse_lines(text: str, field: str) -> np.ndarray:
    """The per-line pass of ``_read_values``: one pass per format over the
    lines of ``text``; blank lines are skipped.  The first line that does
    not parse is named in a ``CusumkitError``; then the line of the first
    nan or inf value is.
    """
    lines = text.splitlines()
    start = next((i for i, ln in enumerate(lines) if ln.strip()), None)
    if start is None:
        return np.empty(0)
    if lines[start].lstrip().startswith("{"):
        first, out = 1, _read_jsonl(lines, field)
    else:
        try:
            float(lines[start].split(",")[0])
        except ValueError:
            start += 1  # a header row
        del lines[:start]
        first, out = start + 1, _read_csv(lines, start + 1, "," in text)
    if not np.isfinite(out).all():
        k = np.flatnonzero(~np.isfinite(out))[0]
        line = [i for i, ln in enumerate(lines, first) if ln.strip()][k]
        raise CusumkitError(f"line {line}: non-finite value {out[k]:g}")
    return out


def _read_csv(rows: list[str], first: int, commas: bool) -> np.ndarray:
    """The first comma fields of ``rows``, which start at line ``first``: one
    bulk ``float`` pass, then, only if it raises, a per-line pass that skips
    blank rows and names the first bad one."""
    cells = [ln.split(",", 1)[0] for ln in rows] if commas else rows
    try:
        return np.fromiter(map(float, cells), float)
    except ValueError:
        vals = []
    for i, ln in enumerate(rows, first):
        if ln.strip():
            cell = ln.split(",")[0].strip()
            try:
                vals.append(float(cell))
            except ValueError:
                raise CusumkitError(f"line {i}: non-numeric value {cell!r}") from None
    return np.array(vals, dtype=float)


def _read_jsonl(lines: list[str], field: str) -> np.ndarray:
    """``field`` of the record on each non-blank line; the first line that
    is not such a record is named, with the decoder's text for a syntax
    error."""
    vals = []
    blanks = 0
    for ln in lines:
        if not ln.strip():
            blanks += 1
            continue
        try:
            record = _JSONL.decode(ln)
        except (ValueError, RecursionError) as exc:
            raise CusumkitError(f"line {len(vals) + blanks + 1}: {exc}") from None
        value = record.get(field) if type(record) is dict else None
        if type(value) is not float:
            raise CusumkitError(
                f"line {len(vals) + blanks + 1}: missing numeric field {field!r}")
        vals.append(value)
    return np.array(vals)


def _replace_file(path: str, text: str) -> None:
    """Write text to path atomically: a crash leaves the old file or the
    new one, never a torn one."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _refuse_overflow(w: np.ndarray, t0: int) -> None:
    """Name the first W that is not finite; w[i] is W after observation
    t0 + i + 1, before any alarm's reset."""
    i = int(np.argmin(np.isfinite(w)))
    raise CusumkitError(f"observation {t0 + i + 1}: W = {w[i]:g} leaves float64")


def _cmd_detect(args) -> None:
    pair = _build_pair(args)
    data = _read_values(args.input, args.field)
    with np.errstate(over="ignore"):  # W = inf is refused below; -inf clamps to 0
        increments = detect.llr_increments(pair, data)
    n = len(increments)

    if args.threshold_variant == "custom":
        if args.h is None:
            raise CusumkitError("--threshold-variant custom requires --h")
        if not args.h > 0.0:  # a NaN h would never alarm: refused in both modes
            raise CusumkitError(f"--h must be positive, got {args.h:g}")
        h = args.h
    else:
        h = bounds.threshold_ub(
            pair.increment_model(), n, args.alpha, args.threshold_variant
        )

    rows = None  # (t, W_t), built only when the output carries the path
    if args.mode == "monitor":
        state = detect.CusumState()
        if args.state and os.path.exists(args.state):
            with open(args.state) as fh:
                try:
                    state = detect.CusumState.from_json(fh.read())
                except CusumkitError as exc:
                    raise CusumkitError(f"state file {args.state}: {exc}") from None
        t0 = state.t
        state, new_alarms, path = detect.monitor_run(state, increments, h)
        if not (math.isfinite(state.w) and math.isfinite(state.running_max)):
            before = path.copy()
            for t, v in new_alarms:
                before[t - t0 - 1] = v
            _refuse_overflow(before, t0)
        if args.state:
            _replace_file(args.state, state.to_json())
        result = {
            "mode": "monitor",
            "threshold": h,
            "observations": n,
            "t": state.t,
            "w": state.w,
            "running_max": state.running_max,
            "new_alarms": new_alarms,  # (t, w) pairs, which orjson writes as arrays
            "all_alarms": state.alarms,
        }
        if args.emit_path or args.format == "csv":
            rows = Table(np.arange(t0 + 1, state.t + 1), path)
    else:
        with np.errstate(over="ignore"):  # refused below
            report = detect.scan_offline(increments, h)
        if not math.isfinite(report.statistic_max):
            _refuse_overflow(report.path[1:], 0)
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
        if args.emit_path or args.format == "csv":
            rows = Table(np.arange(n + 1), report.path)
    if args.emit_path:
        result["path"] = rows
    _emit(args, result, ["t", "w"], rows)


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
        rows = Table(np.arange(args.n + 1), *cols)
    elif args.which == 2:
        deltas = deltas or [0.1, 0.5, 1.0, 2.0, 5.0]
        header = ["n"]
        cols = []
        for d in deltas:
            table = moments.moment_table(models.NormalLLR(d), args.n)
            header += [f"mean_delta_{d:g}", f"var_delta_{d:g}"]
            cols += [table.means, table.variances]
        rows = Table(np.arange(args.n + 1), *cols)
    elif args.which == 3:
        model = models.NormalLLR(args.delta)
        header = ["n", "subcritical", "critical", "supercritical"]
        sub = moments.cusum_mgf_recursive(model, 0.999, args.n).values
        crit = moments.cusum_mgf_recursive(model, 1.0, args.n).values
        sup = moments.cusum_mgf_recursive(model, 1.001, args.n).values
        rows = Table(np.arange(args.n + 1), sub, crit, sup)
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
        rows = Table.of_rows(rows, len(header))
    elif args.which == 5:
        deltas = deltas or [0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]
        args.mc_reps = args.mc_reps or 20_000  # the config echoes the count used
        header = ["delta", "n", "alpha", "mc", "stderr"]
        rows = []
        for d in deltas:
            h, se = simulate.mc_quantile_max(
                models.NormalLLR(d), args.n, args.alpha, args.mc_reps, args.seed,
                parallel_streams=args.parallel,
            )
            rows.append([d, args.n, args.alpha, h, se])
        rows = Table.of_rows(rows, len(header))
    else:
        raise CusumkitError(f"unknown figure {args.which}")
    result = {"columns": header, "rows": rows}
    _emit(args, result, header, rows)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


_DIGITS = re.compile(r"\s*([+-]?)\d+\s*")


def _integer_in(minimum: int, maximum: int = _INT64_MAX):
    """An argparse type for integers in [minimum, maximum]; others exit 2
    naming the flag."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:  # int() also refuses over 4 300 digits: out of range
            digits = _DIGITS.fullmatch(text)
            n = minimum - 1 if digits is None or digits[1] == "-" else maximum + 1
        if n < minimum:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {minimum}, got {text!r}")
        if n > maximum:
            raise argparse.ArgumentTypeError(
                f"expected an integer <= {maximum}, got {text!r}")
        return n
    return parse


_nonnegative = _integer_in(0)  # --n, each --ns entry, --mc-reps
_positive = _integer_in(1)  # --reps, --parallel
_seed = _integer_in(0, 2**64 - 1)  # --seed and CUSUMKIT_SEED


def _default_seed() -> int:
    try:
        return _seed(os.environ.get(_SEED_ENV, "0"))
    except argparse.ArgumentTypeError as exc:
        raise CusumkitError(f"{_SEED_ENV}: {exc}") from None


def _horizons(text: str) -> str:
    """A --ns value: comma-separated integers >= 0, echoed as given."""
    for v in text.split(","):
        _nonnegative(v)
    return text


def _numbers(text: str) -> str:
    """A --deltas value: comma-separated numbers, at least one, echoed as
    given."""
    if not _parse_float_list(text):
        raise argparse.ArgumentTypeError(f"expected at least one number, got {text!r}")
    return text


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
    p.add_argument("--n", type=_nonnegative, required=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_moments)

    p = subs.add_parser("mgf", help="exponential moment table M_n(lambda)")
    p.add_argument("--model", required=True)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="a float, or 'star' for the critical exponent")
    p.add_argument("--n", type=_nonnegative, required=True)
    p.add_argument("--method", choices=("recursive", "matrix"), default="recursive")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_mgf)

    p = subs.add_parser("threshold", help="all threshold variants for a scenario")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=_nonnegative, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--mc-reps", type=_nonnegative, default=0)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--parallel", type=_positive, default=1)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_threshold)

    p = subs.add_parser("simulate", help="Monte Carlo CUSUM paths")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=_nonnegative, required=True)
    p.add_argument("--reps", type=_positive, required=True)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="also estimate M_n at this lambda")
    p.add_argument("--parallel", type=_positive, default=1)
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
    p.add_argument("--n", type=_nonnegative, required=True)
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
    p.add_argument("--deltas", type=_numbers, default=None)
    p.add_argument("--delta", type=float, default=1.0, help="figure 3 only")
    p.add_argument("--n", type=_nonnegative, default=2000)
    p.add_argument("--ns", type=_horizons, default="50,200,500,1000",
                   help="figure 4 only")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--mc-reps", type=_nonnegative, default=0)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--parallel", type=_positive, default=1)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_figures)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if "seed" in vars(args) and args.seed is None:
            args.seed = _default_seed()  # read on every call, not when built
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
