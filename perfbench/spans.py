"""Span recorder for the traced run, and the per-layer metrics it yields.

The traced run replaces each layer entry point in LAYERS, a module or class
attribute of cusumkit, by a wrapper that records a span: name, start, end,
parent span and operation id.  Spans stay in memory and are written out when
the run ends.  A layer's self time is its spans' duration minus the part of
that interval its child spans cover; where a layer has no function of its
own (the inverse-CDF transform) it is the narrowest function containing it,
and its self time excludes the layers it calls.

An entry point that no longer exists is reported as missing (value null),
never as 0.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import cusumkit


@dataclass(frozen=True)
class Layer:
    """A traced entry point: ``owner`` is a module of cusumkit, optionally
    followed by a class (``"models._NormalBase"``).  With several ``names``,
    ``pick(*args)`` chooses the span name of each call; ``count(counts,
    seconds, result, *args)`` records exact work counts."""

    names: tuple[str, ...]
    owner: str
    attr: str
    count: Callable | None = None
    pick: Callable | None = None


def _uniforms(c, dt, result, seed, first_rep, reps, draws):
    # each replication owns whole Philox blocks of four outputs
    c["rng.uniform_block.uniforms"] += reps * cusumkit.rng.blocks_per_rep(draws) * 4
    c["rng.uniform_block.used"] += reps * draws


def _increments(c, dt, result, model, seed, first_rep, reps, n):
    kind = "lattice" if hasattr(model, "support") else "normal"
    c[f"simulate.transform.increments.{kind}"] += reps * n


def _steps(c, dt, result, y):
    c["kernels.lindley_block.steps"] += y.size
    c["kernels.lindley_block.bytes_computed"] += 8 * y.size


def _chunk(c, dt, result, *args):
    c["simulate.simulate_cusum.chunks"] += 1
    c["simulate.chunk.busy_s"] += dt


def _streams(c, dt, result, config, *args, **kwargs):
    c["simulate.simulate_cusum.stream_s"] += config.parallel_streams * dt


def _madds(c, dt, result, x):
    c["kernels.convolution_recursion.madds"] += len(x) * (len(x) + 1) // 2


def _states(c, dt, result, *args, **kwargs):
    c["simulate.exact_enumerate.states"] += len(result.atoms)


def _observations(c, dt, result, pair, data):
    kind = "discrete" if hasattr(pair, "support") else "normal"
    c[f"detect.llr_increments.{kind}.observations"] += len(result)


def _alarms(c, dt, result, *args):
    c["detect.alarms"] += result[1] is not None


def _read_bytes(c, dt, result, path, field):
    c["cli.read_values.bytes"] += os.path.getsize(path)


def _emit_bytes(c, dt, result, args, *rest):
    c["cli.emit.bytes"] += os.path.getsize(args.output)


LAYERS = (
    Layer(("rng.uniform_block",), "rng", "uniform_block", _uniforms),
    Layer(("simulate.transform",), "simulate", "_increments_chunk", _increments),
    Layer(("kernels.lindley_block",), "simulate", "lindley_block", _steps),
    Layer(("simulate.chunk",), "simulate", "_run_chunk", _chunk),
    Layer(("simulate.simulate_cusum",), "simulate", "simulate_cusum", _streams),
    Layer(("simulate.upper_quantile",), "simulate", "_upper_quantile"),
    Layer(("kernels.convolution_recursion",), "moments", "convolution_recursion", _madds),
    Layer(("models.rectified_exp_seq.normal",), "models._NormalBase", "rectified_exp_seq"),
    Layer(("models.rectified_exp_seq.lattice",), "models._DiscreteBase", "rectified_exp_seq"),
    Layer(("models.rectified_moment_seq.lattice",), "models._DiscreteBase",
          "rectified_moment_seq"),
    Layer(("simulate.exact_enumerate",), "simulate", "exact_enumerate", _states),
    Layer(("moments.cusum_variance",), "moments", "cusum_variance"),
    Layer(("moments.cusum_mgf_matrix",), "moments", "cusum_mgf_matrix"),
    Layer(("moments.asymptote_slope",), "moments", "asymptote_slope"),
    Layer(("bounds.lower_bound_detail",), "bounds", "lower_bound_detail"),
    Layer(("bounds.threshold_report",), "bounds", "threshold_report"),
    Layer(("detect.llr_increments.normal", "detect.llr_increments.discrete"), "detect",
          "llr_increments", _observations, lambda pair, data: int(hasattr(pair, "support"))),
    Layer(("detect.scan_offline",), "detect", "scan_offline"),
    Layer(("detect.monitor_step",), "detect", "monitor_step", _alarms),
    Layer(("cli.read_values",), "cli", "_read_values", _read_bytes),
    Layer(("cli.emit",), "cli", "_emit", _emit_bytes),
)

# generators whose yields are counted, not timed: (owners, attr, counter)
SUM_LAWS = (("models.BernoulliPM", "models.DiscreteTable"), "sum_distributions",
            "models.sum_distributions.atoms")

# lru caches: (metric prefix, owner, attr)
CACHES = (
    ("moments.x_seq", "moments", "_x_seq"),
    ("moments.sum_moment_seq", "moments", "_sum_moment_seq"),
    ("models.cached_lambda_star", "models", "cached_lambda_star"),
)

# spans that structure the trace but are not reported as layers
_STRUCTURAL = ("op", "simulate.chunk")


def _resolve(owner: str):
    """The module or class named by ``owner``, or None when it is gone."""
    module, _, cls = owner.partition(".")
    obj = getattr(cusumkit, module, None)
    return getattr(obj, cls, None) if cls and obj is not None else obj


def caches() -> list[tuple[str, Callable]]:
    """The lru-cached functions that still exist, with their metric prefix."""
    found = []
    for prefix, owner, attr in CACHES:
        fn = getattr(_resolve(owner), attr, None)
        if fn is not None and hasattr(fn, "cache_info"):
            found.append((prefix, fn))
    return found


class Tracer:
    """Records spans and counts while installed (use as a context manager)."""

    def __init__(self):
        self.names: list[str] = ["op"]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self.op_id = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:  # a worker thread: its spans hang off the caller's span
            stack = self._local.stack = []
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
        with self._lock:
            idx = len(self.start)
            self.name_id.append(nid)
            self.start.append(time.perf_counter())
            self.end.append(0.0)
            self.parent.append(parent)
            self.op.append(self.op_id)
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> float:
        self.end[idx] = t = time.perf_counter()
        self._local.stack.pop()
        return t - self.start[idx]

    def span_op(self, op_id: int, call):
        """Run one operation as a root span."""
        self.op_id = op_id
        idx = self._open(0)
        try:
            return call()
        finally:
            self._close(idx)

    def _wrap(self, fn, layer: Layer):
        ids = [self._name(n) for n in layer.names]
        count, pick, counts = layer.count, layer.pick, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(ids[pick(*args)] if pick else ids[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = self._close(idx)
            if count is not None:
                count(counts, dt, result, *args, **kwargs)
            return result

        return traced

    def _count_yields(self, fn, counter: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[counter] += len(item[0])
                yield item

        return counted

    # -- installing the wrappers --------------------------------------------

    def _patch(self, owner: str, attr: str, make, names) -> None:
        obj = _resolve(owner)
        fn = getattr(obj, attr, None) if obj is not None else None
        if fn is None:
            self.missing.update(names)
            return
        # None marks a method the class inherits: undo by deleting the wrapper
        self._restore.append((obj, attr, vars(obj).get(attr)))
        setattr(obj, attr, make(fn))

    def __enter__(self):
        for layer in LAYERS:
            self._patch(layer.owner, layer.attr, lambda fn, l=layer: self._wrap(fn, l),
                        layer.names)
        owners, attr, counter = SUM_LAWS
        for owner in owners:
            self._patch(owner, attr, lambda fn: self._count_yields(fn, counter), (counter,))
        return self

    def __exit__(self, *exc):
        for obj, attr, original in reversed(self._restore):
            if original is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, original)
        self._restore.clear()
        return False

    # -- results ---------------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Per span: duration minus the union of its children's intervals."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        own = end - start
        order = np.lexsort((start, parent))
        order = order[parent[order] >= 0]
        covered = np.zeros_like(own)
        starts, ends, parents = start.tolist(), end.tolist(), parent.tolist()
        cur, lo, hi = -1, 0.0, 0.0
        for i in order.tolist():
            p = parents[i]
            s, e = max(starts[i], starts[p]), min(ends[i], ends[p])
            if p != cur:
                if cur >= 0:
                    covered[cur] += hi - lo
                cur, lo, hi = p, s, e
            elif s > hi:
                covered[cur] += hi - lo
                lo, hi = s, e
            else:
                hi = max(hi, e)
        if cur >= 0:
            covered[cur] += hi - lo
        return own - covered

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path, names=np.asarray(self.names), name_id=np.frombuffer(self.name_id, np.int32),
            start=np.frombuffer(self.start, float), end=np.frombuffer(self.end, float),
            parent=np.frombuffer(self.parent, np.int64), op=np.frombuffer(self.op, np.int64),
        )


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# extra metrics: name -> (unit, better, layer whose absence makes it missing)
_EXTRA = {
    "rng.uniform_block.uniforms": ("count", "lower", "rng.uniform_block"),
    "rng.uniform_block.used_ratio": ("ratio", "higher", "rng.uniform_block"),
    "simulate.transform.increments.normal": ("count", "lower", "simulate.transform"),
    "simulate.transform.increments.lattice": ("count", "lower", "simulate.transform"),
    "kernels.lindley_block.steps": ("count", "lower", "kernels.lindley_block"),
    "kernels.lindley_block.bytes_computed": ("B", "lower", "kernels.lindley_block"),
    "simulate.simulate_cusum.chunks": ("count", "lower", "simulate.chunk"),
    "simulate.simulate_cusum.stream_busy_frac": ("ratio", "higher", "simulate.chunk"),
    "simulate.simulate_cusum.steps_per_s_2streams": ("1/s", "higher", "simulate.chunk"),
    "kernels.convolution_recursion.madds": ("count", "lower", "kernels.convolution_recursion"),
    "models.sum_distributions.atoms": ("count", "lower", "models.sum_distributions.atoms"),
    "simulate.exact_enumerate.states": ("count", "lower", "simulate.exact_enumerate"),
    "detect.llr_increments.normal.observations": ("count", "lower",
                                                  "detect.llr_increments.normal"),
    "detect.llr_increments.discrete.observations": ("count", "lower",
                                                    "detect.llr_increments.discrete"),
    "detect.alarms": ("count", "lower", "detect.monitor_step"),
    "cli.read_values.bytes": ("B", "lower", "cli.read_values"),
    "cli.emit.bytes": ("B", "lower", "cli.emit"),
    "cli.state_io.bytes": ("B", "lower", None),
    "ops.unattributed.self_s": ("s", "lower", None),
    "ops.unattributed.share": ("ratio", "lower", None),
    "ops.known_defect_failed": ("count", "lower", None),
    "trace.wall_untraced_s": ("s", "lower", None),
    "trace.wall_traced_s": ("s", "lower", None),
    "trace.overhead_s": ("s", "lower", None),
    "trace.overhead_frac": ("ratio", "lower", None),
}


def layer_names() -> list[str]:
    return [n for layer in LAYERS for n in layer.names if n not in _STRUCTURAL]


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for name in layer_names():
        specs += [(f"{name}.self_s", "s", "lower"), (f"{name}.calls", "count", "lower"),
                  (f"{name}.share", "ratio", "lower")]
    for prefix, _, _ in CACHES:
        specs += [(f"{prefix}.hit_ratio", "ratio", "higher"),
                  (f"{prefix}.lookups", "count", "lower")]
    specs += [(name, unit, better) for name, (unit, better, _) in _EXTRA.items()]
    return specs


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0  # the base is reported beside every ratio


def layer_metrics(tracer: Tracer, counts: Counter, wall: float, untraced: float) -> dict:
    """Per-layer metrics of one traced cycle.

    ``counts`` holds what the runner counted itself (cache lookups, state
    bytes, known-defect failures); ``wall`` and ``untraced`` are the summed
    operation times of the traced cycle and of the same cycle untraced.
    """
    self_s = tracer.self_times()
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
    per_name = np.bincount(name_id, weights=self_s, minlength=len(tracer.names))
    calls = np.bincount(name_id, minlength=len(tracer.names))
    c = tracer.counts + counts
    values: dict[str, float] = {}
    for name in layer_names():
        nid = tracer.names.index(name) if name in tracer.names else None
        s = float(per_name[nid]) if nid is not None else 0.0
        values[f"{name}.self_s"] = s
        values[f"{name}.calls"] = int(calls[nid]) if nid is not None else 0
        values[f"{name}.share"] = _ratio(s, wall)
    for prefix, _, _ in CACHES:
        lookups = c[f"{prefix}.hits"] + c[f"{prefix}.misses"]
        values[f"{prefix}.hit_ratio"] = _ratio(c[f"{prefix}.hits"], lookups)
        values[f"{prefix}.lookups"] = lookups
    unattributed = float(per_name[0])
    values.update({
        "rng.uniform_block.uniforms": c["rng.uniform_block.uniforms"],
        "rng.uniform_block.used_ratio": _ratio(c["rng.uniform_block.used"],
                                               c["rng.uniform_block.uniforms"]),
        "simulate.simulate_cusum.stream_busy_frac": _ratio(
            c["simulate.chunk.busy_s"], c["simulate.simulate_cusum.stream_s"]),
        "ops.unattributed.self_s": unattributed,
        "ops.unattributed.share": _ratio(unattributed, wall),
        "trace.wall_untraced_s": untraced,
        "trace.wall_traced_s": wall,
        "trace.overhead_s": wall - untraced,
        "trace.overhead_frac": _ratio(wall - untraced, untraced),
    })
    for name in _EXTRA:
        values.setdefault(name, c[name])

    cache_prefixes = {prefix for prefix, _ in caches()}
    report = {}
    for name, unit, _ in metric_specs():
        layer = _EXTRA[name][2] if name in _EXTRA else name.rsplit(".", 1)[0]
        gone = layer in tracer.missing or (
            name.endswith((".hit_ratio", ".lookups")) and layer not in cache_prefixes)
        report[name] = ({"value": None, "unit": unit, "missing": True} if gone
                        else {"value": values[name], "unit": unit})
    return report
