"""cusumkit benchmark: three workloads, end-to-end rates, a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc_threshold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                 # every workload, each in a fresh process

Each workload (see workloads.py) is a closed loop with one client: the next
operation starts when the previous one returns and its output has been
checked.  The first cycle always completes; after that operations run until
``--seconds`` have passed.  A rate is the work of one cycle divided by the
sum, over its operations, of each operation's median time.  Operation and
set-up times are scaled to a reference host speed (see HostSpeed); the run
description also gives the unscaled rates.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics: ``setup_s`` (median over fresh interpreters of importing cusumkit
and cusumkit.cli and finishing the workload's warm-up operation),
``peak_rss_mib`` of the workload process, and the workload's two rates.
With ``--trace 1`` the first cycle runs twice untraced and then traced; the
last line holds the per-layer metrics of the traced pass (spans.py), with
the tracing overhead.  The line before the last describes the run: failed and
attempted operations, failures in the known overflow region, the rates under
their ROADMAP names, and an environment fingerprint.  Results with different
fingerprint ids come from different machines or backends and must not be
compared.

perfbench/smoke.py is the benchmark's own smoke test.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import program

HERE = Path(__file__).resolve().parent
WORK_ROOT = program.ROOT / ".perfbench_work"
OUT_DIR = program.ROOT / ".perfbench_out"
SETUP_REPS = 5


class HostSpeed:
    """How much slower the host runs now than at its reference speed.

    The benchmark runs on shared machines whose speed drifts by 20-40 % over
    minutes, and swings up to 2x in phases of tens of seconds, as neighbours
    load the same physical cores.  At most every ``EVERY`` seconds this
    times a fixed kernel, a numpy inverse-CDF transform of 200 000 uniforms
    (best of three), against its duration on an unloaded core of a 2-vCPU
    Xeon VM.  Dividing an operation's time by the slowdown measured just
    before it cancels most of the drift.
    """

    EVERY = 0.25
    REFERENCE_S = 0.0035

    def __init__(self):
        import numpy as np
        from scipy.special import ndtri

        self._u = np.random.default_rng(0).random(200_000)
        self._ndtri = ndtri
        self._at = -math.inf
        self.slowdown = 1.0
        self.history: list[float] = []

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        self._ndtri(self._u)
        return time.perf_counter() - t0

    def now(self) -> float:
        if time.perf_counter() - self._at >= self.EVERY:
            self.slowdown = min(self._kernel() for _ in range(3)) / self.REFERENCE_S
            self.history.append(self.slowdown)
            self._at = time.perf_counter()
        return self.slowdown


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    known_defect: int = 0
    failures: list[str] = field(default_factory=list)


class Runner:
    """Runs operations one at a time and checks their outputs."""

    def __init__(self, workloads, spans, corrupt_first: bool = False):
        self.workloads = workloads
        self.caches = spans.caches()
        self.tally = Tally()
        self.corrupt_first = corrupt_first

    def run(self, op, counts: Counter, tracer=None, op_id: int = 0) -> float:
        """Seconds the program took for ``op``; its check outcome is tallied."""
        # a CLI user starts every call with empty caches; collecting now keeps
        # the garbage of earlier checks out of this operation's time
        for _, fn in self.caches:
            fn.cache_clear()
        gc.collect()

        def call():
            try:
                return op.call()
            except Exception as exc:  # the check reports it as a failure
                return exc

        t0 = time.perf_counter()
        outcome = tracer.span_op(op_id, call) if tracer else call()
        seconds = time.perf_counter() - t0
        for prefix, fn in self.caches:
            info = fn.cache_info()
            counts[f"{prefix}.hits"] += info.hits
            counts[f"{prefix}.misses"] += info.misses
        if self.corrupt_first:
            self.corrupt_first = False
            self.workloads.corrupt(outcome)
        self._check(op, outcome)
        return seconds

    def _check(self, op, outcome) -> None:
        self.tally.attempted += 1
        try:
            op.check(outcome)
            return
        except Exception as exc:  # a wrong or unreadable output
            message = f"{op.slot}: {type(exc).__name__}: {exc}"
        if op.overflow and self.workloads.is_typed_error(outcome):
            return  # refusing an overflowing input with a typed error is correct
        if op.overflow:
            self.tally.known_defect += 1
        else:
            self.tally.failed += 1
            if len(self.tally.failures) < 10:
                self.tally.failures.append(message)


def _cycle(workloads, name, ctx, seed, cycle, inputs):
    import numpy as np

    if name == "detect_stream":
        return workloads.detect_stream(ctx, inputs)
    return getattr(workloads, name)(ctx, np.random.default_rng([seed, 1, cycle]))


def _rate(samples, meta, tags) -> float:
    slots = [slot for slot, (rate, _) in meta.items() if rate in tags]
    work = sum(meta[slot][1] for slot in slots)
    return work / sum(statistics.median(samples[slot]) for slot in slots)


def _named_rates(names: dict, samples, meta) -> dict:
    return {name: _rate(samples, meta, tags) for name, tags in names.items()}


def setup_seconds(workload: str, work_dir: Path, reps: int, host: HostSpeed) -> float:
    """Median time for a fresh interpreter to import cusumkit and finish the
    workload's warm-up operation (measured inside the child), at reference
    host speed."""
    times = []
    for _ in range(reps):
        slowdown = host.now()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(work_dir)],
            capture_output=True, text=True, timeout=150, cwd=program.ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed: {proc.stderr.strip()[-800:]}")
        times.append(float(proc.stdout.split()[-1]) / slowdown)
    return statistics.median(times)


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _llc_bytes() -> int | None:
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    best = None
    for index in sorted(cache.glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        units = {"K": 1024, "M": 1024**2, "G": 1024**3}
        nbytes = int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
        if best is None or level > best[0]:
            best = (level, nbytes)
    return best[1] if best else None


def fingerprint(seed: int) -> dict:
    import numpy
    import scipy

    import cusumkit

    kernels = getattr(cusumkit, "_kernels", None)
    machine = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": "numba" if getattr(kernels, "HAVE_NUMBA", False) else "numpy",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "llc_bytes": _llc_bytes(),
        "machine": platform.machine(),
    }
    source = hashlib.sha256()
    for path in sorted(program.PACKAGE.rglob("*.py")):
        source.update(path.relative_to(program.PACKAGE).as_posix().encode())
        source.update(path.read_bytes())
    ident = hashlib.sha256(json.dumps(machine, sort_keys=True).encode()).hexdigest()[:16]
    return {**machine, "id": ident, "git_commit": _git_commit(program.ROOT),
            "source_sha256": source.hexdigest(), "seed": seed}


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
                 setup_reps: int = SETUP_REPS, corrupt_first: bool = False) -> tuple[dict, dict]:
    """Run one workload; return (run description, result object)."""
    import numpy as np

    import spans
    import workloads

    # fixed-width name: outputs echo their paths, and byte counts must repeat
    work_dir = WORK_ROOT / f"{name}-{seed}-{os.getpid():08d}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        ctx = workloads.Context(work_dir, scale)
        runner = Runner(workloads, spans, corrupt_first)
        host = HostSpeed()
        setup = None if trace else setup_seconds(name, work_dir, setup_reps, host)
        inputs = None
        if name == "detect_stream":
            inputs = workloads.prepare_detect(ctx, np.random.default_rng([seed, 0]))
        workloads.warm_up(name, work_dir)
        gc.collect()
        gc.freeze()  # the program's collections skip the harness and its inputs
        counts: Counter = Counter()
        info = {"workload": name, "seed": seed, "trace": int(trace)}
        if trace:
            # the second untraced pass is the reference: the first one pays
            # for first-touch page faults the traced pass no longer sees
            for _ in range(2):
                times, meta = {}, {}
                for op in _cycle(workloads, name, ctx, seed, 0, inputs):
                    times[op.slot] = [runner.run(op, counts)]
                    meta[op.slot] = (op.rate, op.work)
            untraced = sum(t for (t,) in times.values())
            before = runner.tally.known_defect
            counts, ctx.counts = Counter(), Counter()
            with spans.Tracer() as tracer:
                ops = _cycle(workloads, name, ctx, seed, 0, inputs)
                wall = sum(runner.run(op, counts, tracer, i) for i, op in enumerate(ops))
            counts["ops.known_defect_failed"] = runner.tally.known_defect - before
            if any(rate == "parallel2" for rate, _ in meta.values()):
                counts["simulate.simulate_cusum.steps_per_s_2streams"] = _rate(
                    times, meta, ("parallel2",))
            metrics = spans.layer_metrics(tracer, counts + ctx.counts, wall, untraced)
            OUT_DIR.mkdir(exist_ok=True)
            tracer.save(OUT_DIR / f"spans-{name}-seed{seed}.npz")
            info["spans"] = len(tracer.start)
        else:
            samples, raw, meta = defaultdict(list), defaultdict(list), {}
            deadline = time.perf_counter() + seconds
            cycle, done = 0, False
            while not done:
                for op in _cycle(workloads, name, ctx, seed, cycle, inputs):
                    if cycle and time.perf_counter() >= deadline:
                        done = True
                        break
                    slowdown = host.now()
                    took = runner.run(op, counts)
                    samples[op.slot].append(took / slowdown)
                    raw[op.slot].append(took)
                    meta[op.slot] = (op.rate, op.work)
                cycle += 1
                done = done or time.perf_counter() >= deadline
            primary = _rate(samples, meta, ("primary",))
            secondary = _rate(samples, meta, ("secondary",))
            rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": {"value": setup, "unit": "s"},
                "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
                "primary_per_s": {"value": primary, "unit": "1/s"},
                "secondary_per_s": {"value": secondary, "unit": "1/s"},
            }
            info["cycles_started"] = cycle
            info["rates"] = _named_rates(workloads.RATE_NAMES[name], samples, meta)
            info["rates_unscaled"] = _named_rates(workloads.RATE_NAMES[name], raw, meta)
            info["host_slowdown_median"] = statistics.median(host.history)
    finally:
        gc.unfreeze()
        shutil.rmtree(work_dir, ignore_errors=True)
    tally = runner.tally
    info.update({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_ops_frac": {"value": tally.failed / tally.attempted, "base": tally.attempted},
        "known_defect_failed": tally.known_defect,
        "failures": tally.failures,
        "fingerprint": fingerprint(seed),
    })
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return info, result


def main(argv=None) -> int:
    program.load()  # exits non-zero when the sources are missing
    import workloads

    parser = argparse.ArgumentParser(description="cusumkit benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="one workload; all of them, each in a fresh process, if omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload is None:
        code = 0
        for name in workloads.WORKLOADS:
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", name, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds), "--trace", str(args.trace)])
            code = code or proc.returncode
        return code

    info, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in info["failures"]:
        print(f"perfbench: failed {failure}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
