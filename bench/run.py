#!/usr/bin/env python3
"""Benchmark for splr: fit, penalty-path and study wall time, with per-layer spans.

Run from the repository root:

    python3 bench/run.py --workload fit-large --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 10          # every workload

One process runs one workload as a closed loop with one caller: operations
run back to back until ``--seconds`` have passed (at least one).  BLAS uses a
fixed thread count, ``min(2, nproc)``.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Every run also writes its provenance, metrics and check
failures to ``bench/out/``; a traced run writes its spans there too.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
NAMES = ("fit-large", "fit-corruptions", "study-imputation")
SETUP_REPEATS = 3
BLAS_THREADS_MAX = 2
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def blas_runtime_threads():
    """Thread count the loaded OpenBLAS reports, or None where it cannot be read."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for line in maps.splitlines():
        path = line.split()[-1]
        if "openblas" in Path(path).name.lower():
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    return int(fn())
    return None


def provenance(threads):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": threads,
        "blas_threads_runtime": blas_runtime_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


class Op:
    """One timed operation; the result is dropped once it has been checked."""

    def __init__(self, inputs, record, spans):
        self.inputs, self.record, self.spans = inputs, record, spans
        self.result = None
        self.error = None
        self.wall = self.cpu = 0.0


class Checker:
    """Checks each operation as it finishes, and each round as it ends,
    outside the timed region; keeps the first finished operation for the
    self-test and drops the others' results once their round is checked."""

    def __init__(self, workload, inputs):
        self.workload, self.inputs = workload, inputs
        self.failures = []
        self.first = None
        self._reference = None

    def reference(self):
        if self._reference is None:
            self._reference = (self.workload.reference(self.inputs),)
        return self._reference[0]

    def __call__(self, op):
        if op.error is not None:
            return
        self.failures += self.workload.check(op.inputs, op.result, op.record,
                                             self.reference())
        if self.first is None:
            self.first = op

    def end_round(self, ops):
        if all(op.error is None for op in ops):
            self.failures += self.workload.check_round([op.result for op in ops])
        for op in ops:
            if op is not self.first:
                op.inputs = op.result = op.record = None

    def selftest(self):
        op = self.first
        if op is not None:
            self.failures += self.workload.selftest(op.inputs, op.result, op.record,
                                                    self.reference())


def run_op(workload, inputs, traced):
    import spans
    import workloads

    op_inputs = workloads.fresh(inputs)
    record = spans.Recorder()
    tracer = spans.Tracer() if traced else None
    op = Op(op_inputs, record, tracer.spans if traced else None)
    installers = [record.install] + ([tracer.install] if traced else [])
    with spans.patched(*installers):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            op.result = workload.operation(op_inputs)
        except Exception:  # a failed operation is counted, not fatal
            op.error = traceback.format_exc()
        op.wall = time.perf_counter() - wall0
        op.cpu = time.process_time() - cpu0
    return op


def run_ops(workload, inputs, seconds, traced, check):
    """Whole rounds of operations back to back until their wall time reaches
    ``seconds``; at least one round."""
    ops = []
    measured = 0.0
    while not ops or measured < seconds:
        round_ops = []
        for _ in range(workload.ops_per_round):
            op = run_op(workload, inputs, traced)
            measured += op.wall
            check(op)
            round_ops.append(op)
        check.end_round(round_ops)
        ops += round_ops
    return ops


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import splr, splr.experiments; "
    "print(time.perf_counter() - t)"
)


def timed_import():
    """Seconds a fresh interpreter takes to import splr (numpy and scipy with it)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def run_one(args):
    threads = max(1, min(BLAS_THREADS_MAX, nproc()))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    if not (ROOT / "src" / "splr" / "__init__.py").is_file():
        print(f"no splr sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import splr
    import splr.experiments  # noqa: F401  (not imported by the package itself)
    if Path(splr.__file__).resolve().parent != ROOT / "src" / "splr":
        print(f"imported splr from {splr.__file__}, not this checkout", file=sys.stderr)
        return 2

    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    imports = [timed_import() for _ in range(SETUP_REPEATS)]
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.build(args.seed)
        builds.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(builds)

    check = Checker(workload, inputs)
    untraced = run_ops(workload, inputs, args.seconds, False, check)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = run_ops(workload, inputs, args.seconds, True, check) if args.trace else []
    check.selftest()
    failures = check.failures
    ops = untraced + traced
    for op in ops:
        if op.error is not None:
            print(op.error, file=sys.stderr)
    for line in failures:
        print(f"CHECK FAILED: {line}", file=sys.stderr)

    done = [op for op in untraced if op.error is None]
    wall_s = statistics.median(op.wall for op in done) if done else float("nan")
    if args.trace:
        per_op = [spans.layer_metrics(op.spans, op.wall) for op in traced if op.error is None]
        metrics = {}
        for name, unit in spans.LAYER_METRICS:
            values = [m[name] for m in per_op] or [float("nan")]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        traced_wall = statistics.median(op.wall for op in traced if op.error is None) \
            if per_op else float("nan")
        metrics["trace.wall_s"]["value"] = traced_wall
        metrics["trace.untraced_wall_s"]["value"] = wall_s
        metrics["trace.overhead_s"]["value"] = traced_wall - wall_s
    else:
        values = {
            "wall_s": wall_s,
            "cpu_s": statistics.median(op.cpu for op in done) if done else float("nan"),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": sum(op.error is not None for op in ops),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(threads),
        "setup": {"import_s": imports, "build_s": builds},
        "ops": [{"wall_s": op.wall, "cpu_s": op.cpu, "traced": op in traced,
                 "failed": op.error is not None} for op in ops],
        "check_failures": failures, **result,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(
            [op.spans for op in traced], separators=(",", ":")))
    print("provenance " + json.dumps(record["provenance"]))
    for name, entry in metrics.items():
        print(f"{args.workload} {name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process; one table of every metric with its unit."""
    worst = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode} and no result")
            worst = 1
            continue
        result = json.loads(lines[-1])
        ok = result["correct"] and result["failed"] == 0
        worst = worst or (0 if ok else 1)
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:34s} {entry['value']:12.6g} {entry['unit']}")
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
