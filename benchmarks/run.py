"""pairinglab benchmark: closed-loop workloads with one client each.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S

Run from the repository root; the package is imported from ./src.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
``--workload all`` runs every workload in its own process and prints one
row per workload.  See benchmarks/README.md.
"""

import time

T0 = time.perf_counter()  # set-up time is measured from here

import os

# One BLAS thread: the box has two cores, and a pinned pool keeps dense
# timings comparable between runs.  Must precede the first numpy import.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import scipy

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_OPS = 100  # at least ten latency samples beyond p90
SETUP_SAMPLES = 5  # this process plus four fresh set-up-only processes

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_kref": "1/kref",
    "latency_p50_ref": "ref",
    "latency_p90_ref": "ref",
    "peak_rss_mb": "MB",
}


def import_package():
    """Import pairinglab from ./src of this checkout, never from elsewhere."""
    init = SRC / "pairinglab" / "__init__.py"
    if not init.is_file():
        sys.exit(f"benchmark: {init} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import pairinglab

    if Path(pairinglab.__file__).resolve() != init.resolve():
        sys.exit(f"benchmark: imported pairinglab from {pairinglab.__file__}, not {SRC}")
    return pairinglab


REF_INTERVAL_S = 0.1  # the reference kernel runs at least this far apart
REF_WINDOW_S = 1.0  # an op is scaled by the reference runs this close to it


class Measurement:
    """Per-op latencies, reference-normalised costs and failures of one
    timed phase.

    The host's speed drifts by up to 1.8x over seconds to tens of seconds,
    for Python and LAPACK code alike.  So a reference kernel is timed
    between ops (outside their timing), and an op's cost is its wall time
    divided by the median reference time around it: a count of
    reference-kernel times, from which most of the drift cancels out."""

    def __init__(self, kernel=reference.small_matrices):
        self.kernel = kernel  # the reference kernel
        self.latencies = []  # wall seconds, one per op
        self.ops = []  # (mid time, position in the cycle, latency)
        self.refs = []  # (time, reference-kernel seconds)
        self.failures = []  # (op label, reason)

    @property
    def timed_s(self) -> float:
        return sum(self.latencies)

    def throughput(self) -> float:
        """Wall-clock ops per second, not corrected for drift."""
        return len(self.latencies) / self.timed_s

    def costs(self) -> dict:
        """Position in the cycle -> the op's costs in reference-kernel times.
        An op's cost is its wall time over the median reference time
        within ``REF_WINDOW_S`` of its midpoint."""
        times = np.array([t for t, _ in self.refs])
        refs = np.array([r for _, r in self.refs])
        costs = defaultdict(list)
        for t, i, latency in self.ops:
            lo = np.searchsorted(times, t - REF_WINDOW_S, side="left")
            hi = np.searchsorted(times, t + REF_WINDOW_S, side="right")
            costs[i].append(latency / float(np.median(refs[lo:hi])))
        return costs

    def kops_per_ref(self) -> float:
        """Ops per 1000 reference-kernel times: the cycle's ops over the
        sum of their median costs."""
        costs = self.costs()
        return 1000.0 * len(costs) / sum(statistics.median(c) for c in costs.values())

    def _time_reference(self) -> None:
        start = time.perf_counter()
        self.refs.append((start, reference.seconds(self.kernel)))

    def run_cycle(self, ops, tracer=None) -> None:
        """Run every op once; the check after each op is outside its timing.
        The reference kernel runs before the first op and after each op
        that ends a stretch of ``REF_INTERVAL_S``."""
        self._time_reference()
        for i, op in enumerate(ops):
            start = time.perf_counter()
            try:
                result = tracer.run_op(op.label, op.run) if tracer else op.run()
                reason = None
            except Exception:
                result, reason = None, traceback.format_exc(limit=3)
            latency = time.perf_counter() - start
            if reason is None:
                try:
                    reason = op.check(result)
                except Exception:
                    reason = traceback.format_exc(limit=3)
            if reason:
                self.failures.append((op.label, reason))
            self.latencies.append(latency)
            self.ops.append((start + latency / 2, i, latency))
            if time.perf_counter() - self.refs[-1][0] >= REF_INTERVAL_S:
                self._time_reference()
        self._time_reference()


def measure(ops, seconds: float, min_ops: int, kernel) -> Measurement:
    """Closed loop, one client: whole cycles until ``seconds`` of timed op
    time and at least ``min_ops`` ops."""
    m = Measurement(kernel)
    while not m.latencies or m.timed_s < seconds or len(m.latencies) < min_ops:
        m.run_cycle(ops)
    return m


def measure_traced(ops, seconds: float, kernel):
    """Alternate untraced and traced cycles, ``seconds / 2`` of timed op
    time each; returns (untraced, traced, tracer)."""
    from tracing import Tracer

    plain, traced, tracer = Measurement(kernel), Measurement(kernel), Tracer()
    while not traced.latencies or min(plain.timed_s, traced.timed_s) < seconds / 2:
        plain.run_cycle(ops)
        tracer.install()
        try:
            traced.run_cycle(ops, tracer)
        finally:
            tracer.uninstall()
    return plain, traced, tracer


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def probe_setup(args) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def result_line(failures, attempted: int, metrics: dict) -> str:
    return json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def report_failures(failures) -> None:
    for label, reason in failures[:5]:
        print(f"FAILED {label}: {reason}", file=sys.stderr)


def machine_line() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    pins = " ".join(f"{k}={v}" for k, v in BLAS_PIN.items())
    return (f"# python {sys.version.split()[0]}, numpy {np.__version__}, scipy "
            f"{scipy.__version__}, {blas.get('name')} {blas.get('version')}, "
            f"nproc {os.cpu_count()}, BLAS pinned: {pins}")


def run_workload(args) -> int:
    from workloads import REFERENCE, WORKLOADS

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        ops = WORKLOADS[args.workload](args.seed, workdir)
        ops[0].run()  # warm-up: lazy imports and first LAPACK calls
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            return report_traced(args, ops, REFERENCE[args.workload])
        m = measure(ops, args.seconds, MIN_OPS, REFERENCE[args.workload])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work_root.rmdir()
    setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    n = len(m.latencies)
    costs = [c for cs in m.costs().values() for c in cs]
    refs = [r for _, r in m.refs]
    values = {
        "setup_s": statistics.median(setups),
        "throughput_ops_kref": m.kops_per_ref(),
        "latency_p50_ref": percentile(costs, 50),
        "latency_p90_ref": percentile(costs, 90),
        "peak_rss_mb": peak_rss_mb,
    }
    print(machine_line())
    print(f"{args.workload} seed={args.seed}: " + "  ".join(
        f"{k}={v:.6g} {END_TO_END_UNITS[k]}" for k, v in values.items())
        + f"  samples={n} ({n - int(0.9 * n)} beyond p90)"
        + f"  error_rate={len(m.failures) / n:.6g} ({len(m.failures)}/{n})"
        + f"  setup samples={[round(s, 4) for s in setups]}")
    print(f"# wall clock, not corrected for drift: throughput_ops_s={m.throughput():.6g} 1/s"
          f"  latency_p50_ms={percentile(m.latencies, 50) * 1e3:.6g} ms"
          f"  latency_p90_ms={percentile(m.latencies, 90) * 1e3:.6g} ms"
          f"  reference kernel median={statistics.median(refs) * 1e3:.4g} ms"
          f" (range {min(refs) * 1e3:.4g}-{max(refs) * 1e3:.4g})")
    report_failures(m.failures)
    print(result_line(m.failures, n, {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}))
    return 0 if not m.failures else 1


def report_traced(args, ops, kernel) -> int:
    from tracing import layer_metrics

    plain, traced, tracer = measure_traced(ops, args.seconds, kernel)
    overhead_pct = (plain.kops_per_ref() / traced.kops_per_ref() - 1.0) * 100.0
    metrics = layer_metrics(tracer, overhead_pct)
    runs = Counter(op.label for op in ops)  # executions of each label per cycle
    cycles = tracer.ops // len(ops)
    print(machine_line())
    print(f"# {args.workload} seed={args.seed}: decompositions per op execution, "
          "by outermost library call (computed n3 = batch*m*n*min(m,n)):")
    for (label, entry, fn), (calls, n3) in tracer.decomp_by_op.items():
        k = runs[label] * cycles
        print(f"#   {label:30s} {entry:26s} {fn:8s} calls={calls / k:g} n3={n3 / k:g}")
    print(f"{args.workload} seed={args.seed} traced ops={tracer.ops}: " + "  ".join(
        f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items()))
    failures = plain.failures + traced.failures
    report_failures(failures)
    print(result_line(failures, len(plain.latencies) + len(traced.latencies), metrics))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Every workload in its own process; one row per workload."""
    from workloads import WORKLOADS

    results, ok = {}, True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
        ok = ok and proc.returncode == 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0 if ok else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["verify-sweep", "certify-dense", "cli-roundtrip", "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="timed op seconds to measure (whole cycles, at least 100 ops)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="report set-up time only (used to sample set-up in fresh processes)")
    args = p.parse_args()
    import_package()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
