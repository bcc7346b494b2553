"""Certify benchmark for the zccs package.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ./src, never
from an installed copy, and the run fails with exit code 2 when ./src is
missing.  One process, one thread, closed loop: the next operation starts
only after the previous one is certified.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from spans import NullTracer, Tracer, self_times
from workloads import WORKLOADS, Runner

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
# The host's speed drifts over seconds, so set-up is repeated between the
# timed passes, until it has had SETUP_SHARE of their wall time, and its
# median is taken over the whole run like the passes' rate.
SETUP_SHARE = 0.08
SETUP_MIN_REPEATS = 5
P90_MIN_TAIL = 10  # samples that must lie beyond p90 before it is reported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
LAYERS = ("graphs", "constructions", "correlation", "oracle", "io", "cli", "bench")


class PackageMissing(Exception):
    pass


def load_package():
    """Import zccs and zccs.cli afresh from ./src; set-up time includes this."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "zccs" or n.startswith("zccs.")]:
        del sys.modules[name]
    pkg = importlib.import_module("zccs")
    if Path(pkg.__file__).resolve().parent != (SRC / "zccs").resolve():
        raise PackageMissing(f"zccs imported from {pkg.__file__}, not from {SRC}")
    return pkg, importlib.import_module("zccs.cli")


def set_up(args, workdir: Path, tracer, times: list):
    """Import the package and build the workload's inputs; append the time taken."""
    t0 = time.perf_counter()
    pkg, cli = load_package()
    workload = WORKLOADS[args.workload](pkg, tracer, random.Random(args.seed), workdir)
    times.append(time.perf_counter() - t0)
    return pkg, cli, workload


def run_pass(ops, runner, failures: list, samples: dict) -> float:
    """Run each operation once; latencies go to samples[id(op)]."""
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        reason = runner.run(op)
        samples[id(op)].append(time.perf_counter() - t0)
        if reason is not None:
            failures.append((op.label, reason))
    return time.perf_counter() - start


def best_of_passes(samples: dict) -> list[float]:
    """Each operation's fastest pass: its latency with co-tenant bursts filtered."""
    return [min(v) for v in samples.values()]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, pkg, cli, workload, workdir, setup_times) -> tuple[dict, list, int]:
    runner = Runner(pkg, cli, NullTracer(), workdir)
    failures: list = []
    samples: dict[int, list[float]] = defaultdict(list)
    wall = last = 0.0
    passes = 0
    while passes == 0 or wall + last <= args.seconds:
        last = run_pass(workload.ops, runner, failures, samples)
        wall += last
        passes += 1
        while sum(setup_times[1:]) < SETUP_SHARE * wall:  # the first one also imports numpy
            set_up(args, workdir, NullTracer(), setup_times)
    while len(setup_times) < SETUP_MIN_REPEATS:
        set_up(args, workdir, NullTracer(), setup_times)
    best = best_of_passes(samples)
    latencies = [x for v in samples.values() for x in v]
    attempted = len(latencies)
    sets_per_s = attempted / wall
    p50 = statistics.median_low(best)  # a measured value, never a mean across a cost gap
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    setup_s = statistics.median(setup_times)

    print(f"sets_per_s    {sets_per_s:.4f} 1/s  ({attempted} operations in {passes} passes of "
          f"{len(best)} over {wall:.2f} s; one client, closed loop)")
    print(f"set_p50_s     {p50:.5f} s  (lower median of {len(best)} per-operation bests; "
          f"all {attempted} samples: {statistics.median(latencies):.5f} s)")
    p90 = statistics.quantiles(latencies, n=10)[-1] if attempted >= 2 else latencies[0]
    tail = sum(1 for x in latencies if x > p90)
    if tail >= P90_MIN_TAIL:
        print(f"set_p90_s     {p90:.5f} s  (all {attempted} samples, {tail} beyond p90)")
    else:
        print(f"set_p90_s     omitted: {attempted} samples, {tail} beyond p90, "
              f"needs {P90_MIN_TAIL}")
    print(f"peak_rss_mb   {rss_mb:.2f} MB")
    print(f"fail_rate     {len(failures)}/{attempted} = {len(failures) / attempted:.6f}")
    q1, _, q3 = statistics.quantiles(setup_times, n=4)
    print(f"setup_s       {setup_s:.5f} s  (median of {len(setup_times)} set-ups between the passes, "
          f"quartiles {q1:.5f}-{q3:.5f} s, first {setup_times[0]:.5f} s)")
    metrics = {
        "sets_per_s": metric(sets_per_s, "1/s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "setup_s": metric(setup_s, "s"),
    }
    return metrics, failures, attempted


def per_layer(args, pkg, cli, workload, workdir, tracer) -> tuple[dict, list, int]:
    """Untraced and traced passes over the same operations, alternating,
    then one pass that measures verify's peak allocation.  The tracer holds
    the spans of the set-up on entry."""
    enumerate_s = self_times(tracer.spans).get("graphs.enumerate", 0.0)
    ops = workload.ops
    runners = {False: Runner(pkg, cli, NullTracer(), workdir), True: Runner(pkg, cli, tracer, workdir)}
    samples: dict[bool, dict] = {False: defaultdict(list), True: defaultdict(list)}
    failures: list = []
    busy: dict[str, float] = defaultdict(float)
    traced_walls = []
    elapsed = wall = 0.0
    passes = 0
    while passes < 2 or elapsed + wall <= args.seconds:
        with_trace = passes % 2 == 1
        if with_trace:
            runners[True].counts.clear()
            mark = len(tracer.spans)
        wall = run_pass(ops, runners[with_trace], failures, samples[with_trace])
        elapsed += wall
        if with_trace:
            traced_walls.append(wall)
            for name, seconds in self_times(tracer.spans[mark:], mark).items():
                busy[name] += seconds
        passes += 1
    attempted = sum(len(v) for side in samples.values() for v in side.values())
    busy = {name: seconds / len(traced_walls) for name, seconds in busy.items()}
    counts = runners[True].counts
    peak_mb = max(runners[False].verify_peak_bytes(op) for op in ops) / 1e6
    pass_s = statistics.mean(traced_walls)
    overhead = sum(best_of_passes(samples[True])) / sum(best_of_passes(samples[False])) - 1

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    generate_s = busy.get("constructions.generate", 0.0)
    verify_s = busy.get("correlation.verify", 0.0)
    io_s = busy.get("io.dump", 0.0) + busy.get("io.load", 0.0)
    m = {
        "graphs.params_s": metric(busy.get("graphs.params", 0.0), "s"),
        "graphs.enumerate_s": metric(enumerate_s, "s"),
        "graphs.calls": metric(counts["graphs.calls"], "count"),
        "constructions.generate_s": metric(generate_s, "s"),
        "constructions.phases": metric(counts["constructions.phases"], "count"),
        "constructions.phases_per_s": metric(rate(counts["constructions.phases"], generate_s), "1/s"),
        "correlation.verify_s": metric(verify_s, "s"),
        "correlation.pairs": metric(counts["correlation.pairs"], "count"),
        "correlation.shifts": metric(counts["correlation.shifts"], "count"),
        "correlation.direct_macs": metric(counts["correlation.direct_macs"], "count"),
        "correlation.macs_per_s": metric(rate(counts["correlation.direct_macs"], verify_s), "1/s"),
        "correlation.violations": metric(counts["correlation.violations"], "count"),
        "correlation.peak_mb": metric(peak_mb, "MB"),
        "oracle.regen_s": metric(busy.get("oracle.regen", 0.0), "s"),
        "oracle.compare_s": metric(busy.get("oracle.compare", 0.0), "s"),
        "oracle.points": metric(counts["oracle.points"], "count"),
        "io.dump_s": metric(busy.get("io.dump", 0.0), "s"),
        "io.load_s": metric(busy.get("io.load", 0.0), "s"),
        "io.bytes": metric(counts["io.bytes"], "count"),
        "io.mb_per_s": metric(rate(counts["io.bytes"] / 1e6, io_s), "MB/s"),
        "cli.verify_s": metric(busy.get("cli.verify", 0.0), "s"),
        "cli.calls": metric(counts["cli.calls"], "count"),
        "cli.exit_mismatches": metric(counts["cli.exit_mismatches"], "count"),
        "bench.check_s": metric(busy.get("op", 0.0), "s"),
        "trace.pass_s": metric(pass_s, "s"),
        "trace.overhead_frac": metric(overhead, "frac"),
    }
    layer_busy: dict[str, float] = defaultdict(float)
    for name, seconds in busy.items():
        layer_busy["bench" if name == "op" else name.split(".")[0]] += seconds
    for layer in LAYERS:
        m[f"{layer}.share"] = metric(layer_busy[layer] / pass_s, "frac")

    print(f"per pass of {len(ops)} operations: {len(traced_walls)} traced and "
          f"{passes - len(traced_walls)} untraced passes; self times from spans outside the package")
    print("counts are computed from set shapes, except violations, bytes and exit mismatches")
    for name, value in m.items():
        print(f"{name:28s} {value['value']:.6g} {value['unit']}")
    return m, failures, attempted


def check_probes(runner, probes) -> int:
    """Check each known-defect file once; return how many still read wrong.

    Probes are not operations: they are neither timed nor counted in
    attempted or failed, and the run reports them on their own lines.
    """
    mismatches = 0
    for op in probes:
        reason = runner.run(op)
        if reason is None:
            print(f"probe {op.label}: verifies as expected, the known defect is fixed")
        else:
            mismatches += 1
            print(f"probe {op.label}: known defect, not a failed operation: {reason}")
    return mismatches


def source_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "zccs" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'zccs'}", file=sys.stderr)
        return 2
    cap = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(cap)

    workdir = WORK_ROOT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else NullTracer()
    try:
        setup_times: list[float] = []
        pkg, cli, workload = set_up(args, workdir, tracer, setup_times)

        facts = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": cap,
            "thread_cap": cap,
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "src_lines": source_lines(),
        }
        print("run facts " + json.dumps(facts))
        probe_mismatches = check_probes(Runner(pkg, cli, NullTracer(), workdir), workload.probes)
        if args.trace:
            metrics, failures, attempted = per_layer(args, pkg, cli, workload, workdir, tracer)
            metrics["cli.probe_mismatches"] = metric(probe_mismatches, "count")
            spans_path = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps([s._asdict() for s in tracer.spans]), encoding="utf-8")
            print(f"spans written to {spans_path.relative_to(ROOT)}")
        else:
            metrics, failures, attempted = end_to_end(args, pkg, cli, workload, workdir, setup_times)
    except PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for label, reason in failures[:5]:
        print(f"failed: {label}: {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
