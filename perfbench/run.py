"""Layered benchmark of etale-forge.

    python3 perfbench/run.py --workload reproduce|certify|cli|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` it measures the workload for at least S seconds of whole
rounds and prints the end-to-end metrics.  With ``--trace 1`` it runs one
untraced and two traced passes over one round and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when any output was wrong, and 2 when the package cannot be found.
perfbench/README.md lists every metric and the end-to-end metric each
per-layer metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("reproduce", "certify", "cli")
# set-up is timed in this process and in fresh child processes: at least
# five samples, and up to nine while they take under three seconds in all
SETUP_SAMPLES = (5, 9, 3.0)


# per-workload names of the end-to-end metrics, as changes quote them
WORKLOAD_NAMES = {
    "reproduce": {"reproduce_s": ("op_p50_ms", 1e-3, "s")},
    "certify": {"certify_per_s": ("ops_per_s", 1, "1/s"),
                "certify_p50_ms": ("op_p50_ms", 1, "ms"),
                "certify_p90_ms": ("op_p90_ms", 1, "ms")},
    "cli": {"cli_call_p50_ms": ("op_p50_ms", 1, "ms"),
            "cli_call_p90_ms": ("op_p90_ms", 1, "ms"),
            "cli_calls_per_s": ("ops_per_s", 1, "1/s")},
}


def _timed_setup(workload: str, seed: int, workdir: Path):
    """Fresh-process import of the package plus input generation."""
    start = time.perf_counter()
    import etale_forge.cli  # noqa: F401  imports every module of the package
    imported = time.perf_counter()
    from workloads import SETUPS
    ops = SETUPS[workload](seed, workdir)
    return ops, time.perf_counter() - start, imported - start


def _child_setup_seconds(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _run_op(op, errors: list[str]) -> float:
    """Run and check one operation; returns the seconds the run took."""
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as err:  # a crash is a failed operation
        errors.append(f"{op.label}: {type(err).__name__}: {err}")
        return time.perf_counter() - start
    elapsed = time.perf_counter() - start
    problem = op.check(out)
    if problem:
        errors.append(f"{op.label}: {problem}")
    return elapsed


def measure(ops, seconds: float, rng: random.Random):
    """Whole rounds, each in a fresh seeded order, until `seconds` passed."""
    latencies: list[float] = []
    errors: list[str] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        order = list(ops)
        rng.shuffle(order)
        latencies.extend(_run_op(op, errors) for op in order)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            return latencies, errors, rounds


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(workload, ops, seconds, rng, setup_s, units):
    latencies, errors, rounds = measure(ops, seconds, rng)
    ms = sorted(x * 1e3 for x in latencies)
    metrics = {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[-1],
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "peak_rss_mb": _peak_rss_mb(workload),
    }
    print(f"workload {workload}: {len(ms)} operations in {rounds} rounds, "
          f"{len(errors)} failed")
    for name, (key, scale, unit) in WORKLOAD_NAMES[workload].items():
        print(f"  {name:18s} {metrics[key] * scale:12.4f} {unit}")
    print(f"  {'failed_share':18s} {len(errors) / len(ms):12.4f} share")
    for name, value in metrics.items():
        print(f"  {name:18s} {value:12.4f} {units[name]}")
    return metrics, len(ms), errors


def _pass(ops, errors, tracer=None) -> float:
    """One pass over ops in their given order; returns its wall seconds."""
    start = time.perf_counter()
    for op in ops:
        with tracer.span("op") if tracer else contextlib.nullcontext():
            _run_op(op, errors)
    return time.perf_counter() - start


def traced(workload, ops, seed, import_s, workdir, names):
    """Untraced pass, then two traced passes over one round; the per-layer
    metrics come from the first traced pass, and the second must repeat
    its counts exactly."""
    from tracing import Tracer
    import layers

    errors: list[str] = []
    if workload == "reproduce":
        ops = ops[:1]
    if workload == "cli":
        # each child runs one command through trace_cli.py and appends its
        # timings (and, traced, its counts and spans) to a JSON-lines file
        from workloads import cli_setup, child_env
        passes = []
        for trace_flag in ("0", "1", "1"):
            out_file = workdir / f"cli-trace-{len(passes)}.jsonl"
            prefix = [sys.executable, str(HERE / "trace_cli.py"), str(out_file), trace_flag]
            wall = _pass(cli_setup(seed, workdir, prefix=prefix, env=child_env()), errors)
            passes.append((wall, [json.loads(line)
                                  for line in out_file.read_text().splitlines()]))
        (untraced_wall, untraced), (traced_wall, traced_a), (_, traced_b) = passes
        counts_a, layer_a = layers.merge(traced_a)
        counts_b, _ = layers.merge(traced_b)
        extra = layers.cli_metrics(untraced, untraced_wall)
        dump = {"counts": counts_a, "layers": layer_a, "processes": traced_a}
    else:
        untraced_wall = _pass(ops, errors)
        tracers = []
        walls = []
        for _ in range(2):
            tracer = Tracer()
            tracer.install()
            try:
                walls.append(_pass(ops, errors, tracer))
            finally:
                tracer.uninstall()
            tracers.append(tracer)
        dump = tracers[0].record()
        counts_a, layer_a = dump["counts"], dump["layers"]
        counts_b = tracers[1].counts
        traced_wall = walls[0]
        extra = {"cli.import_ms": import_s * 1e3, "cli.run_ms": 0.0,
                 "cli.startup_share": 0.0}
    (OUT / f"trace-{workload}-seed{seed}.json").write_text(
        json.dumps({"workload": workload, "seed": seed, **dump}))

    from kernels import kernel_timings
    metrics = layers.from_trace(names, counts_a, layer_a)
    metrics.update(extra)
    metrics.update(kernel_timings())
    mismatched = sorted(k for k in counts_a if counts_a[k] != counts_b.get(k))
    metrics["trace.count_mismatches"] = len(mismatched)
    metrics["trace.overhead_share"] = traced_wall / untraced_wall - 1
    print(f"workload {workload} traced: {3 * len(ops)} operations, {len(errors)} failed")
    print(f"  tracing overhead {metrics['trace.overhead_share']:.3f} "
          f"(traced {traced_wall:.3f} s vs untraced {untraced_wall:.3f} s)")
    if mismatched:
        print(f"  counts differ between the two traced passes: {mismatched}")
    layers.print_table(layer_a)
    return metrics, 3 * len(ops), errors


def run_all(args) -> int:
    """Every workload in its own fresh process, one after the other."""
    total, failed, correct, metrics = 0, 0, True, {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if not lines:
            return 2
        result = json.loads(lines[-1])
        total += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"] and proc.returncode == 0
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": total, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "etale_forge" / "__init__.py").is_file():
        print(f"error: no etale_forge package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        ops, setup_main, import_s = _timed_setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(setup_main)
            return 0
        rng = random.Random(args.seed)
        if args.trace:
            metrics, attempted, errors = traced(args.workload, ops, args.seed,
                                                import_s, workdir, units)
        else:
            fewest, most, budget_s = SETUP_SAMPLES
            setups = [setup_main]
            while len(setups) < fewest or (len(setups) < most and sum(setups) < budget_s):
                setups.append(_child_setup_seconds(args.workload, args.seed))
            metrics, attempted, errors = end_to_end(
                args.workload, ops, args.seconds, rng, statistics.median(setups), units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in errors[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": len(errors),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
