#!/usr/bin/env python3
"""starkit benchmark: one seeded workload, measured in-process.

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program is imported from `src/` of the
same checkout.  `--trace 0` measures the end-to-end metrics with tracing
off; `--trace 1` measures half the budget untraced, replays the same
rounds with every public starkit function wrapped, and reports the
per-layer metrics.  The metric lists and units come from BENCHMARK.json.
The last line of standard output is the result object; the lines above
it are a readable report (environment, failure ratio, worst check ratio,
tail latency).  Traces and full results go to `.perfbench-out/`.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5

# Times a cold import of the package in a fresh interpreter.
IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import starkit, starkit.cli, starkit.verify\n"
    "print(time.perf_counter() - t0)\n")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_starkit():
    """Import the checkout's starkit; refuse any other copy."""
    if not os.path.isfile(os.path.join(SRC, "starkit", "__init__.py")):
        raise SystemExit(f"perfbench: no starkit sources under {SRC}")
    sys.path.insert(0, SRC)
    sk = importlib.import_module("starkit")
    for name in ("cli", "errors", "verify"):
        importlib.import_module(f"starkit.{name}")
    if not os.path.abspath(sk.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported starkit from {sk.__file__}")
    return sk


def import_seconds():
    """Median import time of the package over fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                              capture_output=True, text=True, check=True,
                              timeout=120)
        times.append(float(proc.stdout))
    return statistics.median(times)


def environment(sk, seed):
    import numpy as np

    def cache_sizes():
        sizes = {}
        base = "/sys/devices/system/cpu/cpu0/cache"
        try:
            for entry in sorted(os.listdir(base)):
                with open(os.path.join(base, entry, "level")) as fh:
                    level = fh.read().strip()
                with open(os.path.join(base, entry, "type")) as fh:
                    kind = fh.read().strip()
                with open(os.path.join(base, entry, "size")) as fh:
                    size = fh.read().strip()
                if kind != "Instruction":
                    sizes[f"L{level}"] = size
        except OSError:
            pass
        return sizes

    def cpu_model():
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    caches = cache_sizes()
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "numba_available": sk._accel.NUMBA_AVAILABLE,
        "use_numba": sk._accel.USE_NUMBA,
        "seed": seed,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec = load_spec()
    sk = import_starkit()
    import_s = import_seconds()

    import harness
    import tracing
    from workloads import registry

    workloads = registry()
    if args.workload not in workloads:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choices: {', '.join(workloads)}")
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    try:
        workload = workloads[args.workload](sk, args.seed, workdir)
        reps = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.prepare()
            reps.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(reps)

        budget = args.seconds / 2 if args.trace else args.seconds
        phase = harness.measure(workload, budget)
        summary = harness.summarize(phase)
        summary["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

        if args.trace:
            workload.prepare()
            tracer = tracing.Tracer(sk)
            traced_s = harness.replay(workload, phase.rounds, tracer)
            metrics = tracing.layer_metrics(
                tracer, spec["per_layer"], traced_s / phase.op_seconds)
            tracer.save(os.path.join(OUT, f"trace-{args.workload}.npz"))
        else:
            values = dict(summary, setup_s=setup_s)
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(sk, args.seed)
    correct = not summary["unexplained"]
    report(args, env, summary, setup_s, reps, import_s, phase)
    result = {"correct": correct, "attempted": summary["attempted"],
              "failed": summary["failed"], "metrics": metrics}
    record = dict(result, environment=env, workload=args.workload,
                  trace=args.trace, seconds=args.seconds,
                  fail_ratio=summary["fail_ratio"],
                  worst_check_ratio=summary["worst_check_ratio"],
                  known_defects=summary["known_defects"],
                  unexplained=summary["unexplained"],
                  setup_repeats_s=reps, import_s=import_s,
                  wall_s=phase.wall_s,
                  latencies_s=[s.seconds for s in phase.samples],
                  check_s=[s.check_s for s in phase.samples],
                  kinds=[s.kind for s in phase.samples])
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


def report(args, env, summary, setup_s, reps, import_s, phase):
    env_text = " ".join(f"{k}={v}" for k, v in env.items())
    print(f"perfbench {args.workload}: {env_text}")
    print(f"  setup_s           = {setup_s:.4f} s (median import {import_s:.4f} s"
          f" + median of {len(reps)} set-ups)")
    print(f"  ops_per_s         = {summary['ops_per_s']:.4f} 1/s "
          f"({summary['attempted']} ops in {len(phase.rounds)} rounds, "
          f"{phase.op_seconds:.3f} s of op time)")
    print(f"  peak_rss_mb       = {summary['peak_rss_mb']:.4f} MB")
    print(f"  op_p50_ms         = {summary['op_p50_ms']:.4f} ms")
    q, value, n = summary["tail"]
    if q is None:
        print(f"  op tail           = none ({n} samples; no percentile has "
              f"10 beyond it)")
    else:
        print(f"  op_p{q:g}_ms".ljust(20) + f"= {1e3 * value:.4f} ms ({n} samples)")
    print(f"  fail_ratio        = {summary['fail_ratio']:.4f} ratio "
          f"({summary['failed']}/{summary['attempted']}; known defects: "
          f"{', '.join(summary['known_defects']) or 'none'})")
    print(f"  worst_check_ratio = {summary['worst_check_ratio']:.4g} ratio")
    for line in summary["unexplained"]:
        print(f"  UNEXPLAINED FAILURE {line}")


if __name__ == "__main__":
    sys.exit(main())
