#!/usr/bin/env python3
"""Time a set of bench_kernels rows against another revision.

Run from the repository root as

    PYTHONPATH=src python benchmarks/ab_rows.py REV CASES [ROUNDS] > ab.json

CASES is `series` (the series-path rows of `series_cases`), `algebra`
(normalize and parse, `algebra_cases`), `grid_eval` (sample and
evaluate_grid, `grid_eval_cases`), `grid_io` (the export and load rows
of `grid_io_cases`), `cold` (cold state builds, `cold_cases`) or `kernel`
(star products and images on the group kernel, `kernel_cases`).  It
extracts src/starkit of the git revision
REV into a temporary directory, imports it as the package
`starkit_parent` next to the working tree's `starkit`, and builds the
rows once from each.  Every round (21 by default) times every row on both
sides in one process: one warm-up call per side, then 7 calls per side
with the two sides' calls alternating; the side that goes first
alternates by round.  A sample is the median of a side's 7 calls, in ms.
Per row it prints, as JSON, both sides' samples with their median and
quartile spread, the rounds the working tree wins, the ratio of the
medians and the median of the per-round ratios.  The series oracle row's
DivergenceWarning is silenced (N = 12 is a timing input).
"""

import importlib
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import warnings
from pathlib import Path

import starkit
from bench_kernels import (algebra_cases, cold_cases, grid_eval_cases,
                           grid_io_cases, kernel_cases, series_cases)

CASES = {"series": lambda pkg, directory: series_cases(pkg),
         "algebra": lambda pkg, directory: algebra_cases(pkg),
         "grid_eval": lambda pkg, directory: grid_eval_cases(pkg),
         "grid_io": grid_io_cases,
         "cold": lambda pkg, directory: cold_cases(pkg),
         "kernel": lambda pkg, directory: kernel_cases(pkg)}

CALLS = 7


def import_revision(rev, into):
    """Import src/starkit of the git revision rev as starkit_parent."""
    tar = subprocess.run(["git", "archive", rev, "src/starkit"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    (Path(into) / "src" / "starkit").rename(Path(into) / "starkit_parent")
    sys.path.insert(0, str(into))
    return importlib.import_module("starkit_parent")


def sample_pair(calls):
    """Median ms of each call over CALLS calls, the calls alternating."""
    for call in calls:
        call()  # warm-up
    times = [[] for _ in calls]
    for _ in range(CALLS):
        for k, call in enumerate(calls):
            t0 = time.perf_counter()
            call()
            times[k].append(time.perf_counter() - t0)
    return [round(statistics.median(t) * 1e3, 4) for t in times]


def spread(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": round(statistics.median(xs), 4), "min": min(xs),
            "iqr": round(q[2] - q[0], 4), "runs": xs, "repeats": len(xs)}


def main(rev, cases, rounds=21):
    with tempfile.TemporaryDirectory() as tmp:
        parent = import_revision(rev, tmp)
        for pkg in (parent, starkit):
            warnings.simplefilter("ignore", pkg.errors.DivergenceWarning)
        run(rev, rounds, {"parent": CASES[cases](parent, tmp),
                          "change": CASES[cases](starkit, tmp)})


def run(rev, rounds, cases):
    labels = [label for label, _ in cases["change"]]
    assert labels == [label for label, _ in cases["parent"]]
    runs = {label: {"parent": [], "change": []} for label in labels}
    first = []
    for r in range(rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for i, label in enumerate(labels):
            ms = sample_pair([cases[side][i][1] for side in order])
            for side, x in zip(order, ms):
                runs[label][side].append(x)
        print("round", r, file=sys.stderr, flush=True)
    rows = {}
    for label in labels:
        p, c = runs[label]["parent"], runs[label]["change"]
        rows[label + " (ms)"] = {
            "better": "lower", "parent": spread(p), "change": spread(c),
            "change_wins": f"{sum(b < a for a, b in zip(p, c))} of "
                           f"{rounds} rounds",
            "median_ratio_change_over_parent":
                round(statistics.median(c) / statistics.median(p), 3),
            "paired_ratio_median":
                round(statistics.median(b / a for a, b in zip(p, c)), 3)}
    json.dump({"parent": rev, "rounds": rounds, "calls_per_sample": CALLS,
               "first_in_round": first, "rows": rows}, sys.stdout, indent=1)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], *(int(a) for a in sys.argv[3:4]))
