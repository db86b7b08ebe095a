"""Ops, rounds and the closed measuring loop shared by every workload.

One client drives the program in-process: the next op starts when the
previous one returns.  Each op is timed on its own; its output check runs
after the timer stops.  Work is sent in whole rounds, each round holding
the same op kinds with freshly seeded parameters, so a run's op mix does
not depend on where the time budget happens to end.
"""

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np


@dataclass
class Op:
    """One request to the program.

    `run` does the work and returns its output.  `check(output)` returns
    `(ratio, defect)`: ratio is residual / pinned tolerance (the op passes
    when ratio <= 1); defect names the documented program defect that
    explains a failure, or is "" when none does.
    """

    kind: str
    inputs: tuple
    run: Callable[[], Any]
    check: Callable[[Any], tuple]
    span: str = ""

    def span_name(self):
        return self.span or f"op.{self.kind}"


@dataclass
class Sample:
    kind: str
    seconds: float
    ratio: float = math.nan
    error: str = ""
    defect: str = ""
    check_s: float = 0.0

    @property
    def passed(self):
        return not self.error and self.ratio <= 1.0


def execute(op):
    """Run one op, timing only `op.run`, then check its output."""
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a failed op is recorded, the loop goes on
        return Sample(op.kind, time.perf_counter() - t0,
                      error=f"{type(exc).__name__}: {exc}")
    t1 = time.perf_counter()
    try:
        ratio, defect = op.check(out)
    except Exception as exc:
        return Sample(op.kind, t1 - t0,
                      error=f"check raised {type(exc).__name__}: {exc}")
    sample = Sample(op.kind, t1 - t0, float(ratio),
                    check_s=time.perf_counter() - t1)
    if not sample.passed:
        sample.defect = defect
    return sample


@dataclass
class Phase:
    """Outcome of a measured phase: its samples and the rounds it ran."""

    samples: list = field(default_factory=list)
    rounds: list = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def op_seconds(self):
        return sum(s.seconds for s in self.samples)


def measure(workload, budget_s):
    """Run whole rounds, at least `workload.min_rounds`, until the next one
    would overrun `budget_s`."""
    phase = Phase()
    start = time.perf_counter()
    index = 0
    while True:
        ops = workload.round(index)
        workload.before_round()
        for op in ops:
            phase.samples.append(execute(op))
        phase.rounds.append(index)
        index += 1
        elapsed = time.perf_counter() - start
        if (index >= workload.min_rounds
                and elapsed + elapsed / index > budget_s):
            break
    phase.wall_s = time.perf_counter() - start
    return phase


def replay(workload, rounds, tracer):
    """Re-run the given rounds under the tracer, without output checks.

    Returns the summed op time, comparable with the untraced phase's.
    """
    total = 0.0
    ops = [workload.round(index) for index in rounds]  # generated untraced
    tracer.install()
    try:
        for round_ops in ops:
            workload.before_round()
            for op in round_ops:
                t0 = time.perf_counter()
                try:
                    tracer.span(op.span_name(), op.run)
                except Exception:  # already recorded by the untraced run
                    pass
                total += time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return total


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail(values):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(values)
    for q in TAIL_PERCENTILES:
        # n * (100 - q) / 100 >= 10, with slack for 100 - 99.9 in binary
        if n * (100.0 - q) >= 1000.0 - 1e-9:
            return q, float(np.percentile(values, q)), n
    return None, None, n


def summarize(phase):
    """End-to-end figures of an untraced phase."""
    samples = phase.samples
    lat = [s.seconds for s in samples]
    passed = [s for s in samples if s.passed]
    failed = [s for s in samples if not s.passed]
    return {
        "attempted": len(samples),
        "failed": len(failed),
        "unexplained": [f"{s.kind}: {s.error or f'ratio {s.ratio:.3g}'}"
                        for s in failed if not s.defect],
        "ops_per_s": len(samples) / phase.op_seconds,
        "op_p50_ms": 1e3 * statistics.median(lat),
        "fail_ratio": len(failed) / len(samples),
        "worst_check_ratio": max((s.ratio for s in passed), default=0.0),
        "tail": tail(lat),
        "known_defects": sorted({s.defect for s in failed if s.defect}),
    }
