#!/usr/bin/env python3
"""Time the numpy grid kernels and the symbolic maps on Wigner states.

- `evaluate_grid` on the 325-term Wigner state n = 24 over the 201x201
  `WIDE_SPEC` lattice (one exponent group: one exp and one 2-D Horner).
- 100 RK4 steps of the damped advection oracle on the same lattice.
- `transition.apply` on the Wigner state n = 12 (damped gamma = 0.2 and
  husimi s = 1) and `dynamics.pullback` of the same state along the damped
  flow at t = 1.

Run from the repository root as

    PYTHONPATH=src python benchmarks/bench_kernels.py

Each line reports the median and the minimum of several repeats.
"""

import statistics
import time

import numpy as np

import starkit as sk
from starkit import dynamics, numerics, oscillator, transition
from starkit import symbols as sym
from starkit.numerics import WIDE_SPEC


def timeit(fn, repeats):
    times = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), min(times), result


def report(label, median, best):
    print(f"  {label}: median {median * 1e3:8.2f} ms, "
          f"min {best * 1e3:8.2f} ms")


def bench_eval(n=24):
    state = sk.sho_wigner_eigenstate(n)
    exponents = len({t.expo for t in state.terms})
    P, Q = WIDE_SPEC.meshes()
    print(f"evaluate_grid: Wigner n={n}, {len(state.terms)} terms, "
          f"{exponents} exponent(s), on {WIDE_SPEC.nq}x{WIDE_SPEC.np} nodes")
    sym.evaluate_grid(state, P, Q)  # warm-up outside timing
    med, best, values = timeit(lambda: sym.evaluate_grid(state, P, Q), 7)
    report("time", med, best)
    ref = oscillator.sho_wigner_values(n, P, Q)[n]
    print(f"  max deviation from sho_wigner_values: "
          f"{np.abs(values - ref).max():.2e}")


def bench_rk4(steps=100, dt=1e-3):
    grid = numerics.sample(sym.gaussian(1.0, app=-0.5, aqq=-0.5), WIDE_SPEC)
    params = sym.Params(gamma=0.1)
    print(f"rk4_evolve: {steps} damped steps on "
          f"{WIDE_SPEC.nq}x{WIDE_SPEC.np} nodes")
    med, best, _ = timeit(
        lambda: numerics.rk4_evolve(grid, "damped", steps * dt, dt, params), 3)
    report("time", med, best)


def bench_maps(n=12):
    state = sk.sho_wigner_eigenstate(n)
    params = sym.Params(gamma=0.2)
    print(f"symbolic maps: Wigner n={n}, {len(state.terms)} terms")
    for label, op in (("apply damped(0.2)", transition.damped_transition(0.2)),
                      ("apply husimi(1.0)", transition.husimi_transition(1.0))):
        med, best, _ = timeit(lambda: transition.apply(op, state), 7)
        report(label, med, best)
    flow = dynamics.flow_map(1.0, params)
    med, best, _ = timeit(lambda: dynamics.pullback(state, flow), 7)
    report("pullback t=1", med, best)


if __name__ == "__main__":
    bench_eval()
    bench_rk4()
    bench_maps()
