#!/usr/bin/env python3
"""Time the numpy grid kernels and the symbolic maps on Wigner states.

- `evaluate_grid` on the 325-term Wigner state n = 24 over the 201x201
  `WIDE_SPEC` lattice (one exponent group: one exp and one 2-D Horner).
- 100 RK4 steps of the damped advection oracle on the same lattice.
- `transition.apply` on the Wigner state n = 12 (damped gamma = 0.2 and
  husimi s = 1) and `dynamics.pullback` of the same state along the damped
  flow at t = 1.
- `star_product` on a damped (gamma = 0.1) pair of pure Gaussians and on
  H star rho_6 (the series path), and on the moyal rho_3 star rho_3
  (the group formula in doubled phase space).

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


def bench_products():
    damped = sk.damped_star(0.1)
    moyal = sk.moyal_star()
    f = sym.gaussian(1.0 + 0.3j, app=-0.4, aqq=-0.3, apq=0.1, bp=0.15)
    g = sym.gaussian(0.8, app=-0.35, aqq=-0.5, bq=-0.2j)
    H = sk.hamiltonian()
    rho3 = sk.sho_wigner_eigenstate(3)
    rho6 = sk.sho_wigner_eigenstate(6)
    print("star_product")
    for label, args in (("damped(0.1), Gaussian pair", (f, g, damped)),
                        ("damped(0.1), H * rho_6", (H, rho6, damped)),
                        ("moyal, rho_3 * rho_3", (rho3, rho3, moyal))):
        med, best, _ = timeit(lambda: sk.star_product(*args), 7)
        report(label, med, best)


if __name__ == "__main__":
    bench_eval()
    bench_rk4()
    bench_maps()
    bench_products()
