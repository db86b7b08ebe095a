#!/usr/bin/env python3
"""Time the numpy grid kernels and the symbolic maps on Wigner states.

- `evaluate_grid` on the 325-term Wigner state n = 24 over the 201x201
  `WIDE_SPEC` lattice (one exponent group: one exp and one 2-D Horner).
- 100 RK4 steps of the damped advection oracle on the same lattice and
  on 401x401 (2.6 MB per state, outside an L2 share), also reported in
  ns per node-step: a real state (one real plane) and a complex one (two).
- Ops shaped like those of the `perfbench` `rk4` workload: `sample` of a
  Gaussian plus 20 damped steps at dt = 1e-3 on 201x201 and 401x401 and
  50 steps on 201x201 (one plane), and 20 `naive` steps on 201x201 (two
  planes).
- The group kernel (`kernel_cases`, also timed against another revision
  by `ab_rows.py`): moyal rho_n star rho_n for n = 3, 6, 9, 12, damped
  (0.3) rho_9 star rho_9, pullbacks along the damped flow (gamma = 0.2,
  t = 1) of rho_12, rho_24 and a three-group class member (the kernel
  once per group), `transition.apply` on rho_12 (damped gamma = 0.2 and
  husimi s = 1) and on a two-group class member (damped 0.2),
  `dynamics.evolve_naive` of rho_12 at gamma = 0.2, t = 1, `star_product`
  on a damped (0.1) pair of pure Gaussians and on a pair of two-group
  Gaussian sums under each of the four products (four group pairs), and
  poly6 star poly6 under each product.
- The series path (`series_cases`, also timed against another revision
  by `ab_rows.py`): poly6 star poly6 and poly4 star a
  two-term class member (seeded `verify` draws) under each of the four
  products, damped H star rho_6 and rho_6 star H, `star_exp_truncated` of
  -0.1i H under the damped product to order 12, and under the moyal and
  damped products to order 20 (the `propagator` suite's two star
  exponentials), `transition.check_equivalence` on the 100 seeded
  polynomial pairs of the `equivalence` suite (damped 0.1 setup), the
  husimi `star_series_oracle` of the class member and a Gaussian at
  N = 12 on the 9x9 sample lattice (its divergence warning silenced:
  N = 12 is a timing input), `evolve_eigenexpansion` over the 25 entries
  rho_{n,n'}, n, n' < 5, at t = 0.7, the damped (0.1) `bracket` of rho_6
  with H, and `damped_rhs` (gamma = 0.1) of the two-group member.
- `normalize` on the terms of the Wigner state n = 24 repeated three
  times (975 raw terms, one exponent), `parse` of its printed form, and
  1000 calls each of the one-term constructors `const`, `monomial` and
  `scale` of a one-term Gaussian (normalize's one-term path).
- `export_grid` (CSV and JSON) and `load_grid` on `WIDE_SPEC` of the
  Wigner state n = 12 (real values) and of the off-diagonal state
  rho_{4,8} evolved to t = 0.7 at gamma = 0.2 (complex values), each
  also as the growth of peak RSS (VmHWM) over one call in a fresh
  interpreter (`bench_kernels.py --rss`).
- `sample` (`grid_eval_cases`, also timed against another revision by
  `ab_rows.py`) of the Wigner states n = 24 and n = 12 and of a Gaussian
  on the 9x9 sample lattice and on [-6, 6]^2 at 201x201, 401x401 and
  801x801, `evaluate_grid` of the same three and of the two-group member
  on the sample lattice's meshes (the 9x9 checks of `approx_equal` and
  `residual`), and `residual` of rho_6 against rho_5; the growth of
  peak RSS over one `sample` of n = 24 and over 20 damped `rk4_evolve`
  steps of a real Gaussian, both at 401x401 in a fresh interpreter.
- Cold builds (`cold_cases`, also timed against another revision by
  `ab_rows.py`), both `oscillator` caches cleared before each call: the
  Wigner states n = 12 and n = 24 and the off-diagonal states rho_{6,6}
  and rho_{12,0}.
- `starkit evolve` in-process on the README scenario (gamma = 0.1, times
  0, 1, 2, 201x201, CSV export at t = 2) with `classical` and with
  `naive` evolution.

Run from the repository root as

    PYTHONPATH=src python benchmarks/bench_kernels.py [NAME ...]

where each NAME (a key of BENCHES, such as grid_io) runs one group; all
run by default.  Each line reports the median and the minimum of several
repeats.
"""

import contextlib
import functools
import importlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np

import starkit as sk
from starkit import numerics, oscillator
from starkit import symbols as sym
from starkit.cli import main
from starkit.errors import DivergenceWarning
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
    params = sym.Params(gamma=0.1)
    for n in (201, 401):
        spec = sym.GridSpec(-6.0, 6.0, -6.0, 6.0, n, n)
        print(f"rk4_evolve: {steps} damped steps on {n}x{n} nodes")
        for label, amplitude in (("real state, one plane", 1.0),
                                 ("complex state, two planes", 1.0 + 0.5j)):
            grid = numerics.sample(
                sym.gaussian(amplitude, app=-0.5, aqq=-0.5), spec)
            med, best, _ = timeit(
                lambda: numerics.rk4_evolve(grid, "damped", steps * dt, dt,
                                            params), 5)
            report(label, med, best)
            print(f"    {med / (steps * n * n) * 1e9:.2f} ns per node-step "
                  f"(median)")


def bench_rk4_ops(dt=1e-3):
    params = sym.Params(gamma=0.2)
    state = sym.gaussian(1.0, app=-0.8, aqq=-0.9, apq=0.05, bp=0.2, bq=-0.1)
    print("sample + rk4_evolve, shaped like the perfbench rk4 ops")
    for n, steps, kind in ((201, 20, "damped"), (201, 50, "damped"),
                           (401, 20, "damped"), (201, 20, "naive")):
        spec = sym.GridSpec(-6.0, 6.0, -6.0, 6.0, n, n)

        def op():
            return numerics.rk4_evolve(numerics.sample(state, spec), kind,
                                       steps * dt, dt, params)
        op()  # warm-up outside timing
        med, best, _ = timeit(op, 7)
        report(f"{n}x{n}, {steps} {kind} steps", med, best)


def two_group_member(pkg=sk):
    """rho_4 plus a polynomial times a displaced, correlated Gaussian,
    built from the package pkg (as series_cases)."""
    poly = pkg.poly_symbol({(1, 1): 0.5, (2, 0): -0.3j, (0, 3): 0.2})
    bump = pkg.gaussian(1.0, app=-0.6, aqq=-0.4, apq=0.1, bp=0.2)
    return pkg.combine(pkg.sho_wigner_eigenstate(4), 1.0,
                       pkg.pointwise_multiply(poly, bump), 1.0)


def three_group_member(pkg=sk):
    """The two-group member plus a displaced pure Gaussian."""
    return pkg.combine(two_group_member(pkg), 1.0,
                       pkg.gaussian(0.3j, app=-0.7, aqq=-0.5, bq=0.25), 1.0)


def gaussian_sum(a, b, pkg=sk):
    """Sum of two pure Gaussians with different exponents."""
    return pkg.combine(pkg.gaussian(1.0, app=-a, aqq=-b, bq=0.1), 1.0,
                       pkg.gaussian(0.5j, app=-b, aqq=-a, apq=0.1), 1.0)


SERIES_SEED = 22
ONE_TERM_CALLS = 1000  # calls of each one-term constructor per sample


def series_cases(pkg):
    """(label, call) rows of the series path, built from the package pkg
    (starkit, or the copy of another revision that ab_rows.py imports
    under a second name) with the seeded draws of its verify suites."""
    rng = np.random.default_rng(SERIES_SEED)
    draw = importlib.import_module(pkg.__name__ + ".verify")
    p6a, p6b, p4 = (draw._random_polynomial(rng, d, n)
                    for d, n in ((6, 8), (6, 8), (4, 6)))
    member = draw._random_symbol(rng)
    damped = pkg.damped_star(0.1)
    H, rho6 = pkg.hamiltonian(), pkg.sho_wigner_eigenstate(6)
    rows = []
    for star in (pkg.moyal_star(), damped, pkg.standard_star(),
                 pkg.husimi_star(1.0)):
        rows.append((f"{star.name}, poly6 * poly6",
                     lambda s=star: pkg.star_product(p6a, p6b, s)))
        rows.append((f"{star.name}, poly4 * member",
                     lambda s=star: pkg.star_product(p4, member, s)))
    gauss = pkg.gaussian(1.0, app=-0.25, aqq=-0.3, bq=0.2)
    spec = pkg.GridSpec(-3.0, 3.0, -3.0, 3.0, 9, 9)
    # the equivalence suite's pairs and its damped setup
    pair_rng = np.random.default_rng(20240811)
    pairs = [(draw._random_polynomial(pair_rng),
              draw._random_polynomial(pair_rng)) for _ in range(100)]
    params = pkg.Params(gamma=0.1)
    setup = (pkg.moyal_star(params), pkg.damped_star(0.1, params),
             pkg.damped_transition(0.1, params))
    expansion = {(n, nprime): complex(1.0 / (1 + n), 0.1 * nprime)
                 for n in range(5) for nprime in range(5)}
    two = two_group_member(pkg)
    return rows + [
        ("damped, H * rho_6", lambda: pkg.star_product(H, rho6, damped)),
        ("damped, rho_6 * H", lambda: pkg.star_product(rho6, H, damped)),
        ("damped, star_exp_truncated(-0.1i H, 12)",
         lambda: pkg.star_exp_truncated(-0.1j * H, damped, 12)),
        ("moyal, star_exp_truncated(-0.1i H, 20)",
         lambda: pkg.star_exp_truncated(-0.1j * H, pkg.moyal_star(), 20)),
        ("damped, star_exp_truncated(-0.1i H, 20)",
         lambda: pkg.star_exp_truncated(-0.1j * H, damped, 20)),
        ("damped, check_equivalence on 100 polynomial pairs",
         lambda: [pkg.check_equivalence(f, g, *setup) for f, g in pairs]),
        ("husimi oracle, member * Gaussian, N = 12",
         lambda: pkg.star_series_oracle(member, gauss, pkg.husimi_star(1.0),
                                        12, spec)),
        ("evolve_eigenexpansion, 25 entries, t = 0.7",
         lambda: pkg.evolve_eigenexpansion(expansion, 0.7)),
        ("damped bracket {rho_6, H}_0.1",
         lambda: pkg.bracket(rho6, H, 0.1, params)),
        ("damped_rhs of the two-group member, gamma = 0.1",
         lambda: pkg.damped_rhs(two, params))]


def kernel_cases(pkg):
    """(label, call) rows of the group kernel, built from the package pkg
    (as series_cases): the group-kernel rows of the module docstring."""
    dyn = importlib.import_module(pkg.__name__ + ".dynamics")
    draw = importlib.import_module(pkg.__name__ + ".verify")
    rho = {n: pkg.sho_wigner_eigenstate(n) for n in (3, 6, 9, 12, 24)}
    moyal, damped = pkg.moyal_star(), pkg.damped_star(0.1)
    params = pkg.Params(gamma=0.2)
    flow = dyn.flow_map(1.0, params)
    damped_map = pkg.damped_transition(0.2)
    two, three = two_group_member(pkg), three_group_member(pkg)
    f = pkg.gaussian(1.0 + 0.3j, app=-0.4, aqq=-0.3, apq=0.1, bp=0.15)
    g = pkg.gaussian(0.8, app=-0.35, aqq=-0.5, bq=-0.2j)
    f2, g2 = gaussian_sum(0.5, 0.4, pkg), gaussian_sum(0.3, 0.6, pkg)
    rng = np.random.default_rng(SERIES_SEED)
    p6a, p6b = (draw._random_polynomial(rng, 6, 8) for _ in range(2))
    stars = (moyal, damped, pkg.standard_star(), pkg.husimi_star(1.0))
    rows = [(f"moyal, rho_{n} * rho_{n}",
             lambda n=n: pkg.star_product(rho[n], rho[n], moyal))
            for n in (3, 6, 9, 12)]
    rows += [
        ("damped(0.3), rho_9 * rho_9",
         lambda: pkg.star_product(rho[9], rho[9], pkg.damped_star(0.3))),
        ("pullback t=1, rho_12", lambda: dyn.pullback(rho[12], flow)),
        ("pullback t=1, rho_24", lambda: dyn.pullback(rho[24], flow)),
        ("pullback t=1, three-group member",
         lambda: dyn.pullback(three, flow)),
        ("apply damped(0.2), rho_12",
         lambda: pkg.apply(damped_map, rho[12])),
        ("apply husimi(1.0), rho_12",
         lambda: pkg.apply(pkg.husimi_transition(1.0), rho[12])),
        ("apply damped(0.2), two-group member",
         lambda: pkg.apply(damped_map, two)),
        ("evolve_naive gamma=0.2, t=1, rho_12",
         lambda: dyn.evolve_naive(rho[12], 1.0, params)),
        ("damped(0.1), Gaussian pair", lambda: pkg.star_product(f, g, damped))]
    rows += [(f"{s.name}, two-group Gaussian sums",
              lambda s=s: pkg.star_product(f2, g2, s)) for s in stars]
    rows += [(f"{s.name}, poly6 * poly6",
              lambda s=s: pkg.star_product(p6a, p6b, s)) for s in stars]
    return rows


def bench_kernel():
    print("group kernel")
    for label, call in kernel_cases(sk):
        call()  # warm-up outside timing
        med, best, _ = timeit(call, 7)
        report(label, med, best)


def bench_series():
    print("series path")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DivergenceWarning)
        for label, call in series_cases(sk):
            med, best, _ = timeit(call, 7)
            report(label, med, best)


def algebra_cases(pkg, n=24):
    """(label, call) rows of normalize and parse on the Wigner state n,
    built from the package pkg (as series_cases)."""
    expr = importlib.import_module(pkg.__name__ + ".expr")
    state = pkg.sho_wigner_eigenstate(n)
    raw = list(state.terms) * 3
    text = expr.format_symbol(state)
    scale = importlib.import_module(pkg.__name__ + ".symbols").scale
    x = pkg.gaussian(0.5, app=-0.3, bq=0.1)

    def one_term():
        for _ in range(ONE_TERM_CALLS):
            pkg.const(1.5)
            pkg.monomial(2.0, 3, 1)
            scale(x, 1j)

    return [(f"Wigner n={n}: normalize, {len(raw)} raw terms",
             lambda: pkg.normalize(raw)),
            (f"Wigner n={n}: parse, {len(text)} characters",
             lambda: expr.parse(text)),
            (f"one-term const, monomial and scale, {ONE_TERM_CALLS} each",
             one_term)]


def bench_algebra(n=24):
    print("symbol algebra")
    for label, call in algebra_cases(sk, n):
        med, best, _ = timeit(call, 15)
        report(label, med, best)
    back = sk.parse(sk.format_symbol(sk.sho_wigner_eigenstate(n)))
    print(f"  parse(format_symbol(rho)) == rho: "
          f"{back == sk.sho_wigner_eigenstate(n)}")


def grid_eval_cases(pkg):
    """(label, call) rows of sample and evaluate_grid, built from the
    package pkg (as series_cases)."""
    states = (("Wigner n=24", pkg.sho_wigner_eigenstate(24)),
              ("Wigner n=12", pkg.sho_wigner_eigenstate(12)),
              ("Gaussian", pkg.gaussian(1.0, app=-0.8, aqq=-0.9, apq=0.05,
                                        bp=0.2, bq=-0.1)))
    small = pkg.GridSpec(-3.0, 3.0, -3.0, 3.0, 9, 9)
    P, Q = small.meshes()
    rows = [(f"{label}: evaluate_grid 9x9 meshes",
             lambda f=f: pkg.evaluate_grid(f, P, Q))
            for label, f in states + (("two-group member",
                                       two_group_member(pkg)),)]
    rho5, rho6 = (pkg.sho_wigner_eigenstate(n) for n in (5, 6))
    rows.append(("residual rho_6 vs rho_5 on 9x9",
                 lambda: pkg.residual(rho6, rho5)))
    for n in (9, 201, 401, 801):
        spec = small if n == 9 else pkg.GridSpec(-6.0, 6.0, -6.0, 6.0, n, n)
        rows += [(f"{label}: sample {n}x{n}",
                  lambda f=f, s=spec: pkg.sample(f, s))
                 for label, f in states]
    return rows


def bench_grid_eval():
    print("sample and evaluate_grid (RSS: peak growth over one call in a "
          "fresh process)")
    for label, call in grid_eval_cases(sk):
        call()  # warm-up outside timing
        med, best, _ = timeit(call, 7)
        report(label, med, best)
    for call in ("sample", "rk4"):
        print(f"  {call} at 401x401: RSS +{fresh_rss(call):.1f} MB")


def grid_io_files(pkg, directory):
    """(label, grid, fmt, path) of each export and load row on WIDE_SPEC,
    the grid built from the package pkg (as series_cases) and written once
    to path, under directory, by its export_grid."""
    numerics = importlib.import_module(pkg.__name__ + ".numerics")
    dynamics = importlib.import_module(pkg.__name__ + ".dynamics")
    states = (
        ("Wigner n=12, real", pkg.sho_wigner_eigenstate(12)),
        ("rho_{4,8} at t=0.7, gamma=0.2, complex",
         dynamics.evolve_classical(pkg.sho_offdiagonal(4, 8), 0.7,
                                   pkg.Params(gamma=0.2))))
    for k, (label, state) in enumerate(states):
        grid = numerics.sample(state, numerics.WIDE_SPEC)
        for fmt in ("csv", "json"):
            path = os.path.join(directory, f"{pkg.__name__}-{k}.{fmt}")
            numerics.export_grid(grid, fmt, path)
            yield label, grid, fmt, path


def grid_io_cases(pkg, directory):
    """(label, call) rows of export_grid and load_grid (grid_io_files)."""
    numerics = importlib.import_module(pkg.__name__ + ".numerics")
    rows = []
    for label, grid, fmt, path in grid_io_files(pkg, directory):
        rows += [(f"{label}: export_grid {fmt}",
                  lambda g=grid, f=fmt, p=path: numerics.export_grid(g, f, p)),
                 (f"{label}: load_grid {fmt}",
                  lambda p=path: numerics.load_grid(p))]
    return rows


def peak_rss_mb():
    """This process's peak RSS in MB (VmHWM).  Not ru_maxrss: on Linux a
    child inherits that from the process that started it."""
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(ln.split()[1] for ln in fh if ln.startswith("VmHWM:"))
    return int(kb) / 1024


def one_call_rss(call, path=None, values=None):
    """Growth of the peak RSS, in MB, over one call in this process: an
    export_grid of the values saved in the .npy file values, in the format
    of path's suffix; a load_grid of path; a sample of the Wigner state
    n = 24 on 401x401; or 20 damped rk4_evolve steps at dt = 1e-3 of a
    real Gaussian on 401x401, its values formed by numpy before the call
    (not by sample, whose own peak would move the baseline)."""
    spec = sym.GridSpec(-6.0, 6.0, -6.0, 6.0, 401, 401)
    if call == "export":
        grid = numerics.PhaseGrid(WIDE_SPEC, np.load(values))
        fmt = os.path.splitext(path)[1][1:]
        run = functools.partial(numerics.export_grid, grid, fmt, path)
    elif call == "load":
        run = functools.partial(numerics.load_grid, path)
    elif call == "sample":
        state = sk.sho_wigner_eigenstate(24)
        numerics.sample(state, sym.SAMPLE_SPEC)  # warm-up
        run = functools.partial(numerics.sample, state, spec)
    else:
        p, q = spec.p_values()[None, :], spec.q_values()[:, None]
        g0 = numerics.PhaseGrid(spec, np.exp(-0.8 * p * p - 0.9 * q * q)
                                + 0j)
        run = functools.partial(numerics.rk4_evolve, g0, "damped", 0.02,
                                1e-3, sym.Params(gamma=0.2))
    before = peak_rss_mb()
    run()
    return peak_rss_mb() - before


def fresh_rss(*args):
    """one_call_rss(*args) in a fresh interpreter."""
    out = subprocess.run([sys.executable, __file__, "--rss", *args],
                         check=True, capture_output=True, text=True).stdout
    return float(out)


def bench_grid_io():
    print(f"grid export and load on {WIDE_SPEC.nq}x{WIDE_SPEC.np} nodes "
          "(RSS: peak growth over one call in a fresh process)")
    with tempfile.TemporaryDirectory() as tmp:
        values = os.path.join(tmp, "values.npy")
        for label, grid, fmt, path in grid_io_files(sk, tmp):
            np.save(values, grid.values)
            med, best, _ = timeit(
                lambda: numerics.export_grid(grid, fmt, path), 7)
            report(f"{label}: export_grid {fmt}", med, best)
            print(f"    RSS +{fresh_rss('export', path, values):.1f} MB")
            med, best, back = timeit(lambda: numerics.load_grid(path), 7)
            report(f"{label}: load_grid {fmt}", med, best)
            print(f"    RSS +{fresh_rss('load', path):.1f} MB")
            print(f"  load_grid(export_grid(g)) == g: "
                  f"{np.array_equal(back.values, grid.values)}")


def cold_cases(pkg):
    """(label, call) rows of Wigner and off-diagonal states built with both
    oscillator caches cleared first, from the package pkg (as
    series_cases)."""
    osc = importlib.import_module(pkg.__name__ + ".oscillator")

    def cold(build, *args):
        def call():
            osc.sho_wigner_eigenstate.cache_clear()
            osc.sho_offdiagonal.cache_clear()
            return build(*args)
        return call
    return [(f"{label}: cold build", cold(build, *args))
            for label, build, args in (
                ("Wigner n=12", osc.sho_wigner_eigenstate, (12,)),
                ("Wigner n=24", osc.sho_wigner_eigenstate, (24,)),
                ("rho_{6,6}", osc.sho_offdiagonal, (6, 6)),
                ("rho_{12,0}", osc.sho_offdiagonal, (12, 0)))]


def bench_cold():
    print("cold state builds (caches cleared before each call)")
    for label, call in cold_cases(sk):
        med, best, _ = timeit(call, 7)
        report(label, med, best)


def bench_readme_scenario():
    print("starkit evolve, README scenario (in-process)")
    with tempfile.TemporaryDirectory() as tmp:
        for kind in ("classical", "naive"):
            doc = {"params": {"m": 1.0, "omega": 1.0, "hbar": 1.0,
                              "gamma": 0.1},
                   "initial": "2*exp(-(q^2+p^2))", "evolution": kind,
                   "times": [0.0, 1.0, 2.0],
                   "grid": {"q_min": -6, "q_max": 6, "p_min": -6, "p_max": 6,
                            "nq": 201, "np": 201},
                   "outputs": [{"time": 2.0, "format": "csv",
                                "path": os.path.join(tmp, "out.csv")}]}
            path = os.path.join(tmp, f"{kind}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)

            def run():
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    code = main(["evolve", path])
                if code:
                    raise RuntimeError(f"evolve {kind} exited {code}")
                return out.getvalue()
            med, best, out = timeit(run, 5)
            report(kind, med, best)
            print("    " + " ".join(ln.split()[1] for ln in out.splitlines()))


BENCHES = {"eval": bench_eval, "rk4": bench_rk4, "rk4_ops": bench_rk4_ops,
           "kernel": bench_kernel, "series": bench_series,
           "algebra": bench_algebra,
           "grid_eval": bench_grid_eval, "grid_io": bench_grid_io,
           "cold": bench_cold, "readme": bench_readme_scenario}


if __name__ == "__main__":
    if sys.argv[1:2] == ["--rss"]:
        print(one_call_rss(*sys.argv[2:]))
    else:
        for name in sys.argv[1:] or BENCHES:
            BENCHES[name]()
