#!/usr/bin/env python3
"""Time starkit, alone or against another git revision, and print the
BENCH file.  Run from the repository root as

    PYTHONPATH=src python benchmarks/run.py [REV] [GROUP ...] [ROUNDS]

REV is a git revision (not a bare number), GROUPs are keys of GROUPS (all
by default) and ROUNDS (default 9) is the number of samples per row.
Standard output is the BENCH file: one JSON object with the keys
parent_commit, host, rows, rows_control, perfbench, verify, src_lines and
silent_cases.

A row group is a list of (label, call) rows built from a package; the
calls of an `rss` row return the growth of peak RSS in MB over one call
in a fresh interpreter (the `--rss` entry below).  Each side is imported
under its own name from its own copy of src/starkit, so that none is the
package named starkit: starkit_parent and starkit_control from REV and
starkit_change from the working tree, or starkit_change alone without
REV.  One loop times every row.  Per round and row, a sample is one
warm-up call per side, then 7 calls per side, alternating, the first side
rotating by round; it is the median of a side's 7 values (ms, or MB).
`rows` compares parent with change, and `rows_control` parent with the
control, a second copy of the parent: the distance from 1 of the
control's paired_ratio_median (the median of its per-round ratios, which
the host's drift between rounds moves less than the ratio of medians) is
the row's noise_floor.

`perfbench` runs perfbench/run.py on each workload in a `git archive REV`
tree and in the working tree: 10 pairs, one seed per pair, the first side
alternating.  It runs before any row is built, as its peak_rss_mb is
ru_maxrss, which a child inherits from the process that starts it.
`verify` runs `starkit verify all --json` ROUNDS times per tree.
src_lines is the `wc -l` total of src/starkit/*.py and silent_cases the
count of XFAIL outcomes of tests/test_census.py under `pytest -rx`, or
null where that file does not exist, per tree.
"""

import contextlib
import importlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CALLS = 7
ROUNDS = 9
PERFBENCH_PAIRS = 10
PERFBENCH_SEED = 3201
PERFBENCH = ROOT / "perfbench"
SERIES_SEED = 22
ONE_TERM_CALLS = 1000  # calls of each one-term constructor per sample
MB = " (MB)"  # the label suffix of a row whose call returns its value


def module(pkg, name):
    return importlib.import_module(f"{pkg.__name__}.{name}")


def two_group_member(pkg):
    """rho_4 plus a polynomial times a displaced, correlated Gaussian."""
    poly = pkg.poly_symbol({(1, 1): 0.5, (2, 0): -0.3j, (0, 3): 0.2})
    bump = pkg.gaussian(1.0, app=-0.6, aqq=-0.4, apq=0.1, bp=0.2)
    return pkg.combine(pkg.sho_wigner_eigenstate(4), 1.0,
                       pkg.pointwise_multiply(poly, bump), 1.0)


def lattice(pkg, n):
    return pkg.GridSpec(-6.0, 6.0, -6.0, 6.0, n, n)


def eval_cases(pkg, tmp):
    """evaluate_grid of the 325-term Wigner state n = 24 on WIDE_SPEC (one
    exponent group: one exp and one 2-D Horner)."""
    state = pkg.sho_wigner_eigenstate(24)
    P, Q = module(pkg, "numerics").WIDE_SPEC.meshes()
    return [(f"Wigner n=24, {len(state.terms)} terms: evaluate_grid "
             "201x201", lambda: pkg.evaluate_grid(state, P, Q))]


def rk4_cases(pkg, tmp, steps=100, dt=1e-3):
    """100 damped RK4 steps on 201x201 and 401x401 of a real state (one
    plane) and a complex one (two planes)."""
    params = pkg.Params(gamma=0.1)
    rows = []
    for n in (201, 401):
        for label, amplitude in (("real", 1.0), ("complex", 1.0 + 0.5j)):
            grid = pkg.sample(pkg.gaussian(amplitude, app=-0.5, aqq=-0.5),
                              lattice(pkg, n))
            rows.append((f"rk4_evolve, {steps} damped steps, {n}x{n}, "
                         f"{label} state",
                         lambda g=grid: pkg.rk4_evolve(g, "damped", steps * dt,
                                                       dt, params)))
    return rows


def rk4_ops_cases(pkg, tmp, dt=1e-3):
    """sample of a Gaussian plus RK4 steps, shaped like the perfbench rk4
    ops (one plane), and naive steps (two planes)."""
    params = pkg.Params(gamma=0.2)
    state = pkg.gaussian(1.0, app=-0.8, aqq=-0.9, apq=0.05, bp=0.2, bq=-0.1)
    return [(f"sample + rk4_evolve, {n}x{n}, {steps} {kind} steps",
             lambda s=lattice(pkg, n), steps=steps, kind=kind: pkg.rk4_evolve(
                 pkg.sample(state, s), kind, steps * dt, dt, params))
            for n, steps, kind in ((201, 20, "damped"), (201, 50, "damped"),
                                   (401, 20, "damped"), (201, 20, "naive"))]


def series_cases(pkg, tmp):
    """The series path, with the seeded draws of the verify suites."""
    rng = np.random.default_rng(SERIES_SEED)
    draw = module(pkg, "verify")
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
        # N = 12 is a timing input: its DivergenceWarning is silenced
        ("husimi oracle, member * Gaussian, N = 12",
         lambda: pkg.star_series_oracle(member, gauss, pkg.husimi_star(1.0),
                                        12, spec)),
        ("evolve_eigenexpansion, 25 entries, t = 0.7",
         lambda: pkg.evolve_eigenexpansion(expansion, 0.7)),
        ("damped bracket {rho_6, H}_0.1",
         lambda: pkg.bracket(rho6, H, 0.1, params)),
        ("damped_rhs of the two-group member, gamma = 0.1",
         lambda: pkg.damped_rhs(two, params))]


def kernel_cases(pkg, tmp):
    """The group kernel: star products, pullbacks, images, naive flow."""
    dyn = module(pkg, "dynamics")
    rho = {n: pkg.sho_wigner_eigenstate(n) for n in (3, 6, 9, 12, 24)}
    moyal, damped = pkg.moyal_star(), pkg.damped_star(0.1)
    params = pkg.Params(gamma=0.2)
    flow = dyn.flow_map(1.0, params)
    damped_map = pkg.damped_transition(0.2)
    two = two_group_member(pkg)
    three = pkg.combine(two, 1.0, pkg.gaussian(0.3j, app=-0.7, aqq=-0.5,
                                               bq=0.25), 1.0)
    f = pkg.gaussian(1.0 + 0.3j, app=-0.4, aqq=-0.3, apq=0.1, bp=0.15)
    g = pkg.gaussian(0.8, app=-0.35, aqq=-0.5, bq=-0.2j)
    f2, g2 = (pkg.combine(pkg.gaussian(1.0, app=-a, aqq=-b, bq=0.1), 1.0,
                          pkg.gaussian(0.5j, app=-b, aqq=-a, apq=0.1), 1.0)
              for a, b in ((0.5, 0.4), (0.3, 0.6)))  # two-group Gaussian sums
    rng = np.random.default_rng(SERIES_SEED)
    p6a, p6b = (module(pkg, "verify")._random_polynomial(rng, 6, 8)
                for _ in range(2))
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


def algebra_cases(pkg, tmp, n=24):
    """normalize and parse on the Wigner state n, and normalize's
    one-term path."""
    expr = module(pkg, "expr")
    state = pkg.sho_wigner_eigenstate(n)
    raw = list(state.terms) * 3
    text = expr.format_symbol(state)
    scale = module(pkg, "symbols").scale
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


def grid_eval_cases(pkg, tmp):
    """sample and evaluate_grid from the 9x9 sample lattice to 801x801."""
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
        spec = small if n == 9 else lattice(pkg, n)
        rows += [(f"{label}: sample {n}x{n}",
                  lambda f=f, s=spec: pkg.sample(f, s))
                 for label, f in states]
    return rows


def grid_io_files(pkg, tmp):
    """(label, grid, fmt, path) of each export and load row on WIDE_SPEC,
    the grid written once to path, under tmp, by the package's
    export_grid."""
    numerics = module(pkg, "numerics")
    states = (
        ("Wigner n=12, real", pkg.sho_wigner_eigenstate(12)),
        ("rho_{4,8} at t=0.7, gamma=0.2, complex",
         pkg.evolve_classical(pkg.sho_offdiagonal(4, 8), 0.7,
                              pkg.Params(gamma=0.2))))
    for k, (label, state) in enumerate(states):
        grid = numerics.sample(state, numerics.WIDE_SPEC)
        for fmt in ("csv", "json"):
            path = os.path.join(tmp, f"{pkg.__name__}-{k}.{fmt}")
            numerics.export_grid(grid, fmt, path)
            yield label, grid, fmt, path


def grid_io_cases(pkg, tmp):
    """export_grid and load_grid of a real and a complex 201x201 grid."""
    rows = []
    for label, grid, fmt, path in grid_io_files(pkg, tmp):
        rows += [(f"{label}: export_grid {fmt}",
                  lambda g=grid, f=fmt, p=path: pkg.export_grid(g, f, p)),
                 (f"{label}: load_grid {fmt}",
                  lambda p=path: pkg.load_grid(p))]
    return rows


def cold_cases(pkg, tmp):
    """Wigner and off-diagonal states built with both oscillator caches
    cleared first."""
    osc = module(pkg, "oscillator")

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


def readme_cases(pkg, tmp):
    """`starkit evolve` in-process on the README scenario (gamma = 0.1,
    times 0, 1, 2, 201x201, CSV export at t = 2)."""
    main = module(pkg, "cli").main
    rows = []
    for kind in ("classical", "naive"):
        doc = {"params": {"m": 1.0, "omega": 1.0, "hbar": 1.0, "gamma": 0.1},
               "initial": "2*exp(-(q^2+p^2))", "evolution": kind,
               "times": [0.0, 1.0, 2.0],
               "grid": {"q_min": -6, "q_max": 6, "p_min": -6, "p_max": 6,
                        "nq": 201, "np": 201},
               "outputs": [{"time": 2.0, "format": "csv", "path": os.path.join(
                   tmp, f"{pkg.__name__}-{kind}.csv")}]}
        path = os.path.join(tmp, f"{pkg.__name__}-{kind}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

        def run(kind=kind, path=path):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["evolve", path])
            if code:
                raise RuntimeError(f"evolve {kind} exited {code}")
        rows.append((f"starkit evolve, README scenario, {kind}", run))
    return rows


def rss_cases(pkg, tmp):
    """Growth of peak RSS over one call in a fresh interpreter: sample of
    the Wigner state n = 24 and 20 damped RK4 steps at 401x401, and each
    export_grid and load_grid of grid_io_files."""
    rows = [("sample of Wigner n=24, 401x401: RSS growth" + MB,
             lambda: fresh_rss(pkg, "sample")),
            ("20 damped rk4_evolve steps, 401x401, real: RSS growth" + MB,
             lambda: fresh_rss(pkg, "rk4"))]
    for label, grid, fmt, path in grid_io_files(pkg, tmp):
        values = f"{path}.npy"
        np.save(values, grid.values)
        rows += [(f"{label}: export_grid {fmt}, RSS growth" + MB,
                  lambda p=path, v=values: fresh_rss(pkg, "export", p, v)),
                 (f"{label}: load_grid {fmt}, RSS growth" + MB,
                  lambda p=path: fresh_rss(pkg, "load", p))]
    return rows


def peak_rss_mb():
    """This process's peak RSS in MB (VmHWM).  Not ru_maxrss: on Linux a
    child inherits that from the process that started it."""
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(ln.split()[1] for ln in fh if ln.startswith("VmHWM:"))
    return int(kb) / 1024


def one_call_rss(pkg, call, path=None, values=None):
    """Growth of the peak RSS, in MB, over one call in this process: an
    export_grid of the values saved in the .npy file values, in the format
    of path's suffix; a load_grid of path; a sample of the Wigner state
    n = 24 on 401x401; or 20 damped rk4_evolve steps at dt = 1e-3 of a
    real Gaussian on 401x401, its values formed by numpy before the call
    (not by sample, whose own peak would move the baseline)."""
    numerics, spec = module(pkg, "numerics"), lattice(pkg, 401)
    if call == "export":
        grid = pkg.PhaseGrid(numerics.WIDE_SPEC, np.load(values))
        args = (pkg.export_grid, grid, os.path.splitext(path)[1][1:], path)
    elif call == "load":
        args = (pkg.load_grid, path)
    elif call == "sample":
        state = pkg.sho_wigner_eigenstate(24)
        pkg.sample(state, module(pkg, "symbols").SAMPLE_SPEC)  # warm-up
        args = (pkg.sample, state, spec)
    else:
        p, q = spec.p_values()[None, :], spec.q_values()[:, None]
        g0 = pkg.PhaseGrid(spec, np.exp(-0.8 * p * p - 0.9 * q * q) + 0j)
        args = (pkg.rk4_evolve, g0, "damped", 0.02, 1e-3,
                pkg.Params(gamma=0.2))
    before = peak_rss_mb()
    args[0](*args[1:])
    return peak_rss_mb() - before


def fresh_rss(pkg, *args):
    """one_call_rss(pkg, *args) in a fresh interpreter."""
    home = str(Path(pkg.__file__).parent.parent)
    out = subprocess.run([sys.executable, __file__, "--rss", home,
                          pkg.__name__, *args],
                         check=True, capture_output=True, text=True).stdout
    return float(out)


def workload_cases(pkg, tmp):
    """Rounds 0-2 of perfbench's algebra workload and round 0 of its rk4,
    built with pkg by perfbench/workloads.  A call runs the round's ops
    without their checks, the ladder-state cache cleared first: a perfbench
    round draws new keys for it."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    from workloads import registry
    clear = module(pkg, "oscillator").sho_offdiagonal.cache_clear
    rows = []
    for name, rounds in (("algebra", (0, 1, 2)), ("rk4", (0,))):
        workload = registry()[name](pkg, PERFBENCH_SEED,
                                    os.path.join(tmp, f"{pkg.__name__}-{name}"))
        workload.prepare()
        for i in rounds:
            ops = workload.round(i)

            def call(ops=ops):
                clear()
                for op in ops:
                    op.run()
            rows.append((f"perfbench {name}, round {i}, {len(ops)} ops", call))
    return rows


ROW_GROUPS = {"eval": eval_cases, "rk4": rk4_cases, "rk4_ops": rk4_ops_cases,
              "kernel": kernel_cases, "series": series_cases,
              "algebra": algebra_cases, "grid_eval": grid_eval_cases,
              "grid_io": grid_io_cases, "cold": cold_cases,
              "readme": readme_cases, "rss": rss_cases,
              "workloads": workload_cases}
GROUPS = ("perfbench", "verify", *ROW_GROUPS)


def sample(calls, in_mb):
    """Median value of each call over CALLS calls after one warm-up each,
    the calls alternating: ms per call, or the MB an RSS call returns."""
    for call in calls:
        call()
    values = [[] for _ in calls]
    for _ in range(CALLS):
        for k, call in enumerate(calls):
            t0 = time.perf_counter()
            mb = call()
            values[k].append(mb if in_mb
                             else (time.perf_counter() - t0) * 1e3)
    return [round(statistics.median(v), 4) for v in values]


def rotated(names, r):
    """The names in round r: the first one rotates by round."""
    return names[r % len(names):] + names[:r % len(names)]


def interleave(sides, rounds):
    """{label with its unit: {side: samples}} of the rows of each side
    ({side: rows}, the same labels on every side)."""
    names = list(sides)
    labels = [label for label, _ in sides[names[0]]]
    if any([label for label, _ in rows] != labels for rows in sides.values()):
        raise ValueError("the sides build different rows")
    keys = [label if label.endswith(MB) else label + " (ms)"
            for label in labels]
    runs = {key: {name: [] for name in names} for key in keys}
    for r in range(rounds):
        order = rotated(names, r)
        for i, key in enumerate(keys):
            values = sample([sides[name][i][1] for name in order],
                            key.endswith(MB))
            for name, value in zip(order, values):
                runs[key][name].append(value)
        print(f"  round {r}", file=sys.stderr, flush=True)
    return runs


def spread(xs):
    q = (statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1
         else (xs[0], None, xs[0]))
    return {"median": round(statistics.median(xs), 4), "min": min(xs),
            "iqr": round(q[2] - q[0], 4), "runs": xs}


def ratio(x, y):
    """y / x to 3 places; 1 if both are 0 (an RSS row that does not grow),
    inf if only x is."""
    return round(y / x, 3) if x else (1.0 if y == x else math.inf)


def compare(runs, base, other):
    """Per row: each side's spread, the rounds other reads lower, the ratio
    of the medians and the median of the per-round ratios."""
    out = {}
    for label, sides in runs.items():
        a, b = sides[base], sides[other]
        out[label] = {
            "better": "lower", base: spread(a), other: spread(b),
            f"{other}_lower_in": f"{sum(y < x for x, y in zip(a, b))} of "
                                 f"{len(a)} rounds",
            "median_ratio": ratio(statistics.median(a),
                                  statistics.median(b)),
            "paired_ratio_median": statistics.median(
                [ratio(x, y) for x, y in zip(a, b)])}
    return out


def time_rows(groups, sources, rounds, tmp):
    """(rows, rows_control) of the row groups, each side imported from its
    own copy of the src/starkit under sources[side]."""
    pkgs = {}
    for side, src in sources.items():
        name = f"starkit_{side}"
        home = tmp / name
        shutil.copytree(src / "starkit", home / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        sys.path.insert(0, str(home))
        pkgs[side] = importlib.import_module(name)
        warnings.simplefilter("ignore", pkgs[side].errors.DivergenceWarning)
    rows, control = {}, {}
    for group in groups:
        print(f"rows: {group}", file=sys.stderr, flush=True)
        runs = interleave({side: ROW_GROUPS[group](pkg, str(tmp))
                           for side, pkg in pkgs.items()}, rounds)
        if "parent" in pkgs:
            rows[group] = compare(runs, "parent", "change")
            control[group] = compare(runs, "parent", "control")
            for label, row in control[group].items():
                rows[group][label]["noise_floor"] = round(
                    abs(row["paired_ratio_median"] - 1.0), 3)
        else:
            rows[group] = {label: spread(sides["change"])
                           for label, sides in runs.items()}
    return rows, (control if "parent" in pkgs else None)


def child(tree, *args):
    """Run python with args in tree, its src/ first on the path."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, *args], cwd=tree, env=env,
                          capture_output=True, text=True)


def perfbench(trees):
    """Each perfbench workload, PERFBENCH_PAIRS pairs over the trees."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = list(trees)
    out = {w["name"]: {"seeds": [], "first_in_pair": [],
                       **{name: [] for name in names}}
           for w in spec["workloads"]}
    for i in range(PERFBENCH_PAIRS):
        seed = PERFBENCH_SEED + i
        order = rotated(names, i)
        for workload, runs in out.items():
            print(f"perfbench: {workload}, pair {i}", file=sys.stderr,
                  flush=True)
            runs["seeds"].append(seed)
            runs["first_in_pair"].append(order[0])
            for name in order:
                proc = child(trees[name], "perfbench/run.py", "--workload",
                             workload, "--seed", str(seed), "--seconds",
                             str(spec["run_seconds"]), "--trace", "0")
                if proc.returncode:
                    raise RuntimeError(f"perfbench {workload} ({name}):\n"
                                       f"{proc.stderr}")
                runs[name].append(json.loads(proc.stdout.splitlines()[-1]))
    return out


def verify(trees, rounds):
    """Per tree, its row count, failed rows over all runs, and the seconds
    of each verify suite over rounds runs."""
    names = list(trees)
    out = {name: {"rows": 0, "failed_rows": 0, "suite_seconds": {}}
           for name in names}
    for r in range(rounds):
        for name in rotated(names, r):
            proc = child(trees[name], "-m", "starkit", "verify", "all",
                         "--json")
            lines = [json.loads(ln) for ln in proc.stdout.splitlines()]
            out[name]["rows"] = len(lines)
            out[name]["failed_rows"] += sum(not ln["passed"] for ln in lines)
            suites = {ln["suite"]: ln["seconds"] for ln in lines}
            for suite, s in suites.items():
                out[name]["suite_seconds"].setdefault(suite, []).append(
                    round(s, 4))
        print(f"verify: round {r}", file=sys.stderr, flush=True)
    for side in out.values():
        side["suite_seconds"] = {suite: spread(xs) for suite, xs
                                 in side["suite_seconds"].items()}
    return out


def src_lines(tree):
    return sum(p.read_bytes().count(b"\n")
               for p in (tree / "src" / "starkit").glob("*.py"))


def silent_cases(tree):
    if not (tree / "tests" / "test_census.py").exists():
        return None
    proc = child(tree, "-m", "pytest", "-q", "-rx", "-p", "no:cacheprovider",
                 "tests/test_census.py")
    return sum(ln.startswith("XFAIL") for ln in proc.stdout.splitlines())


def extract(rev, into):
    """The files of the git revision rev, under into."""
    tar = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into


def main(args):
    rounds = int(args.pop()) if args and args[-1].isdigit() else ROUNDS
    rev = args.pop(0) if args and args[0] not in GROUPS else None
    unknown = set(args) - set(GROUPS)
    if unknown:
        raise SystemExit(f"unknown groups {sorted(unknown)}; choices: "
                         f"{', '.join(GROUPS)}")
    groups = [g for g in GROUPS if g in args] or list(GROUPS)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = {"change": ROOT}
        if rev:
            trees = {"parent": extract(rev, tmp / "parent"), "change": ROOT}
        result = {
            "parent_commit": rev,
            "host": {"python": platform.python_version(),
                     "numpy": np.__version__, "cores": os.cpu_count(),
                     "machine": platform.machine()},
            "rows": None, "rows_control": None,
            "perfbench": perfbench(trees) if "perfbench" in groups else None,
            "verify": verify(trees, rounds) if "verify" in groups else None,
            "src_lines": {name: src_lines(t) for name, t in trees.items()},
            "silent_cases": {name: silent_cases(t)
                             for name, t in trees.items()}}
        sources = {name: tree / "src" for name, tree in trees.items()}
        if rev:
            sources["control"] = sources["parent"]
        row_groups = [g for g in groups if g in ROW_GROUPS]
        if row_groups:
            result["rows"], result["rows_control"] = time_rows(
                row_groups, sources, rounds, tmp)
    json.dump(result, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    if sys.argv[1:2] == ["--rss"]:
        sys.path.insert(0, sys.argv[2])
        print(one_call_rss(importlib.import_module(sys.argv[3]),
                           *sys.argv[4:]))
    else:
        main(sys.argv[1:])
