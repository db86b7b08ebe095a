"""Command-line front end: star, evolve, eigen, verify, grid.

Exit codes are stable contracts: 0 success, 1 failed verify check,
2 expression/config error, 4 numeric failure, 5 singular propagator time,
6 I/O error; 3 (non-terminating product) is retired and will not be
reused.  Commands raise; `main` alone turns an error into an exit code,
through the ordered table `EXIT_CODES`, and prints it as one `error:`
line.  Argument errors (unknown flags, non-finite parameters) are
argparse's and exit 2.
"""

import argparse
import json
import math
import sys
import time

from . import dynamics, numerics, oscillator, transition, verify
from . import symbols as sym
from .errors import (BranchAmbiguityError, DegreeGuardError, ExprDegreeError,
                     ExprPowerError, ExprSyntaxError, ExponentOverflowError,
                     NonFiniteError, PositivityError, SingularGaussianError,
                     SingularTimeError)
from .expr import format_symbol, parse
from .star import damped_star, husimi_star, moyal_star, standard_star, star_product
from .symbols import GridSpec, Params

EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 4
EXIT_SINGULAR_TIME = 5
EXIT_IO = 6

EXPORT_FORMATS = ("csv", "json")

# First match wins.
EXIT_CODES = (
    (SingularTimeError, EXIT_SINGULAR_TIME),
    ((ValueError, KeyError, TypeError, ExprSyntaxError, ExprDegreeError,
      ExprPowerError, DegreeGuardError), EXIT_CONFIG),
    ((SingularGaussianError, BranchAmbiguityError, ExponentOverflowError,
      NonFiniteError, PositivityError, OverflowError),
     EXIT_NUMERIC),
    (OSError, EXIT_IO),
)

_PARAM_DEFAULTS = {"m": 1.0, "omega": 1.0, "hbar": 1.0, "gamma": 0.0}


def finite(value, what="value"):
    """A finite float; also the argparse type of the parameter flags."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, not {value!r}")
    return x


def _add_param_flags(p, *names):
    for name in names:
        p.add_argument(f"--{name}", type=finite, default=_PARAM_DEFAULTS[name])


def _params_from_args(args):
    return Params(**{k: getattr(args, k) for k in _PARAM_DEFAULTS
                     if hasattr(args, k)})


def _parse_grid_flag(text):
    parts = text.split(",")
    if len(parts) != 6:
        raise ValueError("--grid expects qmin,qmax,pmin,pmax,nq,np")
    return GridSpec(float(parts[0]), float(parts[1]), float(parts[2]),
                    float(parts[3]), int(parts[4]), int(parts[5]))


def _parse_operand(text, side):
    try:
        return parse(text)
    except (ExprSyntaxError, ExprDegreeError, ExprPowerError) as exc:
        raise ValueError(f"{side} operand: {exc}") from exc


def cmd_star(args):
    lhs = _parse_operand(args.lhs, "left")
    rhs = _parse_operand(args.rhs, "right")
    params = _params_from_args(args)
    if args.product == "moyal":
        star = moyal_star(params)
    elif args.product == "damped":
        star = damped_star(args.gamma, params)
    elif args.product == "standard":
        star = standard_star(params)
    else:
        star = husimi_star(args.s, params)
    result = star_product(lhs, rhs, star)
    if args.grid:
        numerics.export_grid(numerics.sample(result, _parse_grid_flag(args.grid)),
                             args.format, args.out or "star.csv")
    else:
        print(format_symbol(result))
    return 0


def _complex_pair(pair):
    re, im = pair
    return complex(re, im)


def _evolution(doc, params, spec):
    """Snapshot function of the scenario's evolution: times -> one state per
    time.  Every entry is parsed here, before the first step.  rk4 yields
    grids, stepping on from the previous time; every other kind yields the
    exact symbol at each time."""
    kind = doc.get("evolution", "classical")
    if kind == "eigenexpansion":
        coeffs = {(int(e["n"]), int(e["nprime"])):
                  complex(e["re"], e.get("im", 0.0))
                  for e in (_object(e, "each 'coefficients' entry")
                            for e in doc["coefficients"])}
        return lambda times: (dynamics.evolve_eigenexpansion(coeffs, t, params)
                              for t in times)
    if kind == "damped_ansatz":
        entries = [(_complex_pair(e["amplitude"]), _complex_pair(e["energy"]),
                    _complex_pair(e["energy_prime"]), parse(e["state"]))
                   for e in (_object(e, "each 'entries' item")
                             for e in doc["entries"])]
        return lambda times: (dynamics.evolve_damped_ansatz(entries, t, params)
                              for t in times)
    exact = {"classical": dynamics.evolve_classical,
             "naive": dynamics.evolve_naive}
    if kind not in (*exact, "rk4"):
        raise ValueError(f"unknown evolution {kind!r}")
    initial = parse(doc["initial"])
    if kind in exact:
        return lambda times: (exact[kind](initial, t, params) for t in times)
    dt = float(doc.get("dt", 1e-3))
    if not 0 < dt < math.inf:
        raise ValueError("dt must be finite and positive")

    def rk4_states(times):
        # the largest |h| over the intervals stepped bounds every CFLWarning
        h = max((abs(numerics.step_schedule(b - a, dt)[1])
                 for a, b in zip([0.0] + times, times) if b != a), default=dt)
        print(f"cfl_ratio={numerics.cfl_ratio(spec, params, h):.6e}")
        grid, prev_t = numerics.sample(initial, spec), 0.0
        for t in times:
            if t != prev_t:
                grid = numerics.rk4_evolve(grid, "damped", t - prev_t, dt,
                                           params)
                prev_t = t
            yield grid
    return rk4_states


def _object(value, what):
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def _read_scenario(path):
    """(spec, times, outputs, states) of a scenario file, fully checked."""
    with open(path, encoding="utf-8") as fh:
        doc = _object(json.load(fh), "the scenario")
    pdoc = _object(doc.get("params", {}), "'params'")
    params = Params(**{k: finite(pdoc.get(k, v), f"params {k!r}")
                       for k, v in _PARAM_DEFAULTS.items()})
    times = [finite(t, "each time") for t in doc.get("times", [])]
    if times != sorted(times):
        raise ValueError("times must be non-decreasing")
    gdoc = _object(doc["grid"], "'grid'")
    spec = GridSpec(gdoc["q_min"], gdoc["q_max"], gdoc["p_min"],
                    gdoc["p_max"], gdoc["nq"], gdoc["np"])
    outputs = {}
    for o in doc.get("outputs", []):
        o = _object(o, "each 'outputs' entry")
        t, fmt = float(o["time"]), o.get("format", "csv")
        if t not in times:
            raise ValueError(f"output time {t:g} is not in 'times'")
        if fmt not in EXPORT_FORMATS:
            raise ValueError(f"unknown output format {fmt!r}; "
                             f"choices: {', '.join(EXPORT_FORMATS)}")
        outputs.setdefault(t, []).append((fmt, o["path"]))
    return spec, times, outputs, _evolution(doc, params, spec)


def cmd_evolve(args):
    spec, times, outputs, states = _read_scenario(args.scenario)
    # states first: the rk4 generator prints its CFL line on first use
    for state, t in zip(states(times), times):
        on_grid = isinstance(state, numerics.PhaseGrid)
        defect = (float(abs(state.values.imag).max()) if on_grid
                  else dynamics.reality_defect(state))
        print(f"t={t:g} reality_defect={defect:.6e}")
        for fmt, path in outputs.get(t, []):
            numerics.export_grid(
                state if on_grid else numerics.sample(state, spec), fmt, path)
    return 0


def cmd_eigen(args):
    """rho = T_gamma(rho_nn'), T_0 the identity, rho_nn the stationary state;
    H *_gamma rho = E rho and rho *_gamma H = E' rho, E = E_n + i hbar gamma/2.
    """
    if not args.tol > 0:
        raise ValueError(f"--tol must be positive, not {args.tol!r}")
    params = _params_from_args(args)
    n, nprime = args.n, args.n if args.nprime is None else args.nprime
    base = (oscillator.sho_wigner_eigenstate(n, params) if args.nprime is None
            else oscillator.sho_offdiagonal(n, nprime, params))
    rho = transition.apply(transition.damped_transition(args.gamma, params),
                           base)
    e, e_prime = (oscillator.damped_energy(k, params) for k in (n, nprime))
    H, star = oscillator.hamiltonian(params), damped_star(args.gamma, params)
    left = sym.residual(star_product(H, rho, star), sym.scale(rho, e))
    right = sym.residual(star_product(rho, H, star), sym.scale(rho, e_prime))
    print(format_symbol(rho))
    print(f"eigenvalue: {_fmt_complex(e)}")
    print(f"residual H *_gamma rho - E rho, E = {_fmt_complex(e)}: "
          f"{left:.3e}{_tol_mark(left, args.tol)}")
    print(f"residual rho *_gamma H - E' rho, E' = {_fmt_complex(e_prime)}: "
          f"{right:.3e}{_tol_mark(right, args.tol)}")
    if args.gamma > 0:
        pair = sym.residual(
            star_product(H, rho, damped_star(-args.gamma, params)),
            sym.scale(rho, e.conjugate()))
        print("conjugate pair H *_-gamma rho - conj(E) rho "
              f"(measured, not an identity): {pair:.3e}")
    return 0


def _tol_mark(res, tol):
    return "" if res <= tol else "  [exceeds tol]"


def _fmt_complex(z):
    """E_n + i hbar gamma/2, whose imaginary part is never negative, in
    shortest round-trip digits, so the printed value is exact."""
    return f"{z.real!r} + {z.imag!r}i" if z.imag else repr(z.real)


def cmd_verify(args):
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    if any(n not in verify.SUITES for n in names):
        raise ValueError(f"unknown suite {args.suite!r}; "
                         f"choices: all, {', '.join(verify.SUITES)}")
    all_ok = True
    for name in names:
        desc, fn = verify.SUITES[name]
        if not args.json:
            print(f"== {name}: {desc}")
        t0 = time.perf_counter()
        checks = fn()
        seconds = time.perf_counter() - t0
        for check in checks:
            if args.json:  # values may be numpy scalars, which json rejects
                print(json.dumps({"suite": name, "name": check.name,
                                  "value": float(check.value),
                                  "threshold": float(check.threshold),
                                  "relation": check.relation,
                                  "passed": bool(check.passed),
                                  "seconds": seconds}))
            else:
                print("  " + check.line())
            all_ok = all_ok and check.passed
    if not args.json:
        print("verification " + ("PASSED" if all_ok else "FAILED"))
    return 0 if all_ok else EXIT_CHECK_FAILED


def cmd_grid(args):
    f = _parse_operand(args.expression, "grid")
    numerics.export_grid(numerics.sample(f, _parse_grid_flag(args.grid)),
                         args.format, args.out)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="starkit",
        description="Phase-space star products and damped-oscillator dynamics")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("star", help="star-multiply two expressions")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--product", choices=("moyal", "damped", "standard",
                                         "husimi"), default="moyal")
    p.add_argument("--s", type=finite, default=1.0,
                   help="husimi squeezing parameter")
    _add_param_flags(p, "m", "hbar", "gamma")
    p.add_argument("--grid", help="qmin,qmax,pmin,pmax,nq,np: export instead "
                   "of printing")
    p.add_argument("--format", choices=EXPORT_FORMATS, default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_star)

    p = sub.add_parser("evolve", help="run a JSON scenario")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("eigen", help="print (damped) eigenfunctions")
    p.add_argument("n", type=int)
    p.add_argument("nprime", type=int, nargs="?")
    _add_param_flags(p, "m", "omega", "hbar", "gamma")
    p.add_argument("--tol", type=finite, default=1e-10,
                   help="residual mark threshold, > 0")
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("verify", help="run identity/property suites")
    p.add_argument("suite", nargs="?", default="all")
    p.add_argument("--json", action="store_true",
                   help="one JSON object per check row, with the suite's "
                   "wall time in seconds")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("grid", help="sample an expression and export it")
    p.add_argument("expression")
    p.add_argument("--grid", required=True,
                   help="qmin,qmax,pmin,pmax,nq,np")
    p.add_argument("--format", choices=EXPORT_FORMATS, default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_grid)
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse usage failures exit with 2, matching the config contract
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return args.func(args)
    except Exception as exc:
        code = next((c for types, c in EXIT_CODES if isinstance(exc, types)),
                    None)
        if code is None:
            raise
        message = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return code


def entry():
    raise SystemExit(main())
