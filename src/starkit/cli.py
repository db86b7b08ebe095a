"""Command-line front end: star, evolve, eigen, verify, grid.

Exit codes are stable contracts: 0 success, 1 failed verify check,
2 expression/config error, 4 numeric failure, 5 singular propagator time,
6 I/O error; 3 (non-terminating product) is retired and will not be
reused.  STARKIT_TOL overrides the default tolerance used by symbol
comparisons that the CLI reports.
"""

import argparse
import json
import os
import sys

from . import dynamics, numerics, oscillator, verify
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

_NUMERIC_ERRORS = (SingularGaussianError, BranchAmbiguityError,
                   ExponentOverflowError, NonFiniteError, PositivityError,
                   DegreeGuardError, NotImplementedError, OverflowError)


def default_tol():
    raw = os.environ.get("STARKIT_TOL", "")
    try:
        return float(raw) if raw else 1e-10
    except ValueError:
        return 1e-10


def _params_from_args(args):
    return Params(m=args.m, omega=args.omega, hbar=args.hbar,
                  gamma=getattr(args, "gamma", 0.0))


def _add_param_flags(p):
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=default_tol())


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
        raise SystemExit(_fail(EXIT_CONFIG, f"{side} operand: {exc}"))


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    return code


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
    try:
        result = star_product(lhs, rhs, star)
    except _NUMERIC_ERRORS as exc:
        return _fail(EXIT_NUMERIC, str(exc))
    if args.grid:
        try:
            spec = _parse_grid_flag(args.grid)
        except ValueError as exc:
            return _fail(EXIT_CONFIG, str(exc))
        try:
            numerics.export_grid(numerics.sample(result, spec), args.format,
                                 args.out or "star.csv")
        except _NUMERIC_ERRORS as exc:
            return _fail(EXIT_NUMERIC, str(exc))
        except OSError as exc:
            return _fail(EXIT_IO, str(exc))
    else:
        print(format_symbol(result))
    return 0


def _scenario_state(doc, params):
    evolution = doc.get("evolution", "classical")
    if evolution in ("classical", "rk4", "naive"):
        if "initial" not in doc:
            raise ValueError("scenario needs an 'initial' expression")
        return parse(doc["initial"])
    if evolution == "eigenexpansion":
        if "coefficients" not in doc:
            raise ValueError("eigenexpansion scenario needs 'coefficients'")
        return None
    if evolution == "damped_ansatz":
        if "entries" not in doc:
            raise ValueError("damped_ansatz scenario needs 'entries'")
        return None
    raise ValueError(f"unknown evolution {evolution!r}")


def _expansion_coeffs(doc):
    return {(int(e["n"]), int(e["nprime"])): complex(e["re"], e.get("im", 0.0))
            for e in doc["coefficients"]}


def _ansatz_entries(doc):
    out = []
    for e in doc["entries"]:
        amp = complex(e["amplitude"][0], e["amplitude"][1])
        ev = complex(e["energy"][0], e["energy"][1])
        ev_p = complex(e["energy_prime"][0], e["energy_prime"][1])
        out.append((amp, ev, ev_p, parse(e["state"])))
    return out


def cmd_evolve(args):
    try:
        with open(args.scenario, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    except json.JSONDecodeError as exc:
        return _fail(EXIT_CONFIG, f"bad scenario JSON: {exc}")
    try:
        pdoc = doc.get("params", {})
        params = Params(m=pdoc.get("m", 1.0), omega=pdoc.get("omega", 1.0),
                        hbar=pdoc.get("hbar", 1.0), gamma=pdoc.get("gamma", 0.0))
        times = [float(t) for t in doc.get("times", [])]
        if times != sorted(times):
            raise ValueError("times must be non-decreasing")
        gdoc = doc["grid"]
        spec = GridSpec(gdoc["q_min"], gdoc["q_max"], gdoc["p_min"],
                        gdoc["p_max"], int(gdoc["nq"]), int(gdoc["np"]))
        evolution = doc.get("evolution", "classical")
        initial = _scenario_state(doc, params)
        outputs = {}
        for o in doc.get("outputs", []):
            t, fmt = float(o["time"]), o.get("format", "csv")
            if t not in times:
                raise ValueError(f"output time {t:g} is not in 'times'")
            if fmt not in EXPORT_FORMATS:
                raise ValueError(f"unknown output format {fmt!r}; "
                                 f"choices: {', '.join(EXPORT_FORMATS)}")
            outputs.setdefault(t, []).append((fmt, o["path"]))
    except (KeyError, ValueError, TypeError, ExprSyntaxError,
            ExprDegreeError, ExprPowerError) as exc:
        return _fail(EXIT_CONFIG, f"bad scenario: {exc}")

    def state_at(t):
        if evolution == "classical":
            return dynamics.evolve_classical(initial, t, params)
        if evolution == "naive":
            dt = float(doc.get("dt", 0.05))
            return dynamics.euler_evolve(
                initial, lambda r: dynamics.naive_rhs(r, params), t, dt) \
                if t > 0 else initial
        if evolution == "eigenexpansion":
            return dynamics.evolve_eigenexpansion(_expansion_coeffs(doc), t,
                                                  params)
        if evolution == "damped_ansatz":
            return dynamics.evolve_damped_ansatz(_ansatz_entries(doc), t,
                                                 params)
        return None  # rk4 handled on grids below

    try:
        if evolution == "rk4":
            dt = float(doc.get("dt", 1e-3))
            print(f"cfl_ratio={numerics.cfl_ratio(spec, params, dt):.6e}")
            grid = numerics.sample(initial, spec)
            prev_t = 0.0
            for t in times:
                if t > prev_t:
                    grid = numerics.rk4_evolve(grid, "damped", t - prev_t, dt,
                                               params)
                    prev_t = t
                defect = float(abs(grid.values.imag).max())
                print(f"t={t:g} reality_defect={defect:.6e}")
                for fmt, path in outputs.get(t, []):
                    numerics.export_grid(grid, fmt, path)
        else:
            for t in times:
                state = state_at(t)
                defect = dynamics.reality_defect(state)
                print(f"t={t:g} reality_defect={defect:.6e}")
                for fmt, path in outputs.get(t, []):
                    numerics.export_grid(numerics.sample(state, spec), fmt,
                                         path)
    except SingularTimeError as exc:
        return _fail(EXIT_SINGULAR_TIME, str(exc))
    except _NUMERIC_ERRORS as exc:
        return _fail(EXIT_NUMERIC, str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    return 0


def cmd_eigen(args):
    params = _params_from_args(args)
    n = args.n
    if n < 0 or (args.nprime is not None and args.nprime < 0):
        return _fail(EXIT_CONFIG, "indices must be non-negative")
    try:
        if args.nprime is None:
            if args.gamma:
                rho, ev = oscillator.damped_eigenstate(n, params)
                res = sym.residual(
                    star_product(oscillator.hamiltonian(params), rho,
                                 damped_star(args.gamma, params)),
                    sym.scale(rho, ev.value))
                print(format_symbol(rho))
                print(f"eigenvalue: {_fmt_complex(ev.value)}")
                print(f"residual: {res:.3e}{_tol_mark(res, args.tol)}")
            else:
                rho = oscillator.sho_wigner_eigenstate(n, params)
                en = oscillator.energy(n, params)
                star = moyal_star(params)
                res = sym.residual(
                    star_product(oscillator.hamiltonian(params), rho, star),
                    sym.scale(rho, en))
                print(format_symbol(rho))
                print(f"eigenvalue: {en!r}")
                print(f"residual: {res:.3e}{_tol_mark(res, args.tol)}")
        else:
            if args.gamma:
                rho, right, left = oscillator.damped_offdiagonal_candidate(
                    n, args.nprime, params)
                shift = 0.5j * params.hbar * args.gamma
                ev_r = oscillator.energy(n, params) + shift
                ev_l = oscillator.energy(args.nprime, params) + shift
                print(format_symbol(rho))
                print(f"eigenvalue (left):  {_fmt_complex(ev_r)}")
                print(f"eigenvalue (right): {_fmt_complex(ev_l)}")
                print(f"residual (right eigen equation): "
                      f"{right:.3e}{_tol_mark(right, args.tol)}")
                print(f"residual (conjugate-pair diagnostic): {left:.3e}")
            else:
                rho = oscillator.sho_offdiagonal(n, args.nprime, params)
                H = oscillator.hamiltonian(params)
                star = moyal_star(params)
                e1 = oscillator.energy(n, params)
                e2 = oscillator.energy(args.nprime, params)
                r1 = sym.residual(star_product(H, rho, star),
                                  sym.scale(rho, e1))
                r2 = sym.residual(star_product(rho, H, star),
                                  sym.scale(rho, e2))
                print(format_symbol(rho))
                print(f"E = {e1!r}, E' = {e2!r}")
                print(f"residuals: {r1:.3e}{_tol_mark(r1, args.tol)}, "
                      f"{r2:.3e}{_tol_mark(r2, args.tol)}")
    except DegreeGuardError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    except _NUMERIC_ERRORS as exc:
        return _fail(EXIT_NUMERIC, str(exc))
    return 0


def _tol_mark(res, tol):
    return "" if res <= tol else "  [exceeds tol]"


def _fmt_complex(z):
    if z.imag >= 0:
        return f"{z.real:g} + {z.imag:g}i"
    return f"{z.real:g} - {-z.imag:g}i"


def cmd_verify(args):
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    if any(n not in verify.SUITES for n in names):
        return _fail(EXIT_CONFIG, f"unknown suite {args.suite!r}; "
                     f"choices: all, {', '.join(verify.SUITES)}")
    all_ok = True
    for name in names:
        desc, fn = verify.SUITES[name]
        print(f"== {name}: {desc}")
        for check in fn():
            print("  " + check.line())
            all_ok = all_ok and check.passed
    print("verification " + ("PASSED" if all_ok else "FAILED"))
    return 0 if all_ok else EXIT_CHECK_FAILED


def cmd_grid(args):
    f = _parse_operand(args.expression, "grid")
    try:
        spec = _parse_grid_flag(args.grid)
    except ValueError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    try:
        numerics.export_grid(numerics.sample(f, spec), args.format, args.out)
    except _NUMERIC_ERRORS as exc:
        return _fail(EXIT_NUMERIC, str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
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
    p.add_argument("--s", type=float, default=1.0,
                   help="husimi squeezing parameter")
    _add_param_flags(p)
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
    _add_param_flags(p)
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("verify", help="run identity/property suites")
    p.add_argument("suite", nargs="?", default="all")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("grid", help="sample an expression and export it")
    p.add_argument("expression")
    p.add_argument("--grid", required=True,
                   help="qmin,qmax,pmin,pmax,nq,np")
    p.add_argument("--format", choices=EXPORT_FORMATS, default="csv")
    p.add_argument("--out", required=True)
    _add_param_flags(p)
    p.set_defaults(func=cmd_grid)
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse usage failures exit with 2, matching the config contract
        code = exc.code
        return code if isinstance(code, int) else EXIT_CONFIG


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
