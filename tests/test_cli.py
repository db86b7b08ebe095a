import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import starkit as sk
from starkit import numerics, oscillator, verify
from starkit import symbols as sym
from starkit.cli import main
from starkit.errors import CFLWarning
from starkit.expr import parse


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_star_moyal(capsys):
    code, out, _ = run(capsys, "star", "q", "p", "--product", "moyal")
    assert code == 0
    assert out.strip() == "q*p + 0.5*i"


def test_star_damped(capsys):
    code, out, _ = run(capsys, "star", "p", "p", "--product", "damped",
                       "--gamma", "0.1")
    assert code == 0
    assert out.strip() == "p^2 - 0.1*i"


@pytest.mark.parametrize("product, printed", [
    ("standard", "q*p + i"), ("husimi", "q*p + 0.5*i")])
def test_star_prints_the_product(capsys, product, printed):
    code, out, _ = run(capsys, "star", "q", "p", "--product", product)
    assert code == 0
    assert out.strip() == printed


def test_star_gaussian_pair_closed_form(capsys):
    # two pure Gaussians go through the group formula
    code, out, _ = run(capsys, "star", "exp(-q^2)", "exp(-p^2)",
                       "--product", "damped", "--gamma", "0.1")
    assert code == 0
    got = parse(out.strip())
    direct = sk.star_product(parse("exp(-q^2)"), parse("exp(-p^2)"),
                             sk.damped_star(0.1, sym.Params(gamma=0.1)))
    assert sym.approx_equal(got, direct, 1e-10).ok


def test_star_monomial_gaussian_pair(capsys):
    # monomials on Gaussians on both sides: the doubled-space group formula
    code, out, _ = run(capsys, "star", "q*exp(-q^2)", "exp(-p^2)",
                       "--product", "damped", "--gamma", "0.1")
    assert code == 0
    got = parse(out.strip())
    direct = sk.star_product(parse("q*exp(-q^2)"), parse("exp(-p^2)"),
                             sk.damped_star(0.1, sym.Params(gamma=0.1)))
    assert sym.approx_equal(got, direct, 1e-10).ok


def test_star_parse_error_names_operand(capsys):
    code, _, err = run(capsys, "star", "q+", "p")
    assert code == 2
    assert "left operand" in err
    code, _, err = run(capsys, "star", "q", "p^-1")
    assert code == 2
    assert "right operand" in err


def test_star_numeric_failure_exit_code(capsys):
    code, _, err = run(capsys, "star", "exp(i*q^2)", "exp(i*p^2)")
    assert code == 4


def test_star_overflowing_divisor_exit_code(capsys):
    code, out, err = run(capsys, "star", "--", "1/10^400", "1")
    assert code == 4
    assert out == ""
    assert err.count("error:") == 1 and len(err.strip().splitlines()) == 1


def test_star_output_reparses(capsys):
    code, out, _ = run(capsys, "star", "exp(-(q^2+p^2))", "exp(-(q^2+p^2))",
                       "--product", "moyal")
    assert code == 0
    got = parse(out.strip())
    direct = sk.star_product(parse("exp(-(q^2+p^2))"),
                             parse("exp(-(q^2+p^2))"), sk.moyal_star())
    assert sym.approx_equal(got, direct, 1e-10).ok


def test_star_grid_export(capsys, tmp_path):
    dest = tmp_path / "out.csv"
    code, _, _ = run(capsys, "star", "q", "p", "--grid=-1,1,-1,1,5,5",
                     "--out", str(dest))
    assert code == 0
    grid = numerics.load_grid(dest)
    assert grid.spec.nq == 5


def test_eigen_defaults(capsys):
    code, out, _ = run(capsys, "eigen", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert sym.approx_equal(parse(lines[0]),
                            sk.sho_wigner_eigenstate(0), 1e-10).ok
    assert "eigenvalue: 0.5" in out


def test_eigen_damped(capsys):
    code, out, _ = run(capsys, "eigen", "0", "--gamma", "0.1")
    assert code == 0
    assert "0.5 + 0.05i" in out


@pytest.mark.parametrize("gamma", [0.0, 0.3])
def test_eigen_prints_damped_eigenstate_value(gamma, capsys):
    params = sym.Params(m=1.7, omega=0.8, hbar=0.6, gamma=gamma)
    code, out, _ = run(capsys, "eigen", "1", "--m", "1.7", "--omega", "0.8",
                       "--hbar", "0.6", "--gamma", str(gamma))
    assert code == 0
    line = next(ln for ln in out.splitlines()
                if ln.startswith("eigenvalue: "))
    real, _, imag = line.split(": ")[1].removesuffix("i").partition(" + ")
    want = oscillator.damped_eigenstate(1, params)[1]
    assert complex(float(real), float(imag or 0.0)) == want
    assert want.real == 0.7200000000000001  # sho energy(1) would be 0.72


def test_eigen_offdiagonal(capsys):
    code, out, _ = run(capsys, "eigen", "1", "0")
    assert code == 0
    assert "E = 1.5" in out and "E' = 0.5" in out


def test_eigen_damped_offdiagonal_residuals(capsys):
    code, out, _ = run(capsys, "eigen", "1", "0", "--gamma", "0.1")
    assert code == 0
    lines = out.strip().splitlines()
    residuals = [float(ln.rsplit(": ", 1)[1]) for ln in lines
                 if ln.startswith("residual ")]
    assert len(residuals) == 2 and max(residuals) <= 1e-12
    assert "E = 1.5 + 0.05i" in out and "E' = 0.5 + 0.05i" in out
    pair = [ln for ln in lines if ln.startswith("conjugate pair ")]
    assert len(pair) == 1 and "(measured, not an identity)" in pair[0]
    assert float(pair[0].rsplit(": ", 1)[1]) > 0.1


def test_eigen_bad_indices(capsys):
    code, _, _ = run(capsys, "eigen", "9", "9")
    assert code == 2
    code, _, _ = run(capsys, "eigen", "--", "-1")
    assert code == 2


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "bracket")
    assert code == 0
    assert "[PASS]" in out and "verification PASSED" in out


def test_verify_equivalence_suite(capsys):
    code, out, _ = run(capsys, "verify", "equivalence")
    assert code == 0
    assert out.count("[PASS]") == 3


def test_verify_json_rows(capsys):
    code, out, _ = run(capsys, "verify", "equivalence", "--json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 3
    keys = {"suite", "name", "value", "threshold", "relation", "passed",
            "seconds"}
    for row in rows:
        assert set(row) == keys and row["suite"] == "equivalence"
        assert row["passed"] is True and row["relation"] == "<="
        assert 0 <= row["value"] <= row["threshold"] == 1e-10
        assert row["name"].startswith("c-equivalence")
    # the suite's wall time, the same on each of its rows
    assert rows[0]["seconds"] > 0 and len({r["seconds"] for r in rows}) == 1
    # rows whose values are numpy scalars print as JSON too
    code, out, _ = run(capsys, "verify", "spectral", "--json")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and rows and all(r["passed"] is True for r in rows)


def test_verify_json_keeps_the_exit_code(capsys, monkeypatch):
    failing = verify.CheckResult("always fails", 2.0, 1.0)
    monkeypatch.setitem(verify.SUITES, "bracket",
                        ("a failing suite", lambda: [failing]))
    code, out, _ = run(capsys, "verify", "bracket", "--json")
    assert code == 1
    row = json.loads(out)
    assert row["passed"] is False and row["value"] == 2.0
    code, out, _ = run(capsys, "verify", "bracket")
    assert code == 1 and "verification FAILED" in out


def test_verify_reality_suite(capsys):
    # the naive-equation defect is reported as a passing exceeds-bound witness
    code, out, _ = run(capsys, "verify", "reality")
    assert code == 0
    assert "> 1.0e-03" in out and "verification PASSED" in out


def test_verify_spectral_suite(capsys):
    code, out, _ = run(capsys, "verify", "spectral")
    assert code == 0 and "verification PASSED" in out
    short = [line for line in out.splitlines() if "n <= 60 sum" in line]
    assert len(short) == 2
    assert all("[PASS]" in line for line in short)


def test_module_form_runs():
    # python -m starkit is the console script without installation
    src = str(Path(sk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "starkit", "verify", "complexification"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert "verification PASSED" in proc.stdout


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 2


def test_grid_subcommand(capsys, tmp_path):
    dest = tmp_path / "rho.json"
    code, _, _ = run(capsys, "grid", "2*exp(-(q^2+p^2))",
                     "--grid=-2,2,-2,2,9,9", "--format", "json",
                     "--out", str(dest))
    assert code == 0
    grid = numerics.load_grid(dest)
    assert abs(grid.values[4, 4] - 2.0) < 1e-12


def _write_scenario(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_evolve_stationary_scenario(capsys, tmp_path):
    outs = [tmp_path / f"s{k}.csv" for k in range(3)]
    doc = {
        "params": {"gamma": 0.0},
        "initial": "2*exp(-(q^2+p^2))",
        "evolution": "classical",
        "times": [0.0, 0.5, 1.0],
        "grid": {"q_min": -3, "q_max": 3, "p_min": -3, "p_max": 3,
                 "nq": 9, "np": 9},
        "outputs": [{"time": t, "format": "csv", "path": str(p)}
                    for t, p in zip([0.0, 0.5, 1.0], outs)],
    }
    code, out, _ = run(capsys, "evolve",
                       _write_scenario(tmp_path / "sc.json", doc))
    assert code == 0
    grids = [numerics.load_grid(p) for p in outs]
    for g in grids[1:]:
        assert numerics.grid_distance(g, grids[0]) < 1e-10
    assert all("reality_defect=" in ln for ln in out.strip().splitlines())


def test_evolve_classical_defect_stays_zero(capsys, tmp_path):
    doc = {
        "params": {"gamma": 0.1},
        "initial": "2*exp(-(q^2+p^2))",
        "evolution": "classical",
        "times": [0.0, 2.5, 5.0],
        "grid": {"q_min": -3, "q_max": 3, "p_min": -3, "p_max": 3,
                 "nq": 9, "np": 9},
    }
    code, out, _ = run(capsys, "evolve",
                       _write_scenario(tmp_path / "sc.json", doc))
    assert code == 0
    defects = [float(ln.split("reality_defect=")[1])
               for ln in out.strip().splitlines()]
    assert all(d <= 1e-12 for d in defects)


def test_evolve_naive_defect_grows(capsys, tmp_path):
    doc = {
        "params": {"gamma": 0.1},
        "initial": "2*exp(-(q^2+p^2))",
        "evolution": "naive",
        "dt": 0.05,
        "times": [0.0, 0.25, 0.5],
        "grid": {"q_min": -3, "q_max": 3, "p_min": -3, "p_max": 3,
                 "nq": 9, "np": 9},
    }
    code, out, _ = run(capsys, "evolve",
                       _write_scenario(tmp_path / "sc.json", doc))
    assert code == 0
    defects = [float(ln.split("reality_defect=")[1])
               for ln in out.strip().splitlines()]
    assert defects[0] == 0.0
    assert defects[0] < defects[1] < defects[2]


def test_evolve_eigenexpansion_scenario(capsys, tmp_path):
    doc = {
        "initial": "",
        "evolution": "eigenexpansion",
        "coefficients": [{"n": 1, "nprime": 0, "re": 1.0, "im": 0.0}],
        "times": [0.0],
        "grid": {"q_min": -3, "q_max": 3, "p_min": -3, "p_max": 3,
                 "nq": 9, "np": 9},
    }
    code, _, _ = run(capsys, "evolve",
                     _write_scenario(tmp_path / "sc.json", doc))
    assert code == 0


def test_evolve_rk4_scenario(capsys, tmp_path):
    dest = tmp_path / "rk4.csv"
    doc = {
        "params": {"gamma": 0.1},
        "initial": "exp(-(q^2+p^2)/2)",
        "evolution": "rk4",
        "dt": 0.005,
        "times": [0.0, 0.1],
        "grid": {"q_min": -6, "q_max": 6, "p_min": -6, "p_max": 6,
                 "nq": 61, "np": 61},
        "outputs": [{"time": 0.1, "format": "csv", "path": str(dest)}],
    }
    code, out, _ = run(capsys, "evolve",
                       _write_scenario(tmp_path / "sc.json", doc))
    assert code == 0
    cfl = [ln for ln in out.splitlines() if ln.startswith("cfl_ratio=")]
    assert len(cfl) == 1
    # dt * max|v| / h = 0.005 * (6 + 2 * 0.1 * 6) / 0.2
    assert float(cfl[0].split("=")[1]) == pytest.approx(0.18, rel=1e-6)
    grid = numerics.load_grid(dest)
    exact = sk.evolve_classical(parse("exp(-(q^2+p^2)/2)"), 0.1,
                                sym.Params(gamma=0.1))
    sampled = numerics.sample(exact, grid.spec)
    assert numerics.grid_distance(grid, sampled) < 1e-3


def test_evolve_rk4_cfl_ratio_at_step_taken(capsys, tmp_path):
    # dt = 0.02 would give 0.40, but t = 0.029 is one step of h = 0.029
    doc = {
        "initial": "exp(-(q^2+p^2)/2)",
        "evolution": "rk4",
        "dt": 0.02,
        "times": [0.0, 0.029],
        "grid": {"q_min": -6, "q_max": 6, "p_min": -6, "p_max": 6,
                 "nq": 41, "np": 41},
    }
    with pytest.warns(CFLWarning, match="h = 0.029"):
        code, out, _ = run(capsys, "evolve",
                           _write_scenario(tmp_path / "sc.json", doc))
    assert code == 0
    cfl = [ln for ln in out.splitlines() if ln.startswith("cfl_ratio=")]
    # h * max|v| / dq = 0.029 * 6 / 0.3
    assert float(cfl[0].split("=")[1]) == pytest.approx(0.58, rel=1e-12)


def test_evolve_rk4_unstable_exits_numeric(capsys, tmp_path):
    doc = {
        "params": {"gamma": 0.1},
        "initial": "exp(-(q^2+p^2)/2)",
        "evolution": "rk4",
        "dt": 0.5,
        "times": [0.0, 40.0],
        "grid": {"q_min": -6, "q_max": 6, "p_min": -6, "p_max": 6,
                 "nq": 61, "np": 61},
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CFLWarning)
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "evolve",
                             _write_scenario(tmp_path / "sc.json", doc))
    assert code == 4
    assert "cfl_ratio=1.800000e+01" in out
    assert "cfl_ratio=18" in err


def test_evolve_rk4_negative_time(capsys, tmp_path):
    # t = -0.5 is reached by stepping backward from 0, then forward again
    dests = [tmp_path / "back.csv", tmp_path / "again.csv"]
    doc = {
        "params": {"gamma": 0.1},
        "initial": "exp(-(q^2+p^2)/2)",
        "evolution": "rk4",
        "dt": 0.005,
        "times": [-0.5, 0.0],
        "grid": {"q_min": -6, "q_max": 6, "p_min": -6, "p_max": 6,
                 "nq": 61, "np": 61},
        "outputs": [{"time": t, "format": "csv", "path": str(d)}
                    for t, d in zip([-0.5, 0.0], dests)],
    }
    code, out, _ = run(capsys, "evolve",
                       _write_scenario(tmp_path / "sc.json", doc))
    assert code == 0
    # |h| * max|v| / dq = 0.005 * (6 + 2 * 0.1 * 6) / 0.2 on both intervals
    cfl = [ln for ln in out.splitlines() if ln.startswith("cfl_ratio=")]
    assert float(cfl[0].split("=")[1]) == pytest.approx(0.18, rel=1e-6)
    initial = parse("exp(-(q^2+p^2)/2)")
    for dest, t in zip(dests, [-0.5, 0.0]):
        grid = numerics.load_grid(dest)
        exact = numerics.sample(
            sk.evolve_classical(initial, t, sym.Params(gamma=0.1)), grid.spec)
        assert numerics.grid_distance(grid, exact) < 1e-3


def test_evolve_naive_negative_time(capsys, tmp_path):
    # the exact flow runs both ways; no dt is read
    dest = tmp_path / "back.csv"
    doc = {
        "params": {"gamma": 0.1},
        "initial": "2*exp(-(q^2+p^2))",
        "evolution": "naive",
        "times": [-0.5, 0.0],
        "grid": {"q_min": -3, "q_max": 3, "p_min": -3, "p_max": 3,
                 "nq": 9, "np": 9},
        "outputs": [{"time": -0.5, "format": "csv", "path": str(dest)}],
    }
    code, out, _ = run(capsys, "evolve",
                       _write_scenario(tmp_path / "sc.json", doc))
    assert code == 0
    assert len(out.strip().splitlines()) == 2
    grid = numerics.load_grid(dest)
    exact = numerics.sample(sk.evolve_naive(
        parse("2*exp(-(q^2+p^2))"), -0.5, sym.Params(gamma=0.1)), grid.spec)
    assert numerics.grid_distance(grid, exact) == 0.0


def test_evolve_damped_ansatz_scenario(capsys, tmp_path):
    doc = {
        "evolution": "damped_ansatz",
        "entries": [{"amplitude": [1.0, 0.0], "energy": [0.5, 0.05],
                     "energy_prime": [0.5, 0.05],
                     "state": "2*exp(-(q^2+p^2))"}],
        "times": [0.0, 1.0],
        "grid": {"q_min": -3, "q_max": 3, "p_min": -3, "p_max": 3,
                 "nq": 9, "np": 9},
    }
    code, _, _ = run(capsys, "evolve",
                     _write_scenario(tmp_path / "sc.json", doc))
    assert code == 0


def test_evolve_config_errors(capsys, tmp_path):
    code, _, _ = run(capsys, "evolve", str(tmp_path / "missing.json"))
    assert code == 6
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, "evolve", str(bad))
    assert code == 2
    doc = {"initial": "q", "evolution": "classical", "times": [1.0, 0.5],
           "grid": {"q_min": -1, "q_max": 1, "p_min": -1, "p_max": 1,
                    "nq": 3, "np": 3}}
    code, _, err = run(capsys, "evolve",
                       _write_scenario(tmp_path / "sc.json", doc))
    assert code == 2
    assert "non-decreasing" in err
    doc["times"] = [0.0, 0.5]
    out = tmp_path / "never.csv"
    for entry, message in (({"time": 0.25, "path": str(out)}, "not in 'times'"),
                           ({"time": 0.5, "format": "xml", "path": str(out)},
                            "unknown output format")):
        doc["outputs"] = [entry]
        code, _, err = run(capsys, "evolve",
                           _write_scenario(tmp_path / "sc.json", doc))
        assert code == 2
        assert message in err
        assert not out.exists()


def test_evolve_io_error(capsys, tmp_path):
    doc = {
        "initial": "q",
        "evolution": "classical",
        "times": [0.0],
        "grid": {"q_min": -1, "q_max": 1, "p_min": -1, "p_max": 1,
                 "nq": 3, "np": 3},
        "outputs": [{"time": 0.0, "format": "csv",
                     "path": str(tmp_path / "no" / "dir" / "x.csv")}],
    }
    code, _, _ = run(capsys, "evolve",
                     _write_scenario(tmp_path / "sc.json", doc))
    assert code == 6



GRID_3 = {"q_min": -1, "q_max": 1, "p_min": -1, "p_max": 1, "nq": 3, "np": 3}


def _scenario_argv(tmp_path, doc):
    doc = {"times": [0.0], "grid": GRID_3, **doc}
    return ["evolve", _write_scenario(tmp_path / "sc.json", doc)]


def _singular_time(tmp_path, monkeypatch):
    # no shipped scenario reaches a propagator; route one through evolve
    def at_singular_time(rho, t, params):
        return oscillator.undamped_propagator(math.pi, params)
    monkeypatch.setattr(sk.dynamics, "evolve_classical", at_singular_time)
    return _scenario_argv(tmp_path, {"initial": "q"})


EXIT_CASES = {
    "negative gamma": (2, "gamma", lambda tmp, mp: [
        "star", "q", "p", "--gamma", "-1"]),
    "husimi s = 0": (2, "squeezing", lambda tmp, mp: [
        "star", "q", "p", "--product", "husimi", "--s", "0"]),
    "non-finite m": (2, "--m", lambda tmp, mp: ["star", "q", "p", "--m", "nan"]),
    "eigen negative gamma": (2, "gamma", lambda tmp, mp: [
        "eigen", "0", "--gamma", "-0.5"]),
    "eigen tol NaN": (2, "--tol", lambda tmp, mp: ["eigen", "1", "--tol",
                                                   "nan"]),
    "eigen tol Infinity": (2, "--tol", lambda tmp, mp: ["eigen", "1", "--tol",
                                                        "inf"]),
    "eigen tol negative": (2, "--tol must be positive", lambda tmp, mp: [
        "eigen", "1", "--tol", "-1"]),
    "ansatz state syntax": (2, "position", lambda tmp, mp: _scenario_argv(
        tmp, {"evolution": "damped_ansatz",
              "entries": [{"amplitude": [1, 0], "energy": [0.5, 0.05],
                           "energy_prime": [0.5, 0.05],
                           "state": "exp(-q^2"}]})),
    "expansion without nprime": (2, "nprime", lambda tmp, mp: _scenario_argv(
        tmp, {"evolution": "eigenexpansion",
              "coefficients": [{"n": 1, "re": 1.0}]})),
    "expansion entry not an object": (
        2, "'coefficients' entry must be a JSON object",
        lambda tmp, mp: _scenario_argv(
            tmp, {"evolution": "eigenexpansion", "coefficients": ["x"]})),
    "ansatz item not an object": (
        2, "'entries' item must be a JSON object",
        lambda tmp, mp: _scenario_argv(
            tmp, {"evolution": "damped_ansatz", "entries": [["x"]]})),
    "expansion past the ladder guard": (2, "guard", lambda tmp, mp:
                                        _scenario_argv(
        tmp, {"evolution": "eigenexpansion",
              "coefficients": [{"n": 10, "nprime": 10, "re": 1.0}]})),
    "grid takes no parameters": (2, "--hbar", lambda tmp, mp: [
        "grid", "q", "--grid=-1,1,-1,1,3,3", "--out", str(tmp / "g.csv"),
        "--hbar", "1"]),
    "singular propagator time": (5, "vanishes", _singular_time),
    "scenario not an object": (2, "scenario must be a JSON object",
                               lambda tmp, mp: ["evolve", _write_scenario(
                                   tmp / "sc.json", [])]),
    "params not an object": (2, "'params' must be a JSON object",
                             lambda tmp, mp: _scenario_argv(
                                 tmp, {"initial": "q", "params": []})),
    "output entry not an object": (2, "'outputs' entry must be a JSON object",
                                   lambda tmp, mp: _scenario_argv(
        tmp, {"initial": "q", "outputs": ["out.csv"]})),
    "time NaN": (2, "each time must be finite", lambda tmp, mp: _scenario_argv(
        tmp, {"initial": "q", "times": [0.0, math.nan]})),
    "time Infinity": (2, "each time must be finite",
                      lambda tmp, mp: _scenario_argv(
        tmp, {"initial": "q", "times": [0.0, math.inf]})),
    "gamma NaN": (2, "params 'gamma' must be finite",
                  lambda tmp, mp: _scenario_argv(
        tmp, {"initial": "q", "params": {"gamma": math.nan}})),
    "rk4 dt Infinity": (2, "dt must be finite and positive",
                        lambda tmp, mp: _scenario_argv(
        tmp, {"initial": "q", "evolution": "rk4", "dt": math.inf})),
    "rk4 dt NaN": (2, "dt must be finite and positive",
                   lambda tmp, mp: _scenario_argv(
        tmp, {"initial": "q", "evolution": "rk4", "dt": math.nan})),
    "grid bound Infinity": (2, "grid bounds must be finite",
                            lambda tmp, mp: _scenario_argv(
        tmp, {"initial": "q", "grid": {**GRID_3, "q_max": math.inf}})),
    "grid nq not an integer": (2, "grid nq must be an integer, not 21.9",
                               lambda tmp, mp: _scenario_argv(
        tmp, {"initial": "q", "grid": {**GRID_3, "nq": 21.9}})),
    "grid flag infinite bound": (2, "grid bounds must be finite",
                                 lambda tmp, mp: [
        "grid", "q", "--grid=-6,inf,-6,6,5,5", "--out", str(tmp / "g.csv")]),
    "flow overflow": (4, "overflows", lambda tmp, mp: _scenario_argv(
        tmp, {"initial": "q", "params": {"gamma": 0.1}, "times": [1e4]})),
    "grid flag of five fields": (
        2, "--grid expects qmin,qmax,pmin,pmax,nq,np", lambda tmp, mp: [
            "star", "q", "p", "--grid=-1,1,-1,1,5", "--out",
            str(tmp / "g.csv")]),
    "unknown evolution": (2, "unknown evolution 'quantum'",
                          lambda tmp, mp: _scenario_argv(
        tmp, {"initial": "q", "evolution": "quantum"})),
}


@pytest.mark.parametrize("case", list(EXIT_CASES))
def test_exit_codes(case, capsys, tmp_path, monkeypatch):
    want, fragment, argv = EXIT_CASES[case]
    code, out, err = run(capsys, *argv(tmp_path, monkeypatch))
    assert code == want
    assert out == ""
    errors = [ln for ln in err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and fragment in errors[0]
    assert "Traceback" not in err


README = Path(__file__).resolve().parents[1] / "README.md"
README_COMMANDS = [ln for ln in README.read_text().splitlines()
                   if re.match(r"starkit (star|eigen|grid) ", ln)]


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_examples(line, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, *shlex.split(line, comments=True)[1:])
    assert code == 0
    shown = re.search(r"#\s*->\s*(.*?)\s*$", line)
    if shown:
        assert shown.group(1) in out.splitlines()
