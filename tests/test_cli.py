import json

import starkit as sk
from starkit import numerics
from starkit import symbols as sym
from starkit.cli import main
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


def test_eigen_offdiagonal(capsys):
    code, out, _ = run(capsys, "eigen", "1", "0")
    assert code == 0
    assert "E = 1.5" in out and "E' = 0.5" in out


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
    grid = numerics.load_grid(dest)
    exact = sk.evolve_classical(parse("exp(-(q^2+p^2)/2)"), 0.1,
                                sym.Params(gamma=0.1))
    sampled = numerics.sample(exact, grid.spec)
    assert numerics.grid_distance(grid, sampled) < 1e-3


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


def test_env_tolerance_override(monkeypatch):
    from starkit import cli
    monkeypatch.setenv("STARKIT_TOL", "1e-6")
    assert cli.default_tol() == 1e-6
    monkeypatch.setenv("STARKIT_TOL", "garbage")
    assert cli.default_tol() == 1e-10
    monkeypatch.delenv("STARKIT_TOL")
    assert cli.default_tol() == 1e-10
