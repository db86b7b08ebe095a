import json
import math
import warnings

import numpy as np
import pytest

import starkit as sk
from starkit import dynamics, numerics
from starkit import symbols as sym
from starkit.errors import (CFLWarning, DivergenceWarning,
                            ExponentOverflowError, SpecMismatchError)

from conftest import random_polynomial


def test_sample_basics():
    spec = sym.GridSpec(-1.0, 1.0, -1.0, 1.0, 3, 3)
    zeros = numerics.sample(sym.ZERO, spec)
    assert np.all(zeros.values == 0)
    ones = numerics.sample(sym.ONE, spec)
    assert np.all(ones.values == 1)
    # orientation: rows run over q, columns over p
    g = numerics.sample(sym.variable("q"), spec)
    assert np.allclose(g.values[:, 0], [-1, 0, 1])
    g = numerics.sample(sym.variable("p"), spec)
    assert np.allclose(g.values[0, :], [-1, 0, 1])


def test_ground_state_normalization():
    par = sym.Params()
    grid = numerics.sample(sk.sho_wigner_eigenstate(0, par),
                           numerics.WIDE_SPEC)
    integral = numerics.trapezoid_integral(grid)
    assert abs(integral - 2 * math.pi * par.hbar) < 1e-4


def test_grid_distance():
    spec = sym.GridSpec(-1.0, 1.0, -1.0, 1.0, 4, 4)
    g = numerics.sample(sym.variable("q"), spec)
    assert numerics.grid_distance(g, g) == 0.0
    other = numerics.sample(sym.variable("p"), spec)
    assert numerics.grid_distance(g, other) == 2.0
    with pytest.raises(SpecMismatchError):
        numerics.grid_distance(g, numerics.sample(
            sym.ONE, sym.GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 5)))


def test_grid_distance_propagator_identity():
    import cmath
    par = sym.Params(gamma=0.1)
    lhs = numerics.sample(sk.damped_propagator(0.5, par), sym.SAMPLE_SPEC)
    rhs = numerics.sample(
        sym.scale(sk.apply(sk.damped_transition(0.1, par),
                           sk.undamped_propagator(0.5, par)),
                  cmath.exp(0.5 * 0.1 * 0.5)), sym.SAMPLE_SPEC)
    assert numerics.grid_distance(lhs, rhs) <= 1e-9


def test_series_oracle_polynomials_exact(rng):
    par = sym.Params(gamma=0.2)
    star = sk.damped_star(0.2, par)
    for _ in range(5):
        f = random_polynomial(rng, max_degree=3)
        g = random_polynomial(rng, max_degree=3)
        oracle = numerics.star_series_oracle(f, g, star, 10, sym.SAMPLE_SPEC)
        closed = numerics.sample(sk.star_product(f, g, star), sym.SAMPLE_SPEC)
        assert numerics.grid_distance(oracle, closed) < 1e-12


def test_series_oracle_vs_gaussian_closed_form():
    # operand pairs strictly inside the series' convergence region
    par = sym.Params()
    star = sk.moyal_star(par)
    rho0 = sk.sho_wigner_eigenstate(0, par)
    wide = sym.gaussian(1.0, app=-0.25, aqq=-0.25, bq=0.2)
    oracle = numerics.star_series_oracle(rho0, wide, star, 30, sym.SAMPLE_SPEC)
    closed = numerics.sample(sk.star_product(rho0, wide, star),
                             sym.SAMPLE_SPEC)
    assert numerics.grid_distance(oracle, closed) <= 1e-7
    f = sym.gaussian(1.0 + 0.3j, app=-0.4, aqq=-0.3, apq=0.1, bp=0.15)
    g = sym.gaussian(0.8, app=-0.35, aqq=-0.5, bq=-0.2j)
    oracle = numerics.star_series_oracle(f, g, star, 30, sym.SAMPLE_SPEC)
    closed = numerics.sample(sk.star_product(f, g, star), sym.SAMPLE_SPEC)
    assert numerics.grid_distance(oracle, closed) <= 1e-7
    # monomials on both Gaussians; the standard product's series diverges
    # on this pair, so it is left out
    e1 = sym.QuadExponent(app=-0.25, aqq=-0.3, bp=0.1)
    e2 = sym.QuadExponent(app=-0.35, aqq=-0.25, bq=-0.2j)
    f = sym.normalize([sym.Term(1.0, 0, 1, e1), sym.Term(0.5, 1, 1, e1)])
    g = sym.normalize([sym.Term(0.8, 1, 0, e2)])
    for star in (sk.moyal_star(par), sk.damped_star(0.1, par),
                 sk.husimi_star(1.0, par)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DivergenceWarning)
            oracle = numerics.star_series_oracle(f, g, star, 30,
                                                 sym.SAMPLE_SPEC)
        closed = numerics.sample(sk.star_product(f, g, star), sym.SAMPLE_SPEC)
        assert numerics.grid_distance(oracle, closed) <= 1e-12, star.name


def test_series_oracle_flags_boundary_pair():
    # rho_0 star rho_0 at unit parameters sits exactly on the convergence
    # boundary: the order-n contribution at the origin is +-4 forever, so
    # the oracle must flag it rather than quietly disagree
    par = sym.Params()
    rho0 = sk.sho_wigner_eigenstate(0, par)
    with pytest.warns(DivergenceWarning):
        oracle = numerics.star_series_oracle(rho0, rho0, sk.moyal_star(par),
                                             30, sym.SAMPLE_SPEC)
    closed = numerics.sample(sk.star_product(rho0, rho0, sk.moyal_star(par)),
                             sym.SAMPLE_SPEC)
    assert numerics.grid_distance(oracle, closed) > 1.0


def test_series_oracle_propagator_inverse():
    par = sym.Params()
    U = sk.undamped_propagator(0.3, par)
    oracle = numerics.star_series_oracle(sym.conjugate(U), U,
                                         sk.moyal_star(par), 30,
                                         sym.SAMPLE_SPEC)
    ones = numerics.sample(sym.ONE, sym.SAMPLE_SPEC)
    assert numerics.grid_distance(oracle, ones) <= 1e-7


def test_series_oracle_divergence_warning():
    par = sym.Params()
    rho0 = sk.sho_wigner_eigenstate(0, par)
    with pytest.warns(DivergenceWarning):
        numerics.star_series_oracle(rho0, rho0, sk.moyal_star(par), 2,
                                    sym.SAMPLE_SPEC)


def test_rk4_zero_field_is_identity():
    par = sym.Params(omega=1e-9, m=1e9)  # advection speeds ~ 0
    spec = sym.GridSpec(-2.0, 2.0, -2.0, 2.0, 21, 21)
    g0 = numerics.sample(sk.sho_wigner_eigenstate(0), spec)
    out = numerics.rk4_evolve(g0, "damped", 0.5, 0.01, par)
    assert numerics.grid_distance(out, g0) < 1e-9


def test_rk4_rotation_period():
    par = sym.Params(gamma=0.0)
    rho0 = sym.gaussian(1.0, app=-0.5, aqq=-0.5, bq=0.8)
    g0 = numerics.sample(rho0, numerics.WIDE_SPEC)
    period = 2 * math.pi / par.omega
    out = numerics.rk4_evolve(g0, "damped", period, 0.004, par)
    assert numerics.grid_distance(out, g0) <= 1e-3


def test_rk4_matches_exact_flow():
    par = sym.Params(gamma=0.1)
    rho0 = sym.gaussian(1.0, app=-0.5, aqq=-0.5, bp=-0.3, bq=0.5)
    g0 = numerics.sample(rho0, numerics.WIDE_SPEC)
    out = numerics.rk4_evolve(g0, "damped", 0.5, 1e-3, par)
    exact = numerics.sample(dynamics.evolve_classical(rho0, 0.5, par),
                            numerics.WIDE_SPEC)
    assert numerics.grid_distance(out, exact) <= 1e-5


def test_rk4_naive_mode_breaks_reality():
    par = sym.Params(gamma=0.2)
    spec = sym.GridSpec(-6.0, 6.0, -6.0, 6.0, 101, 101)
    g0 = numerics.sample(sk.sho_wigner_eigenstate(0, par), spec)
    out = numerics.rk4_evolve(g0, "naive", 0.2, 2e-3, par)
    assert np.abs(out.values.imag).max() > 1e-3


def test_rk4_cfl_warning():
    par = sym.Params()
    spec = sym.GridSpec(-6.0, 6.0, -6.0, 6.0, 41, 41)
    g0 = numerics.sample(sk.sho_wigner_eigenstate(0), spec)
    with pytest.warns(CFLWarning):
        numerics.rk4_evolve(g0, "damped", 0.05, 0.05, par)


def test_export_csv_round_trip(tmp_path):
    spec = sym.GridSpec(-1.0, 1.0, -2.0, 2.0, 3, 5)
    grid = numerics.sample(sk.undamped_propagator(0.3), spec)
    path = tmp_path / "grid.csv"
    numerics.export_grid(grid, "csv", path)
    text = path.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "q,p,re,im"
    assert len(lines) == 1 + 3 * 5
    back = numerics.load_grid(path)
    assert back.spec == spec
    assert np.array_equal(back.values, grid.values)


def test_export_json_round_trip(tmp_path):
    spec = sym.GridSpec(-1.0, 1.0, -1.0, 1.0, 4, 3)
    grid = numerics.sample(sk.sho_wigner_eigenstate(1), spec)
    path = tmp_path / "grid.json"
    numerics.export_grid(grid, "json", path)
    doc = json.loads(path.read_text())
    assert doc["spec"]["nq"] == 4
    assert len(doc["values"]) == 12
    back = numerics.load_grid(path)
    assert back.spec == spec
    assert np.array_equal(back.values, grid.values)


def test_export_deterministic_bytes(tmp_path):
    spec = sym.GridSpec(-2.0, 2.0, -2.0, 2.0, 9, 9)
    grid = numerics.sample(sk.damped_propagator(0.4, sym.Params(gamma=0.2)),
                           spec)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    numerics.export_grid(grid, "csv", a)
    numerics.export_grid(grid, "csv", b)
    assert a.read_bytes() == b.read_bytes()
    ja, jb = tmp_path / "a.json", tmp_path / "b.json"
    numerics.export_grid(grid, "json", ja)
    numerics.export_grid(grid, "json", jb)
    assert ja.read_bytes() == jb.read_bytes()


def test_export_two_by_two_zero_grid(tmp_path):
    spec = sym.GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2)
    path = tmp_path / "z.csv"
    numerics.export_grid(numerics.sample(sym.ZERO, spec), "csv", path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 5


def _grouped_symbol():
    """Three exponent groups (one of them zero) with gaps in the powers."""
    e1 = sym.QuadExponent(app=-0.5 + 0.1j, aqq=-0.4, apq=0.1, bp=0.2j,
                          bq=-0.3)
    e2 = sym.QuadExponent(app=-0.3, aqq=-0.6 - 0.2j, bq=0.1 + 0.1j)
    return sym.normalize([
        # polynomial group: p^3 with no p^2, pure q, pure p, a constant
        sym.Term(0.7 - 0.2j, 3, 0), sym.Term(-1.5, 0, 4),
        sym.Term(0.25j, 1, 0), sym.Term(2.0, 0, 0), sym.Term(0.3, 2, 3),
        # one Gaussian group with real, imaginary and complex coefficients
        sym.Term(1.25, 0, 0, e1), sym.Term(-0.5j, 0, 3, e1),
        sym.Term(0.4 + 0.6j, 4, 1, e1), sym.Term(0.2, 1, 0, e1),
        # a second Gaussian group with one imaginary constant and a monomial
        sym.Term(3j, 0, 0, e2), sym.Term(-0.1, 2, 2, e2),
    ])


def _pointwise(f, P, Q):
    out = np.empty(P.shape, dtype=np.complex128)
    for idx in np.ndindex(P.shape):
        out[idx] = sym.evaluate(f, float(P[idx]), float(Q[idx]))
    return out


def test_evaluate_grid_matches_pointwise_evaluate():
    f = _grouped_symbol()
    assert len({t.expo for t in f.terms}) == 3
    P, Q = sym.SAMPLE_SPEC.meshes()
    rng = np.random.default_rng(2024)
    Pn = rng.uniform(-3.0, 3.0, size=(4, 7))
    Qn = rng.uniform(-3.0, 3.0, size=(4, 7))
    for g in (f, sk.damped_propagator(0.4, sym.Params(gamma=0.2)),
              sk.sho_wigner_eigenstate(6)):
        for PP, QQ in ((P, Q), (Pn, Qn)):
            grid = sym.evaluate_grid(g, PP, QQ)
            ref = _pointwise(g, PP, QQ)
            assert grid.shape == PP.shape
            assert np.all(np.abs(grid - ref) <= 1e-12 * np.abs(ref))
    zero = sym.evaluate_grid(sym.ZERO, Pn, Qn)
    assert zero.shape == Pn.shape and not zero.any()


def test_evaluate_grid_overflow_in_one_group():
    ok = sym.gaussian(1.0, app=-0.5, aqq=-0.5)
    bad = sym.gaussian(2.0, app=0.5)
    f = ok + sym.monomial(1.0, 2, 1) + bad
    assert len({t.expo for t in f.terms}) == 3
    P, Q = np.array([[1.0, 40.0]]), np.array([[0.0, 0.0]])
    with pytest.raises(ExponentOverflowError):
        sym.evaluate_grid(f, P, Q)
    # below EXP_LIMIT on every node the same symbol evaluates
    assert np.all(np.isfinite(sym.evaluate_grid(f, P / 2, Q)))


def test_fd4_axis_exact_on_quartic():
    from starkit._accel import fd4_axis
    spec = sym.GridSpec(-1.0, 2.0, -1.5, 1.0, 13, 11)
    P, Q = spec.meshes()
    u = (0.5 * Q**4 - Q**3 + 2j * Q**2 * P**2 + P**4 - 3.0 * Q * P
         + 0.25j * P**3 + 1.0)
    dq = (spec.q_max - spec.q_min) / (spec.nq - 1)
    dp = (spec.p_max - spec.p_min) / (spec.np - 1)
    du_dq = 2.0 * Q**3 - 3.0 * Q**2 + 4j * Q * P**2 - 3.0 * P
    du_dp = 4j * Q**2 * P + 4.0 * P**3 - 3.0 * Q + 0.75j * P**2
    assert np.abs(fd4_axis(u, dq, 0) - du_dq).max() < 1e-10
    assert np.abs(fd4_axis(u, dp, 1) - du_dp).max() < 1e-10
