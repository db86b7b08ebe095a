import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import starkit as sk
from starkit import dynamics, numerics
from starkit import symbols as sym
from starkit.errors import (CFLWarning, DivergenceWarning,
                            ExponentOverflowError, NonFiniteError,
                            SpecMismatchError)

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


@pytest.mark.parametrize("values, message", [
    (np.zeros((3, 4)), "values shape does not match spec"),
    (np.zeros((4, 3)), "values shape does not match spec"),
    (np.full((3, 3), np.nan), "grid values must be finite"),
], ids=["3x4", "4x3", "NaN"])
def test_phase_grid_rejects_bad_values(values, message):
    spec = sym.GridSpec(-1.0, 1.0, -1.0, 1.0, 3, 3)
    with pytest.raises(ValueError, match=message):
        numerics.PhaseGrid(spec, values)


def test_ground_state_normalization():
    par = sym.Params()
    rho0 = sk.sho_wigner_eigenstate(0, par)
    integral = numerics.gauss_legendre_2d(
        lambda P, Q: sym.evaluate_grid(rho0, P, Q), -8, 8, -8, 8, order=80)
    assert abs(integral - 2 * math.pi * par.hbar) < 1e-12


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
    # U* and U are functions of one quadratic form, so the odd orders
    # vanish (down to rounding): silent at odd N as at even N
    par = sym.Params()
    U = sk.undamped_propagator(0.3, par)
    ones = numerics.sample(sym.ONE, sym.SAMPLE_SPEC)
    for N in (29, 30):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DivergenceWarning)
            oracle = numerics.star_series_oracle(sym.conjugate(U), U,
                                                 sk.moyal_star(par), N,
                                                 sym.SAMPLE_SPEC)
        assert numerics.grid_distance(oracle, ones) <= 1e-7


def test_series_oracle_divergence_warning():
    par = sym.Params()
    rho0 = sk.sho_wigner_eigenstate(0, par)
    with pytest.warns(DivergenceWarning):
        numerics.star_series_oracle(rho0, rho0, sk.moyal_star(par), 2,
                                    sym.SAMPLE_SPEC)


def _slow_standard_pair():
    """Monomials on two Gaussians whose standard-product series converges
    slowly: the N = 20 and N = 30 oracles miss the product by 6.4e-7 and
    5.0e-10, with last orders far below 1e-8 of the sum at N = 30."""
    e1 = sym.QuadExponent(app=-0.18, aqq=-0.22, bp=0.1)
    e2 = sym.QuadExponent(app=-0.25, aqq=-0.18, bq=-0.2j)
    return (sym.normalize([sym.Term(1.0, 0, 1, e1), sym.Term(0.5, 1, 1, e1)]),
            sym.normalize([sym.Term(0.8, 1, 0, e2)]))


@pytest.mark.parametrize("N", [20, 30])
def test_series_oracle_tail_flags_slow_pair(N, monkeypatch):
    f, g = _slow_standard_pair()
    star = sk.standard_star()
    closed = numerics.sample(sk.star_product(f, g, star), sym.SAMPLE_SPEC)
    # the tolerance (1e-8) flags N = 20 only
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DivergenceWarning)
        oracle = numerics.star_series_oracle(f, g, star, N, sym.SAMPLE_SPEC)
    assert len(caught) == (N == 20)
    miss = numerics.grid_distance(oracle, closed)
    assert 1e-12 < miss < 1e-6
    # a tolerance below the miss flags both
    monkeypatch.setattr(numerics, "_SERIES_TAIL_TOL", 1e-12)
    with pytest.warns(DivergenceWarning, match="tail past order"):
        numerics.star_series_oracle(f, g, star, N, sym.SAMPLE_SPEC)


def test_series_tail_estimate():
    # exact on a geometric sequence: m_n = 3 * 0.5^n, tail 3 * 0.5^11 / 0.5
    geometric = [3.0 * 0.5 ** n for n in range(11)]
    assert numerics._series_tail(geometric) == pytest.approx(3.0 * 0.5 ** 10)
    # every other order zero: the ratio is the other parity's over two
    # orders, at even and at odd N, and rounding in the zero orders does
    # not move it
    assert numerics._series_tail([4.0, 0.0, 1.0, 0.0, 0.25]) == \
        pytest.approx(0.25 * 0.25 / 0.75)
    assert numerics._series_tail([4.0, 0.0, 1.0, 0.0]) == \
        pytest.approx(1.0 * 0.25 / 0.75)
    assert numerics._series_tail([4.0, 1e-17, 1.0, 3e-17]) == \
        pytest.approx(1.0 * 0.25 / 0.75)
    # the slow standard pair's last orders at N = 30 (sup norms on
    # SAMPLE_SPEC): 8e-10 against a miss of 5.0e-10
    assert numerics._series_tail([1.126e-8, 9.497e-10, 2.633e-9,
                                  1.187e-10]) == pytest.approx(8.0e-10,
                                                               rel=0.01)
    # a ratio of one or more, or a zero denominator
    assert numerics._series_tail([1.0, 0.5, 1.0, 0.6]) == np.inf
    assert numerics._series_tail([1.0, 0.0, 0.0, 0.5, 0.1]) == np.inf
    # two zero last orders end the series; fewer than four orders cannot
    # be extrapolated unless the last two are zero
    assert numerics._series_tail([2.0, 1.0, 0.0, 0.0]) == 0.0
    assert numerics._series_tail([2.0, 0.0, 0.0]) == 0.0
    assert numerics._series_tail([4.0, 0.0, 1.0]) == np.inf
    assert numerics._series_tail([2.0]) == np.inf
    assert numerics._series_tail([2.0, 1.0]) == np.inf
    assert numerics._series_tail([0.0]) == 0.0


def _oracle_of_order(N):
    rho0 = sk.sho_wigner_eigenstate(0)
    numerics.star_series_oracle(rho0, rho0, sk.moyal_star(), N,
                                sym.SAMPLE_SPEC)


def _star_exp_of_order(N):
    sk.star_exp_truncated(sk.hamiltonian(), sk.moyal_star(), N)


@pytest.mark.parametrize("series, N", [
    (_oracle_of_order, -1), (_oracle_of_order, 2.5), (_oracle_of_order, 41),
    (_star_exp_of_order, -1), (_star_exp_of_order, 2.5)],
    ids=["negative", "fractional", "above the cap", "star_exp negative",
         "star_exp fractional"])
def test_series_oracle_rejects_bad_order(series, N):
    with pytest.raises(ValueError, match="truncation order"):
        series(N)


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


def test_rk4_naive_mode_breaks_reality(monkeypatch):
    # a real state, kept on two planes: the naive term couples them
    par = sym.Params(gamma=0.2)
    spec = sym.GridSpec(-6.0, 6.0, -6.0, 6.0, 101, 101)
    g0 = numerics.sample(sk.sho_wigner_eigenstate(0, par), spec)
    assert _same_bits(g0.values.imag, np.zeros((101, 101)))
    planes = _planes_used(monkeypatch)
    out = numerics.rk4_evolve(g0, "naive", 0.2, 2e-3, par)
    assert planes == [2]
    assert np.abs(out.values.imag).max() > 1e-3
    exact = numerics.sample(
        sk.evolve_naive(sk.sho_wigner_eigenstate(0, par), 0.2, par), spec)
    assert numerics.grid_distance(out, exact) <= 1e-4


@pytest.mark.parametrize("dt", [0.0, -0.05, math.inf, math.nan])
def test_step_schedule_rejects_bad_dt(dt):
    with pytest.raises(ValueError, match="finite and positive"):
        numerics.step_schedule(1.0, dt)


@pytest.mark.parametrize("kind", ["classical", "bogus", "Damped", None])
def test_rk4_and_cfl_reject_unknown_kinds(kind):
    spec = sym.GridSpec(-2.0, 2.0, -2.0, 2.0, 11, 11)
    g0 = numerics.sample(sk.sho_wigner_eigenstate(0), spec)
    with pytest.raises(ValueError, match="'damped' or 'naive'"):
        numerics.rk4_evolve(g0, kind, 0.1, 0.01)
    with pytest.raises(ValueError, match="'damped' or 'naive'"):
        numerics.cfl_ratio(spec, sym.Params(), 0.01, kind)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_times_raise_typed(t):
    spec = sym.GridSpec(-2.0, 2.0, -2.0, 2.0, 11, 11)
    g0 = numerics.sample(sk.sho_wigner_eigenstate(0), spec)
    with pytest.raises(NonFiniteError, match=f"t = {t} is not finite"):
        numerics.step_schedule(t, 0.01)
    with pytest.raises(NonFiniteError, match=f"t = {t} is not finite"):
        numerics.rk4_evolve(g0, "damped", t, 0.01)
    for params in (sym.Params(), sym.Params(gamma=0.3)):
        with pytest.raises(NonFiniteError, match=f"t = {t} is not finite"):
            sk.damped_propagator(t, params)
    with pytest.raises(NonFiniteError):
        sk.undamped_propagator(complex(0.5, t))


def test_rk4_cfl_warning():
    par = sym.Params()
    spec = sym.GridSpec(-6.0, 6.0, -6.0, 6.0, 41, 41)
    g0 = numerics.sample(sk.sho_wigner_eigenstate(0), spec)
    with pytest.warns(CFLWarning):
        numerics.rk4_evolve(g0, "damped", 0.05, 0.05, par)


@pytest.mark.parametrize("t, warns", [(0.029, True), (0.031, False),
                                      (0.02, False)])
def test_rk4_cfl_judged_at_step(t, warns):
    # dt = 0.02 gives ratio 0.40, but t = 0.029 is one step of h = 0.029
    # (ratio 0.58) and t = 0.031 two steps of h = 0.0155 (ratio 0.31)
    spec = sym.GridSpec(-6.0, 6.0, -6.0, 6.0, 41, 41)
    g0 = numerics.sample(sk.sho_wigner_eigenstate(0), spec)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", CFLWarning)
        numerics.rk4_evolve(g0, "damped", t, 0.02, sym.Params())
    cfl = [w for w in caught if issubclass(w.category, CFLWarning)]
    assert len(cfl) == int(warns)
    if warns:
        assert "h = 0.029" in str(cfl[0].message)


def _planes_used(monkeypatch):
    """List that records the plane count of every rk4_evolve call."""
    seen, advection = [], numerics._advection

    def spy(spec, params, kind, planes, h):
        seen.append(planes)
        return advection(spec, params, kind, planes, h)
    monkeypatch.setattr(numerics, "_advection", spy)
    return seen


def _same_bits(x, y):
    return bool((x == y).all() and (np.signbit(x) == np.signbit(y)).all())


@pytest.mark.parametrize("n", [21, 61])
def test_rk4_real_damped_state_on_one_plane(n, monkeypatch):
    # the damped advection is real: the real part of a + ib is that of a
    par = sym.Params(gamma=0.2)
    spec = sym.GridSpec(-6.0, 6.0, -6.0, 6.0, n, n)
    a = numerics.sample(sym.gaussian(1.0, app=-0.5, aqq=-0.6, apq=0.15,
                                     bp=-0.3, bq=0.5), spec)
    b = numerics.sample(sym.gaussian(0.7, app=-0.4, aqq=-0.5, bq=-0.2),
                        spec)
    assert _same_bits(a.values.imag, np.zeros((n, n)))
    planes = _planes_used(monkeypatch)
    both = numerics.rk4_evolve(
        numerics.PhaseGrid(spec, a.values + 1j * b.values.real), "damped",
        0.05, 1e-3, par)
    alone = numerics.rk4_evolve(a, "damped", 0.05, 1e-3, par)
    assert planes == [2, 1]
    assert _same_bits(both.values.real, alone.values.real)
    assert _same_bits(alone.values.imag, np.zeros((n, n)))


def test_rk4_negative_zero_imaginary_part_keeps_two_planes(monkeypatch):
    # -0.0 is not +0.0 bit for bit, so the state keeps its imaginary plane;
    # the two-plane result matches the one-plane one (+0.0 imaginary part)
    par = sym.Params(gamma=0.2)
    spec = sym.GridSpec(-6.0, 6.0, -6.0, 6.0, 21, 21)
    g0 = numerics.sample(sym.gaussian(1.0, app=-0.5, aqq=-0.6, bp=-0.3),
                         spec)
    signed = g0.values.copy()
    signed.imag[4, 7] = -0.0
    planes = _planes_used(monkeypatch)
    two = numerics.rk4_evolve(numerics.PhaseGrid(spec, signed), "damped",
                              0.05, 1e-3, par)
    one = numerics.rk4_evolve(g0, "damped", 0.05, 1e-3, par)
    assert planes == [2, 1]
    assert _same_bits(two.values.real, one.values.real)
    assert _same_bits(two.values.imag, one.values.imag)


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


def _per_element_exports(grid):
    """CSV and JSON text written one element at a time."""
    s = grid.spec

    def f17(x):
        return format(float(x), ".17g")

    lines = ["q,p,re,im"]
    for q, row in zip(s.q_values(), grid.values):
        for p, v in zip(s.p_values(), row):
            lines.append(f"{f17(q)},{f17(p)},{f17(v.real)},{f17(v.imag)}")
    doc = {"spec": {"q_min": s.q_min, "q_max": s.q_max, "p_min": s.p_min,
                    "p_max": s.p_max, "nq": s.nq, "np": s.np},
           "values": [[float(v.real), float(v.imag)]
                      for row in grid.values for v in row]}
    return {"csv": "\n".join(lines) + "\n",
            "json": json.dumps(doc, separators=(",", ":")) + "\n"}


def test_export_bytes_match_the_per_element_formulas(tmp_path):
    rng = np.random.default_rng(13)
    for spec in (sym.GridSpec(-1.7, 2.3, -3.1, 0.9, 17, 23),
                 numerics.WIDE_SPEC):  # 201x201, rows written one by one
        shape = (spec.nq, spec.np)
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        values[0, :4] = [complex(-0.0, 0.0), complex(0.0, -0.0),
                         complex(5e-324, -1e-320), complex(1e300, -1e300)]
        values[1, :3] = [3.0, complex(-7.0, 2.0), complex(-0.0, -0.0)]
        grid = numerics.PhaseGrid(spec, values)
        for fmt, text in _per_element_exports(grid).items():
            path = tmp_path / f"grid.{fmt}"
            numerics.export_grid(grid, fmt, path)
            assert path.read_bytes() == text.encode("ascii")
            back = numerics.load_grid(path)
            assert back.spec == spec
            for got, want in ((back.values.real, values.real),
                              (back.values.imag, values.imag)):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))


def test_export_unknown_format_leaves_no_file(tmp_path):
    grid = numerics.sample(sym.ONE, sym.GridSpec(0.0, 1.0, 0.0, 2.0, 3, 4))
    path = tmp_path / "grid.txt"
    with pytest.raises(ValueError, match="unknown format 'txt'"):
        numerics.export_grid(grid, "txt", path)
    assert not path.exists()


def test_load_grid_csv_names_the_file_on_a_bad_lattice(tmp_path):
    grid = numerics.sample(sym.ONE, sym.GridSpec(0.0, 1.0, 0.0, 2.0, 3, 4))
    path = tmp_path / "bad.csv"
    numerics.export_grid(grid, "csv", path)
    lines = path.read_text().splitlines()
    for bad in (lines[:-1],  # one node short
                lines[:1] + lines[2:3] + lines[1:2] + lines[3:]):  # swapped
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(ValueError, match="bad.csv: rows do not fill the "
                                             "3x4 lattice in q-major order"):
            numerics.load_grid(path)
    for bad in (lines[:-1] + ["2,2,1"], lines[:1]):
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(ValueError, match="bad.csv: expected rows of"):
            numerics.load_grid(path)
    path.write_text("\n".join(lines[:2]) + "\n")  # a 1x1 lattice
    with pytest.raises(ValueError, match="bad.csv: bad grid spec"):
        numerics.load_grid(path)


def test_load_grid_csv_rejects_unevenly_spaced_axes(tmp_path):
    path = tmp_path / "uneven.csv"
    rows = [f"{q},{p},1,0" for q in ("0", "0.1", "1") for p in ("0", "2")]
    path.write_text("q,p,re,im\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="uneven.csv: q and p axes are not "
                                         "evenly spaced"):
        numerics.load_grid(path)
    # the same lattice on q = 0, 0.5, 1 loads
    path.write_text(path.read_text().replace("0.1,", "0.5,"))
    back = numerics.load_grid(path)
    assert back.spec == sym.GridSpec(0.0, 1.0, 0.0, 2.0, 3, 2)
    # decimal axes load although linspace(0, 1, 11)[3] is 0.30000000000000004
    qs = [f"{i / 10:g}" for i in range(11)]
    assert "0.3" in qs and np.linspace(0.0, 1.0, 11)[3] != 0.3
    path.write_text("q,p,re,im\n" + "".join(
        f"{q},{p},1,0\n" for q in qs for p in ("0", "2")))
    back = numerics.load_grid(path)
    assert back.spec == sym.GridSpec(0.0, 1.0, 0.0, 2.0, 11, 2)


_ROWS = ["0,0,1,0", "0,2,1,0", "1,0,1,0", "1,2,1,0"]  # a 2x2 lattice
# CSV files whose body is not rows of the 4 fields q,p,re,im.
_BAD_CSV = {
    "comment line": "q,p,re,im\n#" + "\n".join(_ROWS) + "\n",
    "row of 3 fields": "q,p,re,im\n" + "\n".join(_ROWS[:3] + ["1,2,1"]),
    "row of 5 fields": "q,p,re,im\n" + "\n".join(_ROWS[:3] + ["1,2,1,0,0"]),
    "empty file": "",
    "header only": "q,p,re,im\n",
}


@pytest.mark.parametrize("text", _BAD_CSV.values(), ids=_BAD_CSV)
def test_load_grid_csv_rejects_a_body_not_of_4_fields(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "no data" must not escape
        with pytest.raises(ValueError, match="bad.csv: expected rows of the "
                                             "4 fields q,p,re,im"):
            numerics.load_grid(path)


def test_load_grid_json_names_the_file_on_a_bad_lattice(tmp_path):
    grid = numerics.sample(sym.ONE, sym.GridSpec(0.0, 1.0, 0.0, 2.0, 3, 4))
    path = tmp_path / "bad.json"
    numerics.export_grid(grid, "json", path)
    doc = json.loads(path.read_text())
    doc["values"].append([1.0, 0.0])
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="bad.json: 13 values do not fill"):
        numerics.load_grid(path)


def _uint64(values):
    return np.ascontiguousarray(values, dtype=np.complex128).view(np.uint64)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_load_grid_round_trips_edge_floats_bit_for_bit(tmp_path, fmt):
    edge = np.array([0.0, -0.0, 5e-324, 1.7976931348623157e308,
                     -1.7976931348623157e308, 0.1, 1 / 3])
    values = np.empty((7, 7), dtype=np.complex128)
    values.real[:], values.imag[:] = edge[:, None], edge[None, :]
    grid = numerics.PhaseGrid(sym.GridSpec(-1.0, 1.0, -2.0, 2.0, 7, 7),
                              values)
    path = tmp_path / f"grid.{fmt}"
    numerics.export_grid(grid, fmt, path)
    back = numerics.load_grid(path)
    assert back.spec == grid.spec
    assert np.array_equal(_uint64(back.values), _uint64(values))


def test_load_grid_json_matches_json_load_on_201_grids(tmp_path):
    path = tmp_path / "grid.json"
    for f in (sk.sho_wigner_eigenstate(12),
              dynamics.evolve_classical(sk.sho_offdiagonal(4, 8), 0.7,
                                        sym.Params(gamma=0.2))):
        numerics.export_grid(numerics.sample(f, numerics.WIDE_SPEC), "json",
                             path)
        with open(path, encoding="ascii") as fh:  # the reference: one list
            want = np.array(json.load(fh)["values"], dtype=np.float64)
        back = numerics.load_grid(path)
        assert back.spec == numerics.WIDE_SPEC
        assert np.array_equal(_uint64(back.values).reshape(-1, 2),
                              want.view(np.uint64))


def _json_grid_doc():
    spec = sym.GridSpec(-1.0, 1.0, -2.0, 2.0, 5, 4)
    values = np.random.default_rng(7).normal(size=(5, 4, 2))
    values[0, 0] = [-0.0, 5e-324]
    grid = numerics.PhaseGrid(spec, values.view(np.complex128)[..., 0])
    doc = {"spec": {"q_min": -1.0, "q_max": 1.0, "p_min": -2.0,
                    "p_max": 2.0, "nq": 5, "np": 4},
           "values": values.reshape(-1, 2).tolist()}
    return grid, doc


# JSON texts of one grid that load_grid reads as the same grid.
_JSON_LAYOUTS = {
    "compact": lambda doc: json.dumps(doc, separators=(",", ":")),
    "indent=2": lambda doc: json.dumps(doc, indent=2),
    "values before spec": lambda doc: json.dumps(
        {"values": doc["values"], "spec": doc["spec"]}),
    "extra top-level keys": lambda doc: json.dumps(
        {"note": "values", "meta": {"values": [[9, 9]], "x": "]]"},
         **doc, "after": [["values"]]}),
    "leading whitespace": lambda doc: " \n\t\r" + json.dumps(doc),
}


@pytest.mark.parametrize("chunk", [1, 30, 1 << 16])
@pytest.mark.parametrize("layout", _JSON_LAYOUTS.values(), ids=_JSON_LAYOUTS)
def test_load_grid_json_layouts_load_the_same_grid(tmp_path, monkeypatch,
                                                   layout, chunk):
    grid, doc = _json_grid_doc()
    path = tmp_path / "grid.json"
    path.write_text(layout(doc))
    monkeypatch.setattr(numerics, "_JSON_CHUNK", chunk)
    back = numerics.load_grid(path)
    assert back.spec == grid.spec
    assert np.array_equal(_uint64(back.values), _uint64(grid.values))


_DROP = object()


def _edited(entries=(), fields=(), **keys):
    """The compact JSON text of _json_grid_doc with values entries replaced
    ({index: entry}), spec fields updated and top-level keys set (_DROP:
    removed)."""
    _, doc = _json_grid_doc()
    for k, entry in dict(entries).items():
        doc["values"][k] = entry
    doc["spec"].update(fields)
    for key, value in keys.items():
        if value is _DROP:
            del doc[key]
        else:
            doc[key] = value
    return json.dumps(doc, separators=(",", ":"))


_GOOD_JSON = _edited()
# Malformed JSON grids: each raises a ValueError that names the file.
_BAD_JSON = {
    "3-element pair": _edited({5: [1.0, 0.0, 2.0]}),
    "every pair 3 numbers": _edited({k: [1.0, 0.0, 2.0] for k in range(20)}),
    "nested pair": _edited({5: [[1.0, 0.0]]}),
    "nested entry": _edited({5: [1.0, [0.0]]}),
    "trailing comma": _GOOD_JSON[:-2] + ",]}",
    "truncated in values": _GOOD_JSON[:len(_GOOD_JSON) // 2],
    "truncated after values": _GOOD_JSON[:-1],
    "not JSON after the values": _GOOD_JSON[:-1] + ',"x"}',
    "missing values": _edited(values=_DROP),
    "missing spec": _edited(spec=_DROP),
    "spec not an object": _edited(spec=[1, 2]),
    "unknown spec key": _edited(fields={"dq": 0.5}),
    "non-integer node count": _edited(fields={"nq": 5.0}),
    "values null": _edited(values=None),
    "values object": _edited(values={}),
    "flat values": _edited(values=[0.0] * 40),
    "string entry": _edited({5: ["1", 0]}),
    "boolean entry": _edited({5: [True, 0]}),
    "null entry": _edited({5: [None, 0]}),
    "NaN entry": _edited({5: [math.nan, 0]}),
    "Infinity entry": _edited({5: [0, -math.inf]}),
    "overflowing number": _edited({5: [math.inf, 0]}).replace("Infinity",
                                                              "1e999"),
    "overflowing integer": _edited({5: [10**400, 0]}),
}


@pytest.mark.parametrize("text", _BAD_JSON.values(), ids=_BAD_JSON)
def test_load_grid_json_names_the_file_on_malformed_grids(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="bad.json: "):
        numerics.load_grid(path)


def test_load_grid_json_counts_every_pair(tmp_path):
    path = tmp_path / "bad.json"
    for values, n in (([], 0), ([[0.5, 0.0]] * 19, 19),
                      ([[0.5, 0.0]] * 21, 21), ([[0.5, 0.0]] * 1000, 1000)):
        path.write_text(_edited(values=values))
        with pytest.raises(ValueError, match=f"bad.json: {n} values do not "
                                             "fill the 5x4 lattice"):
            numerics.load_grid(path)
    # a lattice the text cannot fill is not allocated
    path.write_text(_edited(fields={"nq": 10**6, "np": 10**6}))
    with pytest.raises(ValueError, match="bad.json: 20 values do not fill "
                                         "the 1000000x1000000 lattice"):
        numerics.load_grid(path)


def test_load_grid_names_the_file_on_non_ascii_text(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(_GOOD_JSON.replace('{"spec"', '{"note":"é","spec"')
                     .encode("utf-8"))
    with pytest.raises(ValueError, match="bad.json: not an ASCII grid"):
        numerics.load_grid(path)


def test_load_grid_json_memory_is_output_plus_a_chunk(tmp_path):
    path = tmp_path / "grid.json"
    numerics.export_grid(numerics.sample(sk.sho_wigner_eigenstate(12),
                                         numerics.WIDE_SPEC), "json", path)
    _, peak = _peak_above(lambda: numerics.load_grid(path))
    assert peak <= 3.0  # the text is 1.1 MB, the output 0.65 MB


def test_load_grid_json_reads_the_file_once(tmp_path):
    path = tmp_path / "grid.json"
    rho = dynamics.evolve_classical(sk.sho_offdiagonal(4, 8), 0.7,
                                    sym.Params(gamma=0.2))
    numerics.export_grid(numerics.sample(rho, numerics.WIDE_SPEC), "json",
                         path)
    _, peak = _peak_above(lambda: numerics.load_grid(path))
    # the bytes once, the output and a chunk; a decoded copy makes 2.0x
    assert peak <= 1.7 * path.stat().st_size / 1e6


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


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


# strip sizes for a 37-row lattice of 23 columns: 5, 7, 16 and 37 strips
# (heights 8, 6, 3 and 1; none but the last divides 37), and one strip
_STRIP_SIZES = [170, 115, 53, 23, 1 << 15]


@pytest.mark.parametrize("strip_nodes", _STRIP_SIZES)
def test_evaluate_grid_independent_of_strip_height(strip_nodes, monkeypatch):
    spec = sym.GridSpec(-3.0, 3.0, -2.5, 2.5, 37, 23)
    P, Q = spec.meshes()
    axes = spec.p_values()[None, :], spec.q_values()[:, None]
    symbols = (_grouped_symbol(), sk.sho_wigner_eigenstate(6),
               sk.damped_propagator(0.4, sym.Params(gamma=0.2)))
    whole = [sym.evaluate_grid(f, P, Q) for f in symbols]
    monkeypatch.setattr(sym, "_STRIP_NODES", strip_nodes)
    for f, ref in zip(symbols, whole):
        for PP, QQ in ((P, Q), axes, (axes[0], Q), (P, axes[1])):
            got = sym.evaluate_grid(f, PP, QQ)
            assert got.shape == (37, 23)
            assert np.array_equal(_bits(got), _bits(ref))
        assert np.array_equal(_bits(numerics.sample(f, spec).values),
                              _bits(ref))


@pytest.mark.parametrize("strip_nodes", [7, 1 << 15])
def test_evaluate_grid_input_shapes(strip_nodes, monkeypatch):
    # 0-d, 1-d, 3-d and broadcast inputs, each against pointwise evaluate;
    # 7-node strips split the 1-d and 3-d inputs along their first axis
    monkeypatch.setattr(sym, "_STRIP_NODES", strip_nodes)
    f = _grouped_symbol()
    rng = np.random.default_rng(24)
    p3 = rng.uniform(-3.0, 3.0, size=(5, 3, 4))
    q3 = rng.uniform(-3.0, 3.0, size=(5, 3, 4))
    q1 = rng.uniform(-3.0, 3.0, size=17)
    cases = [(np.float64(0.4), -1.2),  # 0-d
             (rng.uniform(-3.0, 3.0, size=17), q1),  # 1-d
             (p3, q3),  # 3-d
             (p3[:, :1, :], q3[0]),  # (5, 1, 4) against (3, 4)
             (0.3, q1),  # a scalar against an axis
             (np.linspace(-2, 2, 6)[None, :], np.linspace(-1, 1, 9)[:, None])]
    for P, Q in cases:
        PP, QQ = np.broadcast_arrays(np.asarray(P, float),
                                     np.asarray(Q, float))
        got = sym.evaluate_grid(f, P, Q)
        assert got.shape == PP.shape
        ref = _pointwise(f, PP, QQ)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))
        assert np.array_equal(_bits(got), _bits(sym.evaluate_grid(f, PP, QQ)))
    assert sym.evaluate_grid(f, np.zeros((0, 3)), 1.0).shape == (0, 3)


@pytest.mark.parametrize("strip_nodes", [3, 1 << 15])
def test_evaluate_grid_overflow_reports_lattice_maximum(strip_nodes,
                                                        monkeypatch):
    # rows run over q = -30, -20, ..., 40; 3-node strips are single rows
    monkeypatch.setattr(sym, "_STRIP_NODES", strip_nodes)
    p, q = np.array([[0.0, 1.0, 2.0]]), np.linspace(-30.0, 40.0, 8)[:, None]
    # q^2 overflows in the first row (900), and peaks in the last (1600)
    with pytest.raises(ExponentOverflowError, match=r"1\.6e\+03 exceeds"):
        sym.evaluate_grid(sym.gaussian(1.0, aqq=1.0), p, q)
    # the first group overflows only in the last row (0.5 q^2 + 5q: 1000),
    # the second already in the first (q^2 - 20q: 1500): the first is named
    f = sym.gaussian(2.0, aqq=0.5, bq=5.0) + sym.gaussian(1.0, aqq=1.0,
                                                          bq=-20.0)
    assert next(iter(sym.exponent_groups(f))).aqq == 0.5
    with pytest.raises(ExponentOverflowError, match=r"1e\+03 exceeds"):
        sym.evaluate_grid(f, p, q)


@pytest.mark.parametrize("strip_nodes", [50, 1 << 15])
def test_grid_distance_strip_by_strip(strip_nodes, monkeypatch):
    spec = sym.GridSpec(-3.0, 3.0, -3.0, 3.0, 41, 17)
    g1 = numerics.sample(_grouped_symbol(), spec)
    g2 = numerics.sample(sk.sho_wigner_eigenstate(3), spec)
    monkeypatch.setattr(sym, "_STRIP_NODES", strip_nodes)
    assert numerics.grid_distance(g1, g2) == np.abs(g1.values
                                                   - g2.values).max()


def _peak_above(call):
    """(result, peak traced bytes in MB above those at the call's start)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()


def test_sample_memory_is_output_plus_a_strip():
    spec = sym.GridSpec(-6.0, 6.0, -6.0, 6.0, 401, 401)
    rho = sk.sho_wigner_eigenstate(24)
    grid, peak = _peak_above(lambda: numerics.sample(rho, spec))
    assert peak <= grid.values.nbytes / 1e6 + 4.0


def test_rk4_memory_above_a_real_input():
    spec = sym.GridSpec(-6.0, 6.0, -6.0, 6.0, 401, 401)
    g0 = numerics.sample(sym.gaussian(1.0, app=-1.0, aqq=-1.0), spec)
    _, peak = _peak_above(lambda: numerics.rk4_evolve(
        g0, "damped", 2e-3, 1e-3, sym.Params(gamma=0.1)))
    assert peak <= 10.0


def test_advection_operator_exact_on_quartic():
    spec = sym.GridSpec(-1.0, 2.0, -1.5, 1.0, 13, 11)
    par = sym.Params(m=1.3, omega=0.7, hbar=0.9, gamma=0.3)
    P, Q = spec.meshes()
    u = (0.5 * Q**4 - Q**3 + 2j * Q**2 * P**2 + P**4 - 3.0 * Q * P
         + 0.25j * P**3 + 1.0)
    du_dq = 2.0 * Q**3 - 3.0 * Q**2 + 4j * Q * P**2 - 3.0 * P
    du_dp = 4j * Q**2 * P + 4.0 * P**3 - 3.0 * Q + 0.75j * P**2
    d2u_dpdq = 8j * Q * P - 3.0
    for kind in ("damped", "naive"):
        vq, vp = numerics._advection_fields(spec, par, kind)
        expected = -vq * du_dq - vp * du_dp
        if kind == "naive":
            expected = expected + 1j * par.gamma * par.hbar * d2u_dpdq
        out = np.zeros((2, u.size))
        planes = np.stack([u.real.ravel(), u.imag.ravel()])
        # one stage with h = 1 from a zero base: out = L planes
        numerics._advection(spec, par, kind, 2, 1.0)(
            np.zeros_like(planes), planes, out, 1)
        got = (out[0] + 1j * out[1]).reshape(u.shape)
        assert np.abs(got - expected)[1:-1, 1:-1].max() < 1e-10
        ring = np.ones(u.shape, dtype=bool)
        ring[1:-1, 1:-1] = False
        assert np.all(got[ring] == 0.0)
        if kind == "damped":  # a real operator: one plane, the real part
            one = np.zeros((1, u.size))
            numerics._advection(spec, par, kind, 1, 1.0)(
                np.zeros_like(one), planes[:1].copy(), one, 1)
            assert np.array_equal(one[0], out[0])


def _fd4_reference(u, h, axis):
    # 4th-order first derivative: 5-point central, one-sided at the edges
    v = np.moveaxis(u, axis, 0)
    d = np.empty_like(v)
    d[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
    d[0] = (-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3]
            - 3 * v[4]) / (12 * h)
    d[1] = (-3 * v[0] - 10 * v[1] + 18 * v[2] - 6 * v[3] + v[4]) / (12 * h)
    d[-2] = (3 * v[-1] + 10 * v[-2] - 18 * v[-3] + 6 * v[-4]
             - v[-5]) / (12 * h)
    d[-1] = (25 * v[-1] - 48 * v[-2] + 36 * v[-3] - 16 * v[-4]
             + 3 * v[-5]) / (12 * h)
    return np.moveaxis(d, 0, axis)


@pytest.mark.parametrize("kind", ["damped", "naive"])
def test_rk4_matches_complex_reference(kind):
    _check_complex_reference(kind, 1.0 + 0.5j)


@pytest.mark.parametrize("kind", ["damped", "naive"])
def test_rk4_real_state_matches_complex_reference(kind):
    _check_complex_reference(kind, 1.0)  # one plane if damped


def _check_complex_reference(kind, amplitude):
    # the plain complex-array RK4 with per-axis stencils and a frozen ring
    par = sym.Params(m=1.2, omega=0.8, hbar=0.9, gamma=0.2)
    spec = sym.GridSpec(-5.0, 6.0, -6.0, 5.0, 23, 19)
    rho = sym.gaussian(amplitude, app=-0.5, aqq=-0.6, apq=0.15, bp=-0.3,
                       bq=0.5)
    g0 = numerics.sample(rho, spec)
    vq, vp = numerics._advection_fields(spec, par, kind)
    dq = (spec.q_max - spec.q_min) / (spec.nq - 1)
    dp = (spec.p_max - spec.p_min) / (spec.np - 1)

    def rhs(u):
        du_q = _fd4_reference(u, dq, 0)
        out = -vq * du_q - vp * _fd4_reference(u, dp, 1)
        if kind == "naive":
            out += 1j * par.gamma * par.hbar * _fd4_reference(du_q, dp, 1)
        out[[0, -1], :] = 0.0
        out[:, [0, -1]] = 0.0
        return out

    u, h = g0.values.copy(), 0.01
    for _ in range(50):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * h * k1)
        k3 = rhs(u + 0.5 * h * k2)
        k4 = rhs(u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    out = numerics.rk4_evolve(g0, kind, 0.5, h, par)
    assert np.abs(out.values - u).max() <= 1e-13 * np.abs(u).max()


@pytest.mark.parametrize("kind, rhs", [("damped", dynamics.damped_rhs),
                                       ("naive", dynamics.naive_rhs)])
def test_rk4_step_matches_symbolic_rhs(kind, rhs):
    # one RK4 step of a linear system: (out - g0)/h = r1 + h r2/2 + h^2 r3/6
    # + O(h^3), with r_k the k-th power of the symbolic right-hand side
    par = sym.Params(gamma=0.2)
    rho = sym.gaussian(1.0, app=-0.5, aqq=-0.6, apq=0.15, bp=-0.3, bq=0.5)
    g0 = numerics.sample(rho, numerics.WIDE_SPEC)
    h = 1e-3
    out = numerics.rk4_evolve(g0, kind, h, h, par)
    series, r = 0.0, rho
    for c in (1.0, h / 2.0, h * h / 6.0):
        r = rhs(r, par)
        series = series + c * numerics.sample(r, numerics.WIDE_SPEC).values
    assert np.abs((out.values - g0.values) / h - series).max() <= 1e-5


def test_rk4_overflow_raises_typed():
    par = sym.Params(gamma=0.1)
    spec = sym.GridSpec(-6.0, 6.0, -6.0, 6.0, 61, 61)
    g0 = numerics.sample(sym.gaussian(1.0, app=-0.5, aqq=-0.5), spec)
    assert numerics.cfl_ratio(spec, par, 0.5) == pytest.approx(18.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.warns(CFLWarning), \
                pytest.raises(NonFiniteError, match="cfl_ratio=18"):
            numerics.rk4_evolve(g0, "damped", 40.0, 0.5, par)


def _rk4_k_reference(g0, kind, t, dt, par):
    """The k1..k4 loop of classical RK4 over the stage operator, two planes.

    rhs(v, out) is L v: one stage with h = 1 from a zero base.
    """
    steps, h = numerics.step_schedule(t, dt)
    u = np.stack([g0.values.real.ravel(), g0.values.imag.ravel()])
    zero, stage_op = np.zeros_like(u), numerics._advection(
        g0.spec, par, kind, 2, 1.0)

    def rhs(v, out):
        stage_op(zero, v, out, 1)

    ksum, k, stage = (np.zeros_like(u) for _ in range(3))
    for _ in range(steps):
        rhs(u, ksum)  # k1; ksum collects k1 + 2 k2 + 2 k3 + k4
        np.multiply(ksum, 0.5 * h, out=stage)
        for c in (0.5 * h, h, None):  # stages 2, 3, 4
            stage += u
            rhs(stage, k)
            if c:
                np.multiply(k, c, out=stage)
                k *= 2.0
            ksum += k
        ksum *= h / 6.0
        u += ksum
    return (u[0] + 1j * u[1]).reshape(g0.values.shape)


_STAGE_CASES = [("damped", 1.0), ("damped", 1.0 + 0.5j), ("naive", 1.0)]


def _stage_state(n, amplitude):
    spec = sym.GridSpec(-6.0, 6.0, -6.0, 6.0, n, n)
    return numerics.sample(sym.gaussian(amplitude, app=-0.5, aqq=-0.6,
                                        apq=0.15, bp=-0.3, bq=0.5), spec)


@pytest.mark.parametrize("n", [21, 61])
@pytest.mark.parametrize("kind, amplitude", _STAGE_CASES)
def test_rk4_horner_stages_match_k_stages(kind, amplitude, n):
    # for a linear autonomous L both are the degree-4 Taylor polynomial of
    # exp(hL) applied to u; only the rounding differs
    par = sym.Params(gamma=0.2)
    g0 = _stage_state(n, amplitude)
    ref = _rk4_k_reference(g0, kind, 0.05, 1e-3, par)
    out = numerics.rk4_evolve(g0, kind, 0.05, 1e-3, par)
    assert np.abs(ref).max() > 0.5
    assert np.abs(out.values - ref).max() <= 1e-14


@pytest.mark.parametrize("kind, amplitude", _STAGE_CASES)
def test_rk4_independent_of_strip_height(kind, amplitude, monkeypatch):
    # one strip at the default size against 3-row strips: edge rows and
    # columns come from whole-plane passes, the rest is elementwise
    par, n = sym.Params(gamma=0.2), 61
    g0 = _stage_state(n, amplitude)
    whole = numerics.rk4_evolve(g0, kind, 0.02, 1e-3, par)
    planes = 1 if kind == "damped" and amplitude == 1.0 else 2
    monkeypatch.setattr(sym, "_STRIP_NODES", 3 * planes * n)
    strips = numerics.rk4_evolve(g0, kind, 0.02, 1e-3, par)
    assert _same_bits(strips.values.real, whole.values.real)
    assert _same_bits(strips.values.imag, whole.values.imag)


def test_rk4_negative_time_steps_backward():
    # t = -1 is 1000 steps of h = -1e-3, as close to the exact flow as t = 1
    par = sym.Params(gamma=0.1)
    spec = sym.GridSpec(-6.0, 6.0, -6.0, 6.0, 61, 61)
    rho0 = sym.gaussian(1.0, app=-0.5, aqq=-0.5, bp=-0.3, bq=0.5)
    g0 = numerics.sample(rho0, spec)
    miss = {}
    for t in (1.0, -1.0):
        out = numerics.rk4_evolve(g0, "damped", t, 1e-3, par)
        exact = numerics.sample(dynamics.evolve_classical(rho0, t, par), spec)
        miss[t] = numerics.grid_distance(out, exact)
    assert miss[1.0] <= 5e-4
    assert miss[-1.0] <= miss[1.0]


@pytest.mark.parametrize("t, warns", [(-0.029, True), (-0.031, False)])
def test_rk4_cfl_judged_at_negative_step(t, warns):
    # the ratio of a backward step is that of |h|: 0.58 and 0.31, as above
    spec = sym.GridSpec(-6.0, 6.0, -6.0, 6.0, 41, 41)
    g0 = numerics.sample(sk.sho_wigner_eigenstate(0), spec)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", CFLWarning)
        numerics.rk4_evolve(g0, "damped", t, 0.02, sym.Params())
    cfl = [w for w in caught if issubclass(w.category, CFLWarning)]
    assert len(cfl) == int(warns)
    if warns:
        assert "h = -0.029" in str(cfl[0].message)
