import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

import starkit as sk
from starkit import dynamics, numerics, transition
from starkit import symbols as sym
from starkit.errors import (ExponentOverflowError, NonFiniteError,
                            PositivityError)

from conftest import random_symbol


def _rk4_point(x0, t, params, dt=1e-4):
    """Independent pointwise integration of the damped equations of motion."""
    m, w, g = params.m, params.omega, params.gamma

    def f(x):
        q, p = x
        return np.array([p / m, -m * w * w * q - 2 * g * p])

    steps = round(abs(t) / dt)
    h = t / max(steps, 1)
    x = np.array(x0, dtype=float)
    for _ in range(max(steps, 1)):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def test_flow_map_identity_and_rotation():
    assert np.allclose(sk.flow_map(0.0).matrix(), np.eye(2), atol=1e-15)
    par = sym.Params()
    L = sk.flow_map(0.8, par).matrix()
    expected = np.array([[math.cos(0.8), math.sin(0.8)],
                         [-math.sin(0.8), math.cos(0.8)]])
    assert np.abs(L - expected).max() < 1e-14


def test_flow_map_against_pointwise_integration():
    par = sym.Params(gamma=0.1)
    L = sk.flow_map(2.0, par).matrix()
    for x0 in ([0.7, -0.4], [1.0, 0.0], [-0.3, 1.2]):
        assert np.abs(L @ np.array(x0)
                      - _rk4_point(x0, 2.0, par)).max() <= 1e-8


def test_flow_map_regimes_and_continuity():
    for g, regime in ((0.2, "underdamped"), (1.0, "critical"),
                      (1.9, "overdamped")):
        par = sym.Params(gamma=g)
        assert par.regime == regime
        det = np.linalg.det(sk.flow_map(1.3, par).matrix())
        assert abs(det - math.exp(-2 * g * 1.3)) < 1e-12
    crit = sk.flow_map(1.3, sym.Params(gamma=1.0)).matrix()
    below = sk.flow_map(1.3, sym.Params(gamma=1.0 - 1e-9)).matrix()
    above = sk.flow_map(1.3, sym.Params(gamma=1.0 + 1e-9)).matrix()
    assert np.abs(crit - below).max() < 1e-7
    assert np.abs(crit - above).max() < 1e-7


def test_flow_map_group_property():
    # flow(t) o flow(s) = flow(t + s), as matrices and as images
    par = sym.Params(gamma=0.3)
    rho = sk.sho_wigner_eigenstate(4)
    for t1, t2 in [(0.5, 0.9), (1.0, -0.4)]:
        both = transition.compose(sk.flow_map(t1, par), sk.flow_map(t2, par))
        want = sk.flow_map(t1 + t2, par)
        assert (both.C == 0).all()
        assert np.abs(both.L - want.L).max() <= 1e-10
        assert sym.approx_equal(sk.pullback(rho, both),
                                sk.pullback(rho, want), 1e-10)


def test_flow_inverse_round_trip(rng):
    par = sym.Params(gamma=0.2)
    for t in (0.9, -1.3, 2.0):
        fm = sk.flow_map(t, par)
        inv = transition.inverse(fm)
        assert (inv.C == 0).all()
        assert np.abs(inv.L - sk.flow_map(-t, par).L).max() <= 1e-14
        for rho in (sk.sho_wigner_eigenstate(4), random_symbol(rng)):
            back = sk.pullback(sk.pullback(rho, fm), inv)
            assert sym.approx_equal(back, rho, 1e-13)


def test_naive_semigroup_as_maps():
    # m(t) o m(s) = m(t + s) for the naive solution maps at gamma = 0.3
    par = sym.Params(gamma=0.3)
    rho = sk.sho_wigner_eigenstate(4)
    for t1, t2 in [(0.7, 1.1), (1.3, -0.4)]:
        both = transition.compose(dynamics.naive_map(t1, par),
                                  dynamics.naive_map(t2, par))
        want = dynamics.naive_map(t1 + t2, par)
        assert np.abs(both.C - want.C).max() <= 1e-15
        assert np.abs(both.L - want.L).max() <= 1e-15
        assert sym.approx_equal(transition.apply(both, rho),
                                dynamics.evolve_naive(rho, t1 + t2, par),
                                1e-13)


@pytest.mark.parametrize("gamma, t", [(0.1, 3.0), (0.2, 3.0), (0.5, 1.0),
                                      (0.2, -1.0), (1.6, 0.2)])
def test_classical_evolution_decays_the_trace(gamma, t):
    # the corrected equation does not conserve the trace: det L(t) = e^{-2 g t}
    par = sym.Params(gamma=gamma)
    rho = dynamics.evolve_classical(sk.sho_wigner_eigenstate(3, par), t, par)
    total = numerics.gauss_legendre_2d(
        lambda P, Q: sym.evaluate_grid(rho, P, Q), -12, 12, -12, 12,
        order=160)
    det = np.linalg.det(sk.flow_map(t, par).L)
    assert abs(det - math.exp(-2 * gamma * t)) <= 1e-12 * det
    assert abs(total - 2 * math.pi * math.exp(-2 * gamma * t)) <= 1e-12


@pytest.mark.parametrize("call", [
    lambda: dynamics.evolve_naive(sk.sho_wigner_eigenstate(2), math.nan),
    lambda: dynamics.evolve_naive(sk.sho_wigner_eigenstate(2), math.inf),
    lambda: dynamics.evolve_classical(sk.sho_wigner_eigenstate(2), -math.inf),
    lambda: sk.flow_map(math.nan),
], ids=["evolve_naive nan", "evolve_naive inf", "evolve_classical -inf",
        "flow_map nan"])
def test_non_finite_time_raises(call):
    with pytest.raises(NonFiniteError):
        call()


@pytest.mark.parametrize("call", [
    lambda: sk.flow_map(-1e4, sym.Params(gamma=0.1)),
    lambda: sk.flow_map(-800.0, sym.Params(gamma=1.0)),
    lambda: sk.flow_map(-400.0, sym.Params(gamma=1.6)),
    lambda: sk.evolve_classical(sk.sho_wigner_eigenstate(2), 1e4,
                                sym.Params(gamma=0.1)),
], ids=["underdamped exp", "critical exp", "overdamped exp",
        "evolve_classical"])
def test_overflowing_flow_raises(call):
    with pytest.raises(ExponentOverflowError):
        call()


def test_long_overdamped_flow_is_representable():
    # cosh(Omega t) overflows at t = 1000, but L(t) ~ e^{(Omega - g) t}
    par = sym.Params(gamma=1.6)
    om = math.sqrt(1.6 ** 2 - 1.0)
    up = math.exp((om - 1.6) * 1000.0)
    L = sk.flow_map(1000.0, par).L
    want = np.array([[(1 + 1.6 / om) / 2, 1 / (2 * om)],
                     [-1 / (2 * om), (1 - 1.6 / om) / 2]]) * up
    assert np.abs(L - want).max() <= 1e-12 * np.abs(want).max()
    # across Omega |t| = 20, where the branch switches: L(30) = L(10) L(20)
    both = transition.compose(sk.flow_map(10.0, par), sk.flow_map(20.0, par))
    want = sk.flow_map(30.0, par).L
    assert np.abs(both.L - want).max() <= 1e-12 * np.abs(want).max()


def test_pullback(rng):
    rho = random_symbol(rng)
    ident = sk.flow_map(0.0)
    assert sym.residual(sk.pullback(rho, ident), rho) == 0
    par = sym.Params(gamma=0.2)
    fm = sk.flow_map(0.9, par)
    L = fm.matrix()
    moved_q = sk.pullback(sym.variable("q"), fm)
    assert sym.residual(moved_q, sym.poly_symbol({(0, 1): L[0, 0],
                                                  (1, 0): L[0, 1]})) == 0
    pulled = sk.pullback(rho, fm)
    for _ in range(20):
        q, p = rng.uniform(-2, 2, size=2)
        q2, p2 = L @ np.array([q, p])
        assert abs(sym.evaluate(pulled, p, q)
                   - sym.evaluate(rho, p2, q2)) < 1e-12


def test_evolve_classical_stationary_state():
    rho0 = sk.sho_wigner_eigenstate(0)
    par = sym.Params(gamma=0.0)
    for t in (0.5, 2.1, 2 * math.pi):
        assert sym.residual(dynamics.evolve_classical(rho0, t, par),
                            rho0) < 1e-12


def test_evolve_classical_solves_damped_equation():
    par = sym.Params(gamma=0.1)
    rho0 = sym.gaussian(1.0, app=-0.6, aqq=-0.8, apq=0.1, bp=0.3, bq=-0.4)
    P, Q = sym.SAMPLE_SPEC.meshes()

    def vals(t):
        return sym.evaluate_grid(dynamics.evolve_classical(rho0, t, par), P, Q)

    h = 1e-5
    for t0 in (0.0, 0.7, 2.5):
        fd = (8 * (vals(t0 + h) - vals(t0 - h))
              - (vals(t0 + 2 * h) - vals(t0 - 2 * h))) / (12 * h)
        rhs = sym.evaluate_grid(dynamics.damped_rhs(
            dynamics.evolve_classical(rho0, t0, par), par), P, Q)
        assert np.abs(fd - rhs).max() <= 1e-7


def test_displaced_gaussian_spirals_inward():
    par = sym.Params(gamma=0.2)
    rho0 = sym.gaussian(2.0, app=-1.0, aqq=-1.0, bq=3.0)  # peak at q=1.5
    state = dynamics.evolve_classical(rho0, 5.0, par)
    spec = sym.GridSpec(-3.0, 3.0, -3.0, 3.0, 121, 121)
    P, Q = spec.meshes()

    def peak_norm(f):
        vals = np.abs(sym.evaluate_grid(f, P, Q))
        iq, ip = np.unravel_index(np.argmax(vals), vals.shape)
        return math.hypot(Q[iq, ip], P[iq, ip])

    assert peak_norm(state) < 0.4 * peak_norm(rho0)


def test_semigroup_property(rng):
    par = sym.Params(gamma=0.25)
    rho0 = random_symbol(rng)
    two_step = dynamics.evolve_classical(
        dynamics.evolve_classical(rho0, 0.6, par), 0.9, par)
    one_step = dynamics.evolve_classical(rho0, 1.5, par)
    assert sym.residual(two_step, one_step) <= 1e-9


def test_damped_rhs_examples(rng):
    par0 = sym.Params(gamma=0.0)
    rho0 = sk.sho_wigner_eigenstate(0)
    assert sym.residual(dynamics.damped_rhs(rho0, par0), sym.ZERO) < 1e-13
    for _ in range(10):
        g = float(rng.uniform(0, 0.4))
        par = sym.Params(gamma=g)
        rho = random_symbol(rng)
        assert sym.residual(
            dynamics.damped_rhs(rho, par),
            sym.scale(sk.bracket(rho, sk.hamiltonian(par), g, par),
                      -1.0)) < 1e-11


def test_damped_rhs_keeps_real_states_real(rng):
    par = sym.Params(gamma=0.3)
    for _ in range(20):
        rho = random_symbol(rng, real=True)
        rhs = dynamics.damped_rhs(rho, par)
        assert dynamics.reality_defect(rhs) <= 1e-12
        # rhs equals -(2/hbar) Im(rho *_g H) for real states
        prod = sk.star_product(rho, sk.hamiltonian(par),
                               sk.damped_star(0.3, par))
        imag_part = sym.scale(sym.combine(prod, 1.0, sym.conjugate(prod), -1.0),
                              -1.0 / (1j * par.hbar))
        assert sym.residual(rhs, imag_part) < 1e-11


def test_naive_rhs(rng):
    par0 = sym.Params(gamma=0.0)
    rho = random_symbol(rng)
    assert sym.residual(dynamics.naive_rhs(rho, par0),
                        dynamics.damped_rhs(rho, par0)) < 1e-12
    par = sym.Params(gamma=0.1)
    for _ in range(10):
        rho = random_symbol(rng)
        extra = sym.combine(dynamics.naive_rhs(rho, par), 1.0,
                            dynamics.moyal_rhs(rho, par), -1.0)
        expected = sym.scale(sym.differentiate(
            sym.differentiate(rho, "p"), "q"), 1j * 0.1 * par.hbar)
        assert sym.residual(extra, expected) < 1e-12
    defect = dynamics.reality_defect(dynamics.naive_rhs(
        sk.sho_wigner_eigenstate(0), par))
    assert defect > 1e-3


def test_reality_defect_basics():
    assert dynamics.reality_defect(sym.ZERO) == 0.0
    par = sym.Params(gamma=0.1)
    assert dynamics.reality_defect(dynamics.damped_rhs(
        sk.sho_wigner_eigenstate(0), par)) <= 1e-12


def test_evolve_naive_reality_defects():
    par = sym.Params(gamma=0.1)
    rho0 = sk.sho_wigner_eigenstate(0, par)
    defects = [dynamics.reality_defect(dynamics.evolve_naive(rho0, t, par))
               for t in (0.0, 1.0, 2.0)]
    assert defects[0] == 0.0
    assert defects[1:] == pytest.approx([8.832221e-2, 1.026458e-1], rel=1e-6)


NAIVE_PARAMS = [sym.Params(gamma=0.1), sym.Params(1.7, 0.8, 0.6, 0.3)]


@pytest.mark.parametrize("par", NAIVE_PARAMS)
def test_evolve_naive_solves_naive_equation(par):
    rho0 = sk.sho_wigner_eigenstate(3, par)
    P, Q = sym.SAMPLE_SPEC.meshes()

    def vals(t):
        return sym.evaluate_grid(dynamics.evolve_naive(rho0, t, par), P, Q)

    h = 1e-5
    for t0 in (-1.0, 0.0, 0.7, 3.0):
        fd = (8 * (vals(t0 + h) - vals(t0 - h))
              - (vals(t0 + 2 * h) - vals(t0 - 2 * h))) / (12 * h)
        rhs = sym.evaluate_grid(dynamics.naive_rhs(
            dynamics.evolve_naive(rho0, t0, par), par), P, Q)
        assert np.abs(fd - rhs).max() <= 1e-8


@pytest.mark.parametrize("par", NAIVE_PARAMS)
def test_evolve_naive_semigroup_and_round_trip(par):
    for rho0 in (sk.sho_wigner_eigenstate(0, par),
                 sk.sho_wigner_eigenstate(3, par)):
        two_step = dynamics.evolve_naive(
            dynamics.evolve_naive(rho0, 0.7, par), 0.8, par)
        assert sym.residual(
            two_step, dynamics.evolve_naive(rho0, 1.5, par)) <= 1e-14
        back = dynamics.evolve_naive(
            dynamics.evolve_naive(rho0, 1.3, par), -1.3, par)
        assert sym.residual(back, rho0) <= 1e-14


@pytest.mark.parametrize("gamma", [0.1, 0.3])
def test_evolve_naive_matches_two_pass_reference(gamma, rng):
    # the two-pass form: the derivative exponential as a transition
    # operator, then the pullback along the undamped flow
    par = sym.Params(gamma=gamma)
    m, w, k = par.m, par.omega, 1j * gamma * par.hbar
    states = [sk.sho_wigner_eigenstate(n, par) for n in range(9)]
    states += [random_symbol(rng, n_terms=3) for _ in range(5)]
    for t in (-1.3, 0.7, 2.0):
        c, s = math.cos(2 * w * t), math.sin(2 * w * t)
        cqp = k * s / (2 * w)
        op = transition.GaussianMap(
            ((k * (c - 1) / (2 * m * w * w), cqp), (cqp, k * m * (1 - c) / 2)),
            np.eye(2))
        flow = dynamics.flow_map(-t, replace(par, gamma=0.0))
        for rho in states:
            two_pass = dynamics.pullback(transition.apply(op, rho), flow)
            assert sym.approx_equal(dynamics.evolve_naive(rho, t, par),
                                    two_pass, 1e-12)


def test_evolve_naive_at_zero_gamma_is_classical(rng):
    par = sym.Params(1.7, 0.8, 0.6, 0.0)
    for t in (-1.0, 0.7, 3.0):
        rho0 = random_symbol(rng)
        assert sym.residual(dynamics.evolve_naive(rho0, t, par),
                            dynamics.evolve_classical(rho0, t, par)) <= 1e-15


def test_eigenexpansion_diagonal_is_stationary():
    par = sym.Params()
    coeffs = {(2, 2): 0.7 + 0j}
    s0 = dynamics.evolve_eigenexpansion(coeffs, 0.0, par)
    s1 = dynamics.evolve_eigenexpansion(coeffs, 1.3, par)
    assert sym.residual(s0, s1) < 1e-12


def test_eigenexpansion_phase_rotation():
    par = sym.Params()
    coeffs = {(1, 0): 1.0 + 0j}
    period = 2 * math.pi / par.omega
    s0 = dynamics.evolve_eigenexpansion(coeffs, 0.0, par)
    assert sym.residual(dynamics.evolve_eigenexpansion(coeffs, period, par),
                        s0) < 1e-12
    half = dynamics.evolve_eigenexpansion(coeffs, period / 2, par)
    assert sym.residual(half, sym.scale(s0, -1.0)) < 1e-12


def _overlap(f, g):
    """L2 inner product <f, g> by Gauss-Legendre quadrature."""
    def integrand(Pp, Qp):
        return (np.conj(sym.evaluate_grid(f, Pp, Qp))
                * sym.evaluate_grid(g, Pp, Qp))

    return numerics.gauss_legendre_2d(integrand, -8, 8, -8, 8, order=80)


def test_eigenexpansion_reconstructs_coherent_state():
    # displaced ground state, projected onto the off-diagonal basis with
    # quadrature overlaps normalized by the (diagonal) Gram matrix
    par = sym.Params()
    shift = math.exp(-0.36)
    rho_c = sym.gaussian(2.0 * shift, app=-1.0, aqq=-1.0, bq=1.2)
    coeffs = {}
    for n in range(11):
        for npr in range(11):
            if n + npr > 12:
                continue
            basis = sk.sho_offdiagonal(n, npr, par)
            coeffs[(n, npr)] = _overlap(basis, rho_c) / _overlap(basis, basis)
    t = 0.9
    rebuilt = dynamics.evolve_eigenexpansion(coeffs, t, par)
    exact = dynamics.evolve_classical(rho_c, t, sym.Params(gamma=0.0))
    assert sym.residual(rebuilt, exact) <= 1e-6


def test_damped_ansatz_modes():
    par = sym.Params()
    state = sym.gaussian(1.0, app=-1.0, aqq=-1.0)
    # real eigenvalues: a pure phase
    out = dynamics.evolve_damped_ansatz([(1.0, 1.5 + 0j, 0.5 + 0j, state)],
                                        1.1, par)
    assert abs(abs(sym.evaluate(out, 0.3, 0.4))
               - abs(sym.evaluate(state, 0.3, 0.4))) < 1e-12
    # decay rates lambda = lambda' = hbar g / 2 give modulus e^{-g t}
    g = 0.2
    lam = 0.5 * par.hbar * g
    t = 1.7
    out = dynamics.evolve_damped_ansatz(
        [(1.0, 0.5 + 1j * lam, 0.5 + 1j * lam, state)], t, par)
    ratio = abs(sym.evaluate(out, 0.3, 0.4) / sym.evaluate(state, 0.3, 0.4))
    assert abs(ratio - math.exp(-g * t)) < 1e-12


def test_damped_ansatz_superposition_decay():
    par = sym.Params()
    s1 = sym.gaussian(1.0, app=-1.0, aqq=-1.0)
    s2 = sym.gaussian(1.0, app=-0.5, aqq=-0.5)
    entries = [(0.8, 0.5 + 0.1j, 0.5 + 0.1j, s1),
               (0.4, 1.5 + 0.3j, 0.5 + 0.2j, s2)]
    t = 0.8
    out = dynamics.evolve_damped_ansatz(entries, t, par)
    expected = sym.ZERO
    for amp, ev, evp, state in entries:
        factor = amp * cmath.exp(-1j * (ev.conjugate() - evp) * t / par.hbar)
        expected = sym.combine(expected, 1.0, state, factor)
    assert sym.residual(out, expected) <= 1e-12


def test_damped_ansatz_sums_its_entries_in_one_pass(normalize_calls):
    par = sym.Params(gamma=0.1)
    entries = [(0.3 + 0.1j * n, sk.oscillator.damped_energy(n, par),
                sk.oscillator.damped_energy(n + 1, par), sk.sho_offdiagonal(n, n + 1))
               for n in range(5)]
    normalize_calls.clear()
    out = dynamics.evolve_damped_ansatz(entries, 0.7, par)
    assert len(normalize_calls) == 1
    expected = sym.ZERO
    for amp, ev, evp, state in entries:
        factor = amp * cmath.exp(-1j * (ev.conjugate() - evp) * 0.7)
        expected = sym.combine(expected, 1.0, state, factor)
    assert sym.residual(out, expected) <= 1e-14
    assert dynamics.evolve_damped_ansatz([], 0.7, par) == sym.ZERO


def test_damped_ansatz_rejects_negative_decay():
    state = sym.gaussian(1.0, app=-1.0, aqq=-1.0)
    with pytest.raises(PositivityError):
        dynamics.evolve_damped_ansatz([(1.0, 0.5 - 0.1j, 0.5 + 0j, state)],
                                      0.5)


@pytest.mark.parametrize("n", [4, 8, 12])
def test_evolved_wigner_state_matches_the_value_recurrence(n):
    # rho_n(L(-t) x) against the Laguerre value recurrence at the mapped
    # nodes, gamma = 0.2, t = 1.  The expanded coefficients cancel as n
    # grows, with no guard yet: the dict kernel this replaced missed by
    # 1.9e-6, 6.5e-3 and 1.8 at n = 16, 20 and 24 (1.0e-7, 4.1e-5 and
    # 3.2e-2 on the dense kernel); at n = 12 it missed by 4.2e-9.
    params = sym.Params(gamma=0.2)
    L = dynamics.flow_map(-1.0, params).matrix()
    P, Q = sym.SAMPLE_SPEC.meshes()
    want = sk.sho_wigner_values(n, L[1, 0] * Q + L[1, 1] * P,
                                L[0, 0] * Q + L[0, 1] * P)[n]
    got = sym.evaluate_grid(
        dynamics.evolve_classical(sk.sho_wigner_eigenstate(n), 1.0, params),
        P, Q)
    assert np.abs(got - want).max() <= 1e-7
