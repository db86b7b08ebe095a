import cmath
import math

import numpy as np
import pytest

import starkit as sk
from starkit import symbols as sym
from starkit import transition
from starkit.errors import DegreeGuardError, SingularTimeError


def test_hamiltonian():
    par = sym.Params()
    H = sk.hamiltonian(par)
    assert sym.residual(H, sym.poly_symbol({(2, 0): 0.5, (0, 2): 0.5})) == 0
    par2 = sym.Params(m=2.0, omega=3.0)
    assert sym.evaluate(sk.hamiltonian(par2), 1.0, 0.0) == 1.0 / (2 * par2.m)
    assert sym.residual(sk.bracket(sym.variable("q"), sk.hamiltonian(par2),
                                   0.0, par2),
                        sym.monomial(1.0 / par2.m, 1, 0)) == 0


def test_ground_state_form():
    rho0 = sk.sho_wigner_eigenstate(0)
    assert sym.residual(rho0, sym.gaussian(2.0, app=-1.0, aqq=-1.0)) == 0
    assert sym.evaluate(sk.sho_wigner_eigenstate(1), 0.0, 0.0) == -2.0


def test_eigen_equations_both_sides():
    par = sym.Params()
    H = sk.hamiltonian(par)
    star = sk.moyal_star(par)
    for n in range(9):
        rho = sk.sho_wigner_eigenstate(n, par)
        en = sk.energy(n, par)
        assert sym.residual(sk.star_product(H, rho, star),
                            sym.scale(rho, en)) <= 1e-9
        assert sym.residual(sk.star_product(rho, H, star),
                            sym.scale(rho, en)) <= 1e-9


def test_wigner_functions_are_star_projectors():
    # rho_m * rho_n = delta_mn rho_n (Curtright, Fairlie & Zachos, Phys.
    # Rev. D 58 (1998) 025002); the damped transition operator is an
    # algebra isomorphism onto *_gamma, so the images obey the same law
    par = sym.Params()
    rhos = [sk.sho_wigner_eigenstate(n, par) for n in range(4)]
    cases = [(sk.moyal_star(par), rhos)]
    for g in (0.1, 0.3):
        op = transition.damped_transition(g, par)
        cases.append((sk.damped_star(g, par),
                      [transition.apply(op, rho) for rho in rhos]))
    for star, states in cases:
        for m, left in enumerate(states):
            for n, right in enumerate(states):
                want = right if m == n else sym.ZERO
                got = sk.star_product(left, right, star)
                assert sym.residual(got, want) <= 1e-12, (star.name, m, n)


def test_eigenstates_nondefault_parameters():
    par = sym.Params(m=1.7, omega=0.6, hbar=0.8)
    H = sk.hamiltonian(par)
    star = sk.moyal_star(par)
    for n in (0, 3):
        rho = sk.sho_wigner_eigenstate(n, par)
        assert sym.residual(sk.star_product(H, rho, star),
                            sym.scale(rho, sk.energy(n, par))) <= 1e-10


def test_value_recurrence_matches_symbols():
    P, Q = sym.SAMPLE_SPEC.meshes()
    W = sk.sho_wigner_values(8, P, Q)
    for n in range(9):
        direct = sym.evaluate_grid(sk.sho_wigner_eigenstate(n), P, Q)
        assert np.abs(W[n] - direct).max() < 1e-10


def test_ladder_algebra():
    par = sym.Params(m=1.4, omega=0.9, hbar=1.1)
    a, abar = sk.ladder_symbols(par)
    star = sk.moyal_star(par)
    assert sym.residual(sk.star_commutator(a, abar, star), sym.ONE) < 1e-13
    # lowest-state annihilation: (abar * a) * rho_0 = 0
    rho0 = sk.sho_wigner_eigenstate(0, par)
    number_op = sk.star_product(abar, a, star)
    assert sym.sup_norm(sk.star_product(number_op, rho0, star)) <= 1e-10
    # pointwise H = hbar w abar a; with the star the half quantum appears
    H = sk.hamiltonian(par)
    hw = par.hbar * par.omega
    assert sym.residual(sym.scale(sym.pointwise_multiply(abar, a), hw),
                        H) < 1e-13
    assert sym.residual(
        sym.scale(number_op + sym.const(0.5), hw), H) < 1e-13


def test_offdiagonal_diagonal_cases():
    par = sym.Params()
    rho00 = sk.sho_offdiagonal(0, 0, par)
    assert sym.residual(rho00, sk.sho_wigner_eigenstate(0, par)) == 0
    rho11 = sk.sho_offdiagonal(1, 1, par)
    rho_e1 = sk.sho_wigner_eigenstate(1, par)
    c = sym.evaluate(rho11, 0.0, 0.0) / sym.evaluate(rho_e1, 0.0, 0.0)
    assert sym.residual(rho11, sym.scale(rho_e1, c)) <= 1e-9


def test_offdiagonal_eigen_pairs():
    par = sym.Params()
    H = sk.hamiltonian(par)
    star = sk.moyal_star(par)
    rho10 = sk.sho_offdiagonal(1, 0, par)
    assert sym.residual(sk.star_product(H, rho10, star),
                        sym.scale(rho10, 1.5)) <= 1e-9
    assert sym.residual(sk.star_product(rho10, H, star),
                        sym.scale(rho10, 0.5)) <= 1e-9
    for n, npr in [(2, 1), (3, 0), (4, 4)]:
        rho = sk.sho_offdiagonal(n, npr, par)
        assert sym.residual(sk.star_product(H, rho, star),
                            sym.scale(rho, sk.energy(n, par))) <= 1e-9
        assert sym.residual(sk.star_product(rho, H, star),
                            sym.scale(rho, sk.energy(npr, par))) <= 1e-9


def test_offdiagonal_degree_guard():
    with pytest.raises(DegreeGuardError):
        sk.sho_offdiagonal(7, 6)


def test_undamped_propagator():
    par = sym.Params()
    assert sym.residual(sk.undamped_propagator(0.0, par), sym.ONE) == 0
    with pytest.raises(SingularTimeError):
        sk.undamped_propagator(math.pi, par)
    # small-time truncated star exponential oracle
    H = sk.hamiltonian(par)
    series = sk.star_exp_truncated(sym.scale(H, -0.1j), sk.moyal_star(par), 20)
    assert sym.residual(sk.undamped_propagator(0.1, par), series) <= 1e-8


def test_undamped_propagator_dynamical_equation():
    par = sym.Params()
    H = sk.hamiltonian(par)
    P, Q = sym.SAMPLE_SPEC.meshes()

    def vals(t):
        return sym.evaluate_grid(sk.undamped_propagator(t, par), P, Q)

    h = 1e-5
    dU = (8 * (vals(0.4 + h) - vals(0.4 - h))
          - (vals(0.4 + 2 * h) - vals(0.4 - 2 * h))) / (12 * h)
    rhs = sym.evaluate_grid(sk.star_product(
        H, sk.undamped_propagator(0.4, par), sk.moyal_star(par)), P, Q)
    assert np.abs(1j * dU - rhs).max() <= 1e-7


def test_propagator_group_property():
    par = sym.Params()
    star = sk.moyal_star(par)
    for t1, t2 in [(0.3, 0.5), (0.2, -0.7), (1.1, 0.4)]:
        lhs = sk.star_product(sk.undamped_propagator(t1, par),
                              sk.undamped_propagator(t2, par), star)
        assert sym.residual(lhs, sk.undamped_propagator(t1 + t2, par)) <= 1e-8


def test_damped_propagator():
    par0 = sym.Params(gamma=0.0)
    assert sym.residual(sk.damped_propagator(0.0, par0), sym.ONE) == 0
    # continuous gamma -> 0 limit
    assert sym.residual(sk.damped_propagator(0.4, par0),
                        sk.undamped_propagator(0.4, par0)) == 0
    tiny = sym.Params(gamma=1e-11)
    assert sym.residual(sk.damped_propagator(0.4, tiny),
                        sk.undamped_propagator(0.4, tiny)) <= 1e-10
    par = sym.Params(gamma=0.1)
    op = sk.damped_transition(0.1, par)
    lhs = sk.damped_propagator(0.5, par)
    rhs = sym.scale(sk.apply(op, sk.undamped_propagator(0.5, par)),
                    cmath.exp(0.5 * 0.1 * 0.5))
    assert sym.residual(lhs, rhs) <= 1e-9


def test_damped_propagator_dynamical_equation():
    par = sym.Params(gamma=0.1)
    H = sk.hamiltonian(par)
    P, Q = sym.SAMPLE_SPEC.meshes()

    def vals(t):
        return sym.evaluate_grid(sk.damped_propagator(t, par), P, Q)

    h = 1e-5
    dU = (8 * (vals(0.4 + h) - vals(0.4 - h))
          - (vals(0.4 + 2 * h) - vals(0.4 - 2 * h))) / (12 * h)
    rhs = sym.evaluate_grid(sk.star_product(
        H, sk.damped_propagator(0.4, par), sk.damped_star(0.1, par)), P, Q)
    assert np.abs(1j * dU - rhs).max() <= 1e-7


def test_damped_propagator_series_oracle():
    par = sym.Params(gamma=0.1)
    H = sk.hamiltonian(par)
    series = sk.star_exp_truncated(sym.scale(H, -0.1j),
                                   sk.damped_star(0.1, par), 20)
    assert sym.residual(sk.damped_propagator(0.1, par), series) <= 1e-8


def test_damped_propagator_second_singularity():
    par = sym.Params(gamma=0.1)
    t_sing = 2.0 * (math.pi + math.atan(-par.omega / (2 * par.gamma)))
    with pytest.raises(SingularTimeError):
        sk.damped_propagator(t_sing, par)


def test_damped_eigenstate():
    par = sym.Params(gamma=0.1)
    rho, ev = sk.damped_eigenstate(0, par)
    assert ev.value == 0.5 + 0.05j
    assert ev.n == 0
    H = sk.hamiltonian(par)
    for n in range(5):
        rho_n, ev_n = sk.damped_eigenstate(n, par)
        assert ev_n.value.imag == pytest.approx(0.05)
        assert ev_n.value.real == pytest.approx(sk.energy(n, par))
        lhs = sk.star_product(H, rho_n, sk.damped_star(0.1, par))
        assert sym.residual(lhs, sym.scale(rho_n, ev_n.value)) <= 1e-9
    # the damped states are genuinely complex
    P, Q = sym.SAMPLE_SPEC.meshes()
    assert np.abs(sym.evaluate_grid(rho, P, Q).imag).max() > 1e-3


def test_damped_offdiagonal_candidate():
    par = sym.Params(gamma=0.1)
    rho, right, left = sk.damped_offdiagonal_candidate(0, 0, par)
    state0, _ = sk.damped_eigenstate(0, par)
    assert sym.residual(rho, state0) == 0
    assert right <= 1e-9
    # the diagonal case also satisfies the left *_g eigen equation
    H = sk.hamiltonian(par)
    lhs = sk.star_product(H, rho, sk.damped_star(0.1, par))
    assert sym.residual(lhs, sym.scale(rho, 0.5 + 0.05j)) <= 1e-9

    rho10, right10, left10 = sk.damped_offdiagonal_candidate(1, 0, par)
    lhs = sk.star_product(rho10, H, sk.damped_star(0.1, par))
    assert sym.residual(lhs, sym.scale(rho10, 0.5 + 0.05j)) <= 1e-9
    assert right10 <= 1e-9
    # the conjugate-pair residual is reported, not asserted
    assert math.isfinite(left10)


def test_energy_values():
    par = sym.Params(hbar=0.5, omega=2.0)
    assert sk.energy(0, par) == 0.5
    assert sk.energy(3, par) == 0.5 * 2.0 * 3.5
