import cmath
import math

import numpy as np
import pytest

import starkit as sk
from starkit import symbols as sym
from starkit import transition
from starkit.errors import (BranchAmbiguityError, DegreeGuardError,
                            SingularTimeError, StarkitError)


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


@pytest.mark.parametrize("n_max", [0, 1])
def test_value_recurrence_before_its_loop(n_max):
    P, Q = sym.SAMPLE_SPEC.meshes()
    W = sk.sho_wigner_values(n_max, P, Q)
    assert W.shape == (n_max + 1,) + P.shape
    for n in range(n_max + 1):
        direct = sym.evaluate_grid(sk.sho_wigner_eigenstate(n), P, Q)
        assert np.abs(W[n] - direct).max() < 1e-12


def test_value_recurrence_takes_broadcast_axes():
    spec = sym.GridSpec(-6.0, 6.0, -6.0, 6.0, 201, 201)
    P, Q = spec.meshes()
    axes = sk.sho_wigner_values(40, spec.p_values()[None, :],
                                spec.q_values()[:, None])
    assert np.array_equal(axes, sk.sho_wigner_values(40, P, Q))


def test_ladder_algebra():
    par = sym.Params(m=1.4, omega=0.9, hbar=1.1)
    a, abar = sk.ladder_symbols(par)
    star = sk.moyal_star(par)
    assert sym.residual(sk.star_commutator(a, abar, star), sym.ONE) < 1e-13
    # lowest-state annihilation: (abar * a) * rho_0 = 0
    rho0 = sk.sho_wigner_eigenstate(0, par)
    number_op = sk.star_product(abar, a, star)
    assert sym.residual(sk.star_product(number_op, rho0, star),
                        sym.ZERO) <= 1e-10
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


def _symbolic_wigner_states(n_max, params):
    """rho_0 .. rho_{n_max} by the Laguerre recurrence on symbols, the
    reference for the dense recurrence of sho_wigner_eigenstate:
    (n+1) L_{n+1} = (2n+1-x) L_n - n L_{n-1}, x = 4H/hw, times
    2 (-1)^n exp(-x/2)."""
    h, m, w = params.hbar, params.m, params.omega
    x = sym.scale(sk.hamiltonian(params), 4.0 / (h * w))
    ls = [sym.ONE, sym.combine(sym.ONE, 1.0, x, -1.0)]
    for n in range(1, n_max):
        a = sym.combine(sym.scale(ls[n], 2 * n + 1.0), 1.0,
                        sym.pointwise_multiply(x, ls[n]), -1.0)
        ls.append(sym.combine(a, 1.0 / (n + 1), ls[n - 1], -n / (n + 1.0)))
    return [sym.pointwise_multiply(ln, sym.gaussian(
        2.0 * (-1.0) ** n, app=-1.0 / (m * h * w), aqq=-m * w / h))
        for n, ln in enumerate(ls[:n_max + 1])]


def _term_bits(f):
    return [(t.pow_p, t.pow_q, t.coeff, np.signbit(t.coeff.real),
             np.signbit(t.coeff.imag), t.expo) for t in f.terms]


_PARAMS = (sym.Params(), sym.Params(m=1.4, omega=0.9, hbar=1.1),
           sym.Params(m=0.7, omega=1.3, hbar=0.8, gamma=0.2))


@pytest.mark.parametrize("par", _PARAMS)
def test_wigner_states_match_the_symbolic_recurrence_bit_for_bit(par):
    for n, want in enumerate(_symbolic_wigner_states(40, par)):
        got = sk.sho_wigner_eigenstate(n, par)
        assert _term_bits(got) == _term_bits(want), n


@pytest.mark.parametrize("par", _PARAMS[:2])
def test_offdiagonal_matches_the_ladder_products(par):
    # abar^{*n} * rho_0 * a^{*n'} by star products, every n + n' <= 12
    a, abar = sk.ladder_symbols(par)
    star = sk.moyal_star(par)
    left = sk.sho_wigner_eigenstate(0, par)
    for n in range(13):
        rho = left
        for nprime in range(13 - n):
            got = sk.sho_offdiagonal(n, nprime, par)
            assert {t.expo for t in got.terms} == {t.expo for t in rho.terms}
            want = {(t.pow_p, t.pow_q): t.coeff for t in rho.terms}
            have = {(t.pow_p, t.pow_q): t.coeff for t in got.terms}
            miss = max(abs(have.get(k, 0) - want.get(k, 0))
                       for k in want.keys() | have.keys())
            assert miss <= 1e-12 * max(map(abs, want.values())), (n, nprime)
            rho = sk.star_product(rho, a, star)
        left = sk.star_product(abar, left, star)


def test_offdiagonal_is_conjugate_under_swap():
    par = sym.Params(m=1.4, omega=0.9, hbar=1.1)
    for n in range(13):
        for nprime in range(13 - n):
            assert sk.sho_offdiagonal(n, nprime, par) == sym.conjugate(
                sk.sho_offdiagonal(nprime, n, par)), (n, nprime)


def test_offdiagonal_degree_guard():
    with pytest.raises(DegreeGuardError):
        sk.sho_offdiagonal(7, 6)


@pytest.mark.parametrize("n, nprime", [(-1, 0), (0, -1), (-2, 3)])
def test_offdiagonal_rejects_negative_indices(n, nprime):
    with pytest.raises(ValueError, match="indices must be non-negative"):
        sk.sho_offdiagonal(n, nprime)


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


def test_undamped_propagator_at_complex_time():
    par = sym.Params()
    P, Q = sym.SAMPLE_SPEC.meshes()
    for t in (0.3 - 0.2j, 1.1 - 0.5j, -0.7 + 0.4j):
        # sec(wt/2) exp(2 H tan(wt/2) / (i hbar w)) on the nodes
        tau = 2.0 * cmath.tan(0.5 * t) / 1j
        ref = np.exp(tau * (0.5 * P * P + 0.5 * Q * Q)) / cmath.cos(0.5 * t)
        got = sym.evaluate_grid(sk.undamped_propagator(t, par), P, Q)
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()
    with pytest.raises(SingularTimeError):
        sk.undamped_propagator(math.pi + 1e-10j, par)


def test_damped_propagator_rejects_complex_time():
    with pytest.raises(ValueError):
        sk.damped_propagator(0.3 - 0.2j, sym.Params(gamma=0.1))


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


def test_damped_propagator_raises_on_the_cut():
    # 1 + (2 gamma/omega) tan(omega t/2) is real and negative here
    par = sym.Params(gamma=0.3)
    for t in (3.3, 4.0):
        with pytest.raises(BranchAmbiguityError):
            sk.damped_propagator(t, par)


@pytest.mark.parametrize("gamma", [0.1, 0.3, 0.9])
def test_propagator_routes_agree_or_both_raise(gamma):
    par = sym.Params(gamma=gamma)
    op = transition.damped_transition(gamma, par)

    def image(t):
        return sym.scale(transition.apply(op, sk.undamped_propagator(t, par)),
                         cmath.exp(0.5 * gamma * t))

    def outcome(route, t):
        try:
            return route(t)
        except StarkitError:
            return None

    raised = 0
    for t in np.linspace(0.0, 2 * math.pi, 120, endpoint=False):
        closed = outcome(lambda s: sk.damped_propagator(s, par), t)
        via_transition = outcome(image, t)
        if closed is None or via_transition is None:
            assert closed is None and via_transition is None, t
            raised += 1
        else:
            assert sym.approx_equal(via_transition, closed, 1e-12), t
    assert raised  # the sweep crosses the singular times and the cut


def test_damped_eigenstate():
    par = sym.Params(gamma=0.1)
    rho, ev = sk.damped_eigenstate(0, par)
    assert ev == 0.5 + 0.05j
    H = sk.hamiltonian(par)
    for n in range(5):
        rho_n, ev_n = sk.damped_eigenstate(n, par)
        assert ev_n == sk.energy(n, par) + 0.05j
        lhs = sk.star_product(H, rho_n, sk.damped_star(0.1, par))
        assert sym.residual(lhs, sym.scale(rho_n, ev_n)) <= 1e-9
    # the damped states are genuinely complex
    P, Q = sym.SAMPLE_SPEC.meshes()
    assert np.abs(sym.evaluate_grid(rho, P, Q).imag).max() > 1e-3


def test_energy_values():
    par = sym.Params(hbar=0.5, omega=2.0)
    assert sk.energy(0, par) == 0.5
    assert sk.energy(3, par) == 0.5 * 2.0 * 3.5
