import cmath

import numpy as np
import pytest

import starkit as sk
from starkit import symbols as sym
from starkit import dynamics, star, transition
from starkit.errors import (BranchAmbiguityError, NonFiniteError,
                            NonTerminatingError, SingularGaussianError)

from conftest import random_polynomial, random_symbol


def test_matrices():
    par = sym.Params(hbar=0.5, m=2.0)
    C = transition.damped_transition(0.3, par).C
    assert C[1, 1] == -1j * 0.5 * 2.0 * 0.3 and C[0, 0] == 0
    C = transition.standard_transition(par).C
    assert C[0, 1] == C[1, 0] == -0.25j
    C = transition.husimi_transition(2.0, par).C
    assert C[0, 0] == 0.5 * 0.5 * 4.0 and C[1, 1] == 0.5 * 0.5 / 4.0
    op = transition.husimi_transition(2.0, par)
    assert op == transition.GaussianMap(C, np.eye(2))
    assert op != transition.husimi_transition(1.0)


def test_hamiltonian_complexification():
    for g in (0.05, 0.1, 0.3):
        par = sym.Params(gamma=g)
        op = transition.damped_transition(g, par)
        H = sk.hamiltonian(par)
        image = transition.apply(op, H)
        assert sym.residual(image, H + sym.const(-0.5j * par.hbar * g)) == 0
    # kinetic + arbitrary polynomial potential shifts the same way
    par = sym.Params(gamma=0.2)
    op = transition.damped_transition(0.2, par)
    f = sym.poly_symbol({(2, 0): 0.5, (0, 4): 1.0, (0, 1): -2.0})
    assert sym.residual(transition.apply(op, f),
                        f + sym.const(-0.1j)) == 0


def test_damped_ignores_momentum_free_symbols():
    op = transition.damped_transition(0.3)
    for k in range(5):
        f = sym.monomial(1.0, 0, k)
        assert transition.apply(op, f) == f


def test_ground_state_image_matches_closed_form_value():
    par = sym.Params(gamma=0.1)
    op = transition.damped_transition(0.1, par)
    image = transition.apply(op, sk.sho_wigner_eigenstate(0, par))
    den = 1.0 - 0.2j
    expected = (2.0 / cmath.sqrt(den)) * cmath.exp(-1.0 / den - 1.0)
    assert abs(sym.evaluate(image, 1.0, 1.0) - expected) < 1e-10


def test_inverse():
    op = transition.damped_transition(0.2)
    inv = transition.inverse(op)
    assert inv.C[1, 1] == -op.C[1, 1]
    # inverse of damped(g) acts like damped(-g)
    H = sk.hamiltonian()
    shifted = transition.apply(op, H)
    assert sym.residual(transition.apply(inv, shifted), H) == 0
    rho0 = sk.sho_wigner_eigenstate(0)
    round_trip = transition.apply(inv, transition.apply(op, rho0))
    assert sym.residual(round_trip, rho0) < 1e-10


def test_check_equivalence_examples(rng):
    par = sym.Params(gamma=0.1)
    q, p = sym.variable("q"), sym.variable("p")
    r = transition.check_equivalence(
        q, p, sk.moyal_star(par), sk.damped_star(0.1, par),
        transition.damped_transition(0.1, par))
    assert r <= 1e-12
    for _ in range(10):
        f = random_polynomial(rng, max_degree=3)
        g = random_polynomial(rng, max_degree=3)
        assert transition.check_equivalence(
            f, g, sk.standard_star(par), sk.moyal_star(par),
            transition.standard_transition(par)) <= 1e-10
        assert transition.check_equivalence(
            f, g, sk.moyal_star(par), sk.husimi_star(1.0, par),
            transition.husimi_transition(1.0, par)) <= 1e-10


def test_check_equivalence_needs_polynomials():
    par = sym.Params()
    with pytest.raises(NonTerminatingError):
        transition.check_equivalence(
            sym.gaussian(1.0, app=-1.0), sym.variable("q"),
            sk.moyal_star(par), sk.moyal_star(par),
            transition.standard_transition(par))


def _shift_bq(f, h):
    t = f.terms[0]
    e = t.expo
    return sym.Symbol((sym.Term(t.coeff, t.pow_p, t.pow_q, sym.QuadExponent(
        e.app, e.aqq, e.apq, e.bp, e.bq + h)),))


def test_prefactor_images_match_parameter_differences():
    # q * G equals the bq-derivative of G, so its image must equal the
    # bq-derivative of the pure-Gaussian image (central differences)
    op = transition.damped_transition(0.25)
    base = sym.gaussian(1.3, app=-0.7 + 0.1j, aqq=-0.5, apq=0.15,
                        bp=0.2, bq=-0.1)
    image_qg = transition.apply(op, sym.pointwise_multiply(
        sym.variable("q"), base))
    h = 1e-5
    P, Q = sym.SAMPLE_SPEC.meshes()
    plus = sym.evaluate_grid(transition.apply(op, _shift_bq(base, h)), P, Q)
    minus = sym.evaluate_grid(transition.apply(op, _shift_bq(base, -h)), P, Q)
    fd = (plus - minus) / (2 * h)
    got = sym.evaluate_grid(image_qg, P, Q)
    assert np.abs(got - fd).max() < 1e-8


def _shift_bp(f, h):
    t = f.terms[0]
    e = t.expo
    return sym.Symbol((sym.Term(t.coeff, t.pow_p, t.pow_q, sym.QuadExponent(
        e.app, e.aqq, e.apq, e.bp + h, e.bq)),))


def test_prefactor_images_match_bp_differences():
    # p^a q^b G is the (a, b)-fold (bp, bq)-derivative of G, so its image is
    # that derivative of the pure-Gaussian image (central differences)
    base = sym.gaussian(1.3, app=-0.7 + 0.1j, aqq=-0.5, apq=0.15,
                        bp=0.2, bq=-0.1)
    P, Q = sym.SAMPLE_SPEC.meshes()
    ops = [transition.damped_transition(0.25),
           transition.standard_transition(),
           transition.husimi_transition(1.0)]
    for op in ops:
        def image_at(i, j, h):
            shifted = _shift_bq(_shift_bp(base, i * h), j * h)
            return sym.evaluate_grid(transition.apply(op, shifted), P, Q)

        def prefactor_image(pow_p, pow_q):
            f = sym.pointwise_multiply(sym.monomial(1.0, pow_p, pow_q), base)
            return sym.evaluate_grid(transition.apply(op, f), P, Q)

        h = 1e-5
        fd = (image_at(1, 0, h) - image_at(-1, 0, h)) / (2 * h)
        assert np.abs(prefactor_image(1, 0) - fd).max() < 1e-8
        h = 1e-4
        fd = (image_at(1, 1, h) - image_at(1, -1, h) - image_at(-1, 1, h)
              + image_at(-1, -1, h)) / (4 * h * h)
        assert np.abs(prefactor_image(1, 1) - fd).max() < 1e-6
        h = 1e-3
        fd = sum(w * (image_at(i, 1, h) - image_at(i, -1, h))
                 for i, w in ((1, 1.0), (0, -2.0), (-1, 1.0))) / (2 * h ** 3)
        assert np.abs(prefactor_image(2, 1) - fd).max() < 1e-5


def test_apply_solves_once_per_exponent_group(monkeypatch):
    rho = sk.sho_wigner_eigenstate(6)
    assert len({t.expo for t in rho.terms}) == 1 and len(rho.terms) > 1
    calls = []

    def counting(det):
        calls.append(det)
        return sqrt_prefactor(det)

    sqrt_prefactor = star._sqrt_prefactor
    monkeypatch.setattr(star, "_sqrt_prefactor", counting)
    transition.apply(transition.damped_transition(0.2), rho)
    assert len(calls) == 1


def test_star_product_solves_once_per_pair_of_groups(monkeypatch):
    rho2 = sk.sho_wigner_eigenstate(2)
    rho3 = sk.sho_wigner_eigenstate(3)
    calls = []

    def counting(det):
        calls.append(det)
        return sqrt_prefactor(det)

    sqrt_prefactor = star._sqrt_prefactor
    monkeypatch.setattr(star, "_sqrt_prefactor", counting)
    sk.star_product(rho2, rho3, sk.moyal_star())
    assert len(calls) == 1


def test_prefactor_image_second_order():
    op = transition.husimi_transition(1.0)
    base = sym.gaussian(1.0, app=-0.6, aqq=-0.9, bq=0.3)
    image = transition.apply(op, sym.pointwise_multiply(
        sym.monomial(1.0, 0, 2), base))
    h = 1e-4
    P, Q = sym.SAMPLE_SPEC.meshes()
    vals = [sym.evaluate_grid(transition.apply(op, _shift_bq(base, k * h)),
                              P, Q) for k in (-1, 0, 1)]
    fd = (vals[2] - 2 * vals[1] + vals[0]) / (h * h)
    assert np.abs(sym.evaluate_grid(image, P, Q) - fd).max() < 1e-6


def test_damped_transition_is_not_real():
    op = transition.damped_transition(0.2)
    f = sym.monomial(1.0, 2, 0)
    lhs = sym.conjugate(transition.apply(op, f))
    rhs = transition.apply(op, sym.conjugate(f))
    assert sym.residual(lhs, rhs) > 1e-3


def test_husimi_transition_is_real(rng):
    op = transition.husimi_transition(1.0)
    for _ in range(10):
        f = random_symbol(rng)
        lhs = sym.conjugate(transition.apply(op, f))
        rhs = transition.apply(op, sym.conjugate(f))
        assert sym.residual(lhs, rhs) < 1e-12


def test_propagator_consistency():
    par = sym.Params(gamma=0.1)
    op = transition.damped_transition(0.1, par)
    for t in (0.1, 0.5):
        lhs = sym.scale(transition.apply(op, sk.undamped_propagator(t, par)),
                        cmath.exp(0.5 * 0.1 * t))
        assert sym.residual(lhs, sk.damped_propagator(t, par)) <= 1e-9


def test_husimi_distribution_fixed_point_and_broadening():
    assert transition.husimi_distribution(sym.ONE, 1.0) == sym.ONE
    rho0 = sk.sho_wigner_eigenstate(0)
    image = transition.husimi_distribution(rho0, 1.0)
    # ground state smooths to a Gaussian with variance grown by hbar/2
    assert sym.residual(image, sym.gaussian(1.0, app=-0.5, aqq=-0.5)) < 1e-13
    P, Q = sym.SAMPLE_SPEC.meshes()
    vals = sym.evaluate_grid(image, P, Q)
    assert vals.real.min() > 0.0
    assert np.abs(vals.imag).max() < 1e-14


def test_husimi_matches_convolution_quadrature():
    from starkit import numerics
    par = sym.Params()
    # the ground state, and monomials on a tilted, off-centre Gaussian
    expo = sym.QuadExponent(app=-0.6, aqq=-0.8, apq=0.3, bp=0.4, bq=-0.5)
    member = sym.normalize([sym.Term(1.0, 1, 2, expo),
                            sym.Term(0.5 - 0.25j, 0, 1, expo)])
    for s, rho in ((1.0, sk.sho_wigner_eigenstate(0, par)), (1.3, member)):
        image = transition.husimi_distribution(rho, s, par)
        for q0, p0 in [(0.0, 0.0), (1.5, -0.75), (-2.25, 0.75)]:
            def integrand(Pp, Qp):
                kern = np.exp(-((q0 - Qp) ** 2 / s ** 2
                                + s ** 2 * (p0 - Pp) ** 2) / par.hbar)
                return sym.evaluate_grid(rho, Pp, Qp) * kern

            quad = numerics.gauss_legendre_2d(integrand, -8, 8, -8, 8,
                                              order=60) / (np.pi * par.hbar)
            assert abs(sym.evaluate(image, p0, q0) - quad) < 1e-6


def test_apply_singular_gaussian_guard():
    op = transition.damped_transition(0.1)
    bad = sym.gaussian(1.0, app=5j)  # makes det(I - 2CA) vanish
    with pytest.raises(SingularGaussianError):
        transition.apply(op, bad)


def test_apply_branch_ambiguity_guard():
    # K = I - 2CA = diag(-1, 1): det K = -1 leaves the right half-plane
    op = transition.husimi_transition(1.0)
    with pytest.raises(BranchAmbiguityError):
        transition.apply(op, sym.gaussian(1.0, aqq=2.0))


def test_image_matches_evaluate_at_mapped_nodes():
    # f(L x) with C = 0 and complex, non-diagonal L; exponents carry beta != 0
    expo = sym.QuadExponent(app=-0.6 + 0.1j, aqq=-0.8, apq=0.2 - 0.1j,
                            bp=0.3 - 0.2j, bq=-0.4 + 0.1j)
    f = sym.normalize([sym.Term(1.0 - 0.5j, 2, 1, expo),
                       sym.Term(0.7, 0, 3, expo),
                       sym.Term(-0.2j, 1, 0, expo.conjugate()),
                       sym.Term(0.4, 2, 2), sym.Term(1.5j, 0, 1)])
    L = np.array([[0.9 + 0.1j, 0.2 - 0.1j], [-0.3 + 0.05j, 1.1 - 0.2j]])
    g = transition.apply(transition.GaussianMap(np.zeros((2, 2)), L), f)
    nodes = np.random.default_rng(5).uniform(-2.0, 2.0, size=(20, 2))
    for q, p in nodes:
        yq, yp = L @ np.array([q, p])
        want = sym.evaluate(f, complex(yp), complex(yq))
        assert abs(sym.evaluate(g, p, q) - want) <= 1e-12 * (1 + abs(want))
    # the identity map changes nothing
    assert transition.apply(
        transition.GaussianMap(np.zeros((2, 2)), np.eye(2)), f) == f


def test_image_is_transition_then_pullback(rng):
    C = ((0.3 - 0.1j, 0.2j), (0.2j, -0.25 + 0.05j))
    op = transition.GaussianMap(C, np.eye(2))
    flow = dynamics.flow_map(0.9, sym.Params(gamma=0.2))
    states = [sk.sho_wigner_eigenstate(4)]
    states += [random_symbol(rng, n_terms=3) for _ in range(5)]
    for f in states:
        one_pass = transition.apply(transition.GaussianMap(C, flow.L), f)
        two_pass = dynamics.pullback(transition.apply(op, f), flow)
        assert sym.approx_equal(one_pass, two_pass, 1e-12)


def test_transitions_compose_by_adding_gamma():
    # T_g o T_g' = T_{g + g'}: C adds, L stays I
    par = sym.Params(hbar=0.7, m=1.3)
    for g1, g2 in ((0.1, 0.25), (0.3, -0.3), (0.05, 0.4)):
        both = transition.compose(transition.damped_transition(g1, par),
                                  transition.damped_transition(g2, par))
        want = transition.damped_transition(g1 + g2, par)
        assert np.abs(both.C - want.C).max() <= 1e-15
        assert (both.L == np.eye(2)).all()
        for f in (sk.sho_wigner_eigenstate(4, par), sk.hamiltonian(par)):
            assert sym.approx_equal(transition.apply(both, f),
                                    transition.apply(want, f), 1e-13)


def _mixed_map(rng):
    """Complex symmetric C of size about 0.05 and complex L near I."""
    c = 0.05 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    L = np.eye(2) + 0.1 * (rng.standard_normal((2, 2))
                           + 1j * rng.standard_normal((2, 2)))
    return transition.GaussianMap(c + c.T, L)


def test_image_of_composition_is_image_of_image(rng):
    states = [sk.sho_wigner_eigenstate(4)]
    states += [random_symbol(rng, n_terms=3) for _ in range(5)]
    for f in states:
        m1, m2 = _mixed_map(rng), _mixed_map(rng)
        one_pass = transition.apply(transition.compose(m1, m2), f)
        two_pass = transition.apply(m2, transition.apply(m1, f))
        assert sym.approx_equal(one_pass, two_pass, 1e-12)


def test_inverse_undoes_a_general_map(rng):
    for f in [sk.sho_wigner_eigenstate(4)] + [random_symbol(rng)
                                              for _ in range(5)]:
        m = _mixed_map(rng)
        ident = transition.compose(m, transition.inverse(m))
        assert np.abs(ident.C).max() <= 1e-15
        assert np.abs(ident.L - np.eye(2)).max() <= 1e-15
        back = transition.apply(transition.inverse(m), transition.apply(m, f))
        assert sym.approx_equal(back, f, 1e-12)


@pytest.mark.parametrize("make", [
    lambda: transition.damped_transition(float("nan")),
    lambda: transition.husimi_transition(float("nan")),
    lambda: transition.husimi_transition(float("inf")),
    lambda: transition.GaussianMap(np.zeros((2, 2)), [[1.0, np.inf], [0, 1]]),
], ids=["damped nan", "husimi nan", "husimi inf", "infinite L"])
def test_non_finite_map_raises(make):
    with pytest.raises(NonFiniteError):
        make()


@pytest.mark.parametrize("s", [0.0, -1.0])
def test_husimi_transition_needs_positive_squeezing(s):
    with pytest.raises(ValueError, match="squeezing parameter s must be "
                                         "positive"):
        transition.husimi_transition(s)


def _taylor_series(f, C):
    """sum_k (D^k f) / k! with D = (1/2) grad^T C grad, by symbolic
    derivatives; the series ends as D lowers the degree by 2."""
    def D(h):
        out = sym.ZERO
        for (a, b), w in ((("q", "q"), C[0][0] / 2), (("p", "p"), C[1][1] / 2),
                          (("q", "p"), C[0][1])):
            out = sym.combine(out, 1.0, sym.differentiate(
                sym.differentiate(h, a), b), w)
        return out
    total, order, k = f, f, 0
    while not order.is_zero():
        k += 1
        order = sym.scale(D(order), 1.0 / k)
        total = sym.combine(total, 1.0, order, 1.0)
    return total


def test_taylor_factors_match_symbolic_derivatives():
    # symmetric C with nonzero diagonal (the d_i^2 factors) and off-diagonal
    C = ((0.3 - 0.1j, 0.2 + 0.15j), (0.2 + 0.15j, -0.25 + 0.05j))
    rng = np.random.default_rng(2029)
    for degree in range(9):
        for _ in range(4):
            f = random_polynomial(rng, degree, 8, scale=1.0)
            got = transition.apply(transition.GaussianMap(C, np.eye(2)), f)
            want = _taylor_series(f, C)
            a = {(t.pow_p, t.pow_q): t.coeff for t in want.terms}
            b = {(t.pow_p, t.pow_q): t.coeff for t in got.terms}
            top = max(abs(c) for c in a.values())
            for key in a.keys() | b.keys():
                assert abs(a.get(key, 0) - b.get(key, 0)) <= 1e-13 * top


def test_unipotent_kernel_skips_the_determinant(monkeypatch):
    # M = 0 (two polynomials) and S = 0 (a pullback) give (SM)^2 = 0:
    # det K = 1 and K^{-1} = I + 2SM without LAPACK
    calls = []

    def counting(det):
        calls.append(det)
        return sqrt_prefactor(det)

    sqrt_prefactor = star._sqrt_prefactor
    monkeypatch.setattr(star, "_sqrt_prefactor", counting)
    f = sym.poly_symbol({(2, 1): 0.5, (0, 3): -1.0j, (1, 0): 2.0})
    sk.star_product(f, f, sk.husimi_star(0.8))
    sk.pullback(sk.sho_wigner_eigenstate(4), sk.flow_map(0.7))
    assert calls == []
    sk.star_product(sk.sho_wigner_eigenstate(2), sk.sho_wigner_eigenstate(2),
                    sk.moyal_star())
    assert len(calls) == 1
