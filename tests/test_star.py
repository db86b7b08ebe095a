import cmath
import itertools
import math
import warnings

import numpy as np
import pytest

import starkit as sk
from starkit import symbols as sym
from starkit.errors import (BranchAmbiguityError, NonFiniteError,
                            NonTerminatingError, SingularGaussianError)
from starkit import star as star_module
from starkit.star import _series_orders, _series_star

from conftest import random_polynomial, random_symbol

P = sym.variable("p")
Q = sym.variable("q")


def test_bracket_equations_of_motion():
    for g in (0.0, 0.1, 0.3):
        par = sym.Params(gamma=g)
        H = sk.hamiltonian(par)
        assert sym.residual(sk.bracket(Q, H, g, par),
                            sym.monomial(1.0 / par.m, 1, 0)) == 0
        assert sym.residual(
            sk.bracket(P, H, g, par),
            sym.poly_symbol({(0, 1): -par.m * par.omega ** 2,
                             (1, 0): -2.0 * g})) == 0


def test_bracket_pp_is_constant():
    par = sym.Params(m=2.0)
    assert sym.residual(sk.bracket(P, P, 0.25, par),
                        sym.const(-2.0 * 0.25 * 2.0)) == 0


def test_moyal_qp_ordering():
    for hbar in (1.0, 0.5):
        par = sym.Params(hbar=hbar)
        star = sk.moyal_star(par)
        assert sym.residual(sk.star_product(Q, P, star),
                            sym.poly_symbol({(1, 1): 1.0,
                                             (0, 0): 0.5j * hbar})) == 0
        assert sym.residual(sk.star_product(P, Q, star),
                            sym.poly_symbol({(1, 1): 1.0,
                                             (0, 0): -0.5j * hbar})) == 0


def test_damped_pp():
    par = sym.Params()
    star = sk.damped_star(0.1, par)
    assert sym.residual(sk.star_product(P, P, star),
                        sym.poly_symbol({(2, 0): 1.0, (0, 0): -0.1j})) == 0


def test_ground_state_is_star_eigenstate():
    par = sym.Params()
    rho0 = sk.sho_wigner_eigenstate(0, par)
    lhs = sk.star_product(sk.hamiltonian(par), rho0, sk.moyal_star(par))
    assert sym.residual(lhs, sym.scale(rho0, 0.5)) < 1e-13


def test_commutators():
    par = sym.Params(hbar=0.7)
    for star in (sk.moyal_star(par), sk.damped_star(0.2, par)):
        assert sym.residual(sk.star_commutator(Q, P, star),
                            sym.const(0.7j)) == 0
    H = sk.hamiltonian(par)
    assert sk.star_commutator(H, H, sk.moyal_star(par)).is_zero()


def test_damped_zero_gamma_is_moyal():
    assert sk.damped_star(0.0).matrix().tolist() == \
        sk.moyal_star().matrix().tolist()


def test_damped_ad_stationary_at_zero_gamma():
    par = sym.Params()
    rho0 = sk.sho_wigner_eigenstate(0, par)
    assert sym.residual(sk.damped_ad(sk.hamiltonian(par), rho0, 0.0, par),
                        sym.ZERO) < 1e-13


def test_damped_ad_matches_deformed_bracket(rng):
    # exact (not just semiclassical) for the quadratic Hamiltonian
    for _ in range(50):
        g = float(rng.uniform(0.0, 0.4))
        par = sym.Params(gamma=g)
        rho = random_symbol(rng)
        H = sk.hamiltonian(par)
        lhs = sym.scale(sk.damped_ad(H, rho, g, par), 1.0 / (1j * par.hbar))
        rhs = sym.scale(sk.bracket(rho, H, g, par), -1.0)
        assert sym.residual(lhs, rhs) < 1e-11


def test_damped_ad_scalar_on_linear_exponentials(rng):
    # ad[a p + b q] acts on exp(c p + d q) as multiplication by
    # -i hbar (a d - b c - 2 m gamma a c); frozen from the explicit
    # first-order series (higher orders vanish for linear arguments).
    for _ in range(10):
        a, b, c, d = rng.uniform(-1, 1, size=4)
        g = float(rng.uniform(0.0, 0.4))
        par = sym.Params(gamma=g)
        f = sym.poly_symbol({(1, 0): a, (0, 1): b})
        target = sym.gaussian(1.0, bp=c, bq=d)
        image = sk.damped_ad(f, target, g, par)
        scalar = -1j * par.hbar * (a * d - b * c - 2.0 * par.m * g * a * c)
        assert sym.residual(image, sym.scale(target, scalar)) < 1e-12


def test_star_exp_of_zero():
    assert sym.residual(sk.star_exp_truncated(sym.ZERO, sk.moyal_star(), 7),
                        sym.ONE) == 0


@pytest.mark.parametrize("N", [0, 1, 12])
@pytest.mark.parametrize("star", [sk.moyal_star(), sk.damped_star(0.1)],
                         ids=["moyal", "damped"])
def test_star_exp_normalizes_each_power_and_the_sum_once(star, N,
                                                         normalize_calls):
    f = sym.scale(sk.hamiltonian(), -0.1j)
    normalize_calls.clear()
    series = sk.star_exp_truncated(f, star, N)
    # the 1/n scale of each star power, then one pass over the N + 1 terms
    assert len(normalize_calls) == N + 1
    assert (series == sym.ONE) == (N == 0)


@pytest.mark.parametrize("gamma, passes", [(0.0, 7), (0.3, 8)])
def test_bracket_sums_its_products_in_one_pass(gamma, passes, rng,
                                               normalize_calls):
    f, g = random_symbol(rng), random_polynomial(rng)
    want = sym.combine(
        sym.pointwise_multiply(sym.differentiate(f, "q"),
                               sym.differentiate(g, "p")), 1.0,
        sym.pointwise_multiply(sym.differentiate(f, "p"),
                               sym.differentiate(g, "q")), -1.0,
        sym.pointwise_multiply(sym.differentiate(f, "p"),
                               sym.differentiate(g, "p")), -2.0 * gamma)
    normalize_calls.clear()
    got = sk.bracket(f, g, gamma, sym.Params(gamma=gamma))
    # four derivatives and two or three products, then one sum
    assert len(normalize_calls) == passes
    assert repr(got) == repr(want)


def test_star_exp_requires_polynomial():
    with pytest.raises(NonTerminatingError):
        sk.star_exp_truncated(sym.gaussian(1.0, app=-1.0), sk.moyal_star(), 3)


def test_hw_phase_frozen_values():
    assert abs(sk.hw_phase(0, 0, 0.4, -0.2, 0.3, sym.Params(gamma=0.3))
               - 1.0) < 1e-14
    par = sym.Params()
    assert abs(sk.hw_phase(1, 0, 0, 1, 0.0, par)
               - cmath.exp(-1j * par.hbar)) < 1e-12
    assert abs(sk.hw_phase(1, 0, 1, 0, 0.2, sym.Params(gamma=0.2))
               - cmath.exp(-0.4j)) < 1e-12


def _multi_index_coefficients(B, n):
    """Order-n coefficients of exp(dL^T B dR), one multi-index at a time.

    Each (k_qq, k_qp, k_pq, k_pp) with sum n adds prod B_ij^k_ij / k_ij! to
    its (left, right) derivative orders; returns {orders: (sum, sum of
    moduli)} over the orders with a nonzero term.
    """
    out = {}
    for k in itertools.product(range(n + 1), repeat=4):
        if sum(k) != n:
            continue
        c = 1.0 + 0j
        for (i, j), kij in zip(((0, 0), (0, 1), (1, 0), (1, 1)), k):
            c *= B[i][j] ** kij / math.factorial(kij)
        if c != 0:
            key = (k[0] + k[1], k[2] + k[3]), (k[0] + k[2], k[1] + k[3])
            total, size = out.get(key, (0j, 0.0))
            out[key] = (total + c, size + abs(c))
    return out


def test_series_orders_match_multi_index_formula():
    rng = np.random.default_rng(2201)
    par = sym.Params(gamma=0.3)
    matrices = [star.matrix() for star in (
        sk.moyal_star(par), sk.damped_star(0.3, par), sk.standard_star(par),
        sk.husimi_star(0.7, par))]
    matrices.append(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    # q^8 p^8 on both sides: a derivative d_q^a d_p^b (a + b <= 8) is one
    # nonzero term whose powers give (a, b) and whose coefficient is known
    mono = sym.monomial(1.0, 8, 8)

    def orders(d):
        (t,) = d.terms
        a, b = 8 - t.pow_q, 8 - t.pow_p
        scale = (math.factorial(8) ** 2
                 / (math.factorial(t.pow_q) * math.factorial(t.pow_p)))
        assert t.coeff == scale
        return a, b

    for B in matrices:
        series = list(_series_orders(mono, mono, B, 8))
        assert len(series) == 9
        for n, order in enumerate(series):
            got = {}
            for c, left, right in order:
                key = orders(left), orders(right)
                assert key not in got and c != 0
                got[key] = c
            want = _multi_index_coefficients(B, n)
            assert got.keys() == want.keys()
            for key, (total, size) in want.items():
                assert abs(got[key] - total) <= 1e-14 * size, (n, key)


def _polynomial_pairs(seed, n):
    """n seeded pairs of nonzero polynomials: constants, single monomials
    and sums of up to 11 monomials of total degree 0-8, real or complex."""
    rng = np.random.default_rng(seed)

    def coeff():
        return complex(rng.normal(), rng.normal() if rng.random() < 0.7 else 0)

    def draw():
        kind = rng.integers(0, 4)
        if kind == 0:
            return sym.const(coeff())
        if kind == 1:
            return sym.monomial(coeff(), int(rng.integers(0, 6)),
                                int(rng.integers(0, 6)))
        deg, out = int(rng.integers(0, 9)), {}
        for _ in range(int(rng.integers(1, 12))):
            pp = int(rng.integers(0, deg + 1))
            out[pp, int(rng.integers(0, deg + 1 - pp))] = coeff()
        return sym.poly_symbol(out)
    return [(draw(), draw()) for _ in range(n)]


POLY_STARS = [sk.moyal_star(sym.Params(hbar=0.7)),
              sk.damped_star(0.3, sym.Params(hbar=0.7, m=1.3)),
              sk.standard_star(sym.Params(hbar=0.7)),
              sk.husimi_star(0.8, sym.Params(hbar=0.7))]


@pytest.mark.parametrize("star", POLY_STARS, ids=lambda s: s.name)
def test_polynomial_kernel_matches_the_series(star):
    B = star.matrix()
    for f, g in _polynomial_pairs(2501, 200):
        got = sk.star_product(f, g, star)
        want = _series_star(f, g, B, min(f.degree(), g.degree()))
        # canonical: order, pruning and signed zeros as normalize makes them
        # (repr shows the sign of a zero part, which == does not compare)
        assert repr(sym.normalize(list(got.terms))) == repr(got)
        a = {(t.pow_p, t.pow_q): t.coeff for t in want.terms}
        b = {(t.pow_p, t.pow_q): t.coeff for t in got.terms}
        top = max(abs(c) for c in a.values())
        for key in a.keys() | b.keys():
            miss = abs(a.get(key, 0) - b.get(key, 0))
            assert miss <= 1e-14 * top, (key, miss / top)
            # a term only one side keeps is cancellation residue
            if key not in a.keys() & b.keys():
                assert abs(a.get(key, b.get(key))) <= 1e-14 * top


def test_polynomial_kernel_overflow_raises_typed():
    f = sym.poly_symbol({(1, 0): 1e200, (0, 0): 1.0})
    g = sym.poly_symbol({(0, 1): 1e200, (0, 0): 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError):
            sk.star_product(f, g, sk.moyal_star())


def test_series_path_only_with_one_polynomial_side(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return series(*args)

    series = star_module._series_star
    monkeypatch.setattr(star_module, "_series_star", spy)
    H = sk.hamiltonian()
    gauss = sym.gaussian(1.0, app=-0.5, aqq=-0.4)
    sk.star_product(H, sym.monomial(2.0, 3, 1), sk.damped_star(0.1))
    assert calls == []
    sk.star_product(H, gauss, sk.damped_star(0.1))
    sk.star_product(gauss, sym.variable("q"), sk.moyal_star())
    assert len(calls) == 2


def test_associativity_all_products(rng):
    par = sym.Params(gamma=0.3)
    stars = [sk.moyal_star(par), sk.damped_star(0.3, par),
             sk.standard_star(par), sk.husimi_star(1.0, par)]
    triples = [tuple(random_polynomial(rng, n_terms=3) for _ in range(3))
               for _ in range(100)]
    # class members with monomials on Gaussians: the group formula
    triples += [tuple(random_symbol(rng) for _ in range(3)) for _ in range(5)]
    for star in stars:
        worst = 0.0
        for f, g, h in triples:
            left = sk.star_product(sk.star_product(f, g, star), h, star)
            right = sk.star_product(f, sk.star_product(g, h, star), star)
            scale = 1.0 + sym.residual(left, sym.ZERO)
            worst = max(worst, sym.residual(left, right) / scale)
        assert worst < 1e-10, star.name


def test_moyal_hermiticity(rng):
    star = sk.moyal_star()
    for _ in range(20):
        f = random_polynomial(rng)
        g = random_polynomial(rng)
        lhs = sym.conjugate(sk.star_product(f, g, star))
        rhs = sk.star_product(sym.conjugate(g), sym.conjugate(f), star)
        assert sym.residual(lhs, rhs) < 1e-12
    # also through the Gaussian closed form
    f = sym.gaussian(1.0 + 0.5j, app=-0.8, aqq=-0.5, bp=0.2j)
    g = sym.gaussian(0.3 - 0.2j, app=-0.4, aqq=-0.9, bq=-0.1)
    lhs = sym.conjugate(sk.star_product(f, g, star))
    rhs = sk.star_product(sym.conjugate(g), sym.conjugate(f), star)
    assert sym.residual(lhs, rhs) < 1e-13


def test_damped_conjugation_rule(rng):
    g = 0.25
    par = sym.Params(gamma=g)
    plus = sk.damped_star(g, par)
    minus = sk.damped_star(-g, par)
    for _ in range(20):
        f = random_polynomial(rng)
        h = random_polynomial(rng)
        lhs = sym.conjugate(sk.star_product(f, h, plus))
        rhs = sk.star_product(sym.conjugate(h), sym.conjugate(f), minus)
        assert sym.residual(lhs, rhs) < 1e-12
    # witness that conjugation flips the deformation sign: p *_g p
    lhs = sym.conjugate(sk.star_product(P, P, plus))
    wrong = sk.star_product(sym.conjugate(P), sym.conjugate(P), plus)
    assert sym.residual(lhs, wrong) > 1e-3


def test_commutator_hbar_zero_part_is_poisson_bracket(rng):
    # [f,g]_damped/(i hbar) is polynomial in hbar of degree <= 3 for
    # degree-4 operands; exact interpolation through 4 hbar samples
    # extracts the hbar^0 part, which must be the plain Poisson bracket
    # (the damping term is symmetric and cancels at first order).
    g = 0.3
    hbars = (1.0, 2.0 / 3.0, 0.5, 1.0 / 3.0)
    V = np.vander(np.array(hbars), 4, increasing=True)  # row: 1, h, h^2, h^3
    P_, Q_ = sym.SAMPLE_SPEC.meshes()
    for _ in range(5):
        f = random_polynomial(rng)
        h = random_polynomial(rng)
        samples = []
        for hb in hbars:
            par = sym.Params(hbar=hb, gamma=g)
            comm = sk.star_commutator(f, h, sk.damped_star(g, par))
            samples.append(sym.evaluate_grid(sym.scale(comm, 1.0 / (1j * hb)),
                                             P_, Q_))
        coeffs = np.linalg.solve(V, np.stack([s.ravel() for s in samples]))
        poisson = sym.evaluate_grid(sk.bracket(f, h, 0.0), P_, Q_).ravel()
        assert np.abs(coeffs[0] - poisson).max() < 1e-9


def test_mixed_gamma_order_matters():
    par = sym.Params()
    f = h = P
    a = sk.star_product(f, sk.star_product(sym.ONE, h, sk.damped_star(0.3, par)),
                        sk.damped_star(0.1, par))
    b = sk.star_product(sk.star_product(f, sym.ONE, sk.damped_star(0.1, par)),
                        h, sk.damped_star(0.3, par))
    assert not sym.approx_equal(a, b, 1e-6).ok


def test_propagator_unitarity():
    par = sym.Params()
    star = sk.moyal_star(par)
    for t in (0.3, 0.7):
        U = sk.undamped_propagator(t, par)
        for prod in (sk.star_product(sym.conjugate(U), U, star),
                     sk.star_product(U, sym.conjugate(U), star)):
            assert sym.residual(prod, sym.ONE) < 1e-8


def test_singular_gaussian_guard():
    f = sym.gaussian(1.0, aqq=1j)
    g = sym.gaussian(1.0, app=1j)
    with pytest.raises(SingularGaussianError):
        sk.star_product(f, g, sk.moyal_star())


def test_branch_ambiguity_guard():
    f = sym.gaussian(1.0, aqq=2.0)
    g = sym.gaussian(1.0, app=-2.0)
    with pytest.raises(BranchAmbiguityError):
        sk.star_product(f, g, sk.moyal_star())


@pytest.mark.parametrize("make", [lambda: sk.husimi_star(float("nan")),
                                  lambda: sk.damped_star(float("nan"))],
                         ids=["husimi nan", "damped nan"])
def test_non_finite_product_raises(make):
    g = sym.gaussian(1.0, app=-0.5, aqq=-0.5)
    with pytest.raises(NonFiniteError):
        sk.star_product(g, g, make())


def test_gaussian_pair_sum_bilinearity():
    # sums of pure-Gaussian terms multiply pairwise
    par = sym.Params()
    star = sk.moyal_star(par)
    f1 = sym.gaussian(1.0, app=-0.5, aqq=-0.5)
    f2 = sym.gaussian(0.5, app=-1.0, aqq=-0.3, bp=0.1)
    g1 = sym.gaussian(2.0, app=-0.7, aqq=-0.8)
    lhs = sk.star_product(f1 + f2, g1, star)
    rhs = sk.star_product(f1, g1, star) + sk.star_product(f2, g1, star)
    assert sym.residual(lhs, rhs) < 1e-13
