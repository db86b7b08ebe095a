import itertools
import math

import numpy as np
import pytest

import starkit as sk
from starkit import symbols as sym
from starkit.errors import ExponentOverflowError, NonFiniteError
from starkit.expr import parse

from conftest import random_symbol


# Term and QuadExponent are tuples of their fields, equal and hashed by
# value in C: a Term now equals the plain tuple (coeff, pow_p, pow_q, expo).
def test_value_types_are_equal_and_hashed_by_value():
    e = sym.QuadExponent(app=-1.0, bq=0.5j)
    t = sym.Term(2.0 + 1j, 1, 3, e)
    same = sym.Term(2.0 + 1j, 1, 3, sym.QuadExponent(-1.0, 0j, 0j, 0j, 0.5j))
    assert same == t and hash(same) == hash(t) and same is not t
    assert {t: "t"}[same] == "t"
    assert t == (2.0 + 1j, 1, 3, e) and e == (-1.0, 0j, 0j, 0j, 0.5j)
    assert sym.Term(2.0 + 1j, 3, 1, e) != t
    assert sym.Term(2.0 + 1j, 1, 3) != t
    assert sym.Term(1.0, 0, 0).expo is sym.ZERO_EXPO


def test_value_types_are_immutable():
    t = sym.Term(1.0, 0, 0, sym.QuadExponent(app=-1.0))
    for obj, field in ((t, "coeff"), (t, "expo"), (t.expo, "app")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 2.0)
    for obj in (t, t.expo):
        with pytest.raises(TypeError):
            obj[0] = 2.0


def test_exponents_add_entrywise():
    a = sym.QuadExponent(-1.0, 2j, 0.5, 1.0, -3.0)
    b = sym.QuadExponent(0.5, -2j, 0.25j, 0j, 3.0)
    total = a + b
    assert type(total) is sym.QuadExponent
    assert total == sym.QuadExponent(-0.5, 0j, 0.5 + 0.25j, 1.0, 0j)
    assert a.entries() == tuple(a) and a + sym.ZERO_EXPO == a
    assert sym.ZERO_EXPO.is_zero() and not total.is_zero()


@pytest.mark.parametrize("op", [
    lambda t, e: t + t, lambda t, e: t * 2, lambda t, e: 2 * t,
    lambda t, e: e * 2, lambda t, e: 2 * e],
    ids=["term+term", "term*2", "2*term", "expo*2", "2*expo"])
def test_tuple_operators_are_no_symbol_algebra(op):
    e = sym.QuadExponent(app=-1.0)
    with pytest.raises(TypeError):
        op(sym.Term(1.0, 1, 0, e), e)


def test_term_and_symbol_repr():
    f = sym.gaussian(2.0, app=-1.0)
    term = ("Term(coeff=(2+0j), pow_p=0, pow_q=0, expo=QuadExponent("
            "app=(-1+0j), aqq=0j, apq=0j, bp=0j, bq=0j))")
    assert repr(f.terms[0]) == term
    assert repr(f) == f"Symbol(terms=({term},))"
    assert repr(sym.variable("q")) == (
        "Symbol(terms=(Term(coeff=(1+0j), pow_p=0, pow_q=1, expo=QuadExponent("
        "app=0j, aqq=0j, apq=0j, bp=0j, bq=0j)),))")


def test_normalize_exact_cancellation():
    out = sym.normalize([sym.Term(1.0, 0, 0), sym.Term(-1.0, 0, 0)])
    assert out.is_zero()


def test_normalize_coefficient_addition():
    out = sym.normalize([sym.Term(2.0, 1, 0), sym.Term(3.0, 1, 0)])
    assert len(out.terms) == 1
    assert out.terms[0].coeff == 5.0
    assert (out.terms[0].pow_p, out.terms[0].pow_q) == (1, 0)


def test_normalize_sums_are_correctly_rounded():
    # 1 + 1e-17 - 1 is exactly 1e-17, in any order of arrival
    for order in itertools.permutations([1.0, 1e-17, -1.0]):
        out = sym.normalize([sym.Term(c, 0, 2) for c in order])
        assert [t.coeff for t in out.terms] == [1e-17]
    assert parse("1 - 1 + 1e-17") == sym.const(1e-17)
    assert parse("1e-17 + 1 - 1") == sym.const(1e-17)
    # each part is summed on its own, and a lone zero part stays +0.0
    out = sym.normalize([sym.Term(1e-17 - 2j, 0, 0), sym.Term(1 + 1j, 0, 0),
                         sym.Term(-1 + 1j, 0, 0), sym.Term(complex(-0.0, -0.0),
                                                           1, 0)])
    assert repr(out) == repr(sym.Symbol((sym.Term(1e-17 + 0j, 0, 0),)))


def test_normalize_is_independent_of_arrival_order():
    rng = np.random.default_rng(2502)
    raw = [t for _ in range(3) for t in sk.sho_wigner_eigenstate(12).terms]
    raw += [sym.Term(c * rng.normal(), t.pow_p, t.pow_q, t.expo)
            for _ in range(4) for t in random_symbol(rng, n_terms=6).terms
            for c in (1.0, 1e-9, -1.0)]
    want = repr(sym.normalize(raw))
    for _ in range(50):
        rng.shuffle(raw)
        assert repr(sym.normalize(raw)) == want


def test_normalize_merges_nearby_exponents():
    e1 = sym.QuadExponent(app=-1.0)
    e2 = sym.QuadExponent(app=-1.0 + 1e-14)
    merged = sym.normalize([sym.Term(1.0, 0, 0, e1), sym.Term(1.0, 0, 0, e2)])
    assert len(merged.terms) == 1
    # merged symbol evaluates like the unmerged sum
    direct = sym.gaussian(1.0, app=-1.0) + sym.gaussian(1.0, app=-1.0 + 1e-14)
    assert sym.residual(merged, direct) < 1e-10
    # a chain: e3 is within tolerance of e2 but not of e1, and e2 joins
    # e1, the first representative, so e3 starts a representative of its own
    e2 = sym.QuadExponent(app=-1.0 + 0.8e-12)
    e3 = sym.QuadExponent(app=-1.0 + 1.6e-12)
    chain = sym.normalize([sym.Term(1.0, 0, 0, e) for e in (e1, e2, e3)])
    assert [t.expo for t in chain.terms] == [e1, e3]
    assert [t.coeff for t in chain.terms] == [2.0, 1.0]
    # the representative is the first exponent seen, whatever the order
    swapped = sym.normalize([sym.Term(1.0, 0, 0, e) for e in (e2, e1, e3)])
    assert [t.expo for t in swapped.terms] == [e2]
    assert swapped.terms[0].coeff == 3.0


def test_normalize_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        sym.normalize([sym.Term(float("nan"), 0, 0)])
    with pytest.raises(NonFiniteError):
        sym.normalize([sym.Term(1.0, 0, 0, sym.QuadExponent(app=float("inf")))])
    # an exponent seen before is placed once, but every coefficient is checked
    e = sym.QuadExponent(app=-1.0)
    with pytest.raises(NonFiniteError):
        sym.normalize([sym.Term(1.0, 0, 0, e), sym.Term(float("inf"), 1, 0, e)])
    # every distinct exponent is checked, not only the first
    with pytest.raises(NonFiniteError):
        sym.normalize([sym.Term(1.0, 0, 0, e),
                       sym.Term(1.0, 0, 0, sym.QuadExponent(aqq=float("nan")))])
    # a sum of finite coefficients that overflows is caught too
    with pytest.raises(NonFiniteError):
        sym.normalize([sym.Term(1e308, 0, 0), sym.Term(1e308, 0, 0)])


def test_combine_is_linear(rng):
    f = random_symbol(rng)
    g = random_symbol(rng)
    assert sym.combine(f, 1.0, f, -1.0).is_zero()
    s = sym.combine(f, 2.0, g, -3.0)
    for _ in range(5):
        p, q = rng.uniform(-2, 2, size=2)
        expected = 2.0 * sym.evaluate(f, p, q) - 3.0 * sym.evaluate(g, p, q)
        assert abs(sym.evaluate(s, p, q) - expected) < 1e-12


def test_combine_doubles():
    rho = sk.sho_wigner_eigenstate(0)
    doubled = sym.combine(rho, 1.0, rho, 1.0)
    for p, q in [(0, 0), (1, 0), (0, 1), (1, -1), (-2, 0.5)]:
        assert abs(sym.evaluate(doubled, p, q)
                   - 2 * sym.evaluate(rho, p, q)) < 1e-14


def test_combine_takes_any_number_of_pairs(rng):
    f, g, h = (random_symbol(rng) for _ in range(3))
    assert sym.combine() == sym.ZERO
    assert repr(sym.combine(f, 0.5j)) == repr(sym.scale(f, 0.5j))
    # one pass over the scaled terms of every pair
    raw = [sym.Term(t.coeff * a, t.pow_p, t.pow_q, t.expo)
           for x, a in ((f, 2.0), (g, -1j), (h, 0.25)) for t in x.terms]
    assert repr(sym.combine(f, 2.0, g, -1j, h, 0.25)) == repr(
        sym.normalize(raw))
    with pytest.raises(TypeError, match="pairs"):
        sym.combine(f, 1.0, g)


def test_pointwise_multiply():
    q = sym.variable("q")
    p = sym.variable("p")
    qp = sym.pointwise_multiply(q, p)
    assert len(qp.terms) == 1
    assert (qp.terms[0].pow_p, qp.terms[0].pow_q) == (1, 1)

    ga = sym.gaussian(1.0, aqq=-1.0)
    gb = sym.gaussian(1.0, app=-1.0)
    gc = sym.pointwise_multiply(ga, gb)
    assert len(gc.terms) == 1
    assert gc.terms[0].expo == sym.QuadExponent(app=-1.0, aqq=-1.0)

    one_plus = sym.poly_symbol({(0, 0): 1.0, (0, 1): 1.0})
    one_minus = sym.poly_symbol({(0, 0): 1.0, (0, 1): -1.0})
    assert sym.residual(sym.pointwise_multiply(one_plus, one_minus),
                        sym.poly_symbol({(0, 0): 1.0, (0, 2): -1.0})) == 0


@pytest.mark.parametrize("text", ["p", "q", "-2.5*q", "(0.3 - 1.1*i)*p*q",
                                  "2*exp(-p^2 - 0.5*q*p)", "0"])
def test_pointwise_power_is_the_repeated_product(text):
    f = parse(text)
    for n in (0, 1, 2, 7, 40):
        folded = sym.ONE
        for _ in range(n):
            folded = sym.pointwise_multiply(folded, f)
        assert sym.pointwise_power(f, n).terms == folded.terms


def _bits(f):
    return [(np.float64(c.real).tobytes(), np.float64(c.imag).tobytes(),
             t.pow_p, t.pow_q)
            for t in f.terms
            for c in (complex(t.coeff), *map(complex, t.expo.entries()))]


@pytest.mark.parametrize("coeff", [complex(-0.0, -0.0), complex(1.0, -0.0),
                                   complex(-0.0, 2.0), 5e-324, 3])
@pytest.mark.parametrize("expo", [sym.ZERO_EXPO,
                                  sym.QuadExponent(app=complex(-0.5, -0.0),
                                                   apq=0.25, bq=-0.0)])
def test_single_term_skips_the_grouping_with_the_same_bits(coeff, expo):
    t = sym.Term(coeff, 2, 1, expo)
    pruned = sym.Term(0.0, 0, 0)  # a second raw term forces the grouping
    for one, many in ((sym.scale(sym.Symbol((t,)), -1.0),
                       sym.normalize([sym.Term(t.coeff * -1.0, 2, 1, expo),
                                      pruned])),
                      (sym.pointwise_multiply(sym.Symbol((t,)), sym.ONE),
                       sym.normalize([sym.Term(t.coeff * sym.ONE.terms[0].coeff,
                                               2, 1, expo + sym.ZERO_EXPO),
                                      pruned])),
                      (sym.monomial(coeff, 2, 1),
                       sym.normalize([sym.Term(coeff, 2, 1), pruned]))):
        assert _bits(one) == _bits(many)


def test_single_term_checks_like_normalize():
    for t in (sym.Term(complex(math.inf, 0.0), 0, 0),
              sym.Term(1.0, 0, 0, sym.QuadExponent(app=math.nan))):
        with pytest.raises(NonFiniteError, match="non-finite coefficient"):
            sym.scale(sym.Symbol((t,)), 1.0)


def test_pointwise_power_rejects_overflow_and_negative_powers():
    with pytest.raises(NonFiniteError):
        parse("(1e200*p)^2")
    with pytest.raises(ValueError):
        sym.pointwise_power(sym.variable("p"), -1)


def test_differentiate_polynomials():
    p2 = sym.monomial(1.0, 2, 0)
    d = sym.differentiate(p2, "p")
    assert sym.residual(d, sym.monomial(2.0, 1, 0)) == 0


def test_differentiate_gaussian_chain_rule():
    alpha = -0.7 + 0.2j
    g = sym.gaussian(1.0, app=alpha)
    d = sym.differentiate(g, "p")
    expected = sym.normalize([sym.Term(2 * alpha, 1, 0,
                                       sym.QuadExponent(app=alpha))])
    assert sym.residual(d, expected) == 0


@pytest.mark.parametrize("f", [sym.ZERO, sym.variable("q"),
                               sk.sho_wigner_eigenstate(1)],
                         ids=["zero", "q", "rho_1"])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_differentiate_rejects_unknown_variable(f, order):
    with pytest.raises(ValueError, match="var"):
        sym.differentiate(f, "x", order)


def _fd_mixed(f, p, q, h=1e-4):
    """Richardson-extrapolated central difference for d2 f / dp dq."""
    def mixed(hh):
        return (sym.evaluate(f, p + hh, q + hh) - sym.evaluate(f, p + hh, q - hh)
                - sym.evaluate(f, p - hh, q + hh)
                + sym.evaluate(f, p - hh, q - hh)) / (4 * hh * hh)

    return (4.0 * mixed(h / 2) - mixed(h)) / 3.0


def test_differentiate_matches_finite_differences():
    rho = sk.sho_wigner_eigenstate(0)
    d = sym.differentiate(sym.differentiate(rho, "p"), "q")
    assert abs(sym.evaluate(d, 1.0, 1.0) - _fd_mixed(rho, 1.0, 1.0)) < 1e-6


def test_differentiate_higher_order_is_iterated(rng):
    f = random_symbol(rng)
    assert sym.residual(sym.differentiate(f, "p", 2),
                        sym.differentiate(sym.differentiate(f, "p"), "p")) == 0


def _structurally_equal(a, b, tol=1e-13):
    """Same canonical term structure; coefficients equal to rounding."""
    if len(a.terms) != len(b.terms):
        return False
    for ta, tb in zip(a.terms, b.terms):
        if (ta.pow_p, ta.pow_q) != (tb.pow_p, tb.pow_q):
            return False
        if any(abs(x - y) > sym.MERGE_TOL for x, y in
               zip(ta.expo.entries(), tb.expo.entries())):
            return False
        if abs(ta.coeff - tb.coeff) > tol * (1.0 + abs(ta.coeff)):
            return False
    return True


def test_mixed_partials_commute(rng):
    # equality is structural term-by-term; coefficients agree to rounding
    # (float products associate differently between the two orders)
    for _ in range(50):
        f = random_symbol(rng)
        a = sym.differentiate(sym.differentiate(f, "p"), "q")
        b = sym.differentiate(sym.differentiate(f, "q"), "p")
        assert _structurally_equal(a, b)


def test_conjugate():
    f = sym.monomial(1j, 0, 1)
    assert sym.residual(sym.conjugate(f), sym.monomial(-1j, 0, 1)) == 0
    rho = sk.sho_wigner_eigenstate(0)
    assert sym.conjugate(rho) == rho


def test_conjugate_involution_and_evaluation(rng):
    for _ in range(10):
        f = random_symbol(rng)
        assert sym.conjugate(sym.conjugate(f)) == f
        p, q = rng.uniform(-2, 2, size=2)
        assert abs(sym.evaluate(sym.conjugate(f), p, q)
                   - sym.evaluate(f, p, q).conjugate()) < 1e-14


def test_conjugate_propagator_reverses_time():
    U = sk.undamped_propagator(0.3)
    Um = sk.undamped_propagator(-0.3)
    assert sym.residual(sym.conjugate(U), Um) < 1e-10


def test_evaluate_frozen_values():
    par = sym.Params()
    assert sym.evaluate(sk.sho_wigner_eigenstate(0, par), 0, 0) == 2.0
    assert sym.evaluate(sk.hamiltonian(par), 1, 1) == 1.0
    assert sym.evaluate(sk.sho_wigner_eigenstate(1, par), 0, 0) == -2.0


def test_evaluate_overflow():
    g = sym.gaussian(1.0, app=1.0)
    with pytest.raises(ExponentOverflowError):
        sym.evaluate(g, 40.0, 0.0)
    with pytest.raises(ExponentOverflowError):
        sym.evaluate_grid(g, np.array([[40.0]]), np.array([[0.0]]))
    # inf - inf: the exponent's real part is NaN, which must not pass
    g = sym.gaussian(1.0, app=1.0, aqq=-1.0)
    with pytest.raises(ExponentOverflowError):
        sym.evaluate(g, 1e200, 1e200)
    with pytest.raises(ExponentOverflowError), \
            np.errstate(over="ignore", invalid="ignore"):
        sym.evaluate_grid(g, np.array([[1e200]]), np.array([[1e200]]))


def test_evaluate_grid_non_finite_nodes():
    g = sym.gaussian(1.0, app=-1.0)
    with pytest.raises(NonFiniteError):
        sym.evaluate(g, float("nan"), 0.0)
    for P, Q in (([[np.nan, np.inf]], [[0.0, 0.0]]),
                 ([[0.0, 1.0]], [[0.0, -np.inf]])):
        with pytest.raises(NonFiniteError):
            sym.evaluate_grid(g, np.array(P), np.array(Q))
    # the zero symbol is no exception
    with pytest.raises(NonFiniteError):
        sym.evaluate_grid(sym.ZERO, np.array([[np.nan]]), np.array([[0.0]]))


def test_exponent_groups_partition_the_terms(rng):
    f = sym.combine(random_symbol(rng, n_terms=4), 1.0,
                    sym.poly_symbol({(2, 1): 0.5, (0, 0): -1j}), 1.0)
    groups = sym.exponent_groups(f)
    assert list(groups) == list(dict.fromkeys(t.expo for t in f.terms))
    assert sym.ZERO_EXPO in groups
    assert sum(map(np.count_nonzero, groups.values())) == len(f.terms)
    for t in f.terms:
        assert groups[t.expo][t.pow_q, t.pow_p] == t.coeff
    for e, F in groups.items():
        ts = [t for t in f.terms if t.expo == e]
        assert F.dtype == np.complex128
        assert F.shape == (max(t.pow_q for t in ts) + 1,
                           max(t.pow_p for t in ts) + 1)


def _members(rng):
    yield from (random_symbol(rng, n_terms=n) for n in (1, 2, 4, 6))
    yield sym.combine(random_symbol(rng, n_terms=3), 1.0,
                      sym.poly_symbol({(2, 1): 0.5, (0, 3): -1j}), 1.0)
    yield from (sk.sho_wigner_eigenstate(n) for n in (0, 1, 5, 24))
    yield from (sk.sho_offdiagonal(n, nprime)
                for n, nprime in ((1, 0), (0, 3), (4, 2), (6, 6)))
    yield from sk.ladder_symbols()


def test_array_symbol_inverts_exponent_groups(rng):
    for f in _members(rng):
        parts = [sym.array_symbol(F, e)
                 for e, F in sym.exponent_groups(f).items()]
        assert sum(parts, sym.ZERO) == f
        # each part is its group's terms in canonical order
        order = list(dict.fromkeys(t.expo for t in f.terms))
        assert [t for part in parts for t in part.terms] == sorted(
            f.terms, key=lambda t: order.index(t.expo))


@pytest.mark.parametrize("build", [
    lambda: sym.poly_symbol({(-1, 0): 1, (3, 0): 2}),
    lambda: sym.poly_symbol({(0.5, 1): 1, (3, 0): 2}),
    lambda: sym.monomial(1, 2.5, 0),
    lambda: sym.monomial(1, 0, -1),
    lambda: sym.monomial(1, 2.0, 0),
    lambda: sym.normalize([sym.Term(1.0, 0, 1.5)]),
    lambda: sym.normalize([sym.Term(1.0, "1", 0)]),
    lambda: sym.normalize([sym.Term(1.0, 1, 0), sym.Term(1.0, -2, 0)]),
    lambda: sym.normalize([sym.Term(1.0, 1, 0),
                           sym.Term(1.0, 0, 0.5, sym.QuadExponent(app=-1))]),
    lambda: sym.normalize([sym.Term(1.0, 1, 0), sym.Term(1.0, None, 0)]),
], ids=["poly negative", "poly fraction", "monomial fraction",
        "monomial negative", "monomial float", "one term fraction",
        "one term string", "grouped negative", "grouped fraction",
        "grouped None"])
def test_powers_must_be_non_negative_integers(build):
    with pytest.raises(ValueError, match="non-negative integers"):
        build()


@pytest.mark.parametrize("first, second", [(2, 2.0), (2.0, 2),
                                           (np.int64(2), 2.0)],
                         ids=["int then float", "float then int",
                              "numpy int then float"])
def test_power_check_is_independent_of_arrival_order(first, second):
    raw = [sym.Term(1.0, first, 0), sym.Term(1.0, second, 0)]
    with pytest.raises(ValueError, match="non-negative integers, not 2.0"):
        sym.normalize(raw)


def test_numpy_integer_powers_are_stored_as_python_ints():
    two, three = np.int64(2), np.uint8(3)
    for f in (sym.monomial(1.0, two, three),
              sym.normalize([sym.Term(1.0, two, three),
                             sym.Term(1.0, 2, 3), sym.Term(1.0, 0, three)])):
        assert all(type(t.pow_p) is int and type(t.pow_q) is int
                   for t in f.terms)
    assert sym.monomial(1.0, two, three) == sym.monomial(1.0, 2, 3)
    # a numpy power arriving after an int one merges into its bucket
    (t,) = sym.normalize([sym.Term(1.0, 2, 0), sym.Term(1.0, two, 0)]).terms
    assert (t.coeff, type(t.pow_p), t.pow_p) == (2.0, int, 2)


@pytest.mark.parametrize("call, message", [
    (lambda: sym.variable("x"), "variable must be 'p' or 'q'"),
    (lambda: sym.approx_equal(sym.ONE, sym.ONE, 0), "tol must be positive"),
], ids=["variable x", "approx_equal tol 0"])
def test_bad_arguments_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_approx_equal():
    f = sk.sho_wigner_eigenstate(0)
    assert sym.approx_equal(f, f, 1e-10).ok
    qp = sk.star_product(sym.variable("q"), sym.variable("p"), sk.moyal_star())
    target = sym.poly_symbol({(1, 1): 1.0, (0, 0): 0.5j})
    cmp = sym.approx_equal(qp, target, 1e-12)
    assert cmp.ok and cmp.residual == 0.0
    assert not sym.approx_equal(sk.sho_wigner_eigenstate(0),
                                sk.sho_wigner_eigenstate(1), 1e-6)


def test_ring_axioms_on_samples(rng):
    for _ in range(10):
        f, g, h = (random_symbol(rng) for _ in range(3))
        comm = sym.residual(sym.pointwise_multiply(f, g),
                            sym.pointwise_multiply(g, f))
        fg_h = sym.pointwise_multiply(sym.pointwise_multiply(f, g), h)
        f_gh = sym.pointwise_multiply(f, sym.pointwise_multiply(g, h))
        dist = sym.residual(
            sym.pointwise_multiply(f, sym.combine(g, 1.0, h, 1.0)),
            sym.combine(sym.pointwise_multiply(f, g), 1.0,
                        sym.pointwise_multiply(f, h), 1.0))
        scale = 1.0 + sym.residual(fg_h, sym.ZERO)
        assert comm == 0.0
        assert sym.residual(fg_h, f_gh) <= 1e-12 * scale
        assert dist <= 1e-12 * scale


def test_params_regimes():
    assert sym.Params(gamma=0.5).regime == "underdamped"
    assert sym.Params(gamma=1.0).regime == "critical"
    assert sym.Params(gamma=1.5).regime == "overdamped"
    with pytest.raises(ValueError):
        sym.Params(m=-1.0)
    with pytest.raises(ValueError):
        sym.Params(gamma=-0.1)
    with pytest.raises(NonFiniteError):
        sym.Params(omega=float("nan"))


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        sym.GridSpec(1.0, -1.0, -1.0, 1.0, 5, 5)
    with pytest.raises(ValueError):
        sym.GridSpec(-1.0, 1.0, -1.0, 1.0, 1, 5)


@pytest.mark.parametrize("count", [21.9, 201.0, True, "201", None],
                         ids=repr)
def test_grid_spec_rejects_non_integer_counts(count):
    for counts in ((count, 5), (5, count)):
        name = "nq" if counts[0] is count else "np"
        with pytest.raises(ValueError,
                           match=f"grid {name} must be an integer"):
            sym.GridSpec(-1.0, 1.0, -1.0, 1.0, *counts)


def test_grid_spec_accepts_numpy_integers():
    spec = sym.GridSpec(-1.0, 1.0, -1.0, 1.0, np.int64(5), 7)
    assert spec.meshes()[0].shape == (5, 7)
