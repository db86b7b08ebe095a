import pytest

import starkit as sk
from starkit import symbols as sym
from starkit.errors import (ExprDegreeError, ExprPowerError, ExprSyntaxError,
                            NonFiniteError)
from starkit.expr import format_symbol, parse

from conftest import random_symbol


def test_parse_basic():
    f = parse("q*p + (i/2)")
    assert sym.residual(f, sym.poly_symbol({(1, 1): 1.0, (0, 0): 0.5j})) == 0


def test_parse_gaussian():
    f = parse("2*exp(-(p^2+q^2))")
    assert sym.residual(f, sym.gaussian(2.0, app=-1.0, aqq=-1.0)) == 0


def test_parse_constant_shift_in_exponent():
    # exp(1 - q^2) folds e^1 into the coefficient
    f = parse("exp(1 - q^2)")
    import math
    assert abs(sym.evaluate(f, 0.0, 0.0) - math.e) < 1e-14


def test_parse_numbers_and_whitespace():
    f = parse("  1.5e-1 * q ^ 2  -  p ")
    assert sym.residual(f, sym.poly_symbol({(0, 2): 0.15, (1, 0): -1.0})) == 0


def test_parse_division_rules():
    assert sym.residual(parse("q/2"), sym.monomial(0.5, 0, 1)) == 0
    with pytest.raises(ExprSyntaxError):
        parse("q/p")
    with pytest.raises(ExprSyntaxError):
        parse("q/0")


def test_parse_overflowing_divisor_raises_typed():
    # 10^400 as a factor and as a divisor both overflow a double
    for text in ("10^400", "1/10^400", "q/1e300^2"):
        with pytest.raises(NonFiniteError) as err:
            parse(text)
        if "/" in text:
            assert "divisor" in str(err.value)


def test_parse_degree_error():
    with pytest.raises(ExprDegreeError):
        parse("exp(p^3)")
    with pytest.raises(ExprDegreeError):
        parse("exp(exp(q))")


def test_parse_power_errors():
    with pytest.raises(ExprPowerError):
        parse("p^-1")
    with pytest.raises(ExprPowerError):
        parse("q^1.5")


def test_parse_syntax_error_reports_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("q + * p")
    assert err.value.position == 4


def test_parse_unary_minus():
    assert sym.residual(parse("-q + p"),
                        sym.poly_symbol({(0, 1): -1.0, (1, 0): 1.0})) == 0


def test_format_examples():
    qp = sk.star_product(sym.variable("q"), sym.variable("p"), sk.moyal_star())
    assert format_symbol(qp) == "q*p + 0.5*i"
    pp = sk.star_product(sym.variable("p"), sym.variable("p"),
                         sk.damped_star(0.1))
    assert format_symbol(pp) == "p^2 - 0.1*i"
    assert format_symbol(sym.ZERO) == "0"


def test_print_parse_round_trip(rng):
    for _ in range(25):
        f = random_symbol(rng)
        text = format_symbol(f)
        back = parse(text)
        cmp = sym.approx_equal(back, f, 1e-12)
        assert cmp.ok, f"round trip failed for {text}: {cmp.residual}"


def test_print_parse_round_trip_complex_prefactors():
    U = sk.damped_propagator(0.4, sym.Params(gamma=0.2))
    back = parse(format_symbol(U))
    assert sym.approx_equal(back, U, 1e-12).ok


def test_parse_lone_dot_is_a_syntax_error():
    # a number needs at least one digit
    for text, position in ((".", 0), ("1 + .", 4), (".e5", 0), ("q/.", 2)):
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert err.value.position == position


# (text, error type, position); the Expr{Power,Degree}Error types carry none
MALFORMED = [
    ("", ExprSyntaxError, 0),
    ("q +", ExprSyntaxError, 3),
    ("(q", ExprSyntaxError, 2),
    ("q)", ExprSyntaxError, 1),
    ("q $ p", ExprSyntaxError, 2),
    # tokens are read lazily: the grammar error comes before the stray '$'
    ("q + * $", ExprSyntaxError, 4),
    ("foo", ExprSyntaxError, 0),
    ("p_q", ExprSyntaxError, 1),
    ("1.2.3", ExprSyntaxError, 3),
    ("2e", ExprSyntaxError, 1),
    ("exp q", ExprSyntaxError, 4),
    ("exp(q^2", ExprSyntaxError, 7),
    ("p^q", ExprSyntaxError, 2),
    ("q/p", ExprSyntaxError, 2),
    ("q/0^2", ExprSyntaxError, 2),
    ("p^-1", ExprPowerError, None),
    ("q^1.5", ExprPowerError, None),
    ("p^1e2", ExprPowerError, None),
    ("p^.", ExprPowerError, None),
    ("exp(p^3)", ExprDegreeError, None),
    ("exp(exp(q))", ExprDegreeError, None),
]


@pytest.mark.parametrize("text, error, position", MALFORMED)
def test_parse_malformed_inputs(text, error, position):
    with pytest.raises(error) as err:
        parse(text)
    assert type(err.value) is error
    assert getattr(err.value, "position", None) == position


def test_print_parse_round_trip_is_exact_on_wigner_24():
    rho = sk.sho_wigner_eigenstate(24)
    assert parse(format_symbol(rho)) == rho


def test_parse_normalizes_once_per_expression(monkeypatch):
    """Numbers, i, p, q, one-term powers and products, and exp(...) take
    normalize's one-term path; each expression (the text, each exp
    argument) is summed by one grouped pass over more than one term."""
    rho = sk.sho_wigner_eigenstate(24)
    text = format_symbol(rho)
    calls = []
    normalize = sym.normalize
    monkeypatch.setattr(sym, "normalize", lambda raw: (
        len(raw) > 1 and calls.append(1)) or normalize(raw))
    assert parse(text) == rho
    assert len(calls) == 1 + text.count("exp(") == 326
