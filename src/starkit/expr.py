"""Parser and printer for the symbol expression grammar.

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' uint)?
    base   := number | 'i' | 'p' | 'q' | '(' expr ')' | 'exp' '(' expr ')'

Whitespace is insensitive.  '/' is allowed only by nonzero numeric
literals.  exp() arguments must be polynomials of total degree <= 2.
Printing emits the same grammar deterministically, so print/parse
round-trips stay inside merge tolerance.
"""

import cmath
import re

from . import symbols as sym
from .errors import (ExprDegreeError, ExprPowerError, ExprSyntaxError,
                     NonFiniteError)

# One token after optional whitespace, matched lazily at the current
# position, so a stray character is reported only where the parser reaches
# it: a number (digits with at most one '.', an optional exponent), a name,
# an operator, the end, or any other character, which is an error.
_TOKEN = re.compile(r"""\s*(?:
    (?P<number>(?=[0-9.])\d*\.?\d*(?:[eE][+-]?\d+)?)
  | (?P<name>[^\W\d_][^\W_]*)
  | (?P<op>[-+*/^()])
  | (?P<eof>\Z)
  | (?P<bad>.))""", re.VERBOSE | re.DOTALL)

# The monomial behind each QuadExponent field, in printing order.
_EXPONENT_FIELDS = {(2, 0): "app", (1, 1): "apq", (0, 2): "aqq",
                    (1, 0): "bp", (0, 1): "bq"}


def _number(val, pos):
    try:
        return float(val)
    except ValueError:  # a lone '.' has no digit
        raise ExprSyntaxError(f"malformed number {val!r}", pos) from None


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        """(kind, text, position); an operator is its own kind."""
        m = _TOKEN.match(self.text, self.pos)
        kind = m.lastgroup
        val, pos = m.group(kind), m.start(kind)
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {val!r}", pos)
        return (val if kind == "op" else kind), val, pos

    def next(self):
        tok = self.peek()
        self.pos = tok[2] + len(tok[1])
        return tok

    def parse(self):
        out = self._expr()
        kind, val, pos = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected {val!r}", pos)
        return out

    def _expr(self):
        """Signed terms, summed by one combine."""
        pairs = []
        kind = self.peek()[0]
        while True:
            sign = 1.0
            if kind in ("+", "-"):
                self.next()
                sign = -1.0 if kind == "-" else 1.0
            pairs += (self._term(), sign)
            kind = self.peek()[0]
            if kind not in ("+", "-"):
                return sym.combine(*pairs)

    def _term(self):
        out = self._factor()
        while True:
            kind, _, pos = self.peek()
            if kind == "*":
                self.next()
                out = sym.pointwise_multiply(out, self._factor())
            elif kind == "/":
                self.next()
                out = sym.scale(out, 1.0 / self._divisor())
            else:
                return out

    def _divisor(self):
        kind, val, pos = self.peek()
        if kind != "number":
            raise ExprSyntaxError("'/' only by numeric literals", pos)
        self.next()
        x = _number(val, pos)
        if self.peek()[0] == "^":
            self.next()
            n = self._uint()
            try:
                x **= n
            except OverflowError:
                raise NonFiniteError(f"divisor {val}^{n} overflows") from None
        if x == 0:
            raise ExprSyntaxError("division by zero", pos)
        return x

    def _uint(self):
        kind, val, pos = self.peek()
        if kind in ("+", "-") or (kind == "number"
                                  and ("." in val or "e" in val or "E" in val)):
            raise ExprPowerError("powers must be non-negative integers")
        if kind != "number":
            raise ExprSyntaxError("expected integer power", pos)
        self.next()
        return int(val)

    def _factor(self):
        base = self._base()
        if self.peek()[0] == "^":
            self.next()
            return sym.pointwise_power(base, self._uint())
        return base

    def _base(self):
        kind, val, pos = self.next()
        if kind == "number":
            return sym.const(_number(val, pos))
        if kind == "(":
            inner = self._expr()
            self._expect(")")
            return inner
        if kind == "name":
            if val == "i":
                return sym.const(1j)
            if val in ("p", "q"):
                return sym.variable(val)
            if val == "exp":
                self._expect("(")
                inner = self._expr()
                self._expect(")")
                return _exp_of(inner)
            raise ExprSyntaxError(f"unknown name {val!r}", pos)
        raise ExprSyntaxError(f"unexpected {val or kind!r}", pos)

    def _expect(self, kind):
        got, val, pos = self.next()
        if got != kind:
            raise ExprSyntaxError(f"expected {kind!r}, got {val or got!r}", pos)


def _exp_of(inner):
    """exp of a polynomial symbol of total degree <= 2, as one Gaussian term."""
    if not inner.is_polynomial():
        raise ExprDegreeError("exp argument must be a polynomial")
    fields, shift = {}, 0j
    for t in inner.terms:
        key = (t.pow_p, t.pow_q)
        if key == (0, 0):
            shift = t.coeff
        elif key in _EXPONENT_FIELDS:
            fields[_EXPONENT_FIELDS[key]] = t.coeff
        else:
            raise ExprDegreeError(
                f"exp argument has degree {t.degree} > 2")
    return sym.gaussian(cmath.exp(shift), **fields)


def parse(text):
    """Parse expression text into a normalized Symbol."""
    return _Parser(text).parse()


def _fmt_float(x):
    # repr round-trips exactly in double precision
    if x == int(x) and abs(x) < 1e16:
        return repr(float(x))
    return repr(x)


def _split_sign(c):
    """(sign, magnitude-ish coefficient) so terms join with ' + ' / ' - '."""
    if c.imag == 0:
        return (-1, -c) if c.real < 0 else (1, c)
    if c.real == 0:
        return (-1, -c) if c.imag < 0 else (1, c)
    return (1, c)


def _fmt_coeff(c, standalone):
    """Coefficient piece; empty string when it is a redundant factor of 1."""
    if c.imag == 0:
        if c.real == 1 and not standalone:
            return ""
        return _fmt_float(c.real)
    if c.real == 0:
        if c.imag == 1:
            return "i"
        return _fmt_float(c.imag) + "*i"
    im = c.imag
    op = "-" if im < 0 else "+"
    return f"({_fmt_float(c.real)} {op} {_fmt_coeff(abs(im) * 1j, True)})"


def _fmt_monomial(pow_p, pow_q):
    parts = []
    if pow_q:
        parts.append("q" if pow_q == 1 else f"q^{pow_q}")
    if pow_p:
        parts.append("p" if pow_p == 1 else f"p^{pow_p}")
    return parts


def _fmt_poly(terms):
    """Join (coeff, pow_p, pow_q[, exponent]) entries in the expression
    grammar; a non-zero exponent is appended as an exp(...) factor."""
    pieces = []
    for k, (c, pp, pq, *expo) in enumerate(terms):
        sign, mag = _split_sign(c)
        factors = _fmt_monomial(pp, pq) + [f"exp({_fmt_exponent(e)})"
                                           for e in expo if not e.is_zero()]
        cs = _fmt_coeff(mag, standalone=not factors)
        if cs:
            factors = [cs] + factors
        body = "*".join(factors)
        if k == 0:
            pieces.append(("-" if sign < 0 else "") + body)
        else:
            pieces.append((" - " if sign < 0 else " + ") + body)
    return "".join(pieces)


def _fmt_exponent(e):
    entries = [(getattr(e, name), pp, pq)
               for (pp, pq), name in _EXPONENT_FIELDS.items()]
    return _fmt_poly([entry for entry in entries if entry[0] != 0])


def format_symbol(f):
    """Deterministic rendering of a symbol in the expression grammar."""
    if f.is_zero():
        return "0"
    return _fmt_poly([(t.coeff, t.pow_p, t.pow_q, t.expo) for t in f.terms])
