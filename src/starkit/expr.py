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

from . import symbols as sym
from .errors import ExprDegreeError, ExprPowerError, ExprSyntaxError

_NUM_START = set("0123456789.")


class _Lexer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return ("eof", "", self.pos)
        ch = self.text[self.pos]
        if ch in "+-*/^()":
            return (ch, ch, self.pos)
        if ch in _NUM_START:
            j = self.pos
            seen_dot = False
            while j < len(self.text) and (self.text[j].isdigit()
                                          or (self.text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or self.text[j] == "."
                j += 1
            if j < len(self.text) and self.text[j] in "eE":
                k = j + 1
                if k < len(self.text) and self.text[k] in "+-":
                    k += 1
                if k < len(self.text) and self.text[k].isdigit():
                    while k < len(self.text) and self.text[k].isdigit():
                        k += 1
                    j = k
            return ("number", self.text[self.pos:j], self.pos)
        if ch.isalpha():
            j = self.pos
            while j < len(self.text) and self.text[j].isalnum():
                j += 1
            return ("name", self.text[self.pos:j], self.pos)
        raise ExprSyntaxError(f"unexpected character {ch!r}", self.pos)

    def next(self):
        tok = self.peek()
        self.pos = tok[2] + len(tok[1])
        return tok


class _Parser:
    def __init__(self, text):
        self.lex = _Lexer(text)

    def parse(self):
        out = self._expr()
        kind, val, pos = self.lex.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected {val!r}", pos)
        return out

    def _expr(self):
        kind, _, _ = self.lex.peek()
        sign = 1.0
        if kind in ("+", "-"):
            self.lex.next()
            sign = -1.0 if kind == "-" else 1.0
        out = sym.scale(self._term(), sign)
        while True:
            kind, _, _ = self.lex.peek()
            if kind not in ("+", "-"):
                return out
            self.lex.next()
            rhs = self._term()
            out = sym.combine(out, 1.0, rhs, -1.0 if kind == "-" else 1.0)

    def _term(self):
        out = self._factor()
        while True:
            kind, _, pos = self.lex.peek()
            if kind == "*":
                self.lex.next()
                out = sym.pointwise_multiply(out, self._factor())
            elif kind == "/":
                self.lex.next()
                out = sym.scale(out, 1.0 / self._divisor())
            else:
                return out

    def _divisor(self):
        kind, val, pos = self.lex.peek()
        if kind != "number":
            raise ExprSyntaxError("'/' only by numeric literals", pos)
        self.lex.next()
        x = float(val)
        k2, _, _ = self.lex.peek()
        if k2 == "^":
            self.lex.next()
            x **= self._uint()
        if x == 0:
            raise ExprSyntaxError("division by zero", pos)
        return x

    def _uint(self):
        kind, val, pos = self.lex.peek()
        if kind in ("+", "-") or (kind == "number"
                                  and ("." in val or "e" in val or "E" in val)):
            raise ExprPowerError("powers must be non-negative integers")
        if kind != "number":
            raise ExprSyntaxError("expected integer power", pos)
        self.lex.next()
        return int(val)

    def _factor(self):
        base = self._base()
        kind, _, _ = self.lex.peek()
        if kind == "^":
            self.lex.next()
            return sym.pointwise_power(base, self._uint())
        return base

    def _base(self):
        kind, val, pos = self.lex.next()
        if kind == "number":
            return sym.const(float(val))
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
        got, val, pos = self.lex.next()
        if got != kind:
            raise ExprSyntaxError(f"expected {kind!r}, got {val or got!r}", pos)


def _exp_of(inner):
    """exp of a polynomial symbol of total degree <= 2, as one Gaussian term."""
    if not inner.is_polynomial():
        raise ExprDegreeError("exp argument must be a polynomial")
    app = aqq = apq = bp = bq = 0j
    shift = 0j
    for t in inner.terms:
        key = (t.pow_p, t.pow_q)
        if key == (2, 0):
            app = t.coeff
        elif key == (0, 2):
            aqq = t.coeff
        elif key == (1, 1):
            apq = t.coeff
        elif key == (1, 0):
            bp = t.coeff
        elif key == (0, 1):
            bq = t.coeff
        elif key == (0, 0):
            shift = t.coeff
        else:
            raise ExprDegreeError(
                f"exp argument has degree {t.degree} > 2")
    return sym.gaussian(cmath.exp(shift), app, aqq, apq, bp, bq)


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
    entries = [(e.app, 2, 0), (e.apq, 1, 1), (e.aqq, 0, 2),
               (e.bp, 1, 0), (e.bq, 0, 1)]
    return _fmt_poly([(c, pp, pq) for c, pp, pq in entries if c != 0])


def format_symbol(f):
    """Deterministic rendering of a symbol in the expression grammar."""
    if f.is_zero():
        return "0"
    return _fmt_poly([(t.coeff, t.pow_p, t.pow_q, t.expo) for t in f.terms])
