"""Exact algebra of phase-space symbols.

A symbol is a finite sum of terms

    coeff * p^a * q^b * exp(app*p^2 + aqq*q^2 + apq*p*q + bp*p + bq*q)

with complex coefficients throughout.  The class is closed under addition,
pointwise multiplication, differentiation, complex conjugation and linear
maps of (q, p).  This module holds the algebra and evaluation; linear maps
and star products act through the group kernel in star, on coefficient
arrays that array_symbol turns back into symbols.  Symbols are immutable
after normalization; every operation here is a pure function.
"""

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._accel import EXP_LIMIT
from .errors import ExponentOverflowError, NonFiniteError

# Exponents whose entries agree coefficient-wise within this tolerance are
# identified during normalization (double precision with headroom).
MERGE_TOL = 1e-12


@dataclass(frozen=True)
class Params:
    """Oscillator parameters in natural units (defaults m = omega = hbar = 1)."""

    m: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0
    gamma: float = 0.0

    def __post_init__(self):
        for name in ("m", "omega", "hbar", "gamma"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise NonFiniteError(f"parameter {name} is not finite")
        if self.m <= 0 or self.omega <= 0 or self.hbar <= 0:
            raise ValueError("m, omega and hbar must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")

    @property
    def regime(self):
        if abs(self.gamma - self.omega) < 1e-12:
            return "critical"
        return "underdamped" if self.gamma < self.omega else "overdamped"


class QuadExponent(NamedTuple):
    """Quadratic exponent app*p^2 + aqq*q^2 + apq*p*q + bp*p + bq*q."""

    app: complex = 0j
    aqq: complex = 0j
    apq: complex = 0j
    bp: complex = 0j
    bq: complex = 0j
    __mul__ = __rmul__ = None  # tuple repetition is no exponent algebra

    def entries(self):
        return self

    def is_zero(self):
        return not any(self)

    def conjugate(self):
        return QuadExponent(*(e.conjugate() for e in self))

    def __add__(self, other):
        return QuadExponent(*(a + b for a, b in zip(self, other)))

    def value_at(self, p, q):
        return (self.app * p * p + self.aqq * q * q + self.apq * p * q
                + self.bp * p + self.bq * q)

    def quad_form(self):
        """(A, b) with exponent x^T A x + b^T x, x = (q, p), A symmetric."""
        A = np.array([[self.aqq, self.apq / 2], [self.apq / 2, self.app]],
                     dtype=np.complex128)
        return A, np.array([self.bq, self.bp], dtype=np.complex128)

    @classmethod
    def from_quad_form(cls, A, b):
        """Inverse of quad_form; only the symmetric part of A counts."""
        return cls(app=complex(A[1, 1]), aqq=complex(A[0, 0]),
                   apq=complex(A[0, 1] + A[1, 0]), bp=complex(b[1]),
                   bq=complex(b[0]))


ZERO_EXPO = QuadExponent()


class Term(NamedTuple):
    coeff: complex
    pow_p: int
    pow_q: int
    expo: QuadExponent = ZERO_EXPO
    __add__ = __mul__ = __rmul__ = None  # terms add only inside a symbol

    @property
    def degree(self):
        return self.pow_p + self.pow_q


@dataclass(frozen=True, slots=True)
class Symbol:
    """Canonical finite sum of terms; the empty tuple is the zero symbol."""

    terms: tuple

    def is_zero(self):
        return not self.terms

    def is_polynomial(self):
        return all(t.expo.is_zero() for t in self.terms)

    def degree(self):
        """Total polynomial degree (0 for the zero symbol)."""
        return max((t.degree for t in self.terms), default=0)

    def __add__(self, other):
        return combine(self, 1.0, other, 1.0)

    def __sub__(self, other):
        return combine(self, 1.0, other, -1.0)

    def __mul__(self, scalar):
        return scale(self, scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)


@dataclass(frozen=True)
class GridSpec:
    q_min: float
    q_max: float
    p_min: float
    p_max: float
    nq: int
    np: int

    def __post_init__(self):
        for name in ("nq", "np"):
            n = getattr(self, name)
            # bool is an int subclass; 201.0 is a float, not a node count
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
                raise ValueError(f"grid {name} must be an integer, not {n!r}")
        bounds = (self.q_min, self.q_max, self.p_min, self.p_max)
        if not all(math.isfinite(b) for b in bounds):
            raise ValueError("grid bounds must be finite")
        if not (self.q_min < self.q_max and self.p_min < self.p_max):
            raise ValueError("grid bounds must satisfy min < max")
        if self.nq < 2 or self.np < 2:
            raise ValueError("grid needs at least 2 nodes per axis")

    def q_values(self):
        return np.linspace(self.q_min, self.q_max, self.nq)

    def p_values(self):
        return np.linspace(self.p_min, self.p_max, self.np)

    def meshes(self):
        """(P, Q) arrays of shape (nq, np): row index runs over q."""
        Q, P = np.meshgrid(self.q_values(), self.p_values(), indexing="ij")
        return P, Q


# 9 x 9 lattice on [-3, 3]^2 used for evaluation-based symbol equality.
SAMPLE_SPEC = GridSpec(-3.0, 3.0, -3.0, 3.0, 9, 9)


def _check_finite(c):
    if not cmath.isfinite(c):
        raise NonFiniteError("non-finite coefficient")
    return c


def _representative(expo, reps):
    """Index in reps of the first representative within MERGE_TOL of expo,
    appending the checked entries of expo when there is none."""
    entries = tuple(_check_finite(complex(e)) for e in expo)
    for i, r in enumerate(reps):
        if all(abs(a - b) <= MERGE_TOL for a, b in zip(entries, r)):
            return i
    reps.append(entries)
    return len(reps) - 1


def _power(n):
    """n as a Python int; ValueError unless it is a non-negative integer."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"powers must be non-negative integers, not {n!r}")
    return int(n)


def normalize(raw):
    """Canonical form of a list of terms, the one owner of the class
    invariants: finite coefficients and exponents, and powers that are
    non-negative integers (else ValueError), stored as Python ints.

    Exponents within MERGE_TOL of an earlier representative are identified
    with it; terms sharing (pow_p, pow_q, exponent) merge by coefficient
    addition, each part summed by math.fsum (correctly rounded, so
    independent of the order the terms arrive in; a lone coefficient c
    becomes 0 + c, its zero parts +0.0); zero coefficients are pruned;
    ordering is by descending (total degree, pow_p, pow_q) then
    lexicographic exponent.  Each distinct exponent is checked once, each
    term's power types, and the signs once per distinct monomial.  One
    term skips the grouping, with the same checks and bits.
    """
    if len(raw) == 1:
        t = raw[0]
        c = 0 + _check_finite(complex(t.coeff))
        pp, pq = t.pow_p, t.pow_q
        if not (type(pp) is type(pq) is int and pp >= 0 and pq >= 0):
            pp, pq = _power(pp), _power(pq)
        expo = t.expo if t.expo is ZERO_EXPO else QuadExponent(
            *(_check_finite(complex(e)) for e in t.expo))
        return Symbol((Term(c, pp, pq, expo),) if c != 0 else ())
    reps = []
    rep_of = {}  # exponent -> index of its representative in reps
    buckets = {}
    expo = None
    for t in raw:
        c = _check_finite(complex(t.coeff))
        if t.expo is not expo:  # runs of one exponent object hash it once
            expo = t.expo
            idx = rep_of.get(expo)
            if idx is None:
                idx = rep_of[expo] = _representative(expo, reps)
        pp, pq = t.pow_p, t.pow_q
        if type(pp) is not int or type(pq) is not int:  # 2.0 equals 2
            pp, pq = _power(pp), _power(pq)
        buckets.setdefault((pp, pq, idx), []).append(c)
    low = min((min(pp, pq) for pp, pq, _ in buckets), default=0)
    if low < 0:  # the powers are ints here: once per distinct monomial
        _power(low)  # raises ValueError
    expos = [QuadExponent(*r) for r in reps]  # one shared object per group
    keys = [tuple(x for e in r for x in (e.real, e.imag)) for r in reps]
    out = []
    for pp, pq, idx in sorted(buckets, key=lambda k: (
            -(k[0] + k[1]), -k[0], -k[1], keys[k[2]])):
        cs = buckets[pp, pq, idx]
        if len(cs) == 1:
            c = 0 + cs[0]
        else:
            try:  # a sum of finite terms can overflow
                c = 0 + complex(math.fsum([z.real for z in cs]),
                                math.fsum([z.imag for z in cs]))
            except OverflowError:
                raise NonFiniteError("coefficient sum overflows") from None
        if c != 0:
            out.append(Term(c, pp, pq, expos[idx]))
    return Symbol(tuple(out))


ZERO = Symbol(())
ONE = normalize([Term(1.0, 0, 0)])


def const(c):
    return normalize([Term(c, 0, 0)])


def monomial(c, pow_p, pow_q):
    return normalize([Term(c, pow_p, pow_q)])


def variable(name):
    if name == "p":
        return monomial(1.0, 1, 0)
    if name == "q":
        return monomial(1.0, 0, 1)
    raise ValueError("variable must be 'p' or 'q'")


def poly_symbol(coeff_map):
    """Polynomial from a {(pow_p, pow_q): coeff} mapping."""
    return normalize([Term(c, pp, pq) for (pp, pq), c in coeff_map.items()])


def array_symbol(C, expo=ZERO_EXPO):
    """The symbol of the coefficient array C[pow_q, pow_p] times exp(expo),
    as normalize forms it: zero entries pruned, no part -0.0 (its 0 + c),
    ordered by descending (total degree, pow_p), expo checked finite."""
    if expo is not ZERO_EXPO:
        expo = QuadExponent(*(_check_finite(complex(e)) for e in expo))
    C = np.asarray(C, dtype=np.complex128)
    # + 0.0 makes every zero part +0.0, as normalize's sums do
    re, im = C.real + 0.0, C.imag + 0.0
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise NonFiniteError("non-finite coefficient")
    width = C.shape[1]
    keep = np.flatnonzero((re != 0) | (im != 0))
    pq, pp = np.divmod(keep, width)
    # descending total degree, then pow_p (which fixes pow_q); keys unique
    order = np.argsort(-((pq + pp) * width + pp))
    keep, pq, pp = keep[order], pq[order].tolist(), pp[order].tolist()
    return Symbol(tuple(
        Term(complex(x, y), p, q, expo) for x, y, p, q in
        zip(re.ravel()[keep].tolist(), im.ravel()[keep].tolist(), pp, pq)))


def gaussian(coeff, app=0j, aqq=0j, apq=0j, bp=0j, bq=0j):
    """Single pure-Gaussian term coeff * exp(quadratic form)."""
    return normalize([Term(coeff, 0, 0, QuadExponent(app, aqq, apq, bp, bq))])


def scale(f, a):
    return combine(f, a)


def combine(*pairs):
    """a*f + b*g + ... of the (symbol, scalar) pairs f, a, g, b, ...: the
    one linear combination, every scaled term in one normalize; linear in
    each symbol, and the zero symbol of no pair."""
    if len(pairs) % 2:
        raise TypeError("combine takes (symbol, scalar) pairs")
    it = iter(pairs)
    return normalize([Term(t.coeff * a, t.pow_p, t.pow_q, t.expo)
                      for f, a in zip(it, it) for t in f.terms])


def pointwise_multiply(f, g):
    """Ordinary commutative product: exponents add, monomial powers add."""
    return normalize([Term(s.coeff * t.coeff, s.pow_p + t.pow_p,
                           s.pow_q + t.pow_q, s.expo + t.expo)
                      for s in f.terms for t in g.terms])


def pointwise_power(f, n):
    """f^n as the repeated pointwise product, a single term in one step.

    A single term's coefficient is multiplied and its exponent added in the
    repeated product's order.  No nonzero part depends on the sign of a
    zero part, and the final normalize makes zero signs canonical as
    every step of the repeated product does, so the result is the same bits.
    """
    if n < 0:
        raise ValueError("powers must be non-negative")
    if len(f.terms) != 1:
        out = ONE
        for _ in range(n):
            out = pointwise_multiply(out, f)
        return out
    t = f.terms[0]
    c, expo, fold = 1 + 0j, ZERO_EXPO, not t.expo.is_zero()
    for _ in range(n):
        c *= t.coeff
        if fold:
            expo = expo + t.expo
        if c == 0:  # the repeated product prunes the term here
            break
    return normalize([Term(c, t.pow_p * n, t.pow_q * n, expo)])


def _diff_term_once(t, var):
    """Exact derivative of one term; the class is closed under d/dp, d/dq."""
    e = t.expo
    out = []
    if var == "p":
        if t.pow_p > 0:
            out.append(Term(t.coeff * t.pow_p, t.pow_p - 1, t.pow_q, e))
        # chain rule on the exponent: d/dp expo = 2*app*p + apq*q + bp
        if e.app != 0:
            out.append(Term(t.coeff * 2 * e.app, t.pow_p + 1, t.pow_q, e))
        if e.apq != 0:
            out.append(Term(t.coeff * e.apq, t.pow_p, t.pow_q + 1, e))
        if e.bp != 0:
            out.append(Term(t.coeff * e.bp, t.pow_p, t.pow_q, e))
    else:  # "q"; differentiate checks var
        if t.pow_q > 0:
            out.append(Term(t.coeff * t.pow_q, t.pow_p, t.pow_q - 1, e))
        if e.aqq != 0:
            out.append(Term(t.coeff * 2 * e.aqq, t.pow_p, t.pow_q + 1, e))
        if e.apq != 0:
            out.append(Term(t.coeff * e.apq, t.pow_p + 1, t.pow_q, e))
        if e.bq != 0:
            out.append(Term(t.coeff * e.bq, t.pow_p, t.pow_q, e))
    return out


def differentiate(f, var, order=1):
    if var not in ("p", "q") or order < 0:
        raise ValueError(f"need var 'p' or 'q', order >= 0: {var!r}, {order}")
    out = f
    for _ in range(order):
        out = normalize([d for t in out.terms for d in _diff_term_once(t, var)])
    return out


def conjugate(f):
    """Complex-conjugate coefficients and exponent entries (an involution)."""
    return normalize([Term(t.coeff.conjugate(), t.pow_p, t.pow_q,
                           t.expo.conjugate()) for t in f.terms])


def exponent_groups(f):
    """{exponent: F}, in the order exponents first appear, F[pow_q, pow_p]
    the complex coefficient array of the exponent's polynomial factor.

    f is the sum over the groups of polynomial * exp(exponent), and
    array_symbol(F, exponent) is a group's terms.
    """
    groups = {}
    for t in f.terms:
        groups.setdefault(t.expo, []).append(t)
    for e, ts in groups.items():
        shape = (max(t.pow_q for t in ts) + 1, max(t.pow_p for t in ts) + 1)
        F = groups[e] = np.zeros(shape, dtype=np.complex128)
        for t in ts:
            F[t.pow_q, t.pow_p] = t.coeff
    return groups


def evaluate(f, p, q):
    """Value of the symbol at a phase-space point (complex points allowed)."""
    if not (cmath.isfinite(p) and cmath.isfinite(q)):
        raise NonFiniteError("evaluation point must be finite")
    total = 0j
    for t in f.terms:
        e = t.expo.value_at(p, q)
        # "not <=" also catches a NaN real part
        if not e.real <= EXP_LIMIT:
            raise ExponentOverflowError(
                f"exponent real part {e.real:.3g} exceeds {EXP_LIMIT:g}")
        total += t.coeff * (p ** t.pow_p) * (q ** t.pow_q) * cmath.exp(e)
    if not cmath.isfinite(total):  # a finite exponent times a large factor
        raise NonFiniteError("value overflows double precision")
    return total


def _horner(rows, P, Q, acc, inner):
    """Real polynomial sum c * p^a * q^b at the nodes, in place in acc.

    Nested Horner rule (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 5): outer in p over the pow_p rows, inner in q.  A lone
    constant comes back as a scalar.
    """
    if not rows:
        return 0.0
    top = max(rows)
    if top == 0 and set(rows[0]) == {0}:
        return rows[0][0]
    acc.fill(0.0)
    for a in range(top, -1, -1):
        if a < top:
            acc *= P
        row = rows.get(a)
        if not row:
            continue
        deg = max(row)
        if deg == 0:
            acc += row[0]
            continue
        inner.fill(row[deg])
        for b in range(deg - 1, -1, -1):
            inner *= Q
            c = row.get(b)
            if c:
                inner += c
        acc += inner
    return acc


def _exponent_grid(e, P, Q, out):
    """Quadratic form e at the nodes, written into the complex array out.

    Zero entries are skipped (a Wigner exponent has only app and aqq).
    """
    out.fill(0)
    for coeff, x, y in ((e.app, P, P), (e.aqq, Q, Q), (e.apq, P, Q)):
        if coeff:
            out += coeff * (x * y)
    for coeff, x in ((e.bp, P), (e.bq, Q)):
        if coeff:
            out += coeff * x
    return out


# About this many nodes per array in one row strip of a grid kernel, so that
# a strip's work arrays stay in a 2 MB L2 share: evaluate_grid and
# grid_distance walk the lattice, and an RK4 stage its interior rows, in
# strips of strip_height rows (201^2 is one strip of one plane, 401^2 five).
_STRIP_NODES = 1 << 15


def strip_height(rows, row_nodes):
    """Rows per strip of a lattice of rows rows of row_nodes nodes each.

    The rows split into about rows * row_nodes / _STRIP_NODES strips of
    equal height, the last shorter; under 1.5 strips' nodes make one.
    """
    strips = max(1, round(rows * row_nodes / _STRIP_NODES))
    return -(-rows // strips)


def row_strips(shape):
    """Slices of axis 0 of shape, strip_height rows each but the last."""
    lead = shape[0]
    height = strip_height(lead, math.prod(shape[1:]))
    return [slice(r0, r0 + height) for r0 in range(0, lead, height)]


def evaluate_grid(f, P, Q):
    """Vectorized evaluation on broadcastable arrays of p and q values.

    Terms are grouped by exact exponent equality in one pass; each group
    costs one quadratic form, one exp and one overflow check, times a 2-D
    Horner evaluation of its polynomial factor.  The real and imaginary
    parts of the coefficients go through Horner separately, in real
    arithmetic, as sparse rows {pow_p: {pow_q: c}} that skip zeros.  Groups
    are summed in the order their exponents first appear in the terms.

    The broadcast of P and Q is walked a strip of rows (axis 0) at a time,
    about symbols._STRIP_NODES nodes each (row_strips).  One set of
    strip-sized work arrays serves every strip and group, and each strip's
    sum is written into the output, so the memory beyond the output is
    O(strip).  P and Q may be axes, such as p[None, :] and q[:, None]; they
    are expanded a strip at a time, never to the lattice.  The arithmetic
    at a node is the same at any strip height.  ExponentOverflowError
    reports the largest real part, over the whole lattice, of the first
    group's exponent that overflows; NonFiniteError a value past the double
    range, a growing exponential times a large factor.
    """
    P = np.asarray(P, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    if not (np.isfinite(P).all() and np.isfinite(Q).all()):
        raise NonFiniteError("evaluation points must be finite")
    shape = np.broadcast(P, Q).shape
    if not shape:  # one node: a lattice of one row
        return evaluate_grid(f, P.reshape(1), Q.reshape(1)).reshape(())
    # views; an axis such as p[None, :] is expanded a strip at a time below
    if P.shape != shape:
        P = np.broadcast_to(P, shape)
    if Q.shape != shape:
        Q = np.broadcast_to(Q, shape)
    values = np.zeros(shape, dtype=np.complex128)
    groups = {}  # exponent -> (exponent, re rows, im rows)
    for t in f.terms:
        _, re, im = (groups.get(t.expo)
                     or groups.setdefault(t.expo, (t.expo, {}, {})))
        if t.coeff.real:
            re.setdefault(t.pow_p, {})[t.pow_q] = t.coeff.real
        if t.coeff.imag:
            im.setdefault(t.pow_p, {})[t.pow_q] = t.coeff.imag
    groups = list(groups.values())
    if not groups or not values.size:
        return values
    work = None
    for rows in row_strips(shape):
        # flat strips, as ufuncs on small 2-D operands cost more per call: a
        # view of contiguous rows, else a strip-sized copy (ufuncs run 2-3x
        # slower on a broadcast operand)
        Ps, Qs = P[rows].reshape(-1), Q[rows].reshape(-1)
        out = values[rows].reshape(-1)
        if work is None:  # expo, poly, acc_re, acc_im, inner; the first
            n = out.size  # strip is the largest
            work = [np.empty(n, dtype=np.complex128),
                    np.empty(n, dtype=np.complex128),
                    np.empty(n), np.empty(n), np.empty(n)]
        if not _evaluate_strip(groups, Ps, Qs, out, work if out.size == n
                               else [w[:out.size] for w in work]):
            raise _overflow(groups, P, Q, work[0])
    return values


def _evaluate_strip(groups, P, Q, values, work):
    """Add every group at the nodes of one strip into values, in place;
    False as soon as a group's exponent overflows."""
    expo, poly, acc_re, acc_im, inner = work
    for e, re_rows, im_rows in groups:
        re = _horner(re_rows, P, Q, acc_re, inner)
        im = _horner(im_rows, P, Q, acc_im, inner)
        if e.is_zero():
            values.real += re
            values.imag += im
            continue
        _exponent_grid(e, P, Q, expo)
        peak = expo.real.max()
        # "not <=" also catches a NaN real part
        if not peak <= EXP_LIMIT:
            return False
        np.exp(expo, out=expo)
        if isinstance(im, np.ndarray) or im:
            poly.real = re
            poly.imag = im
            re = poly
        if peak <= 0:  # |exp| <= 1: a finite factor cannot overflow
            expo *= re
        else:
            try:
                with np.errstate(over="raise", invalid="raise"):
                    expo *= re
            except FloatingPointError:
                raise NonFiniteError("value overflows double precision at "
                                     f"exponent real part {peak:.4g}") from None
        values += expo
    return True


def _overflow(groups, P, Q, expo):
    """ExponentOverflowError for the first group whose exponent's real
    part exceeds EXP_LIMIT (or is NaN) somewhere on the lattice of P and Q,
    naming its largest real part there (NaN if any); expo is a work array
    of the largest strip's size."""
    for e, _, _ in groups:
        if e.is_zero():
            continue
        peaks = []
        for rows in row_strips(P.shape):
            Ps, Qs = P[rows].reshape(-1), Q[rows].reshape(-1)
            peaks.append(_exponent_grid(e, Ps, Qs, expo[:Ps.size]).real.max())
        peak = np.max(peaks)
        if not peak <= EXP_LIMIT:
            return ExponentOverflowError(
                f"exponent real part {peak:.3g} exceeds {EXP_LIMIT:g}")
    raise AssertionError("a strip overflowed but the lattice does not")


@dataclass(frozen=True)
class Comparison:
    """Outcome of an evaluation-based equality check."""

    ok: bool
    residual: float
    scale: float

    def __bool__(self):
        return self.ok


def residual(f, g, spec=SAMPLE_SPEC):
    """Sup-norm of f - g over the sample lattice."""
    P, Q = spec.meshes()
    fv = evaluate_grid(f, P, Q)
    gv = evaluate_grid(g, P, Q)
    return float(np.abs(fv - gv).max())


def approx_equal(f, g, tol):
    """Evaluation-based equality on the standard 9x9 lattice over [-3,3]^2.

    True iff sup|f - g| <= tol * (1 + sup|f|); the measured residual is
    returned alongside for reporting.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    P, Q = SAMPLE_SPEC.meshes()
    fv = evaluate_grid(f, P, Q)
    gv = evaluate_grid(g, P, Q)
    res = float(np.abs(fv - gv).max())
    ref = float(np.abs(fv).max())
    return Comparison(res <= tol * (1.0 + ref), res, ref)
