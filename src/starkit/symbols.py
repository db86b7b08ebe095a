"""Exact algebra of phase-space symbols.

A symbol is a finite sum of terms

    coeff * p^a * q^b * exp(app*p^2 + aqq*q^2 + apq*p*q + bp*p + bq*q)

with complex coefficients throughout.  The class is closed under addition,
pointwise multiplication, differentiation, complex conjugation and affine
substitution of (q, p), which is everything the star-product machinery
needs.  Symbols are immutable after normalization; every operation here is
a pure function.
"""

import cmath
import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class QuadExponent:
    """Quadratic exponent app*p^2 + aqq*q^2 + apq*p*q + bp*p + bq*q."""

    app: complex = 0j
    aqq: complex = 0j
    apq: complex = 0j
    bp: complex = 0j
    bq: complex = 0j

    def entries(self):
        return (self.app, self.aqq, self.apq, self.bp, self.bq)

    def is_zero(self):
        return all(e == 0 for e in self.entries())

    def conjugate(self):
        return QuadExponent(*(e.conjugate() for e in self.entries()))

    def __add__(self, other):
        return QuadExponent(*(a + b for a, b in zip(self.entries(),
                                                    other.entries())))

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


@dataclass(frozen=True)
class Term:
    coeff: complex
    pow_p: int
    pow_q: int
    expo: QuadExponent = ZERO_EXPO

    @property
    def degree(self):
        return self.pow_p + self.pow_q


@dataclass(frozen=True)
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
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise NonFiniteError("non-finite coefficient")
    return c


def normalize(raw):
    """Canonical form of a list of terms.

    Exponents within MERGE_TOL of an earlier representative are identified
    with it; terms sharing (pow_p, pow_q, exponent) merge by coefficient
    addition; zero coefficients are pruned; ordering is by descending
    (total degree, pow_p, pow_q) then lexicographic exponent.
    """
    reps = []
    buckets = {}
    for t in raw:
        c = _check_finite(complex(t.coeff))
        entries = tuple(_check_finite(complex(e)) for e in t.expo.entries())
        idx = None
        for i, r in enumerate(reps):
            if all(abs(a - b) <= MERGE_TOL for a, b in zip(entries, r)):
                idx = i
                break
        if idx is None:
            idx = len(reps)
            reps.append(entries)
        buckets.setdefault((t.pow_p, t.pow_q, idx), []).append(c)

    def expo_key(entries):
        return tuple(x for e in entries for x in (e.real, e.imag))

    out = []
    for (pp, pq, idx), cs in buckets.items():
        # summation order fixed by value, so the result is independent of
        # the order the raw terms arrived in
        cs.sort(key=lambda z: (z.real, z.imag))
        c = sum(cs)
        if c == 0:
            continue
        out.append(Term(c, pp, pq, QuadExponent(*reps[idx])))
    out.sort(key=lambda t: (-(t.pow_p + t.pow_q), -t.pow_p, -t.pow_q,
                            expo_key(t.expo.entries())))
    return Symbol(tuple(out))


ZERO = Symbol(())
ONE = normalize([Term(1.0, 0, 0)])


def const(c):
    return normalize([Term(c, 0, 0)])


def monomial(c, pow_p, pow_q):
    if pow_p < 0 or pow_q < 0:
        raise ValueError("monomial powers must be non-negative")
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


def gaussian(coeff, app=0j, aqq=0j, apq=0j, bp=0j, bq=0j):
    """Single pure-Gaussian term coeff * exp(quadratic form)."""
    return normalize([Term(coeff, 0, 0, QuadExponent(app, aqq, apq, bp, bq))])


def scale(f, a):
    return normalize([Term(t.coeff * a, t.pow_p, t.pow_q, t.expo)
                      for t in f.terms])


def combine(f, a, g, b):
    """normalize(a*f + b*g); linear in both arguments."""
    raw = [Term(t.coeff * a, t.pow_p, t.pow_q, t.expo) for t in f.terms]
    raw += [Term(t.coeff * b, t.pow_p, t.pow_q, t.expo) for t in g.terms]
    return normalize(raw)


def pointwise_multiply(f, g):
    """Ordinary commutative product: exponents add, monomial powers add."""
    raw = []
    for s in f.terms:
        for t in g.terms:
            raw.append(Term(s.coeff * t.coeff, s.pow_p + t.pow_p,
                            s.pow_q + t.pow_q, s.expo + t.expo))
    return normalize(raw)


def pointwise_power(f, n):
    out = ONE
    for _ in range(n):
        out = pointwise_multiply(out, f)
    return out


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
    elif var == "q":
        if t.pow_q > 0:
            out.append(Term(t.coeff * t.pow_q, t.pow_p, t.pow_q - 1, e))
        if e.aqq != 0:
            out.append(Term(t.coeff * 2 * e.aqq, t.pow_p, t.pow_q + 1, e))
        if e.apq != 0:
            out.append(Term(t.coeff * e.apq, t.pow_p + 1, t.pow_q, e))
        if e.bq != 0:
            out.append(Term(t.coeff * e.bq, t.pow_p, t.pow_q, e))
    else:
        raise ValueError("var must be 'p' or 'q'")
    return out


def differentiate(f, var, order=1):
    if order < 0:
        raise ValueError("order must be non-negative")
    out = f
    for _ in range(order):
        raw = []
        for t in out.terms:
            raw.extend(_diff_term_once(t, var))
        out = normalize(raw)
    return out


def conjugate(f):
    """Complex-conjugate coefficients and exponent entries (an involution)."""
    return normalize([Term(t.coeff.conjugate(), t.pow_p, t.pow_q,
                           t.expo.conjugate()) for t in f.terms])


def exponent_groups(f):
    """{exponent: polynomial factor}, in the order exponents first appear.

    f is the sum over the groups of polynomial * exp(exponent).
    """
    groups = {}
    for t in f.terms:
        groups.setdefault(t.expo, []).append(Term(t.coeff, t.pow_p, t.pow_q))
    # a sub-list of a canonical term list is canonical
    return {e: Symbol(tuple(ts)) for e, ts in groups.items()}


def _poly_mul(a, b):
    """Product of two {(i, j): coeff} polynomials in two variables."""
    out = {}
    for (i, j), c in a.items():
        for (k, m), d in b.items():
            out[i + k, j + m] = out.get((i + k, j + m), 0) + c * d
    return out


def taylor_image(P, R):
    """exp((1/2) grad^T R grad) on a {powers: coeff} polynomial in len(R)
    variables, keyed in the order of the rows of R.

    Order k of the series is (1/2k) grad^T R grad of order k - 1; each order
    lowers the degree by 2, so the series ends.
    """
    # (1/2) grad^T R grad = sum_{i <= j} w_ij d_i d_j, symmetric part of R
    ops = [(complex(R[i, j] + R[j, i]) / (4 if i == j else 2), i, j)
           for i in range(len(R)) for j in range(i, len(R))]
    ops = [op for op in ops if op[0]]
    out, order, k = dict(P), P, 0
    while order:
        k += 1
        nxt = {}
        for key, c in order.items():
            for w, i, j in ops:
                # d_i d_j y^key = key_i (key_j - [i = j]) y^(key - e_i - e_j)
                factor = key[i] * (key[j] - (i == j))
                if factor:
                    low = tuple(n - (m == i) - (m == j)
                                for m, n in enumerate(key))
                    nxt[low] = nxt.get(low, 0) + c * w * factor / k
        for key, c in nxt.items():
            out[key] = out.get(key, 0) + c
        order = nxt
    return out


def affine_image(P, L, s):
    """P(L x + s) as a {(pow_q, pow_p): coeff} polynomial in x = (q, p).

    P is a {powers: coeff} polynomial in len(L) variables; row k of L and
    entry k of s give the affine form of (q, p) that replaces variable k.
    Each form's powers are built once, and monomials expand one variable at
    a time, so monomials sharing leading powers share partial products.
    """
    # powers[k][n]: n-th power of the affine form replacing variable k
    powers = [[{(0, 0): 1.0}, {key: complex(c) for key, c in
               (((1, 0), lq), ((0, 1), lp), ((0, 0), sk)) if c}]
              for (lq, lp), sk in zip(L, s)]

    def expand(poly, k):
        if k == len(powers):
            return {(0, 0): poly[()]}
        by_power = {}
        for key, c in poly.items():
            by_power.setdefault(key[0], {})[key[1:]] = c
        out = {}
        for n, rest in by_power.items():
            pw = powers[k]
            while len(pw) <= n:
                pw.append(_poly_mul(pw[-1], pw[1]))
            for key, c in _poly_mul(pw[n], expand(rest, k + 1)).items():
                out[key] = out.get(key, 0) + c
        return out

    return expand(P, 0)


def substitute(f, L, shift=(0, 0)):
    """The affine pullback x -> f(L x + shift), x = (q, p); exact in the class.

    Each group's polynomial goes through affine_image, and its exponent
    (A, b) goes by congruence to (L^T A L, L^T (2 A s + b)), the constant
    s^T A s + b^T s moving into the coefficients.
    """
    L = np.asarray(L, dtype=np.complex128)
    s = np.asarray(shift, dtype=np.complex128)
    raw = []
    for e, poly in exponent_groups(f).items():
        A, b = e.quad_form()
        expo = QuadExponent.from_quad_form(L.T @ A @ L, L.T @ (2 * A @ s + b))
        c0 = cmath.exp(s @ A @ s + b @ s)
        image = affine_image({(t.pow_q, t.pow_p): t.coeff for t in poly.terms},
                             L, s)
        raw.extend(Term(c0 * c, pp, pq, expo) for (pq, pp), c in image.items())
    return normalize(raw)


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
    return total


def _poly_rows(poly, part):
    """{pow_p: {pow_q: c}} of the real or imaginary parts of a polynomial."""
    rows = {}
    for t in poly.terms:
        c = getattr(t.coeff, part)
        if c:
            row = rows.setdefault(t.pow_p, {})
            row[t.pow_q] = row.get(t.pow_q, 0.0) + c
    return rows


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


def evaluate_grid(f, P, Q):
    """Vectorized evaluation on matching arrays of p and q values.

    Terms are grouped by exact exponent equality (exponent_groups); each
    group costs one quadratic form, one exp and one overflow check, times a
    2-D Horner evaluation of its polynomial factor.  The real and imaginary
    parts of the coefficients go through Horner separately, in real
    arithmetic.  Groups are summed in the order their exponents first
    appear in the canonical term list.
    """
    P, Q = np.broadcast_arrays(np.asarray(P, dtype=np.float64),
                               np.asarray(Q, dtype=np.float64))
    shape = P.shape
    if not (np.isfinite(P).all() and np.isfinite(Q).all()):
        raise NonFiniteError("evaluation points must be finite")
    P = P.reshape(-1)
    Q = Q.reshape(-1)
    values = np.zeros(P.size, dtype=np.complex128)
    groups = exponent_groups(f)
    if not groups or not P.size:
        return values.reshape(shape)
    # fixed work arrays, updated in place for every group
    expo = np.empty_like(values)
    poly = np.empty_like(values)
    acc_re = np.empty_like(P)
    acc_im = np.empty_like(P)
    inner = np.empty_like(P)
    for e, group in groups.items():
        re = _horner(_poly_rows(group, "real"), P, Q, acc_re, inner)
        im = _horner(_poly_rows(group, "imag"), P, Q, acc_im, inner)
        if e.is_zero():
            values.real += re
            values.imag += im
            continue
        _exponent_grid(e, P, Q, expo)
        max_re = expo.real.max()
        # "not <=" also catches a NaN real part
        if not max_re <= EXP_LIMIT:
            raise ExponentOverflowError(
                f"exponent real part {max_re:.3g} exceeds {EXP_LIMIT:g}")
        np.exp(expo, out=expo)
        if isinstance(im, np.ndarray) or im:
            poly.real = re
            poly.imag = im
            expo *= poly
        else:
            expo *= re
        values += expo
    return values.reshape(shape)


@dataclass(frozen=True)
class Comparison:
    """Outcome of an evaluation-based equality check."""

    ok: bool
    residual: float
    scale: float

    def __bool__(self):
        return self.ok


def sup_norm(f, spec=SAMPLE_SPEC):
    if f.is_zero():
        return 0.0
    P, Q = spec.meshes()
    return float(np.abs(evaluate_grid(f, P, Q)).max())


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
