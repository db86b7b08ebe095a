"""Brackets and star products as exponentials of bilinear derivative operators.

Every product here is exp(dL^T B dR) for a 2x2 complex matrix B over the
derivative basis (d_q, d_p), with the left factor differentiated by dL and
the right by dR.  Four configurations of one engine:

    moyal      B = (i*hbar/2) [[0, 1], [-1, 0]]
    damped(g)  moyal with B_pp = -i*hbar*g*m added
    standard   B = [[0, i*hbar], [0, 0]]
    husimi(s)  moyal + (hbar/2) diag(s^2, 1/s^2)

Products are evaluated exactly on two operand classes: when either side is
a pure polynomial the series terminates at the polynomial's degree, and
when both sides are sums of pure-Gaussian terms a closed form applies
(a 4x4 complex solve per term pair, derived by writing exp(dL^T B dR) as a
Gaussian average of coupled shifts of the two operands).  Anything else is
rejected rather than approximated.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import symbols as sym
from .errors import (BranchAmbiguityError, NonTerminatingError, NotEigenError,
                     SingularGaussianError)
from .symbols import Params, Term

SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class BilinearStar:
    name: str
    B: tuple  # ((B_qq, B_qp), (B_pq, B_pp)) over (d_q, d_p)
    params: Params

    def matrix(self):
        return np.array(self.B, dtype=np.complex128)


def moyal_star(params=Params()):
    h = params.hbar
    return BilinearStar("moyal", ((0j, 0.5j * h), (-0.5j * h, 0j)), params)


def damped_star(gamma, params=Params()):
    """Damped product; gamma may be negative (the dual sign is used by the
    corrected evolution equation).  damped_star(0) equals moyal entrywise."""
    h, m = params.hbar, params.m
    return BilinearStar("damped",
                        ((0j, 0.5j * h), (-0.5j * h, -1j * h * gamma * m)),
                        params)


def standard_star(params=Params()):
    return BilinearStar("standard", ((0j, 1j * params.hbar), (0j, 0j)), params)


def husimi_star(s, params=Params()):
    if s <= 0:
        raise ValueError("squeezing parameter s must be positive")
    h = params.hbar
    return BilinearStar("husimi",
                        ((0.5 * h * s * s, 0.5j * h),
                         (-0.5j * h, 0.5 * h / (s * s))), params)


def bracket(f, g, gamma, params=Params()):
    """Deformed Poisson bracket {f,g}_gamma = {f,g} - 2*gamma*m*(dp f)(dp g)."""
    fq = sym.differentiate(f, "q")
    fp = sym.differentiate(f, "p")
    gq = sym.differentiate(g, "q")
    gp = sym.differentiate(g, "p")
    out = sym.combine(sym.pointwise_multiply(fq, gp), 1.0,
                      sym.pointwise_multiply(fp, gq), -1.0)
    if gamma != 0:
        out = sym.combine(out, 1.0, sym.pointwise_multiply(fp, gp),
                          -2.0 * gamma * params.m)
    return out


def _series_terms(B, n):
    """(coeff, left orders, right orders) of the order-n part of exp(dL^T B dR).

    One entry per multi-index (k_qq, k_qp, k_pq, k_pp) with sum n and
    nonzero coefficient prod B_ij^k_ij / k_ij!; the orders are the
    (d_q, d_p) derivative counts on the left and the right factor.
    """
    for kqq in range(n + 1):
        for kqp in range(n + 1 - kqq):
            for kpq in range(n + 1 - kqq - kqp):
                kpp = n - kqq - kqp - kpq
                c = 1.0 + 0j
                for (i, j), k in zip(((0, 0), (0, 1), (1, 0), (1, 1)),
                                     (kqq, kqp, kpq, kpp)):
                    if k:
                        c *= B[i][j] ** k / math.factorial(k)
                if c == 0:
                    continue
                yield c, (kqq + kqp, kpq + kpp), (kqq + kpq, kqp + kpp)


class _DerivCache:
    def __init__(self, f):
        self.table = {(0, 0): f}

    def get(self, oq, op_):
        key = (oq, op_)
        if key not in self.table:
            if op_ > 0:
                self.table[key] = sym.differentiate(self.get(oq, op_ - 1), "p")
            else:
                self.table[key] = sym.differentiate(self.get(oq - 1, 0), "q")
        return self.table[key]


def _series_star(f, g, B, n_max):
    """Exact finite series sum_{n<=n_max} (1/n!) (f dL^T B dR)^n g."""
    df = _DerivCache(f)
    dg = _DerivCache(g)
    raw = []
    for n in range(n_max + 1):
        for c, left, right in _series_terms(B, n):
            left = df.get(*left)
            right = dg.get(*right)
            if left.is_zero() or right.is_zero():
                continue
            prod = sym.pointwise_multiply(left, right)
            raw.extend(Term(t.coeff * c, t.pow_p, t.pow_q, t.expo)
                       for t in prod.terms)
    return sym.normalize(raw)


def _sqrt_prefactor(det):
    """Principal-branch 1/sqrt(det) with singularity and branch guards."""
    if abs(det) < SINGULAR_TOL:
        raise SingularGaussianError(f"|det| = {abs(det):.3g} below {SINGULAR_TOL:g}")
    if det.real <= 0:
        raise BranchAmbiguityError(
            f"determinant {det:.6g} left the right half-plane")
    return 1.0 / np.sqrt(det)


def _gaussian_pair_star(t1, t2, B):
    """Closed-form star of two pure-Gaussian terms.

    Writing exp(dL^T B dR) f(y) g(z) |_{y=z=x} as a Gaussian average of
    shifts with cross-covariance B gives, for f, g exponentials of
    quadratic forms Q_i(x) = x^T A_i x + b_i^T x,

        c1 c2 det(K)^(-1/2) exp(Q1 + Q2 + (1/2) J^T K^{-1} S J),

    with S = [[0, B], [B^T, 0]], K = I - 2 S blockdiag(A1, A2) and
    J(x) = (2 A1 x + b1; 2 A2 x + b2).
    """
    A1, b1 = t1.expo.quad_form()
    A2, b2 = t2.expo.quad_form()
    S = np.zeros((4, 4), dtype=np.complex128)
    S[:2, 2:] = B
    S[2:, :2] = B.T
    M = np.zeros((4, 4), dtype=np.complex128)
    M[:2, :2] = A1
    M[2:, 2:] = A2
    K = np.eye(4, dtype=np.complex128) - 2.0 * S @ M
    pref = _sqrt_prefactor(complex(np.linalg.det(K)))
    N = np.linalg.solve(K, S)
    N = 0.5 * (N + N.T)  # symmetric analytically; enforce numerically
    G = np.vstack([2.0 * A1, 2.0 * A2])
    h = np.concatenate([b1, b2])
    dA = 0.5 * (G.T @ N @ G)
    dA = 0.5 * (dA + dA.T)
    db = G.T @ (N @ h)
    dc = 0.5 * complex(h @ (N @ h))
    coeff = t1.coeff * t2.coeff * pref * cmath.exp(dc)
    return Term(coeff, 0, 0,
                sym.QuadExponent.from_quad_form(A1 + A2 + dA, b1 + b2 + db))


def star_product(f, g, star):
    """Exact star product on an admissible operand pair.

    Admissible: either operand is a pure polynomial (finite series,
    truncated at the smaller polynomial degree), or both operands are sums
    of pure-Gaussian terms (pairwise closed form, by bilinearity).
    """
    if f.is_zero() or g.is_zero():
        return sym.ZERO
    B = star.matrix()
    degrees = []
    if f.is_polynomial():
        degrees.append(f.degree())
    if g.is_polynomial():
        degrees.append(g.degree())
    if degrees:
        return _series_star(f, g, B, min(degrees))
    if f.is_pure_gaussian() and g.is_pure_gaussian():
        raw = []
        for t1 in f.terms:
            for t2 in g.terms:
                raw.append(_gaussian_pair_star(t1, t2, B))
        return sym.normalize(raw)
    raise NonTerminatingError(
        "star product needs a polynomial operand or a pure-Gaussian pair")


def star_commutator(f, g, star):
    return sym.combine(star_product(f, g, star), 1.0,
                       star_product(g, f, star), -1.0)


def damped_ad(H, g, gamma, params=Params()):
    """Deformed adjoint action ad[H] g = H *_{-gamma} g - g *_{gamma} H."""
    return sym.combine(star_product(H, g, damped_star(-gamma, params)), 1.0,
                       star_product(g, H, damped_star(gamma, params)), -1.0)


def star_exp_truncated(f, star, N):
    """Truncated star exponential sum_{n<=N} f^{*n} / n!.

    Only defined for polynomial f (every star power is then exact); used
    as a small-time oracle against the closed-form propagators.
    """
    if not f.is_polynomial():
        raise NonTerminatingError("star exponential needs a polynomial argument")
    if N < 0:
        raise ValueError("truncation order must be non-negative")
    acc = sym.ONE
    power = sym.ONE
    for n in range(1, N + 1):
        power = sym.scale(star_product(power, f, star), 1.0 / n)
        acc = sym.combine(acc, 1.0, power, 1.0)
    return acc


def hw_phase(a, b, c, d, gamma, params=Params()):
    """Scalar phase of the deformed shift algebra on exponentials.

    Applies the gamma-deformed adjoint of a*p + b*q to exp(c*p + d*q) with
    the product assignment (f *_g e) - (e *_{-g} f), under which the action
    is multiplication by the scalar -i*hbar*(a*d - b*c + 2*m*gamma*a*c);
    the full exponential map then contributes exp of that scalar, which is
    what is returned.  Raises NotEigenError if the adjoint image fails to
    be proportional to the input, which would signal an implementation bug.
    """
    f = sym.poly_symbol({(1, 0): a, (0, 1): b})
    target = sym.gaussian(1.0, bp=c, bq=d)
    image = sym.combine(
        star_product(f, target, damped_star(gamma, params)), 1.0,
        star_product(target, f, damped_star(-gamma, params)), -1.0)
    scalar = sym.evaluate(image, 0.0, 0.0) / sym.evaluate(target, 0.0, 0.0)
    check = sym.approx_equal(image, sym.scale(target, scalar), 1e-10)
    if not check.ok:
        raise NotEigenError(
            f"adjoint image not proportional to input (residual {check.residual:.3g})")
    return cmath.exp(scalar)
