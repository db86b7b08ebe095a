"""Brackets and star products as exponentials of bilinear derivative operators.

Every product here is exp(dL^T B dR) for a 2x2 complex matrix B over the
derivative basis (d_q, d_p), with the left factor differentiated by dL and
the right by dR.  Four configurations of one engine:

    moyal      B = (i*hbar/2) [[0, 1], [-1, 0]]
    damped(g)  moyal with B_pp = -i*hbar*g*m added
    standard   B = [[0, i*hbar], [0, 0]]
    husimi(s)  moyal + (hbar/2) diag(s^2, 1/s^2)

Products are exact on the whole class.  With a pure-polynomial side the
series terminates at its degree.  Otherwise, in the doubled space (y, z),
exp(dL^T B dR) is exp((1/2) grad^T S grad) with S = [[0, B], [B^T, 0]]
followed by y = z = x, and _group_image applies it per pair of groups.
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


def _adjugate(K):
    """(adjugate, determinant) of a 2x2 matrix; K^{-1} = adjugate / det."""
    det = complex(K[0, 0] * K[1, 1] - K[0, 1] * K[1, 0])
    return np.array([[K[1, 1], -K[0, 1]], [-K[1, 0], K[0, 0]]]), det


def _group_image(P, M, beta, S, Kinv, E, coeff):
    """Terms of exp((1/2) grad^T S grad) on one exponent group, at y = E x.

    The group is P(y) exp(y^T M y + beta^T y) in d = len(S) variables, P a
    {powers: coeff} polynomial, E the d x 2 restriction to x = (q, p).
    With K = I - 2 S M and R = K^{-1} S, averaging over Gaussian shifts of
    covariance S gives, with coeff = det(K)^(-1/2),

        coeff e^{(1/2) beta^T R beta}
            * exp(x^T E^T M K^{-1} E x + (E^T K^{-T} beta)^T x)
            * [exp((1/2) grad^T R grad) P](K^{-1} E x + R beta).
    """
    R = Kinv @ S
    R = 0.5 * (R + R.T)  # symmetric analytically; enforce numerically
    L = Kinv @ E
    image = sym.affine_image(sym.taylor_image(P, R), L, R @ beta)
    c = coeff * cmath.exp(0.5 * complex(beta @ R @ beta))
    expo = sym.QuadExponent.from_quad_form(E.T @ M @ L, L.T @ beta)
    return [Term(c * d, pp, pq, expo) for (pq, pp), d in image.items()]


def star_product(f, g, star):
    """Exact star product of two class members.

    A polynomial operand gives a series that ends at its degree.  Otherwise
    each pair of groups has K = I - 2 S diag(A1, A2) = [[I, -U], [-V, I]],
    U = 2 B A2, V = 2 B^T A1; with Sigma = (I - U V)^{-1}, det K =
    det(I - U V) and K^{-1} = [[Sigma, Sigma U], [V Sigma, I + V Sigma U]].
    """
    if f.is_zero() or g.is_zero():
        return sym.ZERO
    B = star.matrix()
    degrees = [h.degree() for h in (f, g) if h.is_polynomial()]
    if degrees:
        return _series_star(f, g, B, min(degrees))
    zero = np.zeros((2, 2))
    eye = np.eye(2)
    S = np.block([[zero, B], [B.T, zero]])
    E = np.vstack([eye, eye])
    right = [(e.quad_form(), P) for e, P in sym.exponent_groups(g).items()]
    raw = []
    for e1, P1 in sym.exponent_groups(f).items():
        A1, b1 = e1.quad_form()
        V = 2.0 * B.T @ A1
        for (A2, b2), P2 in right:
            U = 2.0 * B @ A2
            adj, det = _adjugate(eye - U @ V)
            pref = _sqrt_prefactor(det)
            sigma = adj / det
            Kinv = np.block([[sigma, sigma @ U],
                             [V @ sigma, eye + V @ sigma @ U]])
            P = {(s.pow_q, s.pow_p, t.pow_q, t.pow_p): s.coeff * t.coeff
                 for s in P1.terms for t in P2.terms}
            raw += _group_image(P, np.block([[A1, zero], [zero, A2]]),
                                np.concatenate([b1, b2]), S, Kinv, E, pref)
    return sym.normalize(raw)


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
