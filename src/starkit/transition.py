"""Transition operators exp((1/2) grad^T C grad) and c-equivalence checks.

C is a symmetric 2x2 complex matrix over (d_q, d_p).  The shipped
instances:

    damped(g)    C_pp = -i*hbar*m*g          maps moyal products to damped ones
    standard     C_qp = C_pq = -i*hbar/2     maps standard products to moyal ones
    husimi(s)    C_qq = hbar s^2/2, C_pp = hbar/(2 s^2)
                                             maps moyal products to husimi ones

The action on the symbol class is exact, one exponent group at a time.
Write a group as P(q, p) exp(x^T A x + beta^T x) with x = (q, p),
K = I - 2CA and R = K^{-1} C.  Averaging the group over Gaussian shifts
of covariance C gives its image

    det(K)^(-1/2) e^{(1/2) beta^T R beta}
        * exp(x^T A K^{-1} x + (K^{-T} beta)^T x)
        * [exp((1/2) grad^T R grad) P](K^{-1} (x + C beta)),

a terminating Taylor series in R on the polynomial factor (it stops at
the polynomial's degree) composed with an affine substitution.  The
pure-polynomial group is the case A = 0, beta = 0, where K = I and R = C.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from . import symbols as sym
from .errors import NonTerminatingError
from .star import _sqrt_prefactor, star_product
from .symbols import Params, Term


@dataclass(frozen=True)
class DerivOperator:
    name: str
    C: tuple  # symmetric ((C_qq, C_qp), (C_pq, C_pp)) over (d_q, d_p)
    params: Params

    def matrix(self):
        return np.array(self.C, dtype=np.complex128)


def damped_transition(gamma, params=Params()):
    c = -1j * params.hbar * params.m * gamma
    return DerivOperator("damped", ((0j, 0j), (0j, c)), params)


def standard_transition(params=Params()):
    c = -0.5j * params.hbar
    return DerivOperator("standard", ((0j, c), (c, 0j)), params)


def husimi_transition(s, params=Params()):
    if s <= 0:
        raise ValueError("squeezing parameter s must be positive")
    h = params.hbar
    return DerivOperator("husimi",
                         ((0.5 * h * s * s, 0j), (0j, 0.5 * h / (s * s))),
                         params)


def inverse(op):
    """Inverse operator: negate C."""
    (cqq, cqp), (cpq, cpp) = op.C
    return DerivOperator(op.name, ((-cqq, -cqp), (-cpq, -cpp)), op.params)


def _half_laplacian(f, C):
    """(1/2) grad^T C grad applied to a symbol."""
    out = sym.ZERO
    for c, (u, v) in ((0.5 * C[0, 0], "qq"), (0.5 * C[1, 1], "pp"),
                      (C[0, 1], "qp")):
        if c != 0:
            d = sym.differentiate(sym.differentiate(f, u), v)
            out = sym.combine(out, 1.0, d, c)
    return out


def _apply_polynomial(f, C):
    """Finite Taylor series of exp((1/2) grad^T C grad); terminates by degree."""
    raw = list(f.terms)
    cur = f
    k = 0
    while not cur.is_zero():
        k += 1
        cur = sym.scale(_half_laplacian(cur, C), 1.0 / k)
        raw.extend(cur.terms)
    return sym.normalize(raw)


def apply(op, f):
    """Image of a symbol under the transition operator; linear and exact.

    One closed form per exponent group P * exp(x^T A x + beta^T x); the
    pure-polynomial group is the case A = 0, beta = 0.
    """
    C = op.matrix()
    raw = []
    for e, poly in sym.exponent_groups(f).items():
        A, beta = e.quad_form()
        K = np.eye(2) - 2.0 * C @ A
        det = K[0, 0] * K[1, 1] - K[0, 1] * K[1, 0]
        pref = _sqrt_prefactor(complex(det))
        Kinv = np.array([[K[1, 1], -K[0, 1]], [-K[1, 0], K[0, 0]]]) / det
        R = Kinv @ C
        R = 0.5 * (R + R.T)  # symmetric analytically; enforce numerically
        image = sym.substitute(_apply_polynomial(poly, R), Kinv, R @ beta)
        coeff = pref * cmath.exp(0.5 * complex(beta @ R @ beta))
        expo = sym.QuadExponent.from_quad_form(A @ Kinv, Kinv.T @ beta)
        raw.extend(Term(t.coeff * coeff, t.pow_p, t.pow_q, expo)
                   for t in image.terms)
    return sym.normalize(raw)


def check_equivalence(f, g, source, target, op):
    """Sup-norm residual of op(f *_source g) - op(f) *_target op(g).

    The damped and husimi operators intertwine moyal products (source) with
    their respective deformed products (target); the standard operator runs
    the other way, from standard products (source) to moyal ones (target).
    """
    if not (f.is_polynomial() and g.is_polynomial()):
        raise NonTerminatingError("equivalence check needs polynomial operands")
    lhs = apply(op, star_product(f, g, source))
    rhs = star_product(apply(op, f), apply(op, g), target)
    return sym.residual(lhs, rhs)


def husimi_distribution(rho, s, params=Params()):
    """Gaussian-smoothed distribution: the husimi transition image of rho."""
    return apply(husimi_transition(s, params), rho)
