"""Transition operators exp((1/2) grad^T C grad) and c-equivalence checks.

C is a symmetric 2x2 complex matrix over (d_q, d_p).  The shipped
instances:

    damped(g)    C_pp = -i*hbar*m*g          maps moyal products to damped ones
    standard     C_qp = C_pq = -i*hbar/2     maps standard products to moyal ones
    husimi(s)    C_qq = hbar s^2/2, C_pp = hbar/(2 s^2)
                                             maps moyal products to husimi ones

Every linear map on the symbol class goes through _image(f, C, L), which
returns x -> [exp((1/2) grad^T C grad) f](L x): apply is _image(f, C, I),
and dynamics uses it with C = 0 for flow pullbacks and with both parts for
the exact naive flow.  It is exact, one exponent group
P(q, p) exp(x^T A x + beta^T x), x = (q, p), at a time: P comes from
symbols.exponent_groups as a {(pow_q, pow_p): coeff} dict and goes to
star._group_image with d = 2, S = C and E = L.  That kernel forms and
guards K = I - 2CA and applies, with R = K^{-1} C, a terminating Taylor
series in R on P composed with the affine map x -> K^{-1} L x + R beta.
A pure-polynomial group has K = I and R = C; C = 0 gives K = I and R = 0,
the plain pullback f(L x).
"""

from dataclasses import dataclass

import numpy as np

from . import symbols as sym
from .errors import NonTerminatingError
from .star import _group_image, star_product
from .symbols import Params


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


def _image(f, C, L):
    """x -> [exp((1/2) grad^T C grad) f](L x); exact, one group at a time."""
    raw = []
    for e, P in sym.exponent_groups(f).items():
        A, beta = e.quad_form()
        raw += _group_image(P, A, beta, C, L)
    return sym.normalize(raw)


def apply(op, f):
    """Image of a symbol under the transition operator."""
    return _image(f, op.matrix(), np.eye(2))


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
