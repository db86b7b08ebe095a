"""Linear maps on the symbol class: transition operators and linear flows.

GaussianMap(C, L) is f -> [exp((1/2) grad^T C grad) f] o L, with C a
symmetric 2x2 complex matrix over (d_q, d_p) and L a 2x2 matrix on column
(q, p).  The transition operators are (C, I):

    damped(g)    C_pp = -i*hbar*m*g          maps moyal products to damped ones
    standard     C_qp = C_pq = -i*hbar/2     maps standard products to moyal ones
    husimi(s)    C_qq = hbar s^2/2, C_pp = hbar/(2 s^2)
                                             maps moyal products to husimi ones

and the flows of dynamics are (0, L).  As exp((1/2) grad^T C grad)(h o L)
= (exp((1/2) grad^T L C L^T grad) h) o L, maps compose and invert in
closed form.  apply maps a symbol exactly, one exponent group
P(x) exp(x^T A x + beta^T x), x = (q, p), at a time, through
star._group_image with d = 2, S = C and E = L, on P's coefficient array:
the Taylor series of exp((1/2) grad^T R grad), R = K^{-1} C, K = I - 2CA,
then x -> K^{-1} L x + R beta.  C = 0 gives the pullback f(L x).
"""

from dataclasses import dataclass

import numpy as np

from . import symbols as sym
from .errors import NonFiniteError, NonTerminatingError
from .star import _group_image, _sum_images, star_product
from .symbols import Params


@dataclass(frozen=True, eq=False)
class GaussianMap:
    """f -> [exp((1/2) grad^T C grad) f] o L; C, L read-only, equal by value."""

    C: np.ndarray  # symmetric, over (d_q, d_p)
    L: np.ndarray  # acting on column (q, p)

    def __post_init__(self):
        for name in ("C", "L"):
            M = np.array(getattr(self, name))
            if not np.isfinite(M).all():
                raise NonFiniteError(f"map entry {name} is not finite")
            M.flags.writeable = False
            object.__setattr__(self, name, M)

    def __eq__(self, other):
        return (isinstance(other, GaussianMap) and np.array_equal(self.C, other.C)
                and np.array_equal(self.L, other.L))

    def matrix(self):
        """The linear part L."""
        return self.L


def damped_transition(gamma, params=Params()):
    c = -1j * params.hbar * params.m * gamma
    return GaussianMap(((0j, 0j), (0j, c)), np.eye(2))


def standard_transition(params=Params()):
    c = -0.5j * params.hbar
    return GaussianMap(((0j, c), (c, 0j)), np.eye(2))


def husimi_transition(s, params=Params()):
    if s <= 0:
        raise ValueError("squeezing parameter s must be positive")
    h = params.hbar
    return GaussianMap(((0.5 * h * s * s, 0j), (0j, 0.5 * h / (s * s))),
                       np.eye(2))


def compose(m1, m2):
    """The map f -> image(m2, image(m1, f)): (C1 + L1 C2 L1^T, L1 L2)."""
    return GaussianMap(m1.C + m1.L @ m2.C @ m1.L.T, m1.L @ m2.L)


def inverse(op):
    """The inverse map (-L^{-1} C L^{-T}, L^{-1})."""
    Linv = np.linalg.inv(op.L)
    return GaussianMap(-(Linv @ op.C @ Linv.T), Linv)


def apply(op, f):
    """Image [exp((1/2) grad^T C grad) f] o L of a symbol under a map (a
    transition operator or any other); exact, one group at a time."""
    return _sum_images([
        _group_image((F,), *e.quad_form(), op.C, op.L)
        for e, F in sym.exponent_groups(f).items()])


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
