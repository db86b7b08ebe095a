"""Brackets and star products as exponentials of bilinear derivative operators.

Every product here is exp(dL^T B dR) for a 2x2 complex matrix B over the
derivative basis (d_q, d_p), with the left factor differentiated by dL and
the right by dR.  Four configurations of one engine:

    moyal      B = (i*hbar/2) [[0, 1], [-1, 0]]
    damped(g)  moyal with B_pp = -i*hbar*g*m added
    standard   B = [[0, i*hbar], [0, 0]]
    husimi(s)  moyal + (hbar/2) diag(s^2, 1/s^2)

Products are exact on the whole class, by one of three routes:

- two polynomials: _polynomial_star, on one dense coefficient array over
  the doubled space (y, z), one terminating factor exp(B_ij d_yi d_zj) per
  nonzero B_ij, then y = z = x;
- one polynomial side: the series terminates at its degree; one generator,
  _series_orders, yields it order by order to _series_star and to
  numerics.star_series_oracle;
- no polynomial side: in the doubled space exp(dL^T B dR) is
  exp((1/2) grad^T S grad) with S = [[0, B], [B^T, 0]] followed by
  y = z = x, and _group_image, the one Gaussian-group kernel
  (transition._image calls it with d = 2), applies it per pair of groups,
  alone forming, guarding and inverting K = I - 2 S M.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from . import symbols as sym
from .errors import (BranchAmbiguityError, NonFiniteError, NonTerminatingError,
                     NotEigenError, SingularGaussianError)
from .symbols import Params, Term

SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class BilinearStar:
    name: str
    B: tuple  # ((B_qq, B_qp), (B_pq, B_pp)) over (d_q, d_p)
    params: Params

    def __post_init__(self):
        if not np.isfinite(self.matrix()).all():
            raise NonFiniteError(f"{self.name} product has a non-finite entry")

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


def _series_orders(f, g, B, n_max):
    """Per order n <= n_max, the list of nonzero terms
    (c, d_q^a d_p^b f, d_q^c d_p^d g) of exp(dL^T B dR), each pair once.

    c is the coefficient of x_q^a x_p^b y_q^c y_p^d in (x^T B y)^n / n!: the
    sum over nonzero B_ij of B_ij / n times the order-(n-1) coefficient one
    x_i and one y_j lower.  A pair with a zero derivative is dropped with
    its descendants, so a polynomial side stops at its degree.
    """
    entries = [(i, j, complex(B[i][j])) for i in (0, 1) for j in (0, 1)
               if B[i][j]]
    tables = ({(0, 0): f}, {(0, 0): g})

    def deriv(side, oq, op_):  # d_p^op_ d_q^oq, the d_q's taken first
        if (oq, op_) not in tables[side]:
            var, lower = ("p", (oq, op_ - 1)) if op_ else ("q", (oq - 1, 0))
            tables[side][oq, op_] = sym.differentiate(deriv(side, *lower), var)
        return tables[side][oq, op_]

    coeffs = {((0, 0), (0, 0)): 1.0 + 0j}
    for n in range(n_max + 1):
        if n:
            step = {}
            for ((a, b), (c, d)), x in coeffs.items():
                for i, j, bij in entries:
                    key = (a + 1 - i, b + i), (c + 1 - j, d + j)
                    step[key] = step.get(key, 0) + x * bij / n
            coeffs = step
        order = []
        for key, x in list(coeffs.items()):
            left, right = deriv(0, *key[0]), deriv(1, *key[1])
            if left.is_zero() or right.is_zero():
                del coeffs[key]
            elif x != 0:
                order.append((x, left, right))
        yield order


def _series_star(f, g, B, n_max):
    """Exact finite series sum_{n<=n_max} (1/n!) (f dL^T B dR)^n g."""
    raw = []
    for order in _series_orders(f, g, B, n_max):
        for c, left, right in order:
            prod = sym.pointwise_multiply(left, right)
            raw.extend(Term(t.coeff * c, t.pow_p, t.pow_q, t.expo)
                       for t in prod.terms)
    return sym.normalize(raw)


def _coefficient_array(f):
    """A polynomial symbol as the complex array F[pow_q, pow_p]."""
    F = np.zeros((max(t.pow_q for t in f.terms) + 1,
                  max(t.pow_p for t in f.terms) + 1), dtype=np.complex128)
    for t in f.terms:
        F[t.pow_q, t.pow_p] = t.coeff
    return F


def _polynomial_star(f, g, B):
    """Exact product of two nonzero polynomials on dense coefficient arrays.

    In the doubled space T = F (x) G over (y_q, y_p, z_q, z_p).  Each
    nonzero B_ij applies exp(B_ij d_{y_i} d_{z_j}), the factors commuting:
    the terminating sum over k of B_ij^k / k! times T shifted down by k on
    axes i and 2 + j, weighted by the falling factorials (u + k)! / u! of
    both.  y = z = x then sums T[a, b, c, d] into H[a + c, b + d], and H
    becomes the Symbol through symbols.array_symbol.  T has one entry per
    pair of (pow_q, pow_p) cells of F and G, so two dense operands of
    degree d take O(d^4) memory.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        T = np.multiply.outer(_coefficient_array(f), _coefficient_array(g))
        for i in (0, 1):
            for j in (0, 1):
                if B[i][j]:
                    T = _exp_factor(T, complex(B[i][j]), i, 2 + j)
        width = T.shape[1] + T.shape[3] - 1  # pow_p of H runs to width - 1
        a, b, c, d = np.ix_(*(np.arange(n) for n in T.shape))
        flat = ((a + c) * width + (b + d)).ravel()
        H = np.empty((T.shape[0] + T.shape[2] - 1, width), dtype=np.complex128)
        H.real, H.imag = (np.bincount(flat, part.ravel(), H.size).reshape(
            H.shape) for part in (T.real, T.imag))
    return sym.array_symbol(H)


def _exp_factor(T, beta, i, j):
    """exp(beta d_i d_j) T for two distinct axes i, j of a coefficient
    array indexed by powers; the sum ends with the shorter axis."""
    out = T.copy()
    src, dst = (np.moveaxis(x, (i, j), (0, 1)) for x in (T, out))
    wi, wj, c = np.ones(T.shape[i]), np.ones(T.shape[j]), 1.0 + 0j
    for k in range(1, min(T.shape[i], T.shape[j])):
        c *= beta / k
        # (u + k)! / u! from (u + 1 + k - 1)! / (u + 1)! times (u + 1)
        wi = wi[1:] * np.arange(1, len(wi))
        wj = wj[1:] * np.arange(1, len(wj))
        w = c * np.multiply.outer(wi, wj)
        dst[:len(wi), :len(wj)] += w[:, :, None, None] * src[k:, k:]
    return out


def _sqrt_prefactor(det):
    """Principal-branch 1/sqrt(det) with singularity and branch guards."""
    if abs(det) < SINGULAR_TOL:
        raise SingularGaussianError(f"|det| = {abs(det):.3g} below {SINGULAR_TOL:g}")
    if det.real <= 0:
        raise BranchAmbiguityError(
            f"determinant {det:.6g} left the right half-plane")
    return 1.0 / np.sqrt(det)


def _group_image(P, M, beta, S, E):
    """Terms of exp((1/2) grad^T S grad) on one exponent group, at y = E x.

    The group is P(y) exp(y^T M y + beta^T y) in d = len(S) variables, P a
    {powers: coeff} polynomial, E the d x 2 restriction to x = (q, p).
    With K = I - 2 S M and R = K^{-1} S, averaging over Gaussian shifts of
    covariance S gives

        det(K)^(-1/2) e^{(1/2) beta^T R beta}
            * exp(x^T E^T M K^{-1} E x + (E^T K^{-T} beta)^T x)
            * [exp((1/2) grad^T R grad) P](K^{-1} E x + R beta).

    det K passes the _sqrt_prefactor guards before K is inverted.
    """
    K = np.eye(len(S)) - 2.0 * S @ M
    coeff = _sqrt_prefactor(complex(np.linalg.det(K)))
    Kinv = np.linalg.inv(K)
    R = Kinv @ S
    R = 0.5 * (R + R.T)  # symmetric analytically; enforce numerically
    L = Kinv @ E
    image = sym.affine_image(sym.taylor_image(P, R), L, R @ beta)
    c = coeff * cmath.exp(0.5 * complex(beta @ R @ beta))
    expo = sym.QuadExponent.from_quad_form(E.T @ M @ L, L.T @ beta)
    return [Term(c * d, pp, pq, expo) for (pq, pp), d in image.items()]


def star_product(f, g, star):
    """Exact star product of two class members.

    Two polynomials go through _polynomial_star; one polynomial operand
    gives a series (_series_star) that ends at its degree; otherwise each
    pair of groups goes through _group_image in the doubled space.
    """
    if f.is_zero() or g.is_zero():
        return sym.ZERO
    B = star.matrix()
    degrees = [h.degree() for h in (f, g) if h.is_polynomial()]
    if len(degrees) == 2:
        return _polynomial_star(f, g, B)
    if degrees:
        return _series_star(f, g, B, min(degrees))
    zero = np.zeros((2, 2))
    S = np.block([[zero, B], [B.T, zero]])
    E = np.vstack([np.eye(2)] * 2)
    right = [(e.quad_form(), P) for e, P in sym.exponent_groups(g).items()]
    raw = []
    for e1, P1 in sym.exponent_groups(f).items():
        A1, b1 = e1.quad_form()
        for (A2, b2), P2 in right:
            P = {k1 + k2: c1 * c2 for k1, c1 in P1.items()
                 for k2, c2 in P2.items()}
            raw += _group_image(P, np.block([[A1, zero], [zero, A2]]),
                                np.concatenate([b1, b2]), S, E)
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
    if not isinstance(N, (int, np.integer)) or N < 0:
        raise ValueError("truncation order must be a non-negative integer")
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
