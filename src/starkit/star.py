"""Brackets and star products as exponentials of bilinear derivative operators.

Every product here is exp(dL^T B dR) for a 2x2 complex matrix B over the
derivative basis (d_q, d_p), with the left factor differentiated by dL and
the right by dR.  Four configurations of one engine:

    moyal      B = (i*hbar/2) [[0, 1], [-1, 0]]
    damped(g)  moyal with B_pp = -i*hbar*g*m added
    standard   B = [[0, i*hbar], [0, 0]]
    husimi(s)  moyal + (hbar/2) diag(s^2, 1/s^2)

Products are exact on the whole class, by one of two routes:

- one polynomial side: the series terminates at its degree; one generator,
  _series_orders, yields it order by order to _series_star and to
  numerics.star_series_oracle;
- otherwise, in the doubled space (y, z), exp(dL^T B dR) is
  exp((1/2) grad^T S grad) with S = [[0, B], [B^T, 0]] followed by
  y = z = x.  _group_image, the one Gaussian-group kernel (transition's
  too, with d = 2), applies it per pair of exponent groups to one dense
  coefficient array: Taylor factors, a shift, y = K^{-1} E x and the
  product's monomials placed.  Two polynomials are its M = 0 case.

Each linear combination (the series sum, a bracket, a star exponential's
partial sum) is one symbols.combine: one normalize over every scaled term.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from . import symbols as sym
from .errors import (BranchAmbiguityError, NonFiniteError, NonTerminatingError,
                     NotEigenError, SingularGaussianError)
from .symbols import Params, Term

SINGULAR_TOL = 1e-12
_E = np.vstack([np.eye(2)] * 2)  # y = z = x in the doubled space


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
    damping = ((sym.pointwise_multiply(fp, gp), -2.0 * gamma * params.m)
               if gamma != 0 else ())
    return sym.combine(sym.pointwise_multiply(fq, gp), 1.0,
                       sym.pointwise_multiply(fp, gq), -1.0, *damping)


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
    pairs = []
    for order in _series_orders(f, g, B, n_max):
        for c, left, right in order:
            pairs += (sym.pointwise_multiply(left, right), c)
    return sym.combine(*pairs)


def _exp_factor(T, w, i, j):
    """exp(w d_i d_j) T on a coefficient array indexed by powers, i <= j:
    the terminating sum over k of w^k / k! times T shifted down by k on
    axes i and j (by 2k on axis i = j), weighted by the falling factorials
    (u + k)! / u! of both ((u + 2k)! / u!).  It ends with the shorter axis.
    """
    out, ar = T.copy(), np.arange(max(T.shape))
    wi, wj, c, k = np.ones(T.shape[i]), np.ones(T.shape[j]), 1.0 + 0j, 1
    while min(len(wi), len(wj)) > 1 + (i == j):
        c *= w / k
        # (u + k)! / u! from (u + 1 + k - 1)! / (u + 1)! times (u + 1)
        wi, wj = (x[1:] * ar[1:len(x)] for x in (wi, wj))
        if i == j:  # the same step again: (u + 2k)! / u!
            wi = wj = wi[1:] * ar[1:len(wi)]
        v = c * (wi if i == j else np.multiply.outer(wi, wj))
        shape, src, dst = [1] * T.ndim, [slice(None)] * T.ndim, [slice(None)] * T.ndim
        for ax, n in ((i, len(wi)), (j, len(wj))):
            shape[ax], src[ax], dst[ax] = n, slice(T.shape[ax] - n, None), slice(n)
        out[tuple(dst)] += v.reshape(shape) * T[tuple(src)]
        k += 1
    return out


def _shift(T, s, k):
    """T(y + s e_k): axis k of T times W[v, u] = C(v, u) s^(v - u), row v
    the coefficients of (y + s)^v, (y + s) times row v - 1."""
    W = np.eye(T.shape[k], dtype=np.complex128)
    for v in range(1, len(W)):
        W[v, 1:v] = W[v - 1, :v - 1]
        W[v, :v] += s * W[v - 1, :v]
    axes = list(range(T.ndim))
    return np.einsum(T, axes, W, [k, T.ndim], axes[:k] + [T.ndim] + axes[k + 1:])


def _substitute(T, L, k):
    """T with its variables (y, z) on axes k, k + 1 replaced by y = L00 q
    + L01 p, z = L10 q + L11 p; the axes become (pow_q, pow_p).  A
    diagonal L scales the powers; otherwise degree n maps by one matrix,
    its row a the coefficients of q^j p^(n - j) in y^a z^(n - a), each row
    one form times a row of the degree n - 1 matrix."""
    na, nb = T.shape[k:k + 2]
    (l00, l01), (l10, l11) = L.tolist()
    if na == nb == 1 or (l00, l01, l10, l11) == (1, 0, 0, 1):
        return T
    if l01 == l10 == 0:
        scale = np.multiply.outer(l00 ** np.arange(na), l11 ** np.arange(nb))
        return T * scale.reshape(scale.shape + (1,) * (T.ndim - k - 2))
    order = (k, k + 1) + tuple(ax for ax in range(T.ndim) if ax // 2 != k // 2)
    X = T.transpose(order).reshape(na, nb, -1)
    top = int(np.add(*np.nonzero(X.any(axis=2))).max(initial=0))
    Y = np.zeros((top + 1, top + 1, X.shape[2]), dtype=np.complex128)
    W, j = np.ones((1, 1), dtype=np.complex128), np.arange(top + 1)
    Y[0, 0] = X[0, 0]
    for n in range(1, top + 1):
        prev, W = W, np.zeros((n + 1, n + 1), dtype=np.complex128)
        W[1:, 1:], W[0, 1:] = l00 * prev, l10 * prev[0]
        W[1:, :-1] += l01 * prev
        W[0, :-1] += l11 * prev[0]
        a = j[max(0, n - nb + 1):min(n, na - 1) + 1]
        Y[j[:n + 1], n - j[:n + 1]] = np.einsum("aj,ab->jb", W[a], X[a, n - a])
    # order swaps the pairs of axes, so it is its own inverse
    return Y.reshape(Y.shape[:2] + T.shape[:k] + T.shape[k + 2:]).transpose(order)


def _place(T):
    """Sum T[a, b, c, d] into H[a + c, b + d]: the product of the two
    sides' (q, p) monomials, by one np.bincount per part."""
    if T.shape[:2] == (1, 1) or T.shape[2:] == (1, 1):  # a constant side
        return T.reshape(T.shape[0] * T.shape[2], -1)
    width = T.shape[1] + T.shape[3] - 1  # pow_p of H runs to width - 1
    a, b, c, d = np.ix_(*(np.arange(n) for n in T.shape))
    flat = ((a + c) * width + (b + d)).ravel()
    H = np.empty((T.shape[0] + T.shape[2] - 1, width), dtype=np.complex128)
    H.real, H.imag = (np.bincount(flat, part.ravel(), H.size).reshape(
        H.shape) for part in (T.real, T.imag))
    return H


def _sqrt_prefactor(det):
    """Principal-branch 1/sqrt(det) with singularity and branch guards."""
    if abs(det) < SINGULAR_TOL:
        raise SingularGaussianError(f"|det| = {abs(det):.3g} below {SINGULAR_TOL:g}")
    if det.real <= 0:
        raise BranchAmbiguityError(
            f"determinant {det:.6g} left the right half-plane")
    return 1.0 / np.sqrt(det)


@np.errstate(over="ignore", invalid="ignore")  # array_symbol checks
def _group_image(Fs, M, beta, S, E):
    """exp((1/2) grad^T S grad) on one exponent group, at y = E x.

    The group is F(y) exp(y^T M y + beta^T y) in d = len(S) variables (2
    or 4), F the outer product of the arrays Fs[pow_q, pow_p], one per
    pair of variables; E is the d x 2 restriction to x = (q, p).  With
    K = I - 2 S M and R = K^{-1} S, averaging over Gaussian shifts of
    covariance S gives

        det(K)^(-1/2) e^{(1/2) beta^T R beta}
            * exp(x^T E^T M K^{-1} E x + (E^T K^{-T} beta)^T x)
            * [exp((1/2) grad^T R grad) F](K^{-1} E x + R beta),

    returned as (H[pow_q, pow_p], exponent).  If (SM)^2 is all exact
    zeros, K is unipotent: det K = 1 and K^{-1} = I + 2SM, no LAPACK call;
    else det K passes the _sqrt_prefactor guards before K is inverted.
    On F: exp(R_ij d_i d_j), i < j, and exp(R_ii d_i^2 / 2) (_exp_factor),
    a shift by R beta (_shift), K^{-1} E x (_substitute), and _place.
    """
    d = len(S)
    SM, coeff, R, L = S @ M, 1.0, S, E
    if SM.any():  # else K = I
        K, unipotent = np.eye(d) - 2.0 * SM, not (SM @ SM).any()
        coeff = 1.0 if unipotent else _sqrt_prefactor(complex(np.linalg.det(K)))
        Kinv = np.eye(d) + 2.0 * SM if unipotent else np.linalg.inv(K)
        R = Kinv @ S
        R = 0.5 * (R + R.T)  # symmetric analytically; enforce numerically
        L = Kinv @ E
    s, w = R @ beta, R.tolist()
    T = np.multiply.outer(*Fs) if len(Fs) == 2 else Fs[0]
    for i in range(d):
        for j in range(i, d):
            if min(T.shape[i], T.shape[j]) > 1 + (i == j) and w[i][j]:
                T = _exp_factor(T, w[i][j] / (2 if i == j else 1), i, j)
    for k, sk in enumerate(s.tolist()):
        if T.shape[k] > 1 and sk:
            T = _shift(T, sk, k)
    for k in range(0, d, 2):
        T = _substitute(T, L[k:k + 2], k)
    H = _place(T) if d == 4 else T
    c = coeff * cmath.exp(0.5 * complex(beta @ s))
    expo = (sym.QuadExponent.from_quad_form(E.T @ M @ L, L.T @ beta)
            if M.any() or beta.any() else sym.ZERO_EXPO)
    return (H if c == 1 else c * H), expo


def _sum_images(images):
    """The symbol of a list of (H, exponent) group images."""
    if len(images) == 1:
        return sym.array_symbol(*images[0])
    return sym.normalize([Term(H[q, p], p, q, expo) for H, expo in images
                          for q, p in np.argwhere(H).tolist()])


def star_product(f, g, star):
    """Exact star product of two class members.

    One polynomial operand gives a series (_series_star) that ends at its
    degree; otherwise each pair of exponent groups goes through
    _group_image in the doubled space, two polynomials as its M = 0 case.
    """
    if f.is_zero() or g.is_zero():
        return sym.ZERO
    B = star.matrix()
    if f.is_polynomial() != g.is_polynomial():
        return _series_star(f, g, B, (f if f.is_polynomial() else g).degree())
    groups = [sym.exponent_groups(h) for h in (f, g)]
    S = np.zeros((4, 4), dtype=np.complex128)
    S[:2, 2:], S[2:, :2] = B, B.T
    sides = [[], []]
    for side, half, out in zip(groups, (slice(0, 2), slice(2, 4)), sides):
        for e, F in side.items():
            M, beta = np.zeros((4, 4), complex), np.zeros(4, complex)
            M[half, half], beta[half] = e.quad_form()
            out.append((F, M, beta))
    return _sum_images([_group_image((F1, F2), M1 + M2, b1 + b2, S, _E)
                        for F1, M1, b1 in sides[0] for F2, M2, b2 in sides[1]])


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
    as a small-time oracle against the closed-form propagators.  Each term
    is the last one star f, scaled by 1/n; the N + 1 terms are summed by
    one combine at the end.
    """
    if not f.is_polynomial():
        raise NonTerminatingError("star exponential needs a polynomial argument")
    if not isinstance(N, (int, np.integer)) or N < 0:
        raise ValueError("truncation order must be a non-negative integer")
    power = sym.ONE
    pairs = [power, 1.0]
    for n in range(1, N + 1):
        power = sym.scale(star_product(power, f, star), 1.0 / n)
        pairs += (power, 1.0)
    return sym.combine(*pairs)


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
    image = damped_ad(f, target, -gamma, params)
    scalar = sym.evaluate(image, 0.0, 0.0) / sym.evaluate(target, 0.0, 0.0)
    check = sym.approx_equal(image, sym.scale(target, scalar), 1e-10)
    if not check.ok:
        raise NotEigenError(
            f"adjoint image not proportional to input (residual {check.residual:.3g})")
    return cmath.exp(scalar)
