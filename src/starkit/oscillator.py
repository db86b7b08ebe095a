"""Closed-form oscillator objects: Hamiltonian, Wigner eigenfunctions,
off-diagonal (ladder) elements, propagators, damped eigenfunctions.

Natural-unit conventions follow Params (defaults m = omega = hbar = 1).
Energies are E_n = hbar*omega*(n + 1/2); the damped eigenvalues pick up a
constant imaginary part hbar*gamma/2 independent of n.
"""

import cmath
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np

from . import symbols as sym
from . import transition
from .errors import (BranchAmbiguityError, DegreeGuardError, NonFiniteError,
                     SingularTimeError)
from .symbols import Params

# sho_offdiagonal multiplies no ladders.  The guard stays for cancellation:
# the expanded monomial coefficients of higher states lose their values on
# evaluation.
LADDER_DEGREE_GUARD = 12

TIME_SINGULARITY_TOL = 1e-8


def __getattr__(name):
    """starkit.oscillator.star_product and .moyal_star, once re-exports of
    starkit.star, stay public names; this module no longer imports them,
    so they resolve to star's current bindings on first use."""
    if name in ("moyal_star", "star_product"):
        from . import star
        return getattr(star, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def hamiltonian(params=Params()):
    """H = p^2/(2m) + m omega^2 q^2 / 2 as a two-term polynomial."""
    return sym.poly_symbol({(2, 0): 0.5 / params.m,
                            (0, 2): 0.5 * params.m * params.omega ** 2})


def energy(n, params=Params()):
    return params.hbar * params.omega * (n + 0.5)


def damped_energy(n, params=Params()):
    """E_n + i hbar gamma/2, the eigenvalue of T_gamma(rho_n) under *_gamma."""
    h, w, g = params.hbar, params.omega, params.gamma
    return 0.5 * h * ((2 * n + 1) * w + 1j * g)


def _laguerre_state(n, k, scale, params):
    """(C, expo): scale * L_n^(k)(x) as the real array C[pow_q, pow_p], and
    the exponent of exp(-x/2), for x = 4H/(hbar omega).

    The coefficients of q^(2i) p^(2j) run (j+1) L_{j+1} = (2j+1+k - x) L_j
    - (j+k) L_{j-1} from L_{-1} = 0, L_0 = 1, in the float operations of
    that recurrence on symbols: normalize rounds the sum of x L_j's two
    products once, and so each sum of two scaled terms.  At k = 0 the
    coefficients are that route's bit for bit.
    """
    h, m, w = params.hbar, params.m, params.omega
    x = sym.scale(hamiltonian(params), 4.0 / (h * w))
    xc = sym.exponent_groups(x)[sym.ZERO_EXPO].real
    prev, cur, xl = np.zeros((3, n + 1, n + 1))
    cur[0, 0] = 1.0
    for j in range(n):
        xl[0] = 0.0
        xl[1:] = xc[2, 0] * cur[:-1]
        xl[:, 1:] += xc[0, 2] * cur[:, :-1]
        nxt = ((2 * j + 1.0 + k) * cur - xl) * (1.0 / (j + 1))
        nxt += prev * (-(j + k) / (j + 1.0))
        prev, cur = cur, nxt
    C = np.zeros((2 * n + 1, 2 * n + 1))
    C[::2, ::2] = cur * scale
    envelope = sym.gaussian(1.0, app=-1.0 / (m * h * w), aqq=-m * w / h)
    return C, envelope.terms[0].expo


# Bounded, as both caches are keyed by float Params (no caller reuses 30).
@lru_cache(maxsize=64)
def sho_wigner_eigenstate(n, params=Params()):
    """Stationary Wigner function 2 (-1)^n L_n(4H/hw) exp(-2H/hw)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return sym.array_symbol(*_laguerre_state(n, 0, 2.0 * (-1.0) ** n, params))


def sho_wigner_values(n_max, P, Q, params=Params()):
    """Values of the first n_max+1 stationary Wigner functions on a grid.

    Runs the Laguerre recurrence on values rather than expanding monomial
    coefficients; the coefficient expansion is exact but its evaluation
    loses all precision to cancellation once n is large, while the value
    recurrence stays accurate: on SAMPLE_SPEC it matches a 40-digit
    evaluation of the closed form to 3e-15 through n = 200, past the
    n <= 80 that the spectral-decomposition check sums.
    Returns an array of shape (n_max + 1,) + the broadcast shape of P
    and Q, so axes such as p[None, :] and q[:, None] serve as meshes.
    """
    h, m, w = params.hbar, params.m, params.omega
    P = np.asarray(P, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    x = (2.0 / (h * w)) * (P * P / (2.0 * m) + 0.5 * m * w * w * Q * Q) * 2.0
    env = np.exp(-0.5 * x)
    out = np.empty((n_max + 1,) + x.shape)
    l_prev = np.ones_like(x)
    out[0] = 2.0 * env
    if n_max == 0:
        return out
    l_cur = 1.0 - x
    out[1] = -2.0 * l_cur * env
    for n in range(1, n_max):
        l_nxt = ((2 * n + 1 - x) * l_cur - n * l_prev) / (n + 1)
        l_prev, l_cur = l_cur, l_nxt
        out[n + 1] = 2.0 * (-1.0) ** (n + 1) * l_cur * env
    return out


def ladder_symbols(params=Params()):
    """(a, abar) with a = (m w q + i p)/sqrt(2 m hbar w); [a, abar]_star = 1."""
    h, m, w = params.hbar, params.m, params.omega
    norm = 1.0 / math.sqrt(2.0 * m * h * w)
    a = sym.poly_symbol({(1, 0): 1j * norm, (0, 1): m * w * norm})
    return a, sym.conjugate(a)


@lru_cache(maxsize=64)
def sho_offdiagonal(n, nprime, params=Params()):
    """Off-diagonal element abar^{*n} * rho_0 * a^{*nprime} (moyal ladders).

    Satisfies H * rho = E_n rho and rho * H = E_nprime rho; the diagonal
    case is n! sho_wigner_eigenstate(n).  The overall scale is the raw
    ladder product (leading ladder coefficient 1).  No ladder is
    multiplied: for n >= nprime it is the closed form (Curtright, Fairlie
    and Zachos, Phys. Rev. D 58 (1998) 025002)

        2 (-1)^nprime nprime! (2 abar)^(n - nprime)
            L_nprime^(n - nprime)(x) exp(-x/2),  x = 4H/(hbar omega),

    and for n < nprime the conjugate of the (nprime, n) element.
    """
    if n < 0 or nprime < 0:
        raise ValueError("indices must be non-negative")
    if n + nprime > LADDER_DEGREE_GUARD:
        raise DegreeGuardError(
            f"n + nprime = {n + nprime} exceeds guard {LADDER_DEGREE_GUARD}")
    if n < nprime:
        return sym.conjugate(sho_offdiagonal(nprime, n, params))
    k = n - nprime
    L, expo = _laguerre_state(
        nprime, k, 2.0 * (-1.0) ** nprime * math.factorial(nprime), params)
    abar = sym.exponent_groups(ladder_symbols(params)[1])[sym.ZERO_EXPO]
    (_, p_coeff), (q_coeff, _) = (2.0 * abar).tolist()  # 2 abar's p and q
    C = np.zeros((len(L) + k,) * 2, dtype=np.complex128)
    for i in range(k + 1):  # (2 abar)^k, one binomial term at a time
        c = math.comb(k, i) * q_coeff ** i * p_coeff ** (k - i)
        C[i:i + len(L), k - i:k - i + len(L)] += c * L
    return sym.array_symbol(C, expo)


def undamped_propagator(t, params=Params()):
    """Propagator symbol sec(wt/2) exp(2 H tan(wt/2) / (i hbar w)): the
    damped propagator at gamma = 0, where its bracket is exactly 1."""
    return damped_propagator(t, replace(params, gamma=0.0))


def damped_propagator(t, params=Params()):
    """Damped propagator, equal to exp(gamma t / 2) T(U(t)).

    Closed form: the quadratic exponent of U(t) with the p^2 coefficient
    divided by 1 + (2 gamma / w) tan(w t / 2), and prefactor

        exp(gamma t / 2) / ( cos(w t / 2) sqrt(1 + (2 gamma/w) tan(w t/2)) ).

    The square root (rather than a first power) on the bracket is forced
    by the transition-operator route and by the truncated star-exponential
    oracle; see tests.  Where the bracket is real and negative that root
    sits on its branch cut, and BranchAmbiguityError is raised, as the
    transition-operator route does there.  t may be complex at gamma = 0,
    where the bracket is 1; a complex t at gamma > 0 raises ValueError, as
    the branch of that square root off the real axis is not fixed.
    """
    w, m, h, g = params.omega, params.m, params.hbar, params.gamma
    if not cmath.isfinite(t):
        raise NonFiniteError(f"propagator time t = {t} is not finite")
    if g and complex(t).imag:
        raise ValueError("complex time needs gamma = 0")
    c = cmath.cos(0.5 * w * t)
    if abs(c) < TIME_SINGULARITY_TOL:
        raise SingularTimeError(f"cos(omega t / 2) vanishes near t = {t:g}")
    tn = cmath.tan(0.5 * w * t)
    bracket = 1.0 + 2.0 * g * tn / w
    if abs(bracket) < TIME_SINGULARITY_TOL:
        raise SingularTimeError(
            f"1 + (2 gamma/omega) tan(omega t/2) vanishes near t = {t:g}")
    if bracket.real < 0 and bracket.imag == 0:
        raise BranchAmbiguityError(
            f"1 + (2 gamma/omega) tan(omega t/2) = {bracket.real:.6g} is on "
            f"the branch cut at t = {t:g}")
    tau = 2.0 * tn / (1j * h * w)
    pref = cmath.exp(0.5 * g * t) / (c * cmath.sqrt(bracket))
    return sym.gaussian(pref, app=tau / (2.0 * m * bracket),
                        aqq=0.5 * tau * m * w * w)


def damped_eigenstate(n, params=Params()):
    """(T(rho_n), E_n + i hbar gamma/2) solving H *_gamma rho = E rho."""
    op = transition.damped_transition(params.gamma, params)
    rho = transition.apply(op, sho_wigner_eigenstate(n, params))
    return rho, damped_energy(n, params)
