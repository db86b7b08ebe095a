"""Closed-form oscillator objects: Hamiltonian, Wigner eigenfunctions,
ladder-built off-diagonal elements, propagators, damped eigenfunctions.

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
from .errors import BranchAmbiguityError, DegreeGuardError, SingularTimeError
from .star import moyal_star, star_product
from .symbols import Params

# Exact ladder construction beyond this total index loses double precision.
LADDER_DEGREE_GUARD = 12

TIME_SINGULARITY_TOL = 1e-8


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


def _laguerre_symbols(n_max, x):
    """L_0 .. L_{n_max} of the symbol x via the three-term recurrence
    (n+1) L_{n+1} = (2n+1-x) L_n - n L_{n-1}; stable for the range used."""
    out = [sym.ONE]
    if n_max >= 1:
        out.append(sym.combine(sym.ONE, 1.0, x, -1.0))
    for n in range(1, n_max):
        a = sym.combine(sym.scale(out[n], 2 * n + 1.0), 1.0,
                        sym.pointwise_multiply(x, out[n]), -1.0)
        nxt = sym.combine(a, 1.0 / (n + 1), out[n - 1], -n / (n + 1.0))
        out.append(nxt)
    return out


# Bounded, as both caches are keyed by float Params (no caller reuses 30).
@lru_cache(maxsize=64)
def sho_wigner_eigenstate(n, params=Params()):
    """Stationary Wigner function 2 (-1)^n L_n(4H/hw) exp(-2H/hw)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    h, m, w = params.hbar, params.m, params.omega
    x = sym.scale(hamiltonian(params), 4.0 / (h * w))
    ln = _laguerre_symbols(n, x)[n]
    envelope = sym.gaussian(2.0 * (-1.0) ** n,
                            app=-1.0 / (m * h * w), aqq=-m * w / h)
    return sym.pointwise_multiply(ln, envelope)


def sho_wigner_values(n_max, P, Q, params=Params()):
    """Values of the first n_max+1 stationary Wigner functions on a grid.

    Runs the Laguerre recurrence on values rather than expanding monomial
    coefficients; the coefficient expansion is exact but its evaluation
    loses all precision to cancellation once n is large, while the value
    recurrence stays accurate: on SAMPLE_SPEC it matches a 40-digit
    evaluation of the closed form to 3e-15 through n = 200, past the
    n <= 80 that the spectral-decomposition check sums.
    Returns an array of shape (n_max + 1,) + P.shape.
    """
    h, m, w = params.hbar, params.m, params.omega
    P = np.asarray(P, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    x = (2.0 / (h * w)) * (P * P / (2.0 * m) + 0.5 * m * w * w * Q * Q) * 2.0
    env = np.exp(-0.5 * x)
    out = np.empty((n_max + 1,) + P.shape)
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
    case is proportional to sho_wigner_eigenstate(n).  The overall scale is
    the raw ladder product (leading ladder coefficient 1).
    """
    if n < 0 or nprime < 0:
        raise ValueError("indices must be non-negative")
    if n + nprime > LADDER_DEGREE_GUARD:
        raise DegreeGuardError(
            f"n + nprime = {n + nprime} exceeds guard {LADDER_DEGREE_GUARD}")
    a, abar = ladder_symbols(params)
    star = moyal_star(params)
    rho = sho_wigner_eigenstate(0, params)
    for _ in range(n):
        rho = star_product(abar, rho, star)
    for _ in range(nprime):
        rho = star_product(rho, a, star)
    return rho


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
