"""Evolution equations and their exact solutions.

The corrected damped equation

    i hbar d(rho)/dt = H *_{-gamma} rho - rho *_{gamma} H

keeps real states real and reduces exactly to the damped classical
advection for the quadratic Hamiltonian, so the evolved state is the
initial symbol composed with the backward classical flow.  The rejected
(naive) commutator equation is kept as a falsification exhibit: its extra
term i gamma hbar d_p d_q rho breaks reality for gamma > 0.  Both exact
solutions are transition.GaussianMap values and go through
transition.apply, one exponent group at a time: the corrected one is the
pullback along the backward damped flow, flow_map(-t) = (0, L(-t)), the
naive one the composition of a derivative exponential (C(t), I) with the
undamped flow, applied in one pass.
"""

import cmath
import math
from dataclasses import replace

import numpy as np

from . import symbols as sym
from .errors import ExponentOverflowError, NonFiniteError, PositivityError
from .oscillator import energy, hamiltonian, sho_offdiagonal
from .star import damped_ad, damped_star, star_commutator
from .symbols import Params
from .transition import GaussianMap, apply, compose


def flow_map(t, params=Params()):
    """Solution map (0, L(t)) of qdot = p/m, pdot = -m w^2 q - 2 gamma p.

    Underdamped uses Omega = sqrt(w^2 - g^2) sinusoids, overdamped the
    hyperbolic analogue, and within 1e-12 of g = w the critical formula;
    the three branches agree continuously across the boundaries.  Raises
    ExponentOverflowError if e^{-gt}, e^{Omega|t| - gt} or an entry overflows.
    """
    if not math.isfinite(t):
        raise NonFiniteError("flow time must be finite")
    m, w, g = params.m, params.omega, params.gamma
    try:
        decay = math.exp(-g * t)
        if params.regime == "critical":
            s, c = t, 1.0
        elif params.regime == "underdamped":
            om = math.sqrt(w * w - g * g)
            s, c = math.sin(om * t) / om, math.cos(om * t)
        else:
            om = math.sqrt(g * g - w * w)
            if om * abs(t) < 20.0:
                s, c = math.sinh(om * t) / om, math.cosh(om * t)
            else:  # cosh = |sinh| = e^{Omega|t|}/2: one exp with e^{-gt}
                decay = math.exp(om * abs(t) - g * t) / 2
                s, c = math.copysign(1 / om, t), 1.0
        L = ((decay * (c + g * s), decay * s / m),
             (-decay * m * w * w * s, decay * (c - g * s)))
        return GaussianMap(np.zeros((2, 2)), L)
    except (OverflowError, NonFiniteError) as exc:  # t is finite here
        raise ExponentOverflowError(f"flow at t = {t:g} overflows") from exc


def pullback(rho, flow):
    """Substitute the linear map into the symbol: (rho o L)(x) = rho(L x)."""
    return apply(flow, rho)


def evolve_classical(rho0, t, params=Params()):
    """Exact evolution: the initial symbol along the backward flow."""
    return pullback(rho0, flow_map(-t, params))


def naive_map(t, params=Params()):
    """Solution map of the rejected equation, d(rho)/dt = naive_rhs(rho).

    Its generator is the undamped flow L0 plus i gamma hbar d_p d_q, so the
    map is compose((C, I), (0, L0(-t))), where (k = i gamma hbar,
    c = cos 2wt, s = sin 2wt) C_qq = k(c - 1)/(2 m w^2), C_qp = C_pq
    = k s/(2w) and C_pp = k m(1 - c)/2; exact for either sign of t.
    """
    undamped = flow_map(-t, replace(params, gamma=0.0))  # rejects t = nan, inf
    m, w, k = params.m, params.omega, 1j * params.gamma * params.hbar
    c, s = math.cos(2 * w * t), math.sin(2 * w * t)
    cqp = k * s / (2 * w)
    C = ((k * (c - 1) / (2 * m * w * w), cqp), (cqp, k * m * (1 - c) / 2))
    return compose(GaussianMap(C, np.eye(2)), undamped)


def evolve_naive(rho0, t, params=Params()):
    """Exact solution of the rejected equation: the naive_map image of rho0."""
    return apply(naive_map(t, params), rho0)


def damped_rhs(rho, params=Params()):
    """d(rho)/dt of the corrected equation, (H *_{-g} rho - rho *_g H)/(i hbar).

    Real for real rho, and identical to -{rho, H}_gamma for the quadratic
    Hamiltonian (second-order star terms cancel between the two products).
    """
    return sym.scale(damped_ad(hamiltonian(params), rho, params.gamma, params),
                     1.0 / (1j * params.hbar))


def naive_rhs(rho, params=Params()):
    """d(rho)/dt of the rejected commutator equation, -[rho, H]_g / (i hbar).

    Expands to the moyal part plus i gamma hbar d_p d_q rho; that extra
    term is imaginary on real states, which is why it was rejected.
    """
    comm = star_commutator(rho, hamiltonian(params),
                           damped_star(params.gamma, params))
    return sym.scale(comm, -1.0 / (1j * params.hbar))


def moyal_rhs(rho, params=Params()):
    """Undamped part -[rho, H]_star / (i hbar) of the naive equation."""
    return naive_rhs(rho, replace(params, gamma=0.0))


def reality_defect(rho_dot):
    """Sup over the sample lattice of |Im rho_dot|."""
    if rho_dot.is_zero():
        return 0.0
    P, Q = sym.SAMPLE_SPEC.meshes()
    return float(np.abs(sym.evaluate_grid(rho_dot, P, Q).imag).max())


def evolve_eigenexpansion(coeffs, t, params=Params()):
    """Undamped expansion sum R_{n,n'} e^{-i(E_n - E_n') t / hbar} rho_{n,n'}.

    coeffs maps (n, n') index pairs to complex amplitudes (finite support).
    """
    entries = [(amp, energy(n, params), energy(nprime, params),
                sho_offdiagonal(n, nprime, params))
               for (n, nprime), amp in sorted(coeffs.items())]
    return evolve_damped_ansatz(entries, t, params)


def evolve_damped_ansatz(entries, t, params=Params()):
    """Damped spectral ansatz sum R e^{-i(conj(E) - E') t / hbar} rho_entry.

    Each entry is (amplitude, E, E', symbol) with complex eigenvalues whose
    imaginary parts (decay rates) must be non-negative; each mode's modulus
    then decays like exp(-(Im E + Im E') t / hbar).
    """
    pairs = []
    for amp, ev, ev_prime, state in entries:
        if ev.imag < 0 or ev_prime.imag < 0:
            raise PositivityError("eigenvalue decay rates must be non-negative")
        phase = cmath.exp(-1j * (ev.conjugate() - ev_prime) * t / params.hbar)
        pairs += (state, amp * phase)
    return sym.combine(*pairs)
