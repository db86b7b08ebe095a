"""Identity and property suites behind `starkit verify` and the acceptance tests.

Each suite returns CheckResult rows; a row passes when its measured value
satisfies the stated relation against its threshold.  Random draws use
fixed seeds so every run checks the same instances.
"""

import cmath
import math
import time
from dataclasses import dataclass

import numpy as np

from . import dynamics, numerics, oscillator, transition
from . import symbols as sym
from .star import (damped_star, hw_phase, husimi_star, moyal_star,
                   standard_star, star_exp_truncated, star_product)
from .star import bracket as star_bracket
from .symbols import Params


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    relation: str = "<="

    @property
    def passed(self):
        if self.relation == "<=":
            return self.value <= self.threshold
        return self.value > self.threshold

    def line(self):
        mark = "PASS" if self.passed else "FAIL"
        return (f"[{mark}] {self.name}: value={self.value:.3e} "
                f"{self.relation} {self.threshold:.1e}")


def _random_polynomial(rng, max_degree=4, n_terms=5, scale=0.25):
    coeffs = {}
    for _ in range(n_terms):
        pp = int(rng.integers(0, max_degree + 1))
        pq = int(rng.integers(0, max_degree + 1 - pp))
        c = complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
        coeffs[(pp, pq)] = coeffs.get((pp, pq), 0j) + c
    return sym.poly_symbol(coeffs)


def _random_symbol(rng, n_terms=2):
    """Generic class member: monomial prefactors on decaying Gaussians."""
    raw = []
    for _ in range(n_terms):
        expo = sym.QuadExponent(
            app=complex(rng.uniform(-1.0, -0.3), rng.uniform(-0.2, 0.2)),
            aqq=complex(rng.uniform(-1.0, -0.3), rng.uniform(-0.2, 0.2)),
            apq=complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)),
            bp=complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)),
            bq=complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)))
        raw.append(sym.Term(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                            int(rng.integers(0, 3)), int(rng.integers(0, 3)),
                            expo))
    return sym.normalize(raw)


def _fd_time(sample_at, t, h=1e-5):
    """4th-order Richardson central time derivative of grid samples."""
    return (8.0 * (sample_at(t + h) - sample_at(t - h))
            - (sample_at(t + 2 * h) - sample_at(t - 2 * h))) / (12.0 * h)


def _solution_miss(evolve, rhs, rho0, params):
    """Sup over t in {0, 0.7, 1.5, 3} and the sample lattice of
    |d/dt evolve - rhs(evolve)|, the time derivative by _fd_time."""
    P, Q = sym.SAMPLE_SPEC.meshes()

    def state_vals(t):
        return sym.evaluate_grid(evolve(rho0, t, params), P, Q)

    worst = 0.0
    for t in (0.0, 0.7, 1.5, 3.0):
        lhs = _fd_time(state_vals, t)
        rhs_t = sym.evaluate_grid(rhs(evolve(rho0, t, params), params), P, Q)
        worst = max(worst, float(np.abs(lhs - rhs_t).max()))
    return worst


def check_bracket(params=Params(gamma=0.1)):
    m, w, g = params.m, params.omega, params.gamma
    H = oscillator.hamiltonian(params)
    q = sym.variable("q")
    p = sym.variable("p")
    r1 = sym.residual(star_bracket(q, H, g, params), sym.scale(p, 1.0 / m))
    r2 = sym.residual(star_bracket(p, H, g, params),
                      sym.poly_symbol({(0, 1): -m * w * w, (1, 0): -2.0 * g}))
    return [CheckResult("bracket {q,H}_g = p/m", r1, 1e-14),
            CheckResult("bracket {p,H}_g = -m w^2 q - 2 g p", r2, 1e-14)]


def check_intertwining(n_pairs=100, seed=20240811):
    rng = np.random.default_rng(seed)
    params = Params(gamma=0.1)
    setups = [
        ("damped: T(f * g) = Tf *_g Tg",
         moyal_star(params), damped_star(0.1, params),
         transition.damped_transition(0.1, params)),
        ("standard: T(f *_S g) = Tf * Tg",
         standard_star(params), moyal_star(params),
         transition.standard_transition(params)),
        ("husimi: T(f * g) = Tf *_H Tg",
         moyal_star(params), husimi_star(1.0, params),
         transition.husimi_transition(1.0, params)),
    ]
    pairs = [(_random_polynomial(rng), _random_polynomial(rng))
             for _ in range(n_pairs)]
    out = []
    for name, source, target, op in setups:
        worst = 0.0
        for f, g in pairs:
            worst = max(worst,
                        transition.check_equivalence(f, g, source, target, op))
        out.append(CheckResult(f"c-equivalence {name} ({n_pairs} pairs)",
                               worst, 1e-10))
    return out


def check_complexification():
    out = []
    for g in (0.05, 0.1, 0.3):
        params = Params(gamma=g)
        H = oscillator.hamiltonian(params)
        op = transition.damped_transition(g, params)
        expected = sym.combine(H, 1.0, sym.const(-0.5j * params.hbar * g), 1.0)
        r = sym.residual(transition.apply(op, H), expected)
        out.append(CheckResult(f"T(H) = H - i hbar g/2 at gamma={g}", r, 1e-14))
    return out


def check_spectrum(n_max=8):
    params = Params()
    H = oscillator.hamiltonian(params)
    star = moyal_star(params)
    worst_l = worst_r = 0.0
    for n in range(n_max + 1):
        rho = oscillator.sho_wigner_eigenstate(n, params)
        en = oscillator.energy(n, params)
        worst_l = max(worst_l, sym.residual(star_product(H, rho, star),
                                            sym.scale(rho, en)))
        worst_r = max(worst_r, sym.residual(star_product(rho, H, star),
                                            sym.scale(rho, en)))
    return [CheckResult(f"H * rho_n = E_n rho_n (n <= {n_max})", worst_l, 1e-9),
            CheckResult(f"rho_n * H = E_n rho_n (n <= {n_max})", worst_r, 1e-9)]


def check_damped_spectrum(n_max=8):
    out = []
    for g in (0.05, 0.1, 0.3):
        params = Params(gamma=g)
        H = oscillator.hamiltonian(params)
        star = damped_star(g, params)
        worst = 0.0
        for n in range(n_max + 1):
            rho, ev = oscillator.damped_eigenstate(n, params)
            worst = max(worst, sym.residual(star_product(H, rho, star),
                                            sym.scale(rho, ev)))
        out.append(CheckResult(
            f"H *_g rho_gn = E_gn rho_gn (n <= {n_max}, gamma={g})",
            worst, 1e-9))
    params = Params(gamma=0.1)
    rho0, _ = oscillator.damped_eigenstate(0, params)
    w, m, h, g = params.omega, params.m, params.hbar, params.gamma
    denom = 1.0 - 2j * g / w
    frozen = sym.gaussian(2.0 / cmath.sqrt(denom),
                          app=-1.0 / (m * h * w * denom), aqq=-m * w / h)
    out.append(CheckResult("n=0 damped state matches closed form",
                           sym.residual(rho0, frozen), 1e-10))
    return out


def check_propagator():
    out = []
    params = Params(gamma=0.1)
    g, h = params.gamma, params.hbar
    H = oscillator.hamiltonian(params)
    op = transition.damped_transition(g, params)
    for t in (0.1, 0.5):
        lhs = oscillator.damped_propagator(t, params)
        rhs = sym.scale(transition.apply(op, oscillator.undamped_propagator(
            t, params)), cmath.exp(0.5 * g * t))
        out.append(CheckResult(f"U_g(t) = e^(g t/2) T(U(t)) at t={t}",
                               sym.residual(lhs, rhs), 1e-9))
    P, Q = sym.SAMPLE_SPEC.meshes()

    def u_vals(t):
        return sym.evaluate_grid(oscillator.undamped_propagator(t, params), P, Q)

    def ug_vals(t):
        return sym.evaluate_grid(oscillator.damped_propagator(t, params), P, Q)

    t0 = 0.4
    lhs = 1j * h * _fd_time(u_vals, t0)
    rhs = sym.evaluate_grid(star_product(
        H, oscillator.undamped_propagator(t0, params), moyal_star(params)), P, Q)
    out.append(CheckResult("i hbar dU/dt = H * U at t=0.4",
                           float(np.abs(lhs - rhs).max()), 1e-7))
    lhs = 1j * h * _fd_time(ug_vals, t0)
    rhs = sym.evaluate_grid(star_product(
        H, oscillator.damped_propagator(t0, params), damped_star(g, params)),
        P, Q)
    out.append(CheckResult("i hbar dU_g/dt = H *_g U_g at t=0.4",
                           float(np.abs(lhs - rhs).max()), 1e-7))
    t1 = 0.1
    arg = sym.scale(H, -1j * t1 / h)
    series = star_exp_truncated(arg, moyal_star(params), 20)
    out.append(CheckResult("U(0.1) matches truncated star exponential",
                           sym.residual(oscillator.undamped_propagator(
                               t1, params), series), 1e-8))
    series_g = star_exp_truncated(arg, damped_star(g, params), 20)
    out.append(CheckResult("U_g(0.1) matches truncated star_g exponential",
                           sym.residual(oscillator.damped_propagator(
                               t1, params), series_g), 1e-8))
    return out


def check_reality():
    params = Params(gamma=0.1)
    g, h = params.gamma, params.hbar
    rho0 = oscillator.sho_wigner_eigenstate(0, params)
    extra = sym.combine(dynamics.naive_rhs(rho0, params), 1.0,
                        dynamics.moyal_rhs(rho0, params), -1.0)
    expected = sym.scale(sym.differentiate(
        sym.differentiate(rho0, "p"), "q"), 1j * g * h)
    out = [CheckResult("naive extra term = i g hbar d_p d_q rho",
                       sym.residual(extra, expected), 1e-12)]
    out.append(CheckResult("reality defect of naive rhs exceeds bound",
                           dynamics.reality_defect(
                               dynamics.naive_rhs(rho0, params)),
                           1e-3, relation=">"))
    out.append(CheckResult("reality defect of corrected rhs",
                           dynamics.reality_defect(
                               dynamics.damped_rhs(rho0, params)), 1e-12))
    out.append(CheckResult("d/dt evolve_naive = naive_rhs (t in [0,3])",
                           _solution_miss(dynamics.evolve_naive,
                                          dynamics.naive_rhs, rho0, params),
                           1e-7))
    return out


def check_classical_limit(n_samples=50, seed=20240812):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        g = float(rng.uniform(0.0, 0.4))
        params = Params(gamma=g)
        rho = _random_symbol(rng)
        H = oscillator.hamiltonian(params)
        lhs = dynamics.damped_rhs(rho, params)
        rhs = sym.scale(star_bracket(rho, H, g, params), -1.0)
        worst = max(worst, sym.residual(lhs, rhs))
    return [CheckResult(
        f"ad[H] rho/(i hbar) + {{rho,H}}_g = 0 ({n_samples} random symbols)",
        worst, 1e-11)]


def check_flow():
    out = []
    rho0 = sym.normalize([
        sym.Term(1.0, 0, 0, sym.QuadExponent(app=-0.6, aqq=-0.8, apq=0.1,
                                             bp=0.3, bq=-0.4)),
        sym.Term(0.3, 0, 1, sym.QuadExponent(app=-0.6, aqq=-0.8, apq=0.1,
                                             bp=0.3, bq=-0.4))])
    for g, label in ((0.1, "underdamped"), (1.0, "critical"),
                     (1.6, "overdamped")):
        out.append(CheckResult(
            f"d/dt evolve_classical = damped_rhs ({label}, t in [0,3])",
            _solution_miss(dynamics.evolve_classical, dynamics.damped_rhs,
                           rho0, Params(gamma=g)), 1e-7))
    params = Params(gamma=0.1)
    smooth = sym.gaussian(1.0, app=-0.5, aqq=-0.5, bp=-0.3, bq=0.5,
                          apq=0.0)
    g0 = numerics.sample(smooth, numerics.WIDE_SPEC)
    evolved = numerics.rk4_evolve(g0, "damped", 1.0, 2e-3, params)
    exact = numerics.sample(dynamics.evolve_classical(smooth, 1.0, params),
                            numerics.WIDE_SPEC)
    out.append(CheckResult("RK4 grid oracle matches exact flow at t=1",
                           numerics.grid_distance(evolved, exact), 1e-5))
    return out


def check_heisenberg_weyl(n_draws=20, seed=20240813):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_draws):
        a, b, c, d = rng.uniform(-1.0, 1.0, size=4)
        g = float(rng.uniform(0.0, 0.3))
        params = Params(gamma=g)
        got = hw_phase(a, b, c, d, g, params)
        expected = cmath.exp(-1j * params.hbar
                             * (a * d - b * c + 2.0 * params.m * g * a * c))
        worst = max(worst, abs(got - expected))
    return [CheckResult(
        f"hw phase = exp(-i hbar (ad - bc + 2 m g a c)) ({n_draws} draws)",
        worst, 1e-10)]


def spectral_partial_sums(n_max, t, P, Q, params):
    """Partial sums S_N = sum_{n<=N} rho_n e^{-i E_n t/hbar}, N = 0..n_max.

    One run of the value recurrence; S_N is entry N of the result.
    """
    W = oscillator.sho_wigner_values(n_max, P, Q, params)
    phases = np.array([cmath.exp(-1j * oscillator.energy(n, params) * t
                                 / params.hbar) for n in range(n_max + 1)])
    return np.cumsum(W * phases[:, None, None], axis=0)


def spectral_tail_bound(n_max, t, params=Params()):
    """Bound on |U(t) - S_{n_max}| anywhere in phase space, for Im t < 0.

    |exp(-x/2) L_n(x)| <= 1 for x >= 0 (Szego, Orthogonal Polynomials,
    (7.21.3)) gives |rho_n| <= 2, so the tail is at most the geometric sum
    2 exp(w Im t (N + 3/2)) / (1 - exp(w Im t)).
    """
    decay = params.omega * complex(t).imag
    if decay >= 0.0:
        raise ValueError("the spectral sum converges only for Im t < 0")
    return 2.0 * math.exp(decay * (n_max + 1.5)) / -math.expm1(decay)


def spectral_truncation_order(tol, t, params=Params()):
    """Smallest N with spectral_tail_bound(N, t) <= tol."""
    n = 0
    while spectral_tail_bound(n, t, params) > tol:
        n += 1
    return n


def _origin_tail(n_max, t, params):
    """Exact tail of the spectral sum at the origin, where rho_n = 2 (-1)^n."""
    wt = params.omega * t
    return (2.0 * (-1) ** (n_max + 1) * cmath.exp(-1j * (n_max + 1.5) * wt)
            / (1.0 + cmath.exp(-1j * wt)))


def check_spectral():
    """U(t) = sum_n rho_n e^{-i E_n t/hbar} at complex time on SAMPLE_SPEC.

    The pass/fail order N is the smallest with tail bound <= tol.  The
    n_short partial sum is checked against its own tail: exactly at the
    origin, and by the tail bound over the whole lattice.
    """
    params = Params()
    tol, t, n_short = 1e-6, 0.3 - 0.2j, 60
    P, Q = sym.SAMPLE_SPEC.meshes()
    (origin,) = np.argwhere((P == 0.0) & (Q == 0.0))
    n_full = spectral_truncation_order(tol, t, params)
    start = time.perf_counter()
    sums = spectral_partial_sums(max(n_full, n_short), t, P, Q, params)
    uv = sym.evaluate_grid(oscillator.undamped_propagator(t, params), P, Q)
    elapsed = time.perf_counter() - start
    short_miss = uv - sums[n_short]
    tail = _origin_tail(n_short, t, params)
    return [
        CheckResult(f"spectral sum (n <= {n_full}, tail bound <= {tol:.0e}) "
                    f"matches U({t.real:g} - {-t.imag:g}i)",
                    float(np.abs(uv - sums[n_full]).max()), tol),
        CheckResult("spectral sum runtime (s)", elapsed, 30.0),
        CheckResult(f"n <= {n_short} sum misses U at the origin by its "
                    "closed-form tail",
                    abs(short_miss[tuple(origin)] - tail), 1e-12),
        CheckResult(f"n <= {n_short} sum misses U within its tail bound",
                    float(np.abs(short_miss).max()),
                    spectral_tail_bound(n_short, t, params)),
    ]


def check_husimi():
    params = Params()
    s = 1.0
    h = params.hbar
    rho0 = oscillator.sho_wigner_eigenstate(0, params)
    image = transition.husimi_distribution(rho0, s, params)
    spec = sym.SAMPLE_SPEC
    img_vals = sym.evaluate_grid(image, *spec.meshes())
    # Gauss-Legendre of order 60 on [-8, 8]^2 at every lattice node; the
    # smoothing kernel is separable, so the quadratures are one product
    # K_q (rho0 at the nodes) K_p^T, the weights folded into the K's
    x, w = np.polynomial.legendre.leggauss(60)
    nodes, weights = 8.0 * x, 8.0 * w
    rho_nodes = sym.evaluate_grid(rho0, nodes[None, :], nodes[:, None])
    kq = np.exp(-(spec.q_values()[:, None] - nodes) ** 2 / (s * s * h))
    kp = np.exp(-s * s * (spec.p_values()[:, None] - nodes) ** 2 / h)
    quad = (kq * weights) @ rho_nodes @ (kp * weights).T / (np.pi * h)
    out = [CheckResult("husimi image matches smoothing quadrature",
                       float(np.abs(img_vals - quad).max()), 1e-6)]
    negativity = max(0.0, -float(img_vals.real.min()))
    out.append(CheckResult("husimi image negativity on lattice",
                           negativity, 1e-12))
    out.append(CheckResult("husimi image imaginary part",
                           float(np.abs(img_vals.imag).max()), 1e-12))
    return out


SUITES = {
    "bracket": ("damped bracket reproduces the equations of motion",
                check_bracket),
    "equivalence": ("transition operators intertwine the star products",
                    check_intertwining),
    "complexification": ("damped transition shifts H by -i hbar gamma/2",
                         check_complexification),
    "spectrum": ("undamped stationary Wigner eigenfunctions", check_spectrum),
    "damped-spectrum": ("damped eigenfunctions and complex eigenvalues",
                        check_damped_spectrum),
    "propagator": ("propagator identities and dynamical equations",
                   check_propagator),
    "reality": ("naive-equation falsification and reality preservation",
                check_reality),
    "classical-limit": ("corrected equation equals the damped bracket flow",
                        check_classical_limit),
    "flow": ("exact classical-flow solution and RK4 grid oracle", check_flow),
    "heisenberg-weyl": ("deformed shift-algebra phase", check_heisenberg_weyl),
    "spectral": ("propagator spectral decomposition at complex time",
                 check_spectral),
    "husimi": ("husimi smoothing consistency and positivity", check_husimi),
}
