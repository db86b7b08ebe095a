"""Grid sampling, independent numerical oracles, and data export.

The symbolic path is authoritative everywhere; the routines here exist to
check it from the outside: a term-by-term star series evaluated on a grid
(no shared code with the closed-form Gaussian star), classical RK4
advection with 4th-order stencils, Gauss-Legendre quadrature for overlap
and smoothing integrals, and deterministic CSV/JSON grid export.
"""

import functools
import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import symbols as sym
from ._accel import fd4_axis
from .errors import CFLWarning, DivergenceWarning, SpecMismatchError
from .symbols import GridSpec, Params

# Wide lattice for integrals and grid evolution; shipped Gaussians decay
# below 1e-8 outside it.
WIDE_SPEC = GridSpec(-6.0, 6.0, -6.0, 6.0, 201, 201)


@dataclass(frozen=True)
class PhaseGrid:
    spec: GridSpec
    values: np.ndarray  # (nq, np) complex, row index over q

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.spec.nq, self.spec.np):
            raise ValueError("values shape does not match spec")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid values must be finite")


def sample(f, spec):
    """values[iq, ip] = f(p_ip, q_iq) at lattice nodes, endpoints inclusive."""
    P, Q = spec.meshes()
    return PhaseGrid(spec, sym.evaluate_grid(f, P, Q))


def grid_distance(g1, g2):
    """Sup-norm of the difference of two grids over one lattice."""
    if g1.spec != g2.spec:
        raise SpecMismatchError("grids sampled on different lattices")
    return float(np.abs(g1.values - g2.values).max())


def trapezoid_integral(g):
    """Trapezoid rule integral of the grid values over its rectangle."""
    dq = (g.spec.q_max - g.spec.q_min) / (g.spec.nq - 1)
    dp = (g.spec.p_max - g.spec.p_min) / (g.spec.np - 1)
    return complex(np.trapezoid(np.trapezoid(g.values, dx=dp, axis=1), dx=dq))


def gauss_legendre_2d(func, q_lo, q_hi, p_lo, p_hi, order=60):
    """Tensor Gauss-Legendre quadrature of func(P, Q) over a rectangle."""
    x, w = np.polynomial.legendre.leggauss(order)
    qs = 0.5 * (q_hi - q_lo) * x + 0.5 * (q_hi + q_lo)
    ps = 0.5 * (p_hi - p_lo) * x + 0.5 * (p_hi + p_lo)
    wq = 0.5 * (q_hi - q_lo) * w
    wp = 0.5 * (p_hi - p_lo) * w
    Q, P = np.meshgrid(qs, ps, indexing="ij")
    vals = func(P, Q)
    return complex(wq @ vals @ wp)


def star_series_oracle(f, g, star, N, spec):
    """Grid evaluation of the truncated bidifferential series of f star g.

    Computes sum_{n<=N} (1/n!) (f dL^T B dR)^n g term-by-term with symbolic
    derivatives sampled on the grid; independent of the closed-form
    Gaussian star path, so agreement with it is evidence.  Warns when the
    last retained order is not yet negligible.
    """
    if N > 40:
        raise ValueError("truncation order capped at 40")
    from .star import _DerivCache, _series_terms  # series helpers only

    B = star.matrix()
    P, Q = spec.meshes()
    df = _DerivCache(f)
    dg = _DerivCache(g)

    @functools.lru_cache(maxsize=None)  # one sample per derivative
    def on_grid(side, orders):
        return sym.evaluate_grid((df, dg)[side].get(*orders), P, Q)

    total = np.zeros(P.shape, dtype=np.complex128)
    last = 0.0
    for n in range(N + 1):
        order_vals = np.zeros(P.shape, dtype=np.complex128)
        for c, left, right in _series_terms(B, n):
            if df.get(*left).is_zero() or dg.get(*right).is_zero():
                continue
            order_vals += c * (on_grid(0, left) * on_grid(1, right))
        total += order_vals
        last = float(np.abs(order_vals).max())
    ref = float(np.abs(total).max())
    if last > 1e-8 * max(ref, 1e-300):
        warnings.warn(
            f"last retained order has sup-norm {last:.3g} vs sum {ref:.3g}",
            DivergenceWarning)
    return PhaseGrid(spec, total)


def _advection_fields(spec, params, kind):
    P, Q = spec.meshes()
    m, w, g = params.m, params.omega, params.gamma
    vq = P / m
    vp = -m * w * w * Q - (0.0 if kind == "naive" else 2.0 * g * P)
    return vq, vp


def rk4_evolve(g0, kind, t, dt, params=Params()):
    """Classical RK4 advection of grid values; an oracle, not the primary path.

    kind selects the stencil right-hand side: "damped" applies the full
    damped advection -vq d_q - vp d_p with vq = p/m, vp = -m w^2 q - 2 g p;
    "naive" drops the damping drift and adds the i gamma hbar d_p d_q term
    of the rejected equation.  Derivatives use 5-point 4th-order stencils
    (one-sided at the boundary).  The outermost cell ring is held at its
    initial value as a far-field condition: states are meant to decay below
    1e-8 there, and without this closure the one-sided edge stencils seed a
    slow exponential instability.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    spec = g0.spec
    dq = (spec.q_max - spec.q_min) / (spec.nq - 1)
    dp = (spec.p_max - spec.p_min) / (spec.np - 1)
    vq, vp = _advection_fields(spec, params, kind)
    vmax = max(float(np.abs(vq).max()), float(np.abs(vp).max()))
    if dt * vmax / min(dq, dp) > 0.5:
        warnings.warn(
            f"dt * vmax / h = {dt * vmax / min(dq, dp):.3g} exceeds 0.5",
            CFLWarning)
    cross = 1j * params.gamma * params.hbar if kind == "naive" else 0.0

    def rhs(u):
        du_q = fd4_axis(u, dq, axis=0)
        du_p = fd4_axis(u, dp, axis=1)
        out = -vq * du_q - vp * du_p
        if cross:
            out = out + cross * fd4_axis(du_q, dp, axis=1)
        out[0, :] = 0.0
        out[-1, :] = 0.0
        out[:, 0] = 0.0
        out[:, -1] = 0.0
        return out

    steps = max(1, round(t / dt))
    h = t / steps
    u = np.array(g0.values, dtype=np.complex128)
    for _ in range(steps):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * h * k1)
        k3 = rhs(u + 0.5 * h * k2)
        k4 = rhs(u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return PhaseGrid(spec, u)


def _f17(x):
    return format(float(x), ".17g")


def export_grid(grid, fmt, destination):
    """Write a grid as CSV ("q,p,re,im", q-major) or JSON; byte-deterministic."""
    try:
        if fmt == "csv":
            lines = ["q,p,re,im"]
            qs = grid.spec.q_values()
            ps = grid.spec.p_values()
            for iq in range(grid.spec.nq):
                for ip in range(grid.spec.np):
                    v = grid.values[iq, ip]
                    lines.append(f"{_f17(qs[iq])},{_f17(ps[ip])},"
                                 f"{_f17(v.real)},{_f17(v.imag)}")
            payload = "\n".join(lines) + "\n"
        elif fmt == "json":
            s = grid.spec
            doc = {"spec": {"q_min": s.q_min, "q_max": s.q_max,
                            "p_min": s.p_min, "p_max": s.p_max,
                            "nq": s.nq, "np": s.np},
                   "values": [[v.real, v.imag]
                              for row in grid.values for v in row]}
            payload = json.dumps(doc, separators=(",", ":")) + "\n"
        else:
            raise ValueError(f"unknown format {fmt!r}")
        with open(destination, "w", encoding="ascii") as fh:
            fh.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write {destination}: {exc}") from exc


def load_grid(path):
    """Read back a grid written by export_grid (format sniffed from content)."""
    with open(path, encoding="ascii") as fh:
        text = fh.read()
    if text.startswith("{"):
        doc = json.loads(text)
        spec = GridSpec(**doc["spec"])
        flat = np.array([complex(re, im) for re, im in doc["values"]])
        return PhaseGrid(spec, flat.reshape(spec.nq, spec.np))
    lines = [ln for ln in text.splitlines() if ln]
    rows = [ln.split(",") for ln in lines[1:]]
    qs = sorted({float(r[0]) for r in rows})
    ps = sorted({float(r[1]) for r in rows})
    spec = GridSpec(qs[0], qs[-1], ps[0], ps[-1], len(qs), len(ps))
    values = np.array([complex(float(r[2]), float(r[3])) for r in rows])
    return PhaseGrid(spec, values.reshape(spec.nq, spec.np))
