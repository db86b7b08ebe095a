"""Grid sampling, independent numerical oracles, and data export.

The symbolic path is authoritative everywhere; the routines here exist to
check it from the outside: the star series of star._series_orders summed
on a grid (no shared code with the closed-form Gaussian star), classical RK4
advection with 4th-order stencils, Gauss-Legendre quadrature for overlap
and smoothing integrals, and deterministic CSV/JSON grid export.
"""

import io
import json
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from . import symbols as sym
from .errors import (CFLWarning, DivergenceWarning, NonFiniteError,
                     SpecMismatchError)
from .star import _series_orders
from .symbols import GridSpec, Params

# Wide lattice for integrals and grid evolution; shipped Gaussians decay
# below 1e-8 outside it.
WIDE_SPEC = GridSpec(-6.0, 6.0, -6.0, 6.0, 201, 201)

# star_series_oracle warns when its estimated tail past order N exceeds this
# on the grid.
_SERIES_TAIL_TOL = 1e-8

# load_grid bounds a JSON grid's "values" array without parsing it: the
# top-level key (scanned over string tokens and brackets), the end of an
# empty array or of its last pair, and a pair end before a comma (a chunk
# boundary).  Strings, objects, booleans, null, NaN and Infinity start with
# one of _NOT_NUMBERS, which no array of number pairs holds.
_JSON_SPACE = (b" ", b"\t", b"\n", b"\r")
_JSON_TOKEN = re.compile(rb'"(?:[^"\\]|\\.)*"|[\[\]{}]')
_ARRAY_VALUE = re.compile(rb"[ \t\n\r]*:[ \t\n\r]*\[")
_EMPTY_ARRAY = re.compile(rb"\[[ \t\n\r]*\]")
_LAST_PAIR_END = re.compile(rb"\][ \t\n\r]*\]")
_PAIR_END = re.compile(rb"\][ \t\n\r]*,")
_NOT_NUMBERS = b'"{tfnNI'
_JSON_CHUNK = 1 << 16  # bytes of pairs per json.loads


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


def _axes(spec):
    """(P, Q) of the lattice as broadcastable axes p[None, :], q[:, None]."""
    return spec.p_values()[None, :], spec.q_values()[:, None]


def sample(f, spec):
    """values[iq, ip] = f(p_ip, q_iq) at lattice nodes, endpoints inclusive."""
    return PhaseGrid(spec, sym.evaluate_grid(f, *_axes(spec)))


def grid_distance(g1, g2):
    """Sup-norm of the difference of two grids over one lattice, taken a
    strip of rows at a time (symbols.row_strips)."""
    if g1.spec != g2.spec:
        raise SpecMismatchError("grids sampled on different lattices")
    return max(float(np.abs(g1.values[rows] - g2.values[rows]).max())
               for rows in sym.row_strips(g1.values.shape))


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

    Sums the orders n <= N (an integer, at most 40) of star._series_orders
    with each symbolic derivative sampled on the grid once; independent of
    the closed-form Gaussian star path, so agreement with it is evidence.
    Warns (DivergenceWarning) when the tail past order N, extrapolated
    geometrically from the sup norms of the last orders (_series_tail),
    exceeds _SERIES_TAIL_TOL on the grid.
    """
    if not isinstance(N, (int, np.integer)) or not 0 <= N <= 40:
        raise ValueError("truncation order must be an integer in [0, 40]")
    P, Q = _axes(spec)
    grids = {}  # by id(): the generator's tables keep each derivative alive

    def on_grid(d):
        if id(d) not in grids:
            grids[id(d)] = sym.evaluate_grid(d, P, Q)
        return grids[id(d)]

    total = np.zeros((spec.nq, spec.np), dtype=np.complex128)
    sizes = []
    for order in _series_orders(f, g, star.matrix(), N):
        order_vals = sum(c * (on_grid(left) * on_grid(right))
                         for c, left, right in order)
        total += order_vals
        sizes.append(float(np.abs(order_vals).max()))
    tail = _series_tail(sizes)
    if not tail <= _SERIES_TAIL_TOL:
        warnings.warn(f"series tail past order {N} estimated at {tail:.3g} "
                      f"exceeds {_SERIES_TAIL_TOL:.3g}", DivergenceWarning)
    return PhaseGrid(spec, total)


def _series_tail(sizes):
    """Geometric estimate of the sum of the orders past the last of sizes.

    sizes are the sup norms m_0..m_N of the kept orders.  The last two
    pairs of orders give the ratio r = (m_{N-1} + m_N) / (m_{N-3} +
    m_{N-2}), and the pairs past N are taken as (m_{N-1} + m_N) times r,
    r^2, ..., so the tail is (m_{N-1} + m_N) r / (1 - r): exact for m_n =
    C s^n.  Where the orders of one parity vanish (products of functions
    of one quadratic form, such as rho_0 star rho_0, down to rounding), r
    is the other parity's ratio over two orders at odd and even N alike.
    The tail is infinite for r >= 1, for a zero denominator, and for fewer
    than four orders; two zero last orders end the series.
    """
    if not any(sizes[-2:]):
        return 0.0
    if len(sizes) < 4 or not sizes[-4] + sizes[-3]:
        return np.inf
    last = sizes[-2] + sizes[-1]
    r = last / (sizes[-4] + sizes[-3])
    return last * r / (1.0 - r) if r < 1.0 else np.inf


def _advection_fields(spec, params, kind):
    """(v_q, v_p) of rk4_evolve, broadcastable to the lattice."""
    if kind not in ("damped", "naive"):
        raise ValueError(f"kind must be 'damped' or 'naive', not {kind!r}")
    P, Q = _axes(spec)
    m, w, g = params.m, params.omega, params.gamma
    vq = P / m
    vp = -m * w * w * Q - (0.0 if kind == "naive" else 2.0 * g * P)
    return vq, vp


def _steps(spec):
    return ((spec.q_max - spec.q_min) / (spec.nq - 1),
            (spec.p_max - spec.p_min) / (spec.np - 1))


def cfl_ratio(spec, params, dt, kind="damped"):
    """dt * max|v| / min(dq, dp) of rk4_evolve; |v| peaks at a corner."""
    corners = GridSpec(spec.q_min, spec.q_max, spec.p_min, spec.p_max, 2, 2)
    vmax = max(float(np.abs(v).max())
               for v in _advection_fields(corners, params, kind))
    return dt * vmax / min(_steps(spec))


def _advection(spec, params, kind, planes, h):
    """stage(u, v, out, k): out = u + (h/k) L v on (planes, nq*np) states.

    L is the advection operator of rk4_evolve; the outer ring of out is left
    as u's (rows are never written, columns are copied back).  Rows run in
    strips of symbols.strip_height rows; the one-sided edge rows
    and columns are formed once per stage on the whole plane, so the
    result does not depend on the strip height.  The p-velocity weights
    c_p are one plane, scaled by h/k a strip at a time.
    """
    nq, n_p = spec.nq, spec.np
    dq, dp = _steps(spec)
    vq, vp = _advection_fields(spec, params, kind)
    cq = -vq[0] / (12.0 * dq)  # v_q = p/m: one (np,) row
    cp = np.broadcast_to(-vp / (12.0 * dp), (nq, n_p)).ravel()
    cx = (params.gamma * params.hbar / (144.0 * dq * dp)
          * np.array([[1.0], [-1.0]]) if kind == "naive" else None)
    scaled = {k: (h / k, h / k * cq, None if cx is None else h / k * cx)
              for k in (1, 2, 3, 4)}
    rows = sym.strip_height(nq - 2, planes * n_p)
    tmp = np.zeros((planes, rows * n_p))
    cps = np.empty(rows * n_p)  # (h/k) c_p on one strip
    ep, ex = np.zeros((planes, nq, 2)), np.zeros((planes, nq, 2))
    edge = np.array([-3.0, -10.0, 18.0, -6.0, 1.0])  # one-sided, at x[1]
    redge = -edge  # the same at x[-2], over x[-1], x[-2], ...

    def ends(x, axis, lo, hi):  # 12h d/dx at indices 1 and -2 of axis 1, 2
        xe = x.swapaxes(1, axis)
        np.matmul(edge, xe[:, :5], out=lo)
        np.matmul(redge, xe[:, :-6:-1], out=hi)

    def fd4(x, out, s, lo, hi):  # 12h d/dx at flat lo:hi, offsets +-s
        np.subtract(x[:, lo + s:hi + s], x[:, lo - s:hi - s], out=out)
        out *= 8.0
        out += x[:, lo - 2 * s:hi - 2 * s]
        out -= x[:, lo + 2 * s:hi + 2 * s]

    def stage(u, v, out, k):
        hk, c_q, c_x = scaled[k]
        u3, v3, out3 = (a.reshape(planes, nq, n_p) for a in (u, v, out))
        ends(v3, 1, out3[:, 1], out3[:, -2])
        ends(v3, 2, ep[:, :, 0], ep[:, :, 1])  # (planes, nq, 2)
        if c_x is not None:  # d_q of the p-edge columns: d_p d_q there
            ex[:, 2:-2] = 8.0 * (ep[:, 3:-1] - ep[:, 1:-3]) + ep[:, :-4]
            ex[:, 2:-2] -= ep[:, 4:]
            ends(ep, 1, ex[:, 1], ex[:, -2])
        for r0 in range(1, nq - 1, rows):
            r1 = min(r0 + rows, nq - 1)
            lo, hi = r0 * n_p, r1 * n_p
            a, b = max(r0, 2) * n_p, min(r1, nq - 2) * n_p
            if a < b:
                fd4(v, out[:, a:b], n_p, a, b)
            o, o3 = out[:, lo:hi], out3[:, r0:r1]
            t = tmp[:, :hi - lo]
            t3 = t.reshape(planes, -1, n_p)
            if c_x is not None:  # i gamma hbar d_p d_q v; i (a + ib) = -b + ia
                fd4(o, t[:, 2:-2], 1, 2, hi - lo - 2)
                t3[:, :, 1::n_p - 3] = ex[:, r0:r1]  # columns 1 and np-2
                t *= c_x
                o3 *= c_q
                o += t[::-1]
            else:
                o3 *= c_q
            fd4(v, t, 1, lo, hi)
            t3[:, :, 1::n_p - 3] = ep[:, r0:r1]
            t *= np.multiply(hk, cp[lo:hi], out=cps[:hi - lo])
            o += t
            o += u[:, lo:hi]
            o3[:, :, ::n_p - 1] = u3[:, r0:r1, ::n_p - 1]  # columns 0, np-1

    return stage


def step_schedule(t, dt):
    """(steps, h) of an rk4_evolve run over a finite t: h = t / round(|t|/dt),
    so |h| is at most 1.5 dt and h has the sign of t; dt finite, positive."""
    if not math.isfinite(t):
        raise NonFiniteError(f"evolution time t = {t} is not finite")
    if not 0 < dt < np.inf:
        raise ValueError("dt must be finite and positive")
    steps = max(1, round(abs(t) / dt))
    return steps, t / steps


def rk4_evolve(g0, kind, t, dt, params=Params()):
    """Classical RK4 advection of grid values; an oracle, not the primary path.

    kind "damped" applies L = -vq d_q - vp d_p with vq = p/m, vp = -m w^2 q
    - 2 g p; "naive" drops the damping drift and adds the i gamma hbar
    d_p d_q term of the rejected equation (p-stencil of the q-stencil,
    added to the opposite plane).  The state is real planes flattened
    q-major, so a 5-point 4th-order stencil is one pass with offsets +-np
    (q) or +-1 (p); rows 1, nq-2 and columns 1, np-2 are patched with
    one-sided stencils.

    L is linear and autonomous, so the stages k1..k4 of classical RK4 sum
    to the degree-4 Taylor polynomial of exp(hL) applied to u, u + hLu +
    (hL)^2 u/2 + (hL)^3 u/6 + (hL)^4 u/24.  A step evaluates it in Horner
    form, u + hL(u + h/2 L(u + h/3 L(u + h/4 Lu))): four stages
    u + (h/k) L v for k = 4, 3, 2, 1, each v the stage before it.  The
    stages alternate between two buffers, so a step holds three states;
    the result is RK4's up to rounding (1e-14 on O(1) states).  Each stage
    runs over strips of rows (symbols._STRIP_NODES) that keep its arrays
    in cache; its edge rows and columns are formed once on the whole
    plane, so the result is the same bit for bit at any strip height.  The
    state is copied straight into its plane(s), the fields are formed from
    the lattice axes, and the stage planes and buffers are released before
    the complex output is formed.

    A "naive" state, or one with any imaginary entry other than +0.0, is
    two planes (real, imaginary part).  A "damped" state whose imaginary
    part is all +0.0 is one plane: the damped advection is real (the
    corrected equation of motion is the classical one), so that part would
    stay +0.0 at every step, and the result equals the two-plane one bit
    for bit, as every stage works elementwise on each plane.  The outer
    ring is never advanced: a far-field closure, as states decay below
    1e-8 there and the one-sided edge stencils would otherwise seed a slow
    exponential instability.  A negative t steps backward (h < 0), its CFL
    ratio judged at |h|.  A run that overflows raises NonFiniteError
    naming its CFL ratio.
    """
    spec = g0.spec
    steps, h = step_schedule(t, dt)
    ratio = cfl_ratio(spec, params, abs(h), kind)  # judged at |h|, not dt
    if ratio > 0.5:
        warnings.warn(f"step h = {h:.3g}: |h| * vmax / dx = {ratio:.3g} "
                      "exceeds 0.5", CFLWarning)
    v0 = np.asarray(g0.values)
    im = v0.imag if np.iscomplexobj(v0) else np.zeros(())
    real = kind == "damped" and not (im.any() or np.signbit(im).any())
    u = np.empty((1 if real else 2, spec.nq * spec.np))
    for plane, part in zip(u, (v0.real, im)):
        plane.reshape(spec.nq, spec.np)[...] = part
    stage = _advection(spec, params, kind, len(u), h)
    a, b = u.copy(), u.copy()  # the ring rows of every buffer stay u's
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):  # Horner: u + hL(u + h/2 L(u + h/3 L(...)))
            stage(u, u, a, 4)
            stage(u, a, b, 3)
            stage(u, b, a, 2)
            stage(u, a, b, 1)
            u, b = b, u
    del stage, a, b  # the stage planes and buffers, before the output
    if not np.isfinite(u).all():
        raise NonFiniteError(f"RK4 state overflowed after {steps} steps "
                             f"(cfl_ratio={ratio:.3g}; lower dt)")
    values = u[0] + 0j if real else u[0] + 1j * u[1]
    return PhaseGrid(spec, values.reshape(spec.nq, spec.np))


def export_grid(grid, fmt, destination):
    """Write a grid as CSV ("q,p,re,im", q-major) or JSON; byte-deterministic.

    Each lattice row is one %-template over the row's (re, im) floats,
    written to the open file as it is formed: "%.17g" is format(x, ".17g"),
    and "%r" is the float repr that json writes, so the bytes are those of
    the per-element formulas.  An unknown format raises before the file
    opens.
    """
    s = grid.spec
    rows = np.ascontiguousarray(grid.values, dtype=np.complex128).view(
        np.float64)  # per q: re, im, re, im, ...
    if fmt == "csv":
        tail = [",%.17g,%%.17g,%%.17g" % p for p in s.p_values().tolist()]

        def chunks():
            yield "q,p,re,im\n"
            for q, row in zip(s.q_values().tolist(), rows):
                q = "%.17g" % q
                yield (q + ("\n" + q).join(tail) + "\n") % tuple(row.tolist())
    elif fmt == "json":
        head = json.dumps({"spec": {"q_min": s.q_min, "q_max": s.q_max,
                                    "p_min": s.p_min, "p_max": s.p_max,
                                    "nq": s.nq, "np": s.np}},
                          separators=(",", ":"))
        pairs = ",".join(["[%r,%r]"] * s.np)

        def chunks():
            yield head[:-1] + ',"values":['
            sep = ""
            for row in rows:
                yield sep + pairs % tuple(row.tolist())
                sep = ","
            yield "]}\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    try:
        with open(destination, "w", encoding="ascii") as fh:
            fh.writelines(chunks())
    except OSError as exc:
        raise OSError(f"cannot write {destination}: {exc}") from exc


def _values_span(text):
    """(start, stop) of the bytes of the top-level "values" array of the
    JSON text, brackets included, or None if there is none (the array is
    located, not parsed: it ends at its first "]]" or is empty)."""
    depth = 0
    for tok in _JSON_TOKEN.finditer(text):
        s = tok.group()
        if s in (b"{", b"["):
            depth += 1
        elif s in (b"}", b"]"):
            depth -= 1
        elif depth == 1 and s == b'"values"':
            key = _ARRAY_VALUE.match(text, tok.end())
            if key:
                end = (_EMPTY_ARRAY.match(text, key.end() - 1)
                       or _LAST_PAIR_END.search(text, key.end()))
                return (key.end() - 1, end.end()) if end else None
    return None


def _pair_chunks(text, start, stop):
    """JSON arrays of consecutive runs of the pairs of the array
    text[start:stop], each cut after the first pair that ends at least
    _JSON_CHUNK bytes on; none for an empty array."""
    if _EMPTY_ARRAY.match(text, start):
        return
    i = start  # the array's "[", then the comma before the next run
    while cut := _PAIR_END.search(text, i + _JSON_CHUNK, stop):
        yield b"[" + text[i + 1:cut.start() + 1] + b"]"
        i = cut.end() - 1
    yield b"[" + text[i + 1:stop]


def _json_grid(text, path):
    """(spec, (nq*np, 2) float64 (re, im) pairs) of the ASCII bytes of a
    JSON grid."""
    if not text.isascii():
        raise ValueError(f"{path}: not an ASCII grid file")
    bad = f"{path}: values must be an array of [re, im] number pairs"
    span = _values_span(text)
    if span is None or any(text.find(c, *span) >= 0 for c in _NOT_NUMBERS):
        raise ValueError(bad)
    start, stop = span
    try:
        doc = json.loads(text[:start] + b"null" + text[stop:])
    except json.JSONDecodeError as exc:
        at = exc.pos if exc.pos < start else exc.pos - 4 + stop - start
        raise ValueError(f"{path}: not a JSON grid: {exc.msg} at character "
                         f"{at}") from exc
    try:
        spec = GridSpec(**doc.get("spec", {}))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad grid spec: {exc}") from exc
    n = spec.nq * spec.np
    # n pairs take at least 6n + 1 characters: a short array allocates none
    pairs = np.empty((n if 6 * n + 1 <= stop - start else 0, 2),
                     dtype=np.float64)
    count = 0
    for chunk in _pair_chunks(text, start, stop):
        try:
            block = np.array(json.loads(chunk), dtype=np.float64)
        except (ValueError, OverflowError) as exc:  # ragged, or > 1.8e308
            raise ValueError(bad) from exc
        if block.ndim != 2 or block.shape[1] != 2:
            raise ValueError(bad)
        if count + len(block) <= len(pairs):
            pairs[count:count + len(block)] = block
        count += len(block)
    if count != n:
        raise ValueError(f"{path}: {count} values do not fill the "
                         f"{spec.nq}x{spec.np} lattice")
    return spec, pairs


def _csv_grid(fh, path):
    """(spec, (nq*np, 2) float64 (re, im) pairs) of a CSV grid file."""
    fh.readline()  # the header
    bad = f"{path}: expected rows of the 4 fields q,p,re,im"
    try:
        with warnings.catch_warnings():  # an empty body fails below
            warnings.simplefilter("ignore", UserWarning)
            fields = np.loadtxt(fh, dtype=np.float64, delimiter=",",
                                comments=None, ndmin=2)
    except ValueError as exc:
        raise ValueError(bad) from exc
    if not fields.size or fields.shape[1] != 4:
        raise ValueError(bad)
    qs, ps = np.unique(fields[:, 0]), np.unique(fields[:, 1])
    if not (np.array_equal(fields[:, 0], np.repeat(qs, len(ps)))
            and np.array_equal(fields[:, 1], np.tile(ps, len(qs)))):
        raise ValueError(f"{path}: rows do not fill the "
                         f"{len(qs)}x{len(ps)} lattice in q-major order")
    try:
        spec = GridSpec(float(qs[0]), float(qs[-1]), float(ps[0]),
                        float(ps[-1]), len(qs), len(ps))
    except ValueError as exc:
        raise ValueError(f"{path}: bad grid spec: {exc}") from exc
    # within 1e-9 of a step of the linspace: exact for every %.17g export,
    # and decimal axes such as q = 0, 0.1, ..., 1 differ only by rounding
    dq, dp = _steps(spec)
    if not (np.allclose(qs, spec.q_values(), rtol=0.0, atol=1e-9 * dq)
            and np.allclose(ps, spec.p_values(), rtol=0.0, atol=1e-9 * dp)):
        raise ValueError(f"{path}: q and p axes are not evenly spaced")
    return spec, np.ascontiguousarray(fields[:, 2:])


def load_grid(path):
    """Read back a grid written by export_grid.

    The first non-whitespace byte sniffs the format: "{" starts a JSON
    grid, anything else a CSV one.  A CSV body is parsed from the
    open file by np.loadtxt: every line after the header must hold the 4
    float fields q,p,re,im ('#' starts no comment), and an empty body is
    an error.  A JSON grid is an object with a "spec" object of GridSpec's
    fields and a "values" array of nq*np [re, im] pairs of JSON numbers
    (no strings, booleans, nulls or NaN), in any key order, with any JSON
    whitespace and other keys.  It is read as bytes, never decoded whole,
    and that array never becomes one Python list: the document is parsed
    with the array replaced by null, and the array in pair-aligned chunks
    of about _JSON_CHUNK bytes, each through
    json.loads and np.array into one preallocated array, so every number
    has json's bits.  A malformed grid in either format raises a
    ValueError that names the file.  The (re, im) pairs are viewed as
    complex, so signed zeros come back as written.
    """
    try:
        with open(path, "rb", buffering=0) as fh:
            first = fh.read(1)
            while first in _JSON_SPACE:
                first = fh.read(1)
            fh.seek(0)
            spec, pairs = (_json_grid(fh.read(), path) if first == b"{" else
                           _csv_grid(io.TextIOWrapper(fh, "ascii"), path))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not an ASCII grid file: {exc}") from exc
    try:
        return PhaseGrid(spec, pairs.view(np.complex128).reshape(spec.nq,
                                                                 spec.np))
    except ValueError as exc:  # a non-finite value
        raise ValueError(f"{path}: {exc}") from exc
