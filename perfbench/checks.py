"""Input generators and output checks shared by the workloads.

Every check returns residual / tolerance with the tolerance pinned here,
so a ratio above 1 is a failed op.  Lattice comparisons use the package's
own notion of equality (9x9 lattice over [-3,3]^2, residual measured
against tol * (1 + sup|reference|)).
"""

import math

import numpy as np

# Pinned tolerances (relative to 1 + sup|reference|).
TOL_EQUIVALENCE = 1e-10     # c-equivalence, as in the `equivalence` suite
TOL_ROUND_TRIP = 1e-10      # T^-1 o T = id on polynomials and class members
TOL_WIGNER = 1e-9           # identities on Wigner states, as in `spectrum`
TOL_REPARSE = 1e-12         # parse(format_symbol(f)) = f
TOL_BRACKET = 1e-11         # damped_rhs = -{rho, H}_gamma, as in `classical-limit`
TOL_PROPAGATOR = 1e-10      # truncated star exponential vs closed form
TOL_FLOW = 1e-10            # pullback vs the initial symbol at mapped nodes
TOL_GRID_CLASS = 1e-9       # exported class sums vs scalar evaluation
TOL_GRID_WIGNER = 1e-6      # exported Wigner states vs the value recurrence
TOL_RK4 = 1e-5              # RK4 oracle vs exact flow, as in the `flow` suite

# Documented program defects an op may show; a failure they do not
# explain makes the run incorrect.
WIGNER_CANCELLATION = "wigner-cancellation"   # expanded Wigner states, n > 12
CRITERION_11 = "criterion-11"                 # spectral sum truncated at n <= 60


def worst(ratios):
    """Largest ratio; NaN if any is NaN, so a NaN output cannot pass."""
    ratios = list(ratios)
    return math.nan if any(math.isnan(r) for r in ratios) else max(ratios)


def lattice_ratio(sym, got, want, tol):
    """sup|got - want| / (tol * (1 + sup|want|)) on the 9x9 lattice."""
    cmp = sym.approx_equal(want, got, tol)
    return cmp.residual / (tol * (1.0 + cmp.scale))


def values_ratio(got, want, tol):
    """The same measure on arrays of values."""
    res = float(np.abs(np.asarray(got) - np.asarray(want)).max())
    return res / (tol * (1.0 + float(np.abs(want).max())))


def mapped_nodes(flow, P, Q):
    """(P', Q') = L (q, p) for a flow map L acting on column (q, p)."""
    L = flow.matrix()
    return L[1, 0] * Q + L[1, 1] * P, L[0, 0] * Q + L[0, 1] * P


def scalar_values(sym, f, P, Q):
    """Scalar evaluation of f node by node (independent of evaluate_grid)."""
    out = np.empty(np.shape(P), dtype=np.complex128)
    for idx in np.ndindex(out.shape):
        out[idx] = sym.evaluate(f, float(P[idx]), float(Q[idx]))
    return out


def _c(rng, lo, hi, im=0.2):
    return complex(rng.uniform(lo, hi), rng.uniform(-im, im))


# Fixed monomial supports: the seed draws coefficients and exponents, not
# the structure, so every round of a workload costs about the same.
POLY6 = ((6, 0), (3, 3), (0, 6), (2, 1), (1, 1), (0, 0))
POLY6B = ((2, 4), (5, 1), (0, 5), (2, 0), (0, 1), (0, 0))
POLY4 = ((4, 0), (2, 2), (0, 3), (1, 1), (1, 0), (0, 0))
POLY4B = ((0, 4), (3, 1), (1, 2), (0, 2), (0, 1), (0, 0))


def random_polynomial(sym, rng, support=POLY4, scale=0.25):
    """Seeded complex coefficients on a fixed monomial support."""
    return sym.poly_symbol({key: _c(rng, -scale, scale, scale)
                            for key in support})


def random_exponent(sym, rng):
    """Decaying quadratic exponent with small imaginary parts."""
    return sym.QuadExponent(app=_c(rng, -1.0, -0.3), aqq=_c(rng, -1.0, -0.3),
                            apq=_c(rng, -0.2, 0.2), bp=_c(rng, -0.3, 0.3, 0.3),
                            bq=_c(rng, -0.3, 0.3, 0.3))


def random_class_member(sym, rng, powers=((2, 0), (0, 1)), n_exponents=None):
    """Monomial prefactors p^a q^b (fixed) on seeded decaying Gaussians;
    term k uses exponent k mod n_exponents."""
    expos = [random_exponent(sym, rng)
             for _ in range(n_exponents or len(powers))]
    raw = [sym.Term(_c(rng, -1.0, 1.0, 1.0), a, b, expos[k % len(expos)])
           for k, (a, b) in enumerate(powers)]
    return sym.normalize(raw)


def random_gaussian_sum(sym, rng, n_terms=2):
    return random_class_member(sym, rng, ((0, 0),) * n_terms)
