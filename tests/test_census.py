"""Census of silent wrong answers.

Each case compares a result with an independent reference.  It passes if
the result is within 1e-9 of the reference, relative to the reference's
largest value on the lattice, or if it raises a typed StarkitError.  A
case that is silently wrong today is a strict xfail, so that a change
which turns it into a right value or a typed error must say so.
"""

import numpy as np
import pytest

import starkit as sk
from starkit import numerics
from starkit import symbols as sym
from starkit.errors import StarkitError

TOL = 1e-9
TIMES = np.linspace(0.1, 6.2, 14)


def _relative_miss(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def _check(compute, reference):
    """Pass on a typed error; otherwise the miss must be within TOL."""
    try:
        got = compute()
    except StarkitError:
        return
    assert _relative_miss(got, reference()) <= TOL


def _silent(cases, silent):
    """The cases, those in silent marked as strict xfails."""
    mark = pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason="silently wrong")
    return [pytest.param(case, marks=mark) if case in silent else case
            for case in cases]


def _on_lattice(f):
    return sym.evaluate_grid(f, *sym.SAMPLE_SPEC.meshes())


# The sign of det K^(-1/2) (the branch of the Gaussian prefactor).
GROUP_LAW_SILENT = {(1, 6), (2, 6), (3, 6), (4, 3), (4, 6), (5, 3), (5, 6),
                    (6, 3), (6, 6), (7, 9), (7, 12), (8, 9), (9, 9), (10, 9)}


@pytest.mark.parametrize("ij", _silent(
    [(i, j) for i in range(14) for j in (0, 3, 6, 9, 12)], GROUP_LAW_SILENT),
    ids=lambda ij: f"t{ij[0]}-s{ij[1]}")
def test_propagator_group_law(ij):
    t, s = TIMES[ij[0]], TIMES[ij[1]]
    U = sk.undamped_propagator
    _check(lambda: _on_lattice(sk.star_product(U(t), U(s), sk.moyal_star())),
           lambda: _on_lattice(U(t + s)))


# Digits lost inside the group kernel's Taylor stage.
@pytest.mark.parametrize("n", _silent(list(range(2, 17, 2)),
                                      {10, 12, 14, 16}))
def test_wigner_projector(n):
    rho = sk.sho_wigner_eigenstate(n)
    _check(lambda: _on_lattice(sk.star_product(rho, rho, sk.moyal_star())),
           lambda: _on_lattice(rho))


# Digits lost to cancellation when monomials are evaluated far out.
@pytest.mark.parametrize("n", _silent([12, 16, 20, 24, 30, 40],
                                      {20, 24, 30, 40}))
def test_wigner_sample_on_wide_lattice(n):
    spec = numerics.WIDE_SPEC
    _check(lambda: numerics.sample(sk.sho_wigner_eigenstate(n), spec).values,
           lambda: sk.sho_wigner_values(n, spec.p_values()[None, :],
                                        spec.q_values()[:, None])[n])


# A finite exponent just under EXP_LIMIT times a large coefficient or
# monomial: the exact values pass the largest double, so no returned value
# is right (its miss from inf is NaN) and each case must raise.
LARGE_FACTORS = {"1e10 exp(q)": sym.gaussian(1e10, bq=1.0),
                 "q^8 exp(q)": sym.pointwise_multiply(
                     sym.monomial(1.0, 0, 8), sym.gaussian(1.0, bq=1.0))}


@pytest.mark.parametrize("evaluator", ["evaluate", "evaluate_grid"])
@pytest.mark.parametrize("name", sorted(LARGE_FACTORS))
def test_value_past_the_double_range(name, evaluator):
    f = LARGE_FACTORS[name]
    _check(lambda: getattr(sym, evaluator)(f, 0.0, 699.5), lambda: np.inf)
