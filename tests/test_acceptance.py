"""Acceptance gate: every criterion at its stated tolerance.

Each test runs one verification suite, prints a pass/fail line per check,
and asserts that every check holds at the tolerance pinned here (not
calibrated later).  The spectral-decomposition criterion sums the series
at t = 0.3 - 0.2i to the order N = 80 that the proven tail bound
|rho_n| <= 2 makes sufficient for 1e-6.  The n <= 60 sum stays checked
against its own tail: at the lattice origin, where rho_n = 2 (-1)^n, its
miss equals the closed-form geometric tail to 1e-12, and over the lattice
it stays within the tail bound.
"""

import pytest

from starkit import verify


@pytest.mark.parametrize("t", [0.3 + 0.1j, 0.3])
def test_spectral_tail_bound_needs_negative_imaginary_time(t):
    with pytest.raises(ValueError, match="converges only for Im t < 0"):
        verify.spectral_tail_bound(5, t)


def _report(rows):
    for row in rows:
        print(row.line())
    failed = [row for row in rows if not row.passed]
    assert not failed, "; ".join(
        f"{row.name}: {row.value:.3e} vs {row.threshold:.1e}"
        for row in failed)


def test_criterion_01_bracket_reproduction(capsys):
    with capsys.disabled():
        print()
        _report(verify.check_bracket())


def test_criterion_02_c_equivalence(capsys):
    with capsys.disabled():
        print()
        _report(verify.check_intertwining())


def test_criterion_03_hamiltonian_complexification(capsys):
    with capsys.disabled():
        print()
        _report(verify.check_complexification())


def test_criterion_04_undamped_spectrum(capsys):
    with capsys.disabled():
        print()
        _report(verify.check_spectrum())


def test_criterion_05_damped_spectrum(capsys):
    with capsys.disabled():
        print()
        _report(verify.check_damped_spectrum())


def test_criterion_06_propagator_identities(capsys):
    with capsys.disabled():
        print()
        _report(verify.check_propagator())


def test_criterion_07_naive_equation_falsification(capsys):
    with capsys.disabled():
        print()
        _report(verify.check_reality())


def test_criterion_08_exact_classical_limit(capsys):
    with capsys.disabled():
        print()
        _report(verify.check_classical_limit())


def test_criterion_09_flow_solution(capsys):
    with capsys.disabled():
        print()
        _report(verify.check_flow())


def test_criterion_10_heisenberg_weyl_phase(capsys):
    with capsys.disabled():
        print()
        _report(verify.check_heisenberg_weyl())


def test_criterion_11_spectral_decomposition(capsys):
    # pass/fail order from the tail bound; the n <= 60 sum is held to its
    # exact origin tail and its bound (see module docstring)
    with capsys.disabled():
        print()
        _report(verify.check_spectral())


def test_criterion_12_husimi_consistency(capsys):
    with capsys.disabled():
        print()
        _report(verify.check_husimi())
