"""Phase-space quantum mechanics of the (damped) harmonic oscillator.

Exact star products, transition operators, Wigner eigenfunctions,
propagators, and the corrected damped evolution equation, over the closed
class of polynomial-times-Gaussian phase-space symbols.
"""

from .dynamics import (damped_rhs, evolve_classical, evolve_damped_ansatz,
                       evolve_eigenexpansion, evolve_naive, flow_map,
                       moyal_rhs, naive_map, naive_rhs, pullback,
                       reality_defect)
from .expr import format_symbol, parse
from .numerics import (PhaseGrid, export_grid, grid_distance, load_grid,
                       rk4_evolve, sample, star_series_oracle)
from .oscillator import (damped_eigenstate, damped_propagator, energy,
                         hamiltonian, ladder_symbols, sho_offdiagonal,
                         sho_wigner_eigenstate, sho_wigner_values,
                         undamped_propagator)
from .star import (BilinearStar, bracket, damped_ad, damped_star, hw_phase,
                   husimi_star, moyal_star, standard_star, star_commutator,
                   star_exp_truncated, star_product)
from .symbols import (GridSpec, Params, QuadExponent, Symbol, Term,
                      approx_equal, combine, conjugate, const, differentiate,
                      evaluate, evaluate_grid, gaussian, monomial, normalize,
                      pointwise_multiply, poly_symbol, residual, variable)
from .transition import (GaussianMap, apply, check_equivalence, compose,
                         damped_transition, husimi_distribution,
                         husimi_transition, inverse, standard_transition)

__version__ = "0.1.0"
