"""Numeric constants and the 4th-order stencil shared by the grid routines.

numpy is the only array backend.  Grid evaluation of symbols lives in
`symbols.evaluate_grid`.  `NUMBA_AVAILABLE` (a package probe that imports
nothing) and `USE_NUMBA` only describe the environment in benchmark
records; no code path depends on them.
"""

import importlib.util

import numpy as np

NUMBA_AVAILABLE = importlib.util.find_spec("numba") is not None
USE_NUMBA = False

# Gaussian exponents above this real part would overflow double precision.
EXP_LIMIT = 700.0


def fd4_axis(u, h, axis):
    """4th-order first derivative along an axis of a 2-D complex array.

    Interior nodes use the 5-point central stencil; the two cells at each
    edge use the matching one-sided 5-point stencils.
    """
    if axis == 1:
        return fd4_axis(u.T, h, 0).T
    d = np.empty_like(u)
    d[2:-2] = (u[:-4] - 8.0 * u[1:-3] + 8.0 * u[3:-1] - u[4:]) / (12.0 * h)
    d[0] = (-25.0 * u[0] + 48.0 * u[1] - 36.0 * u[2]
            + 16.0 * u[3] - 3.0 * u[4]) / (12.0 * h)
    d[1] = (-3.0 * u[0] - 10.0 * u[1] + 18.0 * u[2]
            - 6.0 * u[3] + u[4]) / (12.0 * h)
    d[-2] = (3.0 * u[-1] + 10.0 * u[-2] - 18.0 * u[-3]
             + 6.0 * u[-4] - u[-5]) / (12.0 * h)
    d[-1] = (25.0 * u[-1] - 48.0 * u[-2] + 36.0 * u[-3]
             - 16.0 * u[-4] + 3.0 * u[-5]) / (12.0 * h)
    return d
