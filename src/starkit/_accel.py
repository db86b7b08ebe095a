"""Numeric constants.  `NUMBA_AVAILABLE` (a package probe that imports
nothing) and `USE_NUMBA` only describe the environment in benchmark
records; numpy is the only array backend and no code path reads them.
"""

import importlib.util

NUMBA_AVAILABLE = importlib.util.find_spec("numba") is not None
USE_NUMBA = False

# Gaussian exponents above this real part would overflow double precision.
EXP_LIMIT = 700.0
