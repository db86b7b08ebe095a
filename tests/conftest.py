import numpy as np
import pytest

from starkit import symbols as sym
# the same draws as the seeded `starkit verify` suites
from starkit.verify import _random_polynomial as random_polynomial


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


@pytest.fixture
def normalize_calls(monkeypatch):
    """A list that gains the raw term count of every symbols.normalize call."""
    calls = []
    normalize = sym.normalize
    monkeypatch.setattr(sym, "normalize",
                        lambda raw: calls.append(len(raw)) or normalize(raw))
    return calls


def random_symbol(rng, n_terms=2, real=False):
    """Random member of the polynomial x Gaussian class, decaying at infinity."""
    raw = []
    for _ in range(n_terms):
        def c(lo, hi):
            re = rng.uniform(lo, hi)
            im = 0.0 if real else rng.uniform(-0.2, 0.2)
            return complex(re, im)

        expo = sym.QuadExponent(app=c(-1.0, -0.3), aqq=c(-1.0, -0.3),
                                apq=c(-0.2, 0.2), bp=c(-0.3, 0.3),
                                bq=c(-0.3, 0.3))
        coeff = complex(rng.uniform(-1, 1),
                        0.0 if real else rng.uniform(-1, 1))
        raw.append(sym.Term(coeff, int(rng.integers(0, 3)),
                            int(rng.integers(0, 3)), expo))
    return sym.normalize(raw)
