import pytest

import oracles
from spinring import RingSpec, Variant, default_alpha_grid, diagonalize, sweep

_DEC_MEMO = {}


def cached_dec(n_sites, alpha, variant=Variant.STANDARD, tolerance=1e-9):
    """Shared diagonalization memo so test modules do not repeat eigh calls."""
    key = (n_sites, float(alpha), variant, tolerance)
    if key not in _DEC_MEMO:
        _DEC_MEMO[key] = diagonalize(RingSpec(n_sites, alpha, variant),
                                     cluster_tolerance=tolerance)
    return _DEC_MEMO[key]


@pytest.fixture(scope="session")
def dec():
    return cached_dec


@pytest.fixture(scope="session")
def sweep8():
    """Full default-grid sweep of the eight-site ring (about 2 s, built once)."""
    return sweep(8, default_alpha_grid())


@pytest.fixture(scope="session")
def crossings8(sweep8):
    return oracles.all_crossings(sweep8)
