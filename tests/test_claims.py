"""The abstract's static claims across ring sizes, from the momentum-block Werner cells.

At N = 4..14 and alpha in {0.5, 1, 2, 3, 6, inf}, with the CLI's concurrence threshold:
at the Haldane-Shastry point alpha = 2 no level is entangled beyond nearest neighbours;
the ground level is entangled at nearest neighbours only; it is a singlet for even N and
two doublets at momenta +-k for odd N; and its nearest-neighbour concurrence moves by
less than 3 % over the alpha sample (2.8 % at N = 13, the largest here).
"""

import math

import pytest

from spinring import INFINITY, RingSpec
from spinring.analysis import CONCURRENCE_THRESHOLD_DEFAULT, _momentum_point

ALPHAS = (0.5, 1.0, 2.0, 3.0, 6.0, INFINITY)
SIZES = range(4, 15)
C1_SPREAD = 0.03


@pytest.fixture(scope="module")
def records():
    """The levels and cells of every (N, alpha) of the sample, about 2 s in all."""
    return {(n, alpha): _momentum_point(RingSpec(n, alpha), 1e-9, 1e-10)
            for n in SIZES for alpha in ALPHAS}


def _entangled(cells):
    return cells[..., 0] > CONCURRENCE_THRESHOLD_DEFAULT


@pytest.mark.parametrize("n", SIZES)
def test_no_level_is_entangled_beyond_nearest_neighbours_at_alpha_two(records, n):
    assert not _entangled(records[n, 2.0].cells)[:, 1:].any()


@pytest.mark.parametrize("n", SIZES)
def test_ground_level_is_entangled_at_nearest_neighbours_only(records, n):
    for alpha in ALPHAS:
        entangled = _entangled(records[n, alpha].cells)[0]
        assert entangled[0] and not entangled[1:].any(), alpha


@pytest.mark.parametrize("n", SIZES)
def test_ground_level_multiplicity(records, n):
    expected = 1 if n % 2 == 0 else 4
    assert {int(records[n, alpha].multiplicities[0]) for alpha in ALPHAS} == {expected}


@pytest.mark.parametrize("n", SIZES)
def test_ground_nearest_neighbour_concurrence_barely_moves(records, n):
    values = [float(records[n, alpha].cells[0, 0, 0]) for alpha in ALPHAS]
    assert all(math.isfinite(v) and v > 0 for v in values)
    assert (max(values) - min(values)) / max(values) < C1_SPREAD
