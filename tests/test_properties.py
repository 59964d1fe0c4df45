"""Property tests: identities every level of every ring must satisfy."""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import pair_table

from spinring import (INFINITY, RingSpec, StructureError, coupling_weight,
                      diagonalize, pair_concurrence, reduce_two_sites, uniform_state)
from spinring.cli import main

ALPHAS = st.one_of(st.floats(min_value=0.0, max_value=12.0),
                   st.sampled_from([0.0, 2.0, INFINITY]))

# A dense eigensolver resolves the eigenvectors of two levels only to about
# 1e-16 / (their gap relative to the spectral range); below this relative
# gap the level states miss the 1e-10 structure tolerance.
RESOLVED_GAP = 1e-5


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=8), alpha=ALPHAS)
def test_level_identities(n, alpha):
    dec = diagonalize(RingSpec(n, alpha))
    assert sum(level.multiplicity for level in dec.levels) == 2 ** n
    gaps = np.diff(dec.energies)
    assume(gaps.size == 0 or gaps.min() > RESOLVED_GAP * max(1.0, dec.spectral_range))
    tables = {(j, k): pair_table(dec, j, k)
              for j in range(1, n + 1) for k in range(j + 1, n + 1)}
    for li, level in enumerate(dec.levels):
        state = uniform_state(level, dec)
        energy = 0.0
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                pair = pair_concurrence(state, j, k)
                # the all-level table holds the same reduction as the dense path
                table = tables[j, k]
                rho = reduce_two_sites(state, j, k)
                assert np.max(np.abs(table.diagonal[li] - np.diag(rho))) < 1e-14
                assert abs(table.c[li] - rho[1, 2]) < 1e-14
                # SU(2) invariance of the level makes each pair a Werner state
                assert abs(pair.c - (pair.a - pair.b)) < 1e-10
                # <sigma_j . sigma_k> of diag(a, b, b, a) with c at (01, 10)
                energy += coupling_weight(n, k - j, alpha) * (
                    2 * pair.a - 2 * pair.b + 4 * pair.c)
        assert math.isclose(energy, level.energy, rel_tol=0.0,
                            abs_tol=1e-12 * (1 + abs(level.energy)))


@pytest.mark.xfail(raises=StructureError, strict=True,
                   reason="levels split by ~1e-9 of the range near alpha = 0 are "
                          "clustered apart but their eigenvectors mix")
def test_unresolved_levels_keep_pair_structure():
    dec = diagonalize(RingSpec(6, 1e-7))
    for level in dec.levels:
        pair_concurrence(uniform_state(level, dec), 1, 2)


# near alpha = 0 and the Haldane-Shastry point alpha = 2 the eigensolver mixes levels split
# by less than about 1e-6 of the range: such a ring either exits 3 or keeps every identity
NEAR_DEGENERATE = st.one_of(st.floats(min_value=0.0, max_value=12.0),
                            st.floats(min_value=1e-8, max_value=1e-4),
                            st.floats(min_value=2.0 - 1e-7, max_value=2.0 + 1e-7))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=2, max_value=9), alpha=NEAR_DEGENERATE)
@example(n=5, alpha=1.9999999)
@example(n=6, alpha=1e-7)
def test_concurrence_rows_keep_the_werner_identities(n, alpha):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["concurrence", "--n", str(n), "--alpha", repr(alpha)])
    assert code in (0, 3)
    if code == 3:
        return
    rows = [[float(x) for x in line.split(",")] for line in out.getvalue().splitlines()[1:]]
    energies = {}
    for _, level, energy, multiplicity, sep, concurrence, a, b, c, residual in rows:
        assert abs(c - (a - b)) < 1e-10 and residual < 1e-10
        assert abs(2 * a + 2 * b - 1) < 1e-12
        assert concurrence == max(0.0, 2 * (abs(c) - a))
        pairs = n // 2 if 2 * sep == n else n
        energies.setdefault((level, energy, multiplicity), []).append(
            coupling_weight(n, int(sep), alpha) * pairs * (2 * a - 2 * b + 4 * c))
    for (_, energy, _), terms in energies.items():
        assert abs(sum(terms) - energy) <= 1e-9 * (1 + sum(map(abs, terms)))
    assert sum(int(multiplicity) for _, _, multiplicity in energies) == 2 ** n
