"""Reduced density matrices and two-spin entanglement measures.

Every eigenstate of the ring commutes with the total magnetization and
with the global spin flip, which forces each two-site reduction into the
form diag(a, b, b, a) with a single real off-diagonal entry c coupling
the anti-aligned pair states.  The concurrence of such a state has the
closed form max{2(|c| - a), 0}; an X-state evaluation of the same matrix
serves as an independent cross-check.

The commands never reduce a state: a level projector is SU(2)-invariant, so its
pair states are Werner states read from the S-block correlators
(``analysis._point_cells``), and ``werner_measures`` evaluates the global
measures from them.  The per-state reductions here, from a level's 2^N x m
block or by the dense partial trace, are the checks they are tested against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .spectra import STRUCTURE_TOLERANCE_DEFAULT, UniformEigenstate  # noqa: F401


class StructureError(ValueError):
    """A pair reduction deviates from the diag(a,b,b,a)+c form."""


class PairStateWarning(UserWarning):
    """A pair reduction violates an expected inequality (reported, not clamped)."""


def _site_count(state) -> int:
    if isinstance(state, UniformEigenstate):
        return state.n_sites
    shape = np.shape(state)
    n = int(round(np.log2(shape[0])))
    if shape != (2 ** n, 2 ** n):
        raise ValueError(f"density matrix has non-power-of-two shape {shape}")
    return n


def reduce_sites(state, sites) -> np.ndarray:
    """Partial trace keeping the listed sites (1-indexed), all others summed out.

    The result is ordered with the first listed site as the leading tensor
    factor, and each local factor in the basis {|+>, |->}.  A level state is
    reduced from its eigenvector block, any other input as a dense matrix.
    """
    n = _site_count(state)
    sites = list(sites)
    if len(set(sites)) != len(sites):
        raise ValueError(f"sites must be distinct, got {sites}")
    if not all(1 <= s <= n for s in sites):
        raise ValueError(f"sites must lie in 1..{n}, got {sites}")
    k = len(sites)
    row_axes = [n - s for s in sites]
    if isinstance(state, UniformEigenstate):
        m = state.level.multiplicity
        amplitudes = state.vectors.reshape((2,) * n + (m,))
        block = np.moveaxis(amplitudes, row_axes, range(k)).reshape(2 ** k, -1)
        reduced = block @ block.T / m
    else:
        rho = np.asarray(state, dtype=float)
        rest_rows = [a for a in range(n) if a not in row_axes]
        perm = row_axes + [a + n for a in row_axes] + rest_rows + [a + n for a in rest_rows]
        tensor = rho.reshape((2,) * (2 * n)).transpose(perm)
        tensor = tensor.reshape(2 ** k, 2 ** k, 2 ** (n - k), 2 ** (n - k))
        reduced = np.trace(tensor, axis1=2, axis2=3)
    # basis index 0 must be all-up; bit value 1 means up, so reverse both axes
    return np.ascontiguousarray(reduced[::-1, ::-1])


def reduce_two_sites(state, j: int, k: int) -> np.ndarray:
    """4x4 reduction to the site pair (j, k) in the basis {++, +-, -+, --}."""
    if j == k:
        raise ValueError(f"sites must differ, got j = k = {j}")
    return reduce_sites(state, (j, k))


def reduce_one_site(state, j: int) -> np.ndarray:
    """2x2 reduction to site j; identically I/2 for every eigenstate of this model."""
    return reduce_sites(state, (j,))


@dataclass(frozen=True)
class TwoSpinState:
    """The (a, b, c) parametrization of a structured pair reduction."""

    a: float
    b: float
    c: float
    structure_residual: float
    site_pair: tuple = None
    source_level: object = None

    def matrix(self) -> np.ndarray:
        out = np.diag([self.a, self.b, self.b, self.a])
        out[1, 2] = out[2, 1] = self.c
        return out


def extract_abc(rho_pair: np.ndarray,
                structure_tolerance: float = STRUCTURE_TOLERANCE_DEFAULT,
                site_pair=None, source_level=None) -> TwoSpinState:
    """Fit a 4x4 pair reduction to the structured form diag(a,b,b,a) + c.

    a, b and c are means of the symmetry-equivalent entries; the residual
    is the largest absolute deviation of the input from the reconstructed
    structured matrix, including every entry required to vanish.  A residual
    at or above ``structure_tolerance`` raises StructureError, since no
    eigenstate of this model can produce one.
    """
    rho_pair = np.asarray(rho_pair, dtype=float)
    if rho_pair.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho_pair.shape}")
    a = 0.5 * (rho_pair[0, 0] + rho_pair[3, 3])
    b = 0.5 * (rho_pair[1, 1] + rho_pair[2, 2])
    c = 0.5 * (rho_pair[1, 2] + rho_pair[2, 1])
    model = np.diag([a, b, b, a])
    model[1, 2] = model[2, 1] = c
    residual = float(np.max(np.abs(rho_pair - model)))
    if residual >= structure_tolerance:
        raise StructureError(
            f"pair reduction deviates from the structured form by {residual:.3e} "
            f"(tolerance {structure_tolerance:.3e})")
    if abs(c) > b + structure_tolerance:
        warnings.warn(f"|c| = {abs(c):.6g} exceeds b = {b:.6g}", PairStateWarning,
                      stacklevel=2)
    return TwoSpinState(a=float(a), b=float(b), c=float(c), structure_residual=residual,
                        site_pair=site_pair, source_level=source_level)


def concurrence_structured(state: TwoSpinState) -> float:
    """Concurrence of a structured pair state: max{2(|c| - a), 0}."""
    return max(2.0 * (abs(state.c) - state.a), 0.0)


def concurrence_xstate_oracle(rho_pair: np.ndarray,
                              structure_tolerance: float = STRUCTURE_TOLERANCE_DEFAULT) -> float:
    """Concurrence of an X-form two-qubit matrix, as an independent check.

    Uses the closed form 2 max{0, |rho_14| - sqrt(rho_22 rho_33),
    |rho_23| - sqrt(rho_11 rho_44)} valid whenever only the diagonal and
    antidiagonal are populated.  Rejects inputs that are not X-form.
    """
    rho_pair = np.asarray(rho_pair, dtype=float)
    if rho_pair.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho_pair.shape}")
    x_mask = np.zeros((4, 4), dtype=bool)
    x_mask[np.arange(4), np.arange(4)] = True
    x_mask[np.arange(4), 3 - np.arange(4)] = True
    off = float(np.max(np.abs(rho_pair[~x_mask]))) if np.any(~x_mask) else 0.0
    if off >= structure_tolerance:
        raise ValueError(f"matrix is not X-form: off-structure entry {off:.3e}")
    inner = max(abs(rho_pair[0, 3]) - np.sqrt(max(rho_pair[1, 1] * rho_pair[2, 2], 0.0)),
                abs(rho_pair[1, 2]) - np.sqrt(max(rho_pair[0, 0] * rho_pair[3, 3], 0.0)))
    return max(0.0, 2.0 * float(inner))


@dataclass(frozen=True)
class ConcurrenceRecord:
    """Concurrence of one (level, separation) cell, with the fitted (a, b, c)."""

    alpha: float
    level_index: int
    level_energy: float
    multiplicity: int
    separation: int
    concurrence: float
    a: float
    b: float
    c: float
    structure_residual: float


def werner_measures(cells: np.ndarray, n_sites: int, inner_over_n: bool = False) -> tuple:
    """(Meyer-Wallach, Oliveira) of every level, as ``meyer_wallach`` and ``oliveira_global``
    evaluate them on its uniform state, from its Werner cells ``cells[level, d - 1]`` =
    (concurrence, a, b, c, residual), d = 1 .. N//2.  Every site reduces to diag(a + b, a + b),
    and each of the n_d pairs at separation d to diag(a, b, b, a) + c, of purity
    2a^2 + 2b^2 + 2c^2."""
    n = n_sites
    if n < 3 and not inner_over_n:
        warnings.warn(f"pair-purity normalization 1/(N-1) is degenerate for N={n}",
                      PairStateWarning, stacklevel=2)
    a, b, c = cells[..., 1], cells[..., 2], cells[..., 3]
    seps = np.arange(1, n // 2 + 1)
    # the n_d pairs at separation d, each as (j, k) and as (k, j)
    pair_purities = 2.0 * (np.square(a) + np.square(b) + np.square(c))
    purities = pair_purities @ np.where(2 * seps < n, 2 * n, n)
    inner_weight = 1.0 / (n if inner_over_n else n - 1)
    return (2.0 - 4.0 * np.square(a[:, 0] + b[:, 0]),
            (4.0 / 3.0) * (n - 1 - inner_weight * purities) / (n - 1))


def pair_concurrence(state, j: int, k: int,
                     structure_tolerance: float = STRUCTURE_TOLERANCE_DEFAULT) -> TwoSpinState:
    """Reduce to the pair (j, k) and return the fitted TwoSpinState."""
    rho_pair = reduce_two_sites(state, j, k)
    return extract_abc(rho_pair, structure_tolerance, site_pair=(j, k))


def meyer_wallach(state) -> float:
    """Global measure 2 - (2/N) sum_j tr(rho_j^2) over all single-site reductions."""
    n = _site_count(state)
    total = 0.0
    for j in range(1, n + 1):
        rho_j = reduce_one_site(state, j)
        total += float(np.sum(rho_j * rho_j))
    return 2.0 - (2.0 / n) * total


def oliveira_global(state, inner_over_n: bool = False) -> float:
    """Pair-purity global measure averaged over separations and sites.

    Evaluates (4/3) (1/(N-1)) sum_{j=1..N-1} (1 - (1/(N-1)) sum_{k=1..N}
    tr(rho_{k,k+j}^2)) with the second site index wrapping around the ring.
    The inner 1/(N-1) weight is kept as published even though the inner sum
    has N terms; pass ``inner_over_n=True`` to use 1/N instead.
    """
    n = _site_count(state)
    if n < 3 and not inner_over_n:
        warnings.warn(f"pair-purity normalization 1/(N-1) is degenerate for N={n}",
                      PairStateWarning, stacklevel=2)
    inner_weight = 1.0 / (n if inner_over_n else n - 1)
    total = 0.0
    for sep in range(1, n):
        purities = 0.0
        for site in range(1, n + 1):
            partner = (site + sep - 1) % n + 1
            rho_pair = reduce_two_sites(state, site, partner)
            purities += float(np.sum(rho_pair * rho_pair))
        total += 1.0 - inner_weight * purities
    return (4.0 / 3.0) * total / (n - 1)
