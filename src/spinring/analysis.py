"""Parameter sweeps over alpha: level-curve tracking, located events (level crossings and
entanglement onsets/offsets), censuses, and the nearest-neighbor linear concurrence fit.

A sweep solves the top sector's spin-resolved blocks at the points of an ascending alpha grid
(``momentum_decompositions``: one eigh per S-block width of the cached ``spin_layout`` and one
assembly for a batch of points, whose levels are kept as arrays), keeps the concurrence, a, b,
c and two-solve residual of every (level, separation) cell as one array per point, and threads
levels into curves by projector overlap.
Each level projector is invariant under SU(2) and the ring translation, so its pair states are
Werner states fixed by the S-block correlators, reduced once for a whole batch of points with
one scatter per width; no magnetization-sector eigenvector is built.  Curves are
threaded only across "backbone" points, the grid points whose distinct level count equals the
generic count; collapse points (alpha = 0, the Haldane-Shastry point, the nearest-neighbor
limit) are kept as data points but skipped by the threading.  Each point is paired with the
previous backbone point as it is reached; each level takes the partner of its row's overlap
above 1/2, and as every row and column of the overlaps sums to at most 1, no other level can
claim that partner (``_partners``).  Besides one batch a sweep holds two solutions, and for
``report`` up to a batch of backbone ones.  The events inside the backbone intervals are then
located as one table of arrays, bisected in lockstep from the sweep's solutions where held,
each round's midpoints solved in batches that match their probes' levels in one overlap pass.
``concurrence`` solves its points as the sweep does; one alpha's ``_momentum_point`` serves
the single-alpha parts of ``report``.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .model import INFINITY, RingSpec, Variant, read_only
from .spectra import (CLUSTER_TOLERANCE_DEFAULT, EigensolverError, MomentumDecomposition,
                      batch_size, best_partners, energy_levels, momentum_decomposition,
                      momentum_decompositions, overlap_matrix)
from .entanglement import STRUCTURE_TOLERANCE_DEFAULT, ConcurrenceRecord, StructureError

CONCURRENCE_THRESHOLD_DEFAULT = 1e-10
RESOLUTION_DEFAULT = 1e-3

# E = scale * sum_d w_d n_d <s.s>_d + shift holds to this times 1 + sum_d |w_d n_d <s.s>_d|
ENERGY_IDENTITY_RTOL = 1e-9

# a boundary whose first in-range concurrence already exceeds this is a jump,
# not a smooth zero crossing; it coincides with a level crossing
JUMP_SCALE_DEFAULT = 1e-2

DEFAULT_GRID_MIN = 0.05
DEFAULT_GRID_MAX = 12.0
DEFAULT_GRID_POINTS = 400
DEFAULT_GRID_EXTRAS = (0.0, 2.0, INFINITY)


class SweepError(RuntimeError):
    """Numerical failure during a sweep, carrying the offending alpha."""

    def __init__(self, alpha: float, original: Exception):
        super().__init__(f"sweep failed at alpha={alpha!r}: {original}")
        self.alpha = alpha
        self.original = original


class InsufficientDataError(ValueError):
    """Too few data points for a requested fit."""


def default_alpha_grid(n_points: int = DEFAULT_GRID_POINTS,
                       lo: float = DEFAULT_GRID_MIN,
                       hi: float = DEFAULT_GRID_MAX,
                       extras: tuple = DEFAULT_GRID_EXTRAS) -> tuple:
    """Log-spaced grid on [lo, hi] merged with the explicit extra points."""
    points = set(np.logspace(math.log10(lo), math.log10(hi), n_points).tolist())
    points.update(float(a) for a in extras)
    return tuple(sorted(points))


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: level table plus the concurrence, a, b, c and structure
    residual of every (level, separation) cell, as ``cells[level, separation - 1]``
    with separation running over 1..N//2."""

    alpha: float
    count: int
    energies: np.ndarray
    multiplicities: np.ndarray
    cells: np.ndarray

    def record(self, level_index: int, separation: int) -> ConcurrenceRecord:
        return ConcurrenceRecord(self.alpha, level_index, float(self.energies[level_index]),
                                 int(self.multiplicities[level_index]), separation,
                                 *self.cells[level_index, separation - 1].tolist())


@dataclass(frozen=True)
class LevelCurve:
    """One level family threaded across the backbone grid points.

    ``level_indices`` holds the matched level index at each grid point and -1
    where the curve is not tracked (non-backbone points).  Energies and
    concurrences are NaN there.  ``concurrence`` has one row per separation
    1..N//2.
    """

    curve_index: int
    n_sites: int
    variant: Variant
    cluster_tolerance: float
    multiplicity: int
    alpha_grid: np.ndarray
    level_indices: np.ndarray
    energies: np.ndarray
    concurrence: np.ndarray

    @property
    def valid(self) -> np.ndarray:
        return self.level_indices >= 0

    def concurrence_at(self, separation: int) -> np.ndarray:
        return self.concurrence[separation - 1]

    def distances(self, threshold: float = CONCURRENCE_THRESHOLD_DEFAULT) -> tuple:
        rows = self.concurrence[:, self.valid]
        return tuple(s + 1 for s in range(rows.shape[0]) if np.nanmax(rows[s], initial=0.0) > threshold)


@dataclass(frozen=True)
class SweepResult:
    n_sites: int
    variant: Variant
    alpha_grid: np.ndarray
    points: tuple
    backbone: np.ndarray     # indices of threaded points
    generic_count: int
    curves: tuple
    cluster_tolerance: float
    structure_tolerance: float
    concurrence_threshold: float
    warnings: tuple = field(default=())

    @property
    def n_points(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class CrossingEvent:
    """A located alpha event: a level crossing, or a concurrence onset/offset
    along a curve.  ``alpha`` is the bracket midpoint."""

    alpha: float
    bracket: tuple
    kind: str                    # "crossing" | "onset" | "offset"
    curve_indices: tuple
    separation: int | None = None
    crossing_coincident: bool = False

    @property
    def width(self) -> float:
        return self.bracket[1] - self.bracket[0]


def count_distinct_levels(n_sites: int, alpha: float,
                          tolerance: float = CLUSTER_TOLERANCE_DEFAULT,
                          variant: Variant = Variant.STANDARD) -> int:
    """Number of distinct levels after clustering."""
    return len(energy_levels(RingSpec(n_sites, alpha, variant), tolerance))


def _point_cells(dec: MomentumDecomposition, levels=None) -> np.ndarray:
    """The read-only ``SweepPoint.cells`` of every level of ``dec``, or of the listed ``levels``;
    raises StructureError on a residual of theirs at ``dec``'s structure tolerance, else on the
    first of them whose energy misses the sum of its pair correlators (``_Batch.identity``)."""
    picked = slice(None) if levels is None else levels
    structure_tolerance = dec.batch.structure_tolerance
    cells = dec.cells()[picked]
    if cells[..., 4].max() >= structure_tolerance:
        worst = cells[..., 4].max(axis=0)
        raise StructureError(f"two-solve check: c at separation {worst.argmax() + 1} changes "
                             f"by {worst.max():.3e} (tolerance {structure_tolerance:.3e})")
    error, scale = dec.identity()[:, picked]
    bad = np.flatnonzero(error > ENERGY_IDENTITY_RTOL * scale)
    if bad.size:  # numbered as in dec
        raise StructureError(f"level {bad[0] if levels is None else levels[bad[0]]} energy "
                             f"differs from the sum of its pair correlators by {error[bad[0]]:.3e}")
    return read_only(cells)


def _sweep_point(dec: MomentumDecomposition) -> SweepPoint:
    """The ``SweepPoint`` of ``dec``: its levels and their ``_point_cells``."""
    return SweepPoint(dec.spec.alpha, dec.energies.size, dec.energies, dec.multiplicities,
                      _point_cells(dec))


def _momentum_point(spec: RingSpec, cluster_tolerance: float,
                    structure_tolerance: float = STRUCTURE_TOLERANCE_DEFAULT) -> SweepPoint:
    """The ``_sweep_point`` of ``momentum_decomposition(spec)``."""
    return _sweep_point(momentum_decomposition(spec, cluster_tolerance, structure_tolerance))


def _validate_grid(alpha_grid) -> np.ndarray:
    grid = np.asarray([float(a) for a in alpha_grid], dtype=float)
    if grid.size == 0:
        raise ValueError("alpha grid is empty")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("alpha grid must be strictly ascending")
    if grid[0] < 0:
        raise ValueError("alpha grid must be nonnegative")
    return grid


def _partners(overlaps: np.ndarray) -> np.ndarray:
    """Each row's column of ``overlap_matrix`` holding an overlap above 1/2, else -1.  Every row
    and column sums to at most 1, so such an entry is alone in its row and its column."""
    best = overlaps.argmax(axis=1)
    return np.where(overlaps[np.arange(best.size), best] > 0.5, best, -1)


def sweep(n_sites: int, alpha_grid, variant: Variant = Variant.STANDARD, *,
          cluster_tolerance: float = CLUSTER_TOLERANCE_DEFAULT,
          structure_tolerance: float = STRUCTURE_TOLERANCE_DEFAULT,
          concurrence_threshold: float = CONCURRENCE_THRESHOLD_DEFAULT,
          references: dict | None = None) -> SweepResult:
    """Solve the S-blocks on the grid, record all concurrences, thread level curves.

    Each point is compared with the anchor, the last point at the running
    maximum level count: a higher count restarts the curves, an equal one is
    paired with the anchor and replaces it, a lower one is skipped.  A dict
    ``references`` keeps, by alpha, the decompositions of the first
    ``batch_size`` anchors since the last restart, for ``_located_events``."""
    grid = _validate_grid(alpha_grid)
    points, anchor = [], None
    decs = momentum_decompositions(((RingSpec(n_sites, alpha, variant), cluster_tolerance)
                                    for alpha in grid.tolist()), structure_tolerance)
    for i, alpha in enumerate(grid.tolist()):
        try:
            dec = next(decs)
            points.append(_sweep_point(dec))
        except (EigensolverError, StructureError, np.linalg.LinAlgError) as exc:
            raise SweepError(alpha, exc) from exc
        count = dec.energies.size
        if anchor is None or count > anchor.energies.size:
            curve_idx = np.full((count, grid.size), -1, dtype=int)
            curve_idx[:, i] = np.arange(count)
            notes = []
            if references is not None:
                references.clear()
        elif count == anchor.energies.size:
            partners = _partners(overlap_matrix(anchor, dec))
            if (partners < 0).any():
                notes.append(f"partial level pairing between alpha={points[prev].alpha!r} "
                             f"and alpha={alpha!r}")
            held = curve_idx[:, prev]
            curve_idx[:, i] = np.where(held >= 0, partners[held], -1)
        else:
            continue
        anchor, prev = dec, i
        if references is not None and len(references) < batch_size(n_sites):
            references[alpha] = dec

    # the last restart came at the first point with the generic count
    n_pts, generic = len(points), len(curve_idx)
    backbone = np.flatnonzero([p.count == generic for p in points])
    # curve c's values at every point, NaN (multiplicity 0) where it is not tracked
    energies, mults = np.full((generic, n_pts), np.nan), np.zeros((generic, n_pts), dtype=int)
    conc = np.full((generic, max(n_sites // 2, 1), n_pts), np.nan)
    for i, point in enumerate(points):
        tracked = np.flatnonzero(curve_idx[:, i] >= 0)
        levels = curve_idx[tracked, i]
        energies[tracked, i] = point.energies[levels]
        mults[tracked, i] = point.multiplicities[levels]
        conc[tracked, :, i] = point.cells[levels, :, 0]
    for array in (energies, conc, curve_idx, grid, backbone):
        read_only(array)
    curves = []
    for c in range(generic):
        seen = mults[c][curve_idx[c] >= 0].tolist()
        if len(set(seen)) > 1:
            notes.append(f"curve {c}: multiplicity changes along the grid {sorted(set(seen))}")
        curves.append(LevelCurve(c, n_sites, variant, cluster_tolerance, seen[0] if seen else 0,
                                 grid, curve_idx[c], energies[c], conc[c]))
    return SweepResult(n_sites, variant, grid, tuple(points), backbone, generic, tuple(curves),
                       cluster_tolerance, structure_tolerance, concurrence_threshold, tuple(notes))


# ---------------------------------------------------------------------------
# Located events.  Each crossing, onset or offset inside a backbone interval is a probe, a
# ``_PROBE`` row of a table that one grouped bisection steps as arrays (``_bisect``): the levels it
# follows, indexed at the left end (a crossing's pair, the lower first; a sign change's level
# twice), and their curves; its separation, 0 for a crossing; whether the concurrence is above the
# threshold at lo; ``edge``, the in-range grid value the jump test reads until an in-range
# midpoint becomes hi; and its bracket.
_PROBE = np.dtype([("levels", int, 2), ("curves", int, 2), ("separation", int),
                   ("positive_lo", bool), ("edge", float), ("lo", float), ("hi", float)])


def _events(probes: np.ndarray, jump_scale: float = JUMP_SCALE_DEFAULT) -> list:
    """The ``CrossingEvent`` of each of the ``_PROBE`` rows ``probes``, in order."""
    return [CrossingEvent(0.5 * (lo + hi), (lo, hi), ("onset", "offset")[positive] if sep
                          else "crossing", tuple(curves[:2 - bool(sep)]), sep or None,
                          sep > 0 and edge > jump_scale)
            for curves, sep, positive, edge, lo, hi in zip(
                *(probes[name].tolist() for name in _PROBE.names[1:]))]


def _sign_changes(curves, intervals, tracked, separations, threshold: float) -> np.ndarray:
    """The ``_PROBE`` rows, by interval, then curve, then separation, of the ``curves`` flagged in
    the row of ``tracked`` of each (i, j) of ``intervals`` whose concurrence at one of
    ``separations`` is above ``threshold`` at one end only: one comparison covers them all."""
    rows, pairs = np.asarray(separations, dtype=int) - 1, np.array(intervals, dtype=int)
    pairs = pairs.reshape(-1, 2)  # an int index, also when empty
    ends = np.array([c.concurrence[rows] for c in curves])[:, :, pairs]
    above = ends > threshold  # curve x separation x interval x end
    changed = (above[..., 0] != above[..., 1]) & tracked.T[:, None]
    m, c, s = np.nonzero(changed.transpose(2, 0, 1))  # by interval, then curve, separation
    table, alphas = np.zeros(m.size, _PROBE), curves[0].alpha_grid
    table["levels"] = np.array([curve.level_indices for curve in curves])[c, pairs[m, 0], None]
    table["curves"] = np.array([curve.curve_index for curve in curves])[c, None]
    table["separation"], table["positive_lo"] = rows[s] + 1, above[c, s, m, 0]
    table["edge"], (table["lo"], table["hi"]) = ends[c, s, m].max(-1), alphas[pairs[m]].T
    return table


def _bisect(ring, probes, resolution: float, threshold: float = CONCURRENCE_THRESHOLD_DEFAULT,
            structure_tolerance: float = STRUCTURE_TOLERANCE_DEFAULT,
            references=None) -> np.ndarray:
    """The ``_PROBE`` rows ``probes``, by interval in ascending order, each bracket shrunk until
    it is no wider than ``resolution`` or cannot shrink.  ``ring`` (SweepResult or LevelCurve)
    gives the ring size, variant and cluster tolerance, which shrinks with the bracket.
    ``batch_size`` intervals go in lockstep, each from its left end popped from ``references``
    (by alpha; emptied at the end) or solved with the others; a round solves one midpoint per
    interval and bracket, in order of first appearance, a ``_step`` per batch."""
    base, size, probes = ring.cluster_tolerance, batch_size(ring.n_sites), probes.copy()
    references = {} if references is None else references
    firsts = [*np.flatnonzero(np.diff(probes["lo"], prepend=np.nan) != 0).tolist(), len(probes)]
    for c in range(0, len(firsts) - 1, size):
        bounds = firsts[c:c + size + 1]  # of the chunk's intervals, and where the next starts
        chunk = probes[bounds[0]:bounds[-1]]  # stepped in place
        ends = list(zip(*(probes[end][bounds[:-1]].tolist() for end in ("lo", "hi"))))
        refs = [references.pop(lo, None) for lo, _ in ends]
        missing = momentum_decompositions((RingSpec(ring.n_sites, lo, ring.variant), base)
                                          for (lo, _), ref in zip(ends, refs) if ref is None)
        refs = [next(missing) if ref is None else ref for ref in refs]
        interval = np.repeat(np.arange(len(ends)), np.diff(bounds))
        order = np.arange(interval.size)  # the active probes, in the order they step
        while order.size:
            keys = np.stack([interval[order], chunk["lo"][order], chunk["hi"][order]])
            by = np.lexsort(keys[::-1])
            fresh = np.append(True, (keys[:, by[1:]] != keys[:, by[:-1]]).any(axis=0))
            step = np.empty_like(by)  # each probe's step: its bracket's rank of first appearance
            step[by] = np.argsort(np.argsort(by[fresh]))[np.cumsum(fresh) - 1]
            order, step = order[np.argsort(step, kind="stable")], np.sort(step)
            heads = order[np.flatnonzero(np.diff(step, prepend=-1))]
            v, a, b = interval[heads], chunk["lo"][heads], chunk["hi"][heads]
            shrinks = (b - a > resolution) & (a < 0.5 * (a + b)) & (0.5 * (a + b) < b)
            order, step = order[shrinks[step]], (np.cumsum(shrinks) - 1)[step[shrinks[step]]]
            v, a, b = v[shrinks].tolist(), a[shrinks].tolist(), b[shrinks].tolist()
            solved, active = momentum_decompositions(
                ((RingSpec(ring.n_sites, 0.5 * (x + y), ring.variant),
                  max(1e-12, min(base, base * (y - x) / (ends[u][1] - ends[u][0]))))
                 for u, x, y in zip(v, a, b)), structure_tolerance), [order[:0]]
            for first in range(0, len(v), size):
                x, y = np.searchsorted(step, [first, first + size]).tolist()
                batch = list(itertools.islice(solved, size))  # one batch of midpoints
                moved = _step(chunk, order[x:y], step[x:y] - first, batch,
                              [refs[u] for u in v[first:first + size]], threshold)
                active.append(order[x:y][moved])
            order = np.concatenate(active)
    references.clear()
    return probes


def _step(probes: np.ndarray, q, t, batch, refs, threshold: float) -> np.ndarray:
    """Move the ``_PROBE`` rows q of ``probes`` to their next brackets in place, q[i] by solution
    ``batch[t[i]]`` at its midpoint, its levels matched from ``refs[t[i]]`` in one best_partners
    call; returns which moved.  A bracket keeps the end where the pair is out of order or the
    concurrence (``_point_cells``) not as at lo; a merged pair keeps the middle half, a tie mid."""
    span = probes["levels"].max() + 1
    keys = t[:, None] * span + probes["levels"][q]
    wanted = np.sort(keys, axis=None)
    wanted = wanted[np.diff(wanted, prepend=-1) > 0]  # each step's levels, once each
    cuts = np.searchsorted(wanted // span, np.arange(len(batch) + 1)).tolist()
    found = best_partners([(ref, wanted[x:y] % span, dec)
                           for ref, dec, x, y in zip(refs, batch, cuts, cuts[1:])])
    partners, overlaps = (np.concatenate(p)[np.searchsorted(wanted, keys)] for p in zip(*found))
    firsts = np.cumsum([0] + [dec.energies.size for dec in batch])[t, None]
    gap = np.subtract(*np.concatenate([dec.energies for dec in batch])[firsts + partners].T)
    separation, value = probes["separation"][q], np.zeros(q.size)
    swap = separation == 0
    for k in np.flatnonzero(separation).tolist():  # the few sign changes, each with its check
        value[k] = _point_cells(batch[t[k]], partners[k, :1])[0, separation[k] - 1, 0]
    positive = np.where(swap, gap, value - threshold) > 0
    merged = swap & ((partners[:, 0] == partners[:, 1]) | (overlaps.min(axis=1) < 0.5))
    tied = swap & ~merged & (gap == 0)
    right = ~merged & ~tied & (positive == probes["positive_lo"][q])
    a, b = probes["lo"][q], probes["hi"][q]
    mid, half = 0.5 * (a + b), 0.25 * (b - a)
    probes["edge"][q] = np.where(~swap & positive & ~right, value, probes["edge"][q])
    probes["lo"][q] = lo = np.where(merged, mid - half, np.where(right | tied, mid, a))
    probes["hi"][q] = hi = np.where(merged, mid + half, np.where(right, b, mid))
    return (lo != a) | (hi != b)


def _interval_probes(sweep_result: SweepResult, separations=()) -> np.ndarray:
    """The ``_PROBE`` rows of the events in the consecutive backbone intervals, by interval: the
    level pairs (indexed at its left end) whose pairing swaps energy order, then every curve's
    sign changes at each of ``separations`` (``_sign_changes``)."""
    ends = np.stack([sweep_result.backbone[:-1], sweep_result.backbone[1:]], axis=1)  # (i, j)
    index = np.array([curve.level_indices for curve in sweep_result.curves])  # curve x point
    tracked = ((index[:, ends[:, 0]] >= 0) & (index[:, ends[:, 1]] >= 0)).T
    # each interval's curve at each level of its left end (no two share one) and that curve's
    # level at its right end, -1 if untracked; the level pairs whose curves swap order, by
    # interval in the row-major order of itertools.combinations, 2^22 of them a slab
    m, c = np.nonzero(tracked)
    curve, at_j = np.full((len(ends), len(index)), -1), np.full((len(ends), len(index)), np.nan)
    curve[m, index[c, ends[m, 0]]], at_j[m, index[c, ends[m, 0]]] = c, index[c, ends[m, 1]]
    slab, swaps = max(1, 2 ** 22 // len(index) ** 2), [np.zeros((3, 0), int)]
    upper = np.less.outer(np.arange(len(index)), np.arange(len(index)))
    for first in range(0, len(ends), slab):
        near = at_j[first:first + slab]  # NaN, untracked, compares false
        found = np.flatnonzero((near[:, :, None] > near[:, None, :]) & upper)
        m, a, b = np.unravel_index(found, near.shape + near.shape[-1:])
        swaps.append(np.stack([m + first, a, b]))
    m, *levels = np.hstack(swaps)
    probes = np.zeros(m.size, _PROBE)
    probes["levels"], probes["curves"] = np.transpose(levels), curve[m, levels].T
    probes["lo"], probes["hi"] = sweep_result.alpha_grid[ends[m]].T
    signs = _sign_changes(sweep_result.curves, ends, tracked, separations,
                          sweep_result.concurrence_threshold)  # after each interval's crossings
    return np.insert(probes, np.searchsorted(probes["lo"], signs["lo"], side="right"), signs)


def _located_events(sweep_result: SweepResult, resolution: float, separations=(),
                    references=None) -> tuple:
    """The crossings as ``_PROBE`` rows ascending in alpha, and the onsets and offsets at
    ``separations`` as ``CrossingEvent``s ascending in (alpha, curve, separation), by stable sorts,
    as entanglement_boundaries orders them; one bisection from the sweep's ``references``."""
    located = _bisect(sweep_result, _interval_probes(sweep_result, separations), resolution,
                      sweep_result.concurrence_threshold, sweep_result.structure_tolerance,
                      references)
    crossings = located[located["separation"] == 0]
    return (crossings[np.argsort(0.5 * (crossings["lo"] + crossings["hi"]), kind="stable")],
            sorted(_events(located[located["separation"] > 0]),
                   key=lambda e: (e.alpha, e.curve_indices, e.separation)))


def _last_crossing(sweep_result: SweepResult, crossings: np.ndarray,
                   alpha_max_search: float) -> CrossingEvent | None:
    """The highest of the located ``crossings``, the first on a tie, and of the exact crossings
    on non-backbone grid points at or below ``alpha_max_search``."""
    alphas = 0.5 * (crossings["lo"] + crossings["hi"])
    on_grid = max((p.alpha for p in sweep_result.points if p.count < sweep_result.generic_count
                   and 0.0 < p.alpha < INFINITY and p.alpha <= alpha_max_search), default=-math.inf)
    if on_grid > alphas.max(initial=-math.inf):
        return CrossingEvent(on_grid, (on_grid, on_grid), "crossing", ())
    return (_events(crossings[alphas == alphas.max(initial=0.0)][:1]) or [None])[0]


def find_last_crossing(n_sites: int, alpha_max_search: float,
                       resolution: float = RESOLUTION_DEFAULT, *,
                       variant: Variant = Variant.STANDARD,
                       cluster_tolerance: float = CLUSTER_TOLERANCE_DEFAULT,
                       sweep_result: SweepResult | None = None) -> CrossingEvent | None:
    """Largest alpha below ``alpha_max_search`` where the distinct-level count
    changes.  Returns None when the spectrum never crosses in the window."""
    if sweep_result is None:
        grid = default_alpha_grid(lo=min(DEFAULT_GRID_MIN, alpha_max_search / 2),
                                  hi=alpha_max_search, extras=())
        sweep_result = sweep(n_sites, grid, variant, cluster_tolerance=cluster_tolerance)
    probes = _interval_probes(sweep_result)
    lo = probes["lo"][probes["lo"] <= alpha_max_search].max(initial=-math.inf)  # the last
    return _last_crossing(sweep_result, _bisect(sweep_result, probes[probes["lo"] == lo],
                                                resolution), alpha_max_search)


def locate_crossing(curve_a: LevelCurve, curve_b: LevelCurve,
                    resolution: float = RESOLUTION_DEFAULT) -> CrossingEvent | None:
    """Bisect the energy-difference sign change of two tracked curves.
    Returns None when the curves never cross on their common grid."""
    idx = np.nonzero(curve_a.valid & curve_b.valid)[0]
    signs = np.sign(curve_a.energies[idx] - curve_b.energies[idx])
    changes = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if len(changes) == 0:
        return None
    i, j = int(idx[changes[0]]), int(idx[changes[0] + 1])
    probe = np.zeros(1, _PROBE)
    probe["levels"] = sorted([curve_a.level_indices[i], curve_b.level_indices[i]])  # lower first
    probe["curves"] = curve_a.curve_index, curve_b.curve_index
    probe["lo"], probe["hi"] = curve_a.alpha_grid[[i, j]]
    return _events(_bisect(curve_a, probe, resolution))[0]


def entanglement_boundaries(curve: LevelCurve, separation: int,
                            resolution: float = RESOLUTION_DEFAULT, *,
                            threshold: float = CONCURRENCE_THRESHOLD_DEFAULT,
                            jump_scale: float = JUMP_SCALE_DEFAULT) -> tuple:
    """All onsets and offsets of positive concurrence along the curve,
    bisected to the requested resolution.

    An event whose concurrence is already of order ``jump_scale`` right at
    the boundary is a discontinuity at a level crossing, not a smooth zero;
    it is returned with ``crossing_coincident=True``.
    """
    idx = np.nonzero(curve.valid)[0].tolist()
    pairs = list(zip(idx[:-1], idx[1:]))
    probes = _sign_changes([curve], pairs, np.ones((len(pairs), 1), dtype=bool), [separation],
                           threshold)
    return tuple(_events(_bisect(curve, probes, resolution, threshold), jump_scale))


def separation_existence_intervals(sweep_result: SweepResult, separation: int,
                                   threshold: float | None = None) -> tuple:
    """Grid-resolution alpha intervals where some curve is entangled at the
    given separation (union over curves, backbone points only)."""
    threshold = sweep_result.concurrence_threshold if threshold is None else threshold
    idx = sweep_result.backbone
    values = np.array([curve.concurrence_at(separation)[idx] for curve in sweep_result.curves])
    union = (np.nan_to_num(values) > threshold).any(axis=0)
    # the first and one past the last point of each run of entangled points
    edges = np.flatnonzero(np.diff(np.concatenate([[False], union, [False]])))
    alphas, edges = sweep_result.alpha_grid[idx].tolist(), edges.tolist()
    return tuple((alphas[a], alphas[b - 1]) for a, b in zip(edges[::2], edges[1::2]))


def separation_gaps(sweep_result: SweepResult, separation: int,
                    resolution: float = RESOLUTION_DEFAULT, *,
                    threshold: float | None = None) -> tuple:
    """Internal no-entanglement windows for one separation, with both edges
    bisected along the curves that close and reopen the coverage."""
    threshold = sweep_result.concurrence_threshold if threshold is None else threshold
    intervals = separation_existence_intervals(sweep_result, separation, threshold)
    if len(intervals) < 2:
        return ()
    events = []
    for curve in sweep_result.curves:
        if separation in curve.distances(threshold):
            events.extend(entanglement_boundaries(
                curve, separation, resolution, threshold=threshold))
    return _gaps_between(intervals, events)


def _gaps_between(intervals, events) -> tuple:
    """Pair each hole between consecutive existence intervals with the last
    offset and the first onset bracketed inside it; ``events`` are the
    boundaries of one separation, and an alpha tie goes to the one listed
    first."""
    gaps = []
    for (_, last_pos), (first_pos, _) in zip(intervals[:-1], intervals[1:]):
        offsets = [e for e in events if e.kind == "offset" and last_pos <= e.bracket[1] <= first_pos]
        onsets = [e for e in events if e.kind == "onset" and last_pos <= e.bracket[0] <= first_pos]
        if offsets and onsets:
            gaps.append((max(offsets, key=lambda e: e.alpha),
                         min(onsets, key=lambda e: e.alpha)))
    return tuple(gaps)


# ---------------------------------------------------------------------------
# Censuses and the linear fit.


def entangled_level_census(n_sites: int, alpha: float, *,
                           threshold: float = CONCURRENCE_THRESHOLD_DEFAULT,
                           cluster_tolerance: float = CLUSTER_TOLERANCE_DEFAULT,
                           variant: Variant = Variant.STANDARD) -> dict:
    """Per-separation count of levels with positive concurrence."""
    cells = _momentum_point(RingSpec(n_sites, alpha, variant), cluster_tolerance).cells
    counts = (cells[:, :, 0] > threshold).sum(axis=0)
    return dict(enumerate(counts.tolist(), start=1))


def projector_dimension_histogram(n_sites: int, alpha: float, *,
                                  cluster_tolerance: float = CLUSTER_TOLERANCE_DEFAULT,
                                  variant: Variant = Variant.STANDARD) -> dict:
    """Multiplicity histogram of the clustered levels, dimension -> count."""
    levels = energy_levels(RingSpec(n_sites, alpha, variant), cluster_tolerance)
    return dict(sorted(Counter(level.multiplicity for level in levels).items()))


@dataclass(frozen=True)
class CurveEntanglement:
    curve_index: int
    multiplicity: int
    distances: tuple
    spans: dict              # separation -> (first alpha, last alpha) positive


@dataclass(frozen=True)
class CurveCensus:
    n_curves: int
    entangled: tuple         # CurveEntanglement, ascending curve index
    one_dim_indices: tuple
    one_dim_entangled: tuple

    @property
    def n_entangled(self) -> int:
        return len(self.entangled)

    @property
    def single_distance(self) -> tuple:
        return tuple(e for e in self.entangled if len(e.distances) == 1)

    @property
    def multi_distance(self) -> tuple:
        return tuple(e for e in self.entangled if len(e.distances) > 1)


def entangled_projector_census(sweep_result: SweepResult,
                               threshold: float | None = None) -> CurveCensus:
    """Classify every threaded curve by the separations it carries anywhere
    on the grid."""
    threshold = sweep_result.concurrence_threshold if threshold is None else threshold
    entangled = []
    for curve in sweep_result.curves:
        distances = curve.distances(threshold)
        if not distances:
            continue
        spans = {}
        idx = np.nonzero(curve.valid)[0]
        alphas = curve.alpha_grid[idx]
        for sep in distances:
            pos = np.nonzero(curve.concurrence_at(sep)[idx] > threshold)[0]
            spans[sep] = (float(alphas[pos[0]]), float(alphas[pos[-1]]))
        entangled.append(CurveEntanglement(
            curve_index=curve.curve_index, multiplicity=curve.multiplicity,
            distances=distances, spans=spans))
    one_dim = tuple(c.curve_index for c in sweep_result.curves if c.multiplicity == 1)
    one_dim_ent = tuple(e.curve_index for e in entangled if e.multiplicity == 1)
    return CurveCensus(n_curves=len(sweep_result.curves),
                       entangled=tuple(entangled),
                       one_dim_indices=one_dim,
                       one_dim_entangled=one_dim_ent)


@dataclass(frozen=True)
class LinearFit:
    """Least-squares line through the positive-concurrence (E, C) points,
    written as C = -A*E - B."""

    a: float
    b: float
    max_residual: float
    n_points: int
    max_concurrence: float


def nn_linear_fit(n_sites: int, alpha: float = INFINITY, *,
                  threshold: float = CONCURRENCE_THRESHOLD_DEFAULT,
                  cluster_tolerance: float = CLUSTER_TOLERANCE_DEFAULT,
                  variant: Variant = Variant.STANDARD) -> LinearFit:
    """Fit the nearest-neighbor concurrence against level energy."""
    return _linear_fit(_momentum_point(RingSpec(n_sites, alpha, variant), cluster_tolerance),
                       threshold)


def _linear_fit(point: SweepPoint, threshold: float) -> LinearFit:
    """``nn_linear_fit`` of the levels of ``point``."""
    nn = point.cells[:, 0, 0]
    energies, values = point.energies[nn > threshold], nn[nn > threshold]
    if values.size < 2:
        raise InsufficientDataError(
            f"{values.size} positive nearest-neighbor points at alpha={point.alpha!r}; need 2")
    slope, intercept = np.polyfit(energies, values, 1)
    residual = np.max(np.abs(values - (slope * energies + intercept)))
    return LinearFit(a=float(-slope), b=float(-intercept),
                     max_residual=float(residual), n_points=int(values.size),
                     max_concurrence=float(values.max()))


def distance_selectivity_check(n_sites: int, alpha: float, *,
                               threshold: float = CONCURRENCE_THRESHOLD_DEFAULT,
                               cluster_tolerance: float = CLUSTER_TOLERANCE_DEFAULT,
                               variant: Variant = Variant.STANDARD) -> list:
    """Levels entangled at separation 1 or 2 that also carry entanglement at
    any other separation.  Returns (level_index, positive separations) pairs;
    coexistence limited to separations 3 and 4 alone is not reported."""
    cells = _momentum_point(RingSpec(n_sites, alpha, variant), cluster_tolerance).cells
    positive = cells[:, :, 0] > threshold
    found = [(li, tuple((np.flatnonzero(row) + 1).tolist())) for li, row in enumerate(positive)]
    return [(li, seps) for li, seps in found if len(seps) > 1 and (1 in seps or 2 in seps)]
