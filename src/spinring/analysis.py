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
``report`` up to a batch of backbone ones.  Every event inside a backbone interval is then
located by one grouped bisection of that interval, in lockstep with the other intervals: its
left end is the sweep's solution where held, each round solves all their midpoints as one
batch, matches the levels their probes follow in one overlap pass, and reads concurrences
from the batch's cells.  ``concurrence`` solves its points as the sweep does; one alpha's
``_momentum_point`` serves the single-alpha parts of ``report``.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .model import INFINITY, RingSpec, Variant, read_only, separation_weights, variant_map
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


def _check_energy_identity(spec: RingSpec, energies: np.ndarray, correlations,
                           indices=None) -> None:
    """Raise StructureError unless E = scale * sum_d w_d n_d <s_1 . s_{1+d}> + shift for
    every level, with n_d pairs at separation d and their correlation in row d - 1; the
    levels are numbered by ``indices`` when given, else by position."""
    n, (scale, shift) = spec.n_sites, variant_map(spec)
    pairs = np.where(2 * np.arange(1, n // 2 + 1) == n, n // 2, n)
    terms = (pairs * separation_weights(n, spec.alpha))[:, None] * correlations
    error = np.abs((energies - shift) / scale - terms.sum(axis=0))
    bad = np.flatnonzero(error > ENERGY_IDENTITY_RTOL * (1 + np.abs(terms).sum(axis=0)))
    if bad.size:
        level = bad[0] if indices is None else indices[bad[0]]
        raise StructureError(f"level {level} energy differs from the sum of its pair "
                             f"correlators by {error[bad[0]]:.3e}")


def _point_cells(dec: MomentumDecomposition, levels=None) -> np.ndarray:
    """The read-only ``SweepPoint.cells`` of every level of ``dec``, or of the listed ``levels``,
    sliced from its batch's Werner cells (``MomentumDecomposition.cells``).  Raises
    StructureError on a residual of those levels at ``dec``'s structure tolerance, or on one of
    them whose energy misses the sum of its pair correlators."""
    picked = slice(None) if levels is None else levels
    structure_tolerance = dec.batch.structure_tolerance
    cells = dec.cells()[picked]
    if cells[..., 4].max() >= structure_tolerance:
        worst = cells[..., 4].max(axis=0)
        raise StructureError(f"two-solve check: c at separation {worst.argmax() + 1} changes "
                             f"by {worst.max():.3e} (tolerance {structure_tolerance:.3e})")
    _check_energy_identity(dec.spec, dec.energies[picked], dec.correlators()[:, picked], levels)
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
# Located events.  A backbone interval holds a crossing where its pairing swaps
# the energy order of two levels, and an onset or offset where a curve's
# concurrence at some separation changes sign.  One grouped bisection locates
# them all, and the intervals share each round's batched solve.  Each event is
# a probe that follows its ``levels`` by projector overlap from the interval's
# left end and maps a midpoint solution to its next bracket; probes whose
# brackets coincide share that step's solve, and one ``best_partners`` pass
# matches every level the probes of a batch of solves follow; a sign change
# reads its level's cells from the correlators the batch reduces for every
# level at once.  The cluster tolerance shrinks with the bracket so
# near-degenerate levels stay resolved.


@dataclass(frozen=True)
class _OrderSwap:
    """Probe for the alpha where levels ``a`` and ``b`` of the reference
    exchange energy order; ``label`` holds their curve indices."""

    a: int
    b: int
    label: tuple

    @property
    def levels(self) -> tuple:
        return self.a, self.b

    def step(self, ref, lo, hi, dec, match) -> tuple:
        mid, half = 0.5 * (lo + hi), 0.25 * (hi - lo)
        (ja, ova), (jb, ovb) = match(self.a), match(self.b)
        if ja == jb or min(ova, ovb) < 0.5:
            return (mid - half, mid + half)  # merged at this resolution; the crossing is here
        f_mid = dec.energies[ja] - dec.energies[jb]
        if f_mid == 0.0:
            return (mid, mid)
        f_lo = ref.energies[self.a] - ref.energies[self.b]
        return (mid, hi) if (f_mid > 0) == (f_lo > 0) else (lo, mid)

    def event(self, lo, hi) -> CrossingEvent:
        return CrossingEvent(0.5 * (lo + hi), (lo, hi), "crossing", self.label)


@dataclass
class _SignChange:
    """Probe for the alpha where the concurrence of reference level ``level``
    (curve ``curve_index``) at ``separation`` crosses ``threshold``.  The jump
    test reads ``edge``, the in-range grid value until an in-range midpoint
    becomes ``hi``; it changes as the probe is bisected, so a probe serves once."""

    curve_index: int
    level: int
    separation: int
    positive_lo: bool
    edge: float
    threshold: float
    jump_scale: float

    @property
    def levels(self) -> tuple:
        return self.level,

    def step(self, ref, lo, hi, dec, match) -> tuple:
        mid = 0.5 * (lo + hi)
        cells = _point_cells(dec, levels=[match(self.level)[0]])
        value = float(cells[0, self.separation - 1, 0])
        if (value > self.threshold) == self.positive_lo:
            return (mid, hi)
        if value > self.threshold:
            self.edge = value
        return (lo, mid)

    def event(self, lo, hi) -> CrossingEvent:
        return CrossingEvent(0.5 * (lo + hi), (lo, hi), "offset" if self.positive_lo else "onset",
                             (self.curve_index,), self.separation,
                             crossing_coincident=bool(self.edge > self.jump_scale))


def _sign_changes(curves, intervals, tracked: np.ndarray, separations, threshold: float,
                  jump_scale: float = JUMP_SCALE_DEFAULT) -> list:
    """For each (i, j) of ``intervals``, the probes of the ``curves`` flagged in its row of
    ``tracked`` whose concurrence at one of ``separations`` is above ``threshold`` at one end
    only, curves in order, then separations: one comparison covers every interval."""
    probes, rows = [[] for _ in intervals], np.asarray(separations, dtype=int) - 1
    ends = np.array([c.concurrence[rows] for c in curves])[
        :, :, np.array(intervals, dtype=int).reshape(-1, 2)]  # an int index, also when empty
    above = ends > threshold  # curve x separation x interval x end
    changed = (above[..., 0] != above[..., 1]) & tracked.T[:, None]
    for c, s, m in zip(*(axis.tolist() for axis in np.nonzero(changed))):
        probes[m].append(_SignChange(curves[c].curve_index,
                                     int(curves[c].level_indices[intervals[m][0]]),
                                     int(rows[s]) + 1, bool(above[c, s, m, 0]), ends[c, s, m].max(),
                                     threshold, jump_scale))
    return probes


def _bisect(ring, intervals, resolution: float,
            structure_tolerance: float = STRUCTURE_TOLERANCE_DEFAULT, references=None) -> list:
    """Shrink the bracket of each probe of every (lo, hi, probes) in ``intervals`` until it is no
    wider than ``resolution`` or cannot shrink; returns each interval's events in probe order.
    ``ring`` (SweepResult or LevelCurve) gives the ring size, variant and cluster tolerance, and
    the midpoints' concurrences are checked at ``structure_tolerance``.
    ``batch_size`` intervals, drawn from ``intervals`` as their turn comes, go in lockstep: each
    pops its left end from the sweep's ``references`` (by alpha; emptied at the end), the
    missing ones solved as one batch; a round's midpoints form one batch, and each batch of
    midpoints matches the levels its probes follow in one ``best_partners`` pass."""
    base, size, events = ring.cluster_tolerance, batch_size(ring.n_sites), []
    intervals, references = iter(intervals), {} if references is None else references
    while chunk := list(itertools.islice(intervals, size)):
        refs = [references.pop(lo, None) for lo, _, _ in chunk]
        missing = momentum_decompositions((RingSpec(ring.n_sites, lo, ring.variant), base)
                                          for (lo, _, _), ref in zip(chunk, refs) if ref is None)
        refs = [next(missing) if ref is None else ref for ref in refs]
        brackets = [[(lo, hi)] * len(probes) for lo, hi, probes in chunk]
        active = [list(range(len(probes))) for _, _, probes in chunk]
        while any(active):
            steps = []  # (interval, bracket, probes), in the order one interval steps them
            for v, held in enumerate(active):
                groups: dict = {}
                for k in held:
                    groups.setdefault(brackets[v][k], []).append(k)
                steps += [(v, a, b, members) for (a, b), members in groups.items()
                          if b - a > resolution and a < 0.5 * (a + b) < b]  # else cannot shrink
            solved, active = zip(steps, momentum_decompositions(
                ((RingSpec(ring.n_sites, 0.5 * (a + b), ring.variant),
                  max(1e-12, min(base, base * (b - a) / (chunk[v][1] - chunk[v][0]))))
                 for v, a, b, _ in steps), structure_tolerance)), [[] for _ in chunk]
            while batch := list(itertools.islice(solved, size)):  # one batch of midpoints
                # the levels each step's probes follow, each matched once
                levels = [list(dict.fromkeys(level for k in members
                                             for level in chunk[v][2][k].levels))
                          for (v, _, _, members), _ in batch]
                found = best_partners([(refs[v], wanted, dec)
                                       for ((v, *_), dec), wanted in zip(batch, levels)])
                for ((v, a, b, members), dec), wanted, (partners, overlaps) in zip(
                        batch, levels, found):
                    match = dict(zip(wanted, zip(partners.tolist(), overlaps.tolist()))).__getitem__
                    for k in members:
                        brackets[v][k] = chunk[v][2][k].step(refs[v], a, b, dec, match)
                        if brackets[v][k] != (a, b):  # else the halving rounded back
                            active[v].append(k)
        events += [[probe.event(*bracket) for probe, bracket in zip(probes, held)]
                   for (_, _, probes), held in zip(chunk, brackets)]
    references.clear()
    return events


def _interval_probes(sweep_result: SweepResult, separations=()):
    """Yield (alpha_lo, alpha_hi, probes) for every consecutive backbone interval holding an
    event: the level pairs (indexed at alpha_lo) whose pairing swaps energy order, then every
    curve's sign changes at each of ``separations`` (``_sign_changes``)."""
    backbone = [int(b) for b in sweep_result.backbone]
    intervals = list(zip(backbone[:-1], backbone[1:]))
    index = np.array([curve.level_indices for curve in sweep_result.curves])  # curve x point
    tracked = ((index[:, backbone[:-1]] >= 0) & (index[:, backbone[1:]] >= 0)).T
    signs = _sign_changes(sweep_result.curves, intervals, tracked, separations,
                          sweep_result.concurrence_threshold)
    for (i, j), both, probes in zip(intervals, tracked, signs):
        # the curves by level at i (no two share one); the pairs whose later curve is below
        # at j, in the row-major order of itertools.combinations
        held = np.flatnonzero(both)[np.argsort(index[both, i])]
        curves, at_i, at_j = held.tolist(), index[held, i].tolist(), index[held, j]
        first, second = np.nonzero(np.triu(np.greater.outer(at_j, at_j), 1))
        probes = [_OrderSwap(at_i[p], at_i[q], (curves[p], curves[q]))
                  for p, q in zip(first.tolist(), second.tolist())] + probes
        if probes:
            yield sweep_result.points[i].alpha, sweep_result.points[j].alpha, probes


def _located_events(sweep_result: SweepResult, resolution: float, separations=(),
                    references=None) -> tuple:
    """The crossings, ascending in alpha, and every curve's onsets and offsets
    at ``separations``, ascending in (alpha, curve, separation); each backbone
    interval is bisected once for all of its events, from the sweep's
    ``references``.  The sorts are stable, so ties keep interval order per
    (curve, separation), as entanglement_boundaries does."""
    intervals = _interval_probes(sweep_result, separations)
    events = [event for located in _bisect(sweep_result, intervals, resolution,
                                           sweep_result.structure_tolerance, references)
              for event in located]
    return (tuple(sorted((e for e in events if e.kind == "crossing"), key=lambda e: e.alpha)),
            sorted((e for e in events if e.kind != "crossing"),
                   key=lambda e: (e.alpha, e.curve_indices, e.separation)))


def _last_crossing(sweep_result: SweepResult, crossings,
                   alpha_max_search: float) -> CrossingEvent | None:
    """The highest of the located ``crossings`` and of the exact crossings on
    non-backbone grid points at or below ``alpha_max_search``."""
    on_grid = [CrossingEvent(p.alpha, (p.alpha, p.alpha), "crossing", ())
               for p in sweep_result.points if p.count < sweep_result.generic_count
               and 0.0 < p.alpha < INFINITY and p.alpha <= alpha_max_search]
    return max([*crossings, *on_grid], key=lambda e: e.alpha, default=None)


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
    intervals = [s for s in _interval_probes(sweep_result) if s[0] <= alpha_max_search]
    located = _bisect(sweep_result, intervals[-1:], resolution)[0] if intervals else []
    return _last_crossing(sweep_result, located, alpha_max_search)


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
    probe = _OrderSwap(int(curve_a.level_indices[i]), int(curve_b.level_indices[i]),
                       (curve_a.curve_index, curve_b.curve_index))
    alphas = curve_a.alpha_grid.tolist()
    return _bisect(curve_a, [(alphas[i], alphas[j], [probe])], resolution)[0][0]


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
    idx, alphas = np.nonzero(curve.valid)[0].tolist(), curve.alpha_grid.tolist()
    pairs = list(zip(idx[:-1], idx[1:]))
    signs = _sign_changes([curve], pairs, np.ones((len(pairs), 1), dtype=bool), [separation],
                          threshold, jump_scale)
    intervals = [(alphas[i], alphas[j], probes) for (i, j), probes in zip(pairs, signs) if probes]
    return tuple(event for (event,) in _bisect(curve, intervals, resolution))


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
