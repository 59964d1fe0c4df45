"""Diagonalization, degenerate-level clustering, spectral projectors.

Eigenvalues of the ring Hamiltonian come in exactly degenerate groups (total-spin and
lattice symmetries), so the raw eigh output is clustered into levels before anything
downstream looks at it.  A level owns a contiguous slice of the globally sorted eigenvalue
list; the eigenvectors stay in the blocks they were solved in.  ``diagonalize`` solves every
magnetization sector and embeds a level's 2^N x m block on demand.  ``energy_levels`` and
``momentum_decomposition`` solve half the sectors, mirrored by the spin flip, in their
lattice-momentum blocks k = 0 .. N//2, made real by the ring reflection (k = 0 and N/2 each
split into its even and odd block), the rest being conjugates; each solved block stands for
``count`` blocks.  Each ``block_layout`` group of equal-width real blocks is assembled by one
bincount and solved by one eigvalsh or eigh.  ``momentum_decompositions`` does so for a batch
of alphas at once, as many as ``BATCH_BYTES`` of eigenvectors hold, and keeps the eigenvectors
for the levels' pair correlators, sum V (K_d V) with each dense K_d built once a batch, and for
projector overlaps, (V_a^T V_b)^2 summed ``count`` times; ``momentum_decomposition`` is its
batch of one.  The cache stores sector blocks.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
import zlib
from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple

import numpy as np

from .model import (BlockGroup, HamiltonianMatrix, RingSpec, Variant, _ring_pairs, block_layout,
                    read_only, sector_block, sector_states, separation_weights, variant_map)

CLUSTER_TOLERANCE_DEFAULT = 1e-9

# eigenvector bytes one batch of alphas holds; the blocks are real, so 8 w^2 bytes a block:
# 109 points at N = 8 (4.7 KB each), 10 at 10, 1 at 12
BATCH_BYTES = 2 ** 19


class EigensolverError(RuntimeError):
    """The dense symmetric eigensolver failed to converge."""

    def __init__(self, sector: int, original: Exception):
        super().__init__(f"eigensolver failed in magnetization sector {sector}: {original}")
        self.sector = sector


class IllConditionedError(ArithmeticError):
    """Energies too close for a stable polynomial projector product."""


@dataclass(frozen=True)
class Level:
    """One degenerate eigen-level: a contiguous slice of the sorted spectrum."""

    energy: float
    multiplicity: int
    start: int    # first member index in the sorted eigenvalue list
    spread: float  # max minus min of the clustered raw eigenvalues

    @property
    def stop(self) -> int:
        return self.start + self.multiplicity


class SectorEigensystem(NamedTuple):
    """Eigenpairs of one total-magnetization block of the STANDARD Hamiltonian."""
    states: np.ndarray   # basis integers, ascending
    values: np.ndarray   # ascending, as eigh returns them
    vectors: np.ndarray  # sign-fixed orthonormal columns
    count: int = 1       # blocks it stands for


class MomentumEigensystem(NamedTuple):
    """Eigenpairs of one group's STANDARD blocks at alpha ``index`` of a batch, as its views."""
    group: BlockGroup
    count: np.ndarray    # the group's counts: block b stands for count[b] blocks
    values: np.ndarray   # B x w, each row ascending
    vectors: np.ndarray  # B x w x w, real orthonormal columns
    pairs: object        # the batch's ``_pair_columns``, computed on the first call
    index: int


@dataclass(frozen=True)
class BlockDecomposition:
    """Full spectrum of one ring spec, clustered into levels, kept as the eigenpairs of its
    solved blocks, w x w or B x w x w stacks: each block's eigenvalues enter the sorted list
    ``count`` times, sorted eigenvalue i is flat column ``columns[i]`` (b w + c for column c of
    block b) of entry ``sectors[i]``, and ``members[e]`` holds the levels of entry e's columns."""

    spec: RingSpec
    eigenvalues: np.ndarray = field(repr=False)    # ascending, length 2^N
    blocks: tuple = field(repr=False)              # of SectorEigensystem or MomentumEigensystem
    sectors: np.ndarray = field(repr=False)
    columns: np.ndarray = field(repr=False)
    members: tuple = field(repr=False)
    levels: tuple
    cluster_tolerance: float
    warnings: tuple = ()

    @property
    def spectral_range(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])

    @functools.cached_property
    def energies(self) -> np.ndarray:
        return read_only(np.array([lv.energy for lv in self.levels]))

    @functools.cached_property
    def multiplicities(self) -> np.ndarray:
        """Read-only and computed once: each level match reads it."""
        return read_only(np.array([lv.multiplicity for lv in self.levels], dtype=np.int64))


class SpectralDecomposition(BlockDecomposition):
    """The decomposition of ``diagonalize``: every magnetization block, each counted once."""

    def level_vectors(self, level: Level) -> np.ndarray:
        """The level's eigenvectors as 2^N x m, in sorted order, with the strides of a
        column slice of the 2^N x 2^N matrix, so reductions round as they would on it."""
        dim, m = self.spec.dimension, level.multiplicity
        reverse = variant_map(self.spec)[0] < 0  # row-major then, else column-major
        vectors = np.zeros((dim, m + 1))[:, :-1] if reverse else np.zeros((m, dim)).T
        for j, i in enumerate(range(level.start, level.stop)):
            block = self.blocks[self.sectors[i]]
            vectors[block.states, j] = block.vectors[:, self.columns[i]]
        return vectors


class MomentumDecomposition(BlockDecomposition):
    """The decomposition of ``momentum_decomposition``: a ``MomentumEigensystem`` per group."""

    def correlators(self, levels=None) -> np.ndarray:
        """Mean <sigma_1 . sigma_{1+d}> and <sigma^z_1 sigma^z_{1+d}>, d = 1 .. N//2, of every level
        or of the listed ``levels``, 2 x N//2 x levels, from ``_pair_columns``: the batch's where a
        group holds only wanted levels, else of just the blocks and columns holding them."""
        n, every = self.spec.n_sites, np.arange(len(self.levels))
        wanted = every if levels is None else every[levels]
        slot = np.full(len(self.levels), -1)
        slot[wanted] = np.arange(wanted.size)
        targets, parts = [np.zeros(0, dtype=int)], [np.zeros((2, n // 2, 0))]
        for block, members in zip(self.blocks, self.members):
            members = slot[members].reshape(block.group.shape[:2])
            keep, rows = members >= 0, slice(None)
            if keep.all():
                values = block.pairs()[block.index]
            elif keep.any():
                rows, cols = np.flatnonzero(keep.any(axis=1)), np.flatnonzero(keep.any(axis=0))
                values = _pair_columns(block.group, block.vectors[rows][:, :, cols][None], rows)[0]
                keep, members = keep[np.ix_(rows, cols)], members[np.ix_(rows, cols)]
            else:
                continue
            targets.append(members[keep])
            parts.append((values * block.count[rows, None])[..., keep])
        sums = np.zeros((2, n // 2, wanted.size))
        np.add.at(sums, (..., np.concatenate(targets)), np.concatenate(parts, axis=2))
        return sums / np.bincount(_ring_pairs(n)[2])[:, None] / self.multiplicities[wanted]


def _pair_columns(group: BlockGroup, vectors: np.ndarray, rows=slice(None)) -> np.ndarray:
    """sum V (K_d V) and the diagonal ZZ_d(r) V^2, d = 1 .. N//2, of each column of the
    A x R x w x c eigenvectors V of the group's blocks ``rows``, as A x 2 x N//2 x R x c: each
    dense K_d is built once and reduces all A alphas with one broadcast product."""
    half = group.alignments.shape[1]
    out = np.empty((len(vectors), 2, half, *vectors.shape[1::2]))
    for d, separation in enumerate(np.eye(half)):  # K_d, one d at a time
        out[:, 0, d] = (vectors * (group.stack(separation)[rows] @ vectors)).sum(axis=-2)
    out[:, 1] = (group.alignments[rows] @ np.square(vectors)).swapaxes(1, 2)
    return out


def cluster_levels(eigenvalues: np.ndarray, tolerance: float) -> tuple[tuple, tuple]:
    """Group an ascending eigenvalue list into degenerate levels.

    Greedy gap rule: consecutive eigenvalues join one level iff their gap
    is below ``tolerance * max(1, spectral_range)``.  The level energy is
    the cluster mean.  Returns (levels, warnings); a warning is recorded
    for any cluster whose internal spread exceeds half the gap threshold,
    which flags a marginal split (typically a near-crossing).
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    values = np.asarray(eigenvalues, dtype=float)
    if values.size == 0:
        return (), ()
    if np.any(np.diff(values) < 0):
        raise ValueError("eigenvalues must be sorted ascending")
    threshold = tolerance * max(1.0, float(values[-1] - values[0]))
    starts = np.concatenate([[0], np.flatnonzero(np.diff(values) >= threshold) + 1])
    counts = np.diff(np.append(starts, values.size))
    energies = np.add.reduceat(values, starts) / counts
    spreads = values[starts + counts - 1] - values[starts]
    levels = tuple(map(Level, *(array.tolist() for array in (energies, counts, starts, spreads))))
    warnings = tuple(f"marginal cluster at energy {level.energy:.12g}: spread {level.spread:.3e} "
                     f"exceeds half the gap threshold {threshold:.3e}"
                     for level in levels if level.spread > threshold / 2)
    return levels, warnings


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the first largest-magnitude component of each column positive, in place."""
    idx = np.argmax(np.abs(vectors), axis=0)
    vectors *= np.where(vectors[idx, np.arange(vectors.shape[1])] < 0, -1.0, 1.0)
    return vectors


def diagonalize(spec: RingSpec,
                cluster_tolerance: float = CLUSTER_TOLERANCE_DEFAULT) -> SpectralDecomposition:
    """Full eigensystem assembled from per-sector eigendecompositions.

    Every variant is an affine map scale * H + shift * I of the STANDARD Hamiltonian
    (``variant_map``) and shares its eigenvectors, so the STANDARD blocks are solved
    and their eigenvalues mapped; a negative scale reverses the order.  Sectors are
    built and solved one at a time in ascending magnetization order and merged with a
    stable sort, so repeated runs on the same spec give bitwise-identical output.
    Signs are fixed per block, which is exact: a column is zero outside its sector.
    """
    standard, blocks = replace(spec, variant=Variant.STANDARD), []
    for s, states in enumerate(sector_states(spec.n_sites)):
        try:  # each Hamiltonian block is freed once it is solved
            w, v = np.linalg.eigh(sector_block(standard, s).block)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(s, exc) from exc
        blocks.append(SectorEigensystem(states, w, _fix_signs(v)))
    return _assemble(spec, tuple(blocks), cluster_tolerance)


def _solved_groups(specs, solver):
    """Yield each ``block_layout`` group and ``solver`` of its A stacks at the A ``specs``."""
    weights = np.array([separation_weights(spec.n_sites, spec.alpha) for spec in specs])
    for group in block_layout(specs[0].n_sites):
        try:
            yield group, solver(group.stack(weights))
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(group.blocks[0][0], exc) from exc


def energy_levels(spec: RingSpec,
                  cluster_tolerance: float = CLUSTER_TOLERANCE_DEFAULT) -> tuple:
    """The clustered levels of ``diagonalize`` from one eigvalsh per ``block_layout`` group."""
    raw = [np.repeat(values[0], group.counts, axis=0).ravel()
           for group, values in _solved_groups([spec], np.linalg.eigvalsh)]
    return cluster_levels(_map_sorted(spec, np.concatenate(raw))[0], cluster_tolerance)[0]


def batch_size(n_sites: int) -> int:
    """The alphas a batch solves: as many as BATCH_BYTES of eigenvectors hold, at least one."""
    point = 8 * sum(g.shape[0] * g.shape[1] ** 2 for g in block_layout(n_sites))
    return max(1, BATCH_BYTES // point)


def momentum_decompositions(jobs) -> Iterator[MomentumDecomposition]:
    """The ``momentum_decomposition`` of each (spec, cluster tolerance) of ``jobs``, one ring size,
    in order: ``batch_size`` alphas share one assembly and one eigh per ``block_layout`` group,
    each is assembled when reached, and a failed batch is solved an alpha at a time to name it."""
    jobs = list(jobs)
    size = batch_size(jobs[0][0].n_sites) if jobs else 1
    for batch in (jobs[start:start + size] for start in range(0, len(jobs), size)):
        try:  # each group's values, vectors and, on demand, its columns' correlators
            solved = [(g, w, v, functools.cache(functools.partial(_pair_columns, g, v)))
                      for g, (w, v) in _solved_groups([spec for spec, _ in batch], np.linalg.eigh)]
        except EigensolverError:
            if len(batch) == 1:
                raise
            yield from (dec for job in batch for dec in momentum_decompositions([job]))
            continue
        for a, (spec, tolerance) in enumerate(batch):
            blocks = tuple(MomentumEigensystem(g, g.counts, w[a], v[a], p, a)
                           for g, w, v, p in solved)
            yield _assemble(spec, blocks, tolerance, MomentumDecomposition)
        del solved, blocks  # before the next batch is solved


def momentum_decomposition(spec: RingSpec, cluster_tolerance: float = CLUSTER_TOLERANCE_DEFAULT
                           ) -> MomentumDecomposition:
    """The levels of ``energy_levels`` with one eigh per ``block_layout`` group."""
    return next(momentum_decompositions([(spec, cluster_tolerance)]))


def _map_sorted(spec: RingSpec, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The variant's eigenvalues from the STANDARD ``raw``, ascending, and their order."""
    scale, shift = variant_map(spec)
    order = np.argsort(raw, kind="stable")[::-1 if scale < 0 else 1]
    return scale * raw[order] + shift, order


def _assemble(spec: RingSpec, blocks: tuple, tolerance: float,
              kind=SpectralDecomposition) -> BlockDecomposition:
    """The ``kind`` of decomposition of the solved ``blocks``, each value entered ``count``
    times in a row; the copies are equal, so they fall in one level."""
    sizes = np.array([b.values.size for b in blocks])
    block_of = np.repeat(np.arange(len(blocks)), sizes)
    copies = np.concatenate([np.repeat(b.count, b.values.shape[-1]) for b in blocks])
    values, order = _map_sorted(spec, np.repeat(np.concatenate([b.values.ravel() for b in blocks]),
                                                copies))
    sectors = np.repeat(block_of, copies)[order]
    columns = np.arange(block_of.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    columns = np.repeat(columns, copies)[order]
    for array in (values, sectors, columns, *(b.vectors for b in blocks)):
        read_only(array)
    levels, warns = cluster_levels(values, tolerance)
    level_of = np.repeat(np.arange(len(levels)), [lv.multiplicity for lv in levels])
    first = level_of[np.argsort(order)][np.cumsum(copies) - copies]  # of each value's first copy
    members = tuple(first[stop - size:stop] for size, stop in zip(sizes, np.cumsum(sizes)))
    return kind(spec, values, blocks, sectors, columns, members, levels,
                cluster_tolerance=tolerance, warnings=warns)


def projector(level: Level, decomposition: SpectralDecomposition) -> np.ndarray:
    """Orthoprojector onto the eigenspace of one level."""
    vecs = decomposition.level_vectors(level)
    return vecs @ vecs.T


@dataclass(frozen=True)
class UniformEigenstate:
    """Maximally mixed state V Vᵀ / m on one eigenspace.

    Held as the level's orthonormal eigenvector block V (2^N x m), so a
    reduction never needs the 2^N x 2^N matrix; ``rho`` builds it on demand.
    """

    level: Level
    vectors: np.ndarray = field(repr=False)

    @property
    def n_sites(self) -> int:
        return self.vectors.shape[0].bit_length() - 1

    @property
    def rho(self) -> np.ndarray:
        return self.vectors @ self.vectors.T / self.level.multiplicity


def uniform_state(level: Level, decomposition: SpectralDecomposition) -> UniformEigenstate:
    return UniformEigenstate(level=level, vectors=decomposition.level_vectors(level))


def lagrange_projector(hamiltonian: HamiltonianMatrix | np.ndarray,
                       distinct_energies, target: float,
                       separation_floor: float = 1e-6) -> np.ndarray:
    """Spectral projector built from the matrix polynomial that is 1 at
    ``target`` and 0 at every other listed energy.

    The product is evaluated with the most distant energies first, which
    keeps the intermediate factors from amplifying rounding error.  Raises
    IllConditionedError when two listed energies are closer than
    ``separation_floor`` times the spectral spread.
    """
    matrix = hamiltonian.matrix if isinstance(hamiltonian, HamiltonianMatrix) else hamiltonian
    energies = sorted(float(e) for e in distinct_energies)
    spread = energies[-1] - energies[0]
    floor = separation_floor * max(1.0, spread)
    gaps = np.diff(energies)
    if np.any(gaps < floor):
        raise IllConditionedError(
            f"distinct energies closer than {floor:.3e}; projector product is ill-conditioned")
    matches = [e for e in energies if abs(e - target) < floor]
    if len(matches) != 1:
        raise ValueError(f"target {target!r} is not one of the distinct energies")
    target = matches[0]
    others = sorted((e for e in energies if e != target),
                    key=lambda e: (-abs(e - target), e))
    result = np.eye(matrix.shape[0])
    for e in others:
        result = result @ (matrix - e * np.eye(matrix.shape[0]))
        result /= (target - e)
    return result


@dataclass(frozen=True)
class LevelPairing:
    """Greedy maximum-overlap assignment between the levels of two decompositions."""

    pairs: tuple            # (index_a, index_b, overlap), overlap in [0, 1]
    unmatched_a: tuple
    unmatched_b: tuple
    ambiguous: tuple        # subset of pairs whose runner-up overlap was close

    def as_map(self) -> dict:
        return {ia: ib for ia, ib, _ in self.pairs}

    @property
    def is_bijection(self) -> bool:
        return not self.unmatched_a and not self.unmatched_b


def overlap_matrix(dec_a: BlockDecomposition, dec_b: BlockDecomposition) -> np.ndarray:
    """Normalized projector overlaps tr(P_i P_j) / max(m_i, m_j), one batched V_a^T V_b per
    entry and one bincount: a block adds (V_a^T V_b)^2 ``count`` times, which is exact, since
    the blocks it stands for are unitary images of it (the spin flip) or its conjugates."""
    size_b, pairs, weights = len(dec_b.levels), [], []
    for block_a, block_b, levels_a, levels_b in zip(
            dec_a.blocks, dec_b.blocks, dec_a.members, dec_b.members):
        width = block_a.vectors.shape[-1]
        gram = block_a.vectors.swapaxes(-1, -2) @ block_b.vectors
        weights.append((np.reshape(block_a.count, (-1, 1, 1)) * np.square(gram)).ravel())
        pairs.append((levels_a.reshape(-1, width, 1) * size_b
                      + levels_b.reshape(-1, 1, width)).ravel())
    summed = np.bincount(np.concatenate(pairs), np.concatenate(weights), len(dec_a.levels) * size_b)
    norm = np.maximum.outer(dec_a.multiplicities, dec_b.multiplicities)
    return summed.reshape(norm.shape) / norm


def match_levels(dec_a: BlockDecomposition, dec_b: BlockDecomposition,
                 overlap_threshold: float = 0.5,
                 ambiguity_window: float = 0.05) -> LevelPairing:
    """Pair levels of two decompositions by descending projector overlap.

    Away from crossings the overlaps are essentially 0 or 1, so the greedy
    assignment is exact.  Pairs whose row or column held a second overlap
    within ``ambiguity_window`` of the accepted one are flagged rather than
    resolved; levels with no overlap above ``overlap_threshold`` are left
    unmatched (crossing candidates).
    """
    return _greedy_pairing(overlap_matrix(dec_a, dec_b), overlap_threshold, ambiguity_window)


def _greedy_pairing(overlaps: np.ndarray, overlap_threshold: float,
                    ambiguity_window: float) -> LevelPairing:
    """``match_levels`` on an overlap matrix: the entries above the threshold,
    descending (ties: the later row-major one first), each accepted unless its
    row or column is taken, and ambiguous when the rest of its row or column
    holds a value above it minus the window."""
    flat = np.flatnonzero(overlaps > overlap_threshold)
    order = flat[np.argsort(overlaps.flat[flat], kind="stable")[::-1]]
    # each row's (column's) largest and second largest entry, -inf when missing
    rows, cols = (np.sort(np.pad(m, ((0, 0), (2, 0)), constant_values=-np.inf))[:, :-3:-1]
                  for m in (overlaps, overlaps.T))
    used_a, used_b = (np.zeros(size, dtype=bool) for size in overlaps.shape)
    pairs, ambiguous = [], []
    for ia, ib in zip(*np.unravel_index(order, overlaps.shape)):
        if used_a[ia] or used_b[ib]:
            continue
        used_a[ia] = used_b[ib] = True
        value = float(overlaps[ia, ib])
        pairs.append((int(ia), int(ib), value))
        # the largest entry but this one of its row, and of its column
        runner = max(rows[ia, int(rows[ia, 0] == value)], cols[ib, int(cols[ib, 0] == value)])
        if runner > value - ambiguity_window:
            ambiguous.append(pairs[-1])
    pairs.sort()
    return LevelPairing(pairs=tuple(pairs),
                        unmatched_a=tuple(np.flatnonzero(~used_a).tolist()),
                        unmatched_b=tuple(np.flatnonzero(~used_b).tolist()),
                        ambiguous=tuple(ambiguous))


def match_single_level(dec_a: BlockDecomposition, index_a: int,
                       dec_b: BlockDecomposition) -> tuple[int, float]:
    """Best-overlap partner in ``dec_b`` for one level of ``dec_a``, with the overlaps of
    ``overlap_matrix``."""
    level, sums = dec_a.levels[index_a], np.zeros(len(dec_b.levels))
    # ascending like np.unique, which would import numpy.ma on its first call
    for e in np.flatnonzero(np.bincount(dec_a.sectors[level.start:level.stop])):
        block_a, block_b = dec_a.blocks[e], dec_b.blocks[e]
        width, count = block_a.values.shape[-1], np.reshape(block_a.count, -1)
        for i in np.flatnonzero(dec_a.members[e] == index_a).tolist():
            b, c = divmod(i, width)  # flat column i is column c of block b
            row = block_a.vectors.reshape(-1, width, width)[b, :, c]
            gram = row @ block_b.vectors.reshape(-1, width, width)[b]
            np.add.at(sums, dec_b.members[e][b * width:(b + 1) * width], count[b] * np.square(gram))
    norm = np.maximum(level.multiplicity, dec_b.multiplicities)
    overlaps = sums / norm
    j = int(np.argmax(overlaps))
    return j, float(overlaps[j])


# ---------------------------------------------------------------------------
# On-disk cache: JSON header line + raw float64 payload (the STANDARD blocks'
# eigenvalues, sector 0 .. N, then their eigenvectors, row-major).  Purely an
# accelerator: ``load`` maps, sorts and clusters as ``diagonalize`` does, so one
# entry per (N, alpha) serves every variant and cluster tolerance,
# bit-identically.  An entry with a foreign header, the wrong length or a
# payload failing the header's CRC-32 is a miss.

_CACHE_MAGIC = "spinring-decomposition-v3"

# header fields that must match the requested spec for an entry to load
_CACHE_IDENTITY = ("magic", "n_sites", "alpha", "dimension")


def _cache_header(spec: RingSpec) -> dict:
    return {"magic": _CACHE_MAGIC, "n_sites": spec.n_sites,
            "alpha": repr(spec.alpha), "dimension": spec.dimension}


class DecompositionCache:
    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, spec: RingSpec) -> str:
        name = f"dec_n{spec.n_sites}_a{spec.alpha!r}.bin"
        return os.path.join(self.directory, name)

    def load(self, spec: RingSpec, tolerance: float) -> SpectralDecomposition | None:
        """The stored decomposition clustered at ``tolerance``, or None when
        the entry is missing, was written for another spec, or is corrupt or
        truncated."""
        path = self._path(spec)
        if not os.path.exists(path):
            return None
        expected = _cache_header(spec)
        all_states = sector_states(spec.n_sites)
        with open(path, "rb") as handle:
            line = handle.readline(4096)  # a header is one short JSON line
            try:
                header = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                return None
            if not isinstance(header, dict) or any(
                    header.get(key) != expected[key] for key in _CACHE_IDENTITY):
                return None
            size = 8 * sum(states.size * (states.size + 1) for states in all_states)
            payload = handle.read(size + 1)  # a byte more exposes trailing data
        if len(payload) != size or zlib.crc32(payload) != header.get("checksum"):
            return None
        # read-only views of the payload: all blocks' values, then their vectors
        sizes = np.array([states.size for states in all_states])
        parts = np.split(np.frombuffer(payload, dtype=np.float64),
                         np.cumsum(np.concatenate([sizes, sizes ** 2]))[:-1])
        blocks = tuple(SectorEigensystem(states, w, v.reshape(w.size, w.size))
                       for states, w, v in zip(all_states, parts, parts[sizes.size:]))
        return _assemble(spec, blocks, tolerance)

    def store(self, decomposition: SpectralDecomposition) -> str:
        spec = decomposition.spec
        path = self._path(spec)
        blocks = decomposition.blocks
        arrays = [b.values for b in blocks] + [b.vectors for b in blocks]
        checksum = functools.reduce(lambda crc, array: zlib.crc32(array, crc), arrays, 0)
        header = {**_cache_header(spec), "checksum": checksum}
        fd, tmp = tempfile.mkstemp(dir=self.directory)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write((json.dumps(header) + "\n").encode("utf-8"))
                for array in arrays:
                    handle.write(array)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    def get(self, spec: RingSpec,
            tolerance: float = CLUSTER_TOLERANCE_DEFAULT) -> SpectralDecomposition:
        cached = self.load(spec, tolerance)
        if cached is not None:
            return cached
        dec = diagonalize(spec, tolerance)
        self.store(dec)
        return dec
