"""Diagonalization, degenerate-level clustering, spectral projectors.

Eigenvalues of the ring Hamiltonian come in exactly degenerate groups
(total-spin and lattice symmetries), so the raw eigh output is clustered
into levels before anything downstream looks at it.  A level owns a
contiguous slice of the globally sorted eigenvalue list; its orthoprojector
is materialized on demand from the eigenvector columns.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (HamiltonianMatrix, RingSpec, Variant, build_sector_blocks,
                    variant_map)

CLUSTER_TOLERANCE_DEFAULT = 1e-9


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

    @property
    def member_indices(self) -> range:
        return range(self.start, self.stop)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Full eigensystem of one ring spec, clustered into levels."""

    spec: RingSpec
    eigenvalues: np.ndarray = field(repr=False)    # ascending, length 2^N
    eigenvectors: np.ndarray = field(repr=False)   # orthonormal columns
    levels: tuple
    cluster_tolerance: float
    warnings: tuple = ()

    @property
    def spectral_range(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])

    @property
    def energies(self) -> np.ndarray:
        return np.array([lv.energy for lv in self.levels])

    @property
    def multiplicities(self) -> np.ndarray:
        return np.array([lv.multiplicity for lv in self.levels], dtype=np.int64)

    def level_vectors(self, level: Level) -> np.ndarray:
        return self.eigenvectors[:, level.start:level.stop]


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
    boundaries = np.flatnonzero(np.diff(values) >= threshold) + 1
    starts = np.concatenate([[0], boundaries])
    stops = np.concatenate([boundaries, [values.size]])
    levels = []
    warnings = []
    for start, stop in zip(starts, stops):
        chunk = values[start:stop]
        spread = float(chunk[-1] - chunk[0])
        levels.append(Level(energy=float(chunk.mean()), multiplicity=int(stop - start),
                            start=int(start), spread=spread))
        if spread > threshold / 2:
            warnings.append(f"marginal cluster at energy {chunk.mean():.12g}: "
                            f"spread {spread:.3e} exceeds half the gap threshold {threshold:.3e}")
    return tuple(levels), tuple(warnings)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the first largest-magnitude component of each column positive."""
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.where(vectors[idx, np.arange(vectors.shape[1])] < 0, -1.0, 1.0)
    return vectors * signs


def diagonalize(spec: RingSpec,
                cluster_tolerance: float = CLUSTER_TOLERANCE_DEFAULT) -> SpectralDecomposition:
    """Full eigensystem assembled from per-sector eigendecompositions.

    Every variant is an affine map scale * H + shift * I of the STANDARD
    Hamiltonian (``variant_map``) and shares its eigenvectors, so the
    STANDARD blocks are solved and their eigenvalues mapped; a negative
    scale reverses the order.  Sectors are solved in ascending
    magnetization order and merged with a stable sort, so repeated runs on
    the same spec give bitwise-identical output.
    """
    scale, shift = variant_map(spec)
    dim = spec.dimension
    values = np.empty(dim)
    vectors = np.zeros((dim, dim))
    offset = 0
    for block in build_sector_blocks(replace(spec, variant=Variant.STANDARD)):
        try:
            w, v = np.linalg.eigh(block.block)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(block.sector, exc) from exc
        size = block.states.size
        values[offset:offset + size] = w
        vectors[np.ix_(block.states, np.arange(offset, offset + size))] = v
        offset += size
    order = np.argsort(values, kind="stable")
    values = scale * values[order] + shift
    vectors = _fix_signs(vectors[:, order])
    if scale < 0:
        values = values[::-1].copy()
        vectors = np.ascontiguousarray(vectors[:, ::-1])
    levels, warns = cluster_levels(values, cluster_tolerance)
    values.setflags(write=False)
    vectors.setflags(write=False)
    return SpectralDecomposition(spec=spec, eigenvalues=values, eigenvectors=vectors,
                                 levels=levels, cluster_tolerance=cluster_tolerance,
                                 warnings=warns)


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


def overlap_matrix(dec_a: SpectralDecomposition, dec_b: SpectralDecomposition) -> np.ndarray:
    """Normalized projector overlaps tr(P_i P_j) / max(m_i, m_j)."""
    gram = dec_a.eigenvectors.T @ dec_b.eigenvectors
    np.square(gram, out=gram)
    starts_a = np.array([lv.start for lv in dec_a.levels])
    starts_b = np.array([lv.start for lv in dec_b.levels])
    summed = np.add.reduceat(np.add.reduceat(gram, starts_a, axis=0), starts_b, axis=1)
    norm = np.maximum.outer(dec_a.multiplicities, dec_b.multiplicities)
    return summed / norm


def match_levels(dec_a: SpectralDecomposition, dec_b: SpectralDecomposition,
                 overlap_threshold: float = 0.5,
                 ambiguity_window: float = 0.05) -> LevelPairing:
    """Pair levels of two decompositions by descending projector overlap.

    Away from crossings the overlaps are essentially 0 or 1, so the greedy
    assignment is exact.  Pairs whose row or column held a second overlap
    within ``ambiguity_window`` of the accepted one are flagged rather than
    resolved; levels with no overlap above ``overlap_threshold`` are left
    unmatched (crossing candidates).
    """
    overlaps = overlap_matrix(dec_a, dec_b)
    na, nb = overlaps.shape
    order = np.argsort(overlaps, axis=None, kind="stable")[::-1]
    used_a = np.zeros(na, dtype=bool)
    used_b = np.zeros(nb, dtype=bool)
    pairs = []
    ambiguous = []
    for flat in order:
        ia, ib = divmod(int(flat), nb)
        value = float(overlaps[ia, ib])
        if value <= overlap_threshold:
            break
        if used_a[ia] or used_b[ib]:
            continue
        used_a[ia] = True
        used_b[ib] = True
        pairs.append((ia, ib, value))
        row = np.delete(overlaps[ia, :], ib)
        col = np.delete(overlaps[:, ib], ia)
        runner = max(row.max(initial=-np.inf), col.max(initial=-np.inf))
        if runner > value - ambiguity_window:
            ambiguous.append((ia, ib, value))
    pairs.sort()
    return LevelPairing(pairs=tuple(pairs),
                        unmatched_a=tuple(int(i) for i in np.flatnonzero(~used_a)),
                        unmatched_b=tuple(int(i) for i in np.flatnonzero(~used_b)),
                        ambiguous=tuple(ambiguous))


def match_single_level(dec_a: SpectralDecomposition, index_a: int,
                       dec_b: SpectralDecomposition) -> tuple[int, float]:
    """Best-overlap partner in ``dec_b`` for one level of ``dec_a``."""
    level = dec_a.levels[index_a]
    gram = dec_a.level_vectors(level).T @ dec_b.eigenvectors
    np.square(gram, out=gram)
    row = gram.sum(axis=0)
    starts_b = np.array([lv.start for lv in dec_b.levels])
    sums = np.add.reduceat(row, starts_b)
    norm = np.maximum(level.multiplicity, dec_b.multiplicities)
    overlaps = sums / norm
    j = int(np.argmax(overlaps))
    return j, float(overlaps[j])


# ---------------------------------------------------------------------------
# On-disk cache: JSON header line + raw float64 payload (eigenvalues, then
# eigenvector columns in row-major order).  Purely an accelerator; a loaded
# decomposition is bit-identical to a freshly computed one, and an entry with
# a foreign header, the wrong length or a payload that fails the header's
# CRC-32 is a miss that ``get`` overwrites.  The entry holds the unclustered
# eigensystem, so one entry serves every cluster tolerance.

_CACHE_MAGIC = "spinring-decomposition-v2"

# header fields that must match the requested spec for an entry to load
_CACHE_IDENTITY = ("magic", "n_sites", "variant", "alpha", "dimension")


def _cache_header(spec: RingSpec) -> dict:
    return {"magic": _CACHE_MAGIC, "n_sites": spec.n_sites,
            "alpha": repr(spec.alpha), "variant": spec.variant.value,
            "dimension": spec.dimension}


class DecompositionCache:
    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, spec: RingSpec) -> str:
        name = f"dec_n{spec.n_sites}_{spec.variant.value}_a{spec.alpha!r}.bin"
        return os.path.join(self.directory, name)

    def load(self, spec: RingSpec, tolerance: float) -> SpectralDecomposition | None:
        """The stored decomposition clustered at ``tolerance``, or None when
        the entry is missing, was written for another spec, or is corrupt or
        truncated."""
        path = self._path(spec)
        if not os.path.exists(path):
            return None
        expected = _cache_header(spec)
        dim = spec.dimension
        with open(path, "rb") as handle:
            line = handle.readline(4096)  # a header is one short JSON line
            try:
                header = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                return None
            if not isinstance(header, dict) or any(
                    header.get(key) != expected[key] for key in _CACHE_IDENTITY):
                return None
            size = 8 * dim * (dim + 1)
            payload = handle.read(size + 1)  # a byte more exposes trailing data
        if len(payload) != size or zlib.crc32(payload) != header.get("checksum"):
            return None
        # read-only views of the payload
        values = np.frombuffer(payload, dtype=np.float64, count=dim)
        vectors = np.frombuffer(payload, dtype=np.float64, offset=8 * dim).reshape(dim, dim)
        levels, warns = cluster_levels(values, tolerance)
        return SpectralDecomposition(spec=spec, eigenvalues=values, eigenvectors=vectors,
                                     levels=levels, cluster_tolerance=tolerance,
                                     warnings=warns)

    def store(self, decomposition: SpectralDecomposition) -> str:
        spec = decomposition.spec
        path = self._path(spec)
        values = np.ascontiguousarray(decomposition.eigenvalues)
        vectors = np.ascontiguousarray(decomposition.eigenvectors)
        header = _cache_header(spec)
        header["checksum"] = zlib.crc32(vectors, zlib.crc32(values))
        fd, tmp = tempfile.mkstemp(dir=self.directory)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write((json.dumps(header) + "\n").encode("utf-8"))
                handle.write(values)
                handle.write(vectors)
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
