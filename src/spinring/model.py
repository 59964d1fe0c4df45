"""Ring geometry, coupling weights and Hamiltonian matrices.

A ring of N spins 1/2 couples every pair isotropically with the inverse
chord distance to the power ``alpha``.  The distance depends only on the
ring separation d, so H(alpha) = sum_d w_d(alpha) K_d over d = 1 .. N//2,
with K_d the alpha-independent bond sum at separation d; the variants are
affine maps scale * H + shift * I of it (``variant_map``).  Basis states
are products of local sigma^z eigenstates, encoded as N-bit integers: bit
(j-1) is 1 when site j is "up" (+), so site 1 is the least significant bit.
H conserves the magnetization (``sector_block``), and the ring translation splits
each sector into lattice-momentum blocks.  Where a block's entries sit depends on N
alone, so it is cached per process and each alpha only scatters its weights: per
sector (``_sector_pattern``), and for the momentum blocks of half the spectrum stacked
by width into ``BlockGroup``s (``block_layout``), assembled by one bincount as
sum_d w_d K_d, for one alpha or a batch, or as one dense K_d (``BlockGroup.stack``).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

INFINITY = math.inf

# The eigenvectors take 8 C(2N, N) bytes in magnetization blocks (321 MB at 14).
MAX_SITES = 14


class RingSizeError(ValueError):
    """Site count exceeds MAX_SITES, set by the block eigenvectors' 8 C(2N, N) bytes."""


class Variant(enum.Enum):
    """Which Hamiltonian matrix to build.

    STANDARD is the plain pair-coupling sum; the others are the affine
    maps of it given by ``variant_map``.
    """

    STANDARD = "standard"
    SHIFTED = "shifted"
    FERROMAGNETIC = "ferromagnetic"

    @classmethod
    def parse(cls, text: str) -> "Variant":
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(f"unknown variant {text!r}; expected one of "
                             f"{[v.value for v in cls]}") from None


@dataclass(frozen=True)
class RingSpec:
    """A physical instance: site count, range exponent and variant.

    ``alpha`` may be ``math.inf``, which selects the nearest-neighbor
    coupling rule (weight 1 at ring separation 1, zero otherwise);
    ``alpha = 0`` couples every pair with weight 1.
    """

    n_sites: int
    alpha: float
    variant: Variant = Variant.STANDARD

    def __post_init__(self):
        if not isinstance(self.n_sites, (int, np.integer)) or self.n_sites < 2:
            raise ValueError(f"n_sites must be an integer >= 2, got {self.n_sites!r}")
        if self.n_sites > MAX_SITES:
            raise RingSizeError(
                f"n_sites={self.n_sites} exceeds the cap of {MAX_SITES} "
                f"(the block eigenvectors take 8 C(2N, N) bytes)")
        a = float(self.alpha)
        if math.isnan(a) or a < 0:
            raise ValueError(f"alpha must be a non-negative real or inf, got {self.alpha!r}")
        object.__setattr__(self, "alpha", a)
        if not isinstance(self.variant, Variant):
            raise ValueError(f"variant must be a Variant, got {self.variant!r}")

    @property
    def dimension(self) -> int:
        return 2 ** self.n_sites


def chord_distance(n_sites: int, separation: int) -> float:
    """Distance between two ring sites ``separation`` steps apart.

    Measured along the chord of the circumscribing circle and normalized
    so that nearest neighbors are at distance exactly 1.  Separations
    above n_sites//2 are reflected (the distance depends on the ring
    separation min(d, N-d) only).
    """
    if n_sites < 2:
        raise ValueError("n_sites must be >= 2")
    if not 1 <= separation <= n_sites - 1:
        raise ValueError(f"separation must be in 1..{n_sites - 1}, got {separation}")
    d = min(separation, n_sites - separation)
    if d == 1:
        return 1.0
    return math.sin(math.pi * d / n_sites) / math.sin(math.pi / n_sites)


def coupling_weight(n_sites: int, separation: int, alpha: float) -> float:
    """Pair coupling (1/r)^alpha for the given ring separation."""
    d = min(separation, n_sites - separation)
    if math.isinf(alpha):
        return 1.0 if d == 1 else 0.0
    return chord_distance(n_sites, d) ** (-alpha)


def read_only(array: np.ndarray) -> np.ndarray:
    """The array, marked read-only."""
    array.setflags(write=False)
    return array


@functools.lru_cache(maxsize=64)
def separation_weights(n_sites: int, alpha: float) -> np.ndarray:
    """Coupling weights w_d for the ring separations d = 1 .. n_sites//2; cached, read-only."""
    return read_only(np.array([coupling_weight(n_sites, d, alpha)
                               for d in range(1, n_sites // 2 + 1)]))


@functools.lru_cache(maxsize=None)
def _ring_pairs(n_sites: int):
    """Bit positions (j, k), j < k, of every site pair, the index d-1 of its ring
    separation d into ``separation_weights``, and its bit mask, as the rows of one
    cached, read-only array."""
    bj, bk = np.triu_indices(n_sites, 1)
    return read_only(np.stack([bj, bk, np.minimum(bk - bj, n_sites - bk + bj) - 1,
                               (1 << bj) | (1 << bk)]))


def total_weight(n_sites: int, alpha: float) -> float:
    """Sum of all pair weights, W = sum_d n_d w_d with n_d pairs at separation d."""
    counts = np.bincount(_ring_pairs(n_sites)[2])
    return float(counts @ separation_weights(n_sites, alpha))


def variant_map(spec: RingSpec) -> tuple[float, float]:
    """(scale, shift) with H_variant = scale * H_standard + shift * I.

    SHIFTED is (H - W)/4, which puts the fully symmetric states at energy
    zero; FERROMAGNETIC is -H.
    """
    if spec.variant is Variant.SHIFTED:
        return 0.25, -0.25 * total_weight(spec.n_sites, spec.alpha)
    if spec.variant is Variant.FERROMAGNETIC:
        return -1.0, 0.0
    return 1.0, 0.0


def popcounts(n_sites: int) -> np.ndarray:
    """Number of set bits for every basis index 0 .. 2^N - 1."""
    counts = np.zeros(1, dtype=np.int64)
    for _ in range(n_sites):
        counts = np.concatenate([counts, counts + 1])
    return counts


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Dense symmetric matrix of one ring Hamiltonian in the product basis."""

    spec: RingSpec
    matrix: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class SectorBlock:
    """One total-magnetization block of the Hamiltonian."""

    sector: int                       # number of up spins
    states: np.ndarray = field(repr=False)   # basis integers, ascending
    block: np.ndarray = field(repr=False)    # dense symmetric matrix


@functools.lru_cache(maxsize=None)
def sector_states(n_sites: int) -> tuple[np.ndarray, ...]:
    """Basis integers of each magnetization sector, ascending; cached, read-only."""
    pops = popcounts(n_sites)
    all_states = np.arange(2 ** n_sites, dtype=np.int64)
    return tuple(read_only(all_states[pops == s]) for s in range(n_sites + 1))


@functools.lru_cache(maxsize=None)
def _sector_pattern(n_sites: int, sector: int) -> tuple:
    """Flat off-diagonal positions and pair indices of one sector block, and each
    state's alignment sign (+1 aligned, -1 anti-aligned) per pair; cached, read-only.
    The 91 pairs of MAX_SITES sites fit int8, and a 3432-wide block int32."""
    bj, bk, _, masks = _ring_pairs(n_sites)
    states = sector_states(n_sites)[sector]
    anti = ((states[:, None] >> bj) ^ (states[:, None] >> bk)) & 1
    rows, pairs = np.nonzero(anti)
    columns = np.searchsorted(states, states[rows] ^ masks[pairs])
    return tuple(map(read_only, ((rows * states.size + columns).astype(np.int32),
                                 pairs.astype(np.int8), (1 - 2 * anti).astype(np.int8))))


def sector_block(spec: RingSpec, sector: int) -> SectorBlock:
    """The Hamiltonian block of magnetization ``sector`` (number of up spins).

    Blocks are the full matrix conjugated by the permutation that sorts the
    basis by up-spin count; block sizes are the binomial coefficients C(N, s).
    A pair of weight w adds +w (-w) to the diagonal where its spins are aligned
    (anti-aligned), and 2w between an anti-aligned state and its swap partner,
    the state XOR the pair's bit mask; so every off-diagonal entry belongs to
    exactly one pair.  The spin flip maps sector s onto N - s and reverses the
    ascending state order, so block N - s is block s reversed on both axes.
    """
    scale, shift = variant_map(spec)
    weights = scale * separation_weights(spec.n_sites, spec.alpha)[_ring_pairs(spec.n_sites)[2]]
    positions, pairs, signs = _sector_pattern(spec.n_sites, sector)
    states = sector_states(spec.n_sites)[sector]
    block = np.zeros((states.size, states.size))
    np.put(block, positions, 2.0 * weights[pairs])
    # cumsum adds the pairs in their fixed order; a matrix product would
    # leave the summation order, and so the last bit, to the BLAS build
    np.fill_diagonal(block, np.cumsum(signs * weights, axis=1)[:, -1] + shift)
    return SectorBlock(sector=sector, states=states, block=read_only(block))


def build_sector_blocks(spec: RingSpec) -> list[SectorBlock]:
    """The magnetization blocks of the Hamiltonian, sector 0 .. N."""
    return [sector_block(spec, s) for s in range(spec.n_sites + 1)]


def build_hamiltonian(spec: RingSpec) -> HamiltonianMatrix:
    """Dense 2^N x 2^N matrix of the requested variant, the sector blocks
    placed at their basis states; exactly symmetric and exactly
    block-diagonal over total-magnetization sectors."""
    matrix = np.zeros((spec.dimension, spec.dimension))
    for block in build_sector_blocks(spec):
        matrix[np.ix_(block.states, block.states)] = block.block
    return HamiltonianMatrix(spec=spec, matrix=read_only(matrix))


def top_eigenspace_basis(n_sites: int) -> np.ndarray:
    """Orthonormal basis of the permutation-symmetric subspace, as columns.

    Column s is the normalized uniform superposition of all basis states
    with exactly s up spins.  These N+1 vectors are annihilated by the
    SHIFTED Hamiltonian for every alpha, and their span does not depend
    on alpha.
    """
    dim = 2 ** n_sites
    basis = np.zeros((dim, n_sites + 1))
    for s, states in enumerate(sector_states(n_sites)):
        basis[states, s] = 1.0 / math.sqrt(states.size)
    return read_only(basis)


def translation_permutation(n_sites: int) -> np.ndarray:
    """Basis permutation of the cyclic site shift j -> j+1."""
    states = np.arange(2 ** n_sites, dtype=np.int64)
    top = (states >> (n_sites - 1)) & 1
    return ((states << 1) & (2 ** n_sites - 1)) | top


@functools.lru_cache(maxsize=None)
def _translation_orbits(n_sites: int) -> np.ndarray:
    """Each basis state's translation-orbit representative r (its smallest image),
    period p and shift l with T^l r = the state, as the rows of one cached, read-only array."""
    shift_of, images = translation_permutation(n_sites), np.arange(2 ** n_sites)[None]
    for _ in range(n_sites - 1):  # row j holds T^j of every state
        images = np.vstack([images, shift_of[images[-1]]])
    period = n_sites // np.count_nonzero(images == images[0], axis=0)
    return read_only(np.stack([images.min(axis=0), period, -images.argmin(axis=0) % period]))


def _momentum_basis(n_sites: int, sector: int, momentum: int) -> np.ndarray:
    """The sector's orbit representatives r whose period p allows k: k p = 0 mod N."""
    reps, period, _ = _translation_orbits(n_sites)
    states = sector_states(n_sites)[sector]
    return states[(reps[states] == states) & (momentum * period[states] % n_sites == 0)]


def _momentum_entries(n_sites: int, sector: int, momentum: int) -> tuple:
    """Width, int32 flat positions row * width + col, int8 separation indices and amplitudes of
    the nonzeros of one momentum block, ascending in (position, separation), and the N//2 x w int8
    +-1 alignment sums ZZ_d(r) of its basis |r, k> ~ sum_j e^{-2 pi i k j/N} T^j |r>, r in
    ``_momentum_basis``.  A pair term taking r_b to T^l r_a adds its ``sector_block`` entry
    times e^{2 pi i k l/N} sqrt(p_b/p_a) at (a, b)."""
    reps, period, shift = _translation_orbits(n_sites)
    basis = _momentum_basis(n_sites, sector, momentum)
    position = np.full(2 ** n_sites, -1)  # -1: the extra last row, for partners outside
    position[basis] = np.arange(size := basis.size)
    bj, bk, sep, masks = _ring_pairs(n_sites)
    anti = ((basis[:, None] >> bj) ^ (basis[:, None] >> bk)) & 1
    cols, pairs = np.nonzero(anti)
    partners = basis[cols] ^ masks[pairs]
    rows = position[reps[partners]]
    angle = 2 * np.pi * (momentum * shift[partners] % n_sites) / n_sites
    phases = np.cos(angle) if 2 * momentum % n_sites == 0 else np.exp(1j * angle)  # +-1 if real
    coefficients = np.zeros((size + 1, size, n_sites // 2), dtype=phases.dtype)
    alignments = (1 - 2 * anti) @ np.eye(n_sites // 2, dtype=int)[sep]
    coefficients[np.diag_indices(size)] = alignments
    np.add.at(coefficients, (rows, cols, sep[pairs]),
              2 * phases * np.sqrt(period[basis[cols]] / period[basis[rows]]))
    rows, cols, seps = np.nonzero(coefficients[:size])
    return (size, (rows * size + cols).astype(np.int32), seps.astype(np.int8),
            coefficients[rows, cols, seps], alignments.T.astype(np.int8))


class BlockGroup(NamedTuple):
    """Momentum blocks of one width and dtype as a B x w x w stack: block b is (sector, momentum)
    ``blocks[b]``, standing for ``counts[b]`` blocks (its spin-flip mirror and its conjugate), with
    the N//2 x w ZZ_d(r) ``alignments[b]``; entry i adds ``amplitudes[i]`` to K_d at ``flat[i]``."""
    blocks: tuple
    shape: tuple
    counts: np.ndarray
    flat: np.ndarray
    seps: np.ndarray
    amplitudes: np.ndarray
    alignments: np.ndarray

    def stack(self, weights: np.ndarray) -> np.ndarray:
        """sum_d weights[..., d - 1] K_d of every block, B x w x w, or A x B x w x w for the A
        rows of an A x N//2 ``weights``; one bincount per real and imaginary part adds the
        entries in row and pattern order, so each row is its own stack, as np.add.at would."""
        size, values = math.prod(self.shape), self.amplitudes * weights[..., self.seps]
        flat = self.flat if weights.size == weights.shape[-1] else (  # else offset each row
            size * np.arange(len(weights))[:, None] + self.flat).ravel()
        out = np.empty(math.prod(weights.shape[:-1]) * size, dtype=values.dtype)
        out.real = np.bincount(flat, values.real.ravel(), out.size)
        if out.dtype.kind == "c":
            out.imag = np.bincount(flat, values.imag.ravel(), out.size)
        return out.reshape(*weights.shape[:-1], *self.shape)


@functools.lru_cache(maxsize=None)
def block_layout(n_sites: int) -> tuple:
    """The nonempty lattice-momentum blocks k = 0 .. N//2 (C(N, s)/N wide, real if 2k = 0 mod N) of
    the sectors with 2s >= N, which stand for every block (Sandvik, AIP Conf. Proc. 1297, 135
    (2010)), as ``BlockGroup``s by (width, dtype) in order of first (sector, momentum); cached."""
    groups, layout = {}, []
    for s in range((n_sites + 1) // 2, n_sites + 1):
        for k in range(n_sites // 2 + 1):
            if width := _momentum_basis(n_sites, s, k).size:  # else no period allows k
                groups.setdefault((width, 2 * k % n_sites == 0), []).append((s, k))
    for (width, _), blocks in groups.items():  # one group's entries held at a time
        _, flats, seps, amplitudes, alignments = zip(*(_momentum_entries(n_sites, *block)
                                                       for block in blocks))
        counts = [2 ** ((2 * s > n_sites) + (0 < 2 * k < n_sites)) for s, k in blocks]
        flat = np.concatenate([b * width ** 2 + f for b, f in enumerate(flats)])
        layout.append(BlockGroup(tuple(blocks), (len(blocks), width, width), *map(read_only, (
            np.array(counts), flat, np.concatenate(seps), np.concatenate(amplitudes),
            np.stack(alignments)))))
    return tuple(layout)
