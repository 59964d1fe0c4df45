"""Ring geometry, coupling weights and Hamiltonian matrices.

A ring of N spins 1/2 couples every pair isotropically with the inverse
chord distance to the power ``alpha``.  The distance depends only on the
ring separation d, so H(alpha) = sum_d w_d(alpha) K_d over d = 1 .. N//2,
with K_d the alpha-independent bond sum at separation d; the variants are
affine maps scale * H + shift * I of it (``variant_map``).  Basis states
are products of local sigma^z eigenstates, encoded as N-bit integers: bit
(j-1) is 1 when site j is "up" (+), so site 1 is the least significant bit.
H conserves the magnetization (``sector_block``) and commutes with the ring translation
T and reflection R, R T R = T^-1.  T splits each sector into lattice-momentum blocks
k; H is real, so the antiunitary R K (K: complex conjugation) maps block k onto itself,
and in a basis it fixes the block is real, split into R-even and R-odd blocks where
2k = 0 mod N (``_reflection_blocks``; Sandvik, AIP Conf. Proc. 1297, 135 (2010)).
Where a block's entries sit depends on N alone, so it is cached per process and each
alpha only scatters its weights: per sector (``_sector_pattern``), and for real blocks
stacked by width into ``BlockGroup``s (``block_groups``), assembled by one bincount as
sum_d w_d K_d, for one alpha or a batch, or as one dense K_d (``BlockGroup.stack``).  The
commands solve the real blocks of the top sector alone, one member of every SU(2) multiplet,
split by total spin (``spectra.spin_layout``).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

INFINITY = math.inf

# Measured: ``report --n 14`` on a 40-point grid peaks at about 1.35 GB (1349-1355 MB).
MAX_SITES = 14


class RingSizeError(ValueError):
    """Site count exceeds MAX_SITES, set by the memory ``report`` takes at 14 sites."""


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
                f"(report at 14 sites already peaks at about 1.35 GB)")
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
def _chord_logs(n_sites: int) -> np.ndarray:
    """log r_d of the chord distances, d = 2 .. n_sites//2 (r_1 = 1); cached, read-only."""
    return read_only(np.log([chord_distance(n_sites, d) for d in range(2, n_sites // 2 + 1)]))


def weight_offsets(n_sites: int, alpha: float) -> np.ndarray:
    """The ``separation_weights`` less 1 by expm1, exact to rounding also near alpha = 0."""
    return np.concatenate([[0.0], np.expm1(-alpha * _chord_logs(n_sites))])


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


@functools.lru_cache(maxsize=None)
def _translation_orbits(n_sites: int) -> np.ndarray:
    """Each basis state's translation-orbit representative r (its smallest image), period p and
    shift l with T^l r = the state, T taking site j to j + 1 (a left rotation of the bits), as
    the rows of one cached, read-only array."""
    states = np.arange(2 ** n_sites)
    reps, first, fixed = states.copy(), np.zeros_like(states), np.ones_like(states)
    for j in range(1, n_sites):  # T^j of every state, one j at a time
        image = (states << j | states >> (n_sites - j)) & (2 ** n_sites - 1)
        smaller, fixed = image < reps, fixed + (image == states)
        reps[smaller], first[smaller] = image[smaller], j
    period = n_sites // fixed
    return read_only(np.stack([reps, period, -first % period]))


def _reflection(n_sites: int, states: np.ndarray) -> np.ndarray:
    """The images of ``states`` under the ring reflection R, site j -> site 2 - j (mod N), which
    keeps every separation and reverses the translation: R T R = T^-1."""
    return sum(((states >> j) & 1) << (-j % n_sites) for j in range(n_sites))  # bit j to -j


def _reflection_blocks(n_sites: int, sector: int) -> tuple:
    """The sector's blocks (momentum, parity), k = 0 .. N//2, their widths, and a function of b
    giving block b's (flat, seps, amplitudes), as ``BlockGroup`` holds them.
    |r, k> ~ sum_j e^{-2 pi i k j/N} T^j |r> for the orbit representatives r whose period allows
    k; R |r> = T^m |rbar> gives R K |r, k> = e^{i theta} |rbar, k>, theta = 2 pi k m/N.  Basis,
    ascending in r <= rbar: (|r, k> + R K |r, k>)/sqrt2 and i (|r, k> - R K |r, k>)/sqrt2 if
    r < rbar, e^{i theta/2} |r, k> if r = rbar (parity 0); at 2k = 0 mod N the sums without i
    (parity 1, -1), |r, k> joining its R eigenvalue's.  So <u|H|v> = sqrt2 Re <u|H|r, k> (times
    i or e^{i theta/2}): a pair term taking r to T^l r' adds 2 sqrt(n_r/n_r') cos(phi) at (u, v)
    for each u holding r', n_r the dihedral orbit size, phi a multiple of pi/(2N) from one
    table; ``BlockGroup.stack`` sums the terms."""
    n, half = n_sites, n_sites // 2
    reps, period, shift = _translation_orbits(n)
    states = sector_states(n)[sector]
    orbit = states[reps[states] == states]
    bar = reps[mirror := _reflection(n, orbit)]
    pair, second = orbit != bar, orbit > bar
    first = np.searchsorted(orbit, np.minimum(orbit, bar))
    size = period[orbit] * (1 + pair)
    blocks = [(k, q) for k in range(half + 1) for q in ((1, -1) if 2 * k % n == 0 else (0,))]
    k, parity = np.array(blocks).T[:, :, None]  # B x 1 each
    cosines = np.cos(np.pi / (2 * n) * np.arange(4 * n))  # the phases, in steps of pi/(2N)
    cosines[::n] = 1, 0, -1, 0
    half_theta = 2 * k * shift[mirror] % (4 * n)
    member = ((k * period[orbit] % n == 0) & ~second
              & ((parity == 0) | pair | (cosines[2 * half_theta % (4 * n)] == parity)))
    span = member * (1 + ((parity == 0) & pair))  # a pair's two vectors at parity 0
    slot = np.where(member, np.cumsum(span, axis=1) - span, -1)
    col_phase = np.where((parity == 0) & ~pair, half_theta, 0)
    row_phase = np.where(second, 2 * n * (parity < 0) - 2 * half_theta, -col_phase)
    bj, bk, sep, masks = _ring_pairs(n)
    anti = ((orbit[:, None] >> bj) ^ (orbit[:, None] >> bk)) & 1
    alignments = ((1 - 2 * anti) @ np.eye(half, dtype=int)[sep]).astype(np.int8)
    source, pairs = np.nonzero(anti & ~second[:, None])
    partner = orbit[source] ^ masks[pairs]
    # held, by ``entries``, until the whole layout is built: the small integers in small types
    source, target = source.astype(np.int32), np.searchsorted(orbit, reps[partner]).astype(np.int32)
    seps, ring_shift = sep[pairs].astype(np.int8), shift[partner].astype(np.int8)
    ratio = 2 * np.sqrt(size[source] / size[target])
    column, row = np.array([[0, 0, 1, 1], [0, 1, 0, 1]])[:, :, None]

    def entries(b: int) -> tuple:
        rows_at, cols_at, width = slot[b][first], slot[b], span[b].sum()  # r' at its pair's row
        term = np.flatnonzero((cols_at[source] >= 0) & (rows_at[target] >= 0))
        out, into = source[term], target[term]
        phase = 4 * k[b, 0] * ring_shift[term] + col_phase[b][out] + row_phase[b][into]
        flat = rows_at[into] * width + cols_at[out]
        if parity[b, 0] == 0:  # copies (column, row) 00, 01, 10, 11: a pair's two vectors each
            phase = phase + n * column + row * (2 * n * second[into] - n)
            flat = flat + column + row * width
            amplitude = ratio[term] * ((column <= pair[out]) & (row <= pair[into]))
        else:
            amplitude = ratio[term]
        values = np.ravel(amplitude * cosines[phase % (4 * n)])
        keep = np.flatnonzero(values)
        zz = alignments[np.repeat(np.flatnonzero(member[b]), span[b][member[b]])].T
        d, diagonal = np.nonzero(zz)
        return (np.concatenate([np.ravel(flat)[keep], diagonal * (width + 1)]).astype(np.int32),
                np.concatenate([seps[term][keep % term.size], d]).astype(np.int8),
                np.concatenate([values[keep], zz[d, diagonal]]))

    return blocks, span.sum(axis=1), entries


class BlockGroup(NamedTuple):
    """Real blocks of one width as a B x w x w stack: block b is (sector, momentum, parity)
    ``blocks[b]`` (``_reflection_blocks``), which at parity 0 stands for block -k too; entry i
    adds ``amplitudes[i]`` to K_d at ``flat[i]``, d - 1 = ``seps[i]``."""
    blocks: tuple
    shape: tuple
    flat: np.ndarray
    seps: np.ndarray
    amplitudes: np.ndarray

    def stack(self, weights: np.ndarray) -> np.ndarray:
        """sum_d weights[..., d - 1] K_d of every block, B x w x w, or A x B x w x w for the A rows
        of an A x N//2 ``weights``, by one bincount: each row is its own stack, bit for bit."""
        size = math.prod(self.shape)
        flat = self.flat if weights.size == weights.shape[-1] else (  # else offset each row
            size * np.arange(len(weights))[:, None] + self.flat).ravel()
        values = (self.amplitudes * weights[..., self.seps]).ravel()
        stacks = np.bincount(flat, values, math.prod(weights.shape[:-1]) * size)
        return stacks.reshape(*weights.shape[:-1], *self.shape)


def block_groups(n_sites: int, sector: int) -> tuple:
    """The sector's nonempty real momentum blocks k = 0 .. N//2 (``_reflection_blocks``) as
    ``BlockGroup``s by width in order of first (momentum, parity).  A group's entries are built
    when it is, so no other group's entries are held meanwhile."""
    blocks, widths, entries = _reflection_blocks(n_sites, sector)
    groups = {}
    for b in np.flatnonzero(widths).tolist():
        groups.setdefault(int(widths[b]), []).append(b)
    layout = []
    for width, members in groups.items():
        flats, seps, amplitudes = zip(*map(entries, members))
        flat = np.concatenate([i * width ** 2 + f for i, f in enumerate(flats)])
        layout.append(BlockGroup(tuple((sector, *blocks[b]) for b in members),
                                 (len(members), width, width), *map(read_only, (
                                     flat, np.concatenate(seps), np.concatenate(amplitudes)))))
    return tuple(layout)
