"""Exact diagonalization and two-spin entanglement for spin-1/2 rings
with power-law pair couplings."""

from .model import (INFINITY, HamiltonianMatrix, RingSizeError, RingSpec,
                    SectorBlock, Variant, build_hamiltonian, build_sector_blocks,
                    chord_distance, coupling_weight, separation_weights,
                    top_eigenspace_basis, total_weight, variant_map)
from .spectra import (EigensolverError, IllConditionedError, Level, MomentumDecomposition,
                      SpectralDecomposition, UniformEigenstate, diagonalize, energy_levels,
                      lagrange_projector, momentum_decomposition, overlap_matrix, projector,
                      uniform_state)
from .entanglement import (ConcurrenceRecord, PairStateWarning, StructureError,
                           TwoSpinState, concurrence_structured, concurrence_xstate_oracle,
                           extract_abc, meyer_wallach, oliveira_global, pair_concurrence,
                           reduce_one_site, reduce_sites, reduce_two_sites, werner_measures)
from .analysis import (CONCURRENCE_THRESHOLD_DEFAULT, CrossingEvent, CurveCensus,
                       CurveEntanglement, InsufficientDataError, LevelCurve,
                       LinearFit, SweepError, SweepPoint, SweepResult,
                       count_distinct_levels, default_alpha_grid,
                       distance_selectivity_check, entangled_level_census,
                       entangled_projector_census, entanglement_boundaries,
                       find_last_crossing, locate_crossing, nn_linear_fit,
                       projector_dimension_histogram, separation_existence_intervals,
                       separation_gaps, sweep)
from .serialize import SCHEMA_VERSION, atomic_write, emit_json, format_real, parse_real

__version__ = "0.1.0"
