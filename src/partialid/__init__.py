"""Partial-identification estimators for treatment-effect models.

Submodules
----------
sets        closed interval unions and super-level set extraction
datamodel   samples, instrument-arm frequencies, tuning values per run
density     kernel estimates of signed sub-density differences
latepoint   trimmed complier-mean contrast: estimate, variance, intervals
latebounds  complier-mass-gap regimes, thresholds, interval bounds
simplex     dense two-phase linear-programming solver
roy         binary self-selection model: refutability, loss, bounds
structures  refutability/confirmability algebra on finite spaces
dilation    bootstrap sup-norm dilations and interval-data set inference
simulate    normal designs, their exact truth, coverage drivers
cli         command-line interface (`partialid`)

The package root re-exports every submodule's public names.  The package
loads numpy and the standard library only.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DataError, InternalConsistencyError,
                     PartialIdError, WeakIdentificationError)
from .sets import IntervalUnion, superlevel_set
from .datamodel import (EmpiricalPQ, RunConfig, Sample, build_empirical,
                        default_empirical_config, default_simulation_config,
                        default_threshold, load_intervals_csv,
                        load_sample_csv, theorem_bandwidth, theorem_trimming)
from .density import (DensityEstimate, Kernel, cell_sum, default_grid,
                      estimate_density_diff)
from .latepoint import (LateEstimate, TailSpec, TrimmedSet,
                        check_iam_implication, conservative_union_ci,
                        estimate_late, estimate_trimmed_sets,
                        known_tail_estimate, late_variance, wald_estimate)
from .latebounds import (BoundEstimate, DeltaEstimate, bound_variance,
                         estimate_bounds, estimate_delta, estimate_threshold)
from .simplex import InfeasibleError, UnboundedError, solve_lp
from .roy import (RoyDistribution, build_polyhedron, check_roy_refutable,
                  min_efficiency_loss, optimize_functional,
                  potential_outcome_bounds)
from .structures import (FiniteStructureSpace, binary_decidability,
                         check_extension, complete_space, confirmable_sets,
                         load_space_json, nonrefutable_sets)
from .dilation import (CharacterizingFunction, bootstrap_critical_value,
                       confidence_region, estimated_identified_set,
                       interval_data_stats, interval_mean_distance,
                       interval_mean_model)
from .simulate import (CoverageResult, HalfDensity, SimDesign, draw_sample,
                       run_coverage, true_identified_late)

__all__ = [name for name in dir() if not name.startswith("_")]
