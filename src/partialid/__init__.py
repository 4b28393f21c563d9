"""Partial-identification estimators for treatment-effect models.

Submodules
----------
sets        closed interval unions and super-level set extraction
datamodel   samples, CSV loaders, tuning values per run
density     kernel estimates of signed sub-density differences
latepoint   trimmed complier-mean contrast: estimate, variance, intervals
latebounds  complier-mass-gap regimes, thresholds, interval bounds
simplex     the tests' LP oracle, importable for the benchmark
roy         binary self-selection model: refutability, loss, bounds
structures  refutability/confirmability algebra on finite spaces
dilation    bootstrap sup-norm dilations and interval-data set inference
simulate    normal designs, their exact truth, coverage drivers
cli         command-line interface (`partialid`)

The package root re-exports every submodule's public names, and loads
lazily (PEP 562): ``import partialid`` imports no submodule and no numpy,
and the first use of a name imports the submodule that owns it.  The
package needs numpy and the standard library only.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names the root re-exports from it
_EXPORTS = {
    "errors": ("ConfigError", "DataError", "InternalConsistencyError",
               "PartialIdError", "WeakIdentificationError"),
    "sets": ("IntervalUnion", "superlevel_set"),
    "datamodel": ("RunConfig", "Sample", "default_empirical_config",
                  "default_simulation_config", "default_threshold",
                  "load_intervals_csv", "load_sample_csv",
                  "theorem_bandwidth", "theorem_trimming"),
    "density": ("DensityEstimate", "default_grid", "estimate_density_diff",
                "kernel_sum"),
    "latepoint": ("LateEstimate", "TailSpec", "check_iam_implication",
                  "conservative_union_ci", "estimate_late",
                  "estimate_trimmed_sets", "known_tail_estimate",
                  "late_variance", "wald_estimate"),
    "latebounds": ("BoundEstimate", "DeltaEstimate", "estimate_bounds",
                   "estimate_delta"),
    "roy": ("RoyDistribution", "build_polyhedron", "check_roy_refutable",
            "min_efficiency_loss", "potential_outcome_bounds"),
    "structures": ("FiniteStructureSpace", "binary_decidability",
                   "check_extension", "complete_space", "confirmable_sets",
                   "load_space_json", "nonrefutable_sets"),
    "dilation": ("CharacterizingFunction", "bootstrap_critical_value",
                 "confidence_region", "estimated_identified_set",
                 "interval_data_stats", "interval_mean_model"),
    "simulate": ("CoverageResult", "HalfDensity", "SimDesign", "draw_sample",
                 "run_coverage", "true_identified_late"),
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}

__all__ = sorted([*_EXPORTS, *_OWNER])


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted([*__all__, *(n for n in globals() if n.startswith("__"))])
