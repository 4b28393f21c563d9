"""Per-layer metrics from a traced replay, and the printed tables."""

from __future__ import annotations

import os

import harness
from tracer import LAYERS

# Fresh-process import probes: (metric, module).
IMPORT_PROBES = [
    ("cli.import_s", "partialid.cli"),
    ("cli.import_numpy_s", "numpy"),
    ("cli.import_scipy_stats_s", "scipy.stats"),
    ("cli.import_scipy_optimize_s", "scipy.optimize"),
    ("cli.import_scipy_integrate_s", "scipy.integrate"),
]

# From boundary counts: (metric, layer, numerator, denominator, unit); a
# denominator of None reports the count itself, "calls" the layer's calls.
RATIOS = [
    ("datamodel.default_empirical_config.failed", "datamodel.default_empirical_config",
     "failed", None, "count"),
    ("latepoint.conservative_union_ci.feasible_ratio", "latepoint.conservative_union_ci",
     "feasible", "specs", "share"),
    ("latebounds.estimate_bounds.bound_regime_ratio", "latebounds.estimate_bounds",
     "bound_regime", "calls", "share"),
    ("simulate.run_coverage.error_ratio", "simulate.run_coverage",
     "errors", "reps", "share"),
    ("dilation.confidence_region.kept_ratio", "dilation.confidence_region",
     "kept", "scanned", "share"),
    ("roy.potential_outcome_bounds.failed_ratio", "roy.potential_outcome_bounds",
     "failed", "calls", "share"),
]


def layer_metrics(res, tracer, traced, plain):
    """Add every per-layer metric to res and write the spans out.

    ``traced`` and ``plain`` are the reference seconds of the same
    sequence of ops with and without tracing; ``busy_pct`` is a layer's self
    time as a share of all traced op time.  A layer the workload never reaches
    reports 0 calls, 0 busy time and 0 for its ratios.
    """
    traced_s = sum(traced)
    k = min(len(traced), len(plain))
    busy, calls = tracer.layer_times()
    factor = res.speed.factor()  # spans are in wall seconds
    for name in LAYERS + ["op"]:
        busy[name] *= factor
        res.add(f"{name}.busy_s", busy[name], "s", calls[name])
        res.add(f"{name}.busy_pct", 100.0 * busy[name] / traced_s, "%", calls[name])
        res.add(f"{name}.calls", calls[name], "count", calls[name])
    counts = tracer.counts
    rows = counts["datamodel.load_sample_csv"]["rows"]
    cells = counts["density.estimate_density_diff"]["obs_x_grid"]
    res.add("datamodel.load_sample_csv.rows_per_s",
            rows / busy["datamodel.load_sample_csv"] if rows else 0.0, "1/s",
            calls["datamodel.load_sample_csv"])
    res.add("density.estimate_density_diff.obs_x_grid_per_s",
            cells / busy["density.estimate_density_diff"] if cells else 0.0,
            "1/s", calls["density.estimate_density_diff"],
            "observations x grid points, from array sizes")
    for metric, layer, num, den, unit in RATIOS:
        top = counts[layer][num]
        if den is None:
            value = top
        else:
            bottom = calls[layer] if den == "calls" else counts[layer][den]
            value = top / bottom if bottom else 0.0
        res.add(metric, value, unit, calls[layer])
    for metric, module in IMPORT_PROBES:
        res.add(metric, harness.import_seconds(module, res.speed), "s",
                harness.IMPORT_REPEATS, "fresh process")
    res.add("trace_overhead_pct",
            100.0 * (sum(traced[:k]) / sum(plain[:k]) - 1.0), "%", k,
            f"same {k} ops: traced {sum(traced[:k]):.3f} s, untraced "
            f"{sum(plain[:k]):.3f} s")
    os.makedirs(harness.BUILD, exist_ok=True)
    tracer.write(os.path.join(harness.BUILD, f"spans-{res.workload}.json"))


def print_table(results):
    """One line per metric: workload, metric, value, unit, samples, check."""
    header = ("workload", "metric", "value", "unit", "samples", "check", "note")
    rows = []
    for res in results:
        check = "ok" if res.correct else "FAILED"
        for name, m in res.metrics.items():
            rows.append((res.workload, name, f"{m.value:.6g}", m.unit,
                         str(m.samples), check, m.note))
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(6)]
    for row in [header] + rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)) + "  " + row[6])
    for res in results:
        print(f"# {res.workload}: attempted {res.attempted}, failed "
              f"{res.failed}, checked against references {res.checked}, "
              f"output check {'ok' if res.correct else 'FAILED'}")
        for problem in res.problems:
            print(f"#   {problem}")
