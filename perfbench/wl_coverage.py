"""`coverage`: in-process Monte Carlo coverage studies of the trimmed
complier-mean intervals, as a researcher runs them.

No CSV load, tuning rule, import or LP runs in the timed part, so this
workload isolates the density fit and the estimators (`density`,
`latepoint`, `simulate`): a change to the tuning step or the import should
leave it unchanged.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics

import harness
import report
from harness import Result
from tracer import Tracer

NAME = "coverage"
N = 5_000
M = 10  # replications per run_coverage call
B, H = 0.12, 0.2
TRUTH = 1.7438122814589743  # quadrature value of the design's contrast
# (config name, estimator, threads); one round runs each once, same seed.
CONFIGS = [("known_t1", "known", 1), ("known_t2", "known", 2),
           ("union_t2", "union", 2)]
# Round seeds cycle through a pool whose results were recorded at the
# parent commit; a run starts at a seed-dependent offset.
POOL = 128
SETUP_CODE = ("from partialid.simulate import SimDesign, true_identified_late; "
              "true_identified_late(SimDesign.sec33())")


def design_setup():
    from partialid.simulate import SimDesign, true_identified_late
    design = SimDesign.sec33()
    return design, true_identified_late(design)


def config(design, n):
    from partialid.datamodel import default_simulation_config
    cfg = default_simulation_config(n, design.band, tails=design.tails)
    return dataclasses.replace(cfg, b=B, h=H)


def summary(result):
    """What is compared with the parent: counts exactly, sums within 1e-9."""
    records = result.records
    est = [r["estimate"] for r in records if r["estimate"] is not None]
    cis = [r["ci"] for r in records if r["ci"] is not None]
    return {"covered": sum(1 for r in records if r["covered"]),
            "errors": result.n_errors,
            "sum_estimate": sum(est),
            "sum_ci_lo": sum(c[0] for c in cis),
            "sum_ci_hi": sum(c[1] for c in cis)}


def check(res, label, result, ref):
    res.attempted += 1
    got = summary(result)
    problem = None
    if not harness.close(result.truth, TRUTH):
        problem = f"truth {result.truth!r} != {TRUTH!r}"
    elif ref is not None:
        res.checked += 1
        for key, want in ref.items():
            same = (got[key] == want if isinstance(want, int)
                    else harness.close(got[key], want))
            if not same:
                problem = f"{key} {got[key]!r} != parent {want!r}"
                break
    if problem:
        res.failed += 1
        res.problems.append(f"{label}: {problem}")


def load_refs():
    with open(os.path.join(harness.REFS, "coverage.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run(seed, seconds, trace, tiny=False):
    from partialid.simulate import run_coverage
    res = Result(NAME, "bulk")
    res.add("setup_s", harness.probe_seconds(SETUP_CODE, res.speed), "s",
            harness.PROBE_REPEATS,
            "fresh import + SimDesign.sec33() + true_identified_late")
    design, truth = design_setup()
    if not harness.close(truth, TRUTH):
        res.problems.append(f"design truth {truth!r} != {TRUTH!r}")
    n, m = (500, 2) if tiny else (N, M)
    cfg = config(design, n)
    refs = None if tiny else load_refs()
    offset = (seed * 37) % POOL

    def one_round(r, tracer=None):
        """Reference seconds of each configuration's call."""
        pool_seed = (offset + r) % POOL
        times = {}
        for label, estimator, threads in CONFIGS:
            if tracer is None:
                result, wall, factor = res.speed.time(
                    run_coverage, design, estimator, n, m, cfg,
                    seed=pool_seed, threads=threads)
            else:
                result, wall, factor = res.speed.time(
                    tracer.call, "simulate.run_coverage", run_coverage,
                    design, estimator, n, m, cfg, seed=pool_seed,
                    threads=threads, spawns_threads=threads > 1)
            times[label] = wall * factor
            check(res, f"{label} round seed {pool_seed}", result,
                  None if refs is None else refs[str(pool_seed)][estimator])
        return times

    if trace:
        replay(res, one_round, seconds)
        return res

    rounds = harness.closed_loop(one_round, seconds)
    totals = [sum(t.values()) for t in rounds]
    res.add("ops_per_s", len(totals) / sum(totals), "1/s", len(totals),
            f"an op is a round of {len(CONFIGS)} run_coverage calls of {m} reps")
    res.add("op_p50_s", statistics.median(totals), "s", len(totals))
    value, pct, count = harness.tail(totals)
    res.add("op_tail_s", value, "s", count, f"p{pct:.1f}")
    for label, metric in (("known_t1", "known_reps_per_s_t1"),
                          ("known_t2", "known_reps_per_s_t2"),
                          ("union_t2", "union_reps_per_s_t2")):
        reps = m * len(rounds)
        res.add(metric, reps / sum(t[label] for t in rounds), "1/s", reps,
                f"n={n}")
    res.add("peak_rss_mb", harness.self_peak_mb(), "MB", 1, "benchmark process")
    return res


def replay(res, one_round, seconds):
    """The design set-up span, then each round untraced and traced, for
    half the run each."""
    tracer = Tracer()
    with tracer.patched():
        tracer.op = "setup"
        tracer.call("simulate.design_setup", design_setup)

    def traced_round(r):
        with tracer.patched():
            tracer.op = r
            with tracer.span("op"):
                return sum(one_round(r, tracer).values())

    def paired(r):
        return harness.paired(r, lambda: sum(one_round(r).values()),
                              lambda: traced_round(r))

    pairs = harness.closed_loop(paired, seconds)
    report.layer_metrics(res, tracer, [t for _, t in pairs],
                         [t for t, _ in pairs])
