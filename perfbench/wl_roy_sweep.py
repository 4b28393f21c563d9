"""`roy-sweep`: refutability check and sharp potential-outcome bounds on
seeded flat-Dirichlet 8-cell distributions, in process.

About 99% of a draw is the four LPs that cross-check the closed form, so
this is the workload that measures `roy` and `simplex`; in `cli-mix` they
hide under the import.  The timed draws are those the model admits: on
refuted draws the closed form can disagree with the LP and raise, a known
defect that a probe of refuted draws, outside the counted ops, reports.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

import gen_inputs
import harness
import report
from harness import Result
from tracer import Tracer

NAME = "roy-sweep"
# Draws of each batch checked against HiGHS, spread evenly over it.
ORACLE_PER_BATCH = 2
# Draws per op: single draws are a mixture of fast and slow LP paths whose
# median jumps between them as the machine's speed drifts.
BATCH = 100


def _cell(d, y, k, z):
    return int(np.ravel_multi_index((d, y, k, z), (2, 2, 2, 2)))


def highs_bounds(dist):
    """Pr(Y(1)=1 | Z=z) bounds from scipy's HiGHS on the program's LP."""
    from partialid.roy import build_polyhedron
    from scipy.optimize import linprog
    a_eq, b_eq, a_ub, b_ub = build_polyhedron(dist)
    out = {}
    for z in (0, 1):
        c = np.zeros(16)
        for d in (0, 1):
            for k in (0, 1):
                c[_cell(d, 1, k, z)] = 1.0
        pz = float(dist.p[:, :, z].sum())
        ends = []
        for sign in (1.0, -1.0):
            sol = linprog(sign * c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                          bounds=(0, None), method="highs")
            if sol.status != 0:
                raise RuntimeError(f"HiGHS failed: {sol.message}")
            ends.append(sign * sol.fun / pz)
        out[f"z{z}"] = tuple(ends)
    return out


def load_cells(seed, tiny):
    """(admitted draws, refuted draws) for the seed."""
    rel = os.path.join(".bench_build", "inputs", f"roy-{'tiny-' if tiny else ''}{seed}")
    path = os.path.join(harness.ROOT, rel)
    gen_inputs.write_roy_inputs(path, seed, 2_000 if tiny else gen_inputs.ROY_DRAWS)
    return (np.load(os.path.join(path, "roy_cells.npy")),
            np.load(os.path.join(path, "roy_refuted.npy")))


def known_defect(res, refuted_cells):
    """Untimed and not counted as ops: how many refuted draws still make
    `potential_outcome_bounds` raise (ROADMAP item 2)."""
    from partialid.errors import InternalConsistencyError
    from partialid.roy import RoyDistribution, potential_outcome_bounds
    raised = 0
    for p in refuted_cells:
        try:
            potential_outcome_bounds(RoyDistribution(p))
        except InternalConsistencyError:
            raised += 1
    res.add("known_defect_raise_share", raised / len(refuted_cells), "share",
            len(refuted_cells), "refuted draws whose bounds raise; not an op")


def run(seed, seconds, trace, tiny=False):
    from partialid.errors import InternalConsistencyError
    from partialid.roy import (RoyDistribution, check_roy_refutable,
                               potential_outcome_bounds)
    res = Result(NAME, "small")
    res.add("setup_s", harness.probe_seconds("import partialid.roy", res.speed),
            "s", harness.PROBE_REPEATS, "fresh `import partialid.roy`")
    cells, refuted_cells = load_cells(seed, tiny)
    known_defect(res, refuted_cells)

    def one_draw(i, tracer):
        dist = RoyDistribution(cells[i % len(cells)])
        refuted = check_roy_refutable(dist)["refuted"]
        try:
            if tracer is None:
                bounds = potential_outcome_bounds(dist)
            else:
                tracer.call("roy.closed_form", potential_outcome_bounds, dist,
                            verify=False)
                bounds = tracer.call("roy.potential_outcome_bounds",
                                     potential_outcome_bounds, dist)
        except InternalConsistencyError:
            bounds = None
        return dist, refuted, bounds

    def one_batch(b, tracer=None, check=True):
        """Reference seconds of batch b; its draws are checked after the
        timing and then dropped, so memory does not grow with the run."""
        def draws():
            out = []
            for i in range(b * BATCH, (b + 1) * BATCH):
                if tracer is None:
                    out.append(one_draw(i, None))
                else:
                    tracer.op = i
                    with tracer.span("op"):
                        out.append(one_draw(i, tracer))
            return out
        done, wall, factor = res.speed.time(draws)
        if check:
            _check(res, done)
        return wall * factor

    if trace:
        tracer = Tracer()

        def traced_batch(b):
            with tracer.patched():
                return one_batch(b, tracer)

        def paired(b):
            return harness.paired(b, lambda: one_batch(b, check=False),
                                  lambda: traced_batch(b))

        pairs = harness.closed_loop(paired, seconds)
        report.layer_metrics(res, tracer, [t for _, t in pairs],
                             [t for t, _ in pairs])
        return res

    times = harness.closed_loop(one_batch, seconds)
    res.add("ops_per_s", len(times) / sum(times), "1/s", len(times),
            f"an op is a batch of {BATCH} draws")
    res.add("op_p50_s", statistics.median(times), "s", len(times))
    value, pct, n = harness.tail(times)
    res.add("op_tail_s", value, "s", n, f"p{pct:.1f}")
    res.add("peak_rss_mb", harness.self_peak_mb(), "MB", 1, "benchmark process")
    return res


def _check(res, draws):
    """Every draw is admitted: the verdict must be "not refuted" and the
    bounds must not raise; the bounds of ORACLE_PER_BATCH draws spread over
    the batch must match HiGHS within 1e-9."""
    for k, (dist, refuted, bounds) in enumerate(draws):
        res.attempted += 1
        if refuted:
            res.failed += 1
            res.problems.append(f"admitted draw judged refuted: {dist.p.ravel().tolist()}")
            continue
        if bounds is None:
            res.failed += 1
            res.problems.append(f"bounds raised: {dist.p.ravel().tolist()}")
            continue
        if k % (len(draws) // ORACLE_PER_BATCH or 1):
            continue
        res.checked += 1
        want = highs_bounds(dist)
        for z in ("z0", "z1"):
            if any(abs(a - b) > 1e-9 for a, b in zip(bounds[z], want[z])):
                res.failed += 1
                res.problems.append(f"{z} bounds {bounds[z]} != HiGHS {want[z]} "
                                    f"for {dist.p.ravel().tolist()}")
                break
