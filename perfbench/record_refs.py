"""Record the reference outputs the benchmark checks against.

Run at the commit whose outputs are the reference (the parent of a change
under test), from the checkout root:

    python3 perfbench/record_refs.py cli-mix
    python3 perfbench/record_refs.py coverage

It writes perfbench/refs/cli_mix.json (every op's exit code, last stderr
line and parsed report for each pool seed) and perfbench/refs/coverage.json
(per pool seed and estimator: covered and error counts, sums of estimates
and interval ends).
"""

from __future__ import annotations

import json
import os
import sys

sys.pycache_prefix = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), ".bench_build", "pycache")

import harness  # noqa: E402
import wl_cli_mix  # noqa: E402
import wl_coverage  # noqa: E402


def record_cli_mix():
    refs = {}
    for pool_seed in range(wl_cli_mix.POOL):
        rel, digest = wl_cli_mix.prepare(pool_seed)
        ops = {}
        for name, _, argv in wl_cli_mix.OPS + wl_cli_mix.KNOWN_DEFECTS:
            _, rc, out, err, _ = harness.run_child(
                [sys.executable, "-m", "partialid.cli"]
                + wl_cli_mix.op_argv(rel, argv))
            ops[name] = {"rc": rc, "error": wl_cli_mix.last_line(err) if rc else "",
                         "report": json.loads(out) if rc == 0 else None}
        refs[str(pool_seed)] = {"inputs_sha256": digest, "ops": ops}
        print(f"cli-mix pool seed {pool_seed}: "
              f"{sum(o['rc'] != 0 for o in ops.values())} failing ops", flush=True)
    return refs


def record_coverage():
    harness.use_checkout_sources()
    from partialid.simulate import run_coverage
    design, _ = wl_coverage.design_setup()
    cfg = wl_coverage.config(design, wl_coverage.N)
    refs = {}
    for pool_seed in range(wl_coverage.POOL):
        refs[str(pool_seed)] = {
            estimator: wl_coverage.summary(run_coverage(
                design, estimator, wl_coverage.N, wl_coverage.M, cfg,
                seed=pool_seed, threads=2))
            for estimator in ("known", "union")}
    return refs


def main():
    which = sys.argv[1]
    harness.build()
    refs, name = {"cli-mix": (record_cli_mix, "cli_mix.json"),
                  "coverage": (record_coverage, "coverage.json")}[which]
    write(os.path.join(harness.REFS, name), refs())


def write(path, refs):
    """One line per pool seed."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
            for key, value in sorted(refs.items(), key=lambda kv: int(kv[0])))
            + "\n}\n")


if __name__ == "__main__":
    main()
