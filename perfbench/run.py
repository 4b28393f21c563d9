"""Benchmark for partialid: seeded workloads, checked outputs, end-to-end
and per-layer metrics.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, full table

Run from anywhere inside a checkout; the program is imported from its
`src/`.  Each run prints a table (workload, metric, value, unit, sample
count, output check) and, as its last line, one JSON object with keys
`correct`, `attempted`, `failed` and `metrics`: the `end_to_end` metrics of
BENCHMARK.json with `--trace 0`, its `per_layer` metrics with `--trace 1`.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# keep this directory free of bytecode caches
sys.pycache_prefix = os.path.join(ROOT, ".bench_build", "pycache")

import harness  # noqa: E402
import report  # noqa: E402
import wl_cli_mix  # noqa: E402
import wl_coverage  # noqa: E402
import wl_roy_sweep  # noqa: E402

WORKLOADS = {m.NAME: m for m in (wl_cli_mix, wl_coverage, wl_roy_sweep)}


def contract_metrics(res, trace):
    """The metrics BENCHMARK.json names for this mode, as {name: {value, unit}}."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [n for n in names if n not in res.metrics]
    if missing:
        raise RuntimeError(f"{res.workload} did not measure {missing}")
    return {n: {"value": res.metrics[n].value, "unit": res.metrics[n].unit}
            for n in names}


def finish(res):
    """Metrics every workload reports from its op counts and its speed
    samples."""
    res.add("speed_factor", res.speed.factor(), "x", len(res.speed.samples),
            "run median; wall seconds = reference seconds / factor")
    if res.attempted:
        res.add("failed_share", res.failed / res.attempted, "share", res.attempted)


def main(argv=None):
    parser = argparse.ArgumentParser(description="partialid benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: each in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, no reference checks (smoke test)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(harness.SRC, "partialid", "cli.py")):
        print(f"error: no program sources under {harness.SRC}", file=sys.stderr)
        return 2
    os.chdir(harness.ROOT)
    if args.workload is None:
        return run_all(args)
    harness.use_checkout_sources()
    harness.build()
    res = WORKLOADS[args.workload].run(args.seed, args.seconds,
                                       bool(args.trace), tiny=args.tiny)
    finish(res)
    report.print_table([res])
    print(json.dumps({"correct": res.correct, "attempted": res.attempted,
                      "failed": res.failed,
                      "metrics": contract_metrics(res, args.trace)}))
    return 0


def run_all(args):
    """Every workload in its own process, so each peak RSS is its own; the
    last line nests each workload's metrics under its name."""
    lines = {}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        *table, last = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(table), flush=True)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        lines[name] = json.loads(last)
    print(json.dumps({
        "correct": all(r["correct"] for r in lines.values()),
        "attempted": sum(r["attempted"] for r in lines.values()),
        "failed": sum(r["failed"] for r in lines.values()),
        "metrics": {name: r["metrics"] for name, r in lines.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
