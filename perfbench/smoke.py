"""Smoke test of the benchmark at tiny sizes (about three minutes).

    python3 perfbench/smoke.py

Runs every workload untraced and traced with `--tiny`, and checks that the
table names every metric with its unit and that the last line holds
exactly the metrics BENCHMARK.json lists, each with its unit.  Tiny inputs
have no recorded references, so this checks the harness, not the program.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Untraced table metrics of each workload besides the BENCHMARK.json ones.
TABLE = {
    "cli-mix": {"failed_share": "share", "late_p50_s": "s",
                "dilate_p50_s": "s", "startup_p50_s": "s",
                "known_defect_ops_failing": "count"},
    "coverage": {"failed_share": "share", "known_reps_per_s_t1": "1/s",
                 "known_reps_per_s_t2": "1/s", "union_reps_per_s_t2": "1/s"},
    "roy-sweep": {"failed_share": "share", "known_defect_raise_share": "share"},
}


def table_units(stdout):
    """{metric: unit} from the printed table."""
    units = {}
    for line in stdout.splitlines()[1:]:
        cols = line.split()
        if len(cols) >= 4 and not line.startswith("#") and not line.startswith("{"):
            units[cols[1]] = cols[3]
    return units


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = []
    for workload in TABLE:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", "1", "--seconds", "2", "--trace",
                 str(trace), "--tiny"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{where}: exit {proc.returncode}")
                continue
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{where}: last line keys {sorted(last)}")
            listed = spec["per_layer" if trace else "end_to_end"]
            if sorted(last["metrics"]) != sorted(m["name"] for m in listed):
                failures.append(f"{where}: last line metrics differ from "
                                "BENCHMARK.json")
            units = table_units(proc.stdout)
            wanted = {m["name"]: m["unit"] for m in listed}
            if not trace:
                wanted.update(TABLE[workload])
            for name, unit in wanted.items():
                got = last["metrics"].get(name, {}).get("unit", unit)
                if units.get(name) is None or units[name] != unit or got != unit:
                    failures.append(f"{where}: {name} printed with unit "
                                    f"{units.get(name)!r}, last line {got!r}, "
                                    f"expected {unit!r}")
            print(f"{where}: {len(units)} metrics printed", flush=True)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
