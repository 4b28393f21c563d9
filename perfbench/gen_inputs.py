"""Seeded input generator for the benchmark.

Every input the program receives is written here from a seed, with numpy
only, so a change to the program never changes its inputs.  Run it alone to
look at the files:

    python3 perfbench/gen_inputs.py --seed 3 --out .bench_build/look
"""

from __future__ import annotations

import argparse
import json
import math
import os

import numpy as np

# (Pr(Z=1), cells given Z=1, cells given Z=0); each cell maps d to
# (mass, mean, sd) of a Gaussian half-density.
SEC33 = (0.6,
         {0: (0.5, 3.0, 1.0), 1: (0.5, 3.0, 1.0)},
         {0: (0.5, 2.5, math.sqrt(3.0)), 1: (0.5, 2.5, math.sqrt(3.0))})
# Complier masses that differ by several kappa_n, so `late bounds` lands in
# the "above" regime for n >= 5k and runs the threshold and bound-variance
# code, which the sec33 design never reaches.
GAP = (0.5,
       {1: (0.7, 3.0, 1.0), 0: (0.3, 0.0, 1.0)},
       {1: (0.3, 3.0, 3.0), 0: (0.7, 0.0, 1.0)})

SEC33_N = 10_000
GAP_N = 5_000
ROUNDED_N = 5_000
SMALL_N = 2_000
INTERVALS_N = 1_000
ROY_DRAWS = 100_000
ROY_REFUTED_DRAWS = 200

# `roy bounds` vectors: the README example for the CLI mix, and the vector
# on which the closed-form upper bound disagrees with its LP (exit 2), which
# only the known-defect probe runs.
ROY_CELLS_OK = "0.1,0.15,0.1,0.1,0.2,0.05,0.15,0.15"
ROY_CELLS_REFUTED = "0.0576,0.0915,0.1122,0.1318,0.3133,0.0164,0.1568,0.1204"


def draw_yzd(rng, n, design):
    """n draws of (y, d, z) from a two-arm Gaussian half-density design."""
    pr_z1, arm1, arm0 = design
    z = (rng.random(n) < pr_z1).astype(np.int64)
    d = np.empty(n, dtype=np.int64)
    y = np.empty(n)
    for zval, cells in ((1, arm1), (0, arm0)):
        idx = np.flatnonzero(z == zval)
        d[idx] = rng.random(idx.size) < cells[1][0]
        for dval in (0, 1):
            sub = idx[d[idx] == dval]
            _, mean, sd = cells[dval]
            y[sub] = rng.normal(mean, sd, sub.size)
    return y, d, z


def write_yzd(path, y, d, z, decimals=None):
    fmt = repr if decimals is None else (lambda v: f"{v:.{decimals}f}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("y,d,z\n")
        for yi, di, zi in zip(y.tolist(), d.tolist(), z.tolist()):
            fh.write(f"{fmt(yi)},{di},{zi}\n")


def write_intervals(path, rng, n):
    lo = rng.normal(0.0, 1.0, n)
    hi = lo + rng.exponential(1.0, n)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("y_l,y_u\n")
        for a, b in zip(lo.tolist(), hi.tolist()):
            fh.write(f"{a!r},{b!r}\n")


def write_space(path, rng, n_outcomes=6, n_structures=10):
    """A small random structure space with theta labels and an assumption."""
    outcomes = [f"o{k}" for k in range(n_outcomes)]
    structures = []
    for k in range(n_structures):
        size = int(rng.integers(1, n_outcomes + 1))
        predicts = sorted(rng.choice(outcomes, size=size, replace=False).tolist())
        structures.append({"name": f"s{k}", "predicts": predicts,
                           "theta": f"t{int(rng.integers(0, 3))}"})
    names = [s["name"] for s in structures]
    assumption = sorted(rng.choice(names, size=n_structures // 2,
                                   replace=False).tolist())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"outcomes": outcomes, "structures": structures,
                   "assumption": assumption}, fh, indent=1, sort_keys=True)


def roy_cells(seed, count):
    """Flat-Dirichlet 8-cell distributions p[y, d, z], split by whether they
    refute efficient selection, Pr(Y=0 | Z=1) > Pr(Y=0 | Z=0).

    Returns (the first ``count`` draws the model admits, the first
    ROY_REFUTED_DRAWS refuted ones), each of shape (k, 2, 2, 2).
    """
    rng = np.random.default_rng([seed, 8])
    admitted, refuted = [], []
    have = 0
    while have < count:
        # small chunks, so the peak memory does not depend on the seed
        p = rng.dirichlet(np.ones(8), size=10_000).reshape(-1, 2, 2, 2)
        slack = (p[:, 0, :, 0].sum(axis=1) / p[:, :, :, 0].sum(axis=(1, 2))
                 - p[:, 0, :, 1].sum(axis=1) / p[:, :, :, 1].sum(axis=(1, 2)))
        admitted.append(p[slack >= 0])
        if sum(len(r) for r in refuted) < ROY_REFUTED_DRAWS:
            refuted.append(p[slack < 0])
        have += len(admitted[-1])
    return (np.concatenate(admitted)[:count],
            np.concatenate(refuted)[:ROY_REFUTED_DRAWS])


def write_cli_inputs(out, seed, scale=1.0):
    """Files for one pass of the CLI mix; ``scale`` shrinks them for smoke runs."""
    os.makedirs(out, exist_ok=True)
    rng = np.random.default_rng([seed, 1])
    size = lambda n: max(200, int(n * scale))
    write_yzd(os.path.join(out, "sec33.csv"), *draw_yzd(rng, size(SEC33_N), SEC33))
    write_yzd(os.path.join(out, "gap.csv"), *draw_yzd(rng, size(GAP_N), GAP))
    write_yzd(os.path.join(out, "rounded.csv"),
              *draw_yzd(rng, size(ROUNDED_N), SEC33), decimals=1)
    write_yzd(os.path.join(out, "small.csv"), *draw_yzd(rng, size(SMALL_N), SEC33))
    write_intervals(os.path.join(out, "intervals.csv"), rng, size(INTERVALS_N))
    write_space(os.path.join(out, "space.json"), rng)


def write_roy_inputs(out, seed, count=ROY_DRAWS):
    os.makedirs(out, exist_ok=True)
    admitted, refuted = roy_cells(seed, count)
    np.save(os.path.join(out, "roy_cells.npy"), admitted)
    np.save(os.path.join(out, "roy_refuted.npy"), refuted)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    write_cli_inputs(args.out, args.seed)
    write_roy_inputs(args.out, args.seed)


if __name__ == "__main__":
    main()
