"""Shared fixtures: deterministic synthetic samples, CSV writers, the
benchmark's input generator, and the Roy bounds' LP oracle."""

import importlib.util
import os

import numpy as np
import pytest

from partialid.datamodel import Sample
from partialid.roy import _cell_index, build_polyhedron
from partialid.simplex import solve_lp


def make_sample(n=400, seed=0, effect=1.0):
    """Simple instrumented-treatment sample with a positive effect.

    Z is a fair coin, D follows Z with 80% probability, and Y is a
    Gaussian outcome shifted by ``effect`` under treatment.
    """
    rng = np.random.default_rng(seed)
    z = (rng.random(n) < 0.5).astype(int)
    comply = rng.random(n) < 0.8
    d = np.where(comply, z, 1 - z)
    y = rng.normal(2.0, 1.0, n) + effect * d
    return Sample(y=y, d=d.astype(int), z=z)


def gen_inputs():
    """``perfbench/gen_inputs.py``, which writes the benchmark's inputs."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "gen_inputs.py")
    spec = importlib.util.spec_from_file_location("perfbench_gen_inputs",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def objective_vector(z):
    """Coefficients of Pr(Y(1)=1, Z=z) as a functional of the 16 Roy cell
    masses C[d, y, k, z]."""
    c = np.zeros(16)
    for d in (0, 1):
        for k in (0, 1):
            c[_cell_index(d, 1, k, z)] = 1.0
    return c


def simplex_bounds(dist):
    """The LP oracle for ``potential_outcome_bounds``: the ends of
    Pr(Y(1)=1 | Z=z), z = 0 and 1, from the bundled simplex on
    ``build_polyhedron``, as ``{"z0": (lo, hi), "z1": (lo, hi)}``."""
    a_eq, b_eq, a_ub, b_ub = build_polyhedron(dist)
    out = {}
    for z in (0, 1):
        c = objective_vector(z)
        lo = solve_lp(c, A_eq=a_eq, b_eq=b_eq, A_ub=a_ub, b_ub=b_ub)[0]
        hi = -solve_lp(-c, A_eq=a_eq, b_eq=b_eq, A_ub=a_ub, b_ub=b_ub)[0]
        out[f"z{z}"] = (lo / dist.pr_z(z), hi / dist.pr_z(z))
    return out


def write_sample_csv(path, sample):
    rows = ["y,d,z"]
    rows += [f"{yi},{di},{zi}" for yi, di, zi in
             zip(sample.y, sample.d, sample.z)]
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.fixture
def sample():
    return make_sample()


@pytest.fixture
def sample_csv(tmp_path, sample):
    return write_sample_csv(tmp_path / "sample.csv", sample)
