"""The program names that the benchmark's traced replays patch and call.

`perfbench/tracer.py` swaps module attributes of the package for timing
wrappers and reads some of their positional arguments; a rename or an
argument removal there breaks `perfbench/run.py --trace 1` only at run
time.  These checks catch it with the unit tests.
"""

import importlib
import importlib.util
import inspect
import os

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BOUNDARIES = load_tracer().BOUNDARIES


@pytest.mark.parametrize("module_name,attr,span", BOUNDARIES,
                         ids=[f"{m}.{a}" for m, a, _ in BOUNDARIES])
def test_boundary_resolves_to_a_callable(module_name, attr, span):
    module = importlib.import_module(f"partialid.{module_name}")
    assert callable(getattr(module, attr, None)), (module_name, attr)


@pytest.mark.parametrize("qualname,position,parameter", [
    ("density.estimate_density_diff", 1, "sample"),
    ("density.estimate_density_diff", 4, "grid"),
    ("latebounds.estimate_bounds", 3, "delta"),
    ("dilation.confidence_region", 0, "T"),
])
def test_positional_arguments_the_tracer_reads(qualname, position, parameter):
    module_name, name = qualname.split(".")
    fn = getattr(importlib.import_module(f"partialid.{module_name}"), name)
    params = list(inspect.signature(fn).parameters)
    assert params[position] == parameter


def test_roy_bounds_accept_verify_false():
    from partialid.roy import RoyDistribution, potential_outcome_bounds

    cells = [0.1, 0.15, 0.1, 0.1, 0.2, 0.05, 0.15, 0.15]
    dist = RoyDistribution(np.array(cells).reshape(2, 2, 2))
    assert potential_outcome_bounds(dist, verify=False) \
        == potential_outcome_bounds(dist)
