"""The program names that the benchmark's traced replays patch and call.

`perfbench/tracer.py` swaps module attributes of the package for timing
wrappers and reads some of their positional arguments; a rename or an
argument removal there breaks `perfbench/run.py --trace 1` only at run
time.  These checks catch it with the unit tests.
"""

import ast
import glob
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


def test_union_result_keys_the_tracer_and_cli_read():
    # `_counts` reads result["feasible"]; the CLI reports "ci" as a pair
    from partialid.datamodel import build_empirical
    from partialid.density import Kernel, default_grid, estimate_density_diff
    from partialid.latepoint import conservative_union_ci
    from conftest import make_sample

    sample = make_sample(800, seed=4)
    band = (-1.0, 6.0)
    est = estimate_density_diff(build_empirical(sample), sample, Kernel(),
                                0.4, default_grid(band, 0.4))
    res = conservative_union_ci(sample, est, 0.3, band,
                                threshold_scale="relative")
    assert type(res["feasible"]) is int and 1 <= res["feasible"] <= 16
    assert isinstance(res["ci"], tuple) and len(res["ci"]) == 2
    assert res["ci"][0] <= res["ci"][1]


def partialid_imports(tree):
    """(module, name) of every ``from partialid... import name`` in the
    tree, and in every string constant that parses as code, such as the
    set-up code a workload hands to a fresh interpreter."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "partialid":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value)
            except SyntaxError:
                continue
            yield from partialid_imports(inner)


def test_every_name_the_benchmark_imports_exists():
    found = set()
    for path in glob.glob(os.path.join(ROOT, "perfbench", "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found.update((os.path.basename(path), module, name)
                     for module, name in partialid_imports(tree))
    # the coverage workload's set-up string is read as well
    assert ("wl_coverage.py", "partialid.simulate", "SimDesign") in found
    missing = [
        entry for entry in sorted(found)
        if not hasattr(importlib.import_module(entry[1]), entry[2])
        and importlib.util.find_spec(f"{entry[1]}.{entry[2]}") is None]
    assert not missing
