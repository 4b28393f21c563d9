"""`cli-mix`: one-shot CLI reports, each a fresh `python -m partialid.cli`
process timed from spawn to exit, import included.

This is the only workload that measures what an analyst waits for: the
import, the CSV load, the data-driven tuning step, the fit and the report.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
import sys

import gen_inputs
import harness
import report
from harness import Result
from tracer import Tracer

NAME = "cli-mix"
# Inputs come from a pool of seeds whose reports were recorded at the
# parent commit, so every run is checked against them.
POOL = 16
SMALL_SCALE = 0.05

OPS = [
    # (op name, class, argv after `partialid`); paths relative to the inputs
    ("late-point", "late", ["late", "point", "--input", "sec33.csv"]),
    ("late-point-union", "late",
     ["late", "point", "--input", "sec33.csv", "--union"]),
    ("late-bounds", "late", ["late", "bounds", "--input", "sec33.csv"]),
    ("late-test", "late", ["late", "test", "--input", "sec33.csv"]),
    ("gap-late-point", "late", ["late", "point", "--input", "gap.csv"]),
    ("gap-late-bounds", "late", ["late", "bounds", "--input", "gap.csv"]),
    # every tuning value given; `--band=LO,HI` because argparse reads
    # `--band -1,6` as a flag
    ("late-point-overrides", "late",
     ["late", "point", "--input", "sec33.csv", "--b", "0.05", "--h", "0.3",
      "--band=-1,6"]),
    ("late-point-small", "late", ["late", "point", "--input", "small.csv"]),
    ("dilate-region", "dilate",
     ["dilate", "region", "--input", "intervals.csv", "--a=-0.5", "--b=1.5"]),
    ("roy-bounds", "startup", ["roy", "bounds", "--cells", gen_inputs.ROY_CELLS_OK]),
    ("structures-analyze", "startup",
     ["structures", "analyze", "--space", "space.json"]),
]
# Commands that exit 2 because of known defects (ROADMAP items 1 and 2).
# They are not ops, since every op of a workload must succeed: each run
# makes them once, untimed, and reports how many still fail.
KNOWN_DEFECTS = [
    ("late-point-rounded", "late", ["late", "point", "--input", "rounded.csv"]),
    ("roy-bounds-refuted", "startup",
     ["roy", "bounds", "--cells", gen_inputs.ROY_CELLS_REFUTED]),
]
INPUT_FILES = ["sec33.csv", "gap.csv", "rounded.csv", "small.csv",
               "intervals.csv", "space.json"]


def input_dir(pool_seed, tiny):
    return os.path.join(".bench_build", "inputs",
                        f"cli-{'tiny-' if tiny else ''}{pool_seed}")


def prepare(pool_seed, tiny=False):
    """Write the pass's inputs; returns (relative dir, digest of the files)."""
    rel = input_dir(pool_seed, tiny)
    gen_inputs.write_cli_inputs(os.path.join(harness.ROOT, rel), pool_seed,
                                scale=SMALL_SCALE if tiny else 1.0)
    digest = hashlib.sha256()
    for name in INPUT_FILES:
        with open(os.path.join(harness.ROOT, rel, name), "rb") as fh:
            digest.update(fh.read())
    return rel, digest.hexdigest()


def op_argv(rel, argv):
    return [os.path.join(rel, a) if a in INPUT_FILES else a for a in argv]


def last_line(err):
    lines = err.decode(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def load_refs():
    with open(os.path.join(harness.REFS, "cli_mix.json"), encoding="utf-8") as fh:
        return json.load(fh)


def compare(ref, got, path="report"):
    """First difference between two reports, or None: numbers within 1e-9
    relative, everything else equal."""
    if isinstance(ref, bool) or isinstance(got, bool) or isinstance(ref, str):
        return None if ref == got else f"{path}: {got!r} != {ref!r}"
    if isinstance(ref, (int, float)):
        if isinstance(got, (int, float)) and harness.close(ref, got):
            return None
        return f"{path}: {got!r} != {ref!r}"
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return f"{path}: keys differ"
        for key in ref:
            diff = compare(ref[key], got[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return f"{path}: lengths differ"
        for k, (a, b) in enumerate(zip(ref, got)):
            diff = compare(a, b, f"{path}[{k}]")
            if diff:
                return diff
        return None
    return None if ref == got else f"{path}: {got!r} != {ref!r}"


def check_op(res, name, rc, out, err, ref):
    """Count the op and check it; returns True when it succeeded."""
    res.attempted += 1
    if rc != 0:
        res.failed += 1
        message = last_line(err)
        if ref is not None and not (ref["rc"] == rc and ref["error"] == message):
            res.problems.append(f"{name}: exit {rc} ({message}); parent gave "
                                f"exit {ref['rc']} ({ref['error']})")
        return False
    try:
        report = json.loads(out)
    except ValueError:
        res.failed += 1
        res.problems.append(f"{name}: output is not JSON")
        return False
    if ref is not None and ref["rc"] == 0:
        res.checked += 1
        diff = compare(ref["report"], report)
        if diff:
            res.failed += 1
            res.problems.append(f"{name}: differs from the parent: {diff}")
            return False
    elif "results" not in report:
        res.failed += 1
        res.problems.append(f"{name}: report has no results")
        return False
    return True


def run(seed, seconds, trace, tiny=False):
    pool_seed = seed % POOL
    rel, digest = prepare(pool_seed, tiny)
    refs = None
    if not tiny:
        refs = load_refs()[str(pool_seed)]
        if refs["inputs_sha256"] != digest:
            raise RuntimeError("generated inputs differ from those the "
                               "references were recorded on")
    res = Result(NAME, "bulk")
    res.add("setup_s", harness.probe_seconds("import partialid.cli", res.speed),
            "s", harness.PROBE_REPEATS, "fresh `import partialid.cli`")
    known_defects(res, rel, refs)
    if trace:
        replay(res, rel, refs)
        return res

    times = {}
    first_out = {}
    peaks = []

    def one_pass(_):
        spent = 0.0
        for name, cls, argv in OPS:
            (_, rc, out, err, rss), wall, factor = res.speed.time(
                harness.run_child,
                [sys.executable, "-m", "partialid.cli"] + op_argv(rel, argv))
            spent += wall * factor
            peaks.append(rss)
            if not check_op(res, name, rc, out, err,
                            None if refs is None else refs["ops"][name]):
                continue
            if first_out.setdefault(name, out) != out:
                res.failed += 1
                res.problems.append(f"{name}: output changed between passes")
                continue
            times.setdefault(cls, []).append(wall * factor)
        return spent

    passes = harness.closed_loop(one_pass, seconds)
    res.add("ops_per_s", len(passes) / sum(passes), "1/s", len(passes),
            f"an op is a pass of {len(OPS)} commands")
    res.add("op_p50_s", statistics.median(passes), "s", len(passes))
    value, pct, n = harness.tail(passes)
    res.add("op_tail_s", value, "s", n, f"p{pct:.1f}")
    for cls, note in (("late", ""), ("dilate", ""),
                      ("startup", "roy and structures commands")):
        res.add(f"{cls}_p50_s", statistics.median(times[cls]), "s",
                len(times[cls]), note)
    res.add("peak_rss_mb", statistics.median(peaks), "MB", len(peaks),
            f"median over commands; largest {max(peaks):.1f}")
    return res


def known_defects(res, rel, refs):
    """Make each KNOWN_DEFECTS command once; report how many fail, and
    whether each still fails as it did at the parent commit."""
    failing = []
    for name, _, argv in KNOWN_DEFECTS:
        _, rc, _, err, _ = harness.run_child(
            [sys.executable, "-m", "partialid.cli"] + op_argv(rel, argv))
        if rc != 0:
            ref = None if refs is None else refs["ops"][name]
            same = ref is not None and (ref["rc"], ref["error"]) == (rc, last_line(err))
            failing.append(f"{name} exit {rc}{' as at parent' if same else ''}")
    res.add("known_defect_ops_failing", len(failing), "count",
            len(KNOWN_DEFECTS), "; ".join(failing) or "none")


def _in_process(speed, fn, *args):
    """Run fn(*args) -> exit code with stdout and stderr captured; returns
    (exit code, reference seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc, wall, factor = speed.time(fn, *args)
    return rc, wall * factor, out.getvalue().encode(), err.getvalue().encode()


def _traced_run(tracer, cli, argv):
    with tracer.span("op"):
        return tracer.call("cli.run", cli.run, argv)


def replay(res, rel, refs):
    """Each command in process through `partialid.cli.run`, the calls the
    CLI makes, untraced and traced, so the two times give the tracing
    overhead."""
    from partialid import cli
    tracer = Tracer()
    plain, traced = [], []
    for k, (name, _, argv) in enumerate(OPS):
        tracer.op = k

        def traced_run():
            with tracer.patched():
                rc, seconds, out, err = _in_process(
                    res.speed, _traced_run, tracer, cli, op_argv(rel, argv))
            check_op(res, name, rc, out, err,
                     None if refs is None else refs["ops"][name])
            return seconds

        times = harness.paired(
            k, lambda: _in_process(res.speed, cli.run, op_argv(rel, argv))[1],
            traced_run)
        plain.append(times[0])
        traced.append(times[1])
    report.layer_metrics(res, tracer, traced, plain)
