"""Command-line interface: ``partialid <group> <command> [flags]``.

Commands
--------
late point          trimmed-complier-mean estimate with a plug-in interval
late bounds         complier-mass gap, regime, thresholds and bound estimates
late test           testable-implication diagnostic on the density contrast
roy bounds          refutability, minimal efficiency loss, outcome bounds
structures analyze  hulls, cores, decidability, extension classification
dilate region       bootstrap critical value and mean-interval regions
simulate coverage   Monte Carlo coverage of the built-in design

JSON is the canonical output (``--format table`` renders the same payload
as aligned text).  Reports are a pure function of argv and ``--seed``;
wall-clock timing is only attached under ``--timing``.  Exit codes:
0 success, 1 usage error, 2 data/configuration error or out of memory,
3 weak identification.

Importing this module loads no library module besides ``errors``, and no
numpy.  Commands read library names as attributes of this module
(``_lib.load_sample_csv``), resolved from their owners on first use (PEP
562), so a wrapper set here is what a command calls, and a command loads
only what it touches: ``late point|test`` the data model, density and
point estimators, ``late bounds`` also the bound estimators, ``roy bounds
--cells`` the Roy model alone and no numpy (``--input`` adds numpy and the
data model), ``structures analyze`` no numpy.  Nor does importing this
module load ``dataclasses`` or ``csv``: the tuning overrides and the
``--records-out`` writer import them where they run.

No command loads ``numpy.ma``: the quantiles of the tuning band, the tail
cuts and the bootstrap critical value come from ``sorted_quantile`` in
``datamodel``, equal to numpy's default quantile, on arrays the command
sorts anyway.  ``main`` freezes the heap once the report is written, so
the exit does not walk numpy's objects; ``run`` leaves the collector alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from importlib import import_module

# OpenBLAS's thread pool adds ~75 ms to numpy's import (0.17 s vs 0.09 s);
# set before any command loads numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import _OWNER, __version__
from .errors import (ConfigError, DataError, PartialIdError,
                     WeakIdentificationError)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"partialid.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


# this module: commands read library names as its attributes, since a
# bare global lookup never reaches ``__getattr__``
_lib = sys.modules[__name__]


class _ParseEnd(Exception):
    """Ends a parse; ``args`` are the exit code and the text for stderr."""


class _Parser(argparse.ArgumentParser):
    """Argparse variant that ends a parse by exception, so that ``run``
    returns its exit code: 1 on a usage error, 0 after --help or --version."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n{self.format_usage()}\n")

    def exit(self, status=0, message=None):
        raise _ParseEnd(status, message or "")


# argparse takes a value such as "-1,4" for an option, since it is not a
# plain negative number, so a value of these options that starts with '-'
# and a digit or '.' is joined to its option before parsing
_SIGNED_VALUE_OPTIONS = ("--band", "--cells")
_SIGNED_VALUE = re.compile(r"-[0-9.]")


def _attach_signed_values(argv):
    """``argv`` with ``--band -1,4`` written ``--band=-1,4`` (and the same
    for ``--cells``), so both spellings parse and echo alike."""
    out = []
    for arg in argv:
        if out and out[-1] in _SIGNED_VALUE_OPTIONS and _SIGNED_VALUE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _jsonable(obj):
    if hasattr(obj, "tolist"):  # a numpy scalar or array
        obj = obj.tolist()  # Python scalars and lists
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _flatten(prefix, obj, lines):
    if isinstance(obj, dict):
        for k in obj:
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], lines)
    elif isinstance(obj, list):
        lines.append((prefix, json.dumps(obj)))
    else:
        lines.append((prefix, obj if isinstance(obj, str) else json.dumps(obj)))


def _render(report, fmt):
    payload = _jsonable(report)
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    lines = []
    _flatten("", payload, lines)
    width = max(len(k) for k, _ in lines)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in lines)


# ----------------------------------------------------------------------
# shared option plumbing
# ----------------------------------------------------------------------
def _add_common(parser):
    parser.add_argument("--format", choices=("json", "table"), default="json")
    parser.add_argument("--timing", action="store_true",
                        help="attach wall-clock seconds to the report")


def _add_seed(parser):
    parser.add_argument("--seed", type=int, default=0,
                        help="root seed for all randomized steps")


def _add_tuning(parser):
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--b", type=float, default=None,
                        help="trimming level override")
    parser.add_argument("--h", type=float, default=None,
                        help="bandwidth override")
    parser.add_argument("--band", type=str, default=None,
                        help="trimming band as LO,HI (default: 1%%/99%% quantiles)")
    parser.add_argument("--threshold-scale", choices=("absolute", "relative"),
                        default=None,
                        help="apply --b as an absolute density level or "
                             "relative to the per-state density peak")


def _positive_finite(flag, value):
    """A tuning flag's value, which must be a positive finite number."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{flag} must be positive and finite, got {value}")
    return value


def _parse_band(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError("--band expects LO,HI")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"--band values must be numeric: {text}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"--band values must be finite: {text}")
    return lo, hi


def _override(cfg, args, **updates) -> RunConfig:
    """``cfg`` with ``updates``, then the user's --h and --b."""
    import dataclasses  # here: it loads ``inspect``, some 8 ms at startup

    for flag in ("h", "b"):
        if vars(args)[flag] is not None:
            updates[flag] = _positive_finite(f"--{flag}", vars(args)[flag])
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _late_fit(args):
    """Load, tune and fit: the prologue of the three `late` commands; the
    tail spec is ``--tails`` ('' meaning none) when given, else the data's."""
    sample = _lib.load_sample_csv(args.input)
    cfg = _lib.default_empirical_config(sample, alpha=args.alpha)
    updates = {}
    if args.band is not None:
        updates["band"] = _parse_band(args.band)
    if args.threshold_scale is not None:
        updates["threshold_scale"] = args.threshold_scale
    cfg = _override(cfg, args, **updates)
    est = _lib.estimate_density_diff(None, sample, None, cfg.h,
                                     _lib.default_grid(cfg.band, cfg.h))
    tails = vars(args).get("tails")
    tails = cfg.tails if tails is None else _lib.TailSpec.from_string(tails)
    return sample, cfg, est, tails


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def _cmd_late_point(args):
    sample, cfg, est, tails = _late_fit(args)
    diagnostic = _lib.check_iam_implication(
        est, b_n=cfg.b, threshold_scale=cfg.threshold_scale)
    wald = _lib.wald_estimate(sample)
    results = {
        "n": sample.n,
        "implication_diagnostic": diagnostic,
        "wald": wald,
    }
    warnings = list(cfg.notes)
    if args.union:
        union = _lib.conservative_union_ci(
            sample, est, cfg.b, cfg.band, cfg.alpha,
            threshold_scale=cfg.threshold_scale)
        results["union"] = {
            "ci": list(union["ci"]),
            "feasible_tail_specs": union["feasible"],
            "skipped_tail_specs": union["skipped"],
        }
    else:
        late = _lib.known_tail_estimate(
            sample, est, tails, cfg.b, cfg.band, cfg.alpha,
            threshold_scale=cfg.threshold_scale)
        results.update(late.to_jsonable())
    if not diagnostic["passes"]:
        warnings.append("testable implication violated at the chosen "
                        "trimming level")
    return {"config": cfg.to_jsonable(), "results": results,
            "warnings": warnings}


def _cmd_late_bounds(args):
    kappa_scale = _positive_finite("--kappa-scale", args.kappa_scale)
    sample, cfg, est, tails = _late_fit(args)
    set1, set0 = _lib.estimate_trimmed_sets(
        est, tails, cfg.b, cfg.band, threshold_scale=cfg.threshold_scale)
    delta = _lib.estimate_delta(sample, set1, set0, cfg.kappa * kappa_scale)
    bounds = _lib.estimate_bounds(sample, set1, set0, delta, h=cfg.h)
    results = {
        "delta": delta.to_jsonable(),
        "bounds": bounds.to_jsonable(),
        "interval": list(bounds.ci(cfg.alpha)),
        "tails": tails.to_jsonable(),
        "n": sample.n,
    }
    warnings = list(cfg.notes)
    if delta.near_boundary:
        warnings.append(
            "the complier-mass gap sits near the regime threshold; the "
            "alternative regime's output is reported alongside")
        alt = _lib.estimate_bounds(sample, set1, set0, delta.alternative(),
                                   h=cfg.h)
        results["alternative_regime"] = alt.to_jsonable()
    return {"config": cfg.to_jsonable(), "results": results,
            "warnings": warnings}


def _cmd_late_test(args):
    sample, cfg, est, _ = _late_fit(args)
    diagnostic = _lib.check_iam_implication(
        est, b_n=cfg.b, threshold_scale=cfg.threshold_scale)
    return {
        "config": cfg.to_jsonable(),
        "results": {"n": sample.n, **diagnostic},
        "warnings": list(cfg.notes),
    }


def _cmd_roy_bounds(args):
    if (args.input is None) == (args.cells is None):
        raise ConfigError("provide exactly one of --input or --cells")
    if args.input is not None:
        import numpy as np

        sample = _lib.load_sample_csv(args.input)
        y = sample.y
        if not np.isin(y, (0.0, 1.0)).all():
            raise DataError("this command requires a binary outcome column")
        dist = _lib.RoyDistribution.from_sample(y.astype(int), sample.d,
                                                sample.z)
        n = sample.n
    else:
        parts = args.cells.split(",")
        if len(parts) != 8:
            raise ConfigError("--cells expects 8 comma-separated "
                              "probabilities p_{ydz} ordered y,d,z "
                              "lexicographically (z fastest)")
        try:
            vals = [float(v) for v in parts]
        except ValueError as exc:
            raise ConfigError(f"--cells values must be numeric: {exc}") from exc
        # nested [y][d][z], which the Roy model reads without numpy
        dist = _lib.RoyDistribution([[vals[0:2], vals[2:4]],
                                     [vals[4:6], vals[6:8]]])
        n = None
    refut = _lib.check_roy_refutable(dist)
    bounds = _lib.potential_outcome_bounds(dist)
    results = {
        "cells": dist.to_jsonable(),
        "refuted": refut["refuted"],
        "slack": refut["slack"],
        "min_efficiency_loss": bounds["min_efficiency_loss"],
        "treated_outcome_given_z0": list(bounds["z0"]),
        "treated_outcome_given_z1": list(bounds["z1"]),
    }
    if n is not None:
        results["n"] = n
    return {"config": {}, "results": results, "warnings": []}


def _cmd_structures_analyze(args):
    space, assumption = _lib.load_space_json(args.space)
    if args.hypothesis:
        # a token names the structure the report prints as it (the JSON
        # number 1 is written 1); an unknown one stays text for the space
        # to reject
        hypothesis = set()
        for token in args.hypothesis.split(","):
            match = {s for s in space.structures if str(s) == token}
            if len(match) > 1:
                raise DataError(f"hypothesis name {token!r} matches "
                                f"{len(match)} structures")
            hypothesis |= match or {token}
    elif assumption is not None:
        hypothesis = assumption
    else:
        hypothesis = space.structures
    nf = _lib.nonrefutable_sets(space, hypothesis)
    con = _lib.confirmable_sets(space, hypothesis)
    dec = _lib.binary_decidability(space, hypothesis)
    results = {
        "structures": sorted(map(str, space.structures)),
        "hypothesis": sorted(map(str, hypothesis)),
        "strongly_nonrefutable": sorted(map(str, nf["strong"])),
        "weakly_nonrefutable": sorted(map(str, nf["weak"])),
        "strongly_confirmable": sorted(map(str, con["strong"])),
        "weakly_confirmable": sorted(map(str, con["weak"])),
        "decidable": dec["decidable"],
        "smallest_enlargement": (None if dec["smallest_enlargement"] is None
                                 else sorted(map(str, dec["smallest_enlargement"]))),
        "largest_shrinkage": (None if dec["largest_shrinkage"] is None
                              else sorted(map(str, dec["largest_shrinkage"]))),
    }
    if space.theta is not None:
        results["identified_sets"] = {
            str(outcome): sorted(map(str, space.identified_set(outcome)))
            for outcome in sorted(space.outcomes, key=str)
        }
    if args.extension:
        ext_space, _ = _lib.load_space_json(args.extension)
        results["extension"] = _lib.check_extension(space, ext_space)
    return {"config": {"space": args.space}, "results": results,
            "warnings": []}


def _cmd_dilate_region(args):
    import numpy as np

    if args.grid_points < 1:
        raise ConfigError("--grid-points must be at least 1, got "
                          f"{args.grid_points}")
    rows = np.column_stack(_lib.load_intervals_csv(args.input))
    # every flag is checked before the bootstrap: --a <= --b and then the
    # data's scale by the statistics, --alpha and --boot by the bootstrap
    t_nf, t_con = _lib.interval_data_stats(rows, args.a, args.b)
    mean_l = float(rows[:, 0].mean())
    mean_u = float(rows[:, 1].mean())
    lo, hi = float(rows[:, 0].min()), float(rows[:, 1].max())
    grid = np.linspace(lo, hi, args.grid_points)
    model = _lib.interval_mean_model(grid)
    region, cstar = _lib.confidence_region(model, rows, args.alpha,
                                           args.boot, args.seed)
    est_set = _lib.estimated_identified_set(model, rows)
    results = {
        "n": rows.shape[0],
        "mean_lower": mean_l,
        "mean_upper": mean_u,
        "critical_value": cstar,
        "estimated_set": ([] if est_set.size == 0
                          else [float(est_set.min()), float(est_set.max())]),
        "confidence_region": ([] if region.size == 0
                              else [float(region.min()), float(region.max())]),
        "grid": {"lo": lo, "hi": hi, "points": args.grid_points},
        "statistic_nonrefutable": t_nf,
        "statistic_confirmable": t_con,
        "hypothesis": [args.a, args.b],
    }
    return {"config": {"alpha": args.alpha, "boot": args.boot,
                       "seed": args.seed},
            "results": results, "warnings": []}


def _cmd_simulate_coverage(args):
    design = _lib.SimDesign.sec33()
    cfg = _override(_lib.default_simulation_config(
        args.n, design.band, alpha=args.alpha, seed=args.seed,
        tails=design.tails), args)
    estimator = "union" if args.union else "known"
    result = _lib.run_coverage(design, estimator, args.n, args.m, cfg,
                               seed=args.seed,
                               threads=args.threads)
    if args.records_out:
        import csv

        with open(args.records_out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["estimate", "sigma", "covered", "error"])
            for rec in result.records:
                writer.writerow([rec["estimate"], rec["sigma"],
                                 rec["covered"], rec["error"]])
    return {"config": cfg.to_jsonable(),
            "results": result.to_jsonable(),
            "warnings": []}


# ----------------------------------------------------------------------
# parser assembly and driver
# ----------------------------------------------------------------------
def build_parser() -> _Parser:
    parser = _Parser(prog="partialid",
                     description="Partial-identification estimators for "
                                 "treatment-effect models")
    parser.add_argument("--version", action="version", version=__version__)
    groups = parser.add_subparsers(dest="group", required=True, parser_class=_Parser)

    late = groups.add_parser("late",
                             help="trimmed complier-mean contrast tools")
    late_sub = late.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = late_sub.add_parser("point",
                            help="point estimate and interval")
    p.add_argument("--input", required=True, help="CSV with columns y,d,z")
    _add_tuning(p)
    tails = p.add_mutually_exclusive_group()
    tails.add_argument("--tails", default=None,
                       help="tails among u1,l1,u0,l0, or none (also ''); "
                            "default: the data's")
    tails.add_argument("--union", action="store_true",
                       help="conservative interval over all tail specs")
    _add_common(p)
    p.set_defaults(func=_cmd_late_point)

    p = late_sub.add_parser("bounds",
                            help="interval bounds under unequal complier masses")
    p.add_argument("--input", required=True, help="CSV with columns y,d,z")
    _add_tuning(p)
    p.add_argument("--tails", default=None,
                   help="tails among u1,l1,u0,l0, or none (also ''); "
                        "default: the data's")
    p.add_argument("--kappa-scale", type=float, default=1.0,
                   help="multiplier on the log(n)/sqrt(n) regime threshold")
    _add_common(p)
    p.set_defaults(func=_cmd_late_bounds)

    p = late_sub.add_parser("test",
                            help="testable-implication diagnostic")
    p.add_argument("--input", required=True, help="CSV with columns y,d,z")
    _add_tuning(p)
    _add_common(p)
    p.set_defaults(func=_cmd_late_test)

    roy = groups.add_parser("roy",
                            help="binary self-selection model tools")
    roy_sub = roy.add_subparsers(dest="command", required=True, parser_class=_Parser)
    p = roy_sub.add_parser("bounds",
                           help="refutability and potential-outcome bounds")
    p.add_argument("--input", default=None,
                   help="CSV with binary columns y,d,z")
    p.add_argument("--cells", default=None,
                   help="8 probabilities p_{ydz}, ordered "
                        "000,001,010,011,100,101,110,111")
    _add_common(p)
    p.set_defaults(func=_cmd_roy_bounds)

    st = groups.add_parser("structures",
                           help="finite structure-space algebra")
    st_sub = st.add_subparsers(dest="command", required=True, parser_class=_Parser)
    p = st_sub.add_parser("analyze",
                          help="hulls, cores, decidability, extensions")
    p.add_argument("--space", required=True, help="JSON space description")
    p.add_argument("--hypothesis", default=None,
                   help="comma-separated structure names")
    p.add_argument("--extension", default=None,
                   help="JSON description of an enlarged space")
    _add_common(p)
    p.set_defaults(func=_cmd_structures_analyze)

    dil = groups.add_parser("dilate",
                            help="distribution-band set inference")
    dil_sub = dil.add_subparsers(dest="command", required=True, parser_class=_Parser)
    p = dil_sub.add_parser("region",
                           help="estimated set and confidence region for an "
                                "interval-data mean")
    p.add_argument("--input", required=True, help="CSV with columns y_l,y_u")
    p.add_argument("--a", type=float, required=True,
                   help="hypothesis interval lower endpoint")
    p.add_argument("--b", type=float, required=True,
                   help="hypothesis interval upper endpoint")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--boot", type=int, default=500)
    p.add_argument("--grid-points", type=int, default=201)
    _add_seed(p)
    _add_common(p)
    p.set_defaults(func=_cmd_dilate_region)

    sim = groups.add_parser("simulate",
                            help="Monte Carlo drivers")
    sim_sub = sim.add_subparsers(dest="command", required=True, parser_class=_Parser)
    p = sim_sub.add_parser("coverage",
                           help="coverage of the plug-in intervals")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--union", action="store_true")
    p.add_argument("--records-out", default=None,
                   help="write per-replication CSV here")
    p.add_argument("--threads", type=int, default=None,
                   help="cap on parallel workers, at most the number of "
                        "CPUs (the default); small n runs on one thread, "
                        "where a second one slows it")
    _add_seed(p)
    _add_common(p)
    p.set_defaults(func=_cmd_simulate_coverage)

    return parser


def run(argv=None):
    """Parse argv, dispatch, and print a report; returns the exit code."""
    argv = _attach_signed_values(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _ParseEnd as exc:
        sys.stderr.write(exc.args[1])
        return exc.args[0]
    start = time.perf_counter()
    try:
        report = args.func(args)
    except WeakIdentificationError as exc:
        print(f"weak identification: {exc}", file=sys.stderr)
        return 3
    except (PartialIdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy names the size asked for
        print(f"error: out of memory{str(exc) and f': {exc}'}",
              file=sys.stderr)
        return 2
    except ModuleNotFoundError as exc:
        # an install without its dependency; any other missing module is
        # a fault of the program and keeps its traceback
        if exc.name != "numpy":
            raise
        print("error: this command needs numpy, which is not installed",
              file=sys.stderr)
        return 2
    report = {"command": " ".join(["partialid"] + argv), **report}
    if args.timing:
        report["timing_seconds"] = time.perf_counter() - start
    sys.stdout.write(_render(report, args.format))
    return 0


def main():
    """Exit with ``run``'s code; a stdout closed early exits 2 with one
    stderr line.  The heap is frozen first, so the collections at
    interpreter exit (some 15 ms with numpy loaded) skip what the exit
    frees anyway."""
    import gc  # here, so that importing this module stays as it was

    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the buffered rest would fail again at exit: send it nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output closed before the report was written",
              file=sys.stderr)
        code = 2
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    main()
