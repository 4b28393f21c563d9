"""Command-line driver: exit codes, JSON determinism, per-command smoke."""

import concurrent.futures
import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import partialid
import partialid.simulate
from partialid.cli import _render, build_parser, run
from partialid.datamodel import Sample

from conftest import gen_inputs, make_sample, write_sample_csv


@pytest.fixture()
def sample_csv(tmp_path):
    path = tmp_path / "sample.csv"
    write_sample_csv(path, make_sample(n=400, seed=0))
    return str(path)


@pytest.fixture()
def binary_csv(tmp_path):
    rng = np.random.default_rng(3)
    n = 500
    z = rng.integers(0, 2, n)
    d = ((rng.random(n) < 0.3) | (z == 1)).astype(int)
    y = ((rng.random(n) < 0.4 + 0.3 * d)).astype(int)
    path = tmp_path / "binary.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "d", "z"])
        for row in zip(y, d, z):
            w.writerow(row)
    return str(path)


@pytest.fixture()
def intervals_csv(tmp_path):
    rng = np.random.default_rng(5)
    lows = rng.normal(0, 1, 120)
    ups = lows + rng.uniform(0.5, 1.5, 120)
    path = tmp_path / "intervals.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y_l", "y_u"])
        for row in zip(lows, ups):
            w.writerow(row)
    return str(path)


@pytest.fixture()
def space_json(tmp_path):
    payload = {
        "outcomes": ["a", "b", "c"],
        "structures": [
            {"name": "x", "predicts": ["a"], "theta": 0},
            {"name": "y", "predicts": ["b"], "theta": 1},
            {"name": "z", "predicts": ["b", "c"], "theta": 1},
        ],
        "assumption": ["x", "y"],
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        code, _, err = run_cli(capsys, "late", "point")  # missing --input
        assert code == 1
        assert "usage" in err

    def test_version_returns_0(self, capsys):
        want = (0, partialid.__version__ + "\n", "")
        assert run_cli(capsys, "--version") == want

    def test_help_returns_0(self, capsys):
        assert run_cli(capsys, "--help") == (0, build_parser().format_help(),
                                             "")

    def test_group_help_returns_0(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # no help line wraps
        code, out, err = run_cli(capsys, "late", "--help")
        assert (code, err) == (0, "")
        assert out.startswith(
            "usage: partialid late [-h] {point,bounds,test} ...\n")
        for line in ("point estimate and interval",
                     "interval bounds under unequal complier masses",
                     "testable-implication diagnostic"):
            assert line in out

    def test_unknown_group_is_1(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_missing_file_is_2(self, capsys):
        code, _, err = run_cli(capsys, "late", "point", "--input",
                               "/nonexistent/x.csv")
        assert code == 2
        assert "error" in err

    def test_malformed_csv_reports_row_number(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,d,z\n1.0,1,0\n2.0,7,1\n")
        code, _, err = run_cli(capsys, "late", "point", "--input", str(path))
        assert code == 2
        assert "row 3" in err

    def test_non_finite_outcome_names_its_row(self, capsys, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("y,d,z\n1.0,1,0\n2.0,0,1\ninf,1,1\n")
        code, out, err = run_cli(capsys, "late", "point", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}, row 4: non-finite outcome 'inf'\n"

    def test_non_finite_interval_names_its_row(self, capsys, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("y_l,y_u\n0,1\nnan,2\n")
        code, out, err = run_cli(capsys, "dilate", "region", "--a=0", "--b=1",
                                 "--input", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}, row 3: non-finite cell\n"

    def test_weak_identification_is_3(self, capsys, sample_csv):
        code, _, err = run_cli(capsys, "late", "point", "--input", sample_csv,
                               "--b", "99", "--threshold-scale", "absolute",
                               "--tails", "none")
        assert code == 3
        assert "weak identification" in err

    def test_bad_flag_value_is_2(self, capsys, sample_csv):
        code, _, _ = run_cli(capsys, "late", "point", "--input", sample_csv,
                             "--band", "oops")
        assert code == 2
        code, _, _ = run_cli(capsys, "late", "point", "--input", sample_csv,
                             "--h", "-1")
        assert code == 2

    @pytest.mark.parametrize("argv,flag", [
        (["point", "--h", "nan"], "--h"), (["point", "--h", "inf"], "--h"),
        (["point", "--b", "nan"], "--b"), (["test", "--b", "inf"], "--b"),
        (["bounds", "--kappa-scale", "nan"], "--kappa-scale"),
        (["bounds", "--kappa-scale", "inf"], "--kappa-scale"),
        (["bounds", "--kappa-scale", "0"], "--kappa-scale")])
    def test_non_finite_tuning_is_2(self, capsys, sample_csv, argv, flag):
        code, _, err = run_cli(capsys, "late", *argv, "--input", sample_csv)
        assert code == 2
        assert err.startswith(f"error: {flag} must be positive and finite")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["late", "point"], ["late", "bounds"],
                                      ["simulate", "coverage"]])
    def test_alpha_without_normal_quantile_is_2(self, capsys, sample_csv,
                                                argv):
        # 1 - alpha/2 rounds to 1 for alpha <= 2**-53
        source = (["--input", sample_csv] if argv[0] == "late"
                  else ["--n", "200", "--m", "2"])
        code, out, err = run_cli(capsys, *argv, *source, "--alpha", "1e-300")
        assert code == 2
        assert out == ""
        assert err == "error: alpha must be in (2**-53, 1), got 1e-300\n"

    @pytest.mark.parametrize("argv,scale,message", [
        *((argv, 1e80, "outcomes too large for the plug-in variance: it "
                       "overflows")
          for argv in (["point"], ["bounds"], ["point", "--union"])),
        (["point", "--h", "1e-310"], 1.0, "bandwidth h = 1e-310 is too "
         "small: the span of the outcomes and points in units of h "
         "overflows")],
        ids=["point-variance", "bounds-variance", "union-variance",
             "subnormal-h"])
    def test_overflow_is_2_with_one_line(self, capsys, tmp_path, argv, scale,
                                         message):
        # at y * 1e80 the estimate is finite, but the delta method's
        # quadratic form is not; at h = 1e-310 the outcomes' span over h
        # overflows before the density fit
        s = make_sample(400, seed=0)
        path = write_sample_csv(tmp_path / "scaled.csv",
                                Sample(y=s.y * scale, d=s.d, z=s.z))
        code, out, err = run_cli(capsys, "late", *argv, "--input", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("c", [1e153, 1e167])
    def test_squares_overflow_is_2_with_one_line(self, capsys, tmp_path, c):
        # outcomes a few ulps about c, all in the band's tails: the
        # covariance's sums of squares (c = 1e153) or the squared residual
        # sums of the group table (c = 1e167) overflow before the sigma's
        # quadratic form does
        s = make_sample(120, seed=0)
        k = np.random.default_rng(0).integers(-4, 5, s.n)
        y = c + (k + s.d) * math.ulp(c)
        path = write_sample_csv(tmp_path / "ulps.csv",
                                Sample(y=y, d=s.d, z=s.z))
        code, out, err = run_cli(capsys, "late", "point", "--band=0,3",
                                 "--input", str(path))
        assert (code, out, err) == (2, "", "error: outcomes too large for "
                                    "the plug-in variance: it overflows\n")

    def test_infinite_band_is_2(self, capsys, sample_csv):
        code, _, err = run_cli(capsys, "late", "point", "--input", sample_csv,
                               "--band=-inf,inf")
        assert code == 2
        assert err == "error: --band values must be finite: -inf,inf\n"

    def test_overflowing_band_is_2(self, capsys, sample_csv):
        # each end is finite, but the grid's span, band +- h, is not
        code, out, err = run_cli(capsys, "late", "point", "--input",
                                 sample_csv, "--band=-1e308,1e308")
        assert (code, out) == (2, "")
        assert err.startswith("error: band [-1e+308, 1e+308] padded by h = ")
        assert err.endswith(" on each side spans more than a float holds\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("band", ["-1,4", "-.5,4", "-3,-1"])
    def test_negative_band_after_a_space(self, capsys, sample_csv, band):
        # argparse takes "-1,4" for an option; both spellings give the same
        # report, the command echo included
        spaced = run_cli(capsys, "late", "point", "--input", sample_csv,
                         "--band", band)
        joined = run_cli(capsys, "late", "point", "--input", sample_csv,
                         f"--band={band}")
        assert spaced == joined
        assert spaced[0] in (0, 3)

    def test_negative_cells_after_a_space_are_2(self, capsys):
        code, out, err = run_cli(capsys, "roy", "bounds", "--cells",
                                 "-0.1,0.1,0,0,0,0,0.5,0.5")
        assert (code, out) == (2, "")
        assert err == "error: cell probabilities must be nonnegative\n"

    def test_option_after_band_is_still_an_option(self, capsys, sample_csv):
        code, _, err = run_cli(capsys, "late", "point", "--input", sample_csv,
                               "--band", "--h", "1")
        assert code == 1
        assert "--band: expected one argument" in err

    @pytest.mark.parametrize("argv", [
        ["late", "point", "--input", "x.csv", "--threads", "2"],
        *(["late", command, "--input", "x.csv", "--seed", "1"]
          for command in ("point", "bounds", "test")),
        ["roy", "bounds", "--cells", "0.125,0.125,0.125,0.125,0.125,0.125,"
         "0.125,0.125", "--seed", "1"],
        ["structures", "analyze", "--space", "x.json", "--seed", "1"]])
    def test_flag_of_another_command_is_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err


def _one_structure(**fields):
    return {"outcomes": ["a", "b"],
            "structures": [{"name": "s", "predicts": ["a"], **fields}]}


_NOT_UTF8_SAMPLE = b"y,d,z\n1.0,1,0\n\xff\xfe,0,1\n"
_SPACE_ARGV = ["structures", "analyze", "--space"]
# 40 rows of outcomes up to 4e300, whose squared spread overflows
_HUGE_SAMPLE = b"y,d,z\n" + b"".join(
    b"%de299,%d,%d\n" % (k, k % 2, k // 2 % 2) for k in range(1, 41))


@pytest.mark.parametrize("argv,content,code", [
    pytest.param(["late", "point", "--input"], _NOT_UTF8_SAMPLE, 2,
                 id="late-point-not-utf8"),
    pytest.param(["roy", "bounds", "--input"], _NOT_UTF8_SAMPLE, 2,
                 id="roy-bounds-not-utf8"),
    pytest.param(["dilate", "region", "--a", "0", "--b", "1", "--input"],
                 b"y_l,y_u\n0,1\n0.5,\xff\n", 2, id="dilate-not-utf8"),
    pytest.param(_SPACE_ARGV, json.dumps(_one_structure()).encode("utf-16"),
                 2, id="space-utf16"),
    *[pytest.param(_SPACE_ARGV, json.dumps(space).encode(), 2,
                   id=f"space-{name}") for name, space in [
        ("top-level-5", 5),
        ("outcomes-5", {**_one_structure(), "outcomes": 5}),
        ("structure-5", {"outcomes": ["a"], "structures": [5]}),
        ("predicts-5", _one_structure(predicts=5)),
        ("predicts-nested", _one_structure(predicts=[["a"]])),
        ("name-list", _one_structure(name=["s"])),
        ("assumption-3", {**_one_structure(), "assumption": 3})]],
    pytest.param(["late", "point", "--union", "--tails", "u1", "--input"],
                 b"y,d,z\n", 1, id="union-with-tails"),
    pytest.param(["late", "point", "--h", "1e-300", "--input"], _HUGE_SAMPLE,
                 2, id="late-point-spread-overflows",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
])
def test_bad_input_exits_with_one_line(capsys, tmp_path, argv, content, code):
    path = tmp_path / "input"
    path.write_bytes(content)
    got, out, err = run_cli(capsys, *argv, str(path))
    assert got == code
    assert out == ""
    assert "Traceback" not in err
    # a usage error is followed by argparse's usage summary
    message, _, usage = err.partition("usage:")
    assert message.count("\n") == 1 and message.endswith("\n")
    assert bool(usage) == (code == 1)


@pytest.fixture(scope="module")
def tied_csv(tmp_path_factory):
    """The built-in design at n=5000 with outcomes rounded to 0.1, so that
    nearly every outcome value is tied."""
    from partialid.simulate import SimDesign, draw_sample
    s = draw_sample(SimDesign.sec33(), 5000, 1)
    path = tmp_path_factory.mktemp("tied") / "tied.csv"
    write_sample_csv(path, Sample(y=np.round(s.y, 1), d=s.d, z=s.z))
    return str(path)


@pytest.mark.parametrize("command", ["point", "bounds", "test"])
@pytest.mark.parametrize("scale,message", [
    (1e-300, "outcomes spread too narrowly for the bandwidth rule: their "
             "standard deviation underflows"),
    (0.0, "outcome is constant: bandwidth rule gives h = 0")],
    ids=["underflowing", "constant"])
def test_late_bandwidth_rule_names_the_spread(capsys, tmp_path, command,
                                              scale, message):
    # 300 rows of N(0, 1) times 1e-300 are not constant, though their
    # squared deviations underflow to an sd of 0
    rng = np.random.default_rng(9)
    y = rng.standard_normal(300) * scale + 1e-300
    d, z = rng.integers(0, 2, (2, 300))
    path = write_sample_csv(tmp_path / "narrow.csv", Sample(y=y, d=d, z=z))
    code, out, err = run_cli(capsys, "late", command, "--input", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["point", "bounds", "test"])
def test_late_on_outcomes_a_few_ulps_apart(capsys, tmp_path, command):
    # 300 rows of 1e5 + k ulp(1e5), k in 0..39: the bandwidth rule gives h
    # of a few ulps, over which 512 equispaced grid points repeat; the
    # grid keeps each once, so no command rejects its own grid
    rng = np.random.default_rng(9)
    d, z = rng.integers(0, 2, (2, 300))
    y = 1e5 + rng.integers(0, 40, 300) * math.ulp(1e5)
    path = write_sample_csv(tmp_path / "ulps.csv", Sample(y=y, d=d, z=z))
    code, out, err = run_cli(capsys, "late", command, "--input", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["results"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["point", "bounds"])
def test_relative_level_that_overflows_has_an_empty_core(capsys, tmp_path,
                                                         command):
    # outcomes 0 and 2e-155: the data-driven b is 1.4e154 and the peak of
    # the fit near 1e155, so the relative level b * peak overflows to inf;
    # it lies above the whole fit, and its core is empty rather than NaN
    cells = [(0, 0, 62), (0, 1, 52), (1, 0, 45), (1, 1, 52)]
    rows = [(0.0, d, z) for d, z, count in cells for _ in range(count)]
    y, d, z = map(np.array, zip(*rows + [(2e-155, 0, 1)] * 3))
    path = write_sample_csv(tmp_path / "tiny.csv", Sample(y=y, d=d, z=z))
    code, out, err = run_cli(capsys, "late", command, "--input", str(path),
                             "--threshold-scale", "relative")
    assert (code, err) == (0, "")
    assert json.loads(out)["config"]["b"] > 1e154


@pytest.mark.parametrize("command", ["point", "bounds", "test"])
def test_late_on_a_degenerate_quantile_band_is_2(capsys, tmp_path, command):
    # 198 of 200 outcomes tied: the 1% and 99% quantiles are both the tie
    rng = np.random.default_rng(4)
    d, z = rng.integers(0, 2, (2, 200))
    y = np.r_[-1.0, np.zeros(198), 1.0]
    path = write_sample_csv(tmp_path / "tied.csv", Sample(y=y, d=d, z=z))
    code, out, err = run_cli(capsys, "late", command, "--input", str(path))
    assert (code, out, err) == (2, "", "error: degenerate 1%/99% quantile "
                                       "band\n")


class TestTiedOutcomes:
    # the tuning rules run on every `late` command, overrides or not, and
    # must not build a density grid from the tied outcomes ("grid must be
    # strictly increasing")
    @pytest.mark.parametrize("argv", [["bounds"], ["test"],
                                      ["point", "--b", "0.05", "--h", "0.3"]])
    def test_late_commands_accept_ties(self, capsys, tied_csv, argv):
        code, out, err = run_cli(capsys, "late", *argv, "--input", tied_csv)
        assert code == 0, err
        assert json.loads(out)["results"]

    def test_point_estimate(self, capsys, tied_csv):
        code, out, err = run_cli(capsys, "late", "point", "--input", tied_csv)
        assert code == 0, err
        res = json.loads(out)["results"]
        assert res["estimate"] == pytest.approx(2.0983242357, rel=1e-6)
        assert res["ci"][0] < res["estimate"] < res["ci"][1]


class TestLatePoint:
    def test_json_payload(self, capsys, sample_csv):
        code, out, _ = run_cli(capsys, "late", "point", "--input", sample_csv)
        assert code == 0
        payload = json.loads(out)
        res = payload["results"]
        assert {"estimate", "sigma", "ci", "complier_mass_d1",
                "complier_mass_d0", "wald", "implication_diagnostic",
                "tails"} <= set(res)
        assert res["ci"][0] <= res["estimate"] <= res["ci"][1]
        assert res["complier_mass_d1"] > 0 and res["complier_mass_d0"] > 0
        assert payload["config"]["threshold_scale"] in ("absolute", "relative")

    def test_byte_identical_reruns(self, capsys, sample_csv):
        _, out1, _ = run_cli(capsys, "late", "point", "--input", sample_csv)
        _, out2, _ = run_cli(capsys, "late", "point", "--input", sample_csv)
        assert out1 == out2
        assert json.loads(out1)["config"]["seed"] == 0

    def test_estimate_prints_its_jsonable_form(self, capsys, monkeypatch,
                                               sample_csv):
        from partialid import cli

        original, estimates = cli.known_tail_estimate, []

        def recorder(*args, **kwargs):
            estimates.append(original(*args, **kwargs))
            return estimates[-1]

        monkeypatch.setattr(cli, "known_tail_estimate", recorder)
        code, out, _ = run_cli(capsys, "late", "point", "--input", sample_csv)
        assert code == 0
        res = json.loads(out)["results"]
        for key in ("n", "wald", "implication_diagnostic"):
            del res[key]
        assert res == estimates[0].to_jsonable()

    def test_union_flag(self, capsys, sample_csv):
        code, out, _ = run_cli(capsys, "late", "point", "--input", sample_csv,
                               "--union")
        assert code == 0
        union = json.loads(out)["results"]["union"]
        assert union["feasible_tail_specs"] + union["skipped_tail_specs"] == 16
        assert union["ci"][0] <= union["ci"][1]

    def test_explicit_tails_and_scale(self, capsys, sample_csv):
        code, out, _ = run_cli(capsys, "late", "point", "--input", sample_csv,
                               "--tails", "none", "--threshold-scale",
                               "relative", "--b", "0.1")
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["threshold_scale"] == "relative"
        assert payload["config"]["b"] == 0.1

    def test_tails_none_in_capitals(self, capsys, sample_csv):
        reports = []
        for tails in ("none", "NONE"):
            code, out, _ = run_cli(capsys, "late", "point", "--input",
                                   sample_csv, "--tails", tails)
            assert code == 0
            reports.append({k: v for k, v in json.loads(out).items()
                            if k != "command"})
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("command", ["point", "bounds"])
    def test_empty_tails_mean_none(self, capsys, sample_csv, command):
        # the data's spec includes tails here, so an empty --tails that fell
        # back to it would change the estimate
        reports = []
        for tails in ("", "none", None):
            argv = ["late", command, "--input", sample_csv]
            if tails is not None:
                argv += ["--tails", tails]
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            reports.append(json.loads(out))
        empty, none, default = (
            {k: v for k, v in r.items() if k != "command"} for r in reports)
        assert empty == none != default

    def test_table_format(self, capsys, sample_csv):
        code, out, _ = run_cli(capsys, "late", "point", "--input", sample_csv,
                               "--format", "table")
        assert code == 0
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
        assert "results.estimate" in out

    def test_timing_opt_in(self, capsys, sample_csv):
        _, out, _ = run_cli(capsys, "late", "point", "--input", sample_csv)
        assert "timing_seconds" not in json.loads(out)
        _, out2, _ = run_cli(capsys, "late", "point", "--input", sample_csv,
                             "--timing")
        assert json.loads(out2)["timing_seconds"] > 0


class TestOneEvaluationPath:
    # the benchmark's CLI mix reads sec33.csv of these pool seeds, on which
    # `late bounds` resolves to the point regime
    @pytest.mark.parametrize("seed", range(4))
    def test_point_regime_bounds_equal_the_point_estimate(self, capsys,
                                                          tmp_path, seed):
        gen_inputs().write_cli_inputs(tmp_path, seed)
        path = str(tmp_path / "sec33.csv")
        code, out, _ = run_cli(capsys, "late", "point", "--input", path)
        assert code == 0
        point = json.loads(out)["results"]
        code, out, _ = run_cli(capsys, "late", "bounds", "--input", path)
        assert code == 0
        bounds = json.loads(out)["results"]["bounds"]
        assert bounds["regime"] == "point"
        for got, want in ((bounds["lower"], point["estimate"]),
                          (bounds["upper"], point["estimate"]),
                          (bounds["sigma_lower"], point["sigma"]),
                          (bounds["sigma_upper"], point["sigma"])):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestLateBoundsAndTest:
    def test_bounds_payload(self, capsys, sample_csv):
        code, out, _ = run_cli(capsys, "late", "bounds", "--input",
                               sample_csv)
        assert code == 0
        res = json.loads(out)["results"]
        assert res["delta"]["regime"] in ("below", "point", "above")
        assert res["bounds"]["lower"] <= res["bounds"]["upper"]
        assert res["interval"][0] <= res["interval"][1]

    @pytest.mark.filterwarnings("error")
    def test_infinite_thresholds_give_a_finite_report(self, capsys,
                                                       tmp_path):
        # coin-flip d and z: both threshold scans end at the empty cut
        rng = np.random.default_rng(0)
        y = rng.integers(0, 5, 200)
        d, z = rng.integers(0, 2, 200), rng.integers(0, 2, 200)
        path = tmp_path / "coins.csv"
        path.write_text("y,d,z\n" + "".join(
            f"{a},{b},{c}\n" for a, b, c in zip(y, d, z)))
        code, out, err = run_cli(capsys, "late", "bounds", "--input",
                                 str(path), "--kappa-scale", "0.01")
        assert (code, err) == (0, "")
        bounds = json.loads(out)["results"]["bounds"]
        assert (bounds["t_lower"], bounds["t_upper"]) == ("-inf", "inf")
        values = [bounds["sigma_lower"], bounds["sigma_upper"],
                  *json.loads(out)["results"]["interval"]]
        assert all(isinstance(v, float) and math.isfinite(v) for v in values)

    def test_gap_near_the_regime_threshold_reports_both_regimes(
            self, capsys, tmp_path):
        # the benchmark's gap.csv of pool seed 0: a gap of 0.123 against a
        # threshold kappa of 0.120, so the bound regime holds and the point
        # regime is reported beside it
        gen_inputs().write_cli_inputs(tmp_path, 0)
        path = str(tmp_path / "gap.csv")
        code, out, _ = run_cli(capsys, "late", "bounds", "--input", path)
        assert code == 0
        payload = json.loads(out)
        res = payload["results"]
        delta = res["delta"]
        assert delta["near_boundary"] is True and delta["regime"] == "above"
        assert delta["kappa"] < delta["delta"] <= 2.0 * delta["kappa"]
        assert res["bounds"]["regime"] == "above"
        assert res["bounds"]["flags"][0] == "delta_near_regime_boundary"
        alt = res["alternative_regime"]
        assert alt["regime"] == "point"
        assert alt["flags"] == ["delta_near_regime_boundary"]
        assert payload["warnings"] == [
            "the complier-mass gap sits near the regime threshold; the "
            "alternative regime's output is reported alongside"]
        # the point regime is the point estimate
        code, out, _ = run_cli(capsys, "late", "point", "--input", path)
        assert code == 0
        point = json.loads(out)["results"]
        for got in (alt["lower"], alt["upper"]):
            assert got == pytest.approx(point["estimate"], rel=1e-12, abs=0.0)
        # a threshold under half the gap leaves the boundary
        code, out, _ = run_cli(capsys, "late", "bounds", "--input", path,
                               "--kappa-scale", "0.5")
        assert code == 0
        payload = json.loads(out)
        res = payload["results"]
        assert res["delta"]["near_boundary"] is False
        assert "alternative_regime" not in res
        assert "delta_near_regime_boundary" not in \
            res["bounds"].get("flags", [])
        assert payload["warnings"] == []

    def test_test_payload(self, capsys, sample_csv):
        code, out, _ = run_cli(capsys, "late", "test", "--input", sample_csv)
        assert code == 0
        res = json.loads(out)["results"]
        assert isinstance(res["passes"], bool)

    @pytest.mark.parametrize("a", [0.1, 10.0])
    def test_relative_diagnostic_ignores_the_outcome_units(self, capsys,
                                                           tmp_path, a):
        # on the relative scale b is a share of each side's peak, so y -> a y
        # changes no verdict; on pool seed 0's sec33.csv the same b as an
        # absolute tolerance passes the data at a = 10 and fails it at a = 1
        gen_inputs().write_cli_inputs(tmp_path, 0)
        rows = (tmp_path / "sec33.csv").read_text().splitlines()
        scaled = tmp_path / "scaled.csv"
        scaled.write_text("\n".join([rows[0]] + [
            f"{a * float(y)!r},{rest}" for y, rest in
            (row.split(",", 1) for row in rows[1:])]) + "\n")
        results = []
        for path in (tmp_path / "sec33.csv", scaled):
            code, out, _ = run_cli(capsys, "late", "test", "--input",
                                   str(path), "--threshold-scale", "relative",
                                   "--b", "0.05")
            assert code == 0
            results.append(json.loads(out)["results"])
        base, got = results
        assert got["passes"] is base["passes"]
        for key in ("violation_mass_1", "violation_mass_0"):
            assert got[key] == pytest.approx(base[key], rel=1e-9)


class TestRoy:
    def test_from_csv(self, capsys, binary_csv):
        code, out, _ = run_cli(capsys, "roy", "bounds", "--input", binary_csv)
        assert code == 0
        res = json.loads(out)["results"]
        assert isinstance(res["refuted"], bool)
        assert 0.0 <= res["min_efficiency_loss"] <= 1.0
        for key in ("treated_outcome_given_z0", "treated_outcome_given_z1"):
            lo, hi = res[key]
            assert 0.0 <= lo <= hi <= 1.0

    def test_from_cells(self, capsys):
        cells = "0.1,0.15,0.1,0.1,0.2,0.05,0.15,0.15"
        code, out, _ = run_cli(capsys, "roy", "bounds", "--cells", cells)
        assert code == 0
        assert "min_efficiency_loss" in json.loads(out)["results"]

    def test_refuted_cells(self, capsys):
        # refuted, with inefficient mass above Pr(Y=0, D=0, Z=1)
        cells = "0.0576,0.0915,0.1122,0.1318,0.3133,0.0164,0.1568,0.1204"
        code, out, _ = run_cli(capsys, "roy", "bounds", "--cells", cells)
        assert code == 0
        res = json.loads(out)["results"]
        assert res["refuted"]
        assert res["treated_outcome_given_z1"][1] == pytest.approx(0.633991,
                                                                   rel=1e-6)

    def test_tiny_arm_cells(self, capsys):
        # admitted, Pr(Z=1) = 1e-7: an LP on the joint scale put the z=1
        # upper bound 7.8e-4 too high here and the command exited 2
        cells = ("0.2228900952766307,7.8474979017863e-11,0.1349845036416953,"
                 "1.9846292783164967e-08,0.3126567545448089,"
                 "1.6300639765208766e-08,0.3294685465368652,"
                 "6.37745924726084e-08")
        code, out, err = run_cli(capsys, "roy", "bounds", "--cells", cells)
        assert (code, err) == (0, "")
        res = json.loads(out)["results"]
        assert not res["refuted"]
        assert res["treated_outcome_given_z1"] == pytest.approx(
            [0.637745924726084, 0.8007523223781717], abs=1e-12)

    def test_overflowing_sum_is_2_with_one_line(self):
        # the sum of the cells overflows; numpy's sum warned on stderr
        # before the error line
        child = subprocess.run(
            _CLI + ["roy", "bounds", "--cells", "1e308,1e308,0,0,0,0,0,0"],
            env=_child_env(), capture_output=True, text=True)
        assert (child.returncode, child.stdout) == (2, "")
        assert child.stderr == "error: cell probabilities must sum to one\n"

    @pytest.mark.parametrize("cells,message", [
        ("0,0,0,0,0,0,1", "--cells expects 8 comma-separated probabilities "
                          "p_{ydz} ordered y,d,z lexicographically (z "
                          "fastest)"),
        ("0,0,0,0,0,0,0,x", "--cells values must be numeric: could not "
                            "convert string to float: 'x'")],
        ids=["seven-values", "non-number"])
    def test_malformed_cells_are_2(self, capsys, cells, message):
        code, out, err = run_cli(capsys, "roy", "bounds", "--cells", cells)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("cells", ["nan,0,0,0,0,0,0,1",
                                       "inf,0,0,0,0,0,0,1"])
    def test_non_finite_cells_are_2(self, capsys, cells):
        code, _, err = run_cli(capsys, "roy", "bounds", "--cells", cells)
        assert code == 2
        assert err == "error: cell probabilities must be finite\n"

    def test_requires_exactly_one_source(self, capsys, binary_csv):
        code, _, _ = run_cli(capsys, "roy", "bounds")
        assert code == 2
        code, _, _ = run_cli(capsys, "roy", "bounds", "--input", binary_csv,
                             "--cells", "0,0,0,0,0,0,0,1")
        assert code == 2

    def test_nonbinary_outcome_rejected(self, capsys, sample_csv):
        code, _, err = run_cli(capsys, "roy", "bounds", "--input", sample_csv)
        assert code == 2
        assert "binary" in err


class TestStructures:
    def test_analyze(self, capsys, space_json):
        code, out, _ = run_cli(capsys, "structures", "analyze", "--space",
                               space_json)
        assert code == 0
        res = json.loads(out)["results"]
        assert res["hypothesis"] == ["x", "y"]  # file-level assumption
        assert set(res["strongly_nonrefutable"]) >= set(res["hypothesis"])
        assert isinstance(res["decidable"], bool)
        assert res["identified_sets"]["a"] == ["0"]

    def test_hypothesis_override(self, capsys, space_json):
        code, out, _ = run_cli(capsys, "structures", "analyze", "--space",
                               space_json, "--hypothesis", "z")
        assert code == 0
        assert json.loads(out)["results"]["hypothesis"] == ["z"]

    def test_missing_space_is_2(self, capsys):
        code, _, _ = run_cli(capsys, "structures", "analyze", "--space",
                             "/nonexistent.json")
        assert code == 2

    @staticmethod
    def _space(tmp_path, *names):
        path = tmp_path / "numbers.json"
        path.write_text(json.dumps({
            "outcomes": ["a", "b"],
            "structures": [{"name": name, "predicts": predicts}
                           for name, predicts in zip(names,
                                                     (["a"], ["a", "b"]))],
        }))
        return str(path)

    def test_numeric_names_are_written_as_printed(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "structures", "analyze", "--space",
                                 self._space(tmp_path, 1, 2),
                                 "--hypothesis", "1")
        assert (code, err) == (0, "")
        res = json.loads(out)["results"]
        assert res["hypothesis"] == ["1"]
        assert res["weakly_nonrefutable"] == ["1", "2"]

    def test_name_printed_by_two_structures_is_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "structures", "analyze", "--space",
                                 self._space(tmp_path, 1, "1"),
                                 "--hypothesis", "1")
        assert (code, out) == (2, "")
        assert err == "error: hypothesis name '1' matches 2 structures\n"

    def test_table_prints_outcomes_in_order(self, capsys, tmp_path):
        # a set of strings iterates in a per-process hash order
        path = tmp_path / "space.json"
        path.write_text(json.dumps({
            "outcomes": list("hgfedcba"),
            "structures": [{"name": "x", "predicts": list("abcdefgh"),
                            "theta": 0}],
        }))
        code, out, _ = run_cli(capsys, "structures", "analyze", "--space",
                               str(path), "--format", "table")
        assert code == 0
        keys = [line.split()[0] for line in out.splitlines()
                if line.startswith("results.identified_sets.")]
        assert keys == [f"results.identified_sets.{o}" for o in "abcdefgh"]

    def test_unknown_name_is_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "structures", "analyze", "--space",
                               self._space(tmp_path, 1, 2),
                               "--hypothesis", "1,3")
        assert code == 2
        assert err == "error: hypothesis contains unknown structures\n"

    @pytest.mark.parametrize("payload,message", [
        ({"structures": []}, "missing key 'outcomes' in {path}"),
        ({"outcomes": ["a"], "structures": [{"predicts": ["a"]}]},
         "each structure needs 'name' and 'predicts'"),
        ({"outcomes": ["a"], "structures": [{"name": "s", "predicts": ["a"]},
                                            {"name": "s", "predicts": ["a"]}]},
         "duplicate structure name 's'"),
        ({"outcomes": ["a"],
          "structures": [{"name": "s", "predicts": ["a"], "theta": 0},
                         {"name": "t", "predicts": ["a"]}]},
         "either all structures carry a theta label or none"),
        ({"outcomes": ["a"], "structures": []},
         "the structure space must be nonempty"),
        (_one_structure(predicts=[]), "structure 's' generates no outcomes"),
        (_one_structure(predicts=["q"]),
         "structure 's' maps outside the alphabet")],
        ids=["missing-key", "no-name", "duplicate-name", "partial-theta",
             "empty-space", "no-outcomes", "outside-alphabet"])
    def test_invalid_space_is_2(self, capsys, tmp_path, payload, message):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "structures", "analyze", "--space",
                                 str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {message.format(path=path)}\n"

    @pytest.mark.parametrize("change,message", [
        ({"outcomes": ["a", "b", "c", "d"]},
         "the extension must keep the same outcome alphabet"),
        ({"structures": [{"name": "x", "predicts": ["a"], "theta": 0}]},
         "the extension must contain every original structure"),
        ({"structures": [{"name": "x", "predicts": ["a", "c"], "theta": 0},
                         {"name": "y", "predicts": ["b"], "theta": 1},
                         {"name": "z", "predicts": ["b", "c"], "theta": 1}]},
         "extension changes the observation map of 'x'"),
        ({"structures": [{"name": "x", "predicts": ["a"]},
                         {"name": "y", "predicts": ["b"]},
                         {"name": "z", "predicts": ["b", "c"]}]},
         "the extension drops the parameter map"),
        ({"structures": [{"name": "x", "predicts": ["a"], "theta": 5},
                         {"name": "y", "predicts": ["b"], "theta": 1},
                         {"name": "z", "predicts": ["b", "c"], "theta": 1}]},
         "extension changes the parameter of 'x'")],
        ids=["alphabet", "drops-a-structure", "observation-map", "drops-theta",
             "parameter"])
    def test_invalid_extension_is_2(self, capsys, tmp_path, space_json,
                                    change, message):
        with open(space_json) as fh:
            payload = {**json.load(fh), "assumption": None, **change}
        path = tmp_path / "extension.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "structures", "analyze", "--space",
                                 space_json, "--extension", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("fixture,argv", [
    ("sample_csv", ["late", "test", "--input"]),
    ("intervals_csv", ["dilate", "region", "--a", "0", "--b", "1",
                       "--boot", "200", "--input"]),
    ("space_json", ["structures", "analyze", "--space"]),
])
def test_byte_order_mark_is_dropped(capsys, request, fixture, argv):
    """Excel's "CSV UTF-8" starts the file with a byte-order mark; the file
    reads as it does without one."""
    path = request.getfixturevalue(fixture)
    code, plain, _ = run_cli(capsys, *argv, path)
    assert code == 0
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(b"\xef\xbb\xbf" + data)
    assert run_cli(capsys, *argv, path) == (0, plain, "")


class TestDilate:
    def test_region(self, capsys, intervals_csv):
        code, out, _ = run_cli(capsys, "dilate", "region", "--input",
                               intervals_csv, "--a", "-1", "--b", "2",
                               "--boot", "200")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["mean_lower"] <= res["mean_upper"]
        assert res["critical_value"] > 0
        lo, hi = res["confidence_region"]
        assert lo <= res["mean_lower"] and hi >= res["mean_upper"]
        est_lo, est_hi = res["estimated_set"]
        assert est_lo <= est_hi

    def test_seed_determinism(self, capsys, intervals_csv):
        args = ("dilate", "region", "--input", intervals_csv, "--a", "0",
                "--b", "1", "--boot", "200", "--seed", "2")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("points", ["-1", "0"])
    def test_grid_points_below_one_is_2(self, capsys, intervals_csv, points):
        code, _, err = run_cli(capsys, "dilate", "region", "--input",
                               intervals_csv, "--a", "0", "--b", "1",
                               "--grid-points", points)
        assert code == 2
        assert err == f"error: --grid-points must be at least 1, got {points}\n"

    @pytest.mark.parametrize("flags,message", [
        (("--boot", "50"), "at least 100 bootstrap resamples are required"),
        (("--boot", "0"), "at least 100 bootstrap resamples are required"),
        (("--alpha", "0"), "alpha must lie in (0, 1]"),
        (("--alpha", "1.5"), "alpha must lie in (0, 1]"),
        (("--boot", "50", "--alpha", "0"), "alpha must lie in (0, 1]"),
        (("--seed", "-1"), "seed must be a non-negative integer, got -1"),
    ])
    def test_bad_boot_or_alpha_is_2(self, capsys, intervals_csv, flags,
                                    message):
        # --alpha is checked before --boot when both are bad
        code, out, err = run_cli(capsys, "dilate", "region", "--input",
                                 intervals_csv, "--a", "0", "--b", "1",
                                 *flags)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_reversed_hypothesis_is_2(self, capsys, intervals_csv):
        code, _, _ = run_cli(capsys, "dilate", "region", "--input",
                             intervals_csv, "--a", "2", "--b", "1")
        assert code == 2

    @pytest.mark.parametrize("flags,message", [
        (("--grid-points", "0", "--a", "2", "--b", "1", "--alpha", "0"),
         "--grid-points must be at least 1, got 0"),
        (("--a", "2", "--b", "1", "--alpha", "0", "--boot", "50"),
         "the hypothesis interval must satisfy a <= b"),
        (("--a", "2", "--b", "1", "--boot", "50"),
         "the hypothesis interval must satisfy a <= b"),
        (("--a", "0", "--b", "1", "--alpha", "0", "--boot", "50"),
         "alpha must lie in (0, 1]"),
    ])
    def test_order_of_errors_before_the_bootstrap(self, capsys, monkeypatch,
                                                  intervals_csv, flags,
                                                  message):
        # --grid-points, then --a/--b, then --alpha, then --boot; none of
        # them waits for a bootstrap resample
        import partialid.dilation as dilation

        calls = []
        original = dilation.bootstrap_critical_value

        def recorder(sample, n_boot, alpha, seed):
            calls.append((n_boot, alpha))
            return original(sample, n_boot, alpha, seed)

        monkeypatch.setattr(dilation, "bootstrap_critical_value", recorder)
        code, out, err = run_cli(capsys, "dilate", "region", "--input",
                                 intervals_csv, *flags)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"
        # only the bootstrap's own --alpha/--boot check may be reached
        assert calls == ([] if "alpha" not in message else [(50, 0.0)])

    @pytest.mark.parametrize("message,line", [
        ("Unable to allocate 745. GiB for an array with shape "
         "(100000000000,) and data type float64",
         "error: out of memory: Unable to allocate 745. GiB for an array "
         "with shape (100000000000,) and data type float64\n"),
        ("", "error: out of memory\n")])
    def test_out_of_memory_is_2_with_one_line(self, capsys, monkeypatch,
                                              intervals_csv, message, line):
        # what `--grid-points 100000000000` raises, without the allocation
        from partialid import cli

        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "confidence_region", exhausted,
                            raising=False)
        code, out, err = run_cli(capsys, "dilate", "region", "--input",
                                 intervals_csv, "--a", "0", "--b", "1")
        assert (code, out, err) == (2, "", line)

    @pytest.mark.parametrize("bounds", [("--a=nan", "--b=1"),
                                        ("--a=0", "--b=nan")])
    def test_nan_hypothesis_is_2(self, capsys, intervals_csv, bounds):
        code, out, err = run_cli(capsys, "dilate", "region", "--input",
                                 intervals_csv, *bounds)
        assert code == 2
        assert out == ""
        assert err == ("error: the hypothesis interval must satisfy "
                       "a <= b\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rows", [
        [("0", "1e308")] * 50,
        [("-1e308", "-1e308"), ("1e308", "1e308")],
    ])
    def test_overflowing_intervals_are_2(self, capsys, tmp_path, rows):
        # every endpoint is finite, but a column mean or the span is not
        path = tmp_path / "huge.csv"
        path.write_text("y_l,y_u\n"
                        + "".join(f"{lo},{hi}\n" for lo, hi in rows))
        code, out, err = run_cli(capsys, "dilate", "region", "--input",
                                 str(path), "--a", "0", "--b", "1",
                                 "--boot", "100")
        assert code == 2
        assert out == ""
        assert err == ("error: interval endpoints too large: a column mean "
                       "or the range of the data overflows\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale, a, b, want", [
        (1.0, "1e200", "1e200", ("inf", "inf")),
        (1e160, "0", "1", (0.0, "inf")),
    ], ids=["far-hypothesis", "scaled-intervals"])
    def test_shortfall_past_the_float_range_is_inf(self, capsys, tmp_path,
                                                   scale, a, b, want):
        # the benchmark's intervals of pool seed 1: a shortfall of 1e200, or
        # of 1e160 once the data are scaled, squares past the float range,
        # so the statistic is inf and the hypothesis rejected
        gen_inputs().write_cli_inputs(tmp_path, 1)
        rows = (tmp_path / "intervals.csv").read_text().splitlines()
        path = tmp_path / "scaled.csv"
        path.write_text("\n".join([rows[0]] + [
            ",".join(repr(scale * float(v)) for v in row.split(","))
            for row in rows[1:]]) + "\n")
        code, out, err = run_cli(capsys, "dilate", "region", "--input",
                                 str(path), f"--a={a}", f"--b={b}",
                                 "--boot", "100")
        assert (code, err) == (0, "")
        res = json.loads(out)["results"]
        assert (res["statistic_nonrefutable"],
                res["statistic_confirmable"]) == want
        assert all(map(math.isfinite, res["confidence_region"]))


def _record_pools(monkeypatch):
    """The list that collects each thread pool's ``max_workers``, with a
    recorder, which starts no thread, in place of the pool."""
    workers = []

    class Recorder:
        def __init__(self, max_workers=None):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
    return workers


class TestSimulate:
    def test_coverage_smoke_and_records(self, capsys, tmp_path):
        rec = tmp_path / "records.csv"
        code, out, _ = run_cli(capsys, "simulate", "coverage", "--n", "400",
                               "--m", "4", "--threads", "2",
                               "--records-out", str(rec))
        assert code == 0
        res = json.loads(out)["results"]
        assert res["replications"] == 4
        assert 0.0 <= res["coverage"] <= 1.0
        with open(rec) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["estimate", "sigma", "covered", "error"]
        assert len(rows) == 5

    def test_draws_missing_an_arm_are_counted(self, capsys):
        # at n = 5 some draws hold one instrument arm only
        code, out, _ = run_cli(capsys, "simulate", "coverage", "--n", "5",
                               "--m", "60", "--threads", "1", "--seed", "3")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["replications"] == 60
        assert res["errors"] > 0

    @pytest.mark.parametrize("requested,want", [
        (None, None), (-3, 1), (0, 1), (1, 1), (3, 3), (4, 3), (10**9, 3)])
    def test_threads_clamped_to_cpu_count(self, monkeypatch, requested,
                                         want):
        # run_coverage is the one clamp: given the raw value it builds the
        # pool that the value clamped to [1, cpu count] builds, and at 1
        # worker or fewer none
        from partialid.datamodel import default_simulation_config
        from partialid.simulate import SimDesign, run_coverage

        design = SimDesign.sec33()
        n = partialid.simulate._POOL_MIN_N
        cfg = default_simulation_config(n, design.band, tails=design.tails)

        def pools(threads):
            workers = _record_pools(monkeypatch)
            run_coverage(design, "known", n, 4, cfg, seed=0, threads=threads)
            return workers

        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert pools(requested) == pools(want) == ([] if want == 1 else [3])

    @pytest.mark.parametrize("requested,want",
                             [("1000000", 3), ("2", 2), (None, 3)])
    def test_pool_gets_clamped_threads(self, capsys, monkeypatch, requested,
                                       want):
        workers = _record_pools(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        flags = [] if requested is None else ["--threads", requested]
        code, _, _ = run_cli(capsys, "simulate", "coverage", "--n",
                             str(partialid.simulate._POOL_MIN_N), "--m", "4",
                             *flags)
        assert code == 0
        assert workers == [want]

    @pytest.mark.parametrize("flags", [["--threads", "2"], []],
                             ids=["threads-2", "default"])
    def test_no_pool_below_the_cut(self, capsys, monkeypatch, flags):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("thread pool built below the cut")

        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", NoPool)
        code, out, err = run_cli(
            capsys, "simulate", "coverage", "--n",
            str(partialid.simulate._POOL_MIN_N - 1), "--m", "3", *flags)
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]["replications"] == 3

    @pytest.mark.parametrize("flag", ["--h", "--b"])
    def test_non_finite_tuning_is_2(self, capsys, flag):
        code, _, err = run_cli(capsys, "simulate", "coverage", "--n", "200",
                               "--m", "2", flag, "nan")
        assert code == 2
        assert err == f"error: {flag} must be positive and finite, got nan\n"

    def test_negative_seed_is_2(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "coverage", "--n", "200",
                                 "--m", "2", "--threads", "1", "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == "error: seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_n_below_two_is_2(self, capsys, n):
        code, _, err = run_cli(capsys, "simulate", "coverage", "--n", n,
                               "--m", "2")
        assert code == 2
        assert err == "error: n must be at least 2\n"

    @pytest.mark.parametrize("h,message", [
        ("1e308", "band [-2.5, 7.0] padded by h = 1e+308 on each side spans "
                  "more than a float holds"),
        ("1e-320", "bandwidth h = 1e-320 is too small: the span of the "
                   "outcomes and points in units of h overflows")],
        ids=["grid", "span"])
    def test_configuration_error_ends_the_run(self, capsys, h, message):
        # no replication records it: the run exits 2 with one line
        code, out, err = run_cli(capsys, "simulate", "coverage", "--n", "100",
                                 "--m", "3", "--h", h)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


def _child_env(**env):
    """This process's environment with the package on the path; an ``env``
    value of None unsets that variable, any other sets it."""
    src = os.path.dirname(os.path.dirname(partialid.__file__))
    full = dict(os.environ)
    full["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [full.get("PYTHONPATH")] if p])
    for key, value in env.items():
        if value is None:
            full.pop(key, None)
        else:
            full[key] = value
    return full


def _fresh(code, *args, **env):
    """Last stdout line of a fresh interpreter that runs ``code`` with
    ``args`` and the package on its path (``env`` as for ``_child_env``)."""
    out = subprocess.run([sys.executable, "-c", code, *args],
                         env=_child_env(**env), capture_output=True,
                         text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


_CLI = [sys.executable, "-m", "partialid.cli"]


def _modules_after(code, prefix):
    """Modules under ``prefix`` that a fresh interpreter running ``code``
    has loaded."""
    return json.loads(_fresh(
        f"{code}\nimport json, sys; print(json.dumps(sorted(m for m in "
        f"sys.modules if m.split('.')[0] == {prefix!r})))"))


def _modules_after_run(argv, prefix):
    """Modules under ``prefix`` loaded after a fresh interpreter imports
    the CLI and runs ``argv`` through it, output and exit code discarded."""
    return _modules_after(f"""
import contextlib, io
from partialid.cli import run
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    run({list(argv)!r})""", prefix)


def _run_blocked(module, argv):
    """``partialid argv`` through ``main`` in a fresh interpreter where
    every import of ``module`` fails, as a ``CompletedProcess``."""
    code = (f"import sys\nsys.modules[{module!r}] = None\n"
            "sys.argv = ['partialid', *sys.argv[1:]]\n"
            "from partialid.cli import main\nmain()")
    return subprocess.run([sys.executable, "-c", code, *argv],
                          env=_child_env(), capture_output=True, text=True)


_LATE_MODULES = {"partialid.density", "partialid.latepoint",
                 "partialid.latebounds"}


# The names the package root re-exports: owner -> its names.  Each owner is
# itself a name.
_ROOT_NAMES = {
    "errors": "ConfigError DataError InternalConsistencyError PartialIdError "
              "WeakIdentificationError",
    "sets": "IntervalUnion superlevel_set",
    "datamodel": "RunConfig Sample "
                 "default_empirical_config default_simulation_config "
                 "default_threshold load_intervals_csv load_sample_csv "
                 "theorem_bandwidth theorem_trimming",
    "density": "DensityEstimate default_grid estimate_density_diff "
               "kernel_sum",
    "latepoint": "LateEstimate TailSpec check_iam_implication "
                 "conservative_union_ci estimate_late estimate_trimmed_sets "
                 "known_tail_estimate late_variance wald_estimate",
    "latebounds": "BoundEstimate DeltaEstimate estimate_bounds estimate_delta",
    "roy": "RoyDistribution build_polyhedron check_roy_refutable "
           "min_efficiency_loss potential_outcome_bounds",
    "structures": "FiniteStructureSpace binary_decidability check_extension "
                  "complete_space confirmable_sets load_space_json "
                  "nonrefutable_sets",
    "dilation": "CharacterizingFunction bootstrap_critical_value "
                "confidence_region estimated_identified_set "
                "interval_data_stats interval_mean_distance "
                "interval_mean_model",
    "simulate": "CoverageResult HalfDensity SimDesign draw_sample "
                "run_coverage true_identified_late",
}

# In a fresh interpreter: the names ``from partialid import *`` binds, and
# those among them that are not the object their owner (argv[1], as JSON
# name -> owning submodule) holds; a submodule's own name is the submodule.
_STAR_IMPORT = """
import importlib, json, sys
owners = json.loads(sys.argv[1])
ns = {}
exec("from partialid import *", ns)
del ns["__builtins__"]
wrong = []
for name, value in ns.items():
    owner = importlib.import_module("partialid." + owners[name])
    if value is not (owner if owners[name] == name else getattr(owner, name)):
        wrong.append(name)
print(json.dumps([sorted(ns), wrong]))
"""


class TestImports:
    def test_cli_path_loads_no_scipy(self):
        # every root name resolves on numpy and the stdlib alone: no test
        # dependency is loaded
        loaded = json.loads(_fresh(
            "import json, sys, partialid, partialid.cli\n"
            "[getattr(partialid, name) for name in partialid.__all__]\n"
            "print(json.dumps(sorted({m.split('.')[0] "
            "for m in sys.modules})))"))
        assert {"numpy", "partialid"} <= set(loaded)
        assert not {"scipy", "pytest", "_pytest", "hypothesis"} & set(loaded)

    def test_coverage_run_loads_no_scipy(self):
        # the simulation truth is closed-form, so the package needs no scipy
        code = ("import partialid as p; d = p.SimDesign.sec33(); "
                "cfg = p.default_simulation_config(300, d.band, "
                "tails=d.tails); "
                "r = p.run_coverage(d, 'known', 300, 2, cfg, seed=0, "
                "threads=1); print(r.truth)")
        assert _modules_after(code, "scipy") == []

    def test_cli_loads_no_thread_pool(self):
        # run_coverage imports its pool when it runs
        assert _modules_after("import partialid.cli", "concurrent") == []

    def test_root_loads_no_numpy_and_no_submodule(self):
        assert _modules_after("import partialid", "numpy") == []
        assert _modules_after("import partialid", "partialid") == \
            ["partialid"]

    def test_cli_import_loads_no_numpy_and_no_library_module(self):
        assert _modules_after("import partialid.cli", "numpy") == []
        assert _modules_after("import partialid.cli", "partialid") == \
            ["partialid", "partialid.cli", "partialid.errors"]

    @pytest.mark.parametrize("argv", [["--version"], ["--help"],
                                      ["late", "point"]],
                             ids=["version", "help", "usage-error"])
    def test_startup_loads_no_numpy(self, argv):
        assert _modules_after_run(argv, "numpy") == []

    def test_structures_analyze_loads_no_numpy(self, space_json):
        argv = ["structures", "analyze", "--space", space_json]
        assert _modules_after_run(argv, "numpy") == []
        assert _modules_after_run(argv, "partialid") == \
            ["partialid", "partialid.cli", "partialid.errors",
             "partialid.structures"]

    # only `late bounds` runs the bound estimators
    @pytest.mark.parametrize("command,bounds", [
        ("point", []), ("bounds", ["partialid.latebounds"]), ("test", [])],
        ids=["point", "bounds", "test"])
    def test_late_loads_only_late_code(self, sample_csv, command, bounds):
        loaded = _modules_after_run(
            ["late", command, "--input", sample_csv], "partialid")
        assert loaded == sorted(
            ["partialid", "partialid.cli", "partialid.errors",
             "partialid.datamodel", "partialid.density",
             "partialid.latepoint", "partialid.sets", *bounds])

    def test_cli_import_loads_no_dataclasses_or_csv(self):
        # only the tuning overrides and the --records-out writer use them
        for name in ("dataclasses", "csv"):
            assert _modules_after("import partialid.cli", name) == []

    def test_roy_import_loads_no_numpy(self):
        assert _modules_after("import partialid.roy", "numpy") == []

    def test_roy_loads_only_roy_code(self):
        # the cells are no sample, so the data model stays unloaded, and the
        # Roy model reads them without numpy
        argv = ["roy", "bounds", "--cells", ",".join(["0.125"] * 8)]
        assert _modules_after_run(argv, "partialid") == \
            ["partialid", "partialid.cli", "partialid.errors",
             "partialid.roy"]
        assert _modules_after_run(argv, "numpy") == []

    def test_roy_input_loads_numpy_and_the_data_model(self, binary_csv):
        argv = ["roy", "bounds", "--input", binary_csv]
        assert "numpy" in _modules_after_run(argv, "numpy")
        assert "partialid.datamodel" in _modules_after_run(argv, "partialid")

    @pytest.mark.parametrize("argv", [
        ["--version"],
        ["roy", "bounds", "--cells", "0.1,0.15,0.1,0.1,0.2,0.05,0.15,0.15"],
        ["structures", "analyze", "--space"]],
        ids=["version", "roy-cells", "structures"])
    def test_runs_with_numpy_blocked(self, space_json, argv):
        # a None entry in sys.modules makes every `import numpy` fail
        if argv[0] == "structures":
            argv = [*argv, space_json]
        code = ("import sys\n{}sys.argv = ['partialid', *sys.argv[1:]]\n"
                "from partialid.cli import main\nmain()")
        outs = [subprocess.run(
            [sys.executable, "-c", code.format(block), *argv],
            env=_child_env(), capture_output=True, text=True)
            for block in ("sys.modules['numpy'] = None\n", "")]
        for out in outs:
            assert (out.returncode, out.stderr) == (0, "")
        assert outs[0].stdout == outs[1].stdout != ""

    @pytest.mark.parametrize("argv", [
        ["late", "point", "--input"], ["late", "bounds", "--input"],
        ["late", "test", "--input"], ["roy", "bounds", "--input"],
        ["dilate", "region", "--a=0", "--b=1", "--input"],
        ["simulate", "coverage", "--n=300", "--m=2"]],
        ids=["late-point", "late-bounds", "late-test", "roy-input",
             "dilate-region", "simulate"])
    def test_numpy_commands_exit_2_with_numpy_blocked(self, sample_csv,
                                                      argv):
        if argv[-1] == "--input":
            argv = [*argv, sample_csv]
        out = _run_blocked("numpy", argv)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == ("error: this command needs numpy, which is "
                              "not installed\n")

    def test_missing_internal_module_keeps_its_traceback(self, sample_csv):
        out = _run_blocked("partialid.latepoint",
                           ["late", "point", "--input", sample_csv])
        assert out.returncode == 1
        assert out.stderr.startswith("Traceback")
        assert "ModuleNotFoundError" in out.stderr

    def test_dilate_loads_only_dilation_code(self, intervals_csv):
        loaded = _modules_after_run(
            ["dilate", "region", "--a=0", "--b=1", "--boot=100",
             "--input", intervals_csv], "partialid")
        assert "partialid.dilation" in loaded
        assert not (_LATE_MODULES | {"partialid.roy", "partialid.simplex",
                                     "partialid.structures"}) & set(loaded)

    @pytest.mark.parametrize("argv", [
        ["late", "point", "--input"], ["late", "bounds", "--input"],
        ["late", "test", "--input"],
        ["dilate", "region", "--a=0", "--b=1", "--boot=100", "--input"]],
        ids=["late-point", "late-bounds", "late-test", "dilate-region"])
    def test_late_and_dilate_load_no_masked_arrays(self, request, argv):
        # np.quantile imports numpy.ma, some 20 ms of a fresh process
        source = request.getfixturevalue(
            "intervals_csv" if argv[0] == "dilate" else "sample_csv")
        loaded = _modules_after_run([*argv, source], "numpy")
        assert "numpy" in loaded and "numpy.ma" not in loaded

    def test_roy_loads_no_late_code(self):
        loaded = _modules_after("import partialid.roy", "partialid")
        assert not {"partialid.latepoint", "partialid.latebounds",
                    "partialid.simulate", "partialid.dilation",
                    "partialid.structures"} & set(loaded)

    @pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")])
    def test_cli_runs_blas_on_one_thread_unless_told(self, preset, want):
        code = ("import os, partialid.cli; "
                "print(os.environ['OPENBLAS_NUM_THREADS'])")
        assert _fresh(code, OPENBLAS_NUM_THREADS=preset) == want

    def test_library_imports_leave_the_environment_alone(self):
        code = ("import importlib, os; before = dict(os.environ); "
                "import partialid; "
                f"[importlib.import_module('partialid.' + m) for m in "
                f"{sorted(_ROOT_NAMES)!r}]; print(dict(os.environ) == before)")
        assert _fresh(code, OPENBLAS_NUM_THREADS=None) == "True"

    def test_root_names_resolve_to_their_owners(self):
        owners = {name: module for module, names in _ROOT_NAMES.items()
                  for name in [module, *names.split()]}
        assert len(owners) == 68
        assert partialid.__all__ == sorted(owners)
        assert [n for n in dir(partialid) if not n.startswith("_")] == \
            partialid.__all__
        bound, wrong = json.loads(_fresh(_STAR_IMPORT, json.dumps(owners)))
        assert (bound, wrong) == (sorted(owners), [])

    def test_unknown_root_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError) as err:
            partialid.no_such_name
        assert str(err.value) == \
            "module 'partialid' has no attribute 'no_such_name'"


class TestMain:
    """``main`` is ``run`` in a process of its own."""

    @pytest.mark.parametrize("argv,code", [
        (["late", "point", "--input", "{sample}"], 0),
        (["dilate", "region", "--a=0", "--b=1", "--boot=100", "--input",
          "{intervals}"], 0),
        (["late", "point"], 1),
        (["late", "point", "--input", "/nonexistent/x.csv"], 2),
        (["late", "point", "--input", "{sample}", "--b", "99",
          "--threshold-scale", "absolute", "--tails", "none"], 3)],
        ids=["late-point", "dilate-region", "usage", "missing-file", "weak"])
    def test_exit_code_and_output_match_run(self, capsys, sample_csv,
                                            intervals_csv, argv, code):
        argv = [a.format(sample=sample_csv, intervals=intervals_csv)
                for a in argv]
        child = subprocess.run(_CLI + argv, env=_child_env(),
                               capture_output=True)
        assert run_cli(capsys, *argv) == \
            (code, child.stdout.decode(), child.stderr.decode())
        assert child.returncode == code

    def test_run_freezes_nothing(self, capsys, sample_csv):
        import gc

        assert run_cli(capsys, "late", "test", "--input", sample_csv)[0] == 0
        assert gc.get_freeze_count() == 0

    def test_exit_still_runs_atexit_handlers(self, sample_csv):
        code = ("import atexit, gc, sys\n"
                "from partialid import cli\n"
                "atexit.register(lambda: print('frozen', "
                "gc.get_freeze_count() > 0, file=sys.stderr))\n"
                "sys.argv = ['partialid', 'late', 'test', '--input', "
                f"{sample_csv!r}]\n"
                "cli.main()")
        child = subprocess.run([sys.executable, "-c", code],
                               env=_child_env(), capture_output=True,
                               text=True)
        assert child.returncode == 0
        assert json.loads(child.stdout)["results"]["n"] == 400
        assert child.stderr == "frozen True\n"

    # buffered, the report fails at the flush and stays buffered for the
    # flush at exit; unbuffered, it fails at the write
    @pytest.mark.parametrize("unbuffered", [None, "1"],
                             ids=["buffered", "unbuffered"])
    def test_closed_stdout_is_2_with_one_line(self, sample_csv, unbuffered):
        child = subprocess.Popen(_CLI + ["late", "point", "--input",
                                         sample_csv],
                                 env=_child_env(PYTHONUNBUFFERED=unbuffered),
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE)
        child.stdout.close()  # before the child can write its report
        err = child.stderr.read().decode()
        assert child.wait() == 2
        assert err == ("error: standard output closed before the report "
                       "was written\n")


class TestLazyNames:
    """Library names on the CLI module: resolved on first use, and read
    there by every command, so a name already set is what it calls."""

    @pytest.mark.parametrize("argv,group,name", [
        (["late", "point", "--input"], "late", "load_sample_csv"),
        (["roy", "bounds", "--input"], "roy", "potential_outcome_bounds"),
        (["structures", "analyze", "--space"], "structures",
         "binary_decidability"),
        (["dilate", "region", "--a=0", "--b=1", "--boot=100", "--input"],
         "dilate", "confidence_region")])
    def test_patch_before_the_first_command_is_called(
            self, capsys, monkeypatch, request, argv, group, name):
        from partialid import _OWNER, cli

        # unbind every library name, as in a process that ran no command yet
        for bound in _OWNER:
            monkeypatch.delitem(vars(cli), bound, raising=False)
        original = getattr(cli, name)
        calls = []

        def recorder(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, recorder)
        source = request.getfixturevalue(
            {"late": "sample_csv", "roy": "binary_csv",
             "structures": "space_json", "dilate": "intervals_csv"}[group])
        code, _, _ = run_cli(capsys, *argv, source)
        assert code == 0
        assert calls == [name]
        assert getattr(cli, name) is recorder

    def test_unknown_name_is_an_attribute_error(self):
        from partialid import cli

        with pytest.raises(AttributeError) as err:
            cli.no_such_name
        assert str(err.value) == \
            "module 'partialid.cli' has no attribute 'no_such_name'"


class TestRender:
    def test_non_finite_numbers_render_as_strings(self):
        def no_constant(name):
            raise AssertionError(f"bare {name} in the report")

        report = {"np": [np.float64("nan"), np.float64("-inf")],
                  "py": [float("nan"), float("inf")],
                  "arr": np.array([np.nan, 1.5])}
        out = json.loads(_render(report, "json"), parse_constant=no_constant)
        assert out == {"np": ["nan", "-inf"], "py": ["nan", "inf"],
                       "arr": ["nan", 1.5]}
