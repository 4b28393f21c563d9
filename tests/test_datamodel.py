"""Sample containers, CSV loaders, tuning rules, and run configuration."""

import csv
import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from partialid.datamodel import (Sample, load_sample_csv,
                                 load_intervals_csv, open_utf8, RunConfig,
                                 default_empirical_config,
                                 default_simulation_config,
                                 sorted_quantile, theorem_bandwidth,
                                 theorem_trimming, default_threshold)
from partialid.density import kernel_sum
from partialid.errors import ConfigError, DataError
from partialid.latepoint import TailSpec
from partialid.simulate import SimDesign, draw_sample

from conftest import gen_inputs, make_sample, write_sample_csv


class TestSample:
    def test_rejects_nonbinary_treatment(self):
        with pytest.raises(DataError, match="d must"):
            Sample(y=np.zeros(4), d=np.array([0, 1, 2, 0]),
                   z=np.array([0, 1, 0, 1]))

    @pytest.mark.parametrize("codes", [np.array([0.0, 1.0, 1.0, 0.0]),
                                       np.array([False, True, True, False]),
                                       np.array([0, 1, 1, 0], dtype=object)])
    def test_accepts_binary_codes_of_any_dtype(self, codes):
        s = Sample(y=np.zeros(4), d=codes, z=codes)
        assert s.d.dtype == s.z.dtype == np.int8
        assert s.d.tolist() == s.z.tolist() == [0, 1, 1, 0]

    @pytest.mark.parametrize("name", ["d", "z"])
    @pytest.mark.parametrize("bad", [np.array([0, 1, 2, 0]),
                                     np.array([0.0, 1.0, np.nan, 0.0]),
                                     np.array(["0", "1", "1", "0"]),
                                     np.array(["d", "z", "d", "z"])])
    def test_rejects_non_binary_codes(self, name, bad):
        cols = {"d": np.array([0, 1, 1, 0]), "z": np.array([0, 1, 1, 0])}
        cols[name] = bad
        with pytest.raises(DataError) as err:
            Sample(y=np.zeros(4), **cols)
        assert str(err.value) == f"{name} must contain only 0 or 1"

    def test_rejects_nan_outcome(self):
        with pytest.raises(DataError, match="non-finite"):
            Sample(y=np.array([0.0, np.nan]), d=np.array([0, 1]),
                   z=np.array([0, 1]))

    def test_rejects_single_arm(self):
        with pytest.raises(DataError, match="arms"):
            Sample(y=np.zeros(3), d=np.array([0, 1, 0]),
                   z=np.array([1, 1, 1]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError, match="equal length"):
            Sample(y=np.zeros(3), d=np.zeros(2), z=np.array([0, 1, 0]))


class TestCsvLoaders:
    def test_roundtrip(self, tmp_path):
        s = make_sample(50, seed=4)
        path = write_sample_csv(tmp_path / "s.csv", s)
        back = load_sample_csv(path)
        assert back.n == 50
        assert np.allclose(back.y, s.y)

    def test_header_only_is_empty_data(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("y,d,z\n")
        with pytest.raises(DataError, match="no data rows"):
            load_sample_csv(p)

    def test_missing_header(self, tmp_path):
        p = tmp_path / "noheader.csv"
        p.write_text("1.0,0,1\n")
        with pytest.raises(DataError, match="header"):
            load_sample_csv(p)

    def test_bad_treatment_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("y,d,z\n1.0,0,1\n2.0,2,0\n")
        with pytest.raises(DataError, match="row 3"):
            load_sample_csv(p)

    def test_non_numeric_outcome_names_row(self, tmp_path):
        p = tmp_path / "bad2.csv"
        p.write_text("y,d,z\nxyz,0,1\n")
        with pytest.raises(DataError, match="row 2"):
            load_sample_csv(p)

    def test_intervals_roundtrip(self, tmp_path):
        p = tmp_path / "iv.csv"
        p.write_text("y_l,y_u\n0.0,1.0\n-2.0,0.5\n")
        lo, hi = load_intervals_csv(p)
        assert lo.tolist() == [0.0, -2.0]
        assert hi.tolist() == [1.0, 0.5]

    def test_intervals_reject_inverted(self, tmp_path):
        p = tmp_path / "iv.csv"
        p.write_text("y_l,y_u\n1.0,0.0\n")
        with pytest.raises(DataError, match="row 2"):
            load_intervals_csv(p)


class TestRules:
    def test_rates(self):
        assert theorem_bandwidth(100000) == pytest.approx(100000 ** -0.2)
        assert theorem_trimming(1000) == pytest.approx(
            1000 ** -0.25 / math.log(1000))
        assert default_threshold(1000) == pytest.approx(
            math.log(1000) / math.sqrt(1000))

    def test_rules_shrink(self):
        for rule in (theorem_bandwidth, theorem_trimming, default_threshold):
            assert rule(10 ** 6) < rule(100)


class TestRunConfig:
    VALUES = dict(h=0.4, b=0.2, kappa=0.1)

    def test_rejects_bad_band(self):
        with pytest.raises(ConfigError):
            RunConfig(band=(2.0, 1.0), **self.VALUES)

    def test_rejects_bad_threshold_scale(self):
        with pytest.raises(ConfigError, match="threshold_scale"):
            RunConfig(band=(0.0, 1.0), threshold_scale="weird",
                      **self.VALUES)

    @pytest.mark.parametrize("name", ["h", "b", "kappa"])
    @pytest.mark.parametrize("value", [0.0, -0.1, math.inf, -math.inf,
                                       math.nan])
    def test_rejects_nonpositive_or_nonfinite_tuning(self, name, value):
        values = dict(self.VALUES, **{name: value})
        with pytest.raises(ConfigError,
                           match=f"^{name} must be positive and finite"):
            RunConfig(band=(0.0, 1.0), **values)

    def test_replace_revalidates_tuning(self):
        cfg = RunConfig(band=(0.0, 1.0), **self.VALUES)
        assert dataclasses.replace(cfg, h=0.3).h == 0.3
        with pytest.raises(ConfigError, match="^b must be"):
            dataclasses.replace(cfg, b=0.0)

    def test_simulation_default_uses_relative_scale(self):
        cfg = default_simulation_config(1000, (-2.5, 7.0))
        assert cfg.threshold_scale == "relative"
        assert cfg.h == theorem_bandwidth(1000)
        assert cfg.b == theorem_trimming(1000)
        assert cfg.kappa == default_threshold(1000)

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_simulation_default_needs_two_observations(self, n):
        # the trimming rate divides by log n, which is 0 at n = 1
        with pytest.raises(ConfigError, match="^n must be at least 2$"):
            default_simulation_config(n, (-2.5, 7.0))

    def test_jsonable_carries_tuning(self):
        cfg = default_simulation_config(1000, (-2.5, 7.0))
        out = cfg.to_jsonable()
        for key in ("band", "alpha", "h", "b", "kappa", "threshold_scale"):
            assert key in out


# finite values whose differences stay finite: subnormals, signed zeros,
# magnitudes near 1e300 and small integers, which tie
_QUANTILE_VALUES = st.one_of(
    st.floats(-1e300, 1e300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300,
                     9.9e299, -9.9e299]),
    st.integers(-3, 3).map(float))
_LEVELS = st.one_of(
    st.sampled_from([0.0, 1.0, 0.01, 0.1, 0.5, 0.9, 0.99]),
    st.floats(0.0, 1.0),
    # 1 - alpha, as the bootstrap critical value takes it
    st.floats(2.0 ** -53, 1.0).map(lambda alpha: 1.0 - alpha))


class TestSortedQuantile:
    """The sorted-array quantile equals numpy's default one."""

    @given(values=st.lists(_QUANTILE_VALUES, min_size=1, max_size=80),
           q=_LEVELS)
    @example(values=[-1e300], q=0.5)
    @example(values=[5e-324, 1e-320, 5e-324], q=0.95)
    @example(values=[1e300, -1e300, 3.0], q=1.0)
    @example(values=[2.0, 2.0, 2.0, 1.0], q=0.0)
    @settings(max_examples=2000, deadline=None)
    def test_equals_numpy(self, values, q):
        ys = np.array(values)
        got = sorted_quantile(np.sort(ys), q)
        assert type(got) is float
        assert got == np.quantile(ys, q)

    def test_without_zeros_of_both_signs_the_bits_agree(self):
        # numpy partitions and the helper sorts, so only the order of
        # tied zeros can differ between them
        rng = np.random.default_rng(4)
        for n in range(1, 60):
            ys = np.abs(np.round(rng.normal(0, 1, n), 1))
            for q in (0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0):
                got = sorted_quantile(np.sort(ys), q)
                assert repr(got) == repr(float(np.quantile(ys, q)))


class TestEmpiricalConfig:
    def test_small_sample_rejected(self):
        s = make_sample(19, seed=0)
        with pytest.raises(ConfigError, match="n >= 20"):
            default_empirical_config(s)

    def test_band_is_quantile_range(self):
        s = make_sample(500, seed=5)
        cfg = default_empirical_config(s)
        assert cfg.band[0] == pytest.approx(np.quantile(s.y, 0.01))
        assert cfg.band[1] == pytest.approx(np.quantile(s.y, 0.99))
        assert cfg.h > 0 and cfg.b > 0
        assert cfg.tails is not None

    def test_overflowing_spread_is_a_data_error(self):
        # squares of deviations near 1e300 overflow; the rule must say so
        # rather than hand on an infinite bandwidth
        s = make_sample(200, seed=7)
        s = Sample(y=s.y * 1e300, d=s.d, z=s.z)
        with np.errstate(all="raise"):
            with pytest.raises(DataError, match="standard deviation overflows"):
                default_empirical_config(s)

    def test_underflowing_spread_is_a_data_error(self):
        # deviations near 1e-300 square to zero, so the sd reads 0 although
        # the outcomes differ; the rule must not call them constant
        rng = np.random.default_rng(9)
        d, z = rng.integers(0, 2, (2, 300)).astype(float)
        s = Sample(y=rng.standard_normal(300) * 1e-300, d=d, z=z)
        assert float(np.std(s.y, ddof=1)) == 0.0 and np.ptp(s.y) > 0
        with pytest.raises(DataError, match="^outcomes spread too narrowly "
                           "for the bandwidth rule: their standard "
                           "deviation underflows$"):
            default_empirical_config(s)

    def test_constant_outcome_keeps_its_message(self):
        s = make_sample(200, seed=7)
        s = Sample(y=np.full(200, 1e-300), d=s.d, z=s.z)
        with pytest.raises(ConfigError, match="^outcome is constant: "
                           "bandwidth rule gives h = 0$"):
            default_empirical_config(s)

    def test_deterministic(self):
        s = make_sample(200, seed=6)
        a = default_empirical_config(s)
        b = default_empirical_config(s)
        assert a.h == b.h and a.b == b.b and a.band == b.band

    def test_tuning_step_is_not_quadratic(self):
        # the density level sums the four cells' kernels at all n outcomes:
        # the sorted sweep takes ~0.3 s here, a direct sum over every
        # (outcome, outcome) pair several minutes
        s = draw_sample(SimDesign.sec33(), 200_000, 12)
        start = time.perf_counter()
        cfg = default_empirical_config(s)
        assert time.perf_counter() - start < 10.0
        assert cfg.h > 0 and cfg.b > 0


# ----------------------------------------------------------------------
# Differential oracles: the loaders' and the tuning step's earlier,
# one-job-at-a-time forms, kept as slow references.
# ----------------------------------------------------------------------
def old_load_sample_csv(path):
    ys, ds, zs = [], [], []
    with open_utf8(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty")
        if [c.strip().lower() for c in header] != ["y", "d", "z"]:
            raise DataError(f"{path}: expected header 'y,d,z', got {header!r}")
        for i, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise DataError(
                    f"{path}, row {i}: expected 3 columns, got {len(row)}")
            try:
                y = float(row[0])
            except ValueError:
                raise DataError(
                    f"{path}, row {i}: non-numeric outcome {row[0]!r}")
            if not math.isfinite(y):
                raise DataError(
                    f"{path}, row {i}: non-finite outcome {row[0]!r}")
            d, z = row[1].strip(), row[2].strip()
            if d not in ("0", "1"):
                raise DataError(
                    f"{path}, row {i}: treatment must be 0 or 1, got {d!r}")
            if z not in ("0", "1"):
                raise DataError(
                    f"{path}, row {i}: instrument must be 0 or 1, got {z!r}")
            ys.append(y)
            ds.append(int(d))
            zs.append(int(z))
    if not ys:
        raise DataError(f"{path}: no data rows")
    try:
        return Sample(np.array(ys), np.array(ds), np.array(zs))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def old_load_intervals_csv(path):
    lows, highs = [], []
    with open_utf8(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty")
        if [c.strip().lower() for c in header] != ["y_l", "y_u"]:
            raise DataError(
                f"{path}: expected header 'y_l,y_u', got {header!r}")
        for i, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 2:
                raise DataError(
                    f"{path}, row {i}: expected 2 columns, got {len(row)}")
            try:
                lo, hi = float(row[0]), float(row[1])
            except ValueError:
                raise DataError(f"{path}, row {i}: non-numeric cell")
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise DataError(f"{path}, row {i}: non-finite cell")
            if lo > hi:
                raise DataError(f"{path}, row {i}: y_l > y_u")
            lows.append(lo)
            highs.append(hi)
    if not lows:
        raise DataError(f"{path}: no data rows")
    return np.array(lows), np.array(highs)


def old_tail_variance(sample, d, z, upper):
    arm = sample.z == z
    cell = (sample.d == d) & arm
    n_arm = int(np.count_nonzero(arm))
    n_cell = int(np.count_nonzero(cell))
    if n_arm == 0 or n_cell < 2:
        return 0.0
    ys = sample.y[cell]
    cut = np.quantile(ys, 0.9 if upper else 0.1)
    tail = ys[ys >= cut] if upper else ys[ys <= cut]
    if tail.size < 2:
        return 0.0
    share = n_cell / n_arm
    return float(np.var(tail, ddof=1)) * share ** 2


def old_tail_flag(sample, d, upper):
    own = old_tail_variance(sample, d=d, z=d, upper=upper)
    other = old_tail_variance(sample, d=d, z=1 - d, upper=upper)
    return own >= other


def old_empirical_config(sample):
    """The tuning step with one quantile call per band end and per tail,
    each (D, Z) cell masked once per tail, and the density level from four
    cell sweeps; with b's tolerance."""
    n = sample.n
    if n < 20:
        raise ConfigError(f"need n >= 20 for the data-driven rules, got n={n}")
    with np.errstate(over="ignore", invalid="ignore"):
        sd = float(np.std(sample.y, ddof=1))
    if not math.isfinite(sd):
        raise DataError("outcomes spread too widely for the bandwidth rule: "
                        "their standard deviation overflows")
    if sd <= 0:
        raise ConfigError("outcome is constant: bandwidth rule gives h = 0")
    h = sd * math.log(n) / (2.0 * n ** (1.0 / 5.0))
    m_l = float(np.quantile(sample.y, 0.01))
    m_u = float(np.quantile(sample.y, 0.99))
    if m_l >= m_u:
        raise ConfigError("degenerate 1%/99% quantile band")
    ys = np.sort(sample.y)

    def cell(d, z):  # the sub-density of (Y, D=d) given Z=z at ys
        arm = sample.z == z
        return (kernel_sum(sample.y[arm & (sample.d == d)], 1.0, h, ys)
                / np.count_nonzero(arm))

    f1, f0 = cell(1, 1) - cell(1, 0), cell(0, 0) - cell(0, 1)
    b = n ** (-1.0 / 4.0) * float(np.mean(f1 + f0))
    # b is a mean of terms that cancel, so one signed sweep and four cell
    # sweeps round differently on the scale of the terms, not of b
    b_tol = 1e-12 * n ** (-1.0 / 4.0) * float(np.mean(abs(f1) + abs(f0)))
    notes = []
    if not b > 0:
        b = theorem_trimming(n)
        notes.append("average density level non-positive; fell back to the "
                     "rate rule for b")
    tails = TailSpec(
        upper1=old_tail_flag(sample, d=1, upper=True),
        lower1=old_tail_flag(sample, d=1, upper=False),
        upper0=old_tail_flag(sample, d=0, upper=True),
        lower0=old_tail_flag(sample, d=0, upper=False),
    )
    return RunConfig(band=(m_l, m_u), h=h, b=b, kappa=default_threshold(n),
                     tails=tails, notes=tuple(notes)), b_tol


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and text of what it raises."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the differential compares any error
        return "raised", type(exc), str(exc)


def assert_same_arrays(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


def assert_same_tuning(got, want):
    """``got`` from the tuning step, ``want`` from ``old_empirical_config``:
    the same error, or the same values with b within the old form's
    tolerance."""
    assert got[0] == want[0]
    if got[0] == "raised":
        assert got[1:] == want[1:]
        return
    want, b_tol = want[1]
    for name in ("h", "band", "kappa", "tails", "notes"):
        assert getattr(got[1], name) == getattr(want, name), name
    assert abs(got[1].b - want.b) <= b_tol


def _spaced(name):
    """A header cell: ``name`` in any case with optional padding."""
    return st.tuples(st.sampled_from(["", " ", "  "]),
                     st.lists(st.booleans(), min_size=len(name),
                              max_size=len(name)),
                     st.sampled_from(["", " ", "\t"])).map(
        lambda t: t[0] + "".join(c.upper() if up else c
                                 for c, up in zip(name, t[1])) + t[2])


_NUMBER = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.integers(-50, 50).map(str),
    st.sampled_from([" 1.5", "2.5 ", "1e3", "-0", '"4.5"', "1_0"]))
_CODE = st.sampled_from(["0", "1", " 0", "1 ", " 1 ", '"0"', '" 1"'])
_BAD = st.sampled_from(["", " ", "2", "0.0", "abc", "01", "nan", "inf",
                        '"2,5"', '""'])
_BLANK = st.sampled_from(["", " ", "\t", ",,", " , , ", ","])
# one valid row of each file kind
_GOOD_ROWS = {
    ("y", "d", "z"): st.tuples(_NUMBER, _CODE, _CODE),
    ("y_l", "y_u"): st.tuples(_NUMBER, _NUMBER).map(
        lambda t: sorted(t, key=lambda c: float(c.strip(' "')))),
}


@st.composite
def csv_texts(draw, columns):
    """The bytes of a CSV: a header of any case and padding (now and then
    a wrong one), valid rows with quoted cells, blank rows, one line end,
    and perhaps no data rows, a bad cell, a row of the wrong width or a
    byte that is not UTF-8 at a random place."""
    if draw(st.integers(0, 19)) == 7:
        header = draw(st.sampled_from(["", "y,d", "x,d,z", "y_l,y_u,y",
                                       "y;d;z", '"y,d,z"']))
    else:
        header = ",".join(draw(_spaced(c)) for c in columns)
    rows = [",".join(row) for row in draw(
        st.lists(_GOOD_ROWS[tuple(columns)], min_size=1, max_size=40))]
    fault = draw(st.sampled_from(["none", "none", "none", "cell", "width",
                                  "no rows"]))
    if fault == "no rows":
        rows = []
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(_BLANK))
    if fault == "cell":
        row = list(draw(_GOOD_ROWS[tuple(columns)]))
        row[draw(st.integers(0, len(row) - 1))] = draw(_BAD)
        rows.insert(draw(st.integers(0, len(rows))), ",".join(row))
    elif fault == "width":
        width = draw(st.integers(1, len(columns) + 2).filter(
            lambda w: w != len(columns)))
        row = draw(st.lists(_NUMBER, min_size=width, max_size=width))
        rows.insert(draw(st.integers(0, len(rows))), ",".join(row))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join([header] + rows)
    if draw(st.booleans()):
        text += end
    data = text.encode("utf-8")
    if draw(st.integers(0, 19)) == 7:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


class TestLoaderDifferential:
    """The shared row reader gives the earlier loaders' arrays and error
    texts, row numbers included."""

    @given(data=csv_texts(["y", "d", "z"]))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_sample_loader(self, tmp_path, data):
        path = tmp_path / "s.csv"
        path.write_bytes(data)
        got, want = (outcome(load_sample_csv, path),
                     outcome(old_load_sample_csv, path))
        assert got[0] == want[0]
        if got[0] == "ok":
            assert_same_arrays((got[1].y, got[1].d, got[1].z),
                               (want[1].y, want[1].d, want[1].z))
        else:
            assert got[1:] == want[1:]

    @given(data=csv_texts(["y_l", "y_u"]))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_intervals_loader(self, tmp_path, data):
        path = tmp_path / "iv.csv"
        path.write_bytes(data)
        got, want = (outcome(load_intervals_csv, path),
                     outcome(old_load_intervals_csv, path))
        assert got[0] == want[0]
        if got[0] == "ok":
            assert_same_arrays(got[1], want[1])
        else:
            assert got[1:] == want[1:]


@st.composite
def tuning_samples(draw):
    """Samples with cells of 0 to 40 observations (a one-observation cell
    among them), continuous, tenth-rounded or integer outcomes."""
    counts = draw(st.lists(st.integers(0, 40), min_size=4, max_size=4))
    if draw(st.booleans()):
        counts[draw(st.integers(0, 3))] = 1
    assume(counts[0] + counts[1] > 0 and counts[2] + counts[3] > 0)
    decimals = draw(st.sampled_from([None, 1, 0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    y, d, z = [], [], []
    for cell, count in enumerate(counts):
        zc, dc = divmod(cell, 2)
        draws = rng.normal(dc * 2.0 - zc, 1.0 + zc, count)
        y.append(draws if decimals is None else np.round(draws, decimals))
        d += [dc] * count
        z += [zc] * count
    return Sample(y=np.concatenate(y), d=np.array(d), z=np.array(z))


class TestTuningDifferential:
    """One visit per (D, Z) cell, one quantile call for the band and one
    signed sweep give the same tuning values as one call per tail and per
    band end and four cell sweeps."""

    @given(sample=tuning_samples())
    @settings(max_examples=300, deadline=None)
    def test_generated_samples(self, sample):
        assert_same_tuning(outcome(default_empirical_config, sample),
                           outcome(old_empirical_config, sample))

    # the benchmark's CLI mix draws its inputs from this pool of seeds
    @pytest.mark.parametrize("seed", range(16))
    def test_cli_mix_pool_inputs(self, tmp_path, seed):
        gen_inputs().write_cli_inputs(tmp_path, seed)
        for name in ("sec33", "gap", "rounded", "small"):
            path = tmp_path / f"{name}.csv"
            sample = load_sample_csv(path)
            want = old_load_sample_csv(path)
            assert_same_arrays((sample.y, sample.d, sample.z),
                               (want.y, want.d, want.z))
            assert_same_tuning(outcome(default_empirical_config, sample),
                               outcome(old_empirical_config, sample))
        path = tmp_path / "intervals.csv"
        assert_same_arrays(load_intervals_csv(path),
                           old_load_intervals_csv(path))
