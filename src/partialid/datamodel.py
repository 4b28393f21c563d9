"""Core data containers: samples, their CSV loaders, and the run
configuration, which holds the tuning values every estimation module reads:
bandwidth, trimming level and regime threshold at the sample size."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, open_utf8


@dataclass(frozen=True)
class Sample:
    """n observations of (outcome ``y`` real, treatment ``d`` binary,
    instrument ``z`` binary)."""

    y: np.ndarray
    d: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        d = np.asarray(self.d)
        z = np.asarray(self.z)
        if not (y.ndim == d.ndim == z.ndim == 1):
            raise DataError("y, d, z must be one-dimensional")
        if not (y.size == d.size == z.size):
            raise DataError("y, d, z must have equal length")
        if y.size < 1:
            raise DataError("sample must contain at least one observation")
        if not np.isfinite(y).all():
            raise DataError("y contains non-finite values")
        for name, arr in (("d", d), ("z", z)):
            if not ((arr == 0) | (arr == 1)).all():
                raise DataError(f"{name} must contain only 0 or 1")
        if not (np.any(z == 1) and np.any(z == 0)):
            raise DataError("both instrument arms (z=0 and z=1) must be present")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "d", d.astype(np.int8))
        object.__setattr__(self, "z", z.astype(np.int8))

    @property
    def n(self):
        return self.y.size


def sorted_quantile(ys, q):
    """``numpy.quantile(ys, q)`` of an ascending nonempty array, bit for
    bit, as a Python float: numpy's default ``linear`` method, without the
    ``numpy.ma`` import (some 20 ms of a fresh process) that numpy's own
    quantile brings in.

    The virtual index is (n - 1) q, with g its fractional part; numpy
    clamps an index at or past the last to the last value, with g its
    distance from -1.  Only where the data hold zeros of both signs can
    the sign of a zero result differ, as numpy partitions and does not sort.
    """
    last = len(ys) - 1
    v = last * q
    if v >= last:
        i = j = last
        g = v + 1.0
    else:
        i = math.floor(v)
        j = i + 1
        g = v - i
    a, b = float(ys[i]), float(ys[j])
    if g >= 0.5:
        return b - (b - a) * (1.0 - g)
    return a + (b - a) * g


def check_seed(seed):
    """Raise a ConfigError, in place of numpy's own error, unless ``seed``
    is a non-negative integer (a numpy integer included)."""
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")


def theorem_bandwidth(n):
    """Rate-based bandwidth h_n = n^{-1/5} (default for simulations)."""
    return float(n) ** (-1.0 / 5.0)


def theorem_trimming(n):
    """Rate-based trimming level b_n = n^{-1/4} / log n."""
    return float(n) ** (-1.0 / 4.0) / math.log(n)


def default_threshold(n):
    """Regime-switch threshold kappa_n = log n / sqrt(n)."""
    return math.log(n) / math.sqrt(n)


@dataclass(frozen=True)
class RunConfig:
    """Tuning values for one run at its sample size.

    The paper's tuning sequences are rates in n; every estimator applies
    them once, at its own sample's n, so the config holds their values:
    the bandwidth ``h``, the trimming level ``b`` and the regime threshold
    ``kappa``.  A run at another n builds a new config.
    """

    band: tuple
    h: float
    b: float
    kappa: float
    alpha: float = 0.05
    n_boot: int = 500
    seed: int = 0
    tails: Optional[object] = None  # TailSpec, when selected from data
    threshold_scale: str = "absolute"  # how b is applied to the densities
    notes: tuple = field(default_factory=tuple)

    def __post_init__(self):
        m_l, m_u = self.band
        if not m_l < m_u:
            raise ConfigError("band must satisfy M_l < M_u")
        # below 2**-53, 1 - alpha/2 rounds to 1 and has no normal quantile
        if not 2.0 ** -53 < self.alpha < 1.0:
            raise ConfigError(
                f"alpha must be in (2**-53, 1), got {self.alpha}")
        if self.threshold_scale not in ("absolute", "relative"):
            raise ConfigError(
                "threshold_scale must be 'absolute' or 'relative', got "
                f"{self.threshold_scale!r}")
        if self.n_boot < 1:
            raise ConfigError("bootstrap count must be >= 1")
        for name in ("h", "b", "kappa"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(
                    f"{name} must be positive and finite, got {value}")

    def to_jsonable(self):
        out = {
            "band": [self.band[0], self.band[1]],
            "alpha": self.alpha,
            "n_boot": self.n_boot,
            "seed": self.seed,
            "h": self.h,
            "b": self.b,
            "kappa": self.kappa,
            "threshold_scale": self.threshold_scale,
        }
        if self.tails is not None:
            out["tails"] = self.tails.to_jsonable()
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def default_simulation_config(n, band, alpha=0.05, seed=0, tails=None):
    """Rate-rule configuration used by the simulation harness.

    The trimming level is applied relative to the per-state peak of the
    estimated density difference, so one b works across designs whose
    density scales differ.  Requires n >= 2: the trimming rate divides by
    log n.
    """
    if n < 2:
        raise ConfigError("n must be at least 2")
    return RunConfig(
        band=tuple(band),
        h=theorem_bandwidth(n),
        b=theorem_trimming(n),
        kappa=default_threshold(n),
        alpha=alpha,
        seed=seed,
        tails=tails,
        threshold_scale="relative",
    )


def default_empirical_config(sample: Sample, alpha=0.05) -> RunConfig:
    """Data-driven configuration for empirical (CSV) runs.

    Rules: h = sd(Y) log(n) / (2 n^{1/5}); b = n^{-1/4} times the mean of
    f1 + f0 at the observations, one signed kernel sweep; the trimming band
    is the empirical 1%/99% quantile range of Y; tail signs are chosen by
    comparing weighted conditional tail variances across instrument arms.

    Requires n >= 20; the rules are unreliable below that.
    """
    # local: `dilate region` loads this module, and it needs no density
    from .density import _signed_weights, kernel_sum

    n = sample.n
    if n < 20:
        raise ConfigError(f"need n >= 20 for the data-driven rules, got n={n}")
    with np.errstate(over="ignore", invalid="ignore"):
        sd = float(np.std(sample.y, ddof=1))
    if not math.isfinite(sd):
        raise DataError("outcomes spread too widely for the bandwidth rule: "
                        "their standard deviation overflows")
    ys = np.sort(sample.y)
    if sd <= 0:
        if ys[0] < ys[-1]:
            raise DataError("outcomes spread too narrowly for the bandwidth "
                            "rule: their standard deviation underflows")
        raise ConfigError("outcome is constant: bandwidth rule gives h = 0")
    h = sd * math.log(n) / (2.0 * n ** (1.0 / 5.0))
    m_l, m_u = sorted_quantile(ys, 0.01), sorted_quantile(ys, 0.99)
    if m_l >= m_u:
        raise ConfigError("degenerate 1%/99% quantile band")

    w, scale = _signed_weights(sample)
    b = n ** (-1.0 / 4.0) * float(np.mean(kernel_sum(sample.y, w, h, ys)
                                          / scale))
    notes = []
    if not b > 0:
        b = theorem_trimming(n)
        notes.append("average density level non-positive; fell back to the rate rule for b")

    return RunConfig(
        band=(m_l, m_u),
        h=h,
        b=b,
        kappa=default_threshold(n),
        alpha=alpha,
        tails=_tail_spec(sample),
        notes=tuple(notes),
    )


def _tail_spec(sample):
    """Tail signs: side d's upper (lower) tail set is present iff its own
    arm's (Z=d) weighted decile-tail variance is at least the other arm's."""
    from .latepoint import TailSpec  # local: avoid cycle

    var = {}  # (d, z): upper and lower decile-tail variance of the cell
    for z in (0, 1):
        arm = sample.z == z
        for d in (0, 1):
            ys = sample.y[arm & (sample.d == d)]
            share = ys.size / np.count_nonzero(arm)
            # the tails keep the cell's own order: np.var sums in it
            lo = hi = 0.0
            if ys.size:
                ascending = np.sort(ys)
                lo = sorted_quantile(ascending, 0.1)
                hi = sorted_quantile(ascending, 0.9)
            var[d, z] = [float(np.var(tail, ddof=1)) * share ** 2
                         if tail.size >= 2 else 0.0
                         for tail in (ys[ys >= hi], ys[ys <= lo])]
    return TailSpec(*(own >= other for d in (1, 0)
                      for own, other in zip(var[d, d], var[d, 1 - d])))


def _data_rows(path, header):
    """The CSV's data rows with their record numbers ``i``: the header is
    matched ignoring case and surrounding spaces, blank rows are skipped
    and every other row must have one cell per header column."""
    with open_utf8(path) as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty")
        if [c.strip().lower() for c in first] != header:
            raise DataError(f"{path}: expected header "
                            f"{','.join(header)!r}, got {first!r}")
        for i, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise _row_error(path, i, f"expected {len(header)} columns, "
                                          f"got {len(row)}")
            yield i, row


def _row_error(path, i, message):
    """The error of record ``i`` of the CSV (the header is record 1)."""
    return DataError(f"{path}, row {i}: {message}")


def load_sample_csv(path) -> Sample:
    """Read a `y,d,z` CSV into a Sample, with per-row validation."""
    ys, ds, zs = [], [], []
    for i, row in _data_rows(path, ["y", "d", "z"]):
        try:
            y = float(row[0])
        except ValueError:
            raise _row_error(path, i, f"non-numeric outcome {row[0]!r}")
        if not math.isfinite(y):
            raise _row_error(path, i, f"non-finite outcome {row[0]!r}")
        d, z = row[1].strip(), row[2].strip()
        if d not in ("0", "1"):
            raise _row_error(path, i, f"treatment must be 0 or 1, got {d!r}")
        if z not in ("0", "1"):
            raise _row_error(path, i, f"instrument must be 0 or 1, got {z!r}")
        ys.append(y)
        ds.append(int(d))
        zs.append(int(z))
    if not ys:
        raise DataError(f"{path}: no data rows")
    try:
        return Sample(np.array(ys), np.array(ds), np.array(zs))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_intervals_csv(path):
    """Read a `y_l,y_u` CSV into a pair of arrays, with validation."""
    lows, highs = [], []
    for i, row in _data_rows(path, ["y_l", "y_u"]):
        try:
            lo, hi = float(row[0]), float(row[1])
        except ValueError:
            raise _row_error(path, i, "non-numeric cell")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise _row_error(path, i, "non-finite cell")
        if lo > hi:
            raise _row_error(path, i, "y_l > y_u")
        lows.append(lo)
        highs.append(hi)
    if not lows:
        raise DataError(f"{path}: no data rows")
    return np.array(lows), np.array(highs)
