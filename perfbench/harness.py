"""Shared pieces of the benchmark: paths, statistics, child processes,
fresh-process probes and the result record every workload returns."""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
PYCACHE = os.path.join(BUILD, "pycache")
REFS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

# Each fresh-process set-up probe runs this many times, and each import
# probe of a traced run IMPORT_REPEATS times; both report the median.
PROBE_REPEATS = 5
IMPORT_REPEATS = 3

# The machines this runs on drift in speed by 20% and more either way over
# tens of seconds, for any code, so raw seconds of runs made minutes apart
# disagree by more than any bound a regression check could use.  A fixed
# calibration kernel, timed around each op, tracks that drift, so every time
# is reported in reference seconds: wall seconds times the kernel's reference
# time over its time around the op, i.e. the time at the speed where the
# kernel takes its reference time.  Drift slows large-array code and code
# making many numpy calls on tiny arrays differently, so each workload uses
# the kernel closest to its own work.  See README.md, "Reference seconds".


def _kernel_inputs():
    rng = np.random.default_rng(20020)
    return (rng.random(2_500), np.linspace(0.0, 1.0, 512),
            rng.random((12, 24)) + 0.1)


_OBS, _GRID, _TABLEAU = _kernel_inputs()


def bulk_kernel():
    """Gaussian kernel sums of 2.5k points on a 512-point grid, three times:
    large-array numpy, as in a density fit."""
    total = 0.0
    for _ in range(3):
        u = (_OBS[:, None] - _GRID[None, :]) / 0.2
        total += float(np.exp(-0.5 * u * u).sum())
    return total


def small_kernel():
    """Pivot steps on a 12 x 24 tableau, 100 times: many numpy calls on
    tiny arrays, as in a small simplex LP."""
    keep = np.arange(12)
    for _ in range(100):
        a = _TABLEAU.copy()
        for _ in range(4):
            j = int(np.argmin(a[-1, :-1]))
            col = a[:-1, j]
            ratio = np.where(col > 0, a[:-1, -1] / np.where(col > 0, col, 1.0),
                             np.inf)
            i = int(np.argmin(ratio))
            a[i] /= a[i, j]
            a -= np.outer(a[:, j], a[i]) * (keep != i)[:, None]
    return float(a[-1, -1])


# kernel name -> (kernel, reference seconds: about its time on a 2-core VM)
KERNELS = {"bulk": (bulk_kernel, 0.032), "small": (small_kernel, 0.0095)}


def child_env():
    """Environment for program processes: the checkout's sources, and
    bytecode caches kept under .bench_build instead of next to them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONPYCACHEPREFIX"] = PYCACHE
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def use_checkout_sources():
    """Make this process import the program from the checkout."""
    sys.pycache_prefix = PYCACHE
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def build():
    """Byte-compile the program once, untimed, so no timed run compiles."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC],
                   env=child_env(), cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)


def run_child(argv):
    """Run a program process to completion.

    Returns (wall seconds from spawn to exit, exit code, stdout bytes,
    stderr bytes, peak RSS in MB).  The child is reaped with wait4, so the
    peak RSS is that process's own, not the maximum over all children.
    """
    os.makedirs(BUILD, exist_ok=True)
    with tempfile.TemporaryFile(dir=BUILD) as out, \
            tempfile.TemporaryFile(dir=BUILD) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (wall, proc.returncode, out.read(), err.read(),
                usage.ru_maxrss / 1024.0)


def self_peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_seconds(code, speed):
    """Median reference seconds, spawn to exit, of a fresh interpreter
    running code."""
    values = []
    for _ in range(PROBE_REPEATS):
        (_, rc, _, err, _), wall, factor = speed.time(
            run_child, [sys.executable, "-c", code])
        if rc != 0:
            raise RuntimeError(f"probe failed: {code!r}: {err.decode()[-300:]}")
        values.append(wall * factor)
    return statistics.median(values)


def import_seconds(module, speed):
    """Median reference seconds of `import module`, timed inside a fresh
    interpreter."""
    code = ("import time; t = time.perf_counter(); "
            f"import {module}; print(repr(time.perf_counter() - t))")
    values = []
    for _ in range(IMPORT_REPEATS):
        (_, rc, out, err, _), _, factor = speed.time(
            run_child, [sys.executable, "-c", code])
        if rc != 0:
            raise RuntimeError(f"import of {module} failed: {err.decode()[-300:]}")
        values.append(float(out.decode().strip()) * factor)
    return statistics.median(values)


def closed_loop(step, seconds):
    """Call step(0), step(1), ... while another call still fits in
    ``seconds``, and at least once; returns their results."""
    results = []
    longest = 0.0
    start = time.perf_counter()
    while not results or time.perf_counter() - start + longest <= seconds:
        t = time.perf_counter()
        results.append(step(len(results)))
        longest = max(longest, time.perf_counter() - t)
    return results


def paired(k, plain, traced):
    """Run op k untraced and traced, returning (plain(), traced()); the
    untraced run goes first for even k, because an op's second run tends to
    be the faster one."""
    if k % 2:
        second = traced()
        return plain(), second
    first = plain()
    return first, traced()


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  With fewer than 21 samples
    no such percentile lies above the median, and the median stands in
    (percentile 50) so the metric is still defined and never reads below it.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 21:
        return statistics.median(xs), 50.0, n
    k = n - 11  # xs[k] has n - 1 - k = 10 samples above it
    return xs[k], 100.0 * (k + 1) / n, n


def close(a, b, rel=1e-9, abs_tol=1e-12):
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


class Speed:
    """Times a calibration kernel around ops and scales them by it."""

    def __init__(self, kernel):
        self.kernel, self.ref_s = KERNELS[kernel]
        self.samples = []

    def kernel_seconds(self):
        """Median of three timings of the kernel; recorded as a sample."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        self.samples.append(statistics.median(times))
        return self.samples[-1]

    def time(self, fn, *args, **kwargs):
        """Run fn between two kernel timings; returns (its result, wall
        seconds, factor to reference seconds)."""
        before = self.kernel_seconds()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - start
        return result, wall, 2 * self.ref_s / (before + self.kernel_seconds())

    def factor(self):
        """Run-wide factor: reference seconds per wall second."""
        return self.ref_s / statistics.median(self.samples)


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    note: str = ""


@dataclass
class Result:
    """What one workload run measured and checked."""

    workload: str
    kernel: str  # the calibration kernel, a key of KERNELS
    attempted: int = 0
    failed: int = 0
    # a check that found a wrong output or an unexpected failure
    problems: list = field(default_factory=list)
    checked: int = 0
    metrics: dict = field(default_factory=dict)
    speed: Speed = None

    def __post_init__(self):
        self.speed = Speed(self.kernel)

    def add(self, name, value, unit, samples, note=""):
        self.metrics[name] = Metric(float(value), unit, int(samples), note)

    @property
    def correct(self):
        return not self.problems
