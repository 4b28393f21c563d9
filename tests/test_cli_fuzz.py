"""The CLI contract under generated inputs and flags, in process.

Each example runs one command through ``cli.run(argv)``, drawing it
afresh, so command groups follow one another in the same process in random
order.
Inputs are small: ``y,d,z`` CSVs with ties, integer outcomes, tiny arms,
d = z and outcomes a few ulps apart about +-10^j; interval CSVs;
structure-space JSON.  Half the time the outcomes or interval endpoints
are mapped by y -> a y + c, with a = 10^k for k in -300...300 and c = 0 or
+-10^j, so the data sit at any magnitude and any offset a float holds; the
hypothesis ends of ``dilate region`` are drawn as far as +-10^308 from the
data.  A second test runs ``late`` commands on the ulp spreads alone.
Whatever the draw, the command exits 0, 1, 2 or 3; a failure prints one
line before any usage text; a success prints strict JSON.  Warnings are
raised as errors.
"""

import contextlib
import io
import json
import math
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from partialid.cli import run

# about 5 s on a 2-core machine, well inside the tier-1 time
EXAMPLES = 200

_COMMANDS = [("late", "point"), ("late", "bounds"), ("late", "test"),
             ("roy", "bounds"), ("structures", "analyze"),
             ("dilate", "region"), ("simulate", "coverage")]
_TOKENS = ("u1", "l1", "u0", "l0")


def _rarely(draw):
    """True one draw in eight: the share of flags given a bad value.  (The
    value tested is not 0, which Hypothesis favours.)"""
    return draw(st.integers(0, 7)) == 3


def _flag(draw, flag, valid, invalid=()):
    """``[flag=value]`` half the time, else nothing; the value is one of
    ``invalid`` one time in eight."""
    if not draw(st.booleans()):
        return []
    pool = invalid if invalid and _rarely(draw) else valid
    return [f"{flag}={draw(st.sampled_from(pool))}"]


_ALPHA = (["0.05", "0.1", "0.5"], ["0", "1", "nan", "1e-300", "abc"])


def _powers_of_ten(low, high):
    return st.integers(low, high).map(lambda k: 10.0 ** k)


@st.composite
def affine_maps(draw):
    """y -> a y + c with a = 10^k, k in -300...300, and c = 0 or +-10^j,
    j in -300...300, half the time; else None, the data as drawn.  A map
    that overflows writes inf, which the loaders reject."""
    if not draw(st.booleans()):
        return None
    a = draw(_powers_of_ten(-300, 300))
    c = draw(st.sampled_from([0.0, 1.0, -1.0])) * draw(
        _powers_of_ten(-300, 300))
    return lambda v: repr(a * float(v) + c)


@st.composite
def outcome_columns(draw, ds, kinds=("normal", "tenths", "integers",
                                     "binary", "ulps")):
    """Outcomes for treatments ``ds``, of one of ``kinds``: binary,
    integers 0-4, normal draws (raw or rounded to tenths) shifted by 2
    under treatment, or c + k ulp(c) for c = +-10^j, j in 0...300, and k
    within 4 (one ulp more under treatment)."""
    n = len(ds)
    kind = "constant" if _rarely(draw) and _rarely(draw) else draw(
        st.sampled_from(kinds))
    if kind == "constant":
        return ["1"] * n
    if kind == "ulps":
        c = draw(st.sampled_from([1.0, -1.0])) * draw(_powers_of_ten(0, 300))
        ks = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
        return [repr(c + (k + d) * math.ulp(c)) for k, d in zip(ks, ds)]
    if kind in ("binary", "integers"):
        top = 1 if kind == "binary" else 4
        return [str(v) for v in draw(st.lists(
            st.integers(0, top), min_size=n, max_size=n))]
    values = draw(st.lists(st.floats(-3, 3, allow_nan=False), min_size=n,
                           max_size=n))
    return [repr(round(v + 2 * d, 1) if kind == "tenths" else v + 2 * d)
            for v, d in zip(values, ds)]


@st.composite
def sample_csvs(draw, binary=False, kinds=None):
    """A ``y,d,z`` CSV, mostly of 20 to 300 rows (the tuning rules take 20
    at least), now and then of 1 to 19.  Outcomes of ``kinds`` (see
    ``outcome_columns``) are left unmapped."""
    n = draw(st.integers(1, 19) if _rarely(draw) else st.integers(20, 300))
    zs = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    design = draw(st.sampled_from(["coin", "complier", "d=z", "tiny arm"]))
    if design == "tiny arm":
        zs = [0] * n
        for k in draw(st.lists(st.integers(0, n - 1), min_size=1,
                               max_size=3)):
            zs[k] = 1
    if design == "coin":
        ds = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    else:  # d follows z, apart from up to a fifth flipped by a complier
        ds = list(zs)
        if design == "complier":
            for k in draw(st.lists(st.integers(0, n - 1), max_size=n // 5)):
                ds[k] = 1 - ds[k]
    if kinds is not None or binary:
        ys = draw(outcome_columns(ds, kinds or ["binary"]))
    else:
        ys = list(map(draw(affine_maps()) or str,
                      draw(outcome_columns(ds))))
    rows = [f"{y},{d},{z}" for y, d, z in zip(ys, ds, zs)]
    return "y,d,z\n" + "\n".join(rows) + "\n"


@st.composite
def interval_csvs(draw):
    """A ``y_l,y_u`` CSV of 2 to 40 rows, now and then of 1, ties and
    point intervals included."""
    pairs = draw(st.lists(
        st.tuples(st.integers(-3, 3), st.integers(0, 2)).map(
            lambda t: (t[0], t[0] + t[1])),
        min_size=1 if _rarely(draw) else 2, max_size=40))
    affine = draw(affine_maps()) or str
    return "y_l,y_u\n" + "".join(f"{affine(lo)},{affine(hi)}\n"
                                  for lo, hi in pairs)


@st.composite
def space_jsons(draw):
    """A structure space over up to 4 outcomes, with or without theta and
    an assumption."""
    outcomes = ["a", "b", "c", "d"][:draw(st.integers(1, 4))]
    with_theta = draw(st.booleans())
    structures = []
    for k in range(draw(st.integers(1, 5))):
        predicts = draw(st.lists(st.sampled_from(outcomes), min_size=1,
                                 max_size=len(outcomes), unique=True))
        entry = {"name": f"s{k}", "predicts": predicts}
        if with_theta:
            entry["theta"] = draw(st.integers(0, 2))
        structures.append(entry)
    space = {"outcomes": outcomes, "structures": structures}
    if draw(st.booleans()):
        space["assumption"] = draw(st.lists(
            st.sampled_from([s["name"] for s in structures]), unique=True))
    return space


def _extension(draw, space):
    """``space`` with up to two structures added, or now and then an
    unrelated space."""
    if _rarely(draw):
        return draw(space_jsons())
    added = []
    for k in range(draw(st.integers(0, 2))):
        entry = {"name": f"t{k}", "predicts": draw(st.lists(
            st.sampled_from(space["outcomes"]), min_size=1, unique=True))}
        if "theta" in space["structures"][0]:
            entry["theta"] = draw(st.integers(0, 2))
        added.append(entry)
    return {"outcomes": space["outcomes"],
            "structures": space["structures"] + added}


def _roy_cells(draw):
    """Eight cell probabilities: normalised weights, exact zeros among them;
    cells at 0 and 1's edges (5e-324, 2**-53 and 1 - 2**-53); normalised
    weights with one cell moved so the sum sits just inside or just outside
    1 +- 1e-8; or now and then a bad vector."""
    if _rarely(draw):
        return draw(st.sampled_from(["0.5,0.5", "nan,0,0,0,0,0,0,1",
                                     "-0.1,0.1,0,0,0,0,0,1",
                                     "0.2,0.2,0.2,0.2,0.2,0.2,0.2,0.2"]))
    kind = draw(st.sampled_from(["weights", "edges", "sum"]))
    if kind == "edges":
        # tiny cells around one cell at 1 or 1 - 2**-53, or two halves
        cells = draw(st.lists(st.sampled_from([0.0, 5e-324, 2.0 ** -53]),
                              min_size=8, max_size=8))
        big = draw(st.sampled_from([[1.0], [1.0 - 2.0 ** -53],
                                    [0.5, 0.5], [0.5, 0.5 - 2.0 ** -53]]))
        for i, value in zip(draw(st.permutations(range(8))), big):
            cells[i] = value
    else:
        weights = draw(st.lists(st.integers(0, 6), min_size=8,
                                max_size=8).filter(any))
        cells = [w / sum(weights) for w in weights]
        if kind == "sum":
            cells[draw(st.integers(0, 7))] += draw(st.sampled_from(
                [-1.0, 1.0])) * 1e-8 * draw(st.sampled_from(
                    [1.0 - 1e-6, 1.0, 1.0 + 1e-6]))
    return ",".join(map(repr, cells))


@st.composite
def commands(draw, tmp_path, commands=_COMMANDS, kinds=None):
    """The argv of one of ``commands``, on ``y,d,z`` outcomes of ``kinds``
    for ``late`` (see ``sample_csvs``); input files are written under
    tmp_path."""
    group, command = draw(st.sampled_from(commands))
    if group == "late":
        path = tmp_path / "sample.csv"
        path.write_text(draw(sample_csvs(kinds=kinds)))
        argv = ["late", command, f"--input={path}"]
        argv += _flag(draw, "--alpha", *_ALPHA)
        argv += _flag(draw, "--b", ["1e-3", "0.05", "0.3", "2"],
                      ["0", "-1", "inf", "nan"])
        argv += _flag(draw, "--h", ["0.2", "0.5", "1", "3"], ["0", "nan"])
        argv += _flag(draw, "--band", ["0,3", "-1,1", "0.5,2.5", "-3,6"],
                      ["2,1", "1,1", "-inf,inf", "x,1", "1"])
        argv += _flag(draw, "--threshold-scale", ["absolute", "relative"])
        if command != "test":
            tails = draw(st.lists(st.sampled_from(_TOKENS), unique=True))
            argv += _flag(draw, "--tails", [",".join(tails) or "none"],
                          ["u2", ""])
        if command == "point" and not any(
                a.startswith("--tails") for a in argv) and draw(
                st.booleans()):
            argv.append("--union")
        if command == "bounds":
            argv += _flag(draw, "--kappa-scale", ["0.01", "1", "100"],
                          ["0", "-1", "inf"])
    elif group == "roy":
        if draw(st.booleans()):
            path = tmp_path / "binary.csv"
            path.write_text(draw(sample_csvs(binary=not _rarely(draw))))
            argv = ["roy", "bounds", f"--input={path}"]
        else:
            argv = ["roy", "bounds", f"--cells={_roy_cells(draw)}"]
    elif group == "structures":
        path = tmp_path / "space.json"
        space = draw(space_jsons())
        path.write_text(json.dumps(space))
        argv = ["structures", "analyze", f"--space={path}"]
        names = [s["name"] for s in space["structures"]]
        argv += _flag(draw, "--hypothesis", [",".join(names[:k]) for k in
                                             range(1, len(names) + 1)],
                      ["zz", ""])
        if draw(st.booleans()):
            ext = tmp_path / "extension.json"
            ext.write_text(json.dumps(_extension(draw, space)))
            argv += [f"--extension={ext}"]
    elif group == "dilate":
        path = tmp_path / "intervals.csv"
        path.write_text(draw(interval_csvs()))
        # the hypothesis near the unmapped data one time in four, else with
        # both ends on one side of it, at 10^(308 - k) or half that for k
        # from 0 to 308: Hypothesis favours k = 0, the farthest
        ends = st.sampled_from(["-2", "0", "0.5", "3"])
        if draw(st.integers(0, 3)) != 3:
            far = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** (
                308 - draw(st.integers(0, 308)))
            ends = st.sampled_from([repr(far), repr(far / 2)])
        a, b = sorted(draw(st.lists(ends, min_size=2, max_size=2)),
                      key=float)
        if _rarely(draw):
            a, b = draw(st.sampled_from([("1", "0"), ("nan", "1"),
                                         ("0", "inf")]))
        argv = ["dilate", "region", f"--input={path}", f"--a={a}",
                f"--b={b}"]
        argv += _flag(draw, "--boot", ["100", "150"], ["0", "99"])
        argv += _flag(draw, "--alpha", *_ALPHA)
        argv += _flag(draw, "--grid-points", ["1", "2", "25"], ["0", "-1"])
        argv += _flag(draw, "--seed", ["0", "7"], ["-1"])
    else:
        argv = ["simulate", "coverage", "--threads=1"]
        argv += [draw(st.sampled_from(["--n=25", "--n=120"]) if not
                      _rarely(draw) else st.sampled_from(["--n=1", "--n=2"]))]
        argv += [draw(st.sampled_from(["--m=2", "--m=3"]) if not
                      _rarely(draw) else st.just("--m=1"))]
        argv += _flag(draw, "--b", ["0.05", "0.3"], ["0", "inf"])
        argv += _flag(draw, "--h", ["0.2", "0.5"], ["-1", "nan"])
        argv += _flag(draw, "--alpha", *_ALPHA)
        argv += _flag(draw, "--seed", ["0", "7"], ["-1"])
        if draw(st.booleans()):
            argv.append("--union")
    argv += _flag(draw, "--format", ["json"])
    return argv


def _no_constant(name):
    raise AssertionError(f"bare {name} in the report")


_FUZZ = settings(max_examples=EXAMPLES, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture,
                                        HealthCheck.too_slow])


@given(data=st.data())
@_FUZZ
def test_cli_contract(tmp_path, data):
    check_contract(data.draw(commands(tmp_path)))


@given(data=st.data())
@_FUZZ
def test_late_contract_on_ulp_spreads(tmp_path, data):
    check_contract(data.draw(commands(tmp_path, _COMMANDS[:3], ["ulps"])))


def check_contract(argv):
    """Run ``argv`` in process: exit 0 to 3; a failure prints one line
    before any usage text, a success strict JSON; no warning."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    if code:
        assert out == ""
        message, _, usage = err.partition("usage:")
        assert message.count("\n") == 1 and message.endswith("\n"), err
        assert bool(usage) == (code == 1)
    else:
        assert err == ""
        report = json.loads(out, parse_constant=_no_constant)
        assert report["command"] == " ".join(["partialid"] + argv)
