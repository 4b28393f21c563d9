"""Binary selection model: refutability, minimal inefficiency, sharp bounds."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import partialid.roy as roy
from partialid.errors import DataError
from partialid.roy import (RoyDistribution, _cell_index, build_polyhedron,
                           check_roy_refutable, min_efficiency_loss,
                           potential_outcome_bounds)
from partialid.simplex import solve_lp

from conftest import objective_vector, simplex_bounds


def dist_from_cells(cells):
    """cells: {(y, d, z): prob}."""
    p = np.zeros((2, 2, 2))
    for (y, d, z), v in cells.items():
        p[y, d, z] = v
    return RoyDistribution(p)


def row_by_row_polyhedron(dist):
    """The constraint system built one row at a time from the cell
    indices: the oracle for :func:`build_polyhedron`."""
    pz1, pz0 = dist.pr_z(1), dist.pr_z(0)
    A_eq, b_eq = [], []

    def row(entries):
        a = np.zeros(16)
        for pos, coef in entries:
            a[pos] += coef
        return a

    # observational matching: the chosen potential outcome equals Y
    for z in (0, 1):
        for yobs in (0, 1):
            A_eq.append(row([(_cell_index(1, yobs, k, z), 1.0) for k in (0, 1)]))
            b_eq.append(float(dist.p[yobs, 1, z]))
            A_eq.append(row([(_cell_index(0, y, yobs, z), 1.0) for y in (0, 1)]))
            b_eq.append(float(dist.p[yobs, 0, z]))

    # no inefficient choice without encouragement
    A_eq.append(row([(_cell_index(1, 0, 1, 0), 1.0)]))
    b_eq.append(0.0)
    A_eq.append(row([(_cell_index(0, 1, 0, 0), 1.0)]))
    b_eq.append(0.0)

    # encouragement induces exactly the minimal inefficient mass
    A_eq.append(row([(_cell_index(0, 1, 0, 1), 1.0),
                     (_cell_index(1, 0, 1, 1), 1.0)]))
    b_eq.append(min_efficiency_loss(dist))

    A_ub, b_ub = [], []
    # best outcome no more likely without encouragement
    A_ub.append(row([(_cell_index(d, 1, 1, 0), 1.0 / pz0) for d in (0, 1)]
                    + [(_cell_index(d, 1, 1, 1), -1.0 / pz1) for d in (0, 1)]))
    b_ub.append(0.0)
    # worst outcome no more likely with encouragement
    A_ub.append(row([(_cell_index(d, 0, 0, 1), 1.0 / pz1) for d in (0, 1)]
                    + [(_cell_index(d, 0, 0, 0), -1.0 / pz0) for d in (0, 1)]))
    b_ub.append(0.0)

    return np.array(A_eq), np.array(b_eq), np.array(A_ub), np.array(b_ub)


def random_dists(seed, count):
    """Dirichlet draws of mixed concentration, refuted ones included, every
    fifth with one cell set to zero."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        p = rng.dirichlet(np.ones(8) * rng.uniform(0.1, 3.0)).reshape(2, 2, 2)
        if i % 5 == 0:
            p[tuple(rng.integers(0, 2, 3))] = 0.0
            p /= p.sum()
        out.append(RoyDistribution(p))
    return out


def closed_form_branches(dist):
    """Which side of each min and max the closed-form bounds take."""
    p, m = dist.p, min_efficiency_loss(dist)
    ratio = dist.pr_z(0) / dist.pr_z(1)
    return {"refuted": check_roy_refutable(dist)["refuted"],
            "u0 capped": p[1, 0, 0] > ratio * p[1, :, 1].sum(),
            "l1 raised": m > p[0, 1, 1],
            "u1 capped": m > p[0, 0, 1]}


def balanced_dist():
    # Pr(Z=1)=0.5; encouragement shifts one-outcome mass upward
    return dist_from_cells({
        (1, 1, 1): 0.20, (1, 0, 1): 0.10, (0, 1, 1): 0.05, (0, 0, 1): 0.15,
        (1, 1, 0): 0.15, (1, 0, 0): 0.10, (0, 1, 0): 0.05, (0, 0, 0): 0.20,
    })


class TestDistribution:
    def test_validates_shape_and_mass(self):
        with pytest.raises(DataError):
            RoyDistribution(np.zeros((2, 2)))
        with pytest.raises(DataError):
            RoyDistribution(np.full((2, 2, 2), 0.2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_cells(self, bad):
        # NaN passes both the sign and the sum-to-one comparison
        p = np.zeros((2, 2, 2))
        p[1, 0, 0], p[0, 0, 0] = 0.5, 0.5
        p[0, 0, 1] = bad
        with pytest.raises(DataError, match="finite"):
            RoyDistribution(p)

    def test_requires_both_arms(self):
        p = np.zeros((2, 2, 2))
        p[1, 1, 1] = 1.0
        with pytest.raises(DataError):
            RoyDistribution(p)

    def test_from_sample_matches_frequencies(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 500)
        d = rng.integers(0, 2, 500)
        z = rng.integers(0, 2, 500)
        dist = RoyDistribution.from_sample(y, d, z)
        want = np.mean((y == 1) & (d == 1) & (z == 0))
        assert dist.p[1, 1, 0] == pytest.approx(want)

    def test_jsonable_keys(self):
        out = balanced_dist().to_jsonable()
        assert len(out) == 8
        assert out["pr_y1_d1_z1"] == pytest.approx(0.20)

    def test_overflowing_sum_warns_nothing(self):
        # 1e308 + 1e308 overflows; numpy's p.sum() warned before the error
        p = np.zeros((2, 2, 2))
        p[0, 0] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^cell probabilities must "
                                                "sum to one$"):
                RoyDistribution(p)

    def test_equality_and_hash_follow_the_clipped_cells(self):
        a, b = balanced_dist(), balanced_dist()
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        # -1e-10 is clipped to the zero it stands for
        p = np.array(a.p)
        p[1, 1, 1] += p[0, 1, 1]
        p[0, 1, 1] = 0.0
        zero = RoyDistribution(p)
        assert zero != a
        p[0, 1, 1] = -1e-10
        assert RoyDistribution(p) == zero
        assert hash(RoyDistribution(p)) == hash(zero)
        assert a != tuple(a.to_jsonable().values())

    def test_repr_rebuilds_the_distribution(self):
        dist = balanced_dist()
        text = repr(dist)
        assert text == ("RoyDistribution([[[0.2, 0.15], [0.05, 0.05]], "
                        "[[0.1, 0.1], [0.15, 0.2]]])")
        assert eval(text, {"RoyDistribution": RoyDistribution}) == dist


class TestRefutability:
    def test_not_refuted_when_zeros_fall(self):
        res = check_roy_refutable(balanced_dist())
        assert not res["refuted"]
        # Pr(Y=0|Z=1) = 0.4, Pr(Y=0|Z=0) = 0.5
        assert res["slack"] == pytest.approx(0.1)

    def test_refuted_when_zeros_rise(self):
        dist = dist_from_cells({
            (0, 1, 1): 0.30, (1, 0, 1): 0.20,
            (1, 1, 0): 0.30, (0, 0, 0): 0.20,
        })
        assert check_roy_refutable(dist)["refuted"]


class TestEfficiencyLoss:
    def test_zero_when_compatible(self):
        assert min_efficiency_loss(balanced_dist()) == pytest.approx(0.0)

    def test_positive_loss_value(self):
        dist = dist_from_cells({
            (1, 1, 1): 0.10, (0, 1, 1): 0.20, (0, 0, 1): 0.10, (1, 0, 1): 0.10,
            (1, 1, 0): 0.20, (0, 0, 0): 0.20, (1, 0, 0): 0.05, (0, 1, 0): 0.05,
        })
        # joint-scale excess of zero outcomes under encouragement
        want = 0.30 - 0.25 * 0.5 / 0.5
        assert min_efficiency_loss(dist) == pytest.approx(want)

    def test_equals_lp_minimum(self):
        rng = np.random.default_rng(42)
        admitted = 0
        # every draw is checked, refuted or not, until 50 admitted ones
        while admitted < 50:
            p = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
            dist = RoyDistribution(p)
            # LP without the loss equality: minimise the two inefficiency cells
            a_eq, b_eq, a_ub, b_ub = build_polyhedron(dist)
            a_eq, b_eq = a_eq[:-1], b_eq[:-1]  # drop the loss equality itself
            c = np.zeros(16)
            c[_cell_index(0, 1, 0, 1)] = 1.0
            c[_cell_index(1, 0, 1, 1)] = 1.0
            val, _ = solve_lp(c, a_eq, b_eq, a_ub, b_ub)
            assert val == pytest.approx(min_efficiency_loss(dist), abs=1e-9)
            admitted += not check_roy_refutable(dist)["refuted"]


class TestBounds:
    def test_polyhedron_dimensions(self):
        a_eq, b_eq, a_ub, b_ub = build_polyhedron(balanced_dist())
        assert a_eq.shape == (11, 16)
        assert a_ub.shape == (2, 16)

    def test_bounds_ordered_and_in_unit_interval(self):
        res = potential_outcome_bounds(balanced_dist())
        for key in ("z0", "z1"):
            lo, hi = res[key]
            assert -1e-12 <= lo <= hi <= 1 + 1e-12

    def test_matches_row_by_row_builder(self):
        for dist in random_dists(11, 300) + [balanced_dist()]:
            for got, want in zip(build_polyhedron(dist),
                                 row_by_row_polyhedron(dist)):
                assert got.shape == want.shape
                assert np.array_equal(got, want)

    def test_verify_mode_agrees_on_random_distributions(self):
        rng = np.random.default_rng(7)
        admitted = 0
        # every draw is checked, refuted or not, until 100 admitted ones
        while admitted < 100:
            p = rng.dirichlet(np.ones(8) * rng.uniform(0.3, 3.0)).reshape(2, 2, 2)
            dist = RoyDistribution(p)
            highs = conditional_highs_bounds(dist)
            for verify in (True, False):
                assert_agrees_with_highs(
                    potential_outcome_bounds(dist, verify=verify), highs)
            admitted += not check_roy_refutable(dist)["refuted"]

    def test_verified_call_solves_no_lp(self, monkeypatch):
        dists = random_dists(3, 40)
        assert any(check_roy_refutable(d)["refuted"] for d in dists)
        assert not all(check_roy_refutable(d)["refuted"] for d in dists)
        want = [conditional_highs_bounds(dist) for dist in dists]

        def refuse(*args, **kwargs):
            raise AssertionError("potential_outcome_bounds used the LP")

        monkeypatch.setattr(roy, "build_polyhedron", refuse)
        monkeypatch.setattr(roy, "solve_lp", refuse)
        for dist, highs in zip(dists, want):
            for verify in (True, False):
                assert_agrees_with_highs(
                    potential_outcome_bounds(dist, verify=verify), highs)

    def test_certificate_catches_a_shifted_end(self):
        # the HiGHS comparison is the bounds' certificate: on draws that
        # take both branches of every min and max in the closed forms,
        # refuted ones included, it passes the bounds and fails each end
        # shifted by 1e-8 either way
        dists = random_dists(5, 60)
        branches = {(name, taken) for dist in dists
                    for name, taken in closed_form_branches(dist).items()}
        assert branches == {(name, taken) for name in
                            ("refuted", "u0 capped", "l1 raised", "u1 capped")
                            for taken in (False, True)}
        for dist in dists:
            bounds = potential_outcome_bounds(dist)
            highs = conditional_highs_bounds(dist)
            assert_agrees_with_highs(bounds, highs)
            for z, end, shift in itertools.product(("z0", "z1"), (0, 1),
                                                   (1e-8, -1e-8)):
                ends = list(bounds[z])
                ends[end] += shift
                with pytest.raises(AssertionError):
                    assert_agrees_with_highs({**bounds, z: tuple(ends)}, highs)

    def test_z1_upper_bound_on_refuted_data(self):
        # the inefficient mass exceeds Pr(Y=0, D=0, Z=1) = 0.0915, so only
        # that much of it can count toward Y(1)=1
        dist = RoyDistribution(np.array(
            [0.0576, 0.0915, 0.1122, 0.1318, 0.3133, 0.0164, 0.1568, 0.1204]
        ).reshape(2, 2, 2))
        m = min_efficiency_loss(dist)
        assert m > dist.p[0, 0, 1]
        _, hi = potential_outcome_bounds(dist)["z1"]
        assert hi == pytest.approx(
            (dist.p[1, :, 1].sum() + dist.p[0, 0, 1]) / dist.pr_z(1), abs=1e-15)
        assert hi == pytest.approx(0.6339905581782839, abs=1e-12)

    def test_point_identified_under_one_sided_choice(self):
        # everyone picks d=1 and the loss is zero: Pr(Y(1)=1|Z=z) observed
        dist = dist_from_cells({
            (1, 1, 1): 0.3, (0, 1, 1): 0.2,
            (1, 1, 0): 0.3, (0, 1, 0): 0.2,
        })
        res = potential_outcome_bounds(dist)
        lo, hi = res["z1"]
        assert lo == pytest.approx(0.6)
        assert hi == pytest.approx(0.6)


def _shares(size):
    """Nonnegative weights summing to one, zeros included."""
    return st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                    min_size=size, max_size=size).filter(
        lambda w: sum(w) > 0).map(lambda w: np.array(w) / sum(w))


@st.composite
def roy_distributions(draw, boundary=False):
    """Cells of a distribution with both arms in [0.02, 0.98].  With
    ``boundary`` the arms are tied so that the minimal inefficient mass m
    equals Pr(Y=0, D=0, Z=1), where the z=1 upper bound switches branch."""
    pz1 = draw(st.floats(0.02, 0.98))
    p = np.zeros((2, 2, 2))
    p[:, :, 0] = draw(_shares(4)).reshape(2, 2) * (1.0 - pz1)
    if boundary:
        q0 = p[0, :, 0].sum() / (1.0 - pz1)  # Pr(Y=0 | Z=0)
        p[0, 1, 1] = q0 * pz1
        rest = draw(_shares(3)) * (pz1 - p[0, 1, 1])
        p[0, 0, 1], p[1, 1, 1], p[1, 0, 1] = rest
    else:
        p[:, :, 1] = draw(_shares(4)).reshape(2, 2) * pz1
    return p


class TestClosedFormOracle:
    """The closed forms equal the linear programs within 1e-9, whether or
    not the data refute efficient selection."""

    @staticmethod
    def assert_matches_lp(p):
        dist = RoyDistribution(p / p.sum())
        bounds = potential_outcome_bounds(dist)
        lp = simplex_bounds(dist)
        for z in ("z0", "z1"):
            assert np.abs(np.subtract(lp[z], bounds[z])).max() <= 1e-9
        # the minimal loss is the LP minimum without its own equality row
        a_eq, b_eq, a_ub, b_ub = build_polyhedron(dist)
        c = np.zeros(16)
        c[_cell_index(0, 1, 0, 1)] = c[_cell_index(1, 0, 1, 1)] = 1.0
        loss, _ = solve_lp(c, a_eq[:-1], b_eq[:-1], a_ub, b_ub)
        assert abs(loss - bounds["min_efficiency_loss"]) <= 1e-9

    @given(p=roy_distributions())
    @settings(max_examples=200, deadline=None)
    def test_refuted(self, p):
        assume(check_roy_refutable(RoyDistribution(p / p.sum()))["refuted"])
        self.assert_matches_lp(p)

    @given(p=roy_distributions())
    @settings(max_examples=200, deadline=None)
    def test_not_refuted(self, p):
        assume(not check_roy_refutable(RoyDistribution(p / p.sum()))["refuted"])
        self.assert_matches_lp(p)

    @given(p=roy_distributions(boundary=True))
    @settings(max_examples=200, deadline=None)
    def test_loss_equals_unchosen_zero_mass(self, p):
        self.assert_matches_lp(p)


# HiGHS's default feasibility tolerances of 1e-7 put its optima up to 8e-8
# off on draws with cells near 1e-8
_HIGHS_TOLERANCES = {"primal_feasibility_tolerance": 1e-10,
                     "dual_feasibility_tolerance": 1e-10}


def conditional_highs_bounds(dist):
    """Bounds on Pr(Y(1)=1 | Z=z) from HiGHS on the polyhedron restated on
    the conditional scale: each cell divided by its arm's Pr(Z=z), and each
    equality row by its own arm's.  The change of variables is exact, and it
    keeps every coefficient and right-hand side of order one however small
    an arm is."""
    from scipy.optimize import linprog
    a_eq, b_eq, a_ub, b_ub = build_polyhedron(dist)
    pz = np.array([dist.pr_z(0), dist.pr_z(1)])
    cell_pz = pz[np.arange(16) % 2]  # z is the last axis of the cell index
    row_pz = (a_eq * cell_pz).max(axis=1)  # every row lies in one arm
    a_eq = a_eq * cell_pz / row_pz[:, None]
    b_eq = b_eq / row_pz
    a_ub = a_ub * cell_pz
    out = {}
    for z in (0, 1):
        c = objective_vector(z) * cell_pz / pz[z]
        ends = []
        for sign in (1.0, -1.0):
            sol = linprog(sign * c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq,
                          b_eq=b_eq, bounds=(0, None), method="highs",
                          options=_HIGHS_TOLERANCES)
            assert sol.status == 0, sol.message
            ends.append(sign * sol.fun)
        out[f"z{z}"] = tuple(ends)
    return out


def assert_agrees_with_highs(bounds, highs):
    """Each end of ``bounds`` within 1e-9 of the HiGHS end."""
    for z in ("z0", "z1"):
        assert np.abs(np.subtract(bounds[z], highs[z])).max() <= 1e-9


def tiny_arm_draws(pz1, count):
    """Admitted draws among ``count`` with Pr(Z=1) = pz1 and each arm's four
    cells flat-Dirichlet(0.5)."""
    rng = np.random.default_rng(round(-np.log10(pz1)))
    out = []
    for _ in range(count):
        p = np.zeros((2, 2, 2))
        p[:, :, 0] = rng.dirichlet(np.full(4, 0.5)).reshape(2, 2) * (1 - pz1)
        p[:, :, 1] = rng.dirichlet(np.full(4, 0.5)).reshape(2, 2) * pz1
        dist = RoyDistribution(p)
        if not check_roy_refutable(dist)["refuted"]:
            out.append(dist)
    return out


class TestTinyArms:
    """An instrument arm of 1e-5 to 1e-7 leaves the closed forms exact on
    the conditional scale."""

    @pytest.mark.parametrize("pz1", [1e-5, 1e-6, 1e-7])
    def test_bounds_match_conditional_highs(self, pz1):
        dists = tiny_arm_draws(pz1, 400)
        assert len(dists) > 150
        for dist in dists:
            assert_agrees_with_highs(potential_outcome_bounds(dist),
                                     conditional_highs_bounds(dist))

    def test_conditional_restatement_is_exact(self):
        # on balanced arms it gives the same bounds as the joint scale
        for dist in random_dists(13, 20):
            assert_agrees_with_highs(simplex_bounds(dist),
                                     conditional_highs_bounds(dist))


@st.composite
def dirichlet_cells(draw):
    """Dirichlet draws of mixed concentration, refuted ones included, now
    and then with up to four cells set to zero: the cell array."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p = rng.dirichlet(np.ones(8) * draw(st.floats(0.1, 3.0))).reshape(2, 2, 2)
    for cell in draw(st.lists(st.tuples(*[st.integers(0, 1)] * 3),
                              max_size=4)):
        p[cell] = 0.0
    assume(p[:, :, 0].sum() > 0 and p[:, :, 1].sum() > 0)
    return p / p.sum()


def dirichlet_dists():
    """:func:`dirichlet_cells` as distributions."""
    return dirichlet_cells().map(RoyDistribution)


class TestBoundProperties:
    """The closed forms' order on every draw, and their reduction to the
    bounds under unrelaxed efficient selection where no choice need be
    inefficient."""

    @given(dist=dirichlet_dists())
    @example(dist=RoyDistribution(np.array(
        [0.0, 2.7372994696281037e-17, 0.0, 0.12233873534040339,
         0.0, 0.0, 0.6256794188589034, 0.25198184580069324]).reshape(
             2, 2, 2)))
    @settings(max_examples=500, deadline=None)
    def test_lower_end_below_upper_end(self, dist):
        # z=1: m - Pr(Y=0,D=1,Z=1) <= min(m, Pr(Y=0,D=0,Z=1)), as the
        # minimal loss m is at most Pr(Y=0, Z=1)
        bounds = potential_outcome_bounds(dist)
        for z in (0, 1):
            lo, hi = bounds[f"z{z}"]
            assert lo <= hi

    @given(dist=dirichlet_dists())
    @settings(max_examples=500, deadline=None)
    def test_no_efficiency_loss_gives_the_unrelaxed_bounds(self, dist):
        bounds = potential_outcome_bounds(dist)
        assume(bounds["min_efficiency_loss"] == 0.0)
        p, pz1 = dist.p, dist.pr_z(1)
        assert bounds["z1"] == (float(p[1, 1, 1]) / pz1,
                                float(p[1, :, 1].sum()) / pz1)


# The numpy constructor and closed forms that the scalar ones replaced,
# kept as the oracle they must match bit for bit.

def old_cells(p):
    """The checks of the numpy constructor, in its order; the clipped
    cells."""
    p = np.asarray(p, dtype=float)
    if p.shape != (2, 2, 2):
        raise DataError("p must have shape (2, 2, 2) indexed [y, d, z]")
    if not np.isfinite(p).all():
        raise DataError("cell probabilities must be finite")
    if (p < -1e-9).any():
        raise DataError("cell probabilities must be nonnegative")
    if abs(p.sum() - 1.0) > 1e-8:
        raise DataError("cell probabilities must sum to one")
    p = np.clip(p, 0.0, None)
    if old_pr_z(p, 0) <= 0 or old_pr_z(p, 1) <= 0:
        raise DataError("both instrument arms need positive probability")
    return p


def old_pr_z(p, z):
    return float(p[:, :, z].sum())


def old_pr_y_given_z(p, y, z):
    return float(p[y, :, z].sum()) / old_pr_z(p, z)


def old_check_roy_refutable(p):
    slack = old_pr_y_given_z(p, 0, 0) - old_pr_y_given_z(p, 0, 1)
    return {"refuted": bool(slack < 0), "slack": float(slack)}


def old_min_efficiency_loss(p):
    pz1, pz0 = old_pr_z(p, 1), old_pr_z(p, 0)
    py0z1 = float(p[0, :, 1].sum())
    py0z0 = float(p[0, :, 0].sum())
    return max(0.0, py0z1 - py0z0 * pz1 / pz0)


def old_potential_outcome_bounds(p):
    pz1, pz0 = old_pr_z(p, 1), old_pr_z(p, 0)
    m_el = old_min_efficiency_loss(p)
    l0 = float(p[1, 1, 0]) / pz0
    u0 = (float(p[1, 1, 0]) + min(float(p[1, 0, 0]),
                                  pz0 / pz1 * float(p[1, :, 1].sum()))) / pz0
    l1 = (float(p[1, 1, 1]) + max(0.0, min(m_el - float(p[0, 1, 1]),
                                           float(p[0, 0, 1])))) / pz1
    u1 = (float(p[1, :, 1].sum()) + min(m_el, float(p[0, 0, 1]))) / pz1
    return {"z0": (l0, u0), "z1": (l1, u1), "min_efficiency_loss": m_el}


def old_to_jsonable(p):
    return {f"pr_y{y}_d{d}_z{z}": float(p[y, d, z])
            for y in (0, 1) for d in (0, 1) for z in (0, 1)}


def assert_identical(got, want):
    """Equal, and equal in type and in the sign of every zero."""
    assert got == want
    assert repr(got) == repr(want)


def assert_matches_numpy_oracle(cells, oracle_cells=None):
    """Every scalar output of ``RoyDistribution(cells)`` is the numpy
    oracle's on ``oracle_cells`` (by default ``cells``), bit for bit; an
    error has the oracle's type and text."""
    try:
        p = old_cells(cells if oracle_cells is None else oracle_cells)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            RoyDistribution(cells)
        assert str(got.value) == str(exc)
        return
    dist = RoyDistribution(cells)
    assert np.array_equal(dist.p, p)
    for z in (0, 1):
        assert_identical(dist.pr_z(z), old_pr_z(p, z))
        for y in (0, 1):
            assert_identical(dist.pr_y_given_z(y, z), old_pr_y_given_z(p, y, z))
    assert_identical(check_roy_refutable(dist), old_check_roy_refutable(p))
    assert_identical(min_efficiency_loss(dist), old_min_efficiency_loss(p))
    assert_identical(potential_outcome_bounds(dist),
                     old_potential_outcome_bounds(p))
    assert_identical(dist.to_jsonable(), old_to_jsonable(p))


def _tiny_arm(pz1):
    """Cells with Pr(Z=1) = pz1 and every cell positive."""
    p = np.array([0.1, 1.0, 0.2, 2.0, 0.3, 3.0, 0.4, 4.0]).reshape(2, 2, 2)
    p[:, :, 0] *= (1.0 - pz1) / p[:, :, 0].sum()
    p[:, :, 1] *= pz1 / p[:, :, 1].sum()
    return p


class TestNumpyOracle:
    """The scalar closed forms on the eight cell floats give exactly what
    the numpy formulas on ``p`` gave, errors included."""

    @given(cells=dirichlet_cells())
    @example(cells=_tiny_arm(1e-7))
    @example(cells=_tiny_arm(1.0 - 1e-7))
    # l1's cap binds only after rounding here
    @example(cells=np.array(
        [0.0, 2.7372994696281037e-17, 0.0, 0.12233873534040339,
         0.0, 0.0, 0.6256794188589034, 0.25198184580069324]).reshape(
             2, 2, 2))
    # refuted, with the inefficient mass above Pr(Y=0, D=0, Z=1)
    @example(cells=np.array(
        [0.0576, 0.0915, 0.1122, 0.1318, 0.3133, 0.0164, 0.1568, 0.1204]
    ).reshape(2, 2, 2))
    @settings(max_examples=2000, deadline=None)
    def test_agrees_exactly(self, cells):
        assert_matches_numpy_oracle(cells)

    def test_draws_reach_every_branch(self):
        # the fixed draws below cover both sides of every min and max and
        # arms down to 1e-7
        dists = random_dists(5, 60)
        for dist in dists:
            assert_matches_numpy_oracle(np.array(dist.p))
        for pz1 in (1e-5, 1e-7):
            for dist in tiny_arm_draws(pz1, 100):
                assert_matches_numpy_oracle(np.array(dist.p))

    @pytest.mark.parametrize("cell,value", [
        ((0, 0, 1), np.nan), ((1, 1, 0), np.inf), ((0, 1, 0), -np.inf),
        ((0, 0, 1), -1e-8), ((1, 0, 1), -1e-10), ((0, 0, 0), -0.0)])
    def test_edited_cell(self, cell, value):
        # -1e-10 is within tolerance and clipped to zero
        p = balanced_dist().p.copy()
        p[cell] = value
        assert_matches_numpy_oracle(p)

    def test_sum_off_by_2e_8(self):
        p = balanced_dist().p.copy()
        p[1, 1, 1] += 2e-8
        assert_matches_numpy_oracle(p)

    @pytest.mark.parametrize("cells", [
        np.zeros((2, 2)), np.full(8, 0.125), [[0.5, 0.5]],
        np.full((2, 2, 2), 0.2)])
    def test_bad_shape_or_mass(self, cells):
        with pytest.raises(DataError):
            old_cells(cells)
        assert_matches_numpy_oracle(cells)

    @pytest.mark.parametrize("arm", [0, 1])
    def test_empty_arm(self, arm):
        p = np.zeros((2, 2, 2))
        p[:, :, 1 - arm] = 0.25
        assert_matches_numpy_oracle(p)
        # an arm whose only mass is clipped away is empty too
        p[0, 0, arm] = -1e-10
        assert_matches_numpy_oracle(p)

    @given(cells=dirichlet_cells(),
           form=st.sampled_from(["list", "fortran", "strided", "float32"]))
    @settings(max_examples=300, deadline=None)
    def test_other_array_forms(self, cells, form):
        # every form reads as its C-ordered float64 array; the numpy formulas
        # sum a Fortran-ordered array in another order, so the oracle reads
        # that array
        if form == "list":
            cells = cells.tolist()
        elif form == "fortran":
            cells = cells.T.copy().T
        elif form == "strided":
            wide = np.zeros((2, 2, 2, 2))
            wide[..., 1] = cells
            cells = wide[..., 1]
        else:
            cells = cells.astype(np.float32)
        assert_matches_numpy_oracle(
            cells, np.ascontiguousarray(cells, dtype=float))

    def test_p_is_clipped_and_read_only(self):
        cells = np.array(balanced_dist().p)
        cells[1, 1, 1] += cells[0, 1, 1]
        cells[0, 1, 1] = -1e-10
        dist = RoyDistribution(cells)
        assert dist.p[0, 1, 1] == 0.0
        assert (dist.p >= 0).all()
        assert not dist.p.flags.writeable
        with pytest.raises(ValueError):
            dist.p[0, 0, 0] = 0.5
        # the caller's array is neither clipped nor frozen
        assert cells[0, 1, 1] == -1e-10
        assert cells.flags.writeable


class TestArrayOnDemand:
    """The run-time path reads the eight floats; ``p`` is built the first
    time something reads it."""

    def test_run_time_path_builds_no_array(self, monkeypatch):
        draws = [np.array(dist.p) for dist in random_dists(5, 60)]
        want = [(check_roy_refutable(RoyDistribution(p)),
                 potential_outcome_bounds(RoyDistribution(p)))
                for p in draws]

        def refuse(*args, **kwargs):
            raise AssertionError("an ndarray was built")

        for name in ("array", "asarray", "asanyarray", "ascontiguousarray",
                     "zeros", "empty", "concatenate"):
            monkeypatch.setattr(roy.np, name, refuse)
        for p, (refut, bounds) in zip(draws, want):
            dist = RoyDistribution(p)
            assert check_roy_refutable(dist) == refut
            assert min_efficiency_loss(dist) == bounds["min_efficiency_loss"]
            assert potential_outcome_bounds(dist) == bounds
            assert potential_outcome_bounds(dist, verify=False) == bounds
            assert len(dist.to_jsonable()) == 8
            assert dist.pr_y_given_z(1, 0) >= 0.0
            assert dist == RoyDistribution(p)
            repr(dist), hash(dist)

    def test_first_read_builds_p_once(self, monkeypatch):
        cells = np.array(balanced_dist().p)
        cells[1, 1, 1] += cells[0, 1, 1]
        cells[0, 1, 1] = -1e-10
        dist = RoyDistribution(cells)
        built = []
        array = np.array

        def counted(*args, **kwargs):
            built.append(args)
            return array(*args, **kwargs)

        monkeypatch.setattr(roy.np, "array", counted)
        p = dist.p
        assert dist.p is p
        assert len(built) == 1
        monkeypatch.undo()
        assert p is not cells
        assert p[0, 1, 1] == 0.0 and not p.flags.writeable
        assert np.array_equal(p, np.clip(cells, 0.0, None))
        assert cells[0, 1, 1] == -1e-10 and cells.flags.writeable


def old_from_sample(y, d, z):
    """The cell counts of the parent's ``from_sample``: one ``np.add.at``."""
    y, d, z = (np.asarray(v, dtype=int) for v in (y, d, z))
    p = np.zeros((2, 2, 2))
    np.add.at(p, (y, d, z), 1.0)
    return p / y.size


class TestFromSample:
    @pytest.mark.parametrize("n", [7, 1000])
    def test_matches_add_at(self, n):
        rng = np.random.default_rng(n)
        y, d, z = rng.integers(0, 2, (3, n))
        z[0], z[-1] = 0, 1
        dist = RoyDistribution.from_sample(y, d, z)
        assert np.array_equal(dist.p, old_from_sample(y, d, z))

    @pytest.mark.parametrize("name,bad", [("y", 2), ("d", -1), ("z", 3),
                                          ("y", -2)])
    def test_non_binary_names_the_column(self, name, bad):
        cols = {"y": [0, 1, 1, 0], "d": [1, 0, 1, 0], "z": [0, 1, 0, 1]}
        cols[name] = cols[name][:-1] + [bad]
        with pytest.raises(DataError) as exc:
            RoyDistribution.from_sample(cols["y"], cols["d"], cols["z"])
        assert str(exc.value) == f"{name} must be binary"

    @pytest.mark.parametrize("bad", [0.5, 1.9, math.nan])
    @pytest.mark.parametrize("name", ["y", "d", "z"])
    def test_fraction_or_nan_is_not_truncated(self, name, bad):
        # the values are checked before the cast to int, which would read
        # 0.5 as 0 and 1.9 as 1
        cols = {"y": [0.0, 1.0, 1.0, 0.0], "d": [1.0, 0.0, 1.0, 0.0],
                "z": [0.0, 1.0, 0.0, 1.0]}
        cols[name][1] = bad
        with pytest.raises(DataError, match=f"^{name} must be binary$"):
            RoyDistribution.from_sample(cols["y"], cols["d"], cols["z"])

    def test_first_non_binary_column_is_named(self):
        with pytest.raises(DataError, match="^d must be binary$"):
            RoyDistribution.from_sample([0, 1], [0, 2], [0, 5])

    @pytest.mark.parametrize("y,d,z", [([0, 1], [0], [1, 0]),
                                       ([], [], []),
                                       ([[0, 1]], [[0, 1]], [[0, 1]])])
    def test_unequal_or_empty(self, y, d, z):
        with pytest.raises(DataError) as exc:
            RoyDistribution.from_sample(y, d, z)
        assert str(exc.value) == "y, d, z must be equal-length nonempty vectors"
