"""Binary selection model: refutability, minimal inefficiency, sharp bounds."""

import numpy as np
import pytest

from partialid.errors import DataError, InternalConsistencyError
from partialid.roy import (RoyDistribution, build_polyhedron,
                           check_roy_refutable, min_efficiency_loss,
                           optimize_functional, potential_outcome_bounds)
from partialid.simplex import solve_lp


def dist_from_cells(cells):
    """cells: {(y, d, z): prob}."""
    p = np.zeros((2, 2, 2))
    for (y, d, z), v in cells.items():
        p[y, d, z] = v
    return RoyDistribution(p)


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
        checked = 0
        while checked < 50:
            p = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
            dist = RoyDistribution(p)
            if check_roy_refutable(dist)["refuted"]:
                continue
            # LP without the loss equality: minimise the two inefficiency cells
            a_eq, b_eq, a_ub, b_ub = build_polyhedron(dist)
            a_eq, b_eq = a_eq[:-1], b_eq[:-1]  # drop the loss equality itself
            c = np.zeros(16)
            from partialid.roy import _cell_index
            c[_cell_index(0, 1, 0, 1)] = 1.0
            c[_cell_index(1, 0, 1, 1)] = 1.0
            val, _ = solve_lp(c, a_eq, b_eq, a_ub, b_ub)
            assert val == pytest.approx(min_efficiency_loss(dist), abs=1e-9)
            checked += 1


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

    def test_verify_mode_agrees_on_random_distributions(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 100:
            p = rng.dirichlet(np.ones(8) * rng.uniform(0.3, 3.0)).reshape(2, 2, 2)
            dist = RoyDistribution(p)
            if check_roy_refutable(dist)["refuted"]:
                continue
            potential_outcome_bounds(dist, verify=True)  # raises on mismatch
            checked += 1

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

    def test_optimize_functional_validates(self):
        with pytest.raises(DataError):
            optimize_functional(balanced_dist(), np.zeros(5))
        with pytest.raises(DataError):
            optimize_functional(balanced_dist(), np.zeros(16), sense="best")
