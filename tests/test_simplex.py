"""Dense two-phase simplex cross-checked against scipy's reference solver."""

import numpy as np
import pytest
from scipy.optimize import linprog

from partialid.roy import RoyDistribution, _objective_vector, build_polyhedron
from partialid.simplex import InfeasibleError, UnboundedError, solve_lp


class TestKnownProblems:
    def test_simple_minimum(self):
        # min x + y  s.t.  x + 2y >= 2, x, y >= 0  ->  (0, 1)
        val, x = solve_lp(np.array([1.0, 1.0]),
                          None, None,
                          np.array([[-1.0, -2.0]]), np.array([-2.0]))
        assert val == pytest.approx(1.0)
        assert x @ np.array([1.0, 2.0]) >= 2.0 - 1e-9

    def test_equality_transport(self):
        # move mass 1 between two sites at costs (3, 1) -> all to site 2
        val, x = solve_lp(np.array([3.0, 1.0]),
                          np.array([[1.0, 1.0]]), np.array([1.0]),
                          None, None)
        assert val == pytest.approx(1.0)
        assert x.tolist() == pytest.approx([0.0, 1.0])

    def test_infeasible(self):
        # x >= 0 with x <= -1
        with pytest.raises(InfeasibleError):
            solve_lp(np.array([1.0]), None, None,
                     np.array([[1.0]]), np.array([-1.0]))

    def test_unbounded(self):
        with pytest.raises(UnboundedError):
            solve_lp(np.array([-1.0]), None, None, None, None)
        # x1 <= 1 leaves the objective free to fall along x2 in phase 2
        with pytest.raises(UnboundedError):
            solve_lp(np.array([1.0, -1.0]), None, None,
                     np.array([[1.0, 0.0]]), np.array([1.0]))

    def test_degenerate_ties_terminate(self):
        # classic cycling-prone problem; Bland's rule must terminate
        c = np.array([-0.75, 150.0, -0.02, 6.0])
        a_ub = np.array([
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ])
        b_ub = np.array([0.0, 0.0, 1.0])
        val, _ = solve_lp(c, None, None, a_ub, b_ub)
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub, method="highs")
        assert val == pytest.approx(ref.fun, abs=1e-9)


def random_problem(seed):
    """``(c, a_eq, b_eq, a_ub, b_ub)``: a feasible, bounded random LP."""
    rng = np.random.default_rng(seed)
    n_var = rng.integers(2, 7)
    n_eq = rng.integers(0, 3)
    n_ub = rng.integers(1, 5)
    c = rng.normal(size=n_var)
    # build around a known feasible point so most draws are feasible
    x0 = rng.uniform(0, 2, n_var)
    a_eq = rng.normal(size=(n_eq, n_var)) if n_eq else None
    b_eq = a_eq @ x0 if n_eq else None
    a_ub = rng.normal(size=(n_ub, n_var))
    b_ub = a_ub @ x0 + rng.uniform(0, 1, n_ub)
    # bound the feasible region to rule out unboundedness
    a_ub = np.vstack([a_ub, np.ones(n_var)])
    b_ub = np.append(b_ub, n_var * 5.0)
    return c, a_eq, b_eq, a_ub, b_ub


class TestRandomAgreement:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_scipy(self, seed):
        c, a_eq, b_eq, a_ub, b_ub = random_problem(seed)
        ref = linprog(c, A_eq=a_eq, b_eq=b_eq, A_ub=a_ub, b_ub=b_ub,
                      method="highs")
        assert ref.status == 0
        val, x = solve_lp(c, a_eq, b_eq, a_ub, b_ub)
        assert val == pytest.approx(ref.fun, abs=1e-7)
        assert np.all(x >= -1e-9)
        assert np.all(a_ub @ x <= b_ub + 1e-7)
        if a_eq is not None:
            assert np.allclose(a_eq @ x, b_eq, atol=1e-7)


class TestManyObjectives:
    """Several objectives over one constraint system, each solved in its
    own call, match HiGHS: the maximum (-c) as well as the minimum, and on
    the Roy polyhedra that the simplex is the tests' oracle for."""

    @staticmethod
    def assert_each_matches_highs(objectives, a_eq, b_eq, a_ub, b_ub):
        for c in objectives:
            ref = linprog(c, A_eq=a_eq, b_eq=b_eq, A_ub=a_ub, b_ub=b_ub,
                          method="highs")
            assert ref.status == 0
            value, _ = solve_lp(c, a_eq, b_eq, a_ub, b_ub)
            assert value == pytest.approx(ref.fun, abs=1e-7)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_problems(self, seed):
        c, *constraints = random_problem(seed)
        rng = np.random.default_rng(1000 + seed)
        objectives = np.vstack([c, -c, rng.normal(size=(2, c.size))])
        self.assert_each_matches_highs(objectives, *constraints)

    def test_roy_polyhedra(self):
        rng = np.random.default_rng(5)
        bound_ends = [sign * _objective_vector(z)
                      for z in (0, 1) for sign in (1.0, -1.0)]
        for _ in range(50):
            dist = RoyDistribution(rng.dirichlet(np.ones(8)).reshape(2, 2, 2))
            objectives = np.vstack([rng.normal(size=(3, 16)), bound_ends])
            self.assert_each_matches_highs(objectives,
                                           *build_polyhedron(dist))
