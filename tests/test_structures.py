"""Finite structure spaces: hulls, cores, decidability, extensions."""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partialid.errors import ConfigError, DataError
from partialid.structures import (FiniteStructureSpace, binary_decidability,
                                  check_extension, complete_space,
                                  confirmable_sets, load_space_json,
                                  nonrefutable_sets)

OUTCOMES = list("abcdef")


@st.composite
def spaces(draw, max_structures=6, max_outcomes=5, with_theta=True):
    n_out = draw(st.integers(2, max_outcomes))
    outs = OUTCOMES[:n_out]
    n_str = draw(st.integers(1, max_structures))
    obs_map = {}
    for i in range(n_str):
        pred = draw(st.sets(st.sampled_from(outs), min_size=1))
        obs_map[f"s{i}"] = frozenset(pred)
    theta = None
    if with_theta:
        theta = {s: draw(st.integers(0, 3)) for s in obs_map}
    return FiniteStructureSpace(frozenset(outs), obs_map, theta)


@st.composite
def space_and_hypothesis(draw):
    space = draw(spaces())
    hyp = draw(st.sets(st.sampled_from(sorted(space.structures))))
    return space, frozenset(hyp)


def brute_hulls(space, hyp):
    """Direct definitions, computed without the library shortcuts."""
    reach_in = set().union(*(space.obs_map[s] for s in hyp)) if hyp else set()
    rest = space.structures - hyp
    reach_out = set().union(*(space.obs_map[s] for s in rest)) if rest else set()
    snf = {s for s in space.structures if set(space.obs_map[s]) <= reach_in}
    wnf = {s for s in space.structures if set(space.obs_map[s]) & reach_in}
    scon = {s for s in space.structures if not (set(space.obs_map[s]) & reach_out)}
    wcon = {s for s in space.structures if not (set(space.obs_map[s]) <= reach_out)}
    return (frozenset(snf), frozenset(wnf), frozenset(scon), frozenset(wcon))


class TestOperators:
    def test_hand_example(self):
        space = FiniteStructureSpace(
            frozenset("ab"),
            {"x": {"a"}, "y": {"b"}, "z": {"a", "b"}})
        hyp = frozenset({"x"})
        assert space.strongly_nonrefutable(hyp) == {"x"}
        assert space.weakly_nonrefutable(hyp) == {"x", "z"}
        # every outcome x predicts is also reachable outside the hypothesis,
        # so observing data can never confirm it
        assert space.strongly_confirmable(hyp) == frozenset()
        assert space.weakly_confirmable(hyp) == frozenset()
        # y alone is confirmable: outcome b only after dropping z
        small = FiniteStructureSpace(
            frozenset("ab"), {"x": {"a"}, "y": {"b"}})
        assert small.weakly_confirmable(frozenset({"y"})) == {"y"}
        assert small.strongly_confirmable(frozenset({"y"})) == {"y"}

    def test_unknown_structure_rejected(self):
        space = FiniteStructureSpace(frozenset("a"), {"x": {"a"}})
        with pytest.raises(DataError):
            space.reachable({"ghost"})

    @given(space_and_hypothesis())
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, sh):
        space, hyp = sh
        snf, wnf, scon, wcon = brute_hulls(space, hyp)
        assert space.strongly_nonrefutable(hyp) == snf
        assert space.weakly_nonrefutable(hyp) == wnf
        assert space.strongly_confirmable(hyp) == scon
        assert space.weakly_confirmable(hyp) == wcon

    @given(space_and_hypothesis())
    @settings(max_examples=300, deadline=None)
    def test_inclusion_chain(self, sh):
        space, hyp = sh
        scon = space.strongly_confirmable(hyp)
        wcon = space.weakly_confirmable(hyp)
        snf = space.strongly_nonrefutable(hyp)
        wnf = space.weakly_nonrefutable(hyp)
        assert scon <= wcon <= hyp <= snf <= wnf

    @given(space_and_hypothesis())
    @settings(max_examples=300, deadline=None)
    def test_complement_dualities(self, sh):
        space, hyp = sh
        comp = space.structures - hyp
        assert space.structures - space.strongly_nonrefutable(hyp) \
            == space.weakly_confirmable(comp)
        assert space.structures - space.weakly_nonrefutable(hyp) \
            == space.strongly_confirmable(comp)
        assert space.structures - space.strongly_confirmable(hyp) \
            == space.weakly_nonrefutable(comp)
        assert space.structures - space.weakly_confirmable(hyp) \
            == space.strongly_nonrefutable(comp)

    @given(space_and_hypothesis())
    @settings(max_examples=200, deadline=None)
    def test_idempotence(self, sh):
        space, hyp = sh
        snf = space.strongly_nonrefutable(hyp)
        assert space.strongly_nonrefutable(snf) == snf
        wcon = space.weakly_confirmable(hyp)
        assert space.weakly_confirmable(wcon) == wcon


class TestDecidability:
    @given(space_and_hypothesis())
    @settings(max_examples=300, deadline=None)
    def test_decidable_iff_core_equals_hull(self, sh):
        space, hyp = sh
        out = binary_decidability(space, hyp)
        want = (space.strongly_confirmable(hyp)
                == space.weakly_nonrefutable(hyp))
        assert out["decidable"] is want

    @given(space_and_hypothesis())
    @settings(max_examples=200, deadline=None)
    def test_repairs_are_decidable_when_offered(self, sh):
        space, hyp = sh
        out = binary_decidability(space, hyp)
        if out["smallest_enlargement"] is not None:
            assert binary_decidability(
                space, out["smallest_enlargement"])["decidable"]
        if out["largest_shrinkage"] is not None:
            assert binary_decidability(
                space, out["largest_shrinkage"])["decidable"]

    def test_dict_wrappers(self):
        space = FiniteStructureSpace(
            frozenset("ab"), {"x": {"a"}, "y": {"b"}})
        hyp = frozenset({"x"})
        nr = nonrefutable_sets(space, hyp)
        cf = confirmable_sets(space, hyp)
        assert nr["strong"] <= nr["weak"]
        assert cf["strong"] <= cf["weak"]


class TestCompletion:
    @given(spaces())
    @settings(max_examples=200, deadline=None)
    def test_children_are_singletons(self, space):
        comp = complete_space(space)
        assert all(len(v) == 1 for v in comp.obs_map.values())

    @given(spaces())
    @settings(max_examples=200, deadline=None)
    def test_identified_sets_preserved(self, space):
        comp = complete_space(space)
        for outcome in space.outcomes:
            orig = frozenset(space.theta[s] for s in space.structures
                             if outcome in space.obs_map[s])
            new = frozenset(comp.theta[s] for s in comp.structures
                            if outcome in comp.obs_map[s])
            assert orig == new

    @given(spaces())
    @settings(max_examples=100, deadline=None)
    def test_every_hypothesis_decidable_after_completion(self, space):
        comp = complete_space(space)
        # in a completed space the only obstruction is children sharing an
        # outcome; group hypotheses by outcome blocks and check those
        by_outcome = {}
        for s, v in comp.obs_map.items():
            by_outcome.setdefault(next(iter(v)), set()).add(s)
        for block in by_outcome.values():
            assert binary_decidability(comp, frozenset(block))["decidable"]


    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_decidable_iff_union_of_outcome_fibres(self, data):
        """In a completed space a hypothesis is decidable exactly when, for
        each outcome, it holds all of the children generating it or none;
        identified sets are unchanged on every outcome the space reaches.
        Not every hypothesis is decidable: on {s1: {a}, s2: {a, b}} the
        hypothesis {(s1, a)} is not."""
        space = data.draw(spaces())
        comp = complete_space(space)
        hyp = frozenset(data.draw(st.sets(st.sampled_from(
            sorted(comp.structures, key=repr)))))
        fibres = {}
        for child, v in comp.obs_map.items():
            fibres.setdefault(next(iter(v)), set()).add(child)
        whole = all(f <= hyp or not f & hyp for f in fibres.values())
        assert binary_decidability(comp, hyp)["decidable"] is whole
        for outcome in space.reachable(space.structures):
            assert comp.identified_set(outcome) \
                == space.identified_set(outcome)

    def test_a_completed_space_keeps_undecidable_hypotheses(self):
        space = FiniteStructureSpace(frozenset("ab"),
                                     {"s1": {"a"}, "s2": {"a", "b"}})
        comp = complete_space(space)
        assert not binary_decidability(
            comp, frozenset({("s1", "a")}))["decidable"]


class TestExtensions:
    def base(self):
        return FiniteStructureSpace(
            frozenset("abc"),
            {"x": {"a"}, "y": {"b"}},
            {"x": 0, "y": 1})

    def test_not_well_defined_when_outcome_unreachable(self):
        ext = FiniteStructureSpace(
            frozenset("abc"),
            {"x": {"a"}, "y": {"b"}, "w": {"a", "b"}},
            {"x": 0, "y": 1, "w": 2})
        res = check_extension(self.base(), ext)
        assert res["classification"] == "not well-defined"

    def test_strong_extension(self):
        ext = FiniteStructureSpace(
            frozenset("abc"),
            {"x": {"a"}, "y": {"b"}, "w": {"c"}},
            {"x": 0, "y": 1, "w": 2})
        res = check_extension(self.base(), ext)
        assert res["classification"] == "strong"
        assert res["well_defined"] and res["strong"]

    def test_theta_consistent_but_not_strong(self):
        ext = FiniteStructureSpace(
            frozenset("abc"),
            {"x": {"a"}, "y": {"b"}, "w": {"b", "c"}},
            {"x": 0, "y": 1, "w": 1})
        res = check_extension(self.base(), ext)
        assert res["classification"] == "theta-consistent"
        assert not res["strong"]

    def test_merely_well_defined(self):
        ext = FiniteStructureSpace(
            frozenset("abc"),
            {"x": {"a"}, "y": {"b"}, "w": {"b", "c"}},
            {"x": 0, "y": 1, "w": 7})
        res = check_extension(self.base(), ext)
        assert res["classification"] == "well-defined"

    def test_rejects_modified_base(self):
        ext = FiniteStructureSpace(
            frozenset("abc"),
            {"x": {"a", "c"}, "y": {"b"}},
            {"x": 0, "y": 1})
        with pytest.raises(DataError):
            check_extension(self.base(), ext)


def restricted(space, keep):
    """The space of the structures ``keep``, on the same alphabet."""
    return FiniteStructureSpace(space.outcomes,
                                {s: space.obs_map[s] for s in keep},
                                {s: space.theta[s] for s in keep})


class TestGeneralConstruction:
    """The abstract's general construction (PAPER.md): an assumption A
    relaxes to an assumption Ã that no distribution of outcomes rejects, with
    A's identified set wherever A is not rejected.  Ã is the completion's
    children of A's structures, plus each child (s, o) of any structure
    whose outcome o lies outside reachable(A)."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_relaxed_assumption_is_strong_and_keeps_the_set(self, data):
        drawn = data.draw(spaces())
        # the alphabet is what the structures cover
        space = FiniteStructureSpace(drawn.reachable(drawn.structures),
                                     drawn.obs_map, drawn.theta)
        a = frozenset(data.draw(st.sets(
            st.sampled_from(sorted(space.structures)), min_size=1)))
        reach = space.reachable(a)
        comp = complete_space(space)
        children = {c for c in comp.structures if c[0] in a}
        outside = {c for c in comp.structures if c[1] not in reach}
        relaxed = restricted(comp, children | outside)

        assert relaxed.reachable(relaxed.structures) == space.outcomes
        under_a = restricted(space, a)
        for outcome in reach:
            assert relaxed.identified_set(outcome) \
                == under_a.identified_set(outcome)
        verdict = check_extension(restricted(comp, children), relaxed)
        assert verdict["classification"] == "strong"


class TestJsonLoader:
    def test_roundtrip(self, tmp_path):
        payload = {
            "outcomes": ["a", "b"],
            "structures": [
                {"name": "x", "predicts": ["a"], "theta": 0},
                {"name": "y", "predicts": ["a", "b"], "theta": 1},
            ],
            "assumption": ["x"],
        }
        p = tmp_path / "space.json"
        p.write_text(json.dumps(payload))
        space, assumption = load_space_json(p)
        assert space.structures == {"x", "y"}
        assert assumption == {"x"}
        assert space.identified_set("a") == {0, 1}

    def test_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(DataError, match="invalid JSON"):
            load_space_json(p)

    def test_unknown_assumption_name(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({
            "outcomes": ["a"],
            "structures": [{"name": "x", "predicts": ["a"]}],
            "assumption": ["ghost"],
        }))
        with pytest.raises(DataError, match="unknown"):
            load_space_json(p)

    def test_theta_must_cover_every_structure(self):
        with pytest.raises(DataError, match="^theta must be defined for "
                                            "every structure$"):
            FiniteStructureSpace(frozenset("a"), {"x": {"a"}, "y": {"a"}},
                                 {"x": 0})

    def test_identified_set_of_an_unknown_outcome(self):
        space = FiniteStructureSpace(frozenset("a"), {"x": {"a"}}, {"x": 0})
        with pytest.raises(DataError, match="^unknown outcome 'q'$"):
            space.identified_set("q")

    def test_identified_set_needs_theta(self):
        space = FiniteStructureSpace(frozenset("a"), {"x": {"a"}})
        with pytest.raises(ConfigError):
            space.identified_set("a")
