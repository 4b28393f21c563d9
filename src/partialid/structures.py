"""Refutability and confirmability algebra on finite structure spaces.

A structure space pairs each structure with the nonempty set of observable
outcomes it can generate, and optionally with a parameter value.  Four
monotone operators act on hypotheses (structure subsets):

* strongly nonrefutable hull: structures whose outcomes all lie inside the
  hypothesis's reachable outcomes;
* weakly nonrefutable hull: structures sharing at least one reachable
  outcome with the hypothesis;
* strongly confirmable core: structures none of whose outcomes are
  reachable from outside the hypothesis;
* weakly confirmable core: structures with at least one outcome unreachable
  from outside the hypothesis.

Each core is the complement of a hull of the complement: the strong core
of H is S minus the weak hull of S - H, and the weak core of H is S minus
the strong hull of S - H.  A hypothesis admits a consistent binary
accept/reject rule exactly when its strongly confirmable core already
equals its weakly nonrefutable hull.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import ConfigError, DataError, open_utf8


@dataclass(frozen=True)
class FiniteStructureSpace:
    """Finite collection of structures with observation maps.

    Parameters
    ----------
    outcomes : frozenset
        Alphabet of observable outcomes.
    obs_map : mapping
        Structure name -> frozenset of outcomes it can generate (nonempty,
        contained in the alphabet).
    theta : mapping, optional
        Structure name -> parameter value.
    """

    outcomes: frozenset
    obs_map: Mapping
    theta: Optional[Mapping] = None

    def __post_init__(self):
        outcomes = frozenset(self.outcomes)
        obs_map = {s: frozenset(v) for s, v in dict(self.obs_map).items()}
        if not obs_map:
            raise DataError("the structure space must be nonempty")
        for s, v in obs_map.items():
            if not v:
                raise DataError(f"structure {s!r} generates no outcomes")
            if not v <= outcomes:
                raise DataError(f"structure {s!r} maps outside the alphabet")
        theta = None if self.theta is None else dict(self.theta)
        if theta is not None and set(theta) != set(obs_map):
            raise DataError("theta must be defined for every structure")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "obs_map", obs_map)
        object.__setattr__(self, "theta", theta)

    @property
    def structures(self):
        return frozenset(self.obs_map)

    def reachable(self, hypothesis):
        """Union of outcomes generated by the hypothesis's structures."""
        return frozenset().union(
            *(self.obs_map[s] for s in self._check(hypothesis)))

    def _check(self, hypothesis):
        hypothesis = frozenset(hypothesis)
        if not hypothesis <= self.structures:
            raise DataError("hypothesis contains unknown structures")
        return hypothesis

    def identified_set(self, outcome):
        """Parameter values of all structures able to generate ``outcome``."""
        if self.theta is None:
            raise ConfigError("no parameter map attached to this space")
        if outcome not in self.outcomes:
            raise DataError(f"unknown outcome {outcome!r}")
        return frozenset(self.theta[s] for s in self.structures
                         if outcome in self.obs_map[s])

    # ------------------------------------------------------------------
    # hulls and cores
    # ------------------------------------------------------------------
    def strongly_nonrefutable(self, hypothesis):
        reach = self.reachable(hypothesis)
        return frozenset(s for s in self.structures if self.obs_map[s] <= reach)

    def weakly_nonrefutable(self, hypothesis):
        reach = self.reachable(hypothesis)
        return frozenset(s for s in self.structures if self.obs_map[s] & reach)

    def strongly_confirmable(self, hypothesis):
        hypothesis = self._check(hypothesis)
        return self.structures - self.weakly_nonrefutable(
            self.structures - hypothesis)

    def weakly_confirmable(self, hypothesis):
        hypothesis = self._check(hypothesis)
        return self.structures - self.strongly_nonrefutable(
            self.structures - hypothesis)


def nonrefutable_sets(space: FiniteStructureSpace, hypothesis):
    """Strong and weak nonrefutable hulls of a hypothesis."""
    return {
        "strong": space.strongly_nonrefutable(hypothesis),
        "weak": space.weakly_nonrefutable(hypothesis),
    }


def confirmable_sets(space: FiniteStructureSpace, hypothesis):
    """Strong and weak confirmable cores of a hypothesis."""
    return {
        "strong": space.strongly_confirmable(hypothesis),
        "weak": space.weakly_confirmable(hypothesis),
    }


def binary_decidability(space: FiniteStructureSpace, hypothesis):
    """Whether the hypothesis supports an error-free accept/reject rule,
    plus canonical repairs when it does not.

    A hypothesis is decidable when its strongly confirmable core coincides
    with its weakly nonrefutable hull.  If not, the strong hull is the
    smallest enlargement that could restore decidability provided it agrees
    with the weak hull without exhausting the space, and the weak core is
    the largest shrinkage provided it agrees with the strong core and is
    nonempty.
    """
    hypothesis = space._check(hypothesis)
    scon = space.strongly_confirmable(hypothesis)
    wcon = space.weakly_confirmable(hypothesis)
    snf = space.strongly_nonrefutable(hypothesis)
    wnf = space.weakly_nonrefutable(hypothesis)
    out = {
        "decidable": scon == wnf,
        "smallest_enlargement": None,
        "largest_shrinkage": None,
    }
    if snf == wnf and snf != space.structures:
        out["smallest_enlargement"] = snf
    if scon == wcon and scon:
        out["largest_shrinkage"] = wcon
    return out


def check_extension(space: FiniteStructureSpace,
                    extension: FiniteStructureSpace):
    """Classify an enlargement of a structure space.

    The original structures must appear unchanged in the extension.  The
    returned classification is one of ``'not well-defined'`` (the extension
    fails to reach the whole alphabet), ``'well-defined'``,
    ``'theta-consistent'`` (identified sets are unchanged on every outcome
    the original space can generate), or ``'strong'`` (additionally, no new
    structure shares an outcome with the original ones).  The dict also
    carries the individual boolean verdicts.
    """
    if extension.outcomes != space.outcomes:
        raise DataError("the extension must keep the same outcome alphabet")
    base = space.structures
    if not base <= extension.structures:
        raise DataError("the extension must contain every original structure")
    for s in base:
        if extension.obs_map[s] != space.obs_map[s]:
            raise DataError(f"extension changes the observation map of {s!r}")
    if space.theta is not None:
        if extension.theta is None:
            raise DataError("the extension drops the parameter map")
        for s in base:
            if extension.theta[s] != space.theta[s]:
                raise DataError(f"extension changes the parameter of {s!r}")

    well_defined = extension.reachable(extension.structures) == space.outcomes

    strong = well_defined and extension.weakly_nonrefutable(base) == base
    theta_consistent = None
    if space.theta is not None and well_defined:
        theta_consistent = all(
            extension.identified_set(o) == space.identified_set(o)
            for o in space.reachable(base))

    if not well_defined:
        classification = "not well-defined"
    elif strong:
        classification = "strong"
    elif theta_consistent:
        classification = "theta-consistent"
    else:
        classification = "well-defined"
    return {
        "classification": classification,
        "well_defined": well_defined,
        "strong": strong,
        "theta_consistent": theta_consistent,
    }


def complete_space(space: FiniteStructureSpace) -> FiniteStructureSpace:
    """Split every structure into one child per outcome it can generate.

    Each child ``(s, outcome)`` generates exactly that single outcome and
    inherits the parent's parameter, so identified sets on every outcome
    are preserved while all observation sets become singletons.  A
    hypothesis of the completed space is decidable exactly when, for each
    outcome, it holds all of the children generating it or none.
    """
    obs_map = {(s, o): {o} for s, v in space.obs_map.items() for o in v}
    theta = (None if space.theta is None
             else {child: space.theta[child[0]] for child in obs_map})
    return FiniteStructureSpace(space.outcomes, obs_map, theta)


def _labels(value, what):
    """``value`` as a frozenset, which must come from a JSON list of
    scalars (strings, numbers, booleans or null)."""
    if not isinstance(value, list) or not all(map(_is_scalar, value)):
        raise DataError(f"{what} must be a list of strings or numbers")
    return frozenset(value)


def _is_scalar(value):
    """Whether a parsed JSON value is hashable, i.e. neither list nor
    object."""
    return not isinstance(value, (list, dict))


def load_space_json(path):
    """Read a structure space description from JSON.

    Expected keys: ``outcomes`` (list), ``structures`` (list of objects with
    ``name``, ``predicts`` (outcome list) and optional ``theta`` label), and
    an optional ``assumption`` (list of structure names used as the default
    hypothesis).  Names, outcomes and labels are JSON scalars.  Returns
    ``(space, assumption_or_None)``.
    """
    with open_utf8(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise DataError(f"{path}: the top level must be a JSON object")
    for key in ("outcomes", "structures"):
        if key not in raw:
            raise DataError(f"missing key {key!r} in {path}")
    if not (isinstance(raw["structures"], list)
            and all(isinstance(item, dict) for item in raw["structures"])):
        raise DataError("'structures' must be a list of objects")
    obs_map, theta = {}, {}
    for item in raw["structures"]:
        if "name" not in item or "predicts" not in item:
            raise DataError("each structure needs 'name' and 'predicts'")
        name = item["name"]
        if not (_is_scalar(name) and _is_scalar(item.get("theta"))):
            raise DataError("structure names and 'theta' labels must be "
                            "strings or numbers")
        if name in obs_map:
            raise DataError(f"duplicate structure name {name!r}")
        obs_map[name] = _labels(item["predicts"], f"'predicts' of {name!r}")
        if "theta" in item:
            theta[name] = item["theta"]
    if theta and set(theta) != set(obs_map):
        raise DataError("either all structures carry a theta label or none")
    space = FiniteStructureSpace(_labels(raw["outcomes"], "'outcomes'"),
                                 obs_map, theta or None)
    assumption = raw.get("assumption")
    if assumption is not None:
        assumption = _labels(assumption, "'assumption'")
        if not assumption <= space.structures:
            raise DataError("'assumption' names unknown structures")
    return space, assumption
