"""Distributional robustness over finite generator families.

An ambiguity set is a finite family of distributions over the instance's
scenarios, optionally closed under convex combination.  to_robust() rewrites
the problem in terms of per-distribution expected objectives g(x; pi), one
transformed scenario per generator: expectations are linear in pi, so the
generators carry all extreme behaviour of the family.

When convex_closure is set the transformed instance is marked scenario_hull:
the attainable image of a candidate under the full convex family is exactly
the convex hull of its generator images, so dominance tests go through the
hull and the robust and convex-hull labels provably coincide there.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    AffineFamilyObjectives,
    ExplicitCandidates,
    Instance,
    LinearScenarioObjectives,
    ObjectiveMap,
    ScenarioSet,
    SimplexCandidates,
    TableObjectives,
    _image_values,
)
from .efficiency import classify

PROB_TOL = 1e-12
FEAS_TOL = 1e-9


class EmptyFeasibleSetError(ValueError):
    """All candidates were removed by the expectation constraints."""


@dataclass(eq=False)
class AmbiguitySet:
    """Finite generator family of distributions over a scenario set."""

    support: ScenarioSet
    distributions: tuple
    convex_closure: bool = False

    def __post_init__(self):
        m = len(self.support)
        dists = []
        for pi in self.distributions:
            vec = np.asarray(pi, dtype=float).ravel()
            if vec.shape[0] != m:
                raise ValueError(f"distribution has length {vec.shape[0]}, support has {m}")
            if np.any(vec < -PROB_TOL):
                raise ValueError("distribution has a negative probability")
            if abs(vec.sum() - 1.0) > PROB_TOL:
                raise ValueError("distribution does not sum to 1")
            vec = np.clip(vec, 0.0, None)
            vec.flags.writeable = False
            dists.append(vec)
        if not dists:
            raise ValueError("ambiguity set needs at least one generator")
        self.distributions = tuple(dists)

    def generator_ids(self) -> tuple:
        return tuple(f"pi{i}" for i in range(len(self.distributions)))


@dataclass(eq=False)
class ExpectationConstraint:
    """Rows c(x; s) with E_pi[c(x; S)] <= 0 required for every generator pi."""

    map: ObjectiveMap

    def evaluate(self, scenarios: ScenarioSet, candidate) -> np.ndarray:
        """Constraint rows per scenario, shape (|S|, m_c), scenario order."""
        return _image_values(self.map, scenarios, [candidate])[0]


def to_robust(instance: Instance, ambiguity: AmbiguitySet,
              constraint: Optional[ExpectationConstraint] = None,
              feas_tol: float = FEAS_TOL) -> Instance:
    """Rewrite a distributionally robust problem as a plain robust one.

    The transformed scenarios are the generators; objective values are the
    expectations g(x; pi).  Candidates failing an expectation constraint
    under any generator are dropped (EmptyFeasibleSetError if none survive).
    """
    if tuple(ambiguity.support.ids) != tuple(instance.scenarios.ids):
        raise ValueError("ambiguity support does not match the instance scenarios")
    sids = instance.scenarios.ids
    gids = ambiguity.generator_ids()
    dists = ambiguity.distributions

    candidates = instance.candidates
    cands = instance.candidate_list()
    feasible = np.ones(len(cands), dtype=bool)
    if constraint is not None:
        rows = _image_values(constraint.map, instance.scenarios, cands)
        feasible = np.array([all(np.all(pi @ r <= feas_tol) for pi in dists) for r in rows])
        kept = [c for c, ok in zip(cands, feasible) if ok]
        if not kept:
            raise EmptyFeasibleSetError("every candidate violates an expectation constraint")
        if isinstance(candidates, ExplicitCandidates):
            candidates = ExplicitCandidates(tuple(kept))
        else:
            candidates = SimplexCandidates(dim=candidates.dim, points=tuple(kept))

    obj = instance.objectives
    if isinstance(obj, AffineFamilyObjectives):
        mixed = {
            gid: sum(pi[i] * obj.array[obj.scenario_pos[sid]] for i, sid in enumerate(sids))
            for gid, pi in zip(gids, dists)
        }
        objectives: ObjectiveMap = AffineFamilyObjectives(mixed)
        scenarios = ScenarioSet(ids=gids)
    elif isinstance(obj, LinearScenarioObjectives):
        coords = {
            gid: sum(pi[i] * instance.scenarios.coords[sid] for i, sid in enumerate(sids))
            for gid, pi in zip(gids, dists)
        }
        objectives = obj  # the F matrices do not depend on the scenarios
        scenarios = ScenarioSet(ids=gids, coords=coords)
    else:
        # table maps always ride on explicit candidate ids
        images = instance.image_tensor()[feasible]
        objectives = TableObjectives({cid: {gid: pi @ vals for gid, pi in zip(gids, dists)}
                                      for cid, vals in zip(candidates.ids, images)})
        scenarios = ScenarioSet(ids=gids)

    name = f"{instance.name}+dro" if instance.name else None
    return Instance(
        n=instance.n,
        scenarios=scenarios,
        objectives=objectives,
        candidates=candidates,
        scenario_hull=ambiguity.convex_closure,
        name=name,
    )


def che_equals_robust_check(instance: Instance, ambiguity: AmbiguitySet,
                            constraint: Optional[ExpectationConstraint] = None) -> bool:
    """Do robust and convex-hull labels coincide on the transformed instance?

    Guaranteed true when the ambiguity set is convex (convex_closure set);
    without closure the two label sets may genuinely differ.
    """
    report = classify(to_robust(instance, ambiguity, constraint))
    return all(r.robust_efficient == r.convex_hull_efficient for r in report.results)


def ambiguity_to_dict(ambiguity: AmbiguitySet) -> dict:
    return {
        "distributions": [list(map(float, pi)) for pi in ambiguity.distributions],
        "convex_closure": ambiguity.convex_closure,
    }


def ambiguity_from_dict(data, scenarios: ScenarioSet) -> AmbiguitySet:
    return AmbiguitySet(
        support=scenarios,
        distributions=tuple(tuple(pi) for pi in data["distributions"]),
        convex_closure=bool(data.get("convex_closure", False)),
    )
