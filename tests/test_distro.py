"""Distributionally robust layer: ambiguity sets and the reduction transform."""
import numpy as np
import pytest

from robpareto.core import (
    ExplicitCandidates,
    Instance,
    LinearScenarioObjectives,
    ScenarioSet,
    SimplexCandidates,
    TableObjectives,
    candidate_label,
)
from robpareto.core import AffineFamilyObjectives
from robpareto.distro import (
    AmbiguitySet,
    EmptyFeasibleSetError,
    ExpectationConstraint,
    ambiguity_from_dict,
    ambiguity_to_dict,
    che_equals_robust_check,
    to_robust,
)
from robpareto.efficiency import classify
from robpareto.geometry import signed_distance
from robpareto.testing import random_ambiguity, random_instance


def _diracs(scenarios, convex=False):
    m = len(scenarios.ids)
    return AmbiguitySet(support=scenarios, distributions=tuple(np.eye(m)), convex_closure=convex)


def test_dirac_identity(problem1):
    amb = _diracs(problem1.scenarios)
    out = to_robust(problem1, amb)
    assert out.scenarios.ids == ("pi0", "pi1", "pi2")
    for cand in (0, 0.35, 1):
        np.testing.assert_allclose(out.image(cand).values, problem1.image(cand).values, atol=1e-12)
    assert out.name == "problem-1+dro"
    assert not out.scenario_hull


def test_uniform_generator_collapses_to_deterministic(problem1):
    amb = AmbiguitySet(
        support=problem1.scenarios,
        distributions=(np.full(3, 1 / 3),),
    )
    out = to_robust(problem1, amb)
    img = out.image(0.5)
    assert img.values.shape == (1, 2)
    np.testing.assert_allclose(img.values[0], problem1.image(0.5).values.mean(axis=0), atol=1e-12)
    # averaged images sit on the diagonal (2-x)*... shrinking with x, so only
    # x=1 remains efficient in the deterministic reduction
    report = classify(out)
    winners = [r.label for r in report.results if r.robust_efficient]
    assert winners == ["1"]


def test_mixture_linearity_all_forms(rng, problem1):
    # affine family
    amb = random_ambiguity(rng, problem1.scenarios)
    out = to_robust(problem1, amb)
    for cand in (0, 0.25, 0.8):
        want = np.stack([pi @ problem1.image(cand).values for pi in amb.distributions])
        np.testing.assert_allclose(out.image(cand).values, want, atol=1e-12)

    # table
    scen = ScenarioSet(ids=("1", "2"))
    table = Instance(
        n=2,
        scenarios=scen,
        objectives=TableObjectives({"a": {"1": [1.0, 2.0], "2": [5.0, 0.0]}}),
        candidates=ExplicitCandidates(("a",)),
    )
    amb2 = AmbiguitySet(support=scen, distributions=((0.25, 0.75), (1.0, 0.0)))
    out2 = to_robust(table, amb2)
    np.testing.assert_allclose(out2.image("a").values, [[4.0, 0.5], [1.0, 2.0]], atol=1e-12)

    # linear in s: expectation taken inside the scenario coordinates
    lin = Instance(
        n=2,
        scenarios=ScenarioSet(ids=("1", "2"), coords={"1": [1.0, 0.0], "2": [0.0, 1.0]}),
        objectives=LinearScenarioObjectives({"a": [[1.0, 2.0], [3.0, 4.0]]}),
        candidates=ExplicitCandidates(("a",)),
    )
    amb3 = AmbiguitySet(support=lin.scenarios, distributions=((0.5, 0.5),))
    out3 = to_robust(lin, amb3)
    F = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(out3.image("a").values, [F @ [0.5, 0.5]], atol=1e-12)
    assert out3.objectives.form == "linear_in_s"


def test_transformed_image_inside_original_hull(rng, problem1):
    for _ in range(10):
        amb = random_ambiguity(rng, problem1.scenarios)
        out = to_robust(problem1, amb)
        for cand in (0, 0.5, 1):
            anchors = problem1.image(cand).values
            for y in out.image(cand).values:
                assert signed_distance(y, anchors, "hull") <= 1e-9


def test_constraint_filters_candidates(problem1):
    # E[c] <= 0 with c(x) = 0.6 x1 - 0.4 x2 keeps the simplex slice x1 <= 0.4
    cmap = AffineFamilyObjectives({sid: [[0.6, -0.4]] for sid in problem1.scenarios.ids})
    amb = _diracs(problem1.scenarios, convex=True)
    out = to_robust(problem1, amb, constraint=ExpectationConstraint(cmap))
    labels = [candidate_label(c) for c in out.candidate_list()]
    assert labels == [format(v, ".10g") for v in np.arange(0, 0.45, 0.05)]


def test_all_candidates_infeasible_raises(problem1):
    cmap = AffineFamilyObjectives({sid: [[1.0, 1.0]] for sid in problem1.scenarios.ids})
    amb = _diracs(problem1.scenarios)
    with pytest.raises(EmptyFeasibleSetError):
        to_robust(problem1, amb, constraint=ExpectationConstraint(cmap))


def test_convex_closure_marks_scenario_hull(problem1):
    convex = to_robust(problem1, _diracs(problem1.scenarios, convex=True))
    assert convex.scenario_hull
    assert che_equals_robust_check(problem1, _diracs(problem1.scenarios, convex=True))


def test_diracs_without_closure_split_the_labels(problem1):
    # x=0 is robust but not hull efficient, so the label sets differ
    assert not che_equals_robust_check(problem1, _diracs(problem1.scenarios, convex=False))


def test_convex_ambiguity_equates_robust_and_hull(rng):
    for _ in range(20):
        inst = random_instance(rng)
        amb = random_ambiguity(rng, inst.scenarios, convex_closure=True)
        assert che_equals_robust_check(inst, amb)


def test_singleton_generator_check_true(problem1):
    amb = AmbiguitySet(
        support=problem1.scenarios,
        distributions=((0.2, 0.5, 0.3),),
        convex_closure=True,
    )
    assert che_equals_robust_check(problem1, amb)


def test_ambiguity_validation(problem1):
    scen = problem1.scenarios
    with pytest.raises(ValueError, match="length"):
        AmbiguitySet(support=scen, distributions=((0.5, 0.5),))
    with pytest.raises(ValueError, match="negative"):
        AmbiguitySet(support=scen, distributions=((-0.1, 0.6, 0.5),))
    with pytest.raises(ValueError, match="sum"):
        AmbiguitySet(support=scen, distributions=((0.2, 0.2, 0.2),))
    with pytest.raises(ValueError, match="at least one"):
        AmbiguitySet(support=scen, distributions=())


def test_support_mismatch_rejected(problem1):
    other = ScenarioSet(ids=("a", "b", "c"))
    amb = AmbiguitySet(support=other, distributions=(np.full(3, 1 / 3),))
    with pytest.raises(ValueError, match="support"):
        to_robust(problem1, amb)


def test_ambiguity_dict_round_trip(problem1):
    amb = AmbiguitySet(
        support=problem1.scenarios,
        distributions=((0.2, 0.5, 0.3), (1.0, 0.0, 0.0)),
        convex_closure=True,
    )
    data = ambiguity_to_dict(amb)
    again = ambiguity_from_dict(data, problem1.scenarios)
    assert again.convex_closure
    np.testing.assert_allclose(np.array(again.distributions), np.array(amb.distributions))


def test_ambiguity_from_dict_requires_a_boolean_closure(problem1):
    data = {"distributions": [[0.2, 0.5, 0.3]], "convex_closure": "false"}
    with pytest.raises(ValueError, match="^convex_closure must be true or false, got 'false'$"):
        ambiguity_from_dict(data, problem1.scenarios)
    assert not ambiguity_from_dict({"distributions": [[0.2, 0.5, 0.3]]}, problem1.scenarios).convex_closure
