"""Worst-case minimization: exact LP path, lattice sweep, p-norm study."""
import numpy as np
import pytest

from robpareto.core import (
    AffineFamilyObjectives,
    ExplicitCandidates,
    Instance,
    ScenarioSet,
    SimplexCandidates,
    TableObjectives,
    candidate_label,
    objective_scale,
)
from robpareto.efficiency import classify
from robpareto.scalarize import (
    Chebyshev,
    WeightedPNorm,
    WeightedSum,
    catalog,
    monotone_at_least,
    worst_case,
)
from robpareto.solve import minimize_scalarized, p_norm_study, sweep_front

from oracles import sweep_minimum


def test_problem1_weighted_sum_exact_lp(problem1):
    res = minimize_scalarized(problem1, WeightedSum([0.5, 0.5]))
    assert res.method == "exact_lp"
    # scenario pieces (5-3x)/2 and 1+x cross at x = 0.6
    assert abs(res.value - 1.6) < 1e-9
    assert candidate_label(res.best) == "0.6"
    assert res.worst_scenario in ("1", "2", "3")


def test_problem2_weighted_sums(problem2):
    res = minimize_scalarized(problem2, WeightedSum([0.3, 0.7]))
    assert candidate_label(res.best) == "(0, 1)"
    assert abs(res.value - 2.65) < 1e-9
    even = minimize_scalarized(problem2, WeightedSum([0.5, 0.5]))
    assert candidate_label(even.best) == "(0.5, 0.5)"
    assert abs(even.value - 2.875) < 1e-9
    # both optima clear the coarse bound claimed for the (0,1) corner
    assert res.value <= 3 + 1e-9 and even.value <= 3 + 1e-9


def test_single_candidate_returns_itself():
    inst = Instance(
        n=2,
        scenarios=ScenarioSet(ids=("1", "2")),
        objectives=TableObjectives({"only": {"1": [3.0, 1.0], "2": [0.0, 2.0]}}),
        candidates=ExplicitCandidates(("only",)),
    )
    u = Chebyshev(np.ones(2))
    res = minimize_scalarized(inst, u)
    assert res.best == "only"
    assert res.method == "sweep"  # explicit candidate lists are enumerated
    assert abs(res.value - worst_case(u, inst.image("only")).value) < 1e-12


def test_value_matches_worst_case_at_best(problem1, problem2, rng):
    from robpareto.testing import random_instance

    instances = [problem1, problem2] + [random_instance(rng) for _ in range(10)]
    for inst in instances:
        for u in catalog(inst.n):
            res = minimize_scalarized(inst, u)
            wc = worst_case(u, inst.image(res.best))
            assert abs(res.value - wc.value) < 1e-9
            assert res.worst_scenario == wc.scenario_id


def test_explicit_tie_breaks_to_smallest_id():
    shared = {"1": [2.0, 2.0], "2": [1.0, 3.0]}
    inst = Instance(
        n=2,
        scenarios=ScenarioSet(ids=("1", "2")),
        objectives=TableObjectives({"b": shared, "a": shared, "c": shared}),
        candidates=ExplicitCandidates(("b", "a", "c")),
    )
    res = minimize_scalarized(inst, WeightedSum([0.5, 0.5]))
    assert res.best == "a"


def test_simplex_tie_breaks_to_smallest_point():
    # every candidate maps to {(1,0),(0,1)}, so all worst cases tie exactly
    fam = AffineFamilyObjectives({"1": [[1, 1], [0, 0]], "2": [[0, 0], [1, 1]]})
    inst = Instance(
        n=2,
        scenarios=ScenarioSet(ids=("1", "2")),
        objectives=fam,
        candidates=SimplexCandidates(dim=2, step=0.25),
    )
    res = minimize_scalarized(inst, Chebyshev(np.ones(2)))
    assert res.method == "sweep_refined"
    assert candidate_label(res.best) == "0"
    assert abs(res.value - 1.0) < 1e-12


def test_refinement_never_increases_value(problem1):
    u = WeightedPNorm(np.ones(2), 2.0)
    coarse = minimize_scalarized(problem1, u, refinements=0)
    refined = minimize_scalarized(problem1, u, refinements=2)
    assert refined.value <= coarse.value + 1e-12
    # the lattice route keeps its method label even with zero passes
    assert coarse.method == "sweep_refined" and refined.method == "sweep_refined"
    assert refined.evaluations > coarse.evaluations


def test_refined_sweep_tracks_dense_grid(problem1):
    u = WeightedPNorm(np.ones(2), 2.0)
    res = minimize_scalarized(problem1, u)
    dense_val, _ = sweep_minimum(problem1, u, step=0.001)
    assert res.value <= dense_val + 0.01


def test_sweep_front_order_and_names(problem1):
    family = [WeightedPNorm(np.ones(2), p) for p in (1.0, 2.0, 10.0)]
    rows = sweep_front(problem1, family)
    assert [name for name, _ in rows] == [u.name for u in family]
    single = sweep_front(problem1, [family[0]])
    assert len(single) == 1


def test_p_norm_study_problem1_radii(problem1):
    entries = p_norm_study(problem1)
    assert [e.p for e in entries] == [1, 2, 10]
    radii = {e.p: e.sup_radius for e in entries}
    assert abs(radii[1] - 0.7) < 1e-9
    assert abs(radii[2] - 0.61875) < 1e-9
    assert abs(radii[10] - 0.525) < 1e-9
    assert radii[10] <= radii[2] <= radii[1]
    one_norms = {e.p: e.one_norm_worst for e in entries}
    assert one_norms[1] <= one_norms[10] + 1e-12
    for e in entries:
        # scaled values live in the unit box
        assert e.scaled.max() <= 1 + 1e-12
        assert np.all(e.scaled >= -1e-12)
        # the entry's scalarizer is the scaled p-norm its optimum minimizes
        assert (e.scalarizer.p, e.scalarizer.w.tobytes()) == (e.p, (objective_scale(problem1) ** -e.p).tobytes())
        assert worst_case(e.scalarizer, e.image).value == e.result.value


def test_winners_pass_the_efficiency_gate(rng):
    from robpareto.testing import random_instance

    for _ in range(15):
        inst = random_instance(rng)
        report = classify(inst)
        for u in catalog(inst.n):
            if not monotone_at_least(u, "strongly_increasing"):
                continue
            res = minimize_scalarized(inst, u)
            winner = report.result_for(res.best)
            assert winner.robust_efficient
            if u.convex:
                assert winner.convex_hull_efficient
