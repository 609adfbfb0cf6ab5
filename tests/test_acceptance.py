"""Acceptance gate: nine end-to-end criteria with pinned tolerances and budgets.

Every criterion rebuilds its inputs inside its own timer (seed 20260815),
asserts its substantive checks, then asserts the wall-clock budget.  One
PASS/FAIL line per criterion is printed and echoed into the terminal summary.
"""
import contextlib
import io
import time

import numpy as np

from robpareto import cli
from robpareto.core import (
    AffineFamilyObjectives,
    Instance,
    ScenarioSet,
    SimplexCandidates,
    builtin_instance,
)
from robpareto.distro import to_robust
from robpareto.efficiency import classify
from robpareto.geometry import dominated_by_hull, image_dominates
from robpareto.linprog import lp_solve
from robpareto.phantom import PhantomConfig, generate
from robpareto.scalarize import (
    WeightedPNorm,
    WeightedSum,
    catalog,
    constructive_scalarizer,
    dual_reformulate,
    monotone_at_least,
    worst_case,
)
from robpareto.solve import p_norm_study
from robpareto.testing import random_ambiguity, random_instance, random_linear_instance

from oracles import hull_dominated_2d, max_linear_over_polytope, random_hull_query

SEED = 20260815


def run_criterion(name, description, budget_s, log, body):
    t0 = time.perf_counter()
    failure = None
    try:
        body()
    except AssertionError as exc:
        failure = exc
    elapsed = time.perf_counter() - t0
    ok = failure is None and elapsed < budget_s
    line = f"{'PASS' if ok else 'FAIL'} {name}: {description} ({elapsed:.3f}s, budget {budget_s:g}s)"
    log.append(line)
    print(line)
    if failure is not None:
        raise failure
    assert elapsed < budget_s, f"{name} exceeded its {budget_s:g}s budget: {elapsed:.3f}s"


def _hundred_random_instances():
    rng = np.random.default_rng(SEED)
    return [random_instance(rng, name=f"acc-{i}") for i in range(100)]


def test_a1_interval_grid_certificates(acceptance_log):
    def body():
        inst = builtin_instance("problem-1", step=0.01)
        report = classify(inst)
        assert len(report.results) == 101
        assert all(r.robust_efficient for r in report.results)
        origin = report.result_for(0.0)
        assert not origin.convex_hull_efficient
        assert origin.dominators["convex_hull"].label == "1"
        assert report.result_for(1.0).convex_hull_efficient

    run_criterion(
        "A1",
        "0.01-grid classification: all robust, hull rejects the origin via x=1",
        1.0, acceptance_log, body,
    )


def test_a2_scalarizer_separation(acceptance_log):
    def body():
        inst = builtin_instance("problem-1")
        img0, img1 = inst.image(0.0), inst.image(1.0)
        rng = np.random.default_rng(SEED)
        checked = 0
        for p in (1.0, 2.0, 10.0):
            for _ in range(50):
                w = rng.uniform(0.1, 3.0, size=2)
                u = WeightedPNorm(w, p, n=2)
                margin = worst_case(u, img0).value - worst_case(u, img1).value
                assert margin > 1e-9
                checked += 1
        assert checked == 150

    run_criterion(
        "A2",
        "150 seeded convex p-norm scalarizers strictly prefer x=1 over x=0",
        1.0, acceptance_log, body,
    )


def test_a3_weighted_sum_closed_form(acceptance_log):
    def body():
        inst = builtin_instance("problem-2")
        img_edge = inst.image((0.0, 1.0))
        img_origin = inst.image((0.0, 0.0))
        for w1 in np.round(np.arange(51) * 0.01, 10):
            u = WeightedSum([w1, 1.0 - w1])
            value = worst_case(u, img_edge).value
            expected = max(3 * w1 + 2.5 * (1 - w1), 3 * w1, 6 * w1)
            assert abs(value - expected) < 1e-9
            assert value <= 3 + 1e-9
            assert abs(worst_case(u, img_origin).value - 4.0) < 1e-9
        report = classify(inst)
        assert report.result_for((0.0, 0.0)).convex_hull_efficient

    run_criterion(
        "A3",
        "worst-case weighted sums match the closed form yet (0,0) stays hull-efficient",
        1.0, acceptance_log, body,
    )


def test_a4_constructive_certificates(acceptance_log):
    def body():
        for inst in _hundred_random_instances():
            report = classify(inst)
            images = {c: inst.image(c) for c in inst.candidate_list()}
            for mode, kind in (("plain", "robust"), ("hull", "convex_hull")):
                for star in report.efficient(kind):
                    u = constructive_scalarizer(inst, star, mode=mode)
                    values = {c: worst_case(u, img).value for c, img in images.items()}
                    assert abs(values[star]) <= 1e-9
                    floor = min(values.values())
                    assert floor >= -1e-9
                    assert values[star] - floor <= 2e-9

    run_criterion(
        "A4",
        "constructive scalarizer certifies every efficient candidate, both modes, 100 instances",
        5.0, acceptance_log, body,
    )


def test_a5_dominance_inequalities(acceptance_log):
    def body():
        violations = []
        for inst in _hundred_random_instances():
            cands = inst.candidate_list()
            images = {c: inst.image(c) for c in cands}
            members = [u for u in catalog(inst.n) if monotone_at_least(u, "increasing")]
            for mode in ("plain", "hull"):
                needs_convex = mode == "hull"
                for a in cands:
                    for b in cands:
                        if a is b:
                            continue
                        if image_dominates(images[a], images[b], mode=mode) is None:
                            continue
                        for u in members:
                            if needs_convex and not u.convex:
                                continue
                            va = worst_case(u, images[a]).value
                            vb = worst_case(u, images[b]).value
                            if va > vb + 1e-9:
                                violations.append((inst.name, mode, a, b, u.name))
                            if monotone_at_least(u, "strongly_increasing") and not vb - va > 1e-12:
                                violations.append((inst.name, mode, a, b, u.name))
        assert violations == []

    run_criterion(
        "A5",
        "dominance inequalities hold for the full scalarizer catalog, zero violations",
        5.0, acceptance_log, body,
    )


def test_a6_phantom_norm_study(acceptance_log):
    def body():
        inst = generate(PhantomConfig())
        entries = p_norm_study(inst, ps=(1.0, 2.0, 10.0))
        radius = {e.p: e.sup_radius for e in entries}
        assert radius[10.0] <= radius[2.0] <= radius[1.0] + 1e-6
        one_norm = {e.p: e.one_norm_worst for e in entries}
        assert one_norm[1.0] < one_norm[10.0]

    run_criterion(
        "A6",
        "phantom study: sup radius shrinks as p grows; p=1 wins the 1-norm",
        30.0, acceptance_log, body,
    )


def _collinear_instance(rng):
    v0 = rng.integers(0, 10, size=(2, 2)).astype(float)
    v1 = rng.integers(0, 10, size=(2, 2)).astype(float)
    fam = {f"t{t:g}": (1 - t) * v0 + t * v1 for t in (0.0, 0.25, 0.5, 0.75, 1.0)}
    return Instance(
        n=2,
        scenarios=ScenarioSet(ids=tuple(fam)),
        objectives=AffineFamilyObjectives(fam),
        candidates=SimplexCandidates(dim=2, step=0.25),
    )


def test_a7_structural_equivalences(acceptance_log):
    def body():
        for inst in _hundred_random_instances():
            report = classify(inst)
            assert report.efficient("set_valued") == report.efficient("robust")
            for res in report.results:
                if res.convex_hull_efficient:
                    assert res.robust_efficient
                if res.objectivewise_efficient:
                    assert res.robust_efficient
                assert res.set_valued_minimizer == res.robust_efficient

        rng = np.random.default_rng(SEED + 7)
        for i in range(100):
            base = random_instance(rng, name=f"dro-{i}")
            ambiguity = random_ambiguity(rng, base.scenarios, convex_closure=True)
            report = classify(to_robust(base, ambiguity))
            assert report.efficient("robust") == report.efficient("convex_hull")

        rng = np.random.default_rng(SEED + 77)
        degenerate = (
            [random_instance(rng, max_n=1) for _ in range(10)]
            + [random_instance(rng, max_scenarios=1) for _ in range(10)]
            + [_collinear_instance(rng) for _ in range(10)]
        )
        for inst in degenerate:
            for res in classify(inst).results:
                assert res.robust_efficient == res.convex_hull_efficient

    run_criterion(
        "A7",
        "set-valued==robust, label nesting, convex-ambiguity collapse, degenerate equalities",
        10.0, acceptance_log, body,
    )


def test_a8_oracle_equivalence(acceptance_log):
    def body():
        rng = np.random.default_rng(SEED)
        for _ in range(10_000):
            y, anchors = random_hull_query(rng)
            assert (dominated_by_hull(y, anchors) is not None) == hull_dominated_2d(y, anchors)

        rng = np.random.default_rng(SEED + 8)
        for _ in range(200):
            inst = random_linear_instance(rng)
            cand = inst.candidate_list()[0]
            w = rng.uniform(0.1, 2.0, size=inst.n)
            res = lp_solve(dual_reformulate(inst, w, cand))
            assert res.status == "optimal"
            a, b = inst.scenarios.polyhedral_form
            f_mat = inst.objectives.array[inst.objectives.candidate_pos[cand]]
            assert abs(res.value - max_linear_over_polytope(f_mat.T @ w, a, b)) <= 1e-7

    run_criterion(
        "A8",
        "hull test matches brute force on 1e4 queries; dual matches vertex enumeration",
        10.0, acceptance_log, body,
    )


def test_a9_phantom_certificates(acceptance_log):
    def body():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["report", "--phantom", "default"])
        assert code == 0, out.getvalue()
        assert out.getvalue() == "phantom:default: certificates and scalarizer bounds verified\n"

    run_criterion(
        "A9",
        "report --phantom default: witnesses re-verify, both constructive scalarizers bound every efficient candidate",
        90.0, acceptance_log, body,
    )
