"""Scalarizer catalog, worst-case evaluation, and the two LP reformulations."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robpareto.core import (
    ExplicitCandidates,
    Instance,
    LinearScenarioObjectives,
    ObjectiveImage,
    ScenarioSet,
    TableObjectives,
    objective_scale,
)
from robpareto.geometry import image_dominates
from robpareto.linprog import lp_solve
from robpareto.phantom import PhantomConfig, generate
from robpareto.scalarize import (
    Chebyshev,
    EpigraphEvaluation,
    EpigraphLp,
    SignedDistanceScalarizer,
    WeightedPNorm,
    WeightedSum,
    catalog,
    constructive_scalarizer,
    dual_reformulate,
    epigraph_form,
    monotone_at_least,
    worst_case,
)
from robpareto.testing import random_instance, random_linear_instance

from oracles import max_linear_over_polytope, reference_value, reference_worst_case, sweep_minimum
from strategies import ENTRY, instances


class TestApply:
    def test_pnorm_p1_is_scaled_taxicab(self):
        u = WeightedPNorm(np.ones(2), 1.0)
        assert abs(u.value([2, 4]) - 3.0) < 1e-12

    def test_weighted_sum_average(self):
        assert abs(WeightedSum([0.5, 0.5]).value([2, 2]) - 2.0) < 1e-12

    def test_pnorm_infinity_is_max(self):
        u = WeightedPNorm(np.ones(2), np.inf)
        assert abs(u.value([3, 0]) - 3.0) < 1e-12

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            WeightedPNorm(np.ones(2), 0.5)

    def test_nonpositive_pnorm_weights_rejected(self):
        with pytest.raises(ValueError):
            WeightedPNorm(np.array([1.0, 0.0]), 2.0)

    def test_zero_weight_sum_rejected(self):
        with pytest.raises(ValueError):
            WeightedSum([0.0, 0.0])

    def test_chebyshev_signed_max(self):
        u = Chebyshev(np.array([1.0, 2.0]), ref=np.array([1.0, 1.0]))
        # signed: negative below the reference point
        assert abs(u.value([3, 2]) - 2.0) < 1e-12
        assert u.value([0, 0]) < 0


class TestReferenceChecks:
    def test_non_finite_reference_rejected(self):
        for ref in (np.nan, np.inf, [0.0, -np.inf]):
            with pytest.raises(ValueError, match="reference point must be finite"):
                WeightedPNorm(1.0, 2.0, ref=ref, n=2)
            with pytest.raises(ValueError, match="reference point must be finite"):
                Chebyshev(1.0, ref=ref, n=2)

    def test_chebyshev_infers_n_from_the_reference(self):
        for u in (Chebyshev(1, ref=[0, 0]), WeightedPNorm(1, 2, ref=[0, 0])):
            assert u.n == 2
            assert u.w.tolist() == [1.0, 1.0]
        assert Chebyshev([1, 2]).ref.tolist() == [0.0, 0.0]
        with pytest.raises(ValueError, match="reference point has length 2, expected 3"):
            Chebyshev([1, 2, 3], ref=[0, 0])

    def test_values_checks_the_last_axis(self):
        u = WeightedSum([0.5, 0.5])
        assert u.values(np.zeros((4, 3, 2))).shape == (4, 3)
        assert u.values(np.zeros((0, 2))).shape == (0,)
        for bad in (np.zeros((3, 3)), 1.0):
            with pytest.raises(ValueError, match="length 2"):
                u.values(bad)
        with pytest.raises(ValueError, match="length 2"):
            u.value(np.zeros((1, 2)))


@st.composite
def _scalarizers(draw, inst):
    """A scalarizer of any class for inst, with weights and reference points drawn."""
    n = inst.n
    kind = draw(st.sampled_from(["wsum", "pnorm", "chebyshev", "plain", "hull"]))
    positive = st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n)
    ref = st.one_of(st.none(), st.lists(ENTRY, min_size=n, max_size=n))
    if kind == "wsum":
        w = draw(st.lists(st.sampled_from([0.0, 1 / 3, 2 / 3, 0.5, 1.0, 0.001, 0.7]), min_size=n, max_size=n))
        return WeightedSum([1.0] * n if not any(w) else w)
    if kind == "pnorm":
        p = draw(st.one_of(st.sampled_from([1.0, 1.5, 2.0, 3.0, 5.0, 10.0, math.inf]), st.floats(1.0, 20.0)))
        return WeightedPNorm(draw(positive), p, ref=draw(ref), n=n)
    if kind == "chebyshev":
        return Chebyshev(draw(positive), ref=draw(ref), n=n)
    anchor = draw(st.sampled_from(inst.candidate_list()))
    return constructive_scalarizer(inst, anchor, mode=kind)


@settings(max_examples=150, deadline=None)
@given(inst=instances(), data=st.data())
def test_values_match_the_one_point_reference(inst, data):
    """values, value and worst_case equal the one-point formulas bit for bit.

    The hull signed distance is an LP optimum reached two ways, so it is
    held to the enumeration oracle within 1e-12 of the data's scale, for
    n <= 3; value and worst_case still equal their rows of values exactly.
    """
    u = data.draw(_scalarizers(inst))
    tensor = inst.image_tensor()
    sids = inst.scenarios.ids
    vals = u.values(tensor)
    assert vals.shape == tensor.shape[:2]
    hull = isinstance(u, SignedDistanceScalarizer) and u.mode == "hull"
    if hull and inst.n <= 3:
        scale = max(np.abs(tensor).max(), np.abs(u.anchors).max())
        want = np.array([[reference_value(u, y) for y in row] for row in tensor])
        assert np.all(np.abs(vals - want) <= 1e-12 * scale + np.finfo(float).tiny)
    elif not hull:
        want = np.array([[reference_value(u, y) for y in row] for row in tensor])
        assert vals.tobytes() == want.tobytes()
    for cand, row, val_row in zip(inst.candidate_list(), tensor, vals):
        assert np.array([u.value(y) for y in row]).tobytes() == val_row.tobytes()
        wc = worst_case(u, ObjectiveImage(cand, sids, row))
        ref_val, ref_sid = ((float(val_row.max()), sids[int(np.argmax(val_row))]) if hull
                            else reference_worst_case(u, sids, row))
        assert (np.float64(wc.value).tobytes(), wc.scenario_id) == (np.float64(ref_val).tobytes(), ref_sid)


@pytest.mark.parametrize("mode", ["plain", "hull"])
def test_value_is_its_row_of_values_at_every_batch_size(mode):
    """A point's signed distance does not depend on the batch or chunk it comes in."""
    rng = np.random.default_rng(7)
    anchors = rng.normal(size=(4, 3)) * 10.0 ** rng.integers(-3, 4, size=3)
    u = SignedDistanceScalarizer(anchors, mode)
    ys = rng.normal(size=(6000, 3)) * 10.0 ** rng.integers(-3, 4, size=(6000, 1))
    full = u.values(ys)  # more than one chunk of points
    for size in (1, 2, 7, 300, 6000):
        assert u.values(ys[:size]).tobytes() == full[:size].tobytes()
    assert u.values(ys.reshape(60, 100, 3)).tobytes() == full.tobytes()
    assert np.array([u.value(y) for y in ys[:400]]).tobytes() == full[:400].tobytes()


@pytest.fixture(scope="module")
def default_phantom():
    return generate(PhantomConfig())


def test_values_match_the_reference_on_the_default_phantom(default_phantom):
    """The sweep's p-norms and the weighted sum that batched products get wrong, on every point."""
    tensor = default_phantom.image_tensor()
    scale = objective_scale(default_phantom)
    family = [WeightedPNorm(1.0 / scale if math.isinf(p) else scale ** -p, p, n=2)
              for p in (1.0, 1.5, 2.0, 3.0, 5.0, 10.0, math.inf)]
    for u in family + [WeightedSum([1 / 3, 2 / 3])]:
        want = np.array([[reference_value(u, y) for y in row] for row in tensor])
        assert u.values(tensor).tobytes() == want.tobytes(), u.name


class TestWorstCase:
    def test_problem1_origin(self, problem1):
        wc = worst_case(WeightedSum([0.5, 0.5]), problem1.image(0))
        assert abs(wc.value - 2.5) < 1e-12
        assert wc.scenario_id == "1"  # tie with s=3 broken by scenario order

    def test_problem1_endpoint(self, problem1):
        wc = worst_case(WeightedSum([0.5, 0.5]), problem1.image(1))
        assert abs(wc.value - 2.0) < 1e-12
        assert wc.scenario_id == "2"

    def test_ties_keep_the_first_scenario(self):
        # rows 1 and 2 tie for the max under every scalarizer below; row 0 is lower
        img = ObjectiveImage("x", ("a", "b", "c"), np.array([[0.0, 0.0], [3.0, 1.0], [1.0, 3.0]]))
        anchors = np.array([[2.0, 2.0]])
        for u in (WeightedSum([0.5, 0.5]), WeightedPNorm(1, 2.0, n=2), WeightedPNorm(1, np.inf, n=2),
                  Chebyshev([1, 1]), SignedDistanceScalarizer(anchors, "plain"),
                  SignedDistanceScalarizer(anchors, "hull")):
            assert worst_case(u, img).scenario_id == "b", u.name
        same = ObjectiveImage("x", ("a", "b"), np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert worst_case(Chebyshev([1, 1]), same) == (2.0, "a")

    def test_constructive_zero_at_anchor_candidate(self, problem1):
        u = constructive_scalarizer(problem1, 0, mode="plain")
        wc = worst_case(u, problem1.image(0))
        assert abs(wc.value) < 1e-9


class TestEpigraph:
    def test_fixed_candidate_min_lambda_equals_worst_case(self, problem1, rng):
        for u in catalog(2):
            ev = epigraph_form(problem1, u, candidate=0.35)
            assert isinstance(ev, EpigraphEvaluation)
            wc = worst_case(u, problem1.image(0.35))
            assert abs(ev.min_lambda - wc.value) < 1e-12
            assert max(v for _, v in ev.per_scenario) == pytest.approx(ev.min_lambda)

    def test_joint_lp_for_linear_scalarizer(self, problem1):
        u = WeightedSum([0.5, 0.5])
        ep = epigraph_form(problem1, u)
        assert isinstance(ep, EpigraphLp)
        assert ep.scenario_ids == ("1", "2", "3")
        res = lp_solve(ep.problem)
        assert res.status == "optimal"
        # per-scenario scalar values are affine in x; the two active pieces
        # cross at x = 0.6 with value 1.6
        assert abs(res.value - 1.6) < 1e-9
        np.testing.assert_allclose(res.x[: ep.dim], [0.6, 0.4], atol=1e-9)

    def test_joint_lp_matches_dense_sweep(self, problem1):
        u = WeightedSum([0.5, 0.5])
        res = lp_solve(epigraph_form(problem1, u).problem)
        grid_val, grid_x = sweep_minimum(problem1, u, step=0.001)
        assert abs(res.value - grid_val) < 0.01

    def test_nonlinear_scalarizer_gets_evaluation_form(self, problem1):
        u = WeightedPNorm(np.ones(2), 2.0)
        ev = epigraph_form(problem1, u, candidate=0)
        assert isinstance(ev, EpigraphEvaluation)


def _linear_fixture(F, poly_a, poly_b, coords):
    scen = ScenarioSet(
        ids=tuple(coords),
        coords=coords,
        polyhedral_form=(np.asarray(poly_a, dtype=float), np.asarray(poly_b, dtype=float)),
    )
    return Instance(
        n=2,
        scenarios=scen,
        objectives=LinearScenarioObjectives({"a": np.asarray(F, dtype=float)}),
        candidates=ExplicitCandidates(("a",)),
    )


class TestDual:
    def test_unit_box_upper_corner(self):
        F = [[1.0, 2.0], [3.0, 1.0]]
        inst = _linear_fixture(F, np.eye(2), [1.0, 1.0], {"1": [1.0, 0.0], "2": [0.0, 1.0]})
        w = np.array([0.25, 0.75])
        res = lp_solve(dual_reformulate(inst, w, "a"))
        assert res.status == "optimal"
        assert abs(res.value - w @ np.asarray(F) @ np.ones(2)) < 1e-9

    def test_degenerate_single_point(self):
        F = [[1.0, 2.0], [3.0, 1.0]]
        s0 = np.array([0.5, 0.25])
        a = np.vstack([np.eye(2), -np.eye(2)])
        b = np.concatenate([s0, -s0])
        inst = _linear_fixture(F, a, b, {"1": s0})
        w = np.array([0.25, 0.75])
        res = lp_solve(dual_reformulate(inst, w, "a"))
        assert abs(res.value - w @ np.asarray(F) @ s0) < 1e-9

    def test_matches_vertex_enumeration(self, rng):
        for _ in range(30):
            inst = random_linear_instance(rng)
            cand = inst.candidate_list()[0]
            w = rng.uniform(0.1, 1.0, size=2)
            res = lp_solve(dual_reformulate(inst, w, cand))
            assert res.status == "optimal"
            a, b = inst.scenarios.polyhedral_form
            F = inst.objectives.array[inst.objectives.candidate_pos[cand]]
            want = max_linear_over_polytope(F.T @ w, a, b)
            assert abs(res.value - want) < 1e-7

    def test_negative_weights_rejected(self):
        inst = _linear_fixture([[1.0, 0.0], [0.0, 1.0]], np.eye(2), [1, 1], {"1": [1.0, 0.0]})
        with pytest.raises(ValueError):
            dual_reformulate(inst, np.array([-1.0, 1.0]), "a")


class TestConstructive:
    def test_plain_lower_bounds_grid(self, problem1):
        u = constructive_scalarizer(problem1, 0, mode="plain")
        for cand in problem1.candidate_list():
            assert worst_case(u, problem1.image(cand)).value >= -1e-9

    def test_hull_goes_negative_at_dominating_candidate(self, problem1):
        u = constructive_scalarizer(problem1, 0, mode="hull")
        wc = worst_case(u, problem1.image(1))
        assert wc.value < -1e-9
        assert abs(wc.value - (-0.5)) < 1e-9

    def test_singleton_scenario_reduces_to_chebyshev_distance(self):
        inst = Instance(
            n=2,
            scenarios=ScenarioSet(ids=("1",)),
            objectives=TableObjectives({"a": {"1": [2.0, 5.0]}, "b": {"1": [4.0, 3.0]}}),
            candidates=ExplicitCandidates(("a", "b")),
        )
        for mode in ("plain", "hull"):
            u = constructive_scalarizer(inst, "a", mode=mode)
            y = np.array([4.0, 3.0])
            want = (y - np.array([2.0, 5.0])).max()
            assert abs(u.value(y) - want) < 1e-9

    def test_anchors_checked_at_construction(self):
        for anchors, msg in (([[np.nan, 1.0]], "finite"), ([[np.inf, 1.0]], "finite"),
                             (np.empty((0, 2)), "empty"), ([1.0, 2.0], "2-D")):
            for mode in ("plain", "hull"):
                with pytest.raises(ValueError, match=msg):
                    SignedDistanceScalarizer(anchors, mode)
        with pytest.raises(ValueError, match="length 2"):
            SignedDistanceScalarizer([[1.0, 2.0]]).values(np.zeros((4, 3)))

    def test_metadata(self, problem1):
        u = constructive_scalarizer(problem1, 0, mode="hull")
        assert isinstance(u, SignedDistanceScalarizer)
        assert u.monotonicity == "strictly_increasing"
        assert u.convex  # hull mode only
        up = constructive_scalarizer(problem1, 0, mode="plain")
        assert not up.convex


class TestCatalog:
    def test_expected_members_for_two_objectives(self):
        entries = catalog(2)
        names = [u.name for u in entries]
        assert "wsum:w=0.5,0.5" in names
        assert "pnorm:p=inf,w=1,1,ref=0,0" in names
        assert "chebyshev:w=1,1,ref=0,0" in names
        finite_pnorms = [u for u in entries if u.name.startswith("pnorm:p=1") or u.name.startswith("pnorm:p=2")]
        assert all(u.monotonicity == "strongly_increasing" for u in finite_pnorms)
        assert all(u.convex for u in entries)

    def test_monotone_at_least_ordering(self):
        assert monotone_at_least(WeightedSum([0.5, 0.5]), "increasing")
        assert monotone_at_least(WeightedSum([0.5, 0.5]), "strongly_increasing")
        lead = WeightedSum([1.0, 0.0])
        assert monotone_at_least(lead, "strictly_increasing")
        assert not monotone_at_least(lead, "strongly_increasing")


class TestDominanceInequalities:
    """Worst-case values respect image dominance for monotone scalarizers."""

    def _check(self, inst, mode):
        cands = inst.candidate_list()
        images = {c: inst.image(c) for c in cands}
        needs_convex = mode == "hull"
        members = catalog(inst.n)
        for i, a in enumerate(cands):
            for b in cands:
                if a is b:
                    continue
                if image_dominates(images[a], images[b], mode=mode) is None:
                    continue
                for u in members:
                    if needs_convex and not u.convex:
                        continue
                    if not monotone_at_least(u, "increasing"):
                        continue
                    va = worst_case(u, images[a]).value
                    vb = worst_case(u, images[b]).value
                    assert va <= vb + 1e-9
                    if monotone_at_least(u, "strongly_increasing"):
                        assert vb - va > 1e-12

    def test_plain_mode(self, rng):
        for _ in range(25):
            self._check(random_instance(rng), "plain")

    def test_hull_mode(self, rng):
        for _ in range(25):
            self._check(random_instance(rng), "hull")


class TestSeparations:
    def test_every_pnorm_prefers_endpoint_on_problem1(self, problem1, rng):
        img0, img1 = problem1.image(0), problem1.image(1)
        for p in (1.0, 2.0, 10.0):
            for _ in range(5):
                w = rng.uniform(0.1, 2.0, size=2)
                u = WeightedPNorm(w, p)
                assert worst_case(u, img1).value < worst_case(u, img0).value - 1e-9

    def test_problem2_weighted_sum_formula(self, problem2):
        # worst case at (0,1) follows max{3w1 + 2.5w2, 3w1, 6w1}; (0,0) gives 4
        corner = problem2.image((0, 1))
        origin = problem2.image((0, 0))
        for w1 in (0.0, 0.1, 0.25, 0.4, 0.5):
            w = np.array([w1, 1.0 - w1])
            vals = corner.values @ w
            formula = max(3 * w1 + 2.5 * (1 - w1), 3 * w1, 6 * w1)
            assert abs(vals.max() - formula) < 1e-12
            assert vals.max() <= 3.0 + 1e-12
            assert abs((origin.values @ w).max() - 4.0) < 1e-12
