"""Candidate classification across the four efficiency notions."""
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from robpareto.core import (
    AffineFamilyObjectives,
    ExplicitCandidates,
    Instance,
    ObjectiveImage,
    ScenarioSet,
    SimplexCandidates,
    TableObjectives,
    builtin_instance,
)
from robpareto.cli import classification_csv
from robpareto import efficiency, geometry
from robpareto.efficiency import LABELS, _BlockScan, classify, pareto_filter_max, set_valued_minimizers
from robpareto.geometry import DominanceWitness, decide_pairs, image_dominates, settle
from robpareto.linprog import SolverStalledError
from robpareto.phantom import PhantomConfig, generate
from robpareto.testing import harness, random_hyperrectangle_values, random_instance

from oracles import pareto_max_filter, pareto_min_filter, reference_classify


def test_problem1_all_candidates_robust(problem1):
    report = classify(problem1)
    assert all(r.robust_efficient for r in report.results)


def test_problem1_origin_not_hull_efficient(problem1):
    res = classify(problem1).result_for(0)
    assert res.robust_efficient
    assert not res.convex_hull_efficient
    dom = res.dominators["convex_hull"]
    assert dom.label == "1"
    img0 = problem1.image(0)
    dominator_img = problem1.image(1)
    for sid, w in dom.witnesses.items():
        assert w.verify(dominator_img.point(sid))


def test_problem1_endpoint_hull_efficient(problem1):
    assert classify(problem1).result_for(1).convex_hull_efficient


def test_problem1_objectivewise_unique_winner(problem1):
    # the sup corner (4-2x, 4-2x) shrinks with x, so only x=1 survives
    report = classify(problem1)
    winners = [r.label for r in report.results if r.objectivewise_efficient]
    assert winners == ["1"]


def test_problem2_three_point_classification(problem2):
    inst = Instance(
        n=2,
        scenarios=problem2.scenarios,
        objectives=problem2.objectives,
        candidates=SimplexCandidates(dim=3, points=((0, 0, 1), (1, 0, 0), (0, 1, 0))),
    )
    res = classify(inst).result_for((0, 0))
    assert res.convex_hull_efficient


def test_problem2_grid_origin_hull_efficient(problem2):
    assert classify(problem2).result_for((0, 0)).convex_hull_efficient


def test_report_accessors(problem1):
    report = classify(problem1)
    assert len(report.efficient("robust")) == 21
    with pytest.raises(KeyError):
        report.result_for(0.333)
    res = report.result_for(0.5)
    assert res.label == "0.5"
    assert res.flag("robust") is res.robust_efficient


def test_pareto_filter_max_examples():
    img = [[1.0, 4.0], [1.0, 1.0], [4.0, 1.0]]
    assert pareto_filter_max(img).tolist() == [True, False, True]
    assert pareto_filter_max([[2.0, 7.0]]).tolist() == [True]
    img2 = [[0.0, 2.0], [2.0, 2.0], [2.0, 0.0]]
    assert pareto_filter_max(img2).tolist() == [False, True, False]
    # a stack filters each image on its own
    assert pareto_filter_max([img, img2]).tolist() == [[True, False, True], [False, True, False]]
    assert pareto_filter_max(np.zeros((2, 3, 4, 1))).shape == (2, 3, 4)


@pytest.mark.parametrize("values, message", [
    ([1.0, 2.0], r"^values must have shape \(\.\.\., S, n\), got shape \(2,\)$"),
    ([[1.0, np.nan]], "^values must be finite$"),
    ([[[1.0, np.inf]]], "^values must be finite$"),
])
def test_pareto_filter_max_rejects_bad_values(values, message):
    with pytest.raises(ValueError, match=message):
        pareto_filter_max(values)


@pytest.mark.parametrize("name", ["eq_tol", "strict_tol"])
def test_pareto_filter_max_rejects_bad_tolerances(name):
    with pytest.raises(ValueError, match=f"^{name} must be finite and nonnegative, got -1.0$"):
        pareto_filter_max([[1.0, 2.0]], **{name: -1.0})


@pytest.mark.parametrize("chunk", [1, 20, 100])
def test_pareto_filter_max_chunks_agree(monkeypatch, chunk):
    # 150 images of 3 points (9 pairs each): chunks of 1, 2 and 11 images
    vals = _near_tie_table(150, seed=0, hull=False).image_tensor()
    whole = pareto_filter_max(vals)
    monkeypatch.setattr(efficiency, "_CHUNK", chunk)
    assert np.array_equal(pareto_filter_max(vals), whole)
    assert [pareto_max_filter(v) for v in vals] == [np.flatnonzero(k).tolist() for k in whole]


def test_single_candidate_vacuously_efficient():
    inst = Instance(
        n=2,
        scenarios=ScenarioSet(ids=("1",)),
        objectives=TableObjectives({"only": {"1": [5.0, 5.0]}}),
        candidates=ExplicitCandidates(("only",)),
    )
    res = classify(inst).result_for("only")
    assert res.robust_efficient and res.convex_hull_efficient
    assert res.objectivewise_efficient and res.set_valued_minimizer
    assert res.dominators == {}


def test_false_labels_carry_verifying_dominators(rng):
    for _ in range(25):
        inst = random_instance(rng)
        report = classify(inst)
        for res in report.results:
            for kind in ("robust", "convex_hull"):
                if not res.flag(kind):
                    dom = res.dominators[kind]
                    dom_img = inst.image(dom.candidate)
                    assert dom.witnesses
                    for sid, w in dom.witnesses.items():
                        assert w.verify(dom_img.point(sid))


def test_hull_efficient_nested_in_robust(rng):
    for _ in range(40):
        report = classify(random_instance(rng))
        for res in report.results:
            if res.convex_hull_efficient:
                assert res.robust_efficient


def test_set_valued_equals_robust_on_problem1(problem1):
    report = classify(problem1)
    sv = {r.label for r in report.results if r.set_valued_minimizer}
    robust = {r.label for r in report.results if r.robust_efficient}
    assert sv == robust
    # the standalone operation agrees with the report flags
    standalone = {report.result_for(c).label for c in set_valued_minimizers(problem1)}
    assert standalone == sv


def test_singleton_scenario_reduces_to_vector_pareto(rng):
    for _ in range(20):
        inst = random_instance(rng, max_scenarios=1)
        cands = inst.candidate_list()
        points = np.array([inst.image(c).values[0] for c in cands])
        expected = {i for i in pareto_min_filter(points)}
        mins = set_valued_minimizers(inst)
        got = {cands.index(c) for c in mins}
        assert got == expected
        # plain and hull labels coincide when each image is one point
        for res in classify(inst).results:
            assert res.robust_efficient == res.convex_hull_efficient


def test_shared_image_makes_everyone_minimal():
    inst = Instance(
        n=2,
        scenarios=ScenarioSet(ids=("1", "2")),
        objectives=TableObjectives(
            {
                "a": {"1": [1.0, 3.0], "2": [3.0, 1.0]},
                "b": {"1": [3.0, 1.0], "2": [1.0, 3.0]},
                "c": {"1": [1.0, 3.0], "2": [3.0, 1.0]},
            }
        ),
        candidates=ExplicitCandidates(("a", "b", "c")),
    )
    assert set(set_valued_minimizers(inst)) == {"a", "b", "c"}
    report = classify(inst)
    assert all(r.set_valued_minimizer for r in report.results)


def _box_instance(rng, candidates=4):
    boxes = [random_hyperrectangle_values(rng, 2) for _ in range(candidates)]
    depth = max(b.shape[0] for b in boxes)
    sids = tuple(str(i) for i in range(depth))
    values = {}
    for ci, box in enumerate(boxes):
        pad = np.vstack([box, np.repeat(box[:1], depth - box.shape[0], axis=0)])
        values[f"c{ci}"] = {sid: pad[k] for k, sid in enumerate(sids)}
    return Instance(
        n=2,
        scenarios=ScenarioSet(ids=sids),
        objectives=TableObjectives(values),
        candidates=ExplicitCandidates(tuple(values)),
    )


def test_box_images_reduce_to_corner_pareto(rng):
    # with product-structured images, robust efficiency is decided by the
    # componentwise-max corners alone
    for _ in range(40):
        inst = _box_instance(rng)
        cands = inst.candidate_list()
        corners = np.array([inst.image(c).values.max(axis=0) for c in cands])
        expected = set(pareto_min_filter(corners))
        report = classify(inst)
        got = {i for i, c in enumerate(cands) if report.result_for(c).robust_efficient}
        assert got == expected


def test_single_objective_plain_equals_hull(rng):
    for _ in range(20):
        inst = random_instance(rng, max_n=1)
        for res in classify(inst).results:
            assert res.robust_efficient == res.convex_hull_efficient


def _collinear_instance(rng):
    v0 = rng.integers(0, 10, size=(2, 2)).astype(float)
    v1 = rng.integers(0, 10, size=(2, 2)).astype(float)
    ts = (0.0, 0.25, 0.5, 0.75, 1.0)
    fam = {f"t{t:g}": (1 - t) * v0 + t * v1 for t in ts}
    return Instance(
        n=2,
        scenarios=ScenarioSet(ids=tuple(fam)),
        objectives=AffineFamilyObjectives(fam),
        candidates=SimplexCandidates(dim=2, step=0.25),
    )


def test_collinear_images_plain_equals_hull(rng):
    # a dense segment of scenarios: conv adds nothing beyond the endpoints
    for _ in range(20):
        inst = _collinear_instance(rng)
        for res in classify(inst).results:
            assert res.robust_efficient == res.convex_hull_efficient


# perturbations at the eq_tol / strict_tol scale put ties on both sides of
# every tolerance comparison
_NEAR_TIE = st.sampled_from([0.0, 0.0, -1.5e-9, -1e-9, -0.5e-9, 0.5e-9, 1e-9, 1.5e-9])


@st.composite
def _table_instances(draw):
    n = draw(st.integers(1, 3))
    sids = tuple(f"s{k}" for k in range(draw(st.integers(1, 3))))
    count = draw(st.integers(1, 7))
    perturb = draw(st.booleans())

    def vector():
        base = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        return [b + (draw(_NEAR_TIE) if perturb else 0.0) for b in base]

    values = {f"c{i}": {sid: vector() for sid in sids} for i in range(count)}
    return Instance(
        n=n,
        scenarios=ScenarioSet(ids=sids),
        objectives=TableObjectives(values),
        candidates=ExplicitCandidates(tuple(values)),
        scenario_hull=draw(st.booleans()),
    )


@st.composite
def _lattice_instances(draw):
    n = draw(st.integers(1, 3))
    dim = draw(st.integers(2, 3))
    sids = tuple(f"s{k}" for k in range(draw(st.integers(1, 3))))
    family = {
        sid: np.array(draw(st.lists(st.integers(0, 4), min_size=n * dim, max_size=n * dim)),
                      dtype=float).reshape(n, dim)
        for sid in sids
    }
    return Instance(
        n=n,
        scenarios=ScenarioSet(ids=sids),
        objectives=AffineFamilyObjectives(family),
        candidates=SimplexCandidates(dim=dim, step=draw(st.sampled_from([0.5, 0.25]))),
        scenario_hull=draw(st.booleans()),
    )


@st.composite
def _near_tie_images(draw):
    n = draw(st.integers(1, 3))
    count = draw(st.integers(1, 3))
    # at 1e6 to 1e8 one unit in the last place is about eq_tol
    scale = 10.0 ** draw(st.integers(0, 8))

    def image():
        return [[draw(st.integers(-3, 3)) * scale + draw(_NEAR_TIE) for _ in range(n)] for _ in range(count)]

    return [image() for _ in range(draw(st.integers(2, 5)))]


@settings(max_examples=300, deadline=None)
@given(values=_near_tie_images())
# z + eq_tol rounds up by one ulp (1.86e-9) here, so the first image
# dominates the second with a point sum 3.7e-9 above its sum plus n * eq_tol
@example(values=[[[8458770.000000002, 11715904.000000004, 10527679.0]],
                 [[8458770.0, 11715904.000000002, 10527679.000000002]]])
def test_block_masks_keep_every_dominator(values):
    # the masks are necessary conditions: no pair image_dominates accepts is pruned
    sids = tuple(f"s{k}" for k in range(len(values[0])))
    images = [ObjectiveImage(f"c{i}", sids, v) for i, v in enumerate(values)]
    order = np.arange(len(images))[::-1]
    scan = _BlockScan(np.array(values, dtype=float), [sids] * len(images), order, 1e-9, 1e-9)
    for js, box, alive in scan.blocks():
        for b, j in enumerate(js):
            for k, i in enumerate(order):
                for mode in ("plain", "hull"):
                    try:
                        dominates = image_dominates(images[i], images[j], mode) is not None
                    except SolverStalledError:
                        continue
                    assert not dominates or (box[b, k] and alive[b, k]), (i, j, mode)


def _assert_matches_reference(inst):
    cands = inst.candidate_list()
    try:
        expected = reference_classify(inst)
    except SolverStalledError:
        # the LP kernel stalls on some near-tie data; classify solves a
        # subset of the reference's LPs, so it may or may not stall there
        reject()
    report = classify(inst)
    assert len(report.results) == len(expected)
    for res, (flags, doms) in zip(report.results, expected):
        got_flags = tuple(res.flag(k) for k in ("robust", "convex_hull", "objectivewise", "set_valued"))
        assert got_flags == flags, res.label
        assert set(res.dominators) == set(doms), res.label
        for kind, (i, witnesses) in doms.items():
            dom = res.dominators[kind]
            assert dom.candidate == cands[i], (res.label, kind)
            assert list(dom.witnesses) == list(witnesses)
            for sid, ref in witnesses.items():
                w = dom.witnesses[sid]
                assert (w.kind, w.gap, w.anchor_id, w.weights) == (ref.kind, ref.gap, ref.anchor_id, ref.weights)
                assert w.point.tobytes() == np.asarray(ref.point).tobytes()


@settings(max_examples=200, deadline=None)
@given(inst=_table_instances())
def test_classify_matches_reference_on_tables(inst):
    _assert_matches_reference(inst)


@settings(max_examples=60, deadline=None)
@given(inst=_lattice_instances())
def test_classify_matches_reference_on_lattices(inst):
    _assert_matches_reference(inst)


def _filtered(img):
    keep = pareto_filter_max(img.values)
    return ObjectiveImage(img.candidate, [s for s, k in zip(img.scenario_ids, keep) if k], img.values[keep])


def _assert_lazy_witnesses_match_image_dominates(inst):
    # each witness built on read equals image_dominates' on the images the
    # notion compares: the images, their Pareto filters or the sup corner
    cands = inst.candidate_list()
    images = [ObjectiveImage(c, inst.scenarios.ids, v) for c, v in zip(cands, inst.image_tensor())]
    position = {c: j for j, c in enumerate(cands)}
    base = "hull" if inst.scenario_hull else "plain"
    try:
        results = classify(inst).results
    except SolverStalledError:
        reject()
    for res, b in zip(results, images):
        for kind, dom in res.dominators.items():
            a = images[position[dom.candidate]]
            mode = "hull" if kind == "convex_hull" else base
            if kind == "objectivewise":
                mode, b_kind = "plain", ObjectiveImage(b.candidate, ("sup-corner",), b.values.max(axis=0)[None])
            elif kind == "set_valued":
                a, b_kind = _filtered(a), _filtered(b)
            else:
                b_kind = b
            want = image_dominates(a, b_kind, mode)
            assert want is not None, (res.label, kind)
            assert list(dom.witnesses) == list(want)
            for sid, w in want.items():
                g = dom.witnesses[sid]
                assert (g.kind, g.anchor_id, repr(g.gap), g.weights) == (w.kind, w.anchor_id, repr(w.gap), w.weights)
                assert g.point.tobytes() == w.point.tobytes()


def test_lazy_witnesses_match_on_a_phantom():
    _assert_lazy_witnesses_match_image_dominates(generate(PhantomConfig(lattice_resolution=3)))


def test_lazy_witnesses_match_on_problem2_as_a_hull():
    p2 = builtin_instance("problem-2")
    _assert_lazy_witnesses_match_image_dominates(Instance(
        n=p2.n, scenarios=p2.scenarios, objectives=p2.objectives, candidates=p2.candidates, scenario_hull=True))


@settings(max_examples=200, deadline=None)
@given(inst=_table_instances())
def test_lazy_witnesses_match_on_tables(inst):
    _assert_lazy_witnesses_match_image_dominates(inst)


def test_csv_and_counts_build_no_witness(monkeypatch):
    report = classify(_near_tie_table(150, seed=0, hull=False))
    built = []
    init = DominanceWitness.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DominanceWitness, "__init__", counted)
    classification_csv(report)
    for kind in LABELS:
        report.efficient(kind)
    assert built == []
    for res in report.results:
        for dom in res.dominators.values():
            assert dom.witnesses
    assert built  # the counter sees the witnesses built on read


def test_efficient_rejects_an_unknown_notion(problem1):
    with pytest.raises(ValueError) as exc:
        classify(problem1).efficient("foo")
    assert str(exc.value) == f"unknown efficiency notion 'foo', expected one of {LABELS}"


def test_near_tie_plain_dominance_implies_hull_dominance():
    # the plain test accepts the eq_tol slack where the exact hull path does not
    inst = Instance(
        n=2,
        scenarios=ScenarioSet(ids=("1",)),
        objectives=TableObjectives({"A": {"1": [0.0, 0.0]}, "B": {"1": [-0.5e-9, 1.5e-9]}}),
        candidates=ExplicitCandidates(("A", "B")),
    )
    res = classify(inst).result_for("B")
    assert not res.robust_efficient and not res.convex_hull_efficient
    w = res.dominators["convex_hull"].witnesses["1"]
    assert res.dominators["convex_hull"].candidate == "A"
    assert (w.kind, w.anchor_id, w.weights) == ("point", "1", {"1": 1.0})


# each point clears the other by the rounded gap 1.000000001 - 1 = 1.00000008e-9
_CYCLIC_PAIR = [[1.000000001, 1.0], [1.0, 1.000000001]]


def test_pareto_filter_keeps_the_whole_image_when_every_point_sits_below_another():
    for vals in (_CYCLIC_PAIR, _CYCLIC_PAIR + [[0.0, 0.0]]):
        assert pareto_filter_max(vals).all()
        assert pareto_max_filter(vals) == list(range(len(vals)))
    # kept whole inside a stack too, next to an image that drops a point
    assert pareto_filter_max([_CYCLIC_PAIR + [[0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0], [1.0, 0.0]]]).tolist() == [
        [True, True, True], [False, True, False]]


def test_pareto_filter_drops_the_cycle_below_a_survivor():
    vals = [[2.0, 2.0]] + _CYCLIC_PAIR
    assert pareto_filter_max(vals).tolist() == [True, False, False]
    assert pareto_max_filter(vals) == [0]


@st.composite
def _near_tie_stacks(draw):
    """(images, points, n) stacks of near-tie points."""
    n = draw(st.integers(1, 3))
    count = draw(st.integers(1, 5))
    return [[[draw(st.integers(0, 1)) + draw(_NEAR_TIE) for _ in range(n)] for _ in range(count)]
            for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=300, deadline=None)
@given(stack=_near_tie_stacks())
def test_pareto_filter_is_never_empty_and_matches_oracle(stack):
    keep = pareto_filter_max(stack)
    assert keep.any(axis=1).all()
    assert [np.flatnonzero(k).tolist() for k in keep] == [pareto_max_filter(points) for points in stack]


def test_classify_filters_once_and_builds_no_image(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    inst = _near_tie_table(150, seed=0, hull=True)
    monkeypatch.setattr(efficiency, "pareto_filter_max", counted("filter", pareto_filter_max))
    monkeypatch.setattr(geometry, "image_dominates", counted("pairs", image_dominates))
    monkeypatch.setattr(ObjectiveImage, "__post_init__", counted("images", ObjectiveImage.__post_init__))
    monkeypatch.setattr(efficiency, "settle", counted("settle", settle))
    classify(inst)
    assert not hasattr(efficiency, "image_dominates")
    assert calls["filter"] == 1
    assert calls["settle"] > 0  # the table has pairs that only the LP settles
    assert calls["pairs"] == 0
    assert calls["images"] == 0


def test_late_round_finds_the_first_dominator_after_kernel_and_settle_misses():
    # classify decides one surviving pair per open row and round; recount the
    # rounds of each row pair by pair and pick the rows whose first dominator
    # comes late, after the kernel missed a pair and settle missed another
    inst = _near_tie_table(150, seed=0, hull=True)
    cands = inst.candidate_list()
    vals = inst.image_tensor()
    sids = inst.scenarios.ids
    order = efficiency._search_order(cands)
    scan = _BlockScan(vals, [sids] * len(cands), order, 1e-9, 1e-9)
    late = {}
    for js, _, alive in scan.blocks():
        for b, j in enumerate(js.tolist()):
            misses = []
            for i in order[alive[b]].tolist():
                found = decide_pairs(vals[i][None], vals[j][None], "hull")
                if not found.kept[0]:
                    misses.append("kernel")
                elif settle(vals[i], vals[j], list(sids), found, 0, "hull") is None:
                    misses.append("settle")
                else:
                    if len(misses) >= 3 and {"kernel", "settle"} <= set(misses):
                        late[j] = i
                    break
    assert late
    dominators = classify(inst).dominator_index("robust")
    expected = reference_classify(inst)
    for j, i in late.items():
        assert dominators[j] == expected[j][1]["robust"][0] == i
    _assert_lazy_witnesses_match_image_dominates(inst)


def test_cyclic_near_tie_image_classifies():
    inst = Instance(
        n=2,
        scenarios=ScenarioSet(ids=("a", "b")),
        objectives=TableObjectives({"x": dict(zip(("a", "b"), _CYCLIC_PAIR)),
                                    "y": {"a": [2.0, 2.0], "b": [2.0, 2.0]}}),
        candidates=ExplicitCandidates(("x", "y")),
    )
    report = classify(inst)
    assert [r.flag("set_valued") for r in report.results] == [True, False]
    assert report.result_for("y").dominators["set_valued"].candidate == "x"
    assert set_valued_minimizers(inst) == ["x"]
    _assert_matches_reference(inst)


def _near_tie_table(count, seed, hull):
    """count candidates with 3 scenarios and 3 objectives: integers 0..3, a
    tenth of the entries nudged by a near tie."""
    rng = np.random.default_rng(seed)
    shape = (count, 3, 3)
    nudge = np.array([0.0, -1.5e-9, -1e-9, -0.5e-9, 0.5e-9, 1e-9, 1.5e-9])
    vals = rng.integers(0, 4, size=shape) + rng.choice(nudge, size=shape) * (rng.random(shape) < 0.1)
    sids = ("s0", "s1", "s2")
    table = {f"c{i}": dict(zip(sids, v)) for i, v in enumerate(vals)}
    return Instance(
        n=3,
        scenarios=ScenarioSet(ids=sids),
        objectives=TableObjectives(table),
        candidates=ExplicitCandidates(tuple(table)),
        scenario_hull=hull,
    )


@pytest.mark.parametrize("hull", [False, True])
def test_classify_matches_reference_across_blocks(hull):
    # the hypothesis instances stay inside one block of 64; this one spans three,
    # with first survivors that miss, stay open for the LP and hit
    inst = _near_tie_table(150, seed=0, hull=hull)
    assert len(inst.candidate_list()) > 2 * 64
    _assert_matches_reference(inst)


_BAD_TOLERANCES = [float("nan"), float("inf"), float("-inf"), -1.0, -1e-300]


@pytest.mark.parametrize("bad", _BAD_TOLERANCES)
@pytest.mark.parametrize("name", ["eq_tol", "strict_tol"])
@pytest.mark.parametrize("entry", [classify, set_valued_minimizers, harness])
def test_bad_tolerances_rejected(problem1, entry, name, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
        entry(problem1, **{name: bad})


def test_zero_tolerances_accepted(problem1):
    report = classify(problem1, eq_tol=0.0, strict_tol=0.0)
    assert len(report.results) == 21
    assert set_valued_minimizers(problem1, eq_tol=0.0, strict_tol=0.0)
