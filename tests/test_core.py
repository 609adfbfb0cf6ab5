"""Instance model: evaluation, candidate spaces, serialization."""
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robpareto.core import (
    AffineFamilyObjectives,
    ExplicitCandidates,
    Instance,
    LinearScenarioObjectives,
    ScenarioSet,
    SimplexCandidates,
    TableObjectives,
    builtin_instance,
    candidate_label,
    compositions,
    instance_from_dict,
    instance_json,
    instance_to_dict,
    load_instance,
    objective_scale,
    save_instance,
    simplex_point,
    with_step,
)
from robpareto.distro import ExpectationConstraint, ambiguity_to_dict, to_robust
from robpareto.phantom import PhantomConfig, generate
from robpareto.testing import random_ambiguity, random_instance, random_linear_instance

from oracles import recursive_compositions, reference_image
from strategies import instances


def test_problem1_endpoint_images(problem1):
    img0 = problem1.image(0)
    assert img0.scenario_ids == ("1", "2", "3")
    np.testing.assert_allclose(img0.values, [[1, 4], [1, 1], [4, 1]])
    img1 = problem1.image(1)
    np.testing.assert_allclose(img1.values, [[0, 2], [2, 2], [2, 0]])


def test_image_point_accessors(problem1):
    img = problem1.image(0)
    np.testing.assert_allclose(img.point("2"), [1, 1])
    np.testing.assert_allclose(problem1.image(1).point("3"), [2, 0])
    pts = dict(img.points())
    assert set(pts) == {"1", "2", "3"}
    np.testing.assert_allclose(pts["1"], [1, 4])


def test_problem2_corner_image(problem2):
    img = problem2.image((0, 0))
    np.testing.assert_allclose(img.values, [[2, 4], [4, 4], [4, 2]])


def test_affine_image_linear_in_candidate(problem1, rng):
    # f(.; s) is affine on the simplex, so images mix exactly
    for _ in range(25):
        a, b = rng.uniform(0, 1, size=2)
        t = rng.uniform()
        mixed = problem1.image(t * a + (1 - t) * b).values
        parts = t * problem1.image(a).values + (1 - t) * problem1.image(b).values
        np.testing.assert_allclose(mixed, parts, atol=1e-12)


def test_simplex_point_input_forms():
    assert simplex_point(0.3, 2) == (0.3, 0.7)
    np.testing.assert_allclose(simplex_point([0.2, 0.5], 3), (0.2, 0.5, 0.3), atol=1e-15)
    assert simplex_point([0.2, 0.5, 0.3], 3) == (0.2, 0.5, 0.3)
    # tiny negative free coordinates clip to zero
    assert simplex_point(1.0 + 1e-14, 2)[1] == 0.0
    with pytest.raises(ValueError):
        simplex_point(1.5, 2)
    with pytest.raises(ValueError):
        simplex_point([0.5, 0.6, 0.2], 3)
    with pytest.raises(ValueError):
        simplex_point([0.5], 3)


def test_candidate_labels():
    assert candidate_label("arm-a") == "arm-a"
    assert candidate_label((0.35, 0.65)) == "0.35"
    assert candidate_label((0.2, 0.3, 0.5)) == "(0.2, 0.3)"
    assert candidate_label((1.0,)) == "1"


def test_simplex_lattice_enumeration(problem1):
    cands = problem1.candidate_list()
    assert len(cands) == 21
    labels = [candidate_label(c) for c in cands]
    assert "0" in labels and "1" in labels and "0.5" in labels
    fine = with_step(problem1, 0.01)
    assert len(fine.candidate_list()) == 101


@pytest.mark.parametrize("parts", range(1, 7))
def test_compositions_match_the_recursive_reference(parts):
    for total in range(10):
        got = compositions(total, parts)
        assert got.dtype.kind == "i" and got.shape[1] == parts
        assert list(map(tuple, got.tolist())) == list(recursive_compositions(total, parts))


def test_simplex_lattice_size_guard():
    with pytest.raises(ValueError, match="lattice too large"):
        SimplexCandidates(dim=6, step=1e-4)


def test_validation_errors():
    with pytest.raises(ValueError):
        ScenarioSet(ids=())
    with pytest.raises(ValueError):
        ScenarioSet(ids=("a", "a"))
    with pytest.raises(ValueError):
        ExplicitCandidates(())
    with pytest.raises(ValueError):
        TableObjectives({})
    with pytest.raises(ValueError, match="negative"):
        simplex_point([-0.2, 1.2], 2)
    scen = ScenarioSet(ids=("1",))
    table = TableObjectives({"a": {"1": [1.0, 2.0]}})
    # simplex candidates demand an affine family map and vice versa
    with pytest.raises(ValueError):
        Instance(n=2, scenarios=scen, objectives=table, candidates=SimplexCandidates(dim=2))
    fam = AffineFamilyObjectives({"1": [[0, 1], [2, 4]]})
    with pytest.raises(ValueError):
        Instance(n=2, scenarios=scen, objectives=fam, candidates=ExplicitCandidates(("a",)))
    with pytest.raises(ValueError):
        Instance(n=3, scenarios=scen, objectives=table, candidates=ExplicitCandidates(("a",)))


def test_scenario_coords_validation():
    with pytest.raises(ValueError, match="missing from coords"):
        ScenarioSet(ids=("1", "2"), coords={"1": [0.0, 1.0]})
    with pytest.raises(ValueError, match="share one dimension"):
        ScenarioSet(ids=("1", "2"), coords={"1": [0.0, 1.0], "2": [1.0]})
    with pytest.raises(ValueError, match="rows and b length"):
        ScenarioSet(ids=("1",), coords={"1": [1.0, 0.0]}, polyhedral_form=([[1.0, 1.0]], [1.0, 2.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scenario_geometry_must_be_finite(bad):
    with pytest.raises(ValueError, match="^scenario coords has non-finite entries$"):
        ScenarioSet(ids=("1", "2"), coords={"1": [bad], "2": [0.0]})
    with pytest.raises(ValueError, match="^polyhedral b has non-finite entries$"):
        ScenarioSet(ids=("1",), coords={"1": [1.0]}, polyhedral_form=([[1.0]], [bad]))
    with pytest.raises(ValueError, match="^polyhedral A has non-finite entries$"):
        ScenarioSet(ids=("1",), polyhedral_form=([[bad]], [1.0]))


def test_explicit_candidates_reject_a_string():
    with pytest.raises(ValueError, match="not the string 'ab'"):
        ExplicitCandidates("ab")
    assert ExplicitCandidates(["ab"]).ids == ("ab",)


_SHAPE = "entries must be numbers that share one dimension on each axis"


@pytest.mark.parametrize("make, data, message", [
    (TableObjectives, [], "^objective table must be a non-empty object$"),
    (TableObjectives, {}, "^objective table must be a non-empty object$"),
    (TableObjectives, {"a": [1.0, 2.0]}, "^objective table rows must be objects naming the same scenario ids$"),
    (TableObjectives, {"a": {"1": [1.0]}, "b": [1.0]}, "rows must be objects naming the same"),
    (TableObjectives, {"a": {"1": [1.0], "2": [1.0]}, "b": {"1": [1.0]}}, "rows must be objects naming the same"),
    (TableObjectives, {"a": {"1": [1.0]}, "b": {"2": [1.0]}}, "rows must be objects naming the same"),
    (TableObjectives, {"a": {"1": [1.0]}, "b": {"1": [1.0, 2.0]}}, "^objective table " + _SHAPE),
    (TableObjectives, {"a": {"1": [1.0], "2": "ab"}}, "^objective table " + _SHAPE),
    (TableObjectives, {"a": {"1": 1.0}}, r"^objective table has shape \(1, 1\), expected 3 axes$"),
    (TableObjectives, {"a": {"1": [1.0, np.nan]}}, "^objective table has non-finite entries$"),
    (AffineFamilyObjectives, [[[0.0, 1.0]]], "^affine family must be a non-empty object$"),
    (AffineFamilyObjectives, {"1": [[0.0, 1.0]], "2": [[0.0, 1.0, 2.0]]}, "^affine family " + _SHAPE),
    (AffineFamilyObjectives, {"1": [0.0, 1.0]}, r"^affine family has shape \(1, 2\), expected 3 axes$"),
    (AffineFamilyObjectives, {"1": [[0.0, np.inf]]}, "^affine family has non-finite entries$"),
    (LinearScenarioObjectives, {}, "^linear-in-s map must be a non-empty object$"),
    (LinearScenarioObjectives, {"a": [["x"]]}, "^linear-in-s map " + _SHAPE),
    (LinearScenarioObjectives, {"a": [[1.0]], "b": [[1.0], [2.0]]}, "^linear-in-s map " + _SHAPE),
    (LinearScenarioObjectives, {"a": [[-np.inf]]}, "^linear-in-s map has non-finite entries$"),
])
def test_objective_map_validation(make, data, message):
    with pytest.raises(ValueError, match=message):
        make(data)


def test_objective_maps_store_one_stacked_array():
    # rows may list their scenarios in any order; the array follows the first row
    table = TableObjectives({"a": {"2": [1.0, 2.0], "1": [3.0, 4.0]}, "b": {"1": [5.0, 6.0], "2": [7.0, 8.0]}})
    assert (table.candidate_ids, table.scenario_ids) == (("a", "b"), ("2", "1"))
    assert (table.candidate_pos, table.scenario_pos) == ({"a": 0, "b": 1}, {"2": 0, "1": 1})
    np.testing.assert_array_equal(table.array, [[[1, 2], [3, 4]], [[7, 8], [5, 6]]])
    inst = Instance(n=2, scenarios=ScenarioSet(ids=("1", "2")), objectives=table,
                    candidates=ExplicitCandidates(("b", "a")))
    np.testing.assert_array_equal(inst.image_tensor(), [[[5, 6], [7, 8]], [[3, 4], [1, 2]]])
    family = AffineFamilyObjectives({"1": [[0, 1], [2, 4]], "2": [[2, 1], [2, 1]]})
    assert family.array.shape == (2, 2, 2) and family.scenario_pos == {"1": 0, "2": 1}
    linear = LinearScenarioObjectives({"a": [[1, 0, 2]], "b": [[2, 2, 0]]})
    assert linear.array.shape == (2, 1, 3) and linear.candidate_pos == {"a": 0, "b": 1}
    for obj in (table, family, linear):
        assert not obj.array.flags.writeable and obj.array.dtype == float


def test_stacked_table_equals_the_mapping_table():
    values = np.arange(12.0).reshape(2, 3, 2)
    stacked = TableObjectives.stacked(["a", "b"], ("1", "2", "3"), values)
    mapped = TableObjectives({c: dict(zip("123", rows)) for c, rows in zip("ab", values)})
    for table in (stacked, mapped):
        assert (table.candidate_ids, table.scenario_ids, table.n) == (("a", "b"), ("1", "2", "3"), 2)
        assert (table.candidate_pos, table.scenario_pos) == ({"a": 0, "b": 1}, {"1": 0, "2": 1, "3": 2})
        assert table.array.tobytes() == values.tobytes()


def test_stacked_table_stores_a_read_only_copy():
    values = np.ones((1, 1, 2))
    table = TableObjectives.stacked(("a",), ("1",), values)
    assert not table.array.flags.writeable and values.flags.writeable
    values[0, 0, 0] = 5.0
    assert table.array[0, 0, 0] == 1.0
    with pytest.raises(ValueError):
        table.array[0, 0, 0] = 2.0


@pytest.mark.parametrize("cids, sids, values, message", [
    (("a", "a"), ("1",), np.zeros((2, 1, 1)), "^candidate ids must be unique$"),
    (("a",), ("1", "1"), np.zeros((1, 2, 1)), "^scenario ids must be unique$"),
    (("a", "b"), ("1",), np.zeros((2, 2, 1)),
     r"^objective table has shape \(2, 2, 1\), expected \(2, 1, n\) from its ids$"),
    (("a",), ("1",), np.zeros((1, 1)), r"^objective table has shape \(1, 1\), expected 3 axes$"),
    (("a",), ("1",), [[[0.0, np.inf]]], "^objective table has non-finite entries$"),
    ((), ("1",), np.zeros((0, 1, 1)), "^objective table has no candidates$"),
    (("a",), (), np.zeros((1, 0, 1)), "^objective table has no scenarios$"),
])
def test_stacked_table_rejects(cids, sids, values, message):
    with pytest.raises(ValueError, match=message):
        TableObjectives.stacked(cids, sids, values)


def test_validate_against_names_the_missing_id():
    scen = ScenarioSet(ids=("1", "2"))
    table = TableObjectives({"a": {"1": [1.0], "2": [2.0]}})
    with pytest.raises(ValueError, match="^candidate 'b' missing from objective table$"):
        Instance(n=1, scenarios=scen, objectives=table, candidates=ExplicitCandidates(("a", "b")))
    with pytest.raises(ValueError, match="^scenario '3' missing from objective table$"):
        Instance(n=1, scenarios=ScenarioSet(ids=("1", "3")), objectives=table, candidates=ExplicitCandidates(("a",)))
    family = AffineFamilyObjectives({"1": [[0.0, 1.0]]})
    with pytest.raises(ValueError, match="^scenario '2' missing from affine family$"):
        Instance(n=1, scenarios=scen, objectives=family, candidates=SimplexCandidates(dim=2))
    coords = ScenarioSet(ids=("1",), coords={"1": [1.0]})
    linear = LinearScenarioObjectives({"a": [[1.0]]})
    with pytest.raises(ValueError, match="^candidate 'b' missing from linear-in-s map$"):
        Instance(n=1, scenarios=coords, objectives=linear, candidates=ExplicitCandidates(("a", "b")))


def test_objective_scale(problem1):
    np.testing.assert_allclose(objective_scale(problem1), [4.0, 4.0])
    scen = ScenarioSet(ids=("1",))
    table = TableObjectives({"a": {"1": [0.0, -3.0]}})
    inst = Instance(n=2, scenarios=scen, objectives=table, candidates=ExplicitCandidates(("a",)))
    # zero column scales by 1 so division stays defined
    np.testing.assert_allclose(objective_scale(inst), [1.0, 3.0])


def _table_instance():
    return Instance(
        n=2,
        scenarios=ScenarioSet(ids=("s1", "s2")),
        objectives=TableObjectives({"a": {"s1": [1, 2], "s2": [3, 4]}, "b": {"s1": [0, 0], "s2": [1, 1]}}),
        candidates=ExplicitCandidates(("a", "b")),
        name="toy-table",
    )


def _linear_instance():
    return Instance(
        n=2,
        scenarios=ScenarioSet(ids=("1", "2"), coords={"1": [1.0, 0.0], "2": [0.0, 1.0]}),
        objectives=LinearScenarioObjectives({"a": [[1, 0], [0, 1]], "b": [[2, 2], [1, 3]]}),
        candidates=ExplicitCandidates(("a", "b")),
        scenario_hull=True,
    )


def _assert_round_trip(inst, path):
    # save -> load -> save writes the same text, and the reloaded images are the same bytes
    save_instance(inst, path)
    text = path.read_text()
    assert text.endswith("\n")
    loaded = load_instance(path)
    assert instance_to_dict(loaded) == instance_to_dict(inst)
    save_instance(loaded, path)
    assert path.read_text() == text
    assert loaded.image_tensor().tobytes() == inst.image_tensor().tobytes()


@pytest.mark.parametrize("maker", [_table_instance, _linear_instance])
def test_json_round_trip(tmp_path, maker):
    _assert_round_trip(maker(), tmp_path / "inst.json")


@settings(max_examples=100, deadline=None)
@given(inst=instances())
def test_json_round_trip_of_drawn_instances(tmp_path_factory, inst):
    _assert_round_trip(inst, tmp_path_factory.mktemp("round-trip") / "inst.json")


def test_json_round_trip_builtins(tmp_path):
    for name in ("problem-1", "problem-2"):
        inst = builtin_instance(name)
        path = tmp_path / f"{name}.json"
        save_instance(inst, path)
        again = instance_to_dict(load_instance(path))
        assert again == instance_to_dict(inst)


# ids that JSON escapes, that hold a %, and whose sorted order is not their order
_AWKWARD_IDS = ('z"quote', "a\\back", "%s 100%", "\u00fc", "line\nbreak", "10", "9", "A")


def _awkward_instances():
    sids = _AWKWARD_IDS[::-1]
    grid = np.arange(len(_AWKWARD_IDS) * len(sids) * 2, dtype=float).reshape(len(_AWKWARD_IDS), len(sids), 2) / 7
    coords = {sid: [float(k), 1.0 / (k + 1)] for k, sid in enumerate(sids)}
    return [
        Instance(n=2, scenarios=ScenarioSet(ids=sids),
                 objectives=TableObjectives.stacked(_AWKWARD_IDS, sids, grid),
                 candidates=ExplicitCandidates(_AWKWARD_IDS), name='awk"ward\u00e9'),
        Instance(n=2, scenarios=ScenarioSet(ids=sids, coords=coords),
                 objectives=LinearScenarioObjectives({c: [[k, -0.5], [1e-300, 1e300]]
                                                      for k, c in enumerate(_AWKWARD_IDS)}),
                 candidates=ExplicitCandidates(_AWKWARD_IDS), scenario_hull=True),
        Instance(n=2, scenarios=ScenarioSet(ids=sids),
                 objectives=AffineFamilyObjectives({sid: [[k, 0.1], [2.5, -k]] for k, sid in enumerate(sids)}),
                 candidates=SimplexCandidates(dim=2, step=0.25)),
    ]


def _json_cases():
    rng = np.random.default_rng(7)
    cases = [(generate(PhantomConfig()), None)]
    for name in ("problem-1", "problem-2"):
        inst = builtin_instance(name)
        ambiguity = random_ambiguity(rng, inst.scenarios)
        cases += [(inst, None), (to_robust(inst, ambiguity), ambiguity_to_dict(ambiguity))]
    table = random_instance(rng, max_candidates=12)
    cases += [(to_robust(table, random_ambiguity(rng, table.scenarios)), None), (random_linear_instance(rng), None)]
    return cases + [(inst, None) for inst in _awkward_instances()]


def test_instance_json_is_the_indented_dump(tmp_path):
    for inst, ambiguity in _json_cases():
        want = json.dumps(instance_to_dict(inst, ambiguity), indent=2, sort_keys=True) + "\n"
        assert instance_json(inst, ambiguity) == want, inst.name
        save_instance(inst, tmp_path / "inst.json", ambiguity)
        assert (tmp_path / "inst.json").read_text(encoding="utf-8") == want


@settings(max_examples=100, deadline=None)
@given(inst=instances())
def test_instance_json_is_the_indented_dump_of_drawn_instances(inst):
    assert instance_json(inst) == json.dumps(instance_to_dict(inst), indent=2, sort_keys=True) + "\n"


def test_round_trip_preserves_image(tmp_path, problem1):
    save_instance(problem1, tmp_path / "p1.json")
    loaded = load_instance(tmp_path / "p1.json")
    np.testing.assert_allclose(loaded.image(0.35).values, problem1.image(0.35).values)


def test_from_dict_errors():
    with pytest.raises(ValueError, match="missing key"):
        instance_from_dict({"n": 2})
    base = instance_to_dict(_table_instance())
    bad = dict(base)
    bad["objectives"] = {"table": {}, "affine_family": {}}
    with pytest.raises(ValueError, match="exactly one"):
        instance_from_dict(bad)
    bad = dict(base)
    bad["objectives"] = {"mystery": {}}
    with pytest.raises(ValueError, match="unknown objective form"):
        instance_from_dict(bad)
    bad = dict(base)
    bad["candidates"] = {"neither": []}
    with pytest.raises(ValueError, match="explicit.*simplex"):
        instance_from_dict(bad)


@pytest.mark.parametrize("path, value, message", [
    (("n",), 2.7, "^n must be an integer, got 2.7$"),
    (("n",), True, "^n must be an integer, got True$"),
    (("candidates", "simplex", "dim"), 2.9, "^simplex dim must be an integer, got 2.9$"),
    (("scenario_hull",), "false", "^scenario_hull must be true or false, got 'false'$"),
    (("candidates", "simplex", "step"), True, "^simplex step must be a number, got True$"),
    (("candidates", "simplex", "step"), "0.5", "^simplex step must be a number, got '0.5'$"),
    (("name",), 7, "^name must be a string or null, got 7$"),
])
def test_from_dict_requires_json_types(path, value, message):
    data = json.loads(instance_json(builtin_instance("problem-2")))
    owner = data
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    with pytest.raises(ValueError, match=message):
        instance_from_dict(data)


def test_builtin_registry():
    with pytest.raises(KeyError):
        builtin_instance("problem-9")
    inst = builtin_instance("problem-1", step=0.25)
    assert len(inst.candidate_list()) == 5


def test_resolve_candidate_explicit():
    inst = _table_instance()
    assert inst.resolve_candidate("a") == "a"
    with pytest.raises(KeyError):
        inst.resolve_candidate("zz")


def test_linear_in_s_evaluation():
    inst = _linear_instance()
    # f(a; s) = F_a s with s read off the scenario coords
    np.testing.assert_allclose(inst.image("a").values, [[1, 0], [0, 1]])
    np.testing.assert_allclose(inst.image("b").values, [[2, 1], [2, 3]])


@settings(max_examples=150, deadline=None)
@given(inst=instances(), data=st.data())
def test_every_image_path_matches_the_per_pair_reference(inst, data):
    tensor = inst.image_tensor()
    cands = inst.candidate_list()
    assert tensor.shape == (len(cands), len(inst.scenarios), inst.n)
    if isinstance(inst.candidates, SimplexCandidates):
        # off-lattice simplex points go through Instance.image alone
        weights = data.draw(st.lists(st.lists(st.floats(0.01, 1.0), min_size=inst.candidates.dim,
                                              max_size=inst.candidates.dim), max_size=3))
        extra = [inst.resolve_candidate(np.array(w) / sum(w)) for w in weights]
    else:
        extra = []
    for row, cand in zip(tensor, cands):
        assert row.tobytes() == reference_image(inst.objectives, inst.scenarios, cand).tobytes()
    constraint = ExpectationConstraint(inst.objectives)
    last = inst.scenarios.ids[-1]
    for cand in cands + extra:
        want = reference_image(inst.objectives, inst.scenarios, cand)
        assert inst.image(cand).values.tobytes() == want.tobytes()
        assert inst.evaluate(cand, last).tobytes() == want[-1].tobytes()
        assert constraint.evaluate(inst.scenarios, cand).tobytes() == want.tobytes()
    m = np.abs(tensor).max(axis=(0, 1))
    assert objective_scale(inst).tobytes() == np.where(m > 0, m, 1.0).tobytes()


def test_image_tensor_is_read_only_and_built_once():
    inst = builtin_instance("problem-1", step=0.25)
    tensor = inst.image_tensor()
    assert not tensor.flags.writeable
    with pytest.raises(ValueError):
        tensor[0, 0, 0] = 1.0
    assert inst.image_tensor() is tensor


def test_with_step_needs_a_simplex_lattice(problem1):
    assert len(with_step(problem1, 0.5).candidate_list()) == 3
    points = Instance(n=2, scenarios=problem1.scenarios, objectives=problem1.objectives,
                      candidates=SimplexCandidates(dim=2, points=((0.5, 0.5),)))
    for inst in (_table_instance(), points):
        with pytest.raises(ValueError, match="no simplex lattice"):
            with_step(inst, 0.5)
