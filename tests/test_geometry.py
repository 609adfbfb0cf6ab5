"""Dominance geometry: point/hull membership, witnesses, signed distance."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from robpareto import geometry
from robpareto.core import ObjectiveImage
from robpareto.geometry import (
    EQ_TOL,
    STRICT_TOL,
    DominanceWitness,
    decide_pairs,
    dominated_by_hull,
    dominated_by_point_set,
    image_dominates,
    is_hyperrectangle,
    settle,
    signed_distance,
)
from robpareto.linprog import SolverStalledError, lp_solve

from oracles import (
    hull_distance_enum,
    hull_distance_grid,
    hull_dominated_2d,
    plain_dominated,
    random_hull_query,
)

FAN = [[1, 4], [1, 1], [4, 1]]  # image of problem-1 at x=0


def _img(label, values):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    ids = tuple(str(i + 1) for i in range(values.shape[0]))
    return ObjectiveImage(label, ids, values)


class TestPointDominance:
    def test_dominated_with_first_anchor_tie_break(self):
        w = dominated_by_point_set([0, 2], FAN, ["1", "2", "3"])
        assert w is not None and w.kind == "point"
        assert w.anchor_id == "1"
        np.testing.assert_allclose(w.point, [1, 4])
        assert w.verify([0, 2])

    def test_equal_point_not_dominated(self):
        # the punctured cone excludes 0: y = z is not a domination
        assert dominated_by_point_set([1, 1], [[1, 1]]) is None

    def test_above_all_anchors(self):
        assert dominated_by_point_set([5, 5], FAN) is None

    def test_interior_of_hull_but_not_point_dominated(self):
        assert dominated_by_point_set([2, 2], FAN) is None

    def test_empty_anchor_list_rejected(self):
        with pytest.raises(ValueError):
            dominated_by_point_set([0, 0], np.empty((0, 2)))


@pytest.mark.parametrize("test", [dominated_by_point_set, dominated_by_hull])
class TestDominanceInputs:
    # the checks signed_distance makes: no broadcasting, no NaN, anchors as (m, n)
    def test_length_mismatch_rejected(self, test):
        with pytest.raises(ValueError, match="shape \\(2,\\)"):
            test([0], [[1, 2]])

    def test_nan_anchor_rejected(self, test):
        with pytest.raises(ValueError, match="finite"):
            test([0, 0], [[np.nan, 5]])

    def test_one_dimensional_anchors_rejected(self, test):
        with pytest.raises(ValueError, match="2-D"):
            test([0, 0], [5, 5])

    @pytest.mark.parametrize("ids", [["only"], ["a", "b", "c"], "ab"])
    def test_anchor_ids_must_name_each_anchor(self, test, ids):
        # too few, too many, and a string, which would name anchors by its characters
        with pytest.raises(ValueError, match="one id per anchor \\(2\\)") as err:
            test([0, 0], [[-1, -1], [1, 1]], anchor_ids=ids)
        assert "\n" not in str(err.value)


class TestHullDominance:
    def test_midpoint_certificate(self):
        w = dominated_by_hull([2, 2], FAN, ["1", "2", "3"])
        assert w is not None and w.kind == "hull"
        # best hull point is on the segment (1,4)-(4,1): total gain 1
        assert abs(w.gap - 1.0) < 1e-7
        assert w.verify([2, 2])
        assert w.weights is not None
        lam = np.array([w.weights.get(sid, 0.0) for sid in ("1", "2", "3")])
        assert lam.min() >= -1e-12 and abs(lam.sum() - 1.0) < 1e-9
        combo = lam @ np.asarray(FAN, dtype=float)
        np.testing.assert_allclose(combo, w.point, atol=1e-9)

    def test_single_anchor_equality_excluded(self):
        assert dominated_by_hull([1, 4], [[1, 4]]) is None

    def test_single_anchor_strictly_below(self):
        w = dominated_by_hull([0, 0], [[1, 1]], ["s"])
        assert w is not None
        np.testing.assert_allclose(w.point, [1, 1])
        assert w.weights == {"s": 1.0}
        assert w.verify([0, 0])

    def test_empty_anchor_list_rejected(self):
        with pytest.raises(ValueError):
            dominated_by_hull([0, 0], np.empty((0, 2)))

    def test_agrees_with_caratheodory_oracle(self, rng):
        for _ in range(400):
            y, anchors = random_hull_query(rng)
            got = dominated_by_hull(y, anchors) is not None
            want = hull_dominated_2d(y, anchors)
            assert got == want, (y, anchors)

    def test_issued_witnesses_verify_at_documented_tolerance(self, rng):
        # tied coordinates must not push the certificate past eq_tol
        for _ in range(400):
            y, anchors = random_hull_query(rng)
            w = dominated_by_hull(y, anchors)
            if w is not None:
                assert w.verify(y, EQ_TOL, STRICT_TOL)


@pytest.mark.xfail(strict=True, raises=SolverStalledError, reason="lp_solve stalls on this near-tie hull LP")
def test_hull_improvement_near_tie_does_not_stall():
    # lp_solve finds its optimal basis violating an inequality row and raises
    # instead of answering; once it answers, the weights must be convex
    lam = geometry._hull_improvement(np.array([1.000000001, 0.9999999985]),
                                     np.array([[1.0, 2.9999999995], [1.000000001, 0.0]]))
    assert lam is None or abs(lam.sum() - 1.0) < 1e-9


def test_hull_falls_back_to_tolerant_point_test():
    # the exact hull path rejects y, the plain test accepts it within eq_tol
    y, anchors = [0.0, 0.0], [[-0.5e-9, 1.5e-9]]
    plain = dominated_by_point_set(y, anchors, ["a"])
    w = dominated_by_hull(y, anchors, ["a"])
    assert plain is not None and w is not None
    assert (w.kind, w.anchor_id, w.weights, w.gap) == ("point", "a", {"a": 1.0}, plain.gap)
    assert w.verify(y)


class TestImageDominance:
    def test_problem1_hull_domination(self, problem1):
        a, b = problem1.image(1), problem1.image(0)
        wit = image_dominates(a, b, mode="hull")
        assert wit is not None
        assert set(wit) == {"1", "2", "3"}  # keyed by the dominator's scenarios
        for sid, w in wit.items():
            assert w.verify(a.point(sid))

    def test_problem1_no_plain_domination(self, problem1):
        assert image_dominates(problem1.image(1), problem1.image(0), mode="plain") is None

    def test_irreflexive(self, problem1):
        img = problem1.image(0.35)
        assert image_dominates(img, img, mode="plain") is None
        assert image_dominates(img, img, mode="hull") is None
        # only up to the tolerances: each point of a cyclic near-tie clears the
        # other by a rounded 1.00000008e-9 > strict_tol, so the image dominates
        # itself (classify never tests a candidate against itself)
        tie = _img("tie", [[1.000000001, 1], [1, 1.000000001]])
        for mode in geometry.MODES:
            wit = image_dominates(tie, tie, mode=mode)
            assert wit is not None and [w.anchor_id for w in wit.values()] == ["2", "1"]

    def test_dimension_mismatch(self, problem1):
        with pytest.raises(ValueError):
            image_dominates(problem1.image(0), _img("z", [[1, 2, 3]]), mode="plain")

    def test_unknown_mode(self, problem1):
        with pytest.raises(ValueError):
            image_dominates(problem1.image(0), problem1.image(1), mode="fancy")


class TestSignedDistance:
    def test_anchor_sits_on_boundary(self, problem1):
        assert abs(signed_distance([1, 1], problem1.image(0).values, "plain")) < 1e-9

    def test_plain_closed_form(self):
        assert abs(signed_distance([0, 0], FAN, "plain") - (-1.0)) < 1e-12

    def test_hull_lp_value(self):
        d = signed_distance([2, 2], FAN, "hull")
        assert abs(d - (-0.5)) < 1e-9
        # cross-check against a dense lambda grid
        assert abs(d - hull_distance_grid([2, 2], FAN)) < 2e-3

    def test_empty_anchors_rejected(self):
        for mode in ("plain", "hull"):
            with pytest.raises(ValueError, match="empty"):
                signed_distance([0, 0], np.empty((0, 2)), mode)

    def test_malformed_inputs_rejected(self):
        for mode in ("plain", "hull"):
            for anchors, msg in (([[np.nan, 1.0]], "finite"), ([[1.0, -np.inf]], "finite"),
                                 ([1.0, 2.0], "2-D"), (np.zeros((1, 1, 2)), "2-D")):
                with pytest.raises(ValueError, match=msg):
                    signed_distance([0, 0], anchors, mode)
            # a point of the wrong length must not broadcast against the anchors
            for y in ([5], [1, 2, 3], np.zeros((4, 3)), 5.0):
                with pytest.raises(ValueError, match="last axis 2"):
                    signed_distance(y, [[1, 2]], mode)

    def test_points_of_any_shape(self):
        ys = np.arange(24.0).reshape(4, 3, 2) / 4
        for mode in ("plain", "hull"):
            got = signed_distance(ys, FAN, mode)
            assert got.shape == (4, 3)
            assert got.tolist() == [[signed_distance(y, FAN, mode) for y in row] for row in ys]
            assert isinstance(signed_distance(ys[0, 0], FAN, mode), float)
            assert signed_distance(np.empty((0, 2)), FAN, mode).shape == (0,)

    def test_wide_magnitude_anchor_is_its_plain_distance(self):
        # the tableau LP called this always-feasible problem infeasible
        y, anchors = [2**-16, 61, 4.5], [[2**-14, 244, 0]]
        assert signed_distance(y, anchors, "hull") == 4.5 == signed_distance(y, anchors, "plain")

    def test_wide_anchor_sets_fall_back_to_the_lp(self, monkeypatch):
        # 30 anchors in 3 objectives have 5,365 bases with k >= 2, above MAX_BASES
        rng = np.random.default_rng(3)
        anchors = rng.integers(0, 20, size=(30, 3)).astype(float)
        ys = rng.integers(0, 20, size=(40, 3)).astype(float)
        calls = []

        def counted(problem):
            calls.append(problem)
            return lp_solve(problem)

        monkeypatch.setattr(geometry, "lp_solve", counted)
        by_lp = signed_distance(ys, anchors, "hull")
        assert len(calls) == len(ys)
        monkeypatch.setattr(geometry, "MAX_BASES", 10**6)
        by_bases = signed_distance(ys, anchors, "hull")
        assert len(calls) == len(ys)
        assert np.all(np.abs(by_lp - by_bases) <= 1e-12 * 20)
        assert np.all(by_bases <= signed_distance(ys, anchors, "plain"))
        for y, want in zip(ys[:2], by_bases[:2]):
            assert abs(hull_distance_enum(y, anchors) - want) <= 1e-12 * 20

    def test_diagonal_translation_shifts_distance(self, rng):
        for mode in ("plain", "hull"):
            for _ in range(20):
                anchors = rng.integers(0, 10, size=(3, 2)).astype(float)
                y = rng.integers(0, 10, size=2).astype(float)
                t = float(rng.uniform(-2, 2))
                base = signed_distance(y, anchors, mode)
                shifted = signed_distance(y + t, anchors, mode)
                assert abs(shifted - (base + t)) < 1e-7


class TestHyperrectangle:
    def test_full_product_returns_max_corner(self):
        img = _img("x", [[1, 1], [1, 2], [3, 1], [3, 2]])
        np.testing.assert_allclose(is_hyperrectangle(img), [3, 2])

    def test_missing_corners(self):
        assert is_hyperrectangle(_img("x", [[1, 1], [3, 2]])) is None

    def test_singleton_is_a_box(self):
        np.testing.assert_allclose(is_hyperrectangle(_img("x", [[2, 7]])), [2, 7])


class TestWitnessVerify:
    def test_fabricated_bad_witness_rejected(self):
        w = DominanceWitness(kind="point", point=np.array([1.0, 1.0]), gap=1.0, anchor_id="1")
        assert not w.verify([2.0, 0.0])  # y exceeds c in coordinate 0
        assert not w.verify([1.0, 1.0])  # zero gap

    def test_gap_just_above_tolerance(self):
        w = DominanceWitness(kind="point", point=np.array([1.0, 1.0 + 3e-9]), gap=3e-9, anchor_id="1")
        assert w.verify([1.0, 1.0])


# integer data keeps every margin a whole number, so the tolerance
# conventions can never flip a verdict against exact arithmetic.
points_strategy = st.integers(1, 4).flatmap(
    lambda m: st.lists(
        st.lists(st.integers(0, 9), min_size=2, max_size=2),
        min_size=m,
        max_size=m,
    )
)


@settings(max_examples=200, deadline=None)
@given(y=st.lists(st.integers(0, 9), min_size=2, max_size=2), anchors=points_strategy)
def test_plain_dominance_matches_brute_force(y, anchors):
    got = dominated_by_point_set(y, anchors) is not None
    assert got == plain_dominated(y, anchors)


@settings(max_examples=200, deadline=None)
@given(y=st.lists(st.integers(0, 9), min_size=2, max_size=2), anchors=points_strategy)
def test_point_domination_implies_hull_domination(y, anchors):
    if dominated_by_point_set(y, anchors) is not None:
        assert dominated_by_hull(y, anchors) is not None


@settings(max_examples=200, deadline=None)
@given(y=st.lists(st.integers(0, 9), min_size=2, max_size=2), anchors=points_strategy)
def test_sign_consistency_both_modes(y, anchors):
    for mode, test in (("plain", dominated_by_point_set), ("hull", dominated_by_hull)):
        d = signed_distance(y, anchors, mode)
        w = test(y, anchors)
        if d < -STRICT_TOL:
            assert w is not None
        if d > STRICT_TOL:
            assert w is None


@settings(max_examples=150, deadline=None)
@given(anchors=points_strategy)
def test_distance_zero_at_undominated_anchor(anchors):
    # an anchor no other anchor dominates lies exactly on the boundary
    for y in anchors:
        if not plain_dominated(y, anchors):
            assert abs(signed_distance(y, anchors, "plain")) < 1e-9


@settings(max_examples=150, deadline=None)
@given(
    y=st.lists(st.integers(0, 9), min_size=2, max_size=2),
    bump=st.lists(st.integers(1, 3), min_size=2, max_size=2),
    anchors=points_strategy,
)
def test_distance_strictly_increasing(y, bump, anchors):
    yy = np.asarray(y, dtype=float)
    higher = yy + np.asarray(bump, dtype=float)
    for mode in ("plain", "hull"):
        assert signed_distance(higher, anchors, mode) > signed_distance(yy, anchors, mode)


def _rand_images(rng, n, m):
    vals = rng.integers(0, 10, size=(3, m, n)).astype(float)
    return [_img(chr(97 + i), vals[i]) for i in range(3)]


def test_strict_partial_order_random_images(rng):
    # irreflexivity is covered above; here: transitivity and asymmetry
    for _ in range(150):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 5))
        a, b, c = _rand_images(rng, n, m)
        for mode in ("plain", "hull"):
            ab = image_dominates(a, b, mode=mode) is not None
            ba = image_dominates(b, a, mode=mode) is not None
            bc = image_dominates(b, c, mode=mode) is not None
            ac = image_dominates(a, c, mode=mode) is not None
            assert not (ab and ba)
            if ab and bc:
                assert ac


def test_enumeration_oracle_tolerates_the_solve_rounding():
    # the basis solve's weights sum to 1 only within 1.2e-12 at this scale
    y, anchors = [0.0, 12232.0], [[0.0, 1.4765625]]
    assert abs(hull_distance_enum(y, anchors) - signed_distance(y, anchors, "hull")) <= 1e-12 * 12232


# near-ties and duplicates: anchors and points drawn from a few base values,
# some nudged by a relative 1e-9, then all scaled by one power of ten
_BASE = st.sampled_from([0.0, 1.0, 2.0, 3.0, 0.5, 1.0 + 1e-9, 2.0 - 1e-9, 3.0 + 3e-9])


@st.composite
def _hull_queries(draw):
    n = draw(st.integers(1, 4))
    pool = draw(st.lists(st.lists(_BASE, min_size=n, max_size=n), min_size=1, max_size=4))
    anchors = draw(st.lists(st.sampled_from(pool) | st.lists(_BASE, min_size=n, max_size=n),
                            min_size=1, max_size=6))
    ys = draw(st.lists(st.lists(_BASE, min_size=n, max_size=n), min_size=1, max_size=4))
    scale = 10.0 ** draw(st.integers(-9, 9))
    return np.array(ys) * scale, np.array(anchors) * scale


@settings(max_examples=300, deadline=None)
@given(query=_hull_queries())
def test_hull_distance_matches_enumeration_oracle(query):
    ys, anchors = query
    got = signed_distance(ys, anchors, "hull")
    scale = max(np.abs(ys).max(), np.abs(anchors).max())
    if anchors.shape[1] <= 3:
        want = np.array([hull_distance_enum(y, anchors) for y in ys])
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
    assert np.all(got <= signed_distance(ys, anchors, "plain"))


@settings(max_examples=300, deadline=None)
@given(query=_hull_queries())
def test_hull_distance_matches_highs(query):
    linprog = pytest.importorskip("scipy.optimize").linprog
    ys, anchors = query
    m, n = anchors.shape
    got = signed_distance(ys, anchors, "hull")
    # highs' tolerances are absolute, so it solves the LP in units of the data's
    # scale (the distance is positively homogeneous); at its 1e-10 feasibility
    # tolerance its optimum can be off by about 1e-10 on near-ties, where the
    # enumeration oracle above agrees to 1e-12
    scale = max(np.abs(ys).max(), np.abs(anchors).max()) or 1.0
    for y, dist in zip(ys / scale, got / scale):
        res = linprog(np.r_[np.zeros(m), 1.0], A_ub=np.hstack([-anchors.T / scale, -np.ones((n, 1))]), b_ub=-y,
                      A_eq=np.r_[np.ones(m), 0.0][None, :], b_eq=[1.0],
                      bounds=[(0, None)] * m + [(None, None)], method="highs",
                      options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10})
        assert res.status == 0
        assert abs(res.fun - dist) <= 1e-9


# perturbations at the eq_tol / strict_tol scale put ties on both sides of
# every tolerance comparison
_NEAR_TIE = st.sampled_from([0.0, 0.0, -1.5e-9, -1e-9, -0.5e-9, 0.5e-9, 1e-9, 1.5e-9])


def _padded_stack(images):
    """The images' values as one (P, longest, n) array, each short image
    padded by repeating its first point, as classify pads its filtered images."""
    width = max(len(img) for img in images)
    return np.stack([np.concatenate([img.values, np.repeat(img.values[:1], width - len(img), axis=0)])
                     for img in images])


@st.composite
def _pair_stacks(draw):
    """Pairs of ragged near-tie images of one n, as (dominators, targets)."""
    n = draw(st.integers(1, 3))
    scale = 10.0 ** draw(st.integers(0, 8))

    def image(label):
        rows = draw(st.integers(1, 4))
        return _img(label, [[draw(st.integers(0, 3)) * scale + draw(_NEAR_TIE) for _ in range(n)]
                            for _ in range(rows)])

    count = draw(st.integers(1, 6))
    return [image(f"a{p}") for p in range(count)], [image(f"z{p}") for p in range(count)]


@settings(max_examples=300, deadline=None)
@given(pairs=_pair_stacks(), mode=st.sampled_from(geometry.MODES))
def test_decide_pairs_matches_image_dominates(pairs, mode):
    # the stacks are padded as classify pads its filtered images; settle on the
    # unpadded pair must give image_dominates' witnesses with the same LPs
    dominators, targets = pairs
    found = decide_pairs(_padded_stack(dominators), _padded_stack(targets), mode)
    for p, (a, b) in enumerate(zip(dominators, targets)):
        calls = []
        for decide in (lambda: image_dominates(a, b, mode),
                       lambda: settle(a.values, b.values, list(b.scenario_ids), found, p, mode)):
            with mock.patch.object(geometry, "_hull_improvement", wraps=geometry._hull_improvement) as lp:
                try:
                    calls.append((decide(), lp.call_count))
                except SolverStalledError:
                    reject()
        (want, want_lps), (got, got_lps) = calls
        if not found.kept[p]:
            assert want is None and want_lps == 0
        assert got_lps == want_lps
        assert (got is None) == (want is None)
        if want is None:
            continue
        got = dict(zip(a.scenario_ids, got))
        assert list(got) == list(want)
        for sid, w in want.items():
            g = got[sid]
            assert (g.kind, repr(g.gap), g.anchor_id, g.weights) == (w.kind, repr(w.gap), w.anchor_id, w.weights)
            assert g.point.tobytes() == w.point.tobytes()
