"""Synthetic 1-D dose phantom: geometry, objectives, candidate lattice."""
import math

import numpy as np
import pytest

from robpareto.core import TableObjectives
from robpareto.efficiency import classify
from robpareto.phantom import (
    PhantomConfig,
    budget,
    candidate_weights,
    dose_matrix,
    generate,
    objective_values,
    region_masks,
    scenario_id,
    spot_centers,
    uniform_level,
)

from oracles import pareto_min_filter, recursive_lattice_ids


def test_zero_candidate_objectives():
    cfg = PhantomConfig()
    zero = np.zeros(cfg.spots)
    for shift in cfg.shifts:
        f = objective_values(cfg, zero, shift)[0]
        # no dose anywhere: f1 = w_T |T| d^2, f2 = 0
        assert abs(f[0] - 1000.0 * 24 * 1.0) < 1e-9
        assert abs(f[1]) < 1e-12


def test_uniform_level_hits_prescription():
    cfg = PhantomConfig()
    u = np.full(cfg.spots, uniform_level(cfg))
    target, _, _ = region_masks(cfg)
    mean_dose = (u @ dose_matrix(cfg).T)[target].mean()
    assert abs(mean_dose - cfg.prescribed_dose) < 1e-12


def test_shifts_move_dose_off_target():
    cfg = PhantomConfig()
    u = np.full(cfg.spots, uniform_level(cfg))
    nominal = objective_values(cfg, u, 0.0)[0, 0]
    for shift in (-3.0, 3.0):
        assert nominal < objective_values(cfg, u, shift)[0, 0]


def test_objectives_are_convex_in_weights(rng):
    cfg = PhantomConfig()
    cap = budget(cfg)
    for _ in range(20):
        a = rng.uniform(0, cap / cfg.spots, size=cfg.spots)
        b = rng.uniform(0, cap / cfg.spots, size=cfg.spots)
        for shift in cfg.shifts:
            mid = objective_values(cfg, (a + b) / 2, shift)[0]
            avg = (objective_values(cfg, a, shift)[0] + objective_values(cfg, b, shift)[0]) / 2
            assert np.all(mid <= avg + 1e-9)


def test_dose_kernel_mirror_symmetry():
    # beam centers reflect about grid coordinate 30, so the deposition
    # columns of +s and -s are reflections of one another on interior voxels
    cfg = PhantomConfig()
    dp = dose_matrix(cfg, 3.0)
    dm = dose_matrix(cfg, -3.0)
    np.testing.assert_allclose(dp[1:60], dm[59:0:-1][:, ::-1], atol=1e-15)
    d0 = dose_matrix(cfg, 0.0)
    np.testing.assert_allclose(d0[1:60], d0[59:0:-1][:, ::-1], atol=1e-15)


def test_spot_centers_span_target():
    cfg = PhantomConfig()
    centers = spot_centers(cfg)
    assert len(centers) == cfg.spots
    assert centers.min() > cfg.target_span[0]
    assert centers.max() < cfg.target_span[1]
    assert np.allclose(np.diff(centers), np.diff(centers)[0])


def test_candidate_weights_parsing():
    cfg = PhantomConfig()
    u = candidate_weights(cfg, "uniform")
    np.testing.assert_allclose(u, uniform_level(cfg))
    alt = candidate_weights(cfg, "101010101010")
    step = budget(cfg) / cfg.lattice_resolution
    np.testing.assert_allclose(alt, np.tile([step, 0.0], 6))
    with pytest.raises(KeyError, match="malformed"):
        candidate_weights(cfg, "10101")
    with pytest.raises(KeyError, match="malformed"):
        candidate_weights(cfg, "x01010101010")
    with pytest.raises(KeyError, match="budget"):
        candidate_weights(cfg, "999999999999")


def test_generate_default_structure():
    inst = generate()
    cands = inst.candidate_list()
    # full lattice of grade vectors summing to <= 6 over 12 spots, plus the
    # scaled uniform reference plan
    assert len(cands) == math.comb(18, 12) + 1
    assert "uniform" in cands
    assert inst.scenarios.ids == ("shift-3", "shift0", "shift3")
    assert scenario_id(-3) == "shift-3" and scenario_id(0) == "shift0"
    cfg = PhantomConfig()
    img = inst.image("uniform")
    for sid, shift in zip(inst.scenarios.ids, cfg.shifts):
        want = objective_values(cfg, candidate_weights(cfg, "uniform"), shift)[0]
        np.testing.assert_allclose(img.point(sid), want, atol=1e-9)


@pytest.mark.parametrize("cfg", [
    PhantomConfig(spots=1, lattice_resolution=1, shifts=(0,)),
    PhantomConfig(spots=3, lattice_resolution=2),
    PhantomConfig(spots=4, lattice_resolution=9, shifts=(-1.5, 0, 2)),
    PhantomConfig(spots=6, lattice_resolution=3, budget_factor=0.5),
])
def test_generate_equals_the_table_built_from_the_mapping(cfg):
    # the mapping built candidate by candidate, with ids from the recursive lattice
    ids_grades = recursive_lattice_ids(cfg.lattice_resolution, cfg.spots)
    ids = [cid for cid, _ in ids_grades] + ["uniform"]
    x = np.array([g for _, g in ids_grades], dtype=float) * (budget(cfg) / cfg.lattice_resolution)
    x = np.vstack([x, np.full(cfg.spots, uniform_level(cfg))])
    sids = [scenario_id(s) for s in cfg.shifts]
    per_shift = {sid: objective_values(cfg, x, s) for sid, s in zip(sids, cfg.shifts)}
    want = TableObjectives({cid: {sid: per_shift[sid][row] for sid in sids} for row, cid in enumerate(ids)})
    inst = generate(cfg)
    got = inst.objectives
    assert inst.candidate_list() == ids and inst.scenarios.ids == tuple(sids)
    assert (got.candidate_ids, got.scenario_ids) == (want.candidate_ids, want.scenario_ids)
    assert got.array.tobytes() == want.array.tobytes() and not got.array.flags.writeable


def test_singleton_shift_is_deterministic(rng):
    cfg = PhantomConfig(spots=3, lattice_resolution=2, shifts=(0,))
    inst = generate(cfg)
    cands = inst.candidate_list()
    points = np.array([inst.image(c).values[0] for c in cands])
    expected = set(pareto_min_filter(points))
    report = classify(inst)
    got = {i for i, c in enumerate(cands) if report.result_for(c).robust_efficient}
    assert got == expected
    for res in report.results:
        assert res.robust_efficient == res.convex_hull_efficient


def test_generate_is_deterministic():
    cfg = PhantomConfig(spots=4, lattice_resolution=3)
    a, b = generate(cfg), generate(cfg)
    assert a.candidate_list() == b.candidate_list()
    for cand in a.candidate_list()[:10]:
        np.testing.assert_array_equal(a.image(cand).values, b.image(cand).values)


def test_config_validation():
    with pytest.raises(ValueError, match="does not fit"):
        PhantomConfig(target_span=(50, 70))
    with pytest.raises(ValueError, match="overlap"):
        PhantomConfig(target_span=(10, 30), rectum_span=(25, 40))
    with pytest.raises(ValueError, match="positive"):
        PhantomConfig(rectum_weight=0.0)
    with pytest.raises(ValueError, match="shift"):
        PhantomConfig(shifts=())
    with pytest.raises(ValueError, match="kernel"):
        PhantomConfig(kernel_width=-1.0)
    with pytest.raises(ValueError, match="resolution"):
        PhantomConfig(lattice_resolution=0)
    with pytest.raises(ValueError, match="budget"):
        PhantomConfig(budget_factor=0.0)
    with pytest.raises(ValueError, match="too large"):
        PhantomConfig(spots=20, lattice_resolution=9)
