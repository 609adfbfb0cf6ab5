"""Seeded random model generators and a self-check harness.

Shared between the test suite and the `report` CLI subcommand.  Random
instances use small integer objective data (0..9) so dominance relations
are exact and tolerance-free; that keeps randomized property checks honest
at the default 1e-9 tolerances.
"""
from __future__ import annotations

import numpy as np

from .core import (
    ExplicitCandidates,
    Instance,
    LinearScenarioObjectives,
    ScenarioSet,
    TableObjectives,
)
from .distro import AmbiguitySet
from .efficiency import classify
from .geometry import EQ_TOL, STRICT_TOL
from .scalarize import constructive_scalarizer


def random_instance(rng: np.random.Generator, max_n: int = 3, max_scenarios: int = 4,
                    max_candidates: int = 6, name=None) -> Instance:
    """Small table-form instance with integer objective values in 0..9."""
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(1, max_scenarios + 1))
    k = int(rng.integers(1, max_candidates + 1))
    sids = tuple(f"s{i}" for i in range(m))
    cids = tuple(f"x{j}" for j in range(k))
    # one draw per (candidate, scenario), in that order
    values = [[rng.integers(0, 10, size=n) for _ in sids] for _ in cids]
    return Instance(
        n=n,
        scenarios=ScenarioSet(ids=sids),
        objectives=TableObjectives.stacked(cids, sids, values),
        candidates=ExplicitCandidates(cids),
        name=name,
    )


def random_ambiguity(rng: np.random.Generator, scenarios: ScenarioSet,
                     convex_closure: bool = True) -> AmbiguitySet:
    """Finite generator family of random distributions over the scenarios."""
    m = len(scenarios)
    count = int(rng.integers(1, 4))
    dists = []
    for _ in range(count):
        raw = rng.random(m) + 0.05
        dists.append(tuple(raw / raw.sum()))
    return AmbiguitySet(support=scenarios, distributions=tuple(dists),
                        convex_closure=convex_closure)


def random_hyperrectangle_values(rng: np.random.Generator, n: int = 2):
    """Scenario points forming a full axis-aligned product grid (a box)."""
    axes = [np.sort(rng.choice(np.arange(10.0), size=int(rng.integers(1, 4)), replace=False))
            for _ in range(n)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    perm = rng.permutation(grid.shape[0])
    return grid[perm]


def random_scenario_polyhedron(rng: np.random.Generator, dim: int):
    """Random bounded nonempty polyhedron {s >= 0, A s <= b} containing 0.

    A ones-row caps the coordinate sum, so the set is bounded; b > 0 keeps
    the origin feasible.
    """
    extra = int(rng.integers(0, 4))
    rows = [np.ones(dim)]
    b = [float(rng.integers(2, 7))]
    for _ in range(extra):
        row = rng.integers(-1, 4, size=dim).astype(float)
        if not row.any():
            continue
        rows.append(row)
        b.append(float(rng.integers(1, 8)))
    return np.array(rows), np.array(b)


def random_linear_instance(rng: np.random.Generator, n: int = 2, dim: int = 2,
                           candidates: int = 3) -> Instance:
    """linear-in-s instance over a random bounded scenario polyhedron.

    Scenario coords are polyhedron vertices found by rejection-free corner
    probing (axis points and the origin), enough for image enumeration.
    """
    a, b = random_scenario_polyhedron(rng, dim)
    coords = {"origin": np.zeros(dim)}
    for i in range(dim):
        # largest feasible step along axis i
        col = a[:, i]
        steps = [bv / cv for bv, cv in zip(b, col) if cv > 0]
        coords[f"axis{i}"] = np.eye(dim)[i] * min(steps)
    sids = tuple(coords)
    matrices = {
        f"x{j}": rng.integers(-3, 7, size=(n, dim)).astype(float)
        for j in range(candidates)
    }
    return Instance(
        n=n,
        scenarios=ScenarioSet(ids=sids, coords=coords, polyhedral_form=(a, b)),
        objectives=LinearScenarioObjectives(matrices),
        candidates=ExplicitCandidates(tuple(f"x{j}" for j in range(candidates))),
    )


def harness(instance: Instance, eq_tol: float = EQ_TOL, strict_tol: float = STRICT_TOL) -> list:
    """Re-derive structural guarantees on one instance; return violations.

    Checks, per classify report: convex-hull efficiency implies robust
    efficiency; the set-valued minimizers equal the robust-efficient set;
    every recorded dominance witness re-verifies; and for each efficient
    candidate the constructive scalarizer is zero at its image and
    nonnegative in the worst case everywhere else.
    """
    problems = []
    report = classify(instance, eq_tol=eq_tol, strict_tol=strict_tol)
    tensor = instance.image_tensor()
    position = {c: i for i, c in enumerate(instance.candidate_list())}
    scenario_pos = {sid: i for i, sid in enumerate(instance.scenarios.ids)}
    for res in report.results:
        label = str(res.candidate)
        if res.convex_hull_efficient and not res.robust_efficient:
            problems.append(f"{label}: convex-hull efficient but not robust efficient")
        if res.set_valued_minimizer != res.robust_efficient:
            problems.append(f"{label}: set-valued flag disagrees with robust efficiency")
        for kind, dom in res.dominators.items():
            # witnesses are keyed by the dominating image's scenario ids
            dom_rows = tensor[position[dom.candidate]]
            for sid, witness in dom.witnesses.items():
                if not witness.verify(dom_rows[scenario_pos[sid]], eq_tol=eq_tol, strict_tol=strict_tol):
                    problems.append(f"{label}: recorded {kind} witness fails for scenario {sid}")
    for mode, flag in (("plain", "robust_efficient"), ("hull", "convex_hull_efficient")):
        for res in report.results:
            if not getattr(res, flag):
                continue
            u = constructive_scalarizer(instance, res.candidate, mode=mode)
            # worst case of every candidate; the anchor's own row is at_self
            i = position[res.candidate]
            worst = u.values(tensor).max(axis=-1)
            at_self = float(worst[i])
            if abs(at_self) > 1e-9:
                problems.append(f"{res.candidate}: {mode} scalarizer is {at_self:.2e} at its anchor")
            floor = float(worst[np.arange(worst.size) != i].min(initial=at_self))
            if floor < -1e-9:
                problems.append(f"{res.candidate}: {mode} scalarizer goes below zero ({floor:.2e})")
    return problems
