"""Minimizing worst-case scalarized objectives over the candidate space.

Three routes, recorded in SolveResult.method:

- "sweep": exhaustive evaluation of an explicit candidate list,
- "exact_lp": joint epigraph LP for linear scalarizers over affine families
  on the simplex (exact over the continuous simplex, not just the lattice),
- "sweep_refined": lattice sweep plus two local refinement passes at halved
  step for everything else on simplex candidate spaces.

Ties go to the lexicographically smallest candidate.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Candidate, Instance, ObjectiveImage, SimplexCandidates, _image_values, objective_scale
from .scalarize import Scalarizer, WeightedPNorm, epigraph_form
from .linprog import lp_solve

REFINE_MAX_DIM = 8


@dataclass(eq=False)
class SolveResult:
    best: Candidate
    value: float
    method: str
    evaluations: int
    worst_scenario: Optional[str] = None


def _sort_key(candidate):
    return candidate if isinstance(candidate, str) else tuple(candidate)


def _lowest(u: Scalarizer, scenario_ids, cands, images) -> tuple:
    """(worst case, sort key, candidate, worst scenario) of a batch's best candidate.

    The lowest worst case wins; ties go to the smallest candidate.
    """
    vals = u.values(images)
    worst = vals.max(axis=-1)
    best = min(np.flatnonzero(worst == worst.min()), key=lambda i: _sort_key(cands[i]))
    return float(worst[best]), _sort_key(cands[best]), cands[best], scenario_ids[int(np.argmax(vals[best]))]


def _refinement_offsets(dim: int):
    for d in itertools.product(range(-2, 3), repeat=dim):
        if sum(d) == 0 and any(d):
            yield d


def minimize_scalarized(instance: Instance, u: Scalarizer, refinements: int = 2) -> SolveResult:
    """Minimize x -> max_s u(f(x; s)) over the instance's candidate space."""
    cands = instance.candidates
    sids = instance.scenarios.ids
    lattice = isinstance(cands, SimplexCandidates) and cands.points is None
    if lattice and u.linear and instance.objectives.form == "affine_family":
        epi = epigraph_form(instance, u)
        res = lp_solve(epi.problem)
        if res.status != "optimal":  # pragma: no cover - simplex feasible, objective bounded
            raise RuntimeError("epigraph LP ended " + res.status)
        x = np.clip(res.x[: epi.dim], 0.0, None)
        x = x / x.sum()
        x = tuple(float(v) for v in x)
        value, _, _, scenario = _lowest(u, sids, [x], instance.image(x).values[None])
        if abs(res.value - value) > 1e-7:
            raise RuntimeError("epigraph LP value disagrees with direct evaluation")
        return SolveResult(x, value, "exact_lp", 1, scenario)

    points = instance.candidate_list()
    best = _lowest(u, sids, points, instance.image_tensor())
    evaluations = len(points)
    # local refinement: halve the step around the incumbent, never uphill
    if lattice and cands.dim <= REFINE_MAX_DIM:
        step = 1.0 / cands.resolution
        offsets = list(_refinement_offsets(cands.dim))
        for _ in range(refinements):
            step /= 2.0
            center = np.asarray(best[2], dtype=float)
            local = []
            for d in offsets:
                pt = center + step * np.asarray(d, dtype=float)
                if pt.min() < -1e-12:
                    continue
                local.append(tuple(float(v) for v in np.clip(pt, 0.0, None)))
            if local:
                local.sort()
                batch = _lowest(u, sids, local, _image_values(instance.objectives, instance.scenarios, local))
                best = min(best, batch, key=lambda b: b[:2])
                evaluations += len(local)
    value, _, candidate, scenario = best
    return SolveResult(candidate, value, "sweep_refined" if lattice else "sweep", evaluations, scenario)


def sweep_front(instance: Instance, scalarizers) -> list:
    """Solve one instance under a family of scalarizers, in the given order."""
    return [(u.name, minimize_scalarized(instance, u)) for u in scalarizers]


@dataclass(eq=False)
class StudyEntry:
    """One p-norm study row: the optimum and its image in unit-box scale."""

    p: float
    scalarizer: WeightedPNorm  # the scaled p-norm the optimum minimizes
    result: SolveResult
    image: ObjectiveImage
    scaled: np.ndarray  # image values divided by the per-objective global max
    sup_radius: float  # worst-case max scaled coordinate
    one_norm_worst: float  # worst-case scaled 1-norm


def p_norm_study(instance: Instance, ps=(1, 2, 10)) -> list:
    """Minimize the worst-case p-norm distance to the origin for each p.

    The study runs in scaled objective space: each objective is divided by
    its max over all candidates and scenarios, putting every attainable
    image in the unit box so the coordinates are commensurable.  The scaled
    p-norm is realized as a weighted p-norm on the raw instance, so nothing
    is copied.
    """
    if not ps:
        raise ValueError("need at least one p value")
    scale = objective_scale(instance)
    family = []
    for p in ps:
        w = 1.0 / scale if math.isinf(p) else scale ** (-float(p))
        family.append(WeightedPNorm(w=w, p=p, n=instance.n))
    rows = sweep_front(instance, family)
    entries = []
    for p, u, (_, res) in zip(ps, family, rows):
        img = instance.image(res.best)
        scaled = img.values / scale
        entries.append(
            StudyEntry(
                p=float(p),
                scalarizer=u,
                result=res,
                image=img,
                scaled=scaled,
                sup_radius=float(np.abs(scaled).max()),
                one_norm_worst=float(np.abs(scaled).sum(axis=1).max()),
            )
        )
    return entries
