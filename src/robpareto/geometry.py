"""Dominance geometry in objective space.

All tests work in the minimization convention: a point y is dominated by an
anchor set when it can be written as (anchor region) minus a nonzero
nonnegative vector.  "plain" mode takes the anchors themselves as the
dominating region, "hull" mode their convex hull.  Two tolerances control
every comparison: eq_tol for componentwise slack, strict_tol for the total
improvement that makes dominance strict.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import ObjectiveImage
from .linprog import LpProblem, lp_solve

EQ_TOL = 1e-9
STRICT_TOL = 1e-9

MODES = ("plain", "hull")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


@dataclass(eq=False)
class DominanceWitness:
    """Certificate that y is dominated.

    kind "point": anchor_id names the dominating anchor, point is its vector.
    kind "hull": weights are convex coefficients over anchor ids and point is
    the resulting hull point c with y <= c and a positive total gap.
    """

    kind: str
    point: np.ndarray
    gap: float
    anchor_id: Optional[str] = None
    weights: Optional[dict] = None

    def verify(self, y, eq_tol: float = EQ_TOL, strict_tol: float = STRICT_TOL) -> bool:
        y = np.asarray(y, dtype=float)
        c = np.asarray(self.point, dtype=float)
        if np.any(y > c + eq_tol):
            return False
        return float(np.maximum(c - y, 0.0).sum()) > strict_tol


def _anchor_array(anchors) -> tuple:
    if isinstance(anchors, ObjectiveImage):
        return anchors.values, list(anchors.scenario_ids)
    arr = np.atleast_2d(np.asarray(anchors, dtype=float))
    if arr.shape[0] == 0:
        raise ValueError("anchor set is empty")
    return arr, [str(i) for i in range(arr.shape[0])]


def _gapped(y, z, strict_tol: float) -> np.ndarray:
    """(len(y), len(z)) mask of (z[k] - y[r]).max() > strict_tol."""
    return (z[None, :, :] - y[:, None, :]).max(axis=2) > strict_tol


def _below(y, z, eq_tol: float) -> np.ndarray:
    """(len(y), len(z)) mask of y[r] <= z[k] + eq_tol in every coordinate."""
    return (y[:, None, :] <= z[None, :, :] + eq_tol).all(axis=2)


def _first_hit_witnesses(y, z, ids, hits) -> list:
    """Witness of each row of y by its first hit anchor."""
    first = hits.argmax(axis=1)
    gaps = np.maximum(z[first] - y, 0.0).sum(axis=1)
    return [DominanceWitness(kind="point", point=z[k], gap=g, anchor_id=ids[k])
            for k, g in zip(first.tolist(), gaps.tolist())]


def point_witnesses(y, z, ids, eq_tol: float = EQ_TOL, strict_tol: float = STRICT_TOL) -> Optional[list]:
    """Plain witnesses for every row of y against the anchor rows z (ids names them).

    Each row gets the first anchor with y <= z within eq_tol and a gap >
    strict_tol, as dominated_by_point_set would give it; None if some row
    has no such anchor.
    """
    hits = _below(y, z, eq_tol) & _gapped(y, z, strict_tol)
    if not hits.any(axis=1).all():
        return None
    return _first_hit_witnesses(y, z, ids, hits)


def _hull_witnesses(y, z, ids, eq_tol: float, strict_tol: float) -> Optional[list]:
    """Hull witnesses for every row of y, or None if some row is not dominated.

    Per row: the exact prechecks, then a single anchor dominating without
    slack, then the LP; a row that none of these settles falls back to the
    plain test within eq_tol.  LPs run only for unsettled rows, in order,
    and only once every row has passed a precheck or the fallback.
    """
    # exact prechecks: the box bound and the total-sum bound are necessary
    ysum = y.sum(axis=1)
    pre = ~(y > z.max(axis=0) + eq_tol).any(axis=1) & (z.sum(axis=1).max() - ysum > strict_tol)
    gapped = _gapped(y, z, strict_tol)
    tolerant = _below(y, z, eq_tol) & gapped
    has_tolerant = tolerant.any(axis=1)
    if not (pre | has_tolerant).all():
        return None
    exact = _below(y, z, 0.0) & gapped & pre[:, None]
    has_exact = exact.any(axis=1)
    witnesses = _first_hit_witnesses(y, z, ids, np.where(has_exact[:, None], exact, tolerant))
    for w in witnesses:
        w.weights = {w.anchor_id: 1.0}
    for r in np.flatnonzero(pre & ~has_exact):
        w = _lp_witness(y[r], ysum[r], z, ids, strict_tol)
        if w is not None:
            witnesses[r] = w
        elif not has_tolerant[r]:
            return None
    return witnesses


def _lp_witness(y, ysum, z, ids, strict_tol: float) -> Optional[DominanceWitness]:
    # solver roundoff on c is ~1e-15, so the certificate re-verifies at eq_tol
    lam = _hull_improvement(y, z, 0.0)
    if lam is None:
        return None
    c = z.T @ lam
    gap = float(np.maximum(c - y, 0.0).sum())
    if float(c.sum() - ysum) <= strict_tol:
        return None
    weights = {ids[j]: float(lam[j]) for j in range(len(ids)) if lam[j] > 1e-12}
    return DominanceWitness(kind="hull", point=c, gap=gap, weights=weights)


def _single_point(y, anchors, anchor_ids) -> tuple:
    y = np.asarray(y, dtype=float).reshape(1, -1)
    z, ids = _anchor_array(anchors)
    if anchor_ids is not None:
        ids = list(anchor_ids)
    return y, z, ids


def dominated_by_point_set(
    y,
    anchors,
    anchor_ids: Optional[Sequence[str]] = None,
    eq_tol: float = EQ_TOL,
    strict_tol: float = STRICT_TOL,
) -> Optional[DominanceWitness]:
    """First anchor (in the given order) with y <= z within eq_tol and a gap > strict_tol."""
    y, z, ids = _single_point(y, anchors, anchor_ids)
    found = point_witnesses(y, z, ids, eq_tol, strict_tol)
    return None if found is None else found[0]


def dominated_by_hull(
    y,
    anchors,
    anchor_ids: Optional[Sequence[str]] = None,
    eq_tol: float = EQ_TOL,
    strict_tol: float = STRICT_TOL,
) -> Optional[DominanceWitness]:
    """Hull membership test: maximize sum(c - y) over c in conv(anchors), c >= y.

    Returns a witness iff the restricted region is nonempty and the optimum
    exceeds strict_tol, or iff y is dominated by a single anchor within
    eq_tol.  The feasibility constraint is exact: any positive slack lets a
    sliver of weight on a far anchor fabricate a gain of order slack times
    the anchor spread, which can cross strict_tol.  eq_tol is still honored
    by the quick rejection bound, by witness re-checks, and by the plain
    fallback: where the LP test finds nothing, the eq_tol point test decides
    and its witness carries weight 1 on its anchor.  So plain dominance
    implies hull dominance under the same tolerances.
    """
    y, z, ids = _single_point(y, anchors, anchor_ids)
    found = _hull_witnesses(y, z, ids, eq_tol, strict_tol)
    return None if found is None else found[0]


def _hull_improvement(y, z, slack) -> Optional[np.ndarray]:
    """Argmax of sum(c) over conv(z) with c >= y - slack, or None if infeasible."""
    m = z.shape[0]
    problem = LpProblem(
        c=-z.sum(axis=1),
        a_ub=-z.T,
        b_ub=-(y - slack),
        a_eq=np.ones((1, m)),
        b_eq=np.array([1.0]),
    )
    res = lp_solve(problem)
    if res.status != "optimal":
        return None
    return res.x


def image_dominates(a: ObjectiveImage, b: ObjectiveImage, mode: str = "plain",
                    eq_tol: float = EQ_TOL, strict_tol: float = STRICT_TOL) -> Optional[dict]:
    """Does candidate image a dominate candidate image b?

    True when every point of a is dominated (in the chosen mode) by b's
    anchor set; returns the per-scenario witness map then, None otherwise.
    The relation is irreflexive: an image never dominates itself.  All
    points are tested in one batch; the witnesses equal those of the
    per-point tests.
    """
    _check_mode(mode)
    batch = point_witnesses if mode == "plain" else _hull_witnesses
    found = batch(a.values, b.values, list(b.scenario_ids), eq_tol, strict_tol)
    if found is None:
        return None
    return dict(zip(a.scenario_ids, found))


def signed_distance(y, anchors, mode: str = "plain") -> float:
    """Signed max-coordinate distance from y to (anchor region) - R^n_+.

    Negative inside, zero on the boundary.  Plain mode has the closed form
    min over anchors z of max_i (y_i - z_i); hull mode solves the epigraph LP
    over convex weights.
    """
    _check_mode(mode)
    y = np.asarray(y, dtype=float)
    z, _ = _anchor_array(anchors)
    if mode == "plain":
        return float((y - z).max(axis=1).min())
    m = z.shape[0]
    # variables (lambda, t): minimize t with z^T lambda + t >= y, lambda on the simplex
    c = np.zeros(m + 1)
    c[-1] = 1.0
    a_ub = np.hstack([-z.T, -np.ones((z.shape[1], 1))])
    problem = LpProblem(
        c=c,
        a_ub=a_ub,
        b_ub=-y,
        a_eq=np.hstack([np.ones((1, m)), np.zeros((1, 1))]),
        b_eq=np.array([1.0]),
        free=np.array([False] * m + [True]),
    )
    res = lp_solve(problem)
    if res.status != "optimal":  # pragma: no cover - always feasible and bounded
        raise RuntimeError("hull distance LP ended " + res.status)
    return float(res.value)


def is_hyperrectangle(img: ObjectiveImage, eq_tol: float = EQ_TOL) -> Optional[np.ndarray]:
    """Max corner if the image equals the product of its per-coordinate value sets."""
    vals = img.values
    clusters = []
    index_cols = []
    for j in range(vals.shape[1]):
        col = vals[:, j]
        order = np.argsort(col)
        reps = []
        idx = np.empty(col.shape[0], dtype=int)
        for i in order:
            if reps and col[i] - reps[-1] <= eq_tol:
                idx[i] = len(reps) - 1
            else:
                reps.append(col[i])
                idx[i] = len(reps) - 1
        clusters.append(reps)
        index_cols.append(idx)
    combos = {tuple(index_cols[j][i] for j in range(vals.shape[1])) for i in range(vals.shape[0])}
    expected = 1
    for reps in clusters:
        expected *= len(reps)
    if len(combos) != expected:
        return None
    return vals.max(axis=0)
