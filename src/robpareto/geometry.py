"""Dominance geometry in objective space.

All tests work in the minimization convention: a point y is dominated by an
anchor set when it can be written as (anchor region) minus a nonzero
nonnegative vector.  "plain" mode takes the anchors themselves as the
dominating region, "hull" mode their convex hull.  Two tolerances control
every comparison: eq_tol for componentwise slack, strict_tol for the total
improvement that makes dominance strict.  Both must be finite and
nonnegative (check_tolerances).

dominance_mask is the one place the pointwise test is written.
decide_pairs runs it over stacked image pairs and keeps the pairs that
every point passes, marking in hull mode the points only the LP can
settle.  settle is the one place a kept pair becomes certificates: anchor
witnesses from the kernel, built by anchor_witnesses, and LP witnesses for
the marked points.  image_dominates, dominated_by_point_set and
dominated_by_hull are its one-pair calls.  classify's scan decides every
pair it tests in batched decide_pairs rounds and calls settle only on the
kept pairs with marked points; it stores the kernel's anchor and gap rows
of the others and builds their witnesses with anchor_witnesses when they
are read.

signed_distance is the one evaluator of the constructive certificate, the
oriented distance from points of shape (..., n) to (anchor region) - R^n_+.
Plain mode is one broadcast min-max.  Hull mode needs no LP: the distance
LP has an optimal basis of k <= min(m, n) anchors and k tight rows, so
every basis system with k >= 2 is inverted once per anchor set, applied to
all points, and the least distance its weights reach is taken; the k = 1
bases are the plain distance, so hull <= plain.  Anchor sets with more
than MAX_BASES such bases, a count fixed by (m, n), fall back to one
lp_solve per point.  The hull witnesses of the LP points still come from
lp_solve.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

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


def check_tolerances(eq_tol: float, strict_tol: float) -> None:
    """ValueError unless both tolerances are finite and nonnegative.

    The masks, the hull prechecks and the max-sum mask's rounding allowance
    hold only for such tolerances; a nan one makes every comparison false.
    """
    for name, value in (("eq_tol", eq_tol), ("strict_tol", strict_tol)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


def dominance_mask(y, z, eq_tol: float, strict_tol: float) -> np.ndarray:
    """(..., S_y, S_z) mask of "z[..., k, :] dominates y[..., r, :]": y[r] <=
    z[k] + eq_tol in every coordinate and (z[k] - y[r]).max() > strict_tol.

    y (..., S_y, n) and z (..., S_z, n) share their leading batch axes.  The
    one place the pointwise test is written; every plain test, the tolerant
    hull fallback, the batched pair kernel and the Pareto filter call it.
    """
    y = y[..., :, None, :]
    z = z[..., None, :, :]
    below = (y <= z + eq_tol).all(axis=-1)
    return below & ((z - y).max(axis=-1) > strict_tol)


class PairDecisions(NamedTuple):
    kept: np.ndarray  # (P,) pairs that every point passed; settle decides them
    anchor: np.ndarray  # (P, S_a) each point's first single-anchor hit, -1 where it has none
    gap: np.ndarray  # (P, S_a) each point's total gap to that anchor
    lp: np.ndarray  # (P, S_a) points that only the hull LP can settle


def decide_pairs(a, z, mode: str, eq_tol: float = EQ_TOL, strict_tol: float = STRICT_TOL) -> PairDecisions:
    """Is every point of a[p] dominated by the anchors z[p]?  P pairs at once.

    a is (P, S_a, n) and z (P, S_b, n).  A plain pair is kept when every
    point has an anchor within eq_tol.  A hull pair is kept when every
    point passes the exact prechecks (box bound and total-sum bound) or the
    eq_tol point test; lp marks the points that passed the prechecks
    without an exact single-anchor hit, which only the LP settles.  A kept
    pair with no lp point is dominated; settle decides the rest.  A point's
    anchor is its first exact hit if it passed the prechecks and has one,
    else its first eq_tol hit: the witness image_dominates gives it;
    anchors and gaps of an unkept pair are unspecified.  Pairs go through
    in chunks of bounded memory.
    """
    _check_mode(mode)
    count, rows, width = a.shape[0], a.shape[1], z.shape[1]
    step = max(1, _CHUNK // (rows * width))
    if count > step:
        parts = [decide_pairs(a[lo:lo + step], z[lo:lo + step], mode, eq_tol, strict_tol)
                 for lo in range(0, count, step)]
        return PairDecisions(*(np.concatenate(field) for field in zip(*parts)))
    tolerant = dominance_mask(a, z, eq_tol, strict_tol)
    found = tolerant.any(axis=-1)
    settled = found
    lp = np.zeros_like(found)
    if mode == "hull":
        pre = (~(a > z.max(axis=1)[:, None, :] + eq_tol).any(axis=-1)
               & (z.sum(axis=-1).max(axis=-1)[:, None] - a.sum(axis=-1) > strict_tol))
        settled = pre | found
    kept = settled.all(axis=-1)
    if not kept.any():  # the common single-pair miss builds nothing more
        return PairDecisions(kept, np.full(found.shape, -1), np.zeros(found.shape), lp)
    hits = tolerant
    if mode == "hull":
        exact = dominance_mask(a, z, 0.0, strict_tol) & pre[..., None]
        has_exact = exact.any(axis=-1)
        hits = np.where(has_exact[..., None], exact, tolerant)
        lp = pre & ~has_exact
    first = hits.argmax(axis=-1)
    gap = np.maximum(z[np.arange(count)[:, None], first] - a, 0.0).sum(axis=-1)
    return PairDecisions(kept, np.where(found, first, -1), gap, lp)


def settle(y, z, ids, found: PairDecisions, p: int, mode: str, strict_tol: float = STRICT_TOL) -> Optional[list]:
    """The witnesses of pair p of found, one per row of y, or None if y is not dominated.

    y (S, n) and z (m, n) are the pair's points and anchors without padding,
    ids names the rows of z.  Each point gets its anchor witness, with
    weight 1 on it in hull mode; then the pair's lp points are solved in
    row order, and a point that neither the LP nor the eq_tol point test
    settles makes the pair a miss.  Only the first len(y) rows of found
    are read, so a padded point is never solved.
    """
    if not found.kept[p]:
        return None
    rows = len(y)
    witnesses = anchor_witnesses(z, ids, found.anchor[p, :rows], found.gap[p, :rows], mode)
    for r in itertools.compress(range(rows), found.lp[p, :rows].tolist()):
        w = _lp_witness(y[r], z, ids, strict_tol)
        if w is not None:
            witnesses[r] = w
        elif witnesses[r] is None:
            return None
    return witnesses


def anchor_witnesses(z, ids, anchor, gap, mode: str) -> list:
    """The point witness of each point from its anchor and gap rows of
    PairDecisions: anchor k of z (named ids[k]) with weight 1 on it in hull
    mode, or None where k is -1.

    The one place a point witness is built: settle calls it on each kept
    pair, and classify's results on each certificate they store as arrays.
    """
    hull = mode == "hull"
    return [None if k < 0 else DominanceWitness(kind="point", point=z[k], gap=g, anchor_id=ids[k],
                                                weights={ids[k]: 1.0} if hull else None)
            for k, g in zip(anchor.tolist(), gap.tolist())]


def _witnesses(y, z, ids, mode: str, eq_tol: float, strict_tol: float) -> Optional[list]:
    """settle for the one pair (y, z): a witness per row of y, or None."""
    return settle(y, z, ids, decide_pairs(y[None], z[None], mode, eq_tol, strict_tol), 0, mode, strict_tol)


def _lp_witness(y, z, ids, strict_tol: float) -> Optional[DominanceWitness]:
    # lp_solve meets c >= y only up to linprog.FEAS_TOL, plus the rounding of
    # z^T lambda, so the certificate re-verifies at the default eq_tol but
    # can fail at eq_tol = 0
    lam = _hull_improvement(y, z)
    if lam is None:
        return None
    c = z.T @ lam
    gap = float(np.maximum(c - y, 0.0).sum())
    if float(c.sum() - y.sum()) <= strict_tol:
        return None
    weights = {ids[j]: float(lam[j]) for j in range(len(ids)) if lam[j] > 1e-12}
    return DominanceWitness(kind="hull", point=c, gap=gap, weights=weights)


def _single_point(y, anchors, anchor_ids) -> tuple:
    """(y as one row, anchors, anchor ids) after the checks signed_distance makes."""
    z = anchor_matrix(anchors)
    y = np.asarray(y, dtype=float)
    if y.shape != (z.shape[1],):
        raise ValueError(f"y must have shape ({z.shape[1]},), the anchors' n, got shape {y.shape}")
    if anchor_ids is not None:
        ids = [] if isinstance(anchor_ids, str) else list(anchor_ids)
        if len(ids) != z.shape[0]:
            raise ValueError(f"anchor_ids must hold one id per anchor ({z.shape[0]}), got {anchor_ids!r}")
    elif isinstance(anchors, ObjectiveImage):
        ids = list(anchors.scenario_ids)
    else:
        ids = [str(i) for i in range(z.shape[0])]
    return y[None, :], z, ids


def dominated_by_point_set(
    y,
    anchors,
    anchor_ids: Optional[Sequence[str]] = None,
    eq_tol: float = EQ_TOL,
    strict_tol: float = STRICT_TOL,
) -> Optional[DominanceWitness]:
    """First anchor (in the given order) with y <= z within eq_tol and a gap > strict_tol."""
    y, z, ids = _single_point(y, anchors, anchor_ids)
    found = _witnesses(y, z, ids, "plain", eq_tol, strict_tol)
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
    eq_tol.  The feasibility constraint c >= y carries no eq_tol slack: any
    slack lets a sliver of weight on a far anchor fabricate a gain of order
    slack times the anchor spread, which can cross strict_tol.  lp_solve
    still meets it only up to linprog.FEAS_TOL (1e-9 absolute), so c can
    sit that far below y in a coordinate.  eq_tol is still honored
    by the quick rejection bound, by witness re-checks, and by the plain
    fallback: where the LP test finds nothing, the eq_tol point test decides
    and its witness carries weight 1 on its anchor.  So plain dominance
    implies hull dominance under the same tolerances.
    """
    y, z, ids = _single_point(y, anchors, anchor_ids)
    found = _witnesses(y, z, ids, "hull", eq_tol, strict_tol)
    return None if found is None else found[0]


def _hull_improvement(y, z) -> Optional[np.ndarray]:
    """Argmax of sum(c) over conv(z) with c >= y, or None if infeasible."""
    m = z.shape[0]
    problem = LpProblem(
        c=-z.sum(axis=1),
        a_ub=-z.T,
        b_ub=-y,
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
    The relation is irreflexive only up to the tolerances: in a cyclic
    near-tie image such as [[1.000000001, 1], [1, 1.000000001]] each point
    clears the other by more than strict_tol, so the image dominates itself.
    classify never tests a candidate against itself (the sup-box mask drops
    the diagonal).  All points are tested in one batch; the witnesses equal
    those of the per-point tests.
    """
    found = _witnesses(a.values, b.values, list(b.scenario_ids), mode, eq_tol, strict_tol)
    if found is None:
        return None
    return dict(zip(a.scenario_ids, found))


def anchor_matrix(anchors) -> np.ndarray:
    """The anchors as a non-empty, finite (m, n) array; ValueError otherwise."""
    z = anchors.values if isinstance(anchors, ObjectiveImage) else np.asarray(anchors, dtype=float)
    if z.ndim != 2:
        raise ValueError(f"anchors must be a 2-D array of shape (m, n), got shape {z.shape}")
    if z.size == 0:
        raise ValueError("anchor set is empty")
    if not np.all(np.isfinite(z)):
        raise ValueError("anchors must be finite")
    return z


def signed_distance(y, anchors, mode: str = "plain"):
    """Signed max-coordinate distance from points y to (anchor region) - R^n_+.

    y has shape (..., n) and the result shape (...); a single point of shape
    (n,) gives a float.  Negative inside, zero on the boundary (never -0.0).
    Each point is evaluated on its own, so its value does not depend on the
    batch it comes in; points go through in chunks of bounded memory.

    Plain mode is the closed form min over anchors z of max_i (y_i - z_i).
    Hull mode is the LP min t over (lambda, t) with z^T lambda + t >= y and
    lambda on the simplex, solved without an LP: see _hull_bases.  Above
    MAX_BASES bases it falls back to one lp_solve per point.
    """
    _check_mode(mode)
    z = anchor_matrix(anchors)
    ys = np.asarray(y, dtype=float)
    if ys.ndim == 0 or ys.shape[-1] != z.shape[1]:
        raise ValueError(f"points must have last axis {z.shape[1]}, the anchors' n, got shape {ys.shape}")
    rows = ys.reshape(-1, z.shape[1])
    center, half, levels = _hull_bases(z) if mode == "hull" else (None, None, [])
    width = z.shape[0] + sum(len(t) for t, _, _, _ in levels or ())
    step = max(1, _CHUNK // width)
    out = np.empty(rows.shape[0])
    for lo in range(0, rows.shape[0], step):
        chunk = rows[lo:lo + step]
        dist = (chunk[:, None, :] - z).max(axis=2).min(axis=1)
        if levels is None:
            dist = np.minimum(dist, [_hull_distance_lp(p, z) for p in chunk])
        elif levels:
            dist = np.minimum(dist, _hull_distance(chunk - center, half, levels))
        out[lo:lo + step] = dist
    # + 0.0 turns -0.0 into 0.0, whose sign would depend on the reduction order
    out = out.reshape(ys.shape[:-1]) + 0.0
    return float(out) if ys.ndim == 1 else out


# Above this many bases with k >= 2 the hull distance solves one LP per point.
# The count depends on the anchors' shape alone, never on the points.
MAX_BASES = 4096
# (point, anchor or basis) pairs evaluated at once: bounds the kernel's memory
_CHUNK = 1 << 16
# a basis system whose singular values span more than 1 / _RCOND is singular
_RCOND = 1e-13


def _hull_bases(z) -> tuple:
    """(center, half, levels): every nonsingular hull-distance basis with k >= 2.

    An optimal vertex of the LP has k anchors A in its support and k tight
    rows T, k <= min(m, n), and solves [z_{A,T}^T 1; 1^T 0] [lambda; t] =
    [y_T; 1].  That system depends on the anchors alone, so each one is
    inverted here, once, in units where the anchors span [-1, 1] about
    their mid-range center (half is that unit); the singularity test is
    relative in those units.  Level k holds (T, M, M^-1, Z) over its
    bases, where a point's (lambda, t) solves M x = [(y_T - center_T) /
    half; 1] and Z (n, k) has the centered anchors of A as columns.  The
    k = 1 bases are the plain distance.  Above MAX_BASES bases, levels is
    None.
    """
    m, n = z.shape
    if sum(math.comb(m, k) * math.comb(n, k) for k in range(2, min(m, n) + 1)) > MAX_BASES:
        return None, None, None
    lo, hi = z.min(axis=0) / 2, z.max(axis=0) / 2
    center = lo + hi
    half = float((hi - lo).max())
    levels = []
    if half == 0.0:  # identical anchors: every k >= 2 system is singular
        return center, half, levels
    for k in range(2, min(m, n) + 1):
        pairs = list(itertools.product(itertools.combinations(range(m), k), itertools.combinations(range(n), k)))
        a = np.array([p[0] for p in pairs])
        t = np.array([p[1] for p in pairs])
        mat = np.ones((len(pairs), k + 1, k + 1))
        mat[:, :k, :k] = (z[a[:, None, :], t[:, :, None]] - center[t][:, :, None]) / half
        mat[:, k, k] = 0.0
        sv = np.linalg.svd(mat, compute_uv=False)
        ok = sv[:, -1] > _RCOND * sv[:, 0]
        if ok.any():
            inv = np.linalg.inv(mat[ok])
            levels.append((t[ok], mat[ok], inv, np.swapaxes(z[a[ok]] - center, 1, 2)))
    return center, half, levels


def _hull_distance(yc, half, levels) -> np.ndarray:
    """Min over the bases of the distance reached by their weights, per row of yc.

    yc holds the points less the anchors' center.  A basis' weights are
    clipped at 0 and renormalized onto the simplex, so every basis gives
    the distance of a point of the hull, an upper bound on the LP value,
    and the optimal basis reaches it: no feasibility tolerance is needed.
    Every step is elementwise in the point's row.  A weight that overflows,
    for a point vastly farther out than the anchors' spread, drops its
    basis.
    """
    best = np.full(yc.shape[0], np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        for t, mat, inv, za in levels:
            k = t.shape[1]
            rhs = np.ones((yc.shape[0], t.shape[0], k + 1))
            rhs[:, :, :k] = yc[:, t] / half
            sol = _times(inv, rhs)
            # one step of refinement: an explicit inverse alone loses the
            # residual on near-singular bases, such as near-duplicate anchors
            sol += _times(inv, rhs - _times(mat, sol))
            lam = np.maximum(sol[:, :, :k], 0.0)
            total = lam[:, :, 0].copy()
            for j in range(1, k):
                total += lam[:, :, j]
            # nan, not 0, where every weight clipped: fmin then drops the basis
            reach = _times(za, lam) / np.where(total > 0.0, total, np.nan)[:, :, None]
            best = np.fmin(best, np.fmin.reduce((yc[:, None, :] - reach).max(axis=2), axis=1))
    return best


def _times(mats, vecs) -> np.ndarray:
    """mats (Q, r, c) times vecs (P, Q, c) as (P, Q, r), one elementwise sum in column order."""
    out = vecs[:, :, 0, None] * mats[:, :, 0]
    for c in range(1, mats.shape[2]):
        out += vecs[:, :, c, None] * mats[:, :, c]
    return out


def _hull_distance_lp(y, z) -> float:
    """The hull distance of one point by the epigraph LP, for wide anchor sets."""
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
