"""Independent reference implementations used to pin expected test values.

Everything here is deliberately naive: brute-force enumeration, dense grids,
and small closed-form solves.  None of it shares code with the package under
test beyond numpy, with one exception: reference_classify solves its hull
LPs with the package's LP kernel, because it pins the scans and witnesses
built on top of them, down to the last bit.
"""
import itertools
from typing import NamedTuple

import numpy as np


def plain_dominated(y, anchors, eq_tol: float = 1e-9, strict_tol: float = 1e-9) -> bool:
    """Some anchor z >= y componentwise (within eq_tol) with a gap > strict_tol."""
    y = np.asarray(y, dtype=float)
    for z in np.atleast_2d(np.asarray(anchors, dtype=float)):
        if np.all(y <= z + eq_tol) and (z - y).max() > strict_tol:
            return True
    return False


def plain_image_dominates(a_vals, b_vals, eq_tol: float = 1e-9, strict_tol: float = 1e-9) -> bool:
    return all(plain_dominated(y, b_vals, eq_tol, strict_tol) for y in np.atleast_2d(a_vals))


def _point_in_hull_2d(p, z, tol: float = 1e-9) -> bool:
    """Caratheodory in the plane: p is a combination of <= 3 anchors."""
    p = np.asarray(p, dtype=float)
    z = np.atleast_2d(np.asarray(z, dtype=float))
    for a in z:
        if np.max(np.abs(p - a)) <= tol:
            return True
    for a, b in itertools.combinations(z, 2):
        d = b - a
        nrm2 = float(d @ d)
        if nrm2 <= tol:
            continue
        t = float((p - a) @ d) / nrm2
        if -tol <= t <= 1 + tol and np.max(np.abs(a + t * d - p)) <= tol:
            return True
    for a, b, c in itertools.combinations(z, 3):
        mat = np.column_stack([b - a, c - a])
        if abs(np.linalg.det(mat)) <= 1e-12:
            continue
        lam = np.linalg.solve(mat, p - a)
        if lam.min() >= -tol and lam.sum() <= 1 + tol:
            return True
    return False


def hull_improvement_2d(y, anchors):
    """Max of sum(c - y) over c in conv(anchors) with c >= y, or None if empty.

    Vertex enumeration: the feasible region's extreme points are anchors,
    anchor-segment intersections with the lines c_i = y_i, or the corner y
    itself when it lies inside the hull.  Two objectives only.
    """
    y = np.asarray(y, dtype=float)
    z = np.atleast_2d(np.asarray(anchors, dtype=float))
    assert z.shape[1] == 2
    feasible = [a for a in z if a[0] >= y[0] - 1e-12 and a[1] >= y[1] - 1e-12]
    for a, b in itertools.combinations(z, 2):
        for axis in (0, 1):
            d = b[axis] - a[axis]
            if abs(d) <= 1e-12:
                continue
            t = (y[axis] - a[axis]) / d
            if -1e-12 <= t <= 1 + 1e-12:
                p = a + min(max(t, 0.0), 1.0) * (b - a)
                if p[0] >= y[0] - 1e-12 and p[1] >= y[1] - 1e-12:
                    feasible.append(p)
    if _point_in_hull_2d(y, z):
        feasible.append(y)
    if not feasible:
        return None
    return max(float(p.sum() - y.sum()) for p in feasible)


def hull_dominated_2d(y, anchors, strict_tol: float = 1e-9) -> bool:
    gain = hull_improvement_2d(y, anchors)
    return gain is not None and gain > strict_tol


def hull_distance_grid(y, anchors, steps: int = 1000) -> float:
    """min over a dense lambda grid of max_i (y - sum lambda_j z_j)_i; <= 3 anchors."""
    y = np.asarray(y, dtype=float)
    z = np.atleast_2d(np.asarray(anchors, dtype=float))
    m = z.shape[0]
    assert m <= 3
    if m == 1:
        return float((y - z[0]).max())
    grid = np.linspace(0.0, 1.0, steps + 1)
    if m == 2:
        lam = np.column_stack([grid, 1.0 - grid])
    else:
        l1, l2 = np.meshgrid(grid, grid, indexing="ij")
        keep = l1 + l2 <= 1.0 + 1e-12
        lam = np.column_stack([l1[keep], l2[keep], 1.0 - l1[keep] - l2[keep]])
    pts = lam @ z
    return float((y[None, :] - pts).max(axis=1).min())


def hull_distance_enum(y, anchors) -> float:
    """min t with anchors^T lambda + t >= y, lambda on the simplex, by basis enumeration.

    Per support A of k anchors and k tight rows T (k <= min(m, n)), solve
    [z_{A,T}^T 1; 1^T 0] [lambda; t] = [y_T; 1]; keep the solutions with
    lambda >= 0 and every row held, to 1e-13 of the data's scale, and take
    the least t.  Small n only: the loops are per point and per basis.
    """
    y = np.asarray(y, dtype=float)
    z = np.atleast_2d(np.asarray(anchors, dtype=float))
    m, n = z.shape
    tol = 1e-13 * max(np.abs(y).max(), np.abs(z).max())
    best = np.inf
    for k in range(1, min(m, n) + 1):
        for a in itertools.combinations(range(m), k):
            for t in itertools.combinations(range(n), k):
                mat = np.ones((k + 1, k + 1))
                mat[:k, :k] = z[np.ix_(a, t)].T
                mat[k, k] = 0.0
                try:
                    sol = np.linalg.solve(mat, np.append(y[list(t)], 1.0))
                except np.linalg.LinAlgError:
                    continue
                lam, dist = sol[:k], sol[k]
                held = np.all(z[list(a)].T @ lam + dist >= y - tol)
                # the last row makes the weights sum to 1 up to the solve's
                # rounding, which grows with the data's scale (1.2e-12 for
                # z = [[0, 1.4765625]], y = [0, 12232]); 1e-9 drops only
                # near-singular solves
                if lam.min() >= -1e-13 and abs(lam.sum() - 1.0) <= 1e-9 and held:
                    best = min(best, float(dist))
    return best


def polytope_vertices_2d(a, b):
    """Vertices of {s : a s <= b, s >= 0} in the plane by pairwise line solves."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    rows = np.vstack([a, -np.eye(2)])
    rhs = np.concatenate([b, np.zeros(2)])
    verts = []
    for i, j in itertools.combinations(range(rows.shape[0]), 2):
        mat = rows[[i, j]]
        if abs(np.linalg.det(mat)) <= 1e-10:
            continue
        p = np.linalg.solve(mat, rhs[[i, j]])
        if np.all(rows @ p <= rhs + 1e-9):
            verts.append(p)
    return verts


def max_linear_over_polytope(c, a, b) -> float:
    """max c.s over the polytope, via vertex enumeration."""
    verts = polytope_vertices_2d(a, b)
    assert verts, "polytope has no vertices"
    return max(float(np.asarray(c) @ v) for v in verts)


def pareto_min_filter(points, eq_tol: float = 1e-9, strict_tol: float = 1e-9):
    """Indices of minimization-Pareto points (no other point <= with a gap)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    keep = []
    for i in range(pts.shape[0]):
        dominated = False
        for j in range(pts.shape[0]):
            if i == j:
                continue
            if np.all(pts[j] <= pts[i] + eq_tol) and (pts[i] - pts[j]).max() > strict_tol:
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return keep


def pareto_max_filter(points, eq_tol: float = 1e-9, strict_tol: float = 1e-9):
    """Indices of maximization-Pareto points (no other point >= with a gap).

    When near-ties put every point below another, all indices are kept.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    keep = []
    for i in range(pts.shape[0]):
        if not any(np.all(pts[i] <= pts[k] + eq_tol) and (pts[k] - pts[i]).max() > strict_tol
                   for k in range(pts.shape[0]) if k != i):
            keep.append(i)
    return keep or list(range(pts.shape[0]))


def recursive_compositions(total: int, parts: int):
    """Integer vectors >= 0 of length parts summing to total, ascending lexicographic, by recursion."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in recursive_compositions(total - head, parts - 1):
            yield (head,) + rest


def recursive_lattice_ids(resolution: int, spots: int) -> list:
    """(digit-string id, loading) of every integer spot loading >= 0 with total <= resolution."""
    out = []

    def rec(prefix, remaining, parts):
        if parts == 1:
            for last in range(remaining + 1):
                out.append(prefix + (last,))
            return
        for head in range(remaining + 1):
            rec(prefix + (head,), remaining - head, parts - 1)

    rec((), resolution, spots)
    return [("".join(map(str, grades)), grades) for grades in out]


def reference_image(objectives, scenarios, candidate) -> np.ndarray:
    """f(x; s) for one candidate, scenario by scenario: a table lookup or one M @ v."""
    rows = []
    for sid in scenarios.ids:
        if objectives.form == "table":
            rows.append(objectives.array[objectives.candidate_pos[candidate], objectives.scenario_pos[sid]])
        elif objectives.form == "affine_family":
            rows.append(objectives.array[objectives.scenario_pos[sid]] @ np.asarray(candidate, dtype=float))
        else:
            rows.append(objectives.array[objectives.candidate_pos[candidate]] @ scenarios.coords[sid])
    return np.array(rows, dtype=float)


def reference_value(u, y) -> float:
    """u(y) for one objective vector, by the one-point formulas.

    Weighted sum: the dot product w @ y.  p-norm: the sum of w_i |y_i - z_i|^p
    over n, then the scalar root np.float64(s) ** (1/p); the weighted max at
    p = inf.  Chebyshev: the max of w_i (y_i - z_i).  Constructive: the
    plain signed distance by a loop over the anchors (bit for bit, a zero
    read as 0.0), the hull one by hull_distance_enum (to rounding only).
    """
    y = np.asarray(y, dtype=float)
    kind = type(u).__name__
    if kind == "WeightedSum":
        return float(u.w @ y)
    if kind == "WeightedPNorm":
        dev = np.abs(y - u.ref)
        if np.isinf(u.p):
            return float((u.w * dev).max())
        return float(np.float64((u.w * dev**u.p).sum() / u.n) ** (1.0 / u.p))
    if kind == "Chebyshev":
        return float((u.w * (y - u.ref)).max())
    if u.mode == "plain":
        return min(float((y - z).max()) for z in u.anchors) + 0.0
    return hull_distance_enum(y, u.anchors)


def reference_worst_case(u, scenario_ids, values):
    """(max over scenarios of u, its scenario): a strict > scan, so ties keep the first."""
    best_val, best_sid = -np.inf, None
    for sid, y in zip(scenario_ids, values):
        v = reference_value(u, y)
        if v > best_val:
            best_val, best_sid = v, sid
    return best_val, best_sid


def sweep_minimum(instance, u, step: float = 0.001):
    """Worst-case minimum of u over a dense simplex lattice (dim 2 or 3)."""
    dim = instance.candidates.dim
    m = round(1.0 / step)
    best = None
    best_x = None
    if dim == 2:
        points = [(i / m, 1.0 - i / m) for i in range(m + 1)]
    else:
        points = [
            (i / m, j / m, 1.0 - i / m - j / m)
            for i in range(m + 1)
            for j in range(m + 1 - i)
        ]
    for x in points:
        img = instance.image(x)
        val = max(reference_value(u, yv) for yv in img.values)
        if best is None or val < best:
            best, best_x = val, x
    return best, best_x


def random_hull_query(rng):
    """One half-integer-grid hull query (y, anchors) in the plane.

    The grid keeps every dominance margin a chunky rational, so tolerance
    conventions cannot flip the oracle-vs-library verdict.
    """
    m = int(rng.integers(1, 6))
    anchors = rng.integers(0, 19, size=(m, 2)) / 2.0
    y = rng.integers(0, 19, size=2) / 2.0
    return y, anchors


# ---------------------------------------------------------------------------
# reference classifier: one candidate, one pair and one point at a time


class RefWitness(NamedTuple):
    kind: str
    point: np.ndarray
    gap: float
    anchor_id: object = None
    weights: object = None


def _ref_point(y, z, ids, eq_tol, strict_tol):
    """First anchor z[k] with y <= z[k] + eq_tol and a gap > strict_tol."""
    for k in range(z.shape[0]):
        if np.all(y <= z[k] + eq_tol) and (z[k] - y).max() > strict_tol:
            return RefWitness("point", z[k], float(np.maximum(z[k] - y, 0.0).sum()), ids[k])
    return None


def _ref_hull_lp(y, z, ids, eq_tol, strict_tol):
    from robpareto.linprog import LpProblem, lp_solve

    if np.any(y > z.max(axis=0) + eq_tol) or z.sum(axis=1).max() - y.sum() <= strict_tol:
        return None
    w = _ref_point(y, z, ids, 0.0, strict_tol)
    if w is not None:
        return w._replace(weights={w.anchor_id: 1.0})
    m = z.shape[0]
    res = lp_solve(LpProblem(c=-z.sum(axis=1), a_ub=-z.T, b_ub=-y,
                             a_eq=np.ones((1, m)), b_eq=np.array([1.0])))
    if res.status != "optimal":
        return None
    lam = res.x
    c = z.T @ lam
    if float(c.sum() - y.sum()) <= strict_tol:
        return None
    weights = {ids[k]: float(lam[k]) for k in range(m) if lam[k] > 1e-12}
    return RefWitness("hull", c, float(np.maximum(c - y, 0.0).sum()), None, weights)


def _ref_hull(y, z, ids, eq_tol, strict_tol):
    """Hull test with the plain eq_tol test as the fallback."""
    w = _ref_hull_lp(y, z, ids, eq_tol, strict_tol)
    if w is None:
        w = _ref_point(y, z, ids, eq_tol, strict_tol)
        if w is not None:
            w = w._replace(weights={w.anchor_id: 1.0})
    return w


def _ref_image_dominates(a_ids, a_vals, b_ids, b_vals, mode, eq_tol, strict_tol):
    test = _ref_point if mode == "plain" else _ref_hull
    witnesses = {}
    for sid, y in zip(a_ids, a_vals):
        w = test(y, b_vals, list(b_ids), eq_tol, strict_tol)
        if w is None:
            return None
        witnesses[sid] = w
    return witnesses


def _ref_search_order(cands):
    vertices = sorted((int(np.argmax(c)), i) for i, c in enumerate(cands)
                      if not isinstance(c, str) and max(c) == 1.0)
    first = [i for _, i in vertices]
    return first + [i for i in range(len(cands)) if i not in first]


def _ref_scan(images, order, j, target, mode, eq_tol, strict_tol):
    """(i, witnesses) of the first i != j in order whose image dominates target."""
    for i in order:
        if i == j:
            continue
        w = _ref_image_dominates(*images[i], *target, mode, eq_tol, strict_tol)
        if w is not None:
            return i, w
    return None


def reference_classify(instance, eq_tol: float = 1e-9, strict_tol: float = 1e-9) -> list:
    """Per candidate: (flags, {notion: (dominator index, witnesses)}).

    Flags are (robust, convex_hull, objectivewise, set_valued); a dominator
    is the first one in search order (simplex vertices, then enumeration).
    """
    cands = instance.candidate_list()
    images = [(instance.scenarios.ids, reference_image(instance.objectives, instance.scenarios, c))
              for c in cands]
    filtered = []
    for sids, v in images:
        keep = pareto_max_filter(v, eq_tol, strict_tol)
        filtered.append((tuple(sids[k] for k in keep), v[keep]))
    order = _ref_search_order(cands)
    base = "hull" if instance.scenario_hull else "plain"
    out = []
    for j in range(len(cands)):
        doms = {}
        for notion, imgs, mode in (("robust", images, base), ("convex_hull", images, "hull"),
                                   ("set_valued", filtered, base)):
            hit = _ref_scan(imgs, order, j, imgs[j], mode, eq_tol, strict_tol)
            if hit is not None:
                doms[notion] = hit
        corner = (["sup-corner"], images[j][1].max(axis=0)[None, :])
        hit = _ref_scan(images, order, j, corner, "plain", eq_tol, strict_tol)
        if hit is not None:
            doms["objectivewise"] = hit
        flags = tuple(k not in doms for k in ("robust", "convex_hull", "objectivewise", "set_valued"))
        out.append((flags, doms))
    return out
