"""Efficiency certificates for candidates of a robust multiobjective instance.

classify() labels every candidate under four notions, each defined by the set
that is allowed to dominate:

- robust_efficient: the image points themselves,
- convex_hull_efficient: their convex hull,
- objectivewise_efficient: the single componentwise-max corner,
- set_valued_minimizer: minimality of the max-sense Pareto filter of the
  image under the set order "A below B iff A sits inside B minus the
  punctured nonnegative cone, or A equals B".

Every false label carries a dominator plus per-point witnesses that re-verify
under the geometry operations.  The reported dominator is the first one in
search order: simplex vertices first, then enumeration order.

Convex-hull efficiency implies robust efficiency under the same tolerances:
the hull test falls back to the plain point test within eq_tol wherever its
exact path finds nothing, so plain dominance implies hull dominance by
construction.  classify still asserts that nesting on every run.

The scans work on blocks of _BLOCK candidates j at a time.  For each block,
two necessary conditions for "i dominates j" are built as (block, N) masks
with columns in search order: the sup-box mask sup_i <= sup_j + eq_tol and
the max-sum mask maxsum_i < maxsum_j - margin.  The robust and hull scans
share one pair of masks, the set-valued scan builds its own from the
filtered images, and the objectivewise inside test is the sup-box mask
itself.  Each j then walks only its surviving columns, in order, and stops
at the first dominator.  Every comparison is the one the per-pair tests
make, so labels and witnesses do not depend on the blocking.

On instances marked scenario_hull the listed scenarios generate a convex
uncertainty set, the attainable image is the hull of the points, and the
plain notions coincide with their hull counterparts by construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Candidate, Instance, ObjectiveImage, SimplexCandidates, candidate_label
from .geometry import EQ_TOL, STRICT_TOL, image_dominates, point_witnesses

_BLOCK = 64  # candidates per precheck block; masks are (_BLOCK, N), never N x N

LABELS = ("robust", "convex_hull", "objectivewise", "set_valued")


@dataclass(eq=False)
class Dominator:
    candidate: Candidate
    witnesses: dict  # scenario id of the dominating image -> DominanceWitness

    @property
    def label(self) -> str:
        return candidate_label(self.candidate)


@dataclass(eq=False)
class CandidateResult:
    candidate: Candidate
    robust_efficient: bool
    convex_hull_efficient: bool
    objectivewise_efficient: bool
    set_valued_minimizer: bool
    dominators: dict  # label name -> Dominator, only for false labels

    @property
    def label(self) -> str:
        return candidate_label(self.candidate)

    def flag(self, kind: str) -> bool:
        return {
            "robust": self.robust_efficient,
            "convex_hull": self.convex_hull_efficient,
            "objectivewise": self.objectivewise_efficient,
            "set_valued": self.set_valued_minimizer,
        }[kind]


@dataclass(eq=False)
class EfficiencyReport:
    instance: Instance
    results: list

    def result_for(self, candidate) -> CandidateResult:
        cand = self.instance.resolve_candidate(candidate)
        for r in self.results:
            if r.candidate == cand:
                return r
        raise KeyError(f"candidate {candidate!r} not in report")

    def efficient(self, kind: str) -> list:
        return [r.candidate for r in self.results if r.flag(kind)]


def pareto_filter_max(img: ObjectiveImage, eq_tol: float = EQ_TOL, strict_tol: float = STRICT_TOL) -> ObjectiveImage:
    """Drop points dominated in the maximization sense (another point >= with a gap).

    Near-ties can put every point below another ([1.000000001, 1] and
    [1, 1.000000001] each clear the other by a rounded 1.00000008e-9 >
    strict_tol); no point is then safely dominated and the image stays whole.
    """
    vals = img.values
    # above[i, k]: point k sits above point i
    above = (vals[None, :, :] >= vals[:, None, :] - eq_tol).all(axis=2) & (
        (vals[None, :, :] - vals[:, None, :]).max(axis=2) > strict_tol
    )
    keep = np.flatnonzero(~above.any(axis=1))
    if keep.size == 0:
        keep = np.arange(len(vals))
    ids = tuple(img.scenario_ids[i] for i in keep)
    return ObjectiveImage(img.candidate, ids, vals[keep])


def _search_order(candidates) -> np.ndarray:
    """Dominator scan order: simplex vertices first, then enumeration order.

    Vertex images generate an affine family, which makes them the canonical
    certificates to report when several candidates dominate.
    """
    vertices = []
    rest = []
    for i, c in enumerate(candidates):
        if not isinstance(c, str) and max(c) == 1.0:
            vertices.append((np.argmax(np.asarray(c)), i))
        else:
            rest.append(i)
    vertices.sort()
    return np.array([i for _, i in vertices] + rest, dtype=np.intp)


def _plain_pair(vals_a: np.ndarray, vals_b: np.ndarray, eq_tol: float, strict_tol: float) -> bool:
    diff = vals_b[None, :, :] - vals_a[:, None, :]
    ok = (diff >= -eq_tol).all(axis=2) & (diff.max(axis=2) > strict_tol)
    return bool(ok.any(axis=1).all())


class _BlockScan:
    """First-dominator scan over a list of images, a block of candidates j at a time.

    Any dominator i of j, plain or hull, satisfies sup_i <= sup_j + eq_tol
    (componentwise max corners) and maxsum_i < maxsum_j - margin (largest
    point sum).  blocks() yields both masks for _BLOCK candidates j at once,
    with columns in search order, so first_dominator walks only the
    survivors and its first hit is the first dominator in search order.
    """

    def __init__(self, images, order: np.ndarray, eq_tol: float, strict_tol: float):
        self.images = images
        self.order = order
        self.eq_tol = eq_tol
        self.strict_tol = strict_tol
        self.sup = np.array([img.values.max(axis=0) for img in images])
        self.maxsum = np.array([img.values.sum(axis=1).max() for img in images])
        n = self.sup.shape[1]
        # loosest total-sum margin a dominating image must clear in either mode
        self.margin = strict_tol - (n - 1) * eq_tol
        self._rank = np.empty(len(order), dtype=np.intp)
        self._rank[order] = np.arange(len(order))
        self._sup_ordered = np.ascontiguousarray(self.sup[order].T)  # (n, N)
        self._maxsum_ordered = self.maxsum[order]

    def blocks(self):
        """Yield (js, box, alive): box is the sup-box mask without j itself,
        alive adds the max-sum mask; both (len(js), N) in search order."""
        count = len(self.images)
        for start in range(0, count, _BLOCK):
            js = np.arange(start, min(start + _BLOCK, count))
            bound = self.sup[js] + self.eq_tol
            box = self._sup_ordered[0] <= bound[:, 0, None]
            for c in range(1, bound.shape[1]):
                box &= self._sup_ordered[c] <= bound[:, c, None]
            box[np.arange(len(js)), self._rank[js]] = False
            alive = box & (self._maxsum_ordered < (self.maxsum[js] - self.margin)[:, None])
            yield js, box, alive

    def first_dominator(self, j: int, alive: np.ndarray, mode: str) -> Optional[tuple]:
        """(i, witnesses) for the first surviving i that dominates j, or None."""
        b = self.images[j]
        for k in np.flatnonzero(alive):
            a = self.images[self.order[k]]
            if mode == "plain" and not _plain_pair(a.values, b.values, self.eq_tol, self.strict_tol):
                continue
            w = image_dominates(a, b, mode, eq_tol=self.eq_tol, strict_tol=self.strict_tol)
            if w is not None:
                return int(self.order[k]), w
        return None


def _objectivewise_owners(scan: _BlockScan, vals: np.ndarray, js, box) -> list:
    """Objectivewise dominator of each j in the block, or None.

    That is the first candidate in search order whose every point lies
    inside j's sup corner within eq_tol and below it by a gap > strict_tol.
    The sup-box mask is the inside test, since max(v) <= c holds iff
    all(v <= c); the gap test runs on the first survivor of every row at
    once, and walks on only where that one fails.
    """
    corners = scan.sup[js]
    first = scan.order[box.argmax(axis=1)]
    first_gapped = _gapped_below(corners[:, None, :], vals[first], scan.strict_tol)
    owners = []
    for b in range(len(js)):
        survivors = scan.order[np.flatnonzero(box[b])]
        if survivors.size == 0:
            owners.append(None)
        elif first_gapped[b]:
            owners.append(int(survivors[0]))
        else:
            owners.append(next((int(i) for i in survivors[1:]
                                if _gapped_below(corners[b], vals[i], scan.strict_tol)), None))
    return owners


def _gapped_below(corner, v, strict_tol: float):
    """Every point of v (last two axes) lies below corner by a gap > strict_tol."""
    return ((corner - v).max(axis=-1) > strict_tol).all(axis=-1)


def classify(instance: Instance, eq_tol: float = EQ_TOL, strict_tol: float = STRICT_TOL) -> EfficiencyReport:
    """Label every candidate, with re-verifiable dominator certificates."""
    cands = instance.candidate_list()
    vals = instance.image_tensor()
    images = [ObjectiveImage(c, instance.scenarios.ids, v) for c, v in zip(cands, vals)]
    order = _search_order(cands)
    base_mode = "hull" if instance.scenario_hull else "plain"

    scan = _BlockScan(images, order, eq_tol, strict_tol)
    set_scan = _BlockScan([pareto_filter_max(img, eq_tol, strict_tol) for img in images],
                            order, eq_tol, strict_tol)

    results = []
    for (js, box, alive), (_, _, set_alive) in zip(scan.blocks(), set_scan.blocks()):
        owners = _objectivewise_owners(scan, vals, js, box)
        for b, j in enumerate(js):
            robust = scan.first_dominator(j, alive[b], base_mode)
            # with scenario_hull both scans run in hull mode and agree
            hull = robust if base_mode == "hull" else scan.first_dominator(j, alive[b], "hull")
            if hull is None and robust is not None:
                raise RuntimeError(
                    f"invariant violated: candidate {candidate_label(cands[j])} is "
                    "convex-hull efficient but not robust efficient"
                )
            objectivewise = None
            if owners[b] is not None:
                found = point_witnesses(vals[owners[b]], scan.sup[j][None, :], ["sup-corner"],
                                        eq_tol=eq_tol, strict_tol=strict_tol)
                objectivewise = owners[b], dict(zip(images[owners[b]].scenario_ids, found))
            set_valued = set_scan.first_dominator(j, set_alive[b], base_mode)
            hits = {"robust": robust, "convex_hull": hull,
                    "objectivewise": objectivewise, "set_valued": set_valued}
            results.append(CandidateResult(
                candidate=cands[j],
                robust_efficient=robust is None,
                convex_hull_efficient=hull is None,
                objectivewise_efficient=objectivewise is None,
                set_valued_minimizer=set_valued is None,
                dominators={kind: Dominator(cands[hit[0]], hit[1])
                            for kind, hit in hits.items() if hit is not None},
            ))
    return EfficiencyReport(instance=instance, results=results)


def set_valued_minimizers(instance: Instance, eq_tol: float = EQ_TOL,
                          strict_tol: float = STRICT_TOL) -> list:
    """Candidates whose filtered image is minimal under the set order."""
    cands = instance.candidate_list()
    order = _search_order(cands)
    mode = "hull" if instance.scenario_hull else "plain"
    filtered = [pareto_filter_max(ObjectiveImage(c, instance.scenarios.ids, v), eq_tol, strict_tol)
                for c, v in zip(cands, instance.image_tensor())]
    scan = _BlockScan(filtered, order, eq_tol, strict_tol)
    return [cands[j] for js, _, alive in scan.blocks() for b, j in enumerate(js)
            if scan.first_dominator(j, alive[b], mode) is None]
