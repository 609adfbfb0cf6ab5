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

All four notions run one walk, _BlockScan.first_dominator, which decides
every pair by image_dominates alone: robust and convex-hull test the image
itself, set-valued its filtered image, and objectivewise the one-point
image of its sup corner.  The walk tests candidates i in search order and
stops at the first dominator.  It sees only the i that pass two necessary
conditions, built for _BLOCK candidates j at a time as (block, N) masks:
the sup-box mask sup_i <= sup_j + eq_tol and a max-sum mask.  Both are
necessary in floating point, so labels and witnesses do not depend on the
masks or the blocking.  The set-valued scan builds its own masks from the
filtered images, and objectivewise walks the sup-box mask alone.

On instances marked scenario_hull the listed scenarios generate a convex
uncertainty set, the attainable image is the hull of the points, and the
plain notions coincide with their hull counterparts by construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Candidate, Instance, ObjectiveImage, SimplexCandidates, candidate_label
from .geometry import EQ_TOL, STRICT_TOL, dominance_mask, image_dominates

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
    # row i, column k: point k sits above point i
    keep = np.flatnonzero(~dominance_mask(vals, vals, eq_tol, strict_tol).any(axis=1))
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


class _BlockScan:
    """First-dominator scan over a list of images, a block of candidates j at a time.

    blocks() yields the sup-box and max-sum masks for _BLOCK candidates j at
    once, with columns in search order, so first_dominator walks only the
    survivors and its first hit is the first dominator in search order.
    """

    def __init__(self, images, order: np.ndarray, eq_tol: float, strict_tol: float):
        self.images = images
        self.order = order
        self.eq_tol = eq_tol
        self.strict_tol = strict_tol
        self.sup = np.array([img.values.max(axis=0) for img in images])
        maxsum = np.array([img.values.sum(axis=1).max() for img in images])
        size = np.array([np.abs(img.values).sum(axis=1).max() for img in images])
        n = self.sup.shape[1]
        # Any dominator i of j has every point y below a point z of j within
        # eq_tol in each coordinate (the plain test and the hull fallback) or
        # has sum(y) < maxsum_j (the hull prechecks), so maxsum_i <= maxsum_j
        # + n * eq_tol in exact arithmetic.  In floating point the sums, the
        # rounded z + eq_tol and the two sides of the test below add at most
        # n + 3 roundings of eps / 2 times the magnitude involved: the largest
        # point sum of absolute values, plus n * eq_tol.  Widening by
        # (n + 2) * eps times that magnitude covers them with room to spare,
        # so the mask stays a necessary condition (for nonnegative tolerances).
        ulps = (n + 2) * np.finfo(float).eps
        self._low = (maxsum - ulps * size)[order]
        self._high = maxsum + n * eq_tol + ulps * (size + n * eq_tol)
        self._rank = np.empty(len(order), dtype=np.intp)
        self._rank[order] = np.arange(len(order))
        self._sup_ordered = np.ascontiguousarray(self.sup[order].T)  # (n, N)

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
            alive = box & (self._low <= self._high[js][:, None])
            yield js, box, alive

    def first_dominator(self, b: ObjectiveImage, alive: np.ndarray, mode: str) -> Optional[tuple]:
        """(i, witnesses) for the first surviving i whose image dominates b, or None."""
        for k in np.flatnonzero(alive):
            i = int(self.order[k])
            w = image_dominates(self.images[i], b, mode, eq_tol=self.eq_tol, strict_tol=self.strict_tol)
            if w is not None:
                return i, w
        return None


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
        for b, j in enumerate(js):
            robust = scan.first_dominator(images[j], alive[b], base_mode)
            # with scenario_hull both scans run in hull mode and agree
            hull = robust if base_mode == "hull" else scan.first_dominator(images[j], alive[b], "hull")
            if hull is None and robust is not None:
                raise RuntimeError(
                    f"invariant violated: candidate {candidate_label(cands[j])} is "
                    "convex-hull efficient but not robust efficient"
                )
            corner = ObjectiveImage(cands[j], ("sup-corner",), scan.sup[j][None])
            objectivewise = scan.first_dominator(corner, box[b], "plain")
            set_valued = set_scan.first_dominator(set_scan.images[j], set_alive[b], base_mode)
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
            if scan.first_dominator(filtered[j], alive[b], mode) is None]
