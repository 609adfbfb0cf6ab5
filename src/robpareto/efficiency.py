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

All four notions run one scan, _BlockScan.first_dominators, which decides
every pair as image_dominates does: robust and convex-hull test the image
itself, set-valued its filtered image, and objectivewise the one-point
image of its sup corner.  The scan tests candidates i in search order and
stops at the first dominator.  It sees only the i that pass two necessary
conditions, built for _BLOCK candidates j at a time as (block, N) masks:
the sup-box mask sup_i <= sup_j + eq_tol and a max-sum mask.  Both are
necessary in floating point, so labels and witnesses do not depend on the
masks or the blocking.  The set-valued scan builds its own masks from the
filtered images, and objectivewise uses the sup-box mask alone.

The first surviving pair of all rows of a block is decided at once, by one
geometry.decide_pairs call over stacked arrays: the image tensor, the
filtered images padded to one (N, S, n) array, or the (N, 1, n) sup
corners.  geometry.settle turns each pair the kernel keeps into
witnesses, solving the LP only for the hull points the kernel leaves to
it; a row whose first pair missed walks on, one image_dominates call per
pair.  No pair is decided twice.  A walk stops after about one pair on
the phantom, so nearly every pair is decided in the batch.

On instances marked scenario_hull the listed scenarios generate a convex
uncertainty set, the attainable image is the hull of the points, and the
plain notions coincide with their hull counterparts by construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Candidate, Instance, ObjectiveImage, SimplexCandidates, candidate_label
from .geometry import (EQ_TOL, STRICT_TOL, check_tolerances, decide_pairs, dominance_mask, image_dominates,
                       settle)

_BLOCK = 64  # candidates per precheck block; masks are (_BLOCK, N), never N x N

LABELS = ("robust", "convex_hull", "objectivewise", "set_valued")
_CORNER_IDS = ("sup-corner",)


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
    """First-dominator scan over a stack of images, a block of candidates j at a time.

    stack is (N, S, n) and images[i] the ObjectiveImage of row i; a row may
    repeat its first point as padding (see _padded_stack).  blocks() yields
    the sup-box and max-sum masks for _BLOCK candidates j at once, with
    columns in search order, so a scan over the survivors finds the first
    dominator in search order.
    """

    def __init__(self, images, stack: np.ndarray, order: np.ndarray, eq_tol: float, strict_tol: float):
        self.images = images
        self.stack = stack
        self.order = order
        self.eq_tol = eq_tol
        self.strict_tol = strict_tol
        self.sup = stack.max(axis=1)
        maxsum = stack.sum(axis=2).max(axis=1)
        size = np.abs(stack).sum(axis=2).max(axis=1)
        n = stack.shape[2]
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

    def first_dominators(self, js, mask: np.ndarray, mode: str, corners: bool = False) -> list:
        """Per row b of mask: (i, witnesses) for the first surviving i whose
        image dominates candidate js[b]'s image (or, with corners, its
        one-point sup corner), or None.

        One decide_pairs call decides the first survivor of every row, and
        geometry.settle builds the witnesses of each kept pair.  A row whose
        first pair missed, in the kernel or in settle, walks on from the next
        survivor, one image_dominates call per pair.
        """
        out = [None] * len(js)
        rows = np.flatnonzero(mask.any(axis=1))
        if rows.size == 0:
            return out
        ks = mask[rows].argmax(axis=1)
        doms = self.order[ks]
        targets = self.sup[:, None, :] if corners else self.stack
        found = decide_pairs(self.stack[doms], targets[js[rows]], mode, self.eq_tol, self.strict_tol)
        for p, (b, k, i) in enumerate(zip(rows.tolist(), ks.tolist(), doms.tolist())):
            j = js[b]
            ids = _CORNER_IDS if corners else self.images[j].scenario_ids
            z = targets[j][:len(ids)]  # without padding, as settle needs
            witnesses = settle(self.images[i].values, z, ids, found, p, mode, self.strict_tol)
            if witnesses is not None:
                out[b] = i, dict(zip(self.images[i].scenario_ids, witnesses))
                continue
            target = ObjectiveImage(self.images[j].candidate, ids, z) if corners else self.images[j]
            out[b] = self._walk(target, mask[b], k + 1, mode)
        return out

    def _walk(self, target: ObjectiveImage, alive: np.ndarray, start: int, mode: str) -> Optional[tuple]:
        """(i, witnesses) for the first surviving i from column start on whose
        image dominates target, or None."""
        for k in np.flatnonzero(alive[start:]) + start:
            i = int(self.order[k])
            w = image_dominates(self.images[i], target, mode, eq_tol=self.eq_tol, strict_tol=self.strict_tol)
            if w is not None:
                return i, w
        return None


def _padded_stack(images) -> np.ndarray:
    """The images' values as one read-only (N, longest, n) array, each short
    image padded by repeating its first point.

    A repeated point of a dominator is decided as its original, and a
    repeated anchor comes after its original, so padding changes no pair
    decision and no first hit; sup, max-sum and size are unchanged too.
    """
    counts = np.array([len(img) for img in images])
    flat = np.concatenate([img.values for img in images])
    pos = np.arange(counts.max())
    stack = flat[(np.cumsum(counts) - counts)[:, None] + np.where(pos < counts[:, None], pos, 0)]
    stack.flags.writeable = False
    return stack


def _filtered_scan(images, order: np.ndarray, eq_tol: float, strict_tol: float) -> _BlockScan:
    """Scan over the Pareto-filtered images, stacked by _padded_stack."""
    filtered = [pareto_filter_max(img, eq_tol, strict_tol) for img in images]
    return _BlockScan(filtered, _padded_stack(filtered), order, eq_tol, strict_tol)


def classify(instance: Instance, eq_tol: float = EQ_TOL, strict_tol: float = STRICT_TOL) -> EfficiencyReport:
    """Label every candidate, with re-verifiable dominator certificates."""
    check_tolerances(eq_tol, strict_tol)
    cands = instance.candidate_list()
    vals = instance.image_tensor()
    images = [ObjectiveImage(c, instance.scenarios.ids, v) for c, v in zip(cands, vals)]
    order = _search_order(cands)
    base_mode = "hull" if instance.scenario_hull else "plain"

    scan = _BlockScan(images, vals, order, eq_tol, strict_tol)
    set_scan = _filtered_scan(images, order, eq_tol, strict_tol)

    results = []
    for (js, box, alive), (_, _, set_alive) in zip(scan.blocks(), set_scan.blocks()):
        robust = scan.first_dominators(js, alive, base_mode)
        # with scenario_hull both scans run in hull mode and agree
        hull = robust if base_mode == "hull" else scan.first_dominators(js, alive, "hull")
        objectivewise = scan.first_dominators(js, box, "plain", corners=True)
        set_valued = set_scan.first_dominators(js, set_alive, base_mode)
        for j, *hit in zip(js, robust, hull, objectivewise, set_valued):
            hits = dict(zip(LABELS, hit))
            if hits["convex_hull"] is None and hits["robust"] is not None:
                raise RuntimeError(
                    f"invariant violated: candidate {candidate_label(cands[j])} is "
                    "convex-hull efficient but not robust efficient"
                )
            results.append(CandidateResult(
                candidate=cands[j],
                robust_efficient=hits["robust"] is None,
                convex_hull_efficient=hits["convex_hull"] is None,
                objectivewise_efficient=hits["objectivewise"] is None,
                set_valued_minimizer=hits["set_valued"] is None,
                dominators={kind: Dominator(cands[h[0]], h[1]) for kind, h in hits.items() if h is not None},
            ))
    return EfficiencyReport(instance=instance, results=results)


def set_valued_minimizers(instance: Instance, eq_tol: float = EQ_TOL,
                          strict_tol: float = STRICT_TOL) -> list:
    """Candidates whose filtered image is minimal under the set order."""
    check_tolerances(eq_tol, strict_tol)
    cands = instance.candidate_list()
    mode = "hull" if instance.scenario_hull else "plain"
    images = [ObjectiveImage(c, instance.scenarios.ids, v) for c, v in zip(cands, instance.image_tensor())]
    scan = _filtered_scan(images, _search_order(cands), eq_tol, strict_tol)
    return [cands[j] for js, _, alive in scan.blocks()
            for j, hit in zip(js, scan.first_dominators(js, alive, mode)) if hit is None]
