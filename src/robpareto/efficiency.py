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

All four notions run one scan, _BlockScan.first_dominators, over arrays
alone: a read-only (N, S, n) stack of points, each row padded by
repeating its first point, and a tuple of scenario ids per row.  Robust
and convex-hull efficiency scan the image tensor; set-valued scans the
Pareto filters, gathered from the (N, S) mask of one pareto_filter_max
call; objectivewise tests the image tensor against the (N, 1, n) sup
corners.  Every pair is decided as image_dominates decides it, candidates
i in search order, up to the first dominator.  The scan sees only the i
that pass two necessary conditions, built for _BLOCK candidates j at a
time as (block, N) masks: the sup-box mask sup_i <= sup_j + eq_tol and a
max-sum mask (objectivewise uses the first alone).  Both are necessary
in floating point, so labels and witnesses do not depend on the masks or
the blocking.

The scan decides pairs in rounds: one geometry.decide_pairs call decides
the current surviving pair of every open row of a block.  A kept pair
with no point left to the LP is stored as arrays, one _Certificates per
notion: the dominator's position and each point's anchor and gap.
geometry.settle solves the LP points of the other kept pairs and stores
their witnesses.  A row whose pair missed, in the kernel or in settle,
moves on to its next surviving column for the next round, and a row with
none left is efficient.  No pair is decided twice, and the rounds decide
each row's pairs in search order.  On the phantom nearly every row hits
in the first round.

Witness objects are built only when read, by Dominator.witnesses; the
CSV, efficient() and dominator_index() read the arrays alone.

On instances marked scenario_hull the listed scenarios generate a convex
uncertainty set, the attainable image is the hull of the points, and the
plain notions coincide with their hull counterparts by construction.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .core import Candidate, Instance, candidate_label
from .geometry import (_CHUNK, EQ_TOL, STRICT_TOL, anchor_witnesses, check_tolerances, decide_pairs,
                       dominance_mask, settle)

_BLOCK = 64  # candidates per precheck block; masks are (_BLOCK, N), never N x N

LABELS = ("robust", "convex_hull", "objectivewise", "set_valued")


@dataclass(eq=False)
class Dominator:
    """A candidate's first dominator under one notion.

    witnesses maps each scenario id of the dominating image to its
    DominanceWitness.  It is built from the notion's certificate arrays on
    first read and then cached, so reading candidate or label builds no
    witness.
    """

    candidate: Candidate
    _certificates: "_Certificates" = field(repr=False)
    _target: int = field(repr=False)  # position of the dominated candidate
    _witnesses: Optional[dict] = field(default=None, repr=False)

    @property
    def label(self) -> str:
        return candidate_label(self.candidate)

    @property
    def witnesses(self) -> dict:
        if self._witnesses is None:
            self._witnesses = self._certificates.witnesses(self._target)
        return self._witnesses


@dataclass(eq=False)
class CandidateResult:
    """One candidate's four labels and, for each false one, its Dominator.

    EfficiencyReport.results builds these from the arrays on first read.
    """

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
    """classify's labels and certificates, kept as one _Certificates per notion.

    candidates are in candidate_list() order.  dominator_index and efficient
    read the arrays alone; results builds one CandidateResult per candidate
    on first read.
    """

    instance: Instance
    candidates: list
    _certificates: dict = field(repr=False)  # label name -> _Certificates

    def dominator_index(self, kind: str) -> np.ndarray:
        """Read-only (N,) position in candidates of each candidate's first
        dominator under kind, -1 where the candidate is efficient."""
        try:
            return self._certificates[kind].dominator
        except KeyError:
            raise ValueError(f"unknown efficiency notion {kind!r}, expected one of {LABELS}") from None

    def efficient(self, kind: str) -> list:
        return [self.candidates[j] for j in np.flatnonzero(self.dominator_index(kind) < 0).tolist()]

    @cached_property
    def results(self) -> list:
        notions = list(self._certificates.items())
        columns = [certificates.dominator.tolist() for _, certificates in notions]
        results = []
        for j, (candidate, *doms) in enumerate(zip(self.candidates, *columns)):
            dominators = {kind: Dominator(self.candidates[i], certificates, j)
                          for (kind, certificates), i in zip(notions, doms) if i >= 0}
            results.append(CandidateResult(candidate, *[i < 0 for i in doms], dominators))
        return results

    @cached_property
    def _positions(self) -> dict:
        return {c: j for j, c in enumerate(self.candidates)}

    def result_for(self, candidate) -> CandidateResult:
        j = self._positions.get(self.instance.resolve_candidate(candidate))
        if j is None:
            raise KeyError(f"candidate {candidate!r} not in report")
        return self.results[j]


def pareto_filter_max(values, eq_tol: float = EQ_TOL, strict_tol: float = STRICT_TOL) -> np.ndarray:
    """(..., S) mask of the points of each (..., S, n) image that no other
    point of it dominates in the maximization sense (another point >= with a gap).

    Near-ties can put every point below another ([1.000000001, 1] and
    [1, 1.000000001] each clear the other by a rounded 1.00000008e-9 >
    strict_tol); no point is then safely dominated and the image stays whole.
    Images go through in chunks of bounded memory.
    """
    check_tolerances(eq_tol, strict_tol)
    vals = np.asarray(values, dtype=float)
    if vals.ndim < 2:
        raise ValueError(f"values must have shape (..., S, n), got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite")
    images = vals.reshape(-1, *vals.shape[-2:])
    keep = np.empty(images.shape[:2], dtype=bool)
    step = max(1, _CHUNK // max(1, images.shape[1] ** 2))
    for lo in range(0, len(images), step):
        chunk = images[lo:lo + step]
        # row i, column k: point k sits above point i
        keep[lo:lo + step] = ~dominance_mask(chunk, chunk, eq_tol, strict_tol).any(axis=-1)
    keep[~keep.any(axis=-1)] = True
    return keep.reshape(vals.shape[:-1])


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


class _Certificates:
    """One notion's first dominators, filled block by block by _BlockScan.first_dominators.

    dominator[j] is candidate j's first dominator in search order, -1 where
    j is efficient.  A pair the kernel settles alone keeps decide_pairs'
    anchor and gap rows in anchor[j] and gap[j]; a pair settled by the LP
    keeps its witness dict in settled[j].  witnesses(j) builds the point
    witnesses from the arrays when they are read.

    targets is a (stack, ids) pair laid out as the scan's own rows, which it
    defaults to; row j holds candidate j's target.
    """

    def __init__(self, scan: "_BlockScan", mode: str, targets: Optional[tuple] = None):
        count, width = scan.stack.shape[:2]
        self.scan = scan
        self.mode = mode
        self.targets, self.target_ids = targets or (scan.stack, scan.ids)
        self.dominator = np.full(count, -1, dtype=np.intp)
        # read only in rows that first_dominators writes
        self.anchor = np.empty((count, width), dtype=np.intp)
        self.gap = np.empty((count, width))
        self.settled = {}

    def target(self, j: int) -> tuple:
        """(z, ids): candidate j's target rows without padding, and their ids."""
        ids = self.target_ids[j]
        return self.targets[j][:len(ids)], ids

    def witnesses(self, j: int) -> dict:
        """Scenario id of the dominating image -> witness, for dominated candidate j."""
        found = self.settled.get(j)
        if found is not None:
            return found
        ids = self.scan.ids[self.dominator[j]]
        rows = len(ids)  # the padded rows repeat the first
        z, target_ids = self.target(j)
        return dict(zip(ids, anchor_witnesses(z, target_ids, self.anchor[j, :rows], self.gap[j, :rows], self.mode)))


class _BlockScan:
    """First-dominator scan over a stack of images, a block of candidates j at a time.

    Row i of stack holds candidates[i]'s points, named by ids[i] and padded
    by repeating the first.  blocks() yields the sup-box and max-sum masks
    for _BLOCK candidates j at once, with columns in search order, so a scan
    over the survivors finds the first dominator in search order.
    """

    def __init__(self, stack: np.ndarray, ids: list, order: np.ndarray, eq_tol: float, strict_tol: float):
        self.stack = stack
        self.ids = ids
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
        count = len(self.stack)
        for start in range(0, count, _BLOCK):
            js = np.arange(start, min(start + _BLOCK, count))
            bound = self.sup[js] + self.eq_tol
            box = self._sup_ordered[0] <= bound[:, 0, None]
            for c in range(1, bound.shape[1]):
                box &= self._sup_ordered[c] <= bound[:, c, None]
            box[np.arange(len(js)), self._rank[js]] = False
            alive = box & (self._low <= self._high[js][:, None])
            yield js, box, alive

    def first_dominators(self, js, mask: np.ndarray, certificates: _Certificates) -> None:
        """Record in certificates, per row b of mask, the first surviving i
        whose image dominates candidate js[b]'s target.

        Each round decides the current pair of every open row in one
        decide_pairs call: kept pairs with no LP point are written as their
        anchor and gap rows, the other kept pairs go through settle, and a
        row that missed moves on to its next surviving column."""
        mode = certificates.mode
        rows = np.flatnonzero(mask.any(axis=1))
        ks = mask[rows].argmax(axis=1)
        while rows.size:
            doms = self.order[ks]
            found = decide_pairs(self.stack[doms], certificates.targets[js[rows]], mode, self.eq_tol, self.strict_tol)
            hit = found.kept & ~found.lp.any(axis=1)
            done = js[rows[hit]]
            certificates.dominator[done] = doms[hit]
            certificates.anchor[done] = found.anchor[hit]
            certificates.gap[done] = found.gap[hit]
            for p in np.flatnonzero(found.kept & ~hit).tolist():
                i, j = int(doms[p]), int(js[rows[p]])
                z, ids = certificates.target(j)
                witnesses = settle(self.stack[i, :len(self.ids[i])], z, ids, found, p, mode, self.strict_tol)
                if witnesses is not None:
                    hit[p] = True
                    certificates.dominator[j] = i
                    certificates.settled[j] = dict(zip(self.ids[i], witnesses))
            rows, ks = rows[~hit], ks[~hit]
            later = mask[rows] & (np.arange(mask.shape[1]) > ks[:, None])
            left = later.any(axis=1)
            rows, ks = rows[left], later[left].argmax(axis=1)


def classify(instance: Instance, eq_tol: float = EQ_TOL, strict_tol: float = STRICT_TOL) -> EfficiencyReport:
    """Label every candidate, with re-verifiable dominator certificates."""
    cands = instance.candidate_list()
    vals = instance.image_tensor()
    keep = pareto_filter_max(vals, eq_tol, strict_tol)
    sids = instance.scenarios.ids
    order = _search_order(cands)
    # Each row's kept points, in scenario order, padded by repeating the
    # first.  A repeated point of a dominator is decided as its original,
    # and a repeated anchor comes after its original, so padding changes no
    # pair decision and no first hit; sup, max-sum and size are unchanged too.
    pos = np.argsort(~keep, axis=1, kind="stable")[:, :keep.sum(axis=1).max()]
    pos = np.where(np.take_along_axis(keep, pos, axis=1), pos, pos[:, :1])
    kept = np.take_along_axis(vals, pos[..., None], axis=1)
    kept.flags.writeable = False
    kept_ids = [tuple(itertools.compress(sids, row)) for row in keep.tolist()]
    scan = _BlockScan(vals, [sids] * len(cands), order, eq_tol, strict_tol)
    set_scan = _BlockScan(kept, kept_ids, order, eq_tol, strict_tol)
    base_mode = "hull" if instance.scenario_hull else "plain"
    robust = _Certificates(scan, base_mode)
    # with scenario_hull both notions run in hull mode and agree
    hull = robust if base_mode == "hull" else _Certificates(scan, "hull")
    objectivewise = _Certificates(scan, "plain", (scan.sup[:, None, :], [("sup-corner",)] * len(cands)))
    set_valued = _Certificates(set_scan, base_mode)
    for (js, box, alive), (_, _, set_alive) in zip(scan.blocks(), set_scan.blocks()):
        scan.first_dominators(js, alive, robust)
        if hull is not robust:
            scan.first_dominators(js, alive, hull)
        scan.first_dominators(js, box, objectivewise)
        set_scan.first_dominators(js, set_alive, set_valued)
    broken = np.flatnonzero((hull.dominator < 0) & (robust.dominator >= 0))
    if broken.size:
        raise RuntimeError(
            f"invariant violated: candidate {candidate_label(cands[broken[0]])} is "
            "convex-hull efficient but not robust efficient"
        )
    notions = dict(zip(LABELS, (robust, hull, objectivewise, set_valued)))
    for certificates in notions.values():
        certificates.dominator.flags.writeable = False
    return EfficiencyReport(instance, cands, notions)


def set_valued_minimizers(instance: Instance, eq_tol: float = EQ_TOL,
                          strict_tol: float = STRICT_TOL) -> list:
    """Candidates whose filtered image is minimal under the set order."""
    return classify(instance, eq_tol, strict_tol).efficient("set_valued")
