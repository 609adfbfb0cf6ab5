"""Scalarizers and worst-case evaluation.

Every scalarizer has one evaluator, values(ys), mapping objective vectors
of shape (..., n) to scalars of shape (...); value(y), worst_case, the
sweeps in solve and the testing harness are all calls of it.  Each
scalarizer declares its monotonicity class and convexity instead of
inferring them: increasing (never decreases under componentwise <=),
strictly_increasing (strict under componentwise <), strongly_increasing
(strict whenever <= holds with at least one strict coordinate).  The p-norm
family's claims hold on the region y >= reference, which every shipped study
respects by anchoring the reference at the origin below attainable values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .core import (
    AffineFamilyObjectives,
    Candidate,
    Instance,
    ObjectiveImage,
    SimplexCandidates,
    candidate_label,
)
from . import geometry
from .linprog import LpProblem

INCREASING = "increasing"
STRICTLY_INCREASING = "strictly_increasing"
STRONGLY_INCREASING = "strongly_increasing"

_MONO_RANK = {INCREASING: 0, STRICTLY_INCREASING: 1, STRONGLY_INCREASING: 2}


def monotone_at_least(u: "Scalarizer", level: str) -> bool:
    return _MONO_RANK[u.monotonicity] >= _MONO_RANK[level]


def _vector(v, n: int, what: str) -> np.ndarray:
    """A read-only finite vector of length n; a length-one v broadcasts."""
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.shape[0] == 1 and n > 1:
        arr = np.full(n, float(arr[0]))
    if arr.shape[0] != n:
        raise ValueError(f"{what} has length {arr.shape[0]}, expected {n}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")
    arr.flags.writeable = False
    return arr


def _weight_vector(w, n: int, positive: bool) -> np.ndarray:
    arr = _vector(w, n, "weight vector")
    if positive:
        if np.any(arr <= 0):
            raise ValueError("weights must be strictly positive")
    else:
        if np.any(arr < 0) or not np.any(arr > 0):
            raise ValueError("weights must be nonnegative and not all zero")
    return arr


def _weights_and_ref(w, ref, n: Optional[int]) -> tuple:
    """Positive weights, a reference point (default 0) and n, by default the longer length."""
    if n is None:
        n = max(np.atleast_1d(w).shape[0], 1 if ref is None else np.atleast_1d(ref).shape[0])
    return _weight_vector(w, n, positive=True), _vector(0.0 if ref is None else ref, n, "reference point"), n


def _fmt_num(v: float) -> str:
    return format(v, ".10g")


def _fmt_vec(arr) -> str:
    return ",".join(_fmt_num(v) for v in arr)


class Scalarizer:
    """Base: a real-valued function of objective vectors with declared structure."""

    monotonicity: str = INCREASING
    convex: bool = False
    linear: bool = False
    n: int

    def values(self, ys) -> np.ndarray:
        """u of each objective vector along the last axis: shape (..., n) -> (...)."""
        raise NotImplementedError

    def value(self, y) -> float:
        arr = np.asarray(y, dtype=float)
        if arr.shape != (self.n,):
            raise ValueError(f"expected an objective vector of length {self.n}, got shape {arr.shape}")
        return float(self.values(arr))

    def __call__(self, y) -> float:
        return self.value(y)

    def _rows(self, ys) -> np.ndarray:
        arr = np.asarray(ys, dtype=float)
        if arr.ndim == 0 or arr.shape[-1] != self.n:
            raise ValueError(f"expected objective vectors of length {self.n}, got shape {arr.shape}")
        return arr


class WeightedSum(Scalarizer):
    """u(y) = w . y with w >= 0, w != 0.  Strongly increasing iff w > 0; linear."""

    convex = True
    linear = True

    def __init__(self, w, n: Optional[int] = None):
        self.w = _weight_vector(w, n if n is not None else np.atleast_1d(w).shape[0], positive=False)
        self.n = self.w.shape[0]
        self.monotonicity = STRONGLY_INCREASING if np.all(self.w > 0) else STRICTLY_INCREASING
        self.name = f"wsum:w={_fmt_vec(self.w)}"

    def values(self, ys) -> np.ndarray:
        # 1-by-n products equal w @ y bit for bit; ys @ w and (ys * w).sum(-1) do not
        return np.matmul(self._rows(ys)[..., None, :], self.w)[..., 0]


class WeightedPNorm(Scalarizer):
    """u(y) = (sum_i w_i |y_i - z_i|^p / n)^(1/p); p = inf is max_i w_i |y_i - z_i|.

    Strongly increasing on {y >= z} for finite p, strictly increasing at
    p = inf; convex for p >= 1.
    """

    convex = True

    def __init__(self, w, p: float, ref=None, n: Optional[int] = None):
        if not (p >= 1):
            raise ValueError(f"p must be >= 1 (or inf), got {p}")
        self.p = float(p)
        self.w, self.ref, self.n = _weights_and_ref(w, ref, n)
        self.monotonicity = STRICTLY_INCREASING if math.isinf(self.p) else STRONGLY_INCREASING
        ptxt = "inf" if math.isinf(self.p) else _fmt_num(self.p)
        self.name = f"pnorm:p={ptxt},w={_fmt_vec(self.w)},ref={_fmt_vec(self.ref)}"

    def values(self, ys) -> np.ndarray:
        dev = np.abs(self._rows(ys) - self.ref)
        if math.isinf(self.p):
            return (self.w * dev).max(axis=-1)
        total = (self.w * dev**self.p).sum(axis=-1) / self.n
        # the scalar power per element: numpy's array power can differ in the last bit
        return np.asarray(np.asarray(total, dtype=object) ** (1.0 / self.p), dtype=float)


class Chebyshev(Scalarizer):
    """u(y) = max_i w_i (y_i - z_i), signed.  Strictly (not strongly) increasing; convex."""

    convex = True

    def __init__(self, w, ref=None, n: Optional[int] = None):
        self.w, self.ref, self.n = _weights_and_ref(w, ref, n)
        self.monotonicity = STRICTLY_INCREASING
        self.name = f"chebyshev:w={_fmt_vec(self.w)},ref={_fmt_vec(self.ref)}"

    def values(self, ys) -> np.ndarray:
        return (self.w * (self._rows(ys) - self.ref)).max(axis=-1)


class SignedDistanceScalarizer(Scalarizer):
    """Signed distance to (anchor set) - R^n_+, the constructive certificate function.

    Zero on the anchor generators' upper boundary, negative strictly inside.
    Strictly increasing in either mode; convex in hull mode only.  The
    anchors are checked once, here: a non-empty, finite (m, n) array.
    values is one geometry.signed_distance call over all points, so
    value(y) equals the matching row of values bit for bit.
    """

    def __init__(self, anchors, mode: str = "plain", source: Optional[str] = None):
        self.anchors = geometry.anchor_matrix(anchors)
        if mode not in geometry.MODES:
            raise ValueError(f"mode must be one of {geometry.MODES}, got {mode!r}")
        self.mode = mode
        self.n = self.anchors.shape[1]
        self.monotonicity = STRICTLY_INCREASING
        self.convex = mode == "hull"
        anchor_txt = source if source is not None else "custom"
        self.name = f"construct:anchor={anchor_txt},mode={mode}"

    def values(self, ys) -> np.ndarray:
        return np.asarray(geometry.signed_distance(self._rows(ys), self.anchors, self.mode))


class WorstCase(NamedTuple):
    value: float
    scenario_id: str


def worst_case(u: Scalarizer, img: ObjectiveImage) -> WorstCase:
    """max over scenarios of u(f(x; s)); ties keep the first scenario in order."""
    vals = u.values(img.values)
    worst = int(np.argmax(vals))
    return WorstCase(float(vals[worst]), img.scenario_ids[worst])


@dataclass(eq=False)
class EpigraphLp:
    """min lambda over (x, lambda) with lambda >= u(f(x; s)) for every s.

    Variables are the k barycentric coordinates followed by lambda; rows
    follow scenario order.
    """

    problem: LpProblem
    scenario_ids: tuple
    dim: int


@dataclass(eq=False)
class EpigraphEvaluation:
    """Per-scenario constraint levels at a fixed candidate; min feasible lambda is their max."""

    candidate: Candidate
    per_scenario: list  # (scenario id, u(f(x; s)))
    min_lambda: float


def epigraph_form(instance: Instance, u: Scalarizer, candidate=None):
    """Epigraph of the worst-case objective.

    With candidate=None (linear u over an affine family on the simplex) the
    joint LP in (x, lambda) is returned; its optimum equals the exact
    worst-case minimum over the continuous simplex.  With a candidate given,
    the evaluated constraint list is returned for any scalarizer.
    """
    if candidate is not None:
        img = instance.image(candidate)
        vals = u.values(img.values)
        return EpigraphEvaluation(
            candidate=img.candidate,
            per_scenario=list(zip(img.scenario_ids, vals.tolist())),
            min_lambda=float(vals.max()),
        )
    if not u.linear:
        raise ValueError("joint epigraph LP needs a linear scalarizer; pass a candidate instead")
    if not isinstance(instance.objectives, AffineFamilyObjectives) or not isinstance(
        instance.candidates, SimplexCandidates
    ):
        raise ValueError("joint epigraph LP needs an affine family over simplex candidates")
    k = instance.candidates.dim
    sids = instance.scenarios.ids
    family = instance.objectives
    # scenario rows: w^T V_s x - lambda <= 0
    a_ub = np.zeros((len(sids), k + 1))
    for r, sid in enumerate(sids):
        a_ub[r, :k] = u.w @ family.array[family.scenario_pos[sid]]
        a_ub[r, k] = -1.0
    a_eq = np.zeros((1, k + 1))
    a_eq[0, :k] = 1.0
    c = np.zeros(k + 1)
    c[k] = 1.0
    free = np.array([False] * k + [True])
    problem = LpProblem(c=c, a_ub=a_ub, b_ub=np.zeros(len(sids)), a_eq=a_eq, b_eq=np.array([1.0]), free=free)
    return EpigraphLp(problem=problem, scenario_ids=sids, dim=k)


def dual_reformulate(instance: Instance, w, candidate) -> LpProblem:
    """LP-dual of max_{s in S} w.F(x)s over S = {s : As <= b, s >= 0}.

    Returns: min b.y  s.t.  A^T y >= F(x)^T w,  y >= 0.  An unbounded primal
    (S unbounded in an improving direction) shows up as an infeasible dual.
    """
    if instance.objectives.form != "linear_in_s":
        raise ValueError("dual reformulation needs linear-in-s objectives")
    if instance.scenarios.polyhedral_form is None:
        raise ValueError("dual reformulation needs a polyhedral scenario set")
    cand = instance.resolve_candidate(candidate)
    f_mat = instance.objectives.array[instance.objectives.candidate_pos[cand]]
    wv = _weight_vector(w, instance.n, positive=False)
    a, b = instance.scenarios.polyhedral_form
    rhs = f_mat.T @ wv
    return LpProblem(c=b, a_ub=-a.T, b_ub=-rhs)


def constructive_scalarizer(instance: Instance, candidate, mode: str = "plain") -> SignedDistanceScalarizer:
    """The certificate scalarizer anchored at one candidate's image.

    Its worst case over the anchor candidate is exactly 0, and efficiency of
    the anchor makes every other candidate's worst case nonnegative.
    """
    img = instance.image(candidate)
    return SignedDistanceScalarizer(img, mode=mode, source=candidate_label(img.candidate))


def catalog(n: int, ref=None) -> list:
    """A deterministic spread of scalarizers used by the property harnesses."""
    out: list = [WeightedSum(np.ones(n) / n)]
    if n > 1:
        lead = np.zeros(n)
        lead[0] = 1.0
        out.append(WeightedSum(lead))
        ramp = np.arange(1.0, n + 1.0)
        out.append(WeightedSum(ramp / ramp.sum()))
    for p in (1.0, 2.0, 10.0, math.inf):
        out.append(WeightedPNorm(np.ones(n), p, ref=ref, n=n))
    out.append(Chebyshev(np.ones(n), ref=ref, n=n))
    return out
