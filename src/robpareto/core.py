"""Problem model: decision candidates, scenario sets, uncertain objective maps.

An Instance bundles n objectives, a finite scenario set S, an objective map
f(x; s), and a candidate space X.  Everything downstream (dominance tests,
efficiency certificates, scalarized solves) consumes images f(x; S) produced
here by _image_values, the one evaluator of the objective forms:
Instance.image_tensor() holds all images as one read-only (N, |S|, n) array,
and Instance.image() is a one-row call for any candidate.  Instances are
immutable after construction; arrays are marked read-only.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

SIMPLEX_TOL = 1e-12
DEFAULT_STEP = 0.05

# a candidate is an explicit decision id or a barycentric point on the unit simplex
Candidate = Union[str, tuple]


def as_objective_vector(values, n: Optional[int] = None) -> np.ndarray:
    """Validate and freeze one point in objective space."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"objective vector must be 1-d, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"objective vector has length {arr.shape[0]}, expected {n}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("objective vector has non-finite entries")
    arr.flags.writeable = False
    return arr


def _frozen_matrix(values, shape=None, what="matrix") -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{what} must be 2-d, got shape {arr.shape}")
    if shape is not None and arr.shape != tuple(shape):
        raise ValueError(f"{what} has shape {arr.shape}, expected {tuple(shape)}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} has non-finite entries")
    arr.flags.writeable = False
    return arr


@dataclass(eq=False)
class ScenarioSet:
    """Finite scenario labels, with optional geometry for structured maps.

    coords maps a scenario id to its point in R^{n_s} (required by
    linear-in-s objective maps).  polyhedral_form = (A, b) describes the
    continuous set {s : A s <= b, s >= 0} used by the dual reformulation.
    """

    ids: tuple
    coords: Optional[dict] = None
    polyhedral_form: Optional[tuple] = None

    def __post_init__(self):
        self.ids = tuple(str(i) for i in self.ids)
        if len(self.ids) == 0:
            raise ValueError("scenario set must contain at least one scenario")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("scenario ids must be unique")
        if self.coords is not None:
            coords = {}
            dim = None
            for sid in self.ids:
                if sid not in self.coords:
                    raise ValueError(f"scenario {sid!r} missing from coords")
                vec = np.asarray(self.coords[sid], dtype=float).ravel()
                if dim is None:
                    dim = vec.shape[0]
                elif vec.shape[0] != dim:
                    raise ValueError("scenario coords must share one dimension")
                vec.flags.writeable = False
                coords[sid] = vec
            self.coords = coords
        if self.polyhedral_form is not None:
            a, b = self.polyhedral_form
            a = _frozen_matrix(a, what="polyhedral A")
            bv = np.asarray(b, dtype=float).ravel()
            if bv.shape[0] != a.shape[0]:
                raise ValueError("polyhedral form: A rows and b length differ")
            bv.flags.writeable = False
            self.polyhedral_form = (a, bv)
            if self.coords is not None:
                ncol = a.shape[1]
                for vec in self.coords.values():
                    if vec.shape[0] != ncol:
                        raise ValueError("polyhedral A columns must match scenario coords")

    def __len__(self) -> int:
        return len(self.ids)

    def index(self, scenario_id: str) -> int:
        try:
            return self.ids.index(scenario_id)
        except ValueError:
            raise KeyError(f"unknown scenario id {scenario_id!r}") from None


@dataclass(eq=False)
class TableObjectives:
    """Explicit per-(candidate, scenario) objective vectors."""

    values: dict  # candidate id -> scenario id -> vector
    form = "table"

    def __post_init__(self):
        n = None
        table = {}
        for cid, row in self.values.items():
            table[str(cid)] = inner = {}
            for sid, vec in row.items():
                v = as_objective_vector(vec, n)
                n = v.shape[0]
                inner[str(sid)] = v
        if not table:
            raise ValueError("objective table is empty")
        self.values = table
        self.n = n

    def validate_against(self, scenarios: ScenarioSet, candidate_ids: Sequence[str]):
        # every (candidate, scenario) pair must be present
        for cid in candidate_ids:
            if cid not in self.values:
                raise ValueError(f"objective table missing candidate {cid!r}")
            for sid in scenarios.ids:
                if sid not in self.values[cid]:
                    raise ValueError(f"objective table missing pair ({cid!r}, {sid!r})")


@dataclass(eq=False)
class AffineFamilyObjectives:
    """Per-scenario vertex-image matrices V_s with f(x; s) = V_s x on the simplex.

    Columns of V_s are the images of the simplex vertices, so images are
    affine in the barycentric coordinates of x.
    """

    vertex_images: dict  # scenario id -> (n, k) matrix
    form = "affine_family"

    def __post_init__(self):
        mats = {}
        shape = None
        for sid, mat in self.vertex_images.items():
            m = _frozen_matrix(mat, shape, what=f"vertex images for scenario {sid!r}")
            shape = m.shape
            mats[str(sid)] = m
        if not mats:
            raise ValueError("affine family is empty")
        self.vertex_images = mats
        self.n, self.dim = shape

    def validate_against(self, scenarios: ScenarioSet, candidate_ids=None):
        for sid in scenarios.ids:
            if sid not in self.vertex_images:
                raise ValueError(f"affine family missing scenario {sid!r}")


@dataclass(eq=False)
class LinearScenarioObjectives:
    """Per-candidate matrices F(x) with f(x; s) = F(x) s."""

    matrices: dict  # candidate id -> (n, n_s) matrix
    form = "linear_in_s"

    def __post_init__(self):
        mats = {}
        shape = None
        for cid, mat in self.matrices.items():
            m = _frozen_matrix(mat, shape, what=f"F matrix for candidate {cid!r}")
            shape = m.shape
            mats[str(cid)] = m
        if not mats:
            raise ValueError("linear-in-s map is empty")
        self.matrices = mats
        self.n, self.scenario_dim = shape

    def validate_against(self, scenarios: ScenarioSet, candidate_ids: Sequence[str]):
        if scenarios.coords is None:
            raise ValueError("linear-in-s objectives need scenario coords")
        for vec in scenarios.coords.values():
            if vec.shape[0] != self.scenario_dim:
                raise ValueError("scenario coords do not match F matrix columns")
        for cid in candidate_ids:
            if cid not in self.matrices:
                raise ValueError(f"linear-in-s map missing candidate {cid!r}")


ObjectiveMap = Union[TableObjectives, AffineFamilyObjectives, LinearScenarioObjectives]


@dataclass(eq=False)
class ExplicitCandidates:
    ids: tuple

    def __post_init__(self):
        self.ids = tuple(str(i) for i in self.ids)
        if len(self.ids) == 0:
            raise ValueError("candidate list is empty")
        self._idset = frozenset(self.ids)
        if len(self._idset) != len(self.ids):
            raise ValueError("candidate ids must be unique")

    def __contains__(self, cid) -> bool:
        return cid in self._idset

    def enumerate(self):
        return list(self.ids)


def _compositions(total: int, parts: int):
    # integer vectors >= 0 summing to total, ascending lexicographic
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


MAX_LATTICE = 2_000_000


@dataclass(eq=False)
class SimplexCandidates:
    """Candidates on the unit simplex of dimension dim (barycentric coordinates).

    Either a lattice swept at the given step, or an explicit tuple of points.
    """

    dim: int
    step: float = DEFAULT_STEP
    points: Optional[tuple] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("simplex dimension must be >= 1")
        if self.points is not None:
            pts = []
            for p in self.points:
                pts.append(simplex_point(p, self.dim))
            if not pts:
                raise ValueError("explicit simplex point list is empty")
            self.points = tuple(pts)
        else:
            if not (0 < self.step <= 1):
                raise ValueError("step must lie in (0, 1]")
            m = max(1, round(1.0 / self.step))
            if math.comb(m + self.dim - 1, self.dim - 1) > MAX_LATTICE:
                raise ValueError("simplex lattice too large; coarsen the step")
            self.resolution = m

    def enumerate(self):
        if self.points is not None:
            return list(self.points)
        m = self.resolution
        return [tuple(i / m for i in comp) for comp in _compositions(m, self.dim)]


CandidateSpace = Union[ExplicitCandidates, SimplexCandidates]


def simplex_point(value, dim: int) -> tuple:
    """Normalize a candidate given in barycentric or free coordinates.

    Length-dim inputs are barycentric (must sum to 1); length dim-1 inputs are
    free coordinates, the last barycentric entry being 1 minus their sum.
    Scalars are accepted when dim == 2.
    """
    if isinstance(value, (int, float, np.floating, np.integer)):
        value = (float(value),)
    vec = tuple(float(v) for v in np.asarray(value, dtype=float).ravel())
    if len(vec) == dim - 1:
        vec = vec + (1.0 - sum(vec),)
    if len(vec) != dim:
        raise ValueError(f"simplex point {value!r} does not match dimension {dim}")
    if min(vec) < -SIMPLEX_TOL:
        raise ValueError(f"simplex point {vec} has a negative coordinate")
    if abs(sum(vec) - 1.0) > SIMPLEX_TOL:
        raise ValueError(f"simplex point {vec} does not sum to 1")
    return tuple(0.0 if v < 0 else v for v in vec)


def candidate_label(candidate: Candidate) -> str:
    """Stable human-readable label: ids verbatim, simplex points by free coords."""
    if isinstance(candidate, str):
        return candidate
    free = candidate[:-1] if len(candidate) > 1 else candidate
    if len(free) == 1:
        return format(free[0], ".10g")
    return "(" + ", ".join(format(v, ".10g") for v in free) + ")"


@dataclass(eq=False)
class ObjectiveImage:
    """The finite image f(x; S): one objective vector per scenario."""

    candidate: Candidate
    scenario_ids: tuple
    values: np.ndarray  # (|S|, n)

    def __post_init__(self):
        self.scenario_ids = tuple(self.scenario_ids)
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != len(self.scenario_ids):
            raise ValueError("image values must be one row per scenario")
        if not np.all(np.isfinite(vals)):
            raise ValueError("image has non-finite entries")
        vals.flags.writeable = False
        self.values = vals

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def points(self):
        return list(zip(self.scenario_ids, self.values))

    def point(self, scenario_id: str) -> np.ndarray:
        try:
            i = self.scenario_ids.index(scenario_id)
        except ValueError:
            raise KeyError(f"scenario {scenario_id!r} not in image") from None
        return self.values[i]

    def __iter__(self):
        return iter(self.points())

    def __len__(self) -> int:
        return len(self.scenario_ids)


@dataclass(eq=False)
class Instance:
    """One robust multiobjective problem over a finite scenario set.

    scenario_hull marks instances whose scenario list enumerates the
    generators of a convex uncertainty set: the attainable image of each
    candidate is then the convex hull of the listed points, and dominance
    tests treat it accordingly.
    """

    n: int
    scenarios: ScenarioSet
    objectives: ObjectiveMap
    candidates: CandidateSpace
    scenario_hull: bool = False
    name: Optional[str] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one objective")
        if self.objectives.n != self.n:
            raise ValueError(
                f"objective map produces length {self.objectives.n}, instance expects {self.n}"
            )
        if isinstance(self.candidates, SimplexCandidates):
            if self.objectives.form == "affine_family" and self.objectives.dim != self.candidates.dim:
                raise ValueError("affine family and simplex candidates disagree on dimension")
            if self.objectives.form != "affine_family":
                raise ValueError("simplex candidates require an affine family map")
            self.objectives.validate_against(self.scenarios)
        else:
            if self.objectives.form == "affine_family":
                raise ValueError("affine family maps require simplex candidates")
            self.objectives.validate_against(self.scenarios, self.candidates.ids)
        self._candidate_cache = None
        self._tensor = None

    def candidate_list(self):
        if self._candidate_cache is None:
            self._candidate_cache = self.candidates.enumerate()
        return list(self._candidate_cache)

    def resolve_candidate(self, candidate) -> Candidate:
        """Coerce user input (id, scalar, free or barycentric coords) to canonical form."""
        if isinstance(self.candidates, ExplicitCandidates):
            cid = str(candidate)
            if cid not in self.candidates:
                raise KeyError(f"unknown candidate id {cid!r}")
            return cid
        return simplex_point(candidate, self.candidates.dim)

    def evaluate(self, candidate, scenario_id: str) -> np.ndarray:
        return self.image(candidate).values[self.scenarios.index(str(scenario_id))]

    def image(self, candidate) -> ObjectiveImage:
        cand = self.resolve_candidate(candidate)
        values = _image_values(self.objectives, self.scenarios, [cand])[0]
        return ObjectiveImage(cand, self.scenarios.ids, values)

    def image_tensor(self) -> np.ndarray:
        """All images as one read-only (N, |S|, n) array in candidate_list() order, built once."""
        if self._tensor is None:
            self._tensor = _image_values(self.objectives, self.scenarios, self.candidate_list())
            self._tensor.flags.writeable = False
        return self._tensor


def _image_values(objectives: ObjectiveMap, scenarios: ScenarioSet, cands) -> np.ndarray:
    """f(x; s) for every x in cands and s in scenario order, shape (len(cands), |S|, n).

    The batched mat-vec matmul(M, v[..., None]) computes each f(x; s) exactly
    as M @ v does; einsum and a 3-d matrix product sum in another order.
    """
    sids = scenarios.ids
    if objectives.form == "table":
        return np.array([[objectives.values[c][s] for s in sids] for c in cands], dtype=float)
    if objectives.form == "affine_family":
        mats = np.stack([objectives.vertex_images[s] for s in sids])[None]  # (1, S, n, k)
        vecs = np.asarray(cands, dtype=float)[:, None, :]  # (N, 1, k)
    else:
        mats = np.stack([objectives.matrices[c] for c in cands])[:, None]  # (N, 1, n, d)
        vecs = np.stack([scenarios.coords[s] for s in sids])[None]  # (1, S, d)
    return np.matmul(mats, vecs[..., None])[..., 0]


def evaluate(instance: Instance, candidate, scenario_id: str) -> np.ndarray:
    """f(x; s) for one candidate and one scenario."""
    return instance.evaluate(candidate, scenario_id)


def image(instance: Instance, candidate) -> ObjectiveImage:
    """The finite image f(x; S) in scenario order."""
    return instance.image(candidate)


def objective_scale(instance: Instance) -> np.ndarray:
    """Per-objective max of |f_i| over every candidate and scenario.

    Dividing by this maps all attainable images into the unit box (zero
    columns scale by 1 so the division is always defined).
    """
    scale = np.abs(instance.image_tensor()).max(axis=(0, 1))
    return np.where(scale > 0, scale, 1.0)


# ---------------------------------------------------------------------------
# built-in instances

def _problem_1() -> Instance:
    # two objectives on the segment x in [0, 1]; barycentric (x, 1-x)
    vertex_images = {
        "1": [[0.0, 1.0], [2.0, 4.0]],
        "2": [[2.0, 1.0], [2.0, 1.0]],
        "3": [[2.0, 4.0], [0.0, 1.0]],
    }
    return Instance(
        n=2,
        scenarios=ScenarioSet(ids=("1", "2", "3")),
        objectives=AffineFamilyObjectives(vertex_images),
        candidates=SimplexCandidates(dim=2, step=DEFAULT_STEP),
        name="problem-1",
    )


def _problem_2() -> Instance:
    # two objectives over {x >= 0, x1 + x2 <= 1}; barycentric (x1, x2, 1-x1-x2)
    vertex_images = {
        "1": [[0.0, 3.0, 2.0], [6.0, 2.5, 4.0]],
        "2": [[0.0, 3.0, 4.0], [3.0, 0.0, 4.0]],
        "3": [[2.5, 6.0, 4.0], [3.0, 0.0, 2.0]],
    }
    return Instance(
        n=2,
        scenarios=ScenarioSet(ids=("1", "2", "3")),
        objectives=AffineFamilyObjectives(vertex_images),
        candidates=SimplexCandidates(dim=3, step=DEFAULT_STEP),
        name="problem-2",
    )


_BUILTINS = {"problem-1": _problem_1, "problem-2": _problem_2}


def builtin_instance(name: str, step: Optional[float] = None) -> Instance:
    """Named instances loadable without a file ("problem-1", "problem-2")."""
    try:
        inst = _BUILTINS[name]()
    except KeyError:
        raise KeyError(f"unknown builtin instance {name!r}") from None
    if step is not None:
        inst = with_step(inst, step)
    return inst


def with_step(instance: Instance, step: float) -> Instance:
    """Same instance with the simplex lattice step replaced (ValueError without a lattice)."""
    if not isinstance(instance.candidates, SimplexCandidates) or instance.candidates.points is not None:
        raise ValueError("the instance has no simplex lattice to re-step")
    return Instance(
        n=instance.n,
        scenarios=instance.scenarios,
        objectives=instance.objectives,
        candidates=SimplexCandidates(dim=instance.candidates.dim, step=step),
        scenario_hull=instance.scenario_hull,
        name=instance.name,
    )


# ---------------------------------------------------------------------------
# JSON instance files

def instance_to_dict(instance: Instance, ambiguity: Optional[dict] = None) -> dict:
    scen: dict = {"ids": list(instance.scenarios.ids)}
    if instance.scenarios.coords is not None:
        scen["coords"] = {k: v.tolist() for k, v in instance.scenarios.coords.items()}
    if instance.scenarios.polyhedral_form is not None:
        a, b = instance.scenarios.polyhedral_form
        scen["A"] = a.tolist()
        scen["b"] = b.tolist()

    obj = instance.objectives
    if obj.form == "table":
        objectives = {"table": {c: {s: v.tolist() for s, v in row.items()} for c, row in obj.values.items()}}
    elif obj.form == "affine_family":
        objectives = {"affine_family": {s: m.tolist() for s, m in obj.vertex_images.items()}}
    else:
        objectives = {"linear_in_s": {c: m.tolist() for c, m in obj.matrices.items()}}

    cands = instance.candidates
    if isinstance(cands, ExplicitCandidates):
        candidates: dict = {"explicit": list(cands.ids)}
    elif cands.points is not None:
        candidates = {"simplex": {"dim": cands.dim, "points": [list(p) for p in cands.points]}}
    else:
        candidates = {"simplex": {"dim": cands.dim, "step": cands.step}}

    out = {
        "n": instance.n,
        "scenarios": scen,
        "objectives": objectives,
        "candidates": candidates,
    }
    if instance.name is not None:
        out["name"] = instance.name
    if instance.scenario_hull:
        out["scenario_hull"] = True
    if ambiguity is not None:
        out["ambiguity"] = ambiguity
    return out


def instance_from_dict(data: Mapping) -> Instance:
    try:
        n = int(data["n"])
        raw_scen = data["scenarios"]
        raw_obj = data["objectives"]
        raw_cand = data["candidates"]
    except KeyError as exc:
        raise ValueError(f"instance file missing key {exc.args[0]!r}") from None

    if isinstance(raw_scen, (list, tuple)):
        scenarios = ScenarioSet(ids=tuple(raw_scen))
    else:
        poly = None
        if "A" in raw_scen or "b" in raw_scen:
            poly = (raw_scen["A"], raw_scen["b"])
        scenarios = ScenarioSet(
            ids=tuple(raw_scen["ids"]),
            coords=raw_scen.get("coords"),
            polyhedral_form=poly,
        )

    if not isinstance(raw_obj, Mapping) or len(raw_obj) != 1:
        raise ValueError("objectives must hold exactly one of table/affine_family/linear_in_s")
    form, payload = next(iter(raw_obj.items()))
    if form == "table":
        objectives: ObjectiveMap = TableObjectives(payload)
    elif form == "affine_family":
        objectives = AffineFamilyObjectives(payload)
    elif form == "linear_in_s":
        objectives = LinearScenarioObjectives(payload)
    else:
        raise ValueError(f"unknown objective form {form!r}")

    if "explicit" in raw_cand:
        candidates: CandidateSpace = ExplicitCandidates(tuple(raw_cand["explicit"]))
    elif "simplex" in raw_cand:
        spx = raw_cand["simplex"]
        if "points" in spx:
            candidates = SimplexCandidates(dim=int(spx["dim"]), points=tuple(tuple(p) for p in spx["points"]))
        else:
            candidates = SimplexCandidates(dim=int(spx["dim"]), step=float(spx.get("step", DEFAULT_STEP)))
    else:
        raise ValueError("candidates must be 'explicit' or 'simplex'")

    return Instance(
        n=n,
        scenarios=scenarios,
        objectives=objectives,
        candidates=candidates,
        scenario_hull=bool(data.get("scenario_hull", False)),
        name=data.get("name"),
    )


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return instance_from_dict(data)


def save_instance(instance: Instance, path, ambiguity: Optional[dict] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(instance, ambiguity), fh, indent=2, sort_keys=True)
        fh.write("\n")
