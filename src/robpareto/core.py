"""Problem model: decision candidates, scenario sets, uncertain objective maps.

An Instance bundles n objectives, a finite scenario set S, an objective map
f(x; s), and a candidate space X.  Each objective form stores one read-only
stacked array plus the id tuples (and id -> position dicts) that index it: a
table as (C, S, n), an affine family as (S, n, k), a linear-in-s map as
(C, n, d).  Nested id mappings exist only at the JSON boundary (the mapping
constructors, instance_to_dict and instance_from_dict); package code that
holds an array builds a table with TableObjectives.stacked.  One check stores
both and rejects ragged, non-numeric or non-finite entries.  Simplex lattices
come from compositions(), the one lattice enumerator.  Everything downstream
(dominance tests, efficiency certificates, scalarized solves) consumes images
f(x; S) produced here by _image_values, the one evaluator of the objective
forms: Instance.image_tensor() holds all images as one read-only (N, |S|, n)
array, and Instance.image() is a one-row call for any candidate.  Instances
are immutable after construction; arrays are marked read-only.
"""
from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable, Optional, Sequence, Union

import numpy as np

SIMPLEX_TOL = 1e-12
DEFAULT_STEP = 0.05

# a candidate is an explicit decision id or a barycentric point on the unit simplex
Candidate = Union[str, tuple]


def _frozen(values, what: str, ndim: int) -> np.ndarray:
    """values as a read-only float array with ndim axes, checked finite in one pass."""
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{what} entries must be numbers that share one dimension on each axis") from None
    if arr.ndim != ndim:
        raise ValueError(f"{what} has shape {arr.shape}, expected {ndim} axes")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} has non-finite entries")
    arr.flags.writeable = False
    return arr


def _stacked(entries, what: str, ndim: int) -> tuple:
    """(ids, array, id -> position) of a non-empty mapping, its entries stacked by _frozen."""
    if not isinstance(entries, Mapping) or not entries:
        raise ValueError(f"{what} must be a non-empty object")
    ids = tuple(str(k) for k in entries)
    return ids, _frozen(list(entries.values()), what, ndim), {k: i for i, k in enumerate(ids)}


def _id_tuple(ids, kind: str, empty: str) -> tuple:
    """ids as a tuple of strings; ValueError(empty) if there are none, or if two repeat."""
    ids = tuple(str(i) for i in ids)
    if not ids:
        raise ValueError(empty)
    if len(set(ids)) != len(ids):
        raise ValueError(f"{kind} ids must be unique")
    return ids


def _require_ids(positions: dict, ids, kind: str, where: str) -> None:
    missing = next((i for i in ids if i not in positions), None)
    if missing is not None:
        raise ValueError(f"{kind} {missing!r} missing from {where}")


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
        if isinstance(self.ids, str):
            raise ValueError(f"scenario ids must be a list, not the string {self.ids!r}")
        self.ids = _id_tuple(self.ids, "scenario", "scenario set must contain at least one scenario")
        if self.coords is not None:
            _require_ids(self.coords, self.ids, "scenario", "coords")
            _, rows, _ = _stacked({sid: np.ravel(self.coords[sid]) for sid in self.ids}, "scenario coords", 2)
            self.coords = dict(zip(self.ids, rows))
        if self.polyhedral_form is not None:
            a, b = self.polyhedral_form
            a = _frozen(a, "polyhedral A", 2)
            bv = _frozen(np.ravel(b), "polyhedral b", 1)
            if bv.shape[0] != a.shape[0]:
                raise ValueError("polyhedral form: A rows and b length differ")
            self.polyhedral_form = (a, bv)
            if self.coords is not None and rows.shape[1] != a.shape[1]:
                raise ValueError("polyhedral A columns must match scenario coords")

    def __len__(self) -> int:
        return len(self.ids)

    def index(self, scenario_id: str) -> int:
        try:
            return self.ids.index(scenario_id)
        except ValueError:
            raise KeyError(f"unknown scenario id {scenario_id!r}") from None


class TableObjectives:
    """Explicit per-(candidate, scenario) objective vectors, array[c, s] of shape (C, S, n).

    candidate_ids and scenario_ids index the array (positions in candidate_pos,
    scenario_pos).  The constructor takes the JSON form, candidate id ->
    scenario id -> vector, every row naming the same scenario ids (the array
    follows the first row's order); stacked() takes the ids and the array.
    """

    form = "table"

    def __init__(self, values):
        if not isinstance(values, Mapping) or not values:
            raise ValueError("objective table must be a non-empty object")
        first = next(iter(values.values()))
        if not all(isinstance(row, Mapping) and row.keys() == first.keys() for row in values.values()):
            raise ValueError("objective table rows must be objects naming the same scenario ids")
        self._store(values, first, [[row[sid] for sid in first] for row in values.values()])

    @classmethod
    def stacked(cls, candidate_ids, scenario_ids, array) -> "TableObjectives":
        """Table from its id sequences and a (C, S, n) array (copied read-only)."""
        table = cls.__new__(cls)
        table._store(candidate_ids, scenario_ids, array)
        return table

    def _store(self, candidate_ids, scenario_ids, array) -> None:
        self.array = _frozen(array, "objective table", 3)
        self.candidate_ids = _id_tuple(candidate_ids, "candidate", "objective table has no candidates")
        self.scenario_ids = _id_tuple(scenario_ids, "scenario", "objective table has no scenarios")
        if self.array.shape[:2] != (len(self.candidate_ids), len(self.scenario_ids)):
            raise ValueError(f"objective table has shape {self.array.shape}, expected "
                             f"({len(self.candidate_ids)}, {len(self.scenario_ids)}, n) from its ids")
        self.candidate_pos = {k: i for i, k in enumerate(self.candidate_ids)}
        self.scenario_pos = {k: i for i, k in enumerate(self.scenario_ids)}
        self.n = self.array.shape[2]

    def validate_against(self, scenarios: ScenarioSet, candidate_ids: Sequence[str]):
        _require_ids(self.candidate_pos, candidate_ids, "candidate", "objective table")
        _require_ids(self.scenario_pos, scenarios.ids, "scenario", "objective table")


class AffineFamilyObjectives:
    """Per-scenario vertex-image matrices V_s with f(x; s) = V_s x on the simplex.

    Columns of V_s are the images of the simplex vertices, so images are
    affine in the barycentric coordinates of x.  vertex_images maps scenario
    id -> (n, k) matrix; it is stored as array[s], shape (S, n, k), indexed by
    scenario_ids (positions in scenario_pos).
    """

    form = "affine_family"

    def __init__(self, vertex_images):
        self.scenario_ids, self.array, self.scenario_pos = _stacked(vertex_images, "affine family", 3)
        _, self.n, self.dim = self.array.shape

    def validate_against(self, scenarios: ScenarioSet, candidate_ids=None):
        _require_ids(self.scenario_pos, scenarios.ids, "scenario", "affine family")


class LinearScenarioObjectives:
    """Per-candidate matrices F(x) with f(x; s) = F(x) s.

    matrices maps candidate id -> (n, n_s) matrix; it is stored as array[c],
    shape (C, n, n_s), indexed by candidate_ids (positions in candidate_pos).
    """

    form = "linear_in_s"

    def __init__(self, matrices):
        self.candidate_ids, self.array, self.candidate_pos = _stacked(matrices, "linear-in-s map", 3)
        _, self.n, self.scenario_dim = self.array.shape

    def validate_against(self, scenarios: ScenarioSet, candidate_ids: Sequence[str]):
        if scenarios.coords is None:
            raise ValueError("linear-in-s objectives need scenario coords")
        if next(iter(scenarios.coords.values())).shape[0] != self.scenario_dim:
            raise ValueError("scenario coords do not match F matrix columns")
        _require_ids(self.candidate_pos, candidate_ids, "candidate", "linear-in-s map")


ObjectiveMap = Union[TableObjectives, AffineFamilyObjectives, LinearScenarioObjectives]


@dataclass(eq=False)
class ExplicitCandidates:
    ids: tuple

    def __post_init__(self):
        if isinstance(self.ids, str):
            raise ValueError(f"candidate ids must be a list, not the string {self.ids!r}")
        self.ids = _id_tuple(self.ids, "candidate", "candidate list is empty")
        self._idset = frozenset(self.ids)

    def __contains__(self, cid) -> bool:
        return cid in self._idset

    def enumerate(self):
        return list(self.ids)


def compositions(total: int, parts: int) -> np.ndarray:
    """Integer vectors >= 0 of length parts summing to total, ascending lexicographically.

    Returns a (count, parts) int array.  Each column but the last repeats every
    row so far once per value it can take (0 up to what is left of total).
    """
    heads = np.zeros((1, 0), dtype=np.int64)
    left = np.array([total], dtype=np.int64)
    for _ in range(parts - 1):
        counts = left + 1
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        col = np.arange(starts.size) - starts
        heads = np.column_stack([np.repeat(heads, counts, axis=0), col])
        left = np.repeat(left, counts) - col
    return np.column_stack([heads, left])


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
                if isinstance(p, str):
                    raise ValueError(f"simplex point must be given by numbers, not the string {p!r}")
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
        return list(map(tuple, (compositions(self.resolution, self.dim) / self.resolution).tolist()))


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
        rows = [objectives.candidate_pos[c] for c in cands]
        return objectives.array[np.ix_(rows, [objectives.scenario_pos[s] for s in sids])]
    if objectives.form == "affine_family":
        mats = objectives.array[[objectives.scenario_pos[s] for s in sids]][None]  # (1, S, n, k)
        vecs = np.asarray(cands, dtype=float)[:, None, :]  # (N, 1, k)
    else:
        mats = objectives.array[[objectives.candidate_pos[c] for c in cands]][:, None]  # (N, 1, n, d)
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
    obj = instance.objectives
    if obj.form == "table":
        rows = (dict(zip(obj.scenario_ids, row)) for row in obj.array.tolist())
        objectives = {"table": dict(zip(obj.candidate_ids, rows))}
    elif obj.form == "affine_family":
        objectives = {"affine_family": dict(zip(obj.scenario_ids, obj.array.tolist()))}
    else:
        objectives = {"linear_in_s": dict(zip(obj.candidate_ids, obj.array.tolist()))}
    return _instance_dict(instance, ambiguity, objectives)


def _instance_dict(instance: Instance, ambiguity: Optional[dict], objectives) -> dict:
    """instance_to_dict with the given value under "objectives"."""
    scen: dict = {"ids": list(instance.scenarios.ids)}
    if instance.scenarios.coords is not None:
        scen["coords"] = {k: v.tolist() for k, v in instance.scenarios.coords.items()}
    if instance.scenarios.polyhedral_form is not None:
        a, b = instance.scenarios.polyhedral_form
        scen["A"] = a.tolist()
        scen["b"] = b.tolist()

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


def instance_json(instance: Instance, ambiguity: Optional[dict] = None) -> str:
    """The text of json.dumps(instance_to_dict(instance, ambiguity), indent=2,
    sort_keys=True) plus a newline, written faster.

    With indent set, json encodes in pure Python, a token at a time.  Here
    the objective array, nearly all of a table's text, is laid out by hand:
    one call of the C encoder writes its numbers, which fill a %-template of
    the indented layout.  The other fields are small and go through
    json.dumps, indented one level by prefixing each line: JSON text has no
    raw newline inside a string.
    """
    parts = []
    for key, value in sorted(_instance_dict(instance, ambiguity, None).items()):
        if key == "objectives":
            text = _objectives_json(instance.objectives)
        else:
            text = json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
        parts.append(f"{encode_basestring_ascii(key)}: {text}")
    return "{\n  " + ",\n  ".join(parts) + "\n}\n"


def _objectives_json(obj: ObjectiveMap) -> str:
    """instance_json's text of the "objectives" field, one level deep."""
    arr = obj.array
    if obj.form == "table":  # candidate -> scenario -> row
        keyed = (obj.candidate_ids, obj.scenario_ids)
    elif obj.form == "affine_family":  # scenario -> matrix
        keyed = (obj.scenario_ids,)
    else:  # candidate -> matrix
        keyed = (obj.candidate_ids,)
    axes: list = [[encode_basestring_ascii(obj.form)]]
    for axis, ids in enumerate(keyed):
        order = sorted(range(len(ids)), key=ids.__getitem__)
        arr = arr.take(order, axis=axis)
        axes.append([encode_basestring_ascii(ids[i]).replace("%", "%%") for i in order])
    axes += arr.shape[len(keyed):]
    numbers = json.dumps(arr.ravel().tolist())[1:-1].split(", ") if arr.size else []
    return _layout(axes, "  ") % tuple(numbers)


def _layout(axes, outer: str) -> str:
    """%-template of a nested value as json.dumps(indent=2) lays it out at indent outer.

    Each axis is a list of that length (an int) or a mapping with those
    encoded keys, in order; each number is one %s.
    """
    if not axes:
        return "%s"
    inner = outer + "  "
    value = _layout(axes[1:], inner)
    if isinstance(axes[0], int):
        items, (opening, closing) = [value] * axes[0], "[]"
    else:
        items, (opening, closing) = [f"{key}: {value}" for key in axes[0]], "{}"
    if not items:
        return opening + closing
    return f"{opening}\n{inner}" + f",\n{inner}".join(items) + f"\n{outer}{closing}"


_JSON_KINDS = {bool: ((bool,), "true or false"), int: ((int,), "an integer"), float: ((int, float), "a number")}


def _json_typed(value, kind: type, name: str):
    """value if its JSON type is kind: bool, int or float (any number), where
    neither number kind takes a bool; ValueError otherwise."""
    types, expected = _JSON_KINDS[kind]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, types):
        raise ValueError(f"{name} must be {expected}, got {value!r}")
    return value


def instance_from_dict(data: Mapping) -> Instance:
    try:
        n = _json_typed(data["n"], int, "n")
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
            ids=raw_scen["ids"],
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
        candidates: CandidateSpace = ExplicitCandidates(raw_cand["explicit"])
    elif "simplex" in raw_cand:
        spx = raw_cand["simplex"]
        dim = _json_typed(spx["dim"], int, "simplex dim")
        if "points" in spx:
            candidates = SimplexCandidates(dim=dim, points=spx["points"])
        else:
            step = _json_typed(spx.get("step", DEFAULT_STEP), float, "simplex step")
            candidates = SimplexCandidates(dim=dim, step=float(step))
    else:
        raise ValueError("candidates must be 'explicit' or 'simplex'")

    name = data.get("name")
    if not isinstance(name, (str, type(None))):
        raise ValueError(f"name must be a string or null, got {name!r}")
    return Instance(
        n=n,
        scenarios=scenarios,
        objectives=objectives,
        candidates=candidates,
        scenario_hull=_json_typed(data.get("scenario_hull", False), bool, "scenario_hull"),
        name=name,
    )


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return instance_from_dict(data)


def save_instance(instance: Instance, path, ambiguity: Optional[dict] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_json(instance, ambiguity))
