"""Output checks for the benchmark workloads, in plain numpy.

Nothing here imports robpareto: each check recomputes what the output must
say from the workload's input table, so a defect in the program cannot hide
in its own checker.  Each check returns a list of problems; empty means the
output is correct.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

# the CLI's default --eq-tol and --strict-tol, which every workload runs with
EQ_TOL = 1e-9
STRICT_TOL = 1e-9
# printed values carry 10 significant digits
PRINT_RTOL = 1e-8

CLASSIFY_HEADER = ["candidate", "robust_efficient", "convex_hull_efficient",
                   "objectivewise_efficient", "set_valued_minimizer", "dominator"]


# ---------------------------------------------------------------------------
# reference phantom: the documented dose model, restated independently

@dataclass(frozen=True)
class PhantomModel:
    """The default dose phantom of the README; 18,565 candidates, 3 scenarios."""

    grid_points: int = 60
    spots: int = 12
    target_span: tuple = (18, 42)
    rectum_span: tuple = (45, 53)
    prescribed_dose: float = 1.0
    weights: tuple = (1e3, 1e2, 1.0)  # target, rectum, unclassified
    shifts: tuple = (-3, 0, 3)
    kernel_width: float = 2.0
    resolution: int = 6


PHANTOM_CANDIDATES = math.comb(PhantomModel.resolution + PhantomModel.spots, PhantomModel.spots) + 1

def _grades(spots: int, total: int):
    """Nonnegative integer vectors of length ``spots`` summing to at most ``total``."""
    if spots == 1:
        return [(g,) for g in range(total + 1)]
    return [(head,) + rest for head in range(total + 1) for rest in _grades(spots - 1, total - head)]


def phantom_table(model: PhantomModel = PhantomModel()):
    """(labels, scenario ids, values of shape (candidates, scenarios, 2))."""
    voxels = np.arange(model.grid_points, dtype=float)
    lo, hi = model.target_span
    centers = lo + (np.arange(model.spots) + 0.5) * (hi - lo) / model.spots
    target = (voxels >= lo) & (voxels < hi)
    rectum = (voxels >= model.rectum_span[0]) & (voxels < model.rectum_span[1])
    other = ~target & ~rectum

    def kernels(shift):
        return np.exp(-((voxels[:, None] - centers[None, :] - shift) ** 2) / (2.0 * model.kernel_width ** 2))

    level = model.prescribed_dose / kernels(0.0).sum(axis=1)[target].mean()
    grades = _grades(model.spots, model.resolution)
    weights = np.array(grades, dtype=float) * (model.spots * level / model.resolution)
    weights = np.vstack([weights, np.full(model.spots, level)])
    labels = ["".join(map(str, g)) for g in grades] + ["uniform"]

    w_target, w_rectum, w_other = model.weights
    columns = []
    for shift in model.shifts:
        dose = weights @ kernels(float(shift)).T
        f1 = w_target * ((dose[:, target] - model.prescribed_dose) ** 2).sum(axis=1)
        f2 = w_rectum * (dose[:, rectum] ** 2).sum(axis=1) + w_other * (dose[:, other] ** 2).sum(axis=1)
        columns.append(np.column_stack([f1, f2]))
    sids = [f"shift{s:g}" for s in model.shifts]
    return labels, sids, np.stack(columns, axis=1)


def table_from_instance(data: dict):
    """(labels, scenario ids, values) of an explicit table-form instance dict."""
    labels = list(data["candidates"]["explicit"])
    scen = data["scenarios"]
    sids = list(scen if isinstance(scen, list) else scen["ids"])
    table = data["objectives"]["table"]
    values = np.array([[table[c][s] for s in sids] for c in labels], dtype=float)
    return labels, sids, values


# ---------------------------------------------------------------------------
# classify

def _points_dominated(points: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """For (..., P, n) points and (A, n) anchors: is every point dominated by some anchor?"""
    gap = anchors[None, :, :] - points[..., :, None, :]
    hit = np.all(gap >= -EQ_TOL, axis=-1) & (gap.max(axis=-1) > STRICT_TOL)
    return hit.any(axis=-1).all(axis=-1)


def check_classify(text: str, labels, values: np.ndarray) -> list:
    """Brute-force checks of a classify CSV against the instance table."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CLASSIFY_HEADER:
        return ["classify: missing or wrong CSV header"]
    rows = rows[1:]
    if [r[0] for r in rows] != list(labels):
        return ["classify: rows do not list the instance's candidates in order"]
    index = {label: i for i, label in enumerate(labels)}
    problems = []
    robust_rows = []
    for j, row in enumerate(rows):
        if len(row) != 6 or any(flag not in ("true", "false") for flag in row[1:5]):
            problems.append(f"{row[0]}: malformed row")
            continue
        robust, hull, objectivewise, set_valued = (flag == "true" for flag in row[1:5])
        doms = dict(part.split(":", 1) for part in row[5].split("; ") if part)
        if set_valued != robust:
            problems.append(f"{row[0]}: set_valued differs from robust")
        if hull and not robust:
            problems.append(f"{row[0]}: convex-hull efficient but not robust efficient")
        for kind, flag in (("robust", robust), ("convex_hull", hull),
                           ("objectivewise", objectivewise), ("set_valued", set_valued)):
            if flag == (kind in doms):
                problems.append(f"{row[0]}: {kind} flag and dominator list disagree")
        if any(d not in index for d in doms.values()):
            problems.append(f"{row[0]}: dominator names an unknown candidate")
            continue
        if robust:
            robust_rows.append(j)
        elif "robust" in doms and not _points_dominated(values[index[doms["robust"]]], values[j]):
            problems.append(f"{row[0]}: robust dominator {doms['robust']} does not dominate")
        if "objectivewise" in doms:
            corner = values[j].max(axis=0, keepdims=True)
            if not _points_dominated(values[index[doms["objectivewise"]]], corner):
                problems.append(f"{row[0]}: objectivewise dominator {doms['objectivewise']} does not dominate")
    for j in robust_rows:
        hits = _points_dominated(values, values[j])
        hits[j] = False
        if hits.any():
            problems.append(f"{labels[j]}: robust efficient but dominated by {labels[int(np.argmax(hits))]}")
    return problems


# ---------------------------------------------------------------------------
# sweep

def parse_p(text: str) -> float:
    return math.inf if text == "inf" else float(text)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= PRINT_RTOL * max(abs(a), abs(b), 1e-300)


def check_sweep(text: str, ps, labels, sids, values: np.ndarray) -> list:
    """Brute-force worst-case argmin and value for each p of a sweep."""
    lines = text.strip().splitlines()
    if len(lines) != len(ps):
        return [f"sweep: expected {len(ps)} result lines, got {len(lines)}"]
    scale = np.abs(values).max(axis=(0, 1))
    scaled = np.abs(values) / np.where(scale > 0, scale, 1.0)
    index = {label: i for i, label in enumerate(labels)}
    problems = []
    for p_text, line in zip(ps, lines):
        fields = dict(part.split("=", 1) for part in line.split())
        p = parse_p(p_text)
        if set(fields) != {"p", "best", "value", "worst_scenario", "sup_radius", "one_norm_worst"}:
            problems.append(f"p={p_text}: malformed line {line!r}")
            continue
        if parse_p(fields["p"]) != p or fields["best"] not in index:
            problems.append(f"p={p_text}: wrong p or unknown candidate in {line!r}")
            continue
        per_scenario = scaled.max(axis=2) if math.isinf(p) else (scaled ** p).mean(axis=2) ** (1.0 / p)
        worst = per_scenario.max(axis=1)
        best = index[fields["best"]]
        optimum = float(worst.min())
        if not _close(float(worst[best]), optimum):
            problems.append(f"p={p_text}: {fields['best']} is not a worst-case minimizer")
        if not _close(float(fields["value"]), optimum):
            problems.append(f"p={p_text}: value {fields['value']} differs from the optimum {optimum:.10g}")
        sid = fields["worst_scenario"]
        if sid not in sids or not _close(float(per_scenario[best, sids.index(sid)]), float(worst[best])):
            problems.append(f"p={p_text}: worst_scenario {sid} is not a worst scenario")
        if not _close(float(fields["sup_radius"]), float(scaled[best].max())):
            problems.append(f"p={p_text}: wrong sup_radius")
        if not _close(float(fields["one_norm_worst"]), float(scaled[best].sum(axis=1).max())):
            problems.append(f"p={p_text}: wrong one_norm_worst")
    return problems


# ---------------------------------------------------------------------------
# report

def check_report(text: str, instances: int) -> list:
    expected = f"random harness: {instances} instances, 0 with violations"
    lines = text.strip().splitlines()
    if not lines or lines[-1] != expected:
        return [f"report: expected {expected!r}, got {lines[-1] if lines else ''!r}"]
    return []
