"""Synthetic 1-d dose-painting instance with rigid-shift scenarios.

A row of Gaussian deposition kernels ("spots") covers a target interval on a
voxel grid, with a sensitive interval ("rectum") nearby and everything else
unclassified.  Scenarios shift all spot centers rigidly.  The two objectives
are the classic quadratic penalties: deviation from the prescribed target
dose, and squared dose to healthy tissue.  Both are convex in the spot
weights for every scenario.

Candidates are spot-weight vectors on a scaled corner-simplex lattice
(total weight at most a fixed budget), plus one explicit "uniform" vector
calibrated to deliver the prescribed mean target dose in the nominal
scenario.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ExplicitCandidates, Instance, ScenarioSet, TableObjectives, compositions

MAX_CANDIDATES = 200_000


@dataclass(frozen=True)
class PhantomConfig:
    grid_points: int = 60
    spots: int = 12
    target_span: tuple = (18, 42)
    rectum_span: tuple = (45, 53)
    prescribed_dose: float = 1.0
    target_weight: float = 1e3
    rectum_weight: float = 1e2
    unclassified_weight: float = 1.0
    shifts: tuple = (-3, 0, 3)
    kernel_width: float = 2.0
    lattice_resolution: int = 6
    budget_factor: float = 1.0

    def __post_init__(self):
        if self.grid_points < 2:
            raise ValueError("grid needs at least two points")
        if self.spots < 1:
            raise ValueError("need at least one spot")
        for name, span in (("target", self.target_span), ("rectum", self.rectum_span)):
            lo, hi = span
            if not (0 <= lo < hi <= self.grid_points):
                raise ValueError(f"{name} span {span} does not fit the grid")
        t0, t1 = self.target_span
        r0, r1 = self.rectum_span
        if max(t0, r0) < min(t1, r1):
            raise ValueError("target and rectum spans overlap")
        for name, w in (
            ("target", self.target_weight),
            ("rectum", self.rectum_weight),
            ("unclassified", self.unclassified_weight),
        ):
            if w <= 0:
                raise ValueError(f"{name} weight must be positive")
        if not self.shifts:
            raise ValueError("need at least one shift scenario")
        if self.kernel_width <= 0:
            raise ValueError("kernel width must be positive")
        if not (1 <= self.lattice_resolution <= 9):
            raise ValueError("lattice resolution must lie in 1..9")
        if self.budget_factor <= 0:
            raise ValueError("budget factor must be positive")
        count = math.comb(self.lattice_resolution + self.spots, self.spots)
        if count > MAX_CANDIDATES:
            raise ValueError("candidate lattice too large; lower the resolution")


def scenario_id(shift) -> str:
    return f"shift{shift:g}"


def spot_centers(cfg: PhantomConfig) -> np.ndarray:
    """Spot centers spread evenly over the target interval."""
    lo, hi = cfg.target_span
    k = cfg.spots
    return lo + (np.arange(k) + 0.5) * (hi - lo) / k


def dose_matrix(cfg: PhantomConfig, shift: float = 0.0) -> np.ndarray:
    """Deposition kernels, one column per spot: d[v, j] under the given shift."""
    v = np.arange(cfg.grid_points, dtype=float)[:, None]
    centers = spot_centers(cfg)[None, :] + shift
    return np.exp(-((v - centers) ** 2) / (2.0 * cfg.kernel_width**2))


def region_masks(cfg: PhantomConfig):
    """(target, rectum, unclassified) boolean masks over the grid."""
    idx = np.arange(cfg.grid_points)
    target = (idx >= cfg.target_span[0]) & (idx < cfg.target_span[1])
    rectum = (idx >= cfg.rectum_span[0]) & (idx < cfg.rectum_span[1])
    return target, rectum, ~target & ~rectum


def uniform_level(cfg: PhantomConfig) -> float:
    """Per-spot weight giving mean nominal target dose = the prescription."""
    target, _, _ = region_masks(cfg)
    per_unit = dose_matrix(cfg).sum(axis=1)[target].mean()
    return cfg.prescribed_dose / per_unit


def budget(cfg: PhantomConfig) -> float:
    """Total-weight cap for the candidate lattice."""
    return cfg.budget_factor * cfg.spots * uniform_level(cfg)


def objective_values(cfg: PhantomConfig, weights, shift: float = 0.0) -> np.ndarray:
    """(f1, f2) rows for spot-weight vectors (given as rows) under one shift."""
    x = np.atleast_2d(np.asarray(weights, dtype=float))
    if x.shape[1] != cfg.spots:
        raise ValueError(f"weight vectors must have {cfg.spots} entries")
    doses = x @ dose_matrix(cfg, shift).T
    target, rectum, unclassified = region_masks(cfg)
    f1 = cfg.target_weight * ((doses[:, target] - cfg.prescribed_dose) ** 2).sum(axis=1)
    f2 = cfg.rectum_weight * (doses[:, rectum] ** 2).sum(axis=1)
    f2 = f2 + cfg.unclassified_weight * (doses[:, unclassified] ** 2).sum(axis=1)
    return np.column_stack([f1, f2])


def candidate_weights(cfg: PhantomConfig, candidate_id: str) -> np.ndarray:
    """Spot-weight vector behind a candidate id ("uniform" or a digit string)."""
    if candidate_id == "uniform":
        return np.full(cfg.spots, uniform_level(cfg))
    if len(candidate_id) != cfg.spots or not candidate_id.isdigit():
        raise KeyError(f"malformed phantom candidate id {candidate_id!r}")
    grades = np.array([int(ch) for ch in candidate_id], dtype=float)
    if grades.sum() > cfg.lattice_resolution:
        raise KeyError(f"candidate id {candidate_id!r} exceeds the weight budget")
    return grades * (budget(cfg) / cfg.lattice_resolution)


def generate(cfg: PhantomConfig = PhantomConfig()) -> Instance:
    """Build the table-form instance for the configured phantom.

    Lattice ids are the digit strings of the spot loadings with total at most
    the resolution (at most 9), in ascending lexicographic order.
    """
    grades = compositions(cfg.lattice_resolution, cfg.spots + 1)[:, :-1]
    digits = (grades + ord("0")).astype(np.uint8).view(f"S{cfg.spots}").ravel()
    ids = tuple(digits.astype(str).tolist()) + ("uniform",)
    x = np.vstack([grades * (budget(cfg) / cfg.lattice_resolution), np.full(cfg.spots, uniform_level(cfg))])
    sids = tuple(scenario_id(s) for s in cfg.shifts)
    values = np.stack([objective_values(cfg, x, s) for s in cfg.shifts], axis=1)
    return Instance(
        n=2,
        scenarios=ScenarioSet(ids=sids),
        objectives=TableObjectives.stacked(ids, sids, values),
        candidates=ExplicitCandidates(ids),
        name="phantom",
    )
