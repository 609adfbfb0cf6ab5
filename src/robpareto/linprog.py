"""Self-contained dense linear programming kernel.

Minimizes c.v subject to a_ub.v <= b_ub, a_eq.v = b_eq, with every variable
bounded below by 0 unless flagged free.  Two-phase tableau simplex; Dantzig
pricing with an automatic switch to Bland's rule after a stall, which makes
cycling impossible; a generous hard iteration cap turns a (theoretically
unreachable) runaway into SolverStalledError instead of a hang.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
_PIVOT_TOL = 1e-10


class SolverStalledError(RuntimeError):
    """Raised when the cycling guard is exhausted."""


@dataclass(eq=False)
class LpProblem:
    """minimize c.v  s.t.  a_ub v <= b_ub,  a_eq v = b_eq,  v >= 0 (or free)."""

    c: np.ndarray
    a_ub: Optional[np.ndarray] = None
    b_ub: Optional[np.ndarray] = None
    a_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    free: Optional[np.ndarray] = None  # bool mask; True lifts the lower bound to -inf

    def __post_init__(self):
        self.c = np.atleast_1d(np.asarray(self.c, dtype=float))
        nvar = self.c.shape[0]
        if nvar == 0:
            raise ValueError("LP needs at least one variable")

        def pair(a, b, what):
            if a is None and b is None:
                return None, None
            if a is None or b is None:
                raise ValueError(f"{what}: matrix and rhs must be given together")
            a = np.atleast_2d(np.asarray(a, dtype=float))
            b = np.atleast_1d(np.asarray(b, dtype=float))
            if a.shape[1] != nvar:
                raise ValueError(f"{what}: matrix has {a.shape[1]} columns, expected {nvar}")
            if a.shape[0] != b.shape[0]:
                raise ValueError(f"{what}: {a.shape[0]} rows vs {b.shape[0]} rhs entries")
            return a, b

        self.a_ub, self.b_ub = pair(self.a_ub, self.b_ub, "a_ub")
        self.a_eq, self.b_eq = pair(self.a_eq, self.b_eq, "a_eq")
        if self.free is None:
            self.free = np.zeros(nvar, dtype=bool)
        else:
            self.free = np.atleast_1d(np.asarray(self.free, dtype=bool))
            if self.free.shape[0] != nvar:
                raise ValueError("free mask length does not match variable count")
        for arr in (self.c, self.a_ub, self.b_ub, self.a_eq, self.b_eq):
            if arr is not None and not np.all(np.isfinite(arr)):
                raise ValueError("LP data has non-finite entries")

    @property
    def nvar(self) -> int:
        return self.c.shape[0]


@dataclass(eq=False)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Optional[float] = None
    x: Optional[np.ndarray] = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _pivot(t: np.ndarray, row: int, col: int, basis) -> None:
    t[row] /= t[row, col]
    colvals = t[:, col].copy()
    colvals[row] = 0.0
    # one rank-1 update clears the column everywhere else, objective row included
    t -= np.outer(colvals, t[row])
    basis[row] = col


def _ratio_row(t: np.ndarray, col: int, m: int, basis) -> Optional[int]:
    best = None
    best_ratio = None
    column = t[:m, col]
    rhs = t[:m, -1]
    for i in range(m):
        coef = column[i]
        if coef > _PIVOT_TOL:
            ratio = rhs[i] / coef
            if (
                best is None
                or ratio < best_ratio - 1e-12
                or (abs(ratio - best_ratio) <= 1e-12 and basis[i] < basis[best])
            ):
                best, best_ratio = i, ratio
    return best


def _run_simplex(t: np.ndarray, basis, m: int, ncols: int, allowed: int, max_iter: int) -> str:
    """Iterate on tableau t until optimal/unbounded.  Returns the status."""
    bland_after = max(64, 4 * (m + ncols))
    stalled = 0
    last_obj = t[m, -1]
    for it in range(max_iter):
        bland = it >= bland_after or stalled >= 32
        obj = t[m, :allowed]
        if bland:
            enter = None
            for j in range(allowed):
                if obj[j] < -OPT_TOL:
                    enter = j
                    break
        else:
            j = int(np.argmin(obj))
            enter = j if obj[j] < -OPT_TOL else None
        if enter is None:
            return "optimal"
        leave = _ratio_row(t, enter, m, basis)
        if leave is None:
            return "unbounded"
        _pivot(t, leave, enter, basis)
        new_obj = t[m, -1]
        stalled = stalled + 1 if abs(new_obj - last_obj) <= 1e-12 else 0
        last_obj = new_obj
    raise SolverStalledError("simplex iteration cap exceeded after Bland fallback")


def lp_solve(problem: LpProblem) -> LpResult:
    """Solve with the two-phase method.  Deterministic for fixed input."""
    nvar = problem.nvar
    n_free = int(problem.free.sum())
    n_ub = 0 if problem.a_ub is None else problem.a_ub.shape[0]
    n_eq = 0 if problem.a_eq is None else problem.a_eq.shape[0]
    m = n_ub + n_eq

    # columns: originals, negatives of free vars, slacks
    n_ext = nvar + n_free
    ncols = n_ext + n_ub
    a = np.zeros((m, ncols))
    b = np.zeros(m)
    if n_ub:
        a[:n_ub, :nvar] = problem.a_ub
        b[:n_ub] = problem.b_ub
        a[:n_ub, n_ext : n_ext + n_ub] = np.eye(n_ub)
    if n_eq:
        a[n_ub:, :nvar] = problem.a_eq
        b[n_ub:] = problem.b_eq
    if n_free:
        free_idx = np.flatnonzero(problem.free)
        a[:, nvar : nvar + n_free] = -a[:, free_idx]

    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    # rows that kept a +1 slack start basic on it; the rest get artificials
    needs_art = np.ones(m, dtype=bool)
    basis = [-1] * m
    for i in range(n_ub):
        if not neg[i]:
            basis[i] = n_ext + i
            needs_art[i] = False
    art_rows = np.flatnonzero(needs_art)
    n_art = art_rows.shape[0]

    total = ncols + n_art
    t = np.zeros((m + 1, total + 1))
    t[:m, :ncols] = a
    t[:m, -1] = b
    for k, i in enumerate(art_rows):
        t[i, ncols + k] = 1.0
        basis[i] = ncols + k

    max_iter = 1000 + 50 * (m + total)

    # phase 1: minimize the artificial sum
    if n_art:
        t[m, ncols:total] = 1.0
        for i in art_rows:
            t[m] -= t[i]
        status = _run_simplex(t, basis, m, total + 1, allowed=total, max_iter=max_iter)
        if status != "optimal":  # pragma: no cover - phase 1 is always bounded
            raise SolverStalledError("phase 1 ended " + status)
        if -t[m, -1] > FEAS_TOL:
            return LpResult(status="infeasible")
        # drive remaining artificials out of the basis or drop redundant rows
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] >= ncols:
                row = t[i, :ncols]
                cand = np.flatnonzero(np.abs(row) > 1e-9)
                if cand.size:
                    _pivot(t, i, int(cand[0]), basis)
                else:
                    keep[i] = False
        if not np.all(keep):
            rows = np.flatnonzero(keep)
            t = np.vstack([t[rows], t[m][None, :]])
            basis = [basis[i] for i in rows]
            m = rows.shape[0]
    t = np.delete(t, np.s_[ncols:total], axis=1)

    # phase 2: true costs
    t[m, :] = 0.0
    t[m, :nvar] = problem.c
    if n_free:
        t[m, nvar : nvar + n_free] = -problem.c[np.flatnonzero(problem.free)]
    for i in range(m):
        if abs(t[m, basis[i]]) > 0.0:
            t[m] -= t[m, basis[i]] * t[i]
    status = _run_simplex(t, basis, m, ncols + 1, allowed=ncols, max_iter=max_iter)
    if status == "unbounded":
        return LpResult(status="unbounded")

    x_ext = np.zeros(ncols)
    for i in range(m):
        x_ext[basis[i]] = t[i, -1]
    x = x_ext[:nvar].copy()
    if n_free:
        x[np.flatnonzero(problem.free)] -= x_ext[nvar : nvar + n_free]

    _check_result(problem, x)
    return LpResult(status="optimal", value=float(problem.c @ x), x=x)


def _check_result(problem: LpProblem, x: np.ndarray) -> None:
    slack = 1e3 * FEAS_TOL + 1e-7  # headroom; a violation here means a solver bug
    if problem.a_ub is not None:
        if np.any(problem.a_ub @ x - problem.b_ub > slack):
            raise SolverStalledError("optimal basis violates an inequality row")
    if problem.a_eq is not None:
        if np.any(np.abs(problem.a_eq @ x - problem.b_eq) > slack):
            raise SolverStalledError("optimal basis violates an equality row")
    lower = ~problem.free
    if np.any(x[lower] < -slack):
        raise SolverStalledError("optimal basis violates a variable bound")
