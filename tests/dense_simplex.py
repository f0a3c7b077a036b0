"""Dense two-phase simplex: the independent reference HiGHS is checked against.

``solve_dense(model, max_iter)`` takes the same ``LpModel`` as
``codisplay.lp.solve_lp`` and returns an ``LpResult`` with the same statuses,
so tests can compare the two solvers on every model the builders produce.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from codisplay.lp import FEAS_TOL, LpModel, LpResult, _check_residuals, _flat_rows

PIVOT_TOL = 1e-9


class Tableau:
    """Dense two-phase primal simplex.

    Pricing is Dantzig (most negative reduced cost); after a run of degenerate
    pivots with no objective progress the solver switches to Bland's rule,
    which guarantees termination, and switches back once progress resumes.
    """

    STALL_LIMIT = 64

    def __init__(self, A: np.ndarray, b: np.ndarray, senses: list[str], c: np.ndarray):
        m, n = A.shape
        # normalize rhs >= 0
        for i in range(m):
            if b[i] < 0:
                A[i] *= -1.0
                b[i] = -b[i]
                senses[i] = {"<=": ">=", ">=": "<=", "=": "="}[senses[i]]
        slack_of, art_of = {}, {}
        ncols = n
        for i, s in enumerate(senses):
            if s == "<=":
                slack_of[i] = ncols; ncols += 1
            elif s == ">=":
                slack_of[i] = ncols; ncols += 1
                art_of[i] = ncols; ncols += 1
            else:
                art_of[i] = ncols; ncols += 1
        T = np.zeros((m + 1, ncols + 1))
        T[:m, :n] = A
        T[:m, -1] = b
        basis = np.empty(m, dtype=np.int64)
        for i, s in enumerate(senses):
            if s == "<=":
                T[i, slack_of[i]] = 1.0
                basis[i] = slack_of[i]
            elif s == ">=":
                T[i, slack_of[i]] = -1.0
                T[i, art_of[i]] = 1.0
                basis[i] = art_of[i]
            else:
                T[i, art_of[i]] = 1.0
                basis[i] = art_of[i]
        self.T, self.basis, self.m, self.n = T, basis, m, n
        self.c_struct = c
        self.art_cols = np.array(sorted(art_of.values()), dtype=np.int64)
        self.iterations = 0

    def _set_costs(self, c_full: np.ndarray) -> None:
        T, m = self.T, self.m
        T[m, :] = 0.0
        T[m, : c_full.size] = -c_full
        for i in range(m):
            cb = c_full[self.basis[i]] if self.basis[i] < c_full.size else 0.0
            if cb != 0.0:
                T[m] += cb * T[i]

    def _pivot(self, r: int, j: int) -> None:
        T = self.T
        T[r] /= T[r, j]
        col = T[:, j].copy()
        col[r] = 0.0
        T -= np.outer(col, T[r])
        T[:, j] = 0.0
        T[r, j] = 1.0
        self.basis[r] = j

    def _ratio_row(self, j: int) -> Optional[int]:
        T, m = self.T, self.m
        col = T[:m, j]
        ok = col > PIVOT_TOL
        if not ok.any():
            return None
        ratios = np.full(m, np.inf)
        ratios[ok] = T[:m, -1][ok] / col[ok]
        best = ratios.min()
        # lowest basis index among ties: Bland-style anti-cycling in the ratio test
        tied = np.flatnonzero(ratios <= best + PIVOT_TOL * max(1.0, abs(best)))
        return int(tied[np.argmin(self.basis[tied])])

    def iterate(self, allowed: np.ndarray, max_iter: int) -> str:
        T, m = self.T, self.m
        stall = 0
        bland = False
        last_obj = T[m, -1]
        while True:
            if self.iterations >= max_iter:
                return "iteration_limit"
            row = T[m, :-1]
            neg = np.flatnonzero(allowed & (row < -PIVOT_TOL))
            if neg.size == 0:
                return "optimal"
            j = int(neg[0]) if bland else int(neg[np.argmin(row[neg])])
            r = self._ratio_row(j)
            if r is None:
                return "unbounded"
            self._pivot(r, j)
            self.iterations += 1
            if T[m, -1] > last_obj + PIVOT_TOL:
                last_obj = T[m, -1]
                stall = 0
                bland = False
            else:
                stall += 1
                if stall >= self.STALL_LIMIT:
                    bland = True


def solve_dense(model: LpModel, max_iter: int = 1_000_000) -> LpResult:
    """Solve a relaxed model with the dense two-phase simplex.

    Finite upper bounds are handled as explicit rows.  The returned status is
    one of optimal / infeasible / unbounded / iteration_limit; on optimal the
    primal feasibility residual is verified below 1e-7.
    """
    n = model.num_vars
    flat = _flat_rows(model)
    bounded = np.flatnonzero(np.isfinite(flat.upper))  # finite upper bounds become rows
    A = np.zeros((flat.rhs.size + bounded.size, n))
    A[flat.row_of, flat.cols] = flat.vals
    A[flat.rhs.size + np.arange(bounded.size), bounded] = 1.0
    b = np.concatenate([flat.rhs, flat.upper[bounded]])
    senses = flat.senses.tolist() + ["<="] * bounded.size
    c = np.asarray(model.obj, dtype=float)
    if not model.maximize:
        c = -c

    tab = Tableau(A, b, senses, c)
    ncols = tab.T.shape[1] - 1

    # phase 1: drive artificial variables to zero
    if tab.art_cols.size:
        c1 = np.zeros(ncols)
        c1[tab.art_cols] = -1.0
        tab._set_costs(c1)
        status = tab.iterate(np.ones(ncols, dtype=bool), max_iter)
        if status != "optimal":
            return LpResult(0.0, np.zeros(n), status, tuple(model.var_names))
        if tab.T[tab.m, -1] < -FEAS_TOL:
            return LpResult(0.0, np.zeros(n), "infeasible", tuple(model.var_names))
        art_set = set(tab.art_cols.tolist())
        drop = []
        for i in range(tab.m):
            if tab.basis[i] in art_set:
                row = tab.T[i, :-1].copy()
                row[tab.art_cols] = 0.0
                cand = np.flatnonzero(np.abs(row) > PIVOT_TOL)
                if cand.size:
                    tab._pivot(i, int(cand[0]))
                else:
                    drop.append(i)  # redundant constraint
        if drop:
            keep = [i for i in range(tab.m) if i not in set(drop)]
            tab.T = np.vstack([tab.T[keep], tab.T[-1:]])
            tab.basis = tab.basis[keep]
            tab.m = len(keep)

    # phase 2
    c2 = np.zeros(ncols)
    c2[:n] = c
    tab._set_costs(c2)
    allowed = np.ones(ncols, dtype=bool)
    allowed[tab.art_cols] = False
    status = tab.iterate(allowed, max_iter)
    if status != "optimal":
        return LpResult(0.0, np.zeros(n), status, tuple(model.var_names))

    x_full = np.zeros(ncols)
    x_full[tab.basis] = tab.T[: tab.m, -1]
    x = x_full[:n]
    obj = float(c @ x)
    if not model.maximize:
        obj = -obj

    _check_residuals(flat, x)
    return LpResult(obj, x, "optimal", tuple(model.var_names))
