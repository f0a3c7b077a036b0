"""Reference relaxation solver: an ``LpModel`` handed to HiGHS through scipy.

The benchmark uses it in two places.  It solves the n=200 relaxation during
set-up, so that the rounding workload never times an LP solve, and it
cross-checks every bound the program's own simplex reports.  Only the
model's public fields (``obj``, ``rows``, ``upper``, ``maximize``) are read.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

BOUND_TOL = 1e-6


def solve_reference(model) -> tuple[float, np.ndarray]:
    """Optimum (objective in the model's own sense, x) of the relaxed model.

    Raises ArithmeticError when HiGHS does not report an optimum.
    """
    n = model.num_vars
    if model.rows:
        cols = np.concatenate([r[0] for r in model.rows]).astype(np.int64)
        vals = np.concatenate([r[1] for r in model.rows]).astype(float)
        lengths = np.array([r[0].size for r in model.rows])
        row_of = np.repeat(np.arange(len(model.rows)), lengths)
        senses = np.array([r[2] for r in model.rows])
        rhs = np.array([r[3] for r in model.rows], dtype=float)
    else:
        cols = row_of = np.zeros(0, dtype=np.int64)
        vals = rhs = np.zeros(0)
        senses = np.zeros(0, dtype="<U2")
    # ">=" rows are negated into "<=" rows
    flip = np.where(senses == ">=", -1.0, 1.0)
    vals = vals * flip[row_of]
    rhs = rhs * flip
    eq = senses == "="

    def block(mask):
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            return None, None
        new_row = np.full(len(senses), -1)
        new_row[idx] = np.arange(idx.size)
        keep = mask[row_of]
        mat = sparse.csr_array((vals[keep], (new_row[row_of[keep]], cols[keep])),
                               shape=(idx.size, n))
        return mat, rhs[idx]

    a_ub, b_ub = block(~eq)
    a_eq, b_eq = block(eq)
    c = np.asarray(model.obj, dtype=float)
    if model.maximize:
        c = -c
    bounds = [(0.0, None if ub is None else float(ub)) for ub in model.upper]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    if res.status != 0:
        raise ArithmeticError(f"reference solver status {res.status}: {res.message}")
    objective = -res.fun if model.maximize else res.fun
    return float(objective), np.asarray(res.x, dtype=float)


class ReferenceBounds:
    """Reference optima keyed by model content, so a model the program builds
    again for every cell of a comparison is solved by HiGHS only once."""

    def __init__(self):
        self._cache: dict[tuple, float] = {}

    def bound(self, model) -> float:
        obj = np.asarray(model.obj, dtype=float)
        key = (model.num_vars, model.num_rows, obj.tobytes(),
               sum(r[3] for r in model.rows))
        if key not in self._cache:
            self._cache[key] = solve_reference(model)[0]
        return self._cache[key]
