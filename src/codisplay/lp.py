"""Linear-program models and the relaxation solver.

Every solver path solves the compact slot-free relaxation, whose optimum
provably equals the full per-slot model's; one size-cap row per item makes it
the teleportation bound.  The per-slot models serve ``export`` and the tests.
All use the unit-sum objective (scaled preference on the item-per-user
variables, combined directed social weight on the edge variables), so
instances with lambda != 1/2 must be passed through
``core.scale_preferences`` first.

Builders register whole blocks of variables (``LpModel.add_vars``) and address
them by column index: each block is an index array, and the rows
(``LpModel.add_rows``) are reshapes, transposes and stacks of those arrays,
stored a block at a time.  Variable names are made once per block, for export
and for the check that a result begins with the block an expansion reads.

``solve_lp`` fills HiGHS's model object column-wise from the row blocks, calls
HiGHS's dual simplex directly (scipy's private ``_highspy._core``, with the
options of ``linprog(method="highs-ds")`` but presolve off, whose results and
marginals it matches to the bit) and checks the primal residual and dual
certificate of every optimum it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .core import DomainError, Instance

FEAS_TOL = 1e-7
CERT_TOL = 1e-6  # duality gap, dual sign and stationarity tolerance (relative)


@dataclass
class LpModel:
    """A linear (or, for export, binary) program in row form, maximization.

    Variables are registered in blocks and addressed by column index; rows
    are stored in blocks of ``(cols (R, L), coefs (R, L), sense, rhs (R,))``.
    """

    maximize: bool = True
    var_names: list[str] = field(default_factory=list)
    obj: list[float] = field(default_factory=list)
    upper: list[Optional[float]] = field(default_factory=list)
    blocks: list[tuple[np.ndarray, np.ndarray, str, np.ndarray]] = field(default_factory=list)

    def add_vars(self, name: str, shape: tuple[int, ...] = (), obj=0.0,
                 upper: Optional[float] = None) -> np.ndarray:
        """Register a row-major block named ``name_i_j...`` (plain ``name`` for
        a scalar shape); ``obj`` broadcasts over the block.  Returns the
        block's columns as an index array of ``shape``."""
        start = len(self.var_names)
        cols = np.arange(start, start + math.prod(shape), dtype=np.int64).reshape(shape)
        names = [name]
        for dim in shape:
            names = [f"{prefix}_{i}" for prefix in names for i in range(dim)]
        self.var_names.extend(names)
        self.obj.extend(np.broadcast_to(np.asarray(obj, dtype=float), shape).ravel().tolist())
        self.upper.extend([upper] * cols.size)
        return cols

    def add_rows(self, cols, coefs, sense: str, rhs) -> None:
        """Add one row per leading index of a ``(..., L)`` column array (a 1-D
        ``cols`` is one row); ``coefs`` and ``rhs`` broadcast over the rows."""
        if sense not in ("<=", "=", ">="):
            raise ValueError(f"bad sense {sense!r}")
        cols = np.asarray(cols, dtype=np.int64)
        if cols.size and (cols.min() < 0 or cols.max() >= len(self.var_names)):
            raise ValueError("constraint references unregistered variable")
        lead, width = cols.shape[:-1], cols.shape[-1]
        count = math.prod(lead)
        coefs = np.broadcast_to(np.asarray(coefs, dtype=float), cols.shape)
        rhs = np.broadcast_to(np.asarray(rhs, dtype=float), lead)
        self.blocks.append((cols.reshape(count, width), coefs.reshape(count, width), sense,
                            rhs.reshape(count)))
        self.__dict__.pop("rows", None)

    @cached_property
    def rows(self) -> tuple[tuple[np.ndarray, np.ndarray, str, float], ...]:
        """A read-only view of ``blocks`` as one ``(cols, coefs, sense, rhs)`` per row."""
        return tuple(row for c, v, sense, b in self.blocks
                     for row in zip(c, v, [sense] * b.size, b.tolist()))

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    @property
    def num_rows(self) -> int:
        return sum(block[3].size for block in self.blocks)


@dataclass
class LpResult:
    objective: float
    x: np.ndarray
    status: str  # optimal | infeasible | unbounded | iteration_limit
    names: tuple[str, ...] = ()


# HiGHS model statuses as linprog maps them (a model HiGHS cannot load counts
# as infeasible); any other status is a solver failure
_HIGHS_STATUS = {"kOptimal": "optimal", "kTimeLimit": "iteration_limit",
                 "kIterationLimit": "iteration_limit", "kInfeasible": "infeasible",
                 "kModelError": "infeasible", "kUnbounded": "unbounded"}


class _FlatRows(NamedTuple):
    """``model.blocks`` as coordinate arrays, and the upper bounds as an array."""

    row_of: np.ndarray  # row of each stored coefficient
    cols: np.ndarray
    vals: np.ndarray
    senses: np.ndarray  # "<=", "=" or ">=" per row
    rhs: np.ndarray
    upper: np.ndarray  # inf where the model has no bound


def _flat_rows(model: LpModel) -> _FlatRows:
    empty = (np.zeros((0, 0), dtype=np.int64), np.zeros((0, 0)), "=", np.zeros(0))
    cols, coefs, senses, rhs = zip(*(model.blocks or [empty]))
    heights = [b.size for b in rhs]
    return _FlatRows(
        np.repeat(np.arange(sum(heights)), np.repeat([c.shape[1] for c in cols], heights)),
        np.concatenate([c.ravel() for c in cols]),
        np.concatenate([v.ravel() for v in coefs]),
        np.repeat(np.array(senses, dtype="<U2"), heights),
        np.concatenate(rhs),
        np.array([np.inf if u is None else u for u in model.upper], dtype=float),
    )


class _MinForm(NamedTuple):
    """A model as ``min c.x  s.t.  a x <= b`` on its first ``num_ub`` rows,
    ``a x = b`` on the rest, ``0 <= x <= upper``; ``a`` is stored column-wise
    (sorted by column, then row) with no repeated (row, column) pair."""

    c: np.ndarray
    row: np.ndarray  # row of each stored coefficient
    col: np.ndarray
    val: np.ndarray
    b: np.ndarray
    num_ub: int
    upper: np.ndarray  # inf where the model has no bound


class _HighsRun(NamedTuple):
    """One HiGHS solve: the mapped status (None for a failure) and its
    message; at an optimum also the point, the row duals and the bound duals
    (HiGHS's column duals split into lower and upper bound marginals)."""

    status: Optional[str]
    message: str
    x: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None
    y_low: Optional[np.ndarray] = None
    y_up: Optional[np.ndarray] = None


def solve_lp(model: LpModel, max_iter: int = 1_000_000) -> LpResult:
    """Solve a relaxed model with HiGHS's dual simplex.

    The returned status is one of optimal / infeasible / unbounded /
    iteration_limit; every optimum has its primal feasibility residual
    verified below 1e-7 and its dual certificate checked
    (``_check_certificate``).  A HiGHS failure of any other kind raises
    ArithmeticError.  HiGHS is imported on the first call, so commands that
    never solve do not pay for the import of scipy.
    """
    names = tuple(model.var_names)
    flat = _flat_rows(model)
    form = _min_form(model, flat)
    run = _run_highs(form, max_iter)
    if run.status is None:
        raise ArithmeticError(f"HiGHS failed: {run.message}")
    if run.status != "optimal":
        return LpResult(0.0, np.zeros(model.num_vars), run.status, names)
    _check_residuals(flat, run.x)
    _check_certificate(form, run)
    return LpResult(float(np.asarray(model.obj, dtype=float) @ run.x), run.x, "optimal", names)


def _min_form(model: LpModel, flat: _FlatRows) -> _MinForm:
    """Negates the objective of a maximization and the ``>=`` rows, puts the
    inequality rows before the equality rows (each in model order, as
    linprog stacks them) and sorts the coefficients by column, then row,
    summing any repeated pair."""
    c = np.asarray(model.obj, dtype=float)
    if not (np.isfinite(c).all() and np.isfinite(flat.vals).all()
            and np.isfinite(flat.rhs).all()) or np.isnan(flat.upper).any():
        raise ValueError("LP model has a non-finite coefficient, right-hand side or bound")
    flip = np.where(flat.senses == ">=", -1.0, 1.0)
    is_eq = flat.senses == "="
    order = np.argsort(is_eq, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    row = position[flat.row_of]
    val = flat.vals * flip[flat.row_of]
    by_col = np.lexsort((row, flat.cols))
    row, col, val = row[by_col], flat.cols[by_col], val[by_col]
    repeat = (col[1:] == col[:-1]) & (row[1:] == row[:-1])
    if repeat.any():
        first = np.flatnonzero(np.concatenate([[True], ~repeat]))
        row, col, val = row[first], col[first], np.add.reduceat(val, first)
    return _MinForm(-c if model.maximize else c, row, col, val, (flat.rhs * flip)[order],
                    int(order.size - is_eq.sum()), flat.upper)


def _run_highs(form: _MinForm, max_iter: int) -> _HighsRun:
    """Hands ``form`` to HiGHS with the options of linprog's "highs-ds" but
    presolve off (dual simplex, both iteration limits ``max_iter``, no output)
    and reads its status, point and duals.  A column dual is an upper-bound
    marginal where its column sits at a finite upper bound with a negative
    dual, else a lower-bound one: linprog's split, without a basis read."""
    from scipy.optimize._highspy import _core as hs

    num_cols, num_rows = form.c.size, form.b.size
    lp = hs.HighsLp()  # lists convert to HiGHS's vectors faster than arrays
    lp.num_col_ = lp.a_matrix_.num_col_ = num_cols
    lp.num_row_ = lp.a_matrix_.num_row_ = num_rows
    lp.a_matrix_.format_ = hs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.searchsorted(form.col, np.arange(num_cols + 1)).tolist()
    lp.a_matrix_.index_ = form.row.tolist()
    lp.a_matrix_.value_ = form.val.tolist()
    lp.col_cost_ = form.c.tolist()
    lp.col_lower_ = [0.0] * num_cols
    lp.col_upper_ = form.upper.tolist()
    lp.row_lower_ = [-hs.kHighsInf] * form.num_ub + form.b[form.num_ub:].tolist()
    lp.row_upper_ = form.b.tolist()

    options = hs.HighsOptions()
    options.presolve = "off"
    options.solver = "simplex"
    options.simplex_strategy = 1  # dual simplex
    options.simplex_iteration_limit = options.ipm_iteration_limit = max_iter
    options.output_flag = options.log_to_console = False
    highs = hs._Highs()
    highs.passOptions(options)
    if highs.passModel(lp) == hs.HighsStatus.kError:
        status = hs.HighsModelStatus.kModelError
    else:
        highs.run()
        status = highs.getModelStatus()
    name = _HIGHS_STATUS.get(status.name)
    message = highs.modelStatusToString(status)
    if name != "optimal":
        return _HighsRun(name, message)
    solution = highs.getSolution()
    x, col_dual = np.array(solution.col_value), np.array(solution.col_dual)
    y_up = np.where((x == form.upper) & (col_dual < 0.0), col_dual, 0.0)
    return _HighsRun(name, message, x, np.array(solution.row_dual), col_dual - y_up, y_up)


def _check_certificate(form: _MinForm, run: _HighsRun) -> None:
    """Verifies the dual certificate of a minimization optimum of ``form``.

    The duals are HiGHS's marginals (the sensitivity of the optimum to each
    right-hand side or bound): ``y <= 0`` on the inequality rows,
    ``y_up <= 0``, ``y_low >= 0``, and the reduced costs ``c - a' y`` must
    equal the bound duals ``y_up + y_low``.  With those, a zero duality gap
    ``c.x - (b.y + upper.y_up)`` proves ``x`` optimal.
    """
    c, y, y_up, y_low = form.c, run.y, run.y_up, run.y_low
    tol = CERT_TOL * max(1.0, float(np.abs(c).max(initial=0.0)))
    finite = np.isfinite(form.upper)
    sign = max(float(y[:form.num_ub].max(initial=0.0)), float(y_up.max(initial=0.0)),
               float(-y_low.min(initial=0.0)), float(np.abs(y_up[~finite]).max(initial=0.0)))
    if sign > tol:
        raise ArithmeticError(f"HiGHS returned duals of the wrong sign (by {sign:.3g})")
    reduced = (c - np.bincount(form.col, weights=form.val * y[form.row], minlength=c.size)
               - y_up - y_low)
    stationarity = float(np.abs(reduced).max(initial=0.0))
    if stationarity > tol:
        raise ArithmeticError(f"HiGHS reduced costs are not stationary (by {stationarity:.3g})")
    primal = float(c @ run.x)
    dual = float(form.b @ y + form.upper[finite] @ y_up[finite])
    gap = abs(primal - dual)
    if gap > CERT_TOL * max(1.0, abs(primal)):
        raise ArithmeticError(f"HiGHS optimum has duality gap {gap:.3g}")


def _check_residuals(flat: _FlatRows, x: np.ndarray) -> None:
    lhs = np.bincount(flat.row_of, weights=flat.vals * x[flat.cols], minlength=flat.rhs.size)
    excess = lhs - flat.rhs
    violation = np.where(flat.senses == "<=", excess,
                         np.where(flat.senses == ">=", -excess, np.abs(excess)))
    worst = max(0.0, float(violation.max(initial=0.0)), float(-x.min(initial=0.0)),
                float((x - flat.upper).max(initial=0.0)))
    if worst > FEAS_TOL:
        raise ArithmeticError(f"simplex returned an infeasible point (residual {worst:.3g})")


# ---------------------------------------------------------------------------
# model builders
# ---------------------------------------------------------------------------


def _link_rows(mdl: LpModel, total: np.ndarray, parts: np.ndarray) -> None:
    """``total = sum of parts over their last axis``, one row per cell of ``total``."""
    mdl.add_rows(np.concatenate([total[..., None], parts], axis=-1),
                 [1.0] + [-1.0] * parts.shape[-1], "=", 0.0)


def _edge_rows(mdl: LpModel, inst: Instance, y: np.ndarray, x: np.ndarray) -> None:
    """``y <= x[eu]`` and ``y <= x[ev]``, the pair of rows per edge cell."""
    mdl.add_rows(np.stack([np.stack([y, x[inst.eu]], axis=-1),
                           np.stack([y, x[inst.ev]], axis=-1)], axis=-2),
                 [1.0, -1.0], "<=", 0.0)


def _full_lp(inst: Instance, ye_obj: np.ndarray) -> tuple[LpModel, np.ndarray, np.ndarray]:
    """The per-slot model and its ``x`` (n, m, k) and ``xu`` (n, m) blocks."""
    n, m, k, num_edges = inst.n, inst.m, inst.k, inst.num_edges
    mdl = LpModel()
    x = mdl.add_vars("x", (n, m, k))
    xu = mdl.add_vars("xu", (n, m), obj=inst.pref)
    y = mdl.add_vars("y", (num_edges, m, k))
    ye = mdl.add_vars("ye", (num_edges, m), obj=ye_obj)
    mdl.add_rows(x, 1.0, "<=", 1.0)  # item at most once per user
    mdl.add_rows(x.transpose(0, 2, 1), 1.0, "=", 1.0)  # one item per slot
    _link_rows(mdl, xu, x)
    _link_rows(mdl, ye, y)
    _edge_rows(mdl, inst, y, x)
    return mdl, x, xu


def build_full_lp(inst: Instance) -> LpModel:
    """Per-slot relaxation with unit-sum objective.

    Callers must pass a lambda = 1/2 instance (scale_preferences otherwise).
    Upper bounds of 1 on every variable are implied by the row structure and
    therefore not added explicitly.
    """
    return _full_lp(inst, inst.w)[0]


def build_simplified_lp(inst: Instance, cap: Optional[int] = None) -> LpModel:
    """Compact slot-free relaxation; optimum equals the full relaxation.

    With a ``cap``, the rows ``sum_u xu[u,c] <= k*cap`` (the size cuts summed
    over slots) give it ``build_st_lp``'s optimum for every d_tel: a per-slot
    point sums over slots to a compact one, and a compact optimum lifts back
    as ``x = xu/k``, ``y = ye/k``, ``z = ye`` with the same objective.
    """
    mdl = LpModel()
    xu = mdl.add_vars("xu", (inst.n, inst.m), obj=inst.pref, upper=1.0)
    ye = mdl.add_vars("ye", (inst.num_edges, inst.m), obj=inst.w)
    mdl.add_rows(xu, 1.0, "=", float(inst.k))
    _edge_rows(mdl, inst, ye, xu)
    if cap is not None:
        mdl.add_rows(xu.T, 1.0, "<=", float(inst.k * cap))
    return mdl


def build_st_lp(inst: Instance) -> LpModel:
    """Full relaxation extended with teleportation terms and subgroup size cuts.

    The social coefficient is split between aligned co-display (1 - d_tel on
    the per-slot edge variables) and any-slot co-display (d_tel on the new
    edge variables).  The per-(item, slot) size cuts are a deliberate
    strengthening: they do not cut any feasible integer point.  The solver
    paths solve ``build_simplified_lp(inst, inst.st.M)``, which has the same
    optimum; this per-slot model serves ``export``.
    """
    if inst.st is None:
        raise DomainError("instance has no teleportation parameters")
    d = inst.st.d_tel
    mdl, x, xu = _full_lp(inst, (1.0 - d) * inst.w)
    z = mdl.add_vars("z", (inst.num_edges, inst.m), obj=d * inst.w)
    _edge_rows(mdl, inst, z, xu)
    mdl.add_rows(x.transpose(1, 2, 0), 1.0, "<=", float(inst.st.M))  # size cuts
    return mdl


# ---------------------------------------------------------------------------
# fractional solutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FractionalSolution:
    """Per-slot utility factors x[u][c][s] from a relaxation optimum.

    Entries below solver noise (1e-9) are clamped to exact zero so that
    threshold comparisons and starvation detection treat them as absent.
    Non-finite entries are rejected: rounding compares every factor with 0.
    """

    x: np.ndarray  # (n, m, k)

    def __post_init__(self):
        arr = np.array(self.x, dtype=float, order="C")  # never the caller's array
        if not np.isfinite(arr).all():
            raise DomainError("utility factors must be finite")
        arr[np.abs(arr) < 1e-9] = 0.0
        arr.setflags(write=False)
        object.__setattr__(self, "x", arr)

    def check(self, atol: float = 1e-6) -> None:
        x = self.x
        if ((x < -atol) | (x > 1 + atol)).any():
            raise DomainError("utility factors outside [0, 1]")
        slot_sums = x.sum(axis=1)  # (n, k)
        if not np.allclose(slot_sums, 1.0, atol=atol):
            raise DomainError("per-(user, slot) factors must sum to 1")
        item_sums = x.sum(axis=2)  # (n, m)
        if (item_sums > 1 + atol).any():
            raise DomainError("per-(user, item) factors must sum to at most 1")


def _leading_block(result: LpResult, shape: tuple[int, ...], last_name: str) -> np.ndarray:
    """The first variables of an optimum, reshaped: every builder registers its
    ``xu`` (compact) or ``x`` (per-slot) block first, in row-major order."""
    if result.status != "optimal":
        raise DomainError(f"relaxation not solved to optimality: {result.status}")
    size = math.prod(shape)
    if result.names[size - 1 : size] != (last_name,):
        raise DomainError(f"result does not begin with a block ending in {last_name}")
    return result.x[:size].reshape(shape)


def expand_solution(result: LpResult, inst: Instance) -> FractionalSolution:
    """Spread a compact optimum uniformly over slots: x[u][c][s] = xu/k."""
    xu = _leading_block(result, (inst.n, inst.m), f"xu_{inst.n - 1}_{inst.m - 1}")
    x = np.repeat(xu[:, :, None] / inst.k, inst.k, axis=2)
    frac = FractionalSolution(np.clip(x, 0.0, 1.0))
    frac.check()
    return frac


def frac_from_full_result(result: LpResult, inst: Instance) -> FractionalSolution:
    """Collect the per-slot variables of a full or teleportation model optimum."""
    x = _leading_block(result, (inst.n, inst.m, inst.k),
                       f"x_{inst.n - 1}_{inst.m - 1}_{inst.k - 1}")
    return FractionalSolution(np.clip(x, 0.0, 1.0))


def solve_fractional(inst: Instance,
                     cap: Optional[int] = None) -> tuple[FractionalSolution, float]:
    """Compact relaxation, under the size ``cap`` if given, solved and expanded.

    Returns the per-slot factors and the relaxation optimum (unit-sum).  The
    instance must already be in the lambda = 1/2 convention.
    """
    res = solve_lp(build_simplified_lp(inst, cap))
    return expand_solution(res, inst), res.objective


# ---------------------------------------------------------------------------
# model export
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _linear(terms) -> str:
    """``a x + b y - c z`` from (coefficient, name) pairs."""
    return " ".join(f"{'+ ' if coef >= 0 else '- '}{_fmt(abs(coef))} {name}"
                    for coef, name in terms).lstrip("+ ")


def export_model(model: LpModel, integrality: bool = False) -> str:
    """Render the model as CPLEX LP-format text."""
    names = model.var_names
    out = ["Maximize" if model.maximize else "Minimize"]
    objective = [(coef, name) for coef, name in zip(model.obj, names) if coef != 0.0]
    out.append(" obj: " + _linear(objective or [(0.0, names[0])]))
    out.append("Subject To")
    rows = ((sense, *row) for cols, coefs, sense, rhs in model.blocks
            for row in zip(cols.tolist(), coefs.tolist(), rhs.tolist()))
    for i, (sense, cols, coefs, rhs) in enumerate(rows, 1):
        out.append(f" c{i}: {_linear(zip(coefs, (names[j] for j in cols)))} {sense} {_fmt(rhs)}")
    bound_lines = [
        f" 0 <= {name} <= {_fmt(ub)}"
        for name, ub in zip(names, model.upper)
        if ub is not None
    ]
    if bound_lines:
        out.append("Bounds")
        out.extend(bound_lines)
    if integrality:  # every variable of the assignment program is binary
        out.append("Binary")
        out.extend(f" {name}" for name in names)
    out.append("End")
    return "\n".join(out) + "\n"
