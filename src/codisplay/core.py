"""Problem model: instances, configurations, objectives, and evaluation metrics.

Conventions used throughout the package:

* users, items, and slots are 0-indexed;
* a configuration is an n-by-k integer matrix ``assign`` with ``assign[u, s]``
  the item shown to user ``u`` at slot ``s``;
* the "canonical" objective weighs preference by ``1 - lambda`` and social
  utility by ``lambda``; the "unit_sum" objective is the unweighted sum of
  preference plus both directed social terms per co-displayed edge (the
  convention in which all worked example values are stated).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Optional

import numpy as np

FLOAT_ATOL = 1e-9


class DomainError(ValueError):
    """An operation was applied to inputs outside its domain."""


class StructuralError(ValueError):
    """Shapes or index ranges of the inputs do not line up."""


def _frozen_array(a, dtype, shape=None) -> np.ndarray:
    """A read-only C-contiguous copy; the caller's array stays writable."""
    arr = np.array(a, dtype=dtype, order="C")
    if shape is not None and arr.shape != shape:
        raise StructuralError(f"expected array of shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


def seeded_rng(seed: int) -> np.random.Generator:
    """The Philox 4x64 generator of a seed: every random draw starts here."""
    if seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed}")
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class StParams:
    """Teleportation discount and subgroup size cap for the size-constrained variant."""

    d_tel: float
    M: int

    def __post_init__(self):
        if not (0.0 <= self.d_tel < 1.0):
            raise DomainError(f"d_tel must lie in [0, 1), got {self.d_tel}")
        # is_integer first: int() of inf or nan raises before any comparison
        if not float(self.M).is_integer() or int(self.M) != self.M or self.M < 1:
            raise DomainError(f"subgroup size cap M must be an integer >= 1, got {self.M}")
        object.__setattr__(self, "M", int(self.M))


@dataclass(frozen=True)
class Edge:
    """Undirected friendship {u, v} carrying both directed per-item social utilities."""

    u: int
    v: int
    tau_uv: np.ndarray  # tau(u, v, c) for every item c
    tau_vu: np.ndarray  # tau(v, u, c)

    def weight(self) -> np.ndarray:
        """Per-item combined weight tau(u,v,c) + tau(v,u,c)."""
        return self.tau_uv + self.tau_vu


@dataclass(frozen=True)
class Instance:
    """A group-item configuration problem instance.

    ``edges`` is the input and serialisation form of the friendships; every
    computation reads the read-only edge index built from it: endpoints
    ``eu``/``ev`` (E,), ``tau`` (E, 2, m) = (tau(eu, ev, .), tau(ev, eu, .))
    per edge, and weights ``w = tau[:, 0] + tau[:, 1]`` (E, m).

    ``optimistic_ub`` and ``optimistic_ranking`` are built on first use and
    kept; a copy made by ``dataclasses.replace`` or by pickling builds its own.
    """

    n: int
    m: int
    k: int
    pref: np.ndarray  # (n, m) preference utilities
    edges: tuple[Edge, ...]
    lam: float
    st: Optional[StParams] = None
    eu: np.ndarray = field(init=False, repr=False, compare=False)
    ev: np.ndarray = field(init=False, repr=False, compare=False)
    tau: np.ndarray = field(init=False, repr=False, compare=False)
    w: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise DomainError("need at least one user and one item")
        if not (1 <= self.k <= self.m):
            raise DomainError(f"need 1 <= k <= m, got k={self.k}, m={self.m}")
        if not (0.0 <= self.lam <= 1.0):
            raise DomainError(f"lambda must lie in [0, 1], got {self.lam}")
        pref = _frozen_array(self.pref, float, (self.n, self.m))
        if not np.isfinite(pref).all():
            raise DomainError("preference utilities must be finite")
        if (pref < 0).any():
            raise DomainError("preference utilities must be nonnegative")
        object.__setattr__(self, "pref", pref)

        seen = set()
        frozen_edges = []
        for e in self.edges:
            if not (0 <= e.u < self.n and 0 <= e.v < self.n) or e.u == e.v:
                raise StructuralError(f"bad edge ({e.u}, {e.v})")
            key = (min(e.u, e.v), max(e.u, e.v))
            if key in seen:
                raise StructuralError(f"duplicate edge {key}")
            seen.add(key)
            frozen_edges.append(Edge(e.u, e.v, _frozen_array(e.tau_uv, float, (self.m,)),
                                     _frozen_array(e.tau_vu, float, (self.m,))))
        object.__setattr__(self, "edges", tuple(frozen_edges))

        tau = _frozen_array([(e.tau_uv, e.tau_vu) for e in frozen_edges], float)
        tau = tau.reshape(-1, 2, self.m)
        if not np.isfinite(tau).all():
            raise DomainError("social utilities must be finite")
        if (tau < 0).any():
            raise DomainError("social utilities must be nonnegative")
        object.__setattr__(self, "eu", _frozen_array([e.u for e in frozen_edges], np.int64))
        object.__setattr__(self, "ev", _frozen_array([e.v for e in frozen_edges], np.int64))
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "w", _frozen_array(tau[:, 0] + tau[:, 1], float))

        if self.st is not None and math.ceil(self.n / self.st.M) > self.m:
            raise DomainError(
                f"infeasible size cap: ceil(n/M) = {math.ceil(self.n / self.st.M)} > m = {self.m}"
            )

    def __reduce__(self):
        # rebuild through the constructor so that a copy sent to a worker
        # process is validated and frozen like the original
        return (Instance, (self.n, self.m, self.k, self.pref, self.edges, self.lam, self.st))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def optimistic_ub(self) -> np.ndarray:
        """Read-only `optimistic_utility` of the instance."""
        ub = optimistic_utility(self)
        ub.setflags(write=False)
        return ub

    @cached_property
    def optimistic_ranking(self) -> np.ndarray:
        """Read-only (n, m): each user's items by descending optimistic
        utility, ties to the lower index."""
        ranked = np.argsort(-self.optimistic_ub, axis=1, kind="stable")
        ranked.setflags(write=False)
        return ranked

    def edges_within(self, users) -> np.ndarray:
        """(E,) mask of the edges with both endpoints among `users`."""
        inside = np.zeros(self.n, dtype=bool)
        inside[np.asarray(users, dtype=np.int64)] = True
        return inside[self.eu] & inside[self.ev]


@dataclass(frozen=True)
class Configuration:
    """An assignment of items to (user, slot) cells.  It is feasible when every
    user sees k pairwise-distinct items (see `validate`); independent rounding
    may repeat an item in a user's row."""

    assign: np.ndarray  # (n, k) item indices

    def __post_init__(self):
        object.__setattr__(self, "assign", _frozen_array(self.assign, np.int64))


@dataclass
class MetricsReport:
    """All evaluation metrics for one configuration on one instance."""

    objective_canonical: float
    objective_unit_sum: float
    personal_pct: float
    social_pct: float
    inter_pct: float
    intra_pct: float
    normalized_density: float
    codisplay_pct: float
    alone_pct: float
    regret: list[float]
    st_feasible: Optional[bool] = None
    st_violation_count: Optional[int] = None

    def to_dict(self) -> dict:
        """Every field, plus the mean and maximum of the per-user regret."""
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "regret_mean": float(np.mean(self.regret)),
                "regret_max": float(np.max(self.regret))}

    CSV_FIELDS = (
        "objective_canonical objective_unit_sum personal_pct social_pct inter_pct "
        "intra_pct normalized_density codisplay_pct alone_pct regret_mean regret_max "
        "st_feasible st_violation_count"
    ).split()


# ---------------------------------------------------------------------------
# validation and objectives
# ---------------------------------------------------------------------------


def validate(config: Configuration, inst: Instance) -> list[tuple]:
    """Check feasibility; return [] iff config is a valid k-configuration.

    Violations are ("index", u, s) for an out-of-range item and
    ("duplicate", u, s, s2, item) for a repeated item in one user's row.
    """
    a = config.assign
    if a.shape != (inst.n, inst.k):
        raise StructuralError(f"assignment shape {a.shape} does not match (n, k) = {(inst.n, inst.k)}")
    if a.dtype.kind in "iu" and a.size:
        # an integer table with every item in range and no row repeat is
        # valid: only a table with violations needs the loop that lists them
        rows = np.sort(a, axis=1)
        if rows[:, 0].min() >= 0 and rows[:, -1].max() < inst.m and not (
                rows[:, 1:] == rows[:, :-1]).any():
            return []
    violations: list[tuple] = []
    for u in range(inst.n):
        first_slot: dict[int, int] = {}
        for s in range(inst.k):
            c = int(a[u, s])
            if not 0 <= c < inst.m:
                violations.append(("index", u, s))
                continue
            if c in first_slot:
                violations.append(("duplicate", u, first_slot[c], s, c))
            else:
                first_slot[c] = s
    return violations


def running_sum(terms: np.ndarray) -> float:
    """Sum of a 1-d array added strictly left to right (0.0 when empty); numpy's
    ``sum`` pairs terms up once there are eight or more."""
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


def _masked_row_sums(vals: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``vals[i][mask[i]].sum()`` for every row i, in numpy's own summation
    order: the selected values are packed to the front and each row length is
    summed as one batch, because padding a row with zeros regroups the terms."""
    counts = mask.sum(axis=1)
    packed = np.take_along_axis(vals, np.argsort(~mask, axis=1, kind="stable"), axis=1)
    out = np.zeros(len(vals))
    for size in np.unique(counts):
        out[counts == size] = packed[counts == size, :size].sum(axis=1)
    return out


def objective_parts(inst: Instance, assign: np.ndarray, d_tel: float = 0.0) -> tuple[float, float]:
    """(preference sum, social sum) of an assignment, counting co-display per slot.

    Social sums both directed utilities of every co-displayed friend pair.  The
    assignment may contain duplicates (raw independent rounding output); for a
    feasible configuration per-slot counting coincides with per-item counting
    because an item can appear at most once per user.  With a teleportation
    discount d_tel > 0, a friend pair that shares an item at different slots
    adds d_tel times its weight for that item; this is meant for feasible
    configurations, where a shared item is either aligned or not.
    """
    users = np.arange(inst.n)
    pref_sum = float(inst.pref[users[:, None], assign].sum())
    row_u, row_v = assign[inst.eu], assign[inst.ev]  # (E, k)
    w_u = np.take_along_axis(inst.w, row_u, axis=1)  # weight of u's item at each slot
    same = row_u == row_v
    terms = [_masked_row_sums(w_u, same)]
    if d_tel > 0.0:
        off = (row_u[:, :, None] == row_v[:, None, :]).any(axis=2) & ~same
        terms.append(d_tel * _masked_row_sums(w_u, off))
    # per edge: the aligned term, then the discounted off-slot term
    return pref_sum, running_sum(np.column_stack(terms).ravel())


def objective_value(inst: Instance, pref_sum: float, social: float,
                    mode: str = "canonical") -> float:
    """Combine objective parts in the requested convention."""
    if mode == "canonical":
        return (1.0 - inst.lam) * pref_sum + inst.lam * social
    if mode == "unit_sum":
        return pref_sum + social
    raise DomainError(f"unknown objective mode {mode!r}")


def _cell_utilities(inst: Instance, assign: np.ndarray) -> np.ndarray:
    """(n, k) utility of each user for the item shown at each slot: weighted
    preference plus the social terms of every friend shown the same item at
    the same slot, added to each cell in edge order."""
    util = (1.0 - inst.lam) * inst.pref[np.arange(inst.n)[:, None], assign]
    e, s = np.nonzero(assign[inst.eu] == assign[inst.ev])  # edge-major
    c = assign[inst.eu[e], s]
    np.add.at(util, (np.column_stack([inst.eu[e], inst.ev[e]]), s[:, None]),
              inst.lam * inst.tau[e, :, c])
    return util


def total_objective(inst: Instance, config: Configuration, mode: str = "canonical") -> float:
    """Total objective of a feasible configuration in the requested convention."""
    if validate(config, inst):
        raise DomainError("configuration is not feasible")
    return objective_value(inst, *objective_parts(inst, config.assign), mode)


def scale_preferences(inst: Instance) -> Instance:
    """Reduce a lambda != 1/2 instance to the lambda = 1/2 convention.

    Preferences are scaled by (1 - lambda) / lambda; social utilities are kept.
    Ordering of feasible solutions under the canonical objective is preserved.
    """
    if inst.lam == 0.0:
        raise DomainError("lambda = 0 is preference-only; solve it exactly with baselines.per_topk")
    return replace(inst, pref=inst.pref * ((1.0 - inst.lam) / inst.lam), lam=0.5)


def st_objective(inst: Instance, config: Configuration, mode: str = "canonical") -> float:
    """Objective with teleportation: a common item at different slots earns
    the social term discounted by d_tel; at the same slot, undiscounted."""
    if inst.st is None:
        raise DomainError("instance has no teleportation parameters")
    if validate(config, inst):
        raise DomainError("configuration is not feasible")
    return objective_value(inst, *objective_parts(inst, config.assign, inst.st.d_tel), mode)


def optimistic_utility(inst: Instance) -> np.ndarray:
    """(n, m) upper-bound utility: preference plus all friends' social terms realized."""
    ub = (1.0 - inst.lam) * inst.pref
    np.add.at(ub, np.column_stack([inst.eu, inst.ev]), inst.lam * inst.tau)
    return ub


def st_feasibility(inst: Instance, assignment: Configuration) -> tuple[bool, int]:
    """Count users beyond the subgroup cap M, summed over every (item, slot)."""
    if inst.st is None:
        raise DomainError("instance has no teleportation parameters")
    a = assignment.assign
    violation = 0
    for s in range(inst.k):
        counts = np.bincount(a[:, s], minlength=inst.m)
        violation += int(np.maximum(counts - inst.st.M, 0).sum())
    feasible = violation == 0 and not validate(assignment, inst)
    return feasible, violation


def metrics(inst: Instance, config: Configuration) -> MetricsReport:
    """Compute the full evaluation report for a feasible configuration.

    On a teleportation instance the objectives and the personal/social shares
    include the discounted off-slot social terms, as in `st_objective`.
    """
    if validate(config, inst):
        raise DomainError("configuration is not feasible")
    a = config.assign
    d_tel = inst.st.d_tel if inst.st is not None else 0.0
    pref_sum, social = objective_parts(inst, a, d_tel)
    personal = (1.0 - inst.lam) * pref_sum
    soc = inst.lam * social
    canonical = objective_value(inst, pref_sum, social, "canonical")
    unit = objective_value(inst, pref_sum, social, "unit_sum")
    if canonical > FLOAT_ATOL:
        personal_pct = 100.0 * personal / canonical
        social_pct = 100.0 * soc / canonical
    else:
        personal_pct = social_pct = 0.0

    n, m, k = inst.n, inst.m, inst.k
    ne = inst.num_edges
    same = a[inst.eu] == a[inst.ev]  # (E, k): both ends see the same item at slot s
    cell = np.arange(k) * m + a  # (n, k) subgroup index, slot-major then item
    sizes = np.bincount(cell.ravel(), minlength=k * m)

    # Inter/Intra: an edge at slot s is intra iff both ends see the same item.
    if ne:
        intra_per_slot = same.sum(axis=0) / ne
        intra_pct = 100.0 * float(np.mean(intra_per_slot))
        inter_pct = 100.0 * (1.0 - float(np.mean(intra_per_slot)))
    else:
        intra_pct = inter_pct = 0.0

    # Normalized density: subgroup density averaged over all subgroups of all
    # slots (singletons count 0), divided by the density of the whole network.
    if n >= 2 and ne:
        g_density = ne / (n * (n - 1) / 2)
        internal = np.bincount(cell[inst.eu][same], minlength=k * m)
        present = sizes > 0
        sz = sizes[present]
        npairs = sz * (sz - 1) / 2
        densities = np.where(sz >= 2, internal[present] / np.maximum(npairs, 1.0), 0.0)
        normalized_density = float(np.mean(densities)) / g_density
    else:
        normalized_density = 0.0

    # Co-display%: friend pairs sharing an item at the same slot at least once.
    codisplay_pct = 100.0 * int(same.any(axis=1).sum()) / ne if ne else 0.0

    # Alone%: users that form a singleton subgroup at every slot.
    alone_pct = 100.0 * int((sizes[cell] == 1).all(axis=1).sum()) / n

    # Regret: achieved utility (slots added in order) over the optimistic
    # top-k bound.
    achieved = np.cumsum(_cell_utilities(inst, a), axis=1)[:, -1]
    top = inst.optimistic_ranking[:, :k]
    denom = np.take_along_axis(inst.optimistic_ub, top, axis=1).sum(axis=1)
    hap = np.ones(n)
    ok = denom > FLOAT_ATOL
    hap[ok] = achieved[ok] / denom[ok]
    regret = np.clip(1.0 - hap, 0.0, 1.0).tolist()

    st_feasible, st_violations = (None, None) if inst.st is None else st_feasibility(inst, config)

    return MetricsReport(
        objective_canonical=canonical,
        objective_unit_sum=unit,
        personal_pct=personal_pct,
        social_pct=social_pct,
        inter_pct=inter_pct,
        intra_pct=intra_pct,
        normalized_density=normalized_density,
        codisplay_pct=codisplay_pct,
        alone_pct=alone_pct,
        regret=regret,
        st_feasible=st_feasible,
        st_violation_count=st_violations,
    )


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def int_field(value, what: str) -> int:
    """A parsed JSON integer; a float, a bool or a string is a StructuralError
    rather than being truncated or converted."""
    if type(value) is not int:  # bool is a subclass of int
        raise StructuralError(f"{what} must be an integer, got {value!r}")
    return value


def float_field(value, what: str) -> float:
    """A parsed JSON number as a float; a bool or a string is a StructuralError
    rather than being converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise StructuralError(f"{what} must be a number, got {value!r}")
    return float(value)


def array_field(value, dtype, what: str) -> np.ndarray:
    """A parsed JSON list as an array; a ragged or non-numeric list is a
    StructuralError rather than numpy's ValueError.  Each entry is read by
    `int_field` for an integer array and by `float_field` otherwise."""
    try:
        arr = np.asarray(value, dtype=dtype)
    except (ValueError, TypeError, OverflowError) as exc:
        raise StructuralError(f"{what} is not a rectangular numeric array ({exc})") from None
    field, types = (int_field, {int}) if arr.dtype.kind == "i" else (float_field, {int, float})
    entries = np.asarray(value, dtype=object).ravel().tolist()
    if not set(map(type, entries)) <= types:  # the reader names the first bad entry
        for x in entries:
            field(x, f"{what} entry")
    return arr


def instance_to_dict(inst: Instance) -> dict:
    d = {
        "n": inst.n,
        "m": inst.m,
        "k": inst.k,
        "lambda": inst.lam,
        "pref": inst.pref.tolist(),
        "edges": [
            {"u": e.u, "v": e.v, "tau_uv": e.tau_uv.tolist(), "tau_vu": e.tau_vu.tolist()}
            for e in inst.edges
        ],
    }
    if inst.st is not None:
        d["st"] = {"d_tel": inst.st.d_tel, "M": inst.st.M}
    return d


def instance_from_dict(d: dict) -> Instance:
    if not isinstance(d, dict):
        raise StructuralError("an instance must be a JSON object")
    try:
        st = None
        if d.get("st") is not None:
            st = StParams(d_tel=float_field(d["st"]["d_tel"], "d_tel"),
                          M=int_field(d["st"]["M"], "M"))
        edges = [
            Edge(int_field(e["u"], "edge u"), int_field(e["v"], "edge v"),
                 array_field(e["tau_uv"], float, "tau_uv"),
                 array_field(e["tau_vu"], float, "tau_vu"))
            for e in d.get("edges", [])
        ]
        sizes = tuple(int_field(d[key], key) for key in ("n", "m", "k"))
        pref, lam = array_field(d["pref"], float, "pref"), float_field(d["lambda"], "lambda")
    except (KeyError, TypeError) as exc:
        raise StructuralError(f"instance is missing or has a malformed field ({exc})") from None
    n, m, k = sizes
    return Instance(n=n, m=m, k=k, pref=pref, edges=tuple(edges), lam=lam, st=st)


def dump_json(obj: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
