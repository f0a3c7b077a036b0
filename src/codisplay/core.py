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
from dataclasses import dataclass
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


@dataclass(frozen=True)
class StParams:
    """Teleportation discount and subgroup size cap for the size-constrained variant."""

    d_tel: float
    M: int

    def __post_init__(self):
        if not (0.0 <= self.d_tel < 1.0):
            raise DomainError(f"d_tel must lie in [0, 1), got {self.d_tel}")
        if int(self.M) != self.M or self.M < 1:
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
    """A group-item configuration problem instance."""

    n: int
    m: int
    k: int
    pref: np.ndarray  # (n, m) preference utilities
    edges: tuple[Edge, ...]
    lam: float
    st: Optional[StParams] = None

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
            tau_uv = _frozen_array(e.tau_uv, float, (self.m,))
            tau_vu = _frozen_array(e.tau_vu, float, (self.m,))
            if not (np.isfinite(tau_uv).all() and np.isfinite(tau_vu).all()):
                raise DomainError("social utilities must be finite")
            if (tau_uv < 0).any() or (tau_vu < 0).any():
                raise DomainError("social utilities must be nonnegative")
            frozen_edges.append(Edge(e.u, e.v, tau_uv, tau_vu))
        object.__setattr__(self, "edges", tuple(frozen_edges))

        if self.st is not None and math.ceil(self.n / self.st.M) > self.m:
            raise DomainError(
                f"infeasible size cap: ceil(n/M) = {math.ceil(self.n / self.st.M)} > m = {self.m}"
            )

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_weight(self, e: int) -> np.ndarray:
        """Combined per-item weight of edge e (both directions summed)."""
        return self.edges[e].weight()

    def directed_social(self, u: int) -> list[tuple[int, np.ndarray]]:
        """All (friend v, tau(u, v, .)) pairs for user u."""
        out = []
        for e in self.edges:
            if e.u == u:
                out.append((e.v, e.tau_uv))
            elif e.v == u:
                out.append((e.u, e.tau_vu))
        return out


@dataclass(frozen=True)
class Configuration:
    """A feasible assignment: every user sees k pairwise-distinct items."""

    assign: np.ndarray  # (n, k) item indices

    def __post_init__(self):
        object.__setattr__(self, "assign", _frozen_array(self.assign, np.int64))


@dataclass(frozen=True)
class RawAssignment:
    """Assignment shape produced by independent rounding; duplicates permitted."""

    assign: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "assign", _frozen_array(self.assign, np.int64))


@dataclass(frozen=True)
class SubgroupPartition:
    """Users grouped by the item they see at one fixed slot."""

    slot: int
    groups: tuple[tuple[int, tuple[int, ...]], ...]  # (item, users) per subgroup


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
        d = {
            "objective_canonical": self.objective_canonical,
            "objective_unit_sum": self.objective_unit_sum,
            "personal_pct": self.personal_pct,
            "social_pct": self.social_pct,
            "inter_pct": self.inter_pct,
            "intra_pct": self.intra_pct,
            "normalized_density": self.normalized_density,
            "codisplay_pct": self.codisplay_pct,
            "alone_pct": self.alone_pct,
            "regret_mean": float(np.mean(self.regret)),
            "regret_max": float(np.max(self.regret)),
            "regret": list(self.regret),
            "st_feasible": self.st_feasible,
            "st_violation_count": self.st_violation_count,
        }
        return d

    CSV_FIELDS = (
        "objective_canonical objective_unit_sum personal_pct social_pct inter_pct "
        "intra_pct normalized_density codisplay_pct alone_pct regret_mean regret_max "
        "st_feasible st_violation_count"
    ).split()

    def csv_row(self) -> list:
        d = self.to_dict()
        return [d[f] for f in self.CSV_FIELDS]


# ---------------------------------------------------------------------------
# validation and objectives
# ---------------------------------------------------------------------------


def validate(config: Configuration | RawAssignment, inst: Instance) -> list[tuple]:
    """Check feasibility; return [] iff config is a valid k-configuration.

    Violations are ("index", u, s) for an out-of-range item and
    ("duplicate", u, s, s2, item) for a repeated item in one user's row.
    """
    a = config.assign
    if a.shape != (inst.n, inst.k):
        raise StructuralError(f"assignment shape {a.shape} does not match (n, k) = {(inst.n, inst.k)}")
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
    social = 0.0
    for e in inst.edges:
        row_u, row_v = assign[e.u], assign[e.v]
        same = row_u == row_v
        if same.any():
            social += float(e.weight()[row_u[same]].sum())
        if d_tel > 0.0:
            off = (row_u[:, None] == row_v[None, :]).any(axis=1) & ~same
            if off.any():
                social += d_tel * float(e.weight()[row_u[off]].sum())
    return pref_sum, social


def objective_value(inst: Instance, pref_sum: float, social: float,
                    mode: str = "canonical") -> float:
    """Combine objective parts in the requested convention."""
    if mode == "canonical":
        return (1.0 - inst.lam) * pref_sum + inst.lam * social
    if mode == "unit_sum":
        return pref_sum + social
    raise DomainError(f"unknown objective mode {mode!r}")


def savg_utility(inst: Instance, config: Configuration, u: int, c: int) -> float:
    """Utility of user u for item c under config: weighted preference plus the
    social terms of every friend seeing c at the same slot."""
    row = config.assign[u]
    slots = np.flatnonzero(row == c)
    if slots.size == 0:
        raise DomainError(f"item {c} is not displayed to user {u}")
    s = int(slots[0])
    total = (1.0 - inst.lam) * float(inst.pref[u, c])
    for v, tau in inst.directed_social(u):
        if config.assign[v, s] == c:
            total += inst.lam * float(tau[c])
    return total


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
    factor = (1.0 - inst.lam) / inst.lam
    return Instance(
        n=inst.n, m=inst.m, k=inst.k,
        pref=inst.pref * factor,
        edges=inst.edges,
        lam=0.5,
        st=inst.st,
    )


def st_objective(inst: Instance, config: Configuration, mode: str = "canonical") -> float:
    """Objective with teleportation: a common item at different slots earns
    the social term discounted by d_tel; at the same slot, undiscounted."""
    if inst.st is None:
        raise DomainError("instance has no teleportation parameters")
    if validate(config, inst):
        raise DomainError("configuration is not feasible")
    return objective_value(inst, *objective_parts(inst, config.assign, inst.st.d_tel), mode)


def partition_subgroups(config: Configuration, s: int) -> SubgroupPartition:
    """Group users by the item they are shown at slot s."""
    col = config.assign[:, s]
    groups: dict[int, list[int]] = {}
    for u, c in enumerate(col):
        groups.setdefault(int(c), []).append(u)
    ordered = tuple((c, tuple(groups[c])) for c in sorted(groups))
    return SubgroupPartition(slot=s, groups=ordered)


def optimistic_utility(inst: Instance) -> np.ndarray:
    """(n, m) upper-bound utility: preference plus all friends' social terms realized."""
    ub = (1.0 - inst.lam) * inst.pref.copy()
    for e in inst.edges:
        ub[e.u] += inst.lam * e.tau_uv
        ub[e.v] += inst.lam * e.tau_vu
    return ub


def st_feasibility(inst: Instance, assignment: Configuration | RawAssignment) -> tuple[bool, int]:
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

    # Inter/Intra: an edge at slot s is intra iff both ends see the same item.
    ne = inst.num_edges
    if ne:
        intra_per_slot = []
        for s in range(inst.k):
            same = sum(1 for e in inst.edges if a[e.u, s] == a[e.v, s])
            intra_per_slot.append(same / ne)
        intra_pct = 100.0 * float(np.mean(intra_per_slot))
        inter_pct = 100.0 * (1.0 - float(np.mean(intra_per_slot)))
    else:
        intra_pct = inter_pct = 0.0

    # Normalized density: subgroup density averaged over all subgroups of all
    # slots (singletons count 0), divided by the density of the whole network.
    adj = {(min(e.u, e.v), max(e.u, e.v)) for e in inst.edges}
    if inst.n >= 2 and ne:
        g_density = ne / (inst.n * (inst.n - 1) / 2)
        densities = []
        for s in range(inst.k):
            for _, members in partition_subgroups(config, s).groups:
                sz = len(members)
                if sz < 2:
                    densities.append(0.0)
                    continue
                internal = sum(
                    1 for i in range(sz) for j in range(i + 1, sz)
                    if (min(members[i], members[j]), max(members[i], members[j])) in adj
                )
                densities.append(internal / (sz * (sz - 1) / 2))
        normalized_density = float(np.mean(densities)) / g_density
    else:
        normalized_density = 0.0

    # Co-display%: friend pairs sharing an item at the same slot at least once.
    if ne:
        shared = sum(1 for e in inst.edges if (a[e.u] == a[e.v]).any())
        codisplay_pct = 100.0 * shared / ne
    else:
        codisplay_pct = 0.0

    # Alone%: users that form a singleton subgroup at every slot.
    alone = 0
    for u in range(inst.n):
        if all((a[:, s] == a[u, s]).sum() == 1 for s in range(inst.k)):
            alone += 1
    alone_pct = 100.0 * alone / inst.n

    # Regret: achieved utility over the optimistic top-k bound.
    ub = optimistic_utility(inst)
    regret = []
    for u in range(inst.n):
        achieved = sum(savg_utility(inst, config, u, int(c)) for c in a[u])
        order = sorted(range(inst.m), key=lambda c: (-ub[u, c], c))[: inst.k]
        denom = float(ub[u, order].sum())
        hap = achieved / denom if denom > FLOAT_ATOL else 1.0
        regret.append(min(max(1.0 - hap, 0.0), 1.0))

    st_feasible = None
    st_violations = None
    if inst.st is not None:
        st_feasible, st_violations = st_feasibility(inst, config)

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


def array_field(value, dtype, what: str) -> np.ndarray:
    """A parsed JSON list as an array; a ragged or non-numeric list is a
    StructuralError rather than numpy's ValueError."""
    try:
        return np.asarray(value, dtype=dtype)
    except (ValueError, TypeError) as exc:
        raise StructuralError(f"{what} is not a rectangular numeric array ({exc})") from None


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
            st = StParams(d_tel=float(d["st"]["d_tel"]), M=int(d["st"]["M"]))
        edges = [
            Edge(int(e["u"]), int(e["v"]), array_field(e["tau_uv"], float, "tau_uv"),
                 array_field(e["tau_vu"], float, "tau_vu"))
            for e in d.get("edges", [])
        ]
        sizes = int(d["n"]), int(d["m"]), int(d["k"])
        pref, lam = array_field(d["pref"], float, "pref"), float(d["lambda"])
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


def config_to_dict(config: Configuration | RawAssignment) -> dict:
    return {"assign": config.assign.tolist()}


def config_from_dict(d: dict) -> Configuration:
    if not isinstance(d, dict) or "assign" not in d:
        raise StructuralError("a configuration needs the key 'assign'")
    return Configuration(assign=array_field(d["assign"], np.int64, "assign"))
