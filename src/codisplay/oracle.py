"""Exact enumeration oracles and instance generators with known structure."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import Configuration, DomainError, Edge, Instance, StParams

GUARD_LIMIT = 20_000_000


class OracleSizeError(DomainError):
    """The configuration space is too large for exhaustive search."""


def _guard(inst: Instance) -> int:
    per_user = math.perm(inst.m, inst.k)
    total = per_user ** inst.n
    if total > GUARD_LIMIT:
        raise OracleSizeError(
            f"search space P({inst.m},{inst.k})^{inst.n} = {total} exceeds {GUARD_LIMIT}"
        )
    return per_user


def _arrangements(m: int, k: int) -> np.ndarray:
    """All ordered k-subsets of items, lexicographic."""
    return np.array(list(itertools.permutations(range(m), k)), dtype=np.int64)


def _edge_matrices(inst: Instance, arr: np.ndarray, d_tel: float | None) -> list[np.ndarray]:
    """Per-edge (P, P) social value between arrangement pairs.

    Aligned common items count fully; with a teleportation discount, common
    items at different slots count d_tel times their weight.
    """
    mats = []
    p = arr.shape[0]
    for w in inst.w:
        mat = np.zeros((p, p))
        for s in range(inst.k):
            col = arr[:, s]
            eq = col[:, None] == col[None, :]
            mat += np.where(eq, w[col][:, None], 0.0)
        if d_tel is not None and d_tel > 0.0:
            warr = w[arr]  # (P, k)
            for s in range(inst.k):
                for s2 in range(inst.k):
                    if s == s2:
                        continue
                    eq = arr[:, s][:, None] == arr[:, s2][None, :]
                    mat += d_tel * np.where(eq, warr[:, s][:, None], 0.0)
        mats.append(mat)
    return mats


def _search(inst: Instance, arr: np.ndarray, pref_scores: np.ndarray,
            mats: list[np.ndarray], m_cap: int | None) -> tuple[list[int], float]:
    """Depth-first maximization over per-user arrangement choices.

    The last user is evaluated as a vector; earlier users are explicit loops
    with incremental scores.  With a subgroup cap, branches whose (item, slot)
    counts exceed the cap are pruned.  Ties resolve to the lexicographically
    smallest assignment because enumeration is lexicographic and comparisons
    are strict.
    """
    n, k = inst.n, inst.k
    p = arr.shape[0]
    edges_into = [[] for _ in range(n)]  # (earlier_user, matrix) per user
    for u, v, mat in zip(inst.eu.tolist(), inst.ev.tolist(), mats):
        edges_into[max(u, v)].append((min(u, v), mat if u < v else mat.T))

    best_val = -np.inf
    best_choice: list[int] = []
    choice = [0] * n
    counts = np.zeros((inst.m, k), dtype=np.int64) if m_cap is not None else None
    slots = np.arange(k)

    if m_cap is not None:
        # feasibility of each single arrangement given current counts
        def feasible_vector() -> np.ndarray:
            return (counts[arr, slots[None, :]] < m_cap).all(axis=1)

    def add_counts(a_idx: int, sign: int) -> bool:
        row = arr[a_idx]
        counts[row, slots] += sign
        return bool((counts[row, slots] <= m_cap).all())

    def recurse(u: int, score: float) -> None:
        nonlocal best_val, best_choice
        if u == n - 1:
            vec = pref_scores[u].copy()
            for v, mat in edges_into[u]:
                vec += mat[choice[v]]
            if m_cap is not None:
                ok = feasible_vector()
                if not ok.any():
                    return
                vec = np.where(ok, vec, -np.inf)
            i = int(np.argmax(vec))
            total = score + float(vec[i])
            if total > best_val:
                best_val = total
                best_choice = choice[:u] + [i]
            return
        for i in range(p):
            if m_cap is not None:
                ok = add_counts(i, +1)
                if not ok:
                    add_counts(i, -1)
                    continue
            choice[u] = i
            inc = float(pref_scores[u, i])
            for v, mat in edges_into[u]:
                inc += float(mat[choice[v], i])
            recurse(u + 1, score + inc)
            if m_cap is not None:
                add_counts(i, -1)

    if n == 1:  # a single user can never exceed a cap of >= 1
        vec = pref_scores[0]
        i = int(np.argmax(vec))
        return [i], float(vec[i])
    recurse(0, 0.0)
    if not math.isfinite(best_val):
        raise DomainError("no feasible configuration under the subgroup size cap")
    return best_choice, best_val


def brute_force(inst: Instance, mode: str = "unit_sum") -> tuple[Configuration, float]:
    """Exhaustive optimum over all feasible configurations."""
    if mode == "canonical":
        wp, ws = 1.0 - inst.lam, inst.lam
    elif mode == "unit_sum":
        wp, ws = 1.0, 1.0
    else:
        raise DomainError(f"unknown objective mode {mode!r}")
    _guard(inst)
    arr = _arrangements(inst.m, inst.k)
    pref_scores = wp * inst.pref[:, arr].sum(axis=2)  # (n, P)
    mats = [ws * m for m in _edge_matrices(inst, arr, d_tel=None)]
    choice, value = _search(inst, arr, pref_scores, mats, m_cap=None)
    return Configuration(assign=arr[choice]), value


def brute_force_st(inst: Instance) -> tuple[Configuration, float]:
    """Exhaustive optimum of the teleportation objective under the size cap."""
    if inst.st is None:
        raise DomainError("instance has no teleportation parameters")
    _guard(inst)
    wp, ws = 1.0 - inst.lam, inst.lam
    arr = _arrangements(inst.m, inst.k)
    pref_scores = wp * inst.pref[:, arr].sum(axis=2)
    mats = [ws * m for m in _edge_matrices(inst, arr, d_tel=inst.st.d_tel)]
    choice, value = _search(inst, arr, pref_scores, mats, m_cap=inst.st.M)
    return Configuration(assign=arr[choice]), value


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def gen_random(n: int, m: int, k: int, edge_prob: float = 0.5, seed: int = 0,
               d_tel: float | None = None, m_cap: int | None = None) -> Instance:
    """Uniform preferences, Bernoulli edges, directed social values in [0, 0.5]."""
    rng = np.random.Generator(np.random.Philox(seed))
    pref = rng.random((n, m))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                edges.append(Edge(u, v, rng.random(m) * 0.5, rng.random(m) * 0.5))
    st = None
    if d_tel is not None or m_cap is not None:
        st = StParams(d_tel=0.0 if d_tel is None else d_tel,
                      M=n if m_cap is None else m_cap)
    return Instance(n=n, m=m, k=k, pref=pref, edges=tuple(edges), lam=0.5, st=st)


def gen_lemma1(n: int, m: int, k: int, tau: float = 1.0) -> Instance:
    """Indifferent preferences, complete graph, constant social utility.

    The unit-sum optimum is n(n-1) * tau * k: co-display one item per slot to
    everyone.  Independent rounding achieves only ~1/m of it in expectation.
    """
    if tau <= 0:
        raise DomainError("tau must be positive")
    const = np.full(m, tau)
    edges = tuple(
        Edge(u, v, const.copy(), const.copy())
        for u in range(n) for v in range(u + 1, n)
    )
    return Instance(n=n, m=m, k=k, pref=np.zeros((n, m)), edges=edges, lam=0.5)


def gen_gap_g(n: int, k: int) -> Instance:
    """Disjoint preferred itemsets, no edges: whole-group display loses a factor n."""
    m = n * k
    pref = np.zeros((n, m))
    for i in range(n):
        for j in range(k):
            pref[i, j * n + i] = 1.0
    return Instance(n=n, m=m, k=k, pref=pref, edges=(), lam=0.5)


def gen_gap_p(n: int, k: int, eps: float = 0.01) -> Instance:
    """Near-flat preferences with a complete unit-social graph: the
    personalized display forfeits the social value."""
    if not 0 <= eps <= 1:
        raise DomainError("eps must lie in [0, 1]")
    m = n * k
    pref = np.full((n, m), 1.0 - eps)
    for i in range(n):
        for j in range(k):
            pref[i, j * n + i] = 1.0
    ones = np.ones(m)
    edges = tuple(
        Edge(u, v, ones.copy(), ones.copy())
        for u in range(n) for v in range(u + 1, n)
    )
    return Instance(n=n, m=m, k=k, pref=pref, edges=edges, lam=0.5)
