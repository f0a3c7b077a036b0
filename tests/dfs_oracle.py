"""Depth-first exhaustive search: the reference the block oracle is checked against.

``dfs_search(inst, arr, pref_scores, mats, m_cap)`` takes the same arguments as
``codisplay.oracle._search`` and returns the same ``(choice, value)``, so
tests can require equal choices and bit-identical values on every instance.
"""

from __future__ import annotations

import math

import numpy as np

from codisplay.core import DomainError, Instance


def dfs_search(inst: Instance, arr: np.ndarray, pref_scores: np.ndarray,
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
