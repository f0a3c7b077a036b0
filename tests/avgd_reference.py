"""Per-cell subgroup searches: the references the batched search of
``codisplay.rounding.avgd`` is checked against.

``score_cell(state, c, s, r, loss, q_es)`` returns one cell's ``(score,
users)`` or None, as a row of ``codisplay.rounding._score_cells`` does.  It
relabels the eligible users of the cell to 0..q-1, lists the friendships
among them as ``(i, j, bonus)`` pairs in edge order and, above
``EXACT_SUBSET_LIMIT`` users, builds per-user ``(partner, bonus)`` lists from
those pairs for the local search.

``indexed_score_cell(state, c, s, r, loss, q_es, nbrs)`` searches one cell
at a time over avgd's neighbour index in global user indices, with one
``np.add.at`` and one ``np.cumsum`` per prefix and a masked first-hit scan
per move (``indexed_best_prefix``, ``indexed_local_subset``); the batch runs
the same passes over many cells at once.

Each user's pair bonuses are added left to right from int 0 by ``running``,
which is what ``sum`` did with floats before Python 3.12 (3.12's ``sum``
compensates its rounding, so its last bits may differ).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from codisplay.rounding import EXACT_SUBSET_LIMIT, _TIE_EPS, RoundingState, _masks


def running(terms) -> float:
    """Left-to-right sum of `terms` from int 0 (0 when there are none)."""
    total = 0
    for t in terms:
        total += t
    return total


def adjacency(q: int, pairs: list[tuple[int, int, float]]) -> list[list[tuple[int, float]]]:
    """Per-user (partner, bonus) lists of the pair bonuses."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(q)]
    for i, j, b in pairs:
        adj[i].append((j, b))
        adj[j].append((i, b))
    return adj


def best_prefix(order: np.ndarray, a: np.ndarray, adj: list[list[tuple[int, float]]],
                capacity: int) -> tuple[float, np.ndarray]:
    """Best nonempty prefix of `order` (at most `capacity` users) and its mask."""
    q = a.size
    chosen = np.zeros(q, dtype=bool)
    best_score, best_mask = -np.inf, None
    score = 0.0
    for t in range(min(q, capacity)):
        u = int(order[t])
        chosen[u] = True
        score += a[u] + running(b for v, b in adj[u] if chosen[v])
        if score > best_score:
            best_score, best_mask = score, chosen.copy()
    return best_score, best_mask


def best_subset(a: np.ndarray, pairs: list[tuple[int, int, float]],
                adj: Optional[list[list[tuple[int, float]]]],
                capacity: int) -> tuple[float, np.ndarray]:
    """Maximize sum(a[S]) + sum of pair bonuses inside S over nonempty S of
    at most `capacity` users.

    Exact by enumeration up to EXACT_SUBSET_LIMIT users; beyond that, seeded
    from the best descending-score prefix and improved by single-user moves
    over `adj`, the `adjacency` of the pairs (unused below the limit).
    """
    q = a.size
    if q <= EXACT_SUBSET_LIMIT:
        bits, sizes = _masks(q)
        scores = bits @ a
        for i, j, b in pairs:
            scores = scores + b * (bits[:, i] & bits[:, j])
        scores[0] = -np.inf
        if capacity < q:
            scores[sizes > capacity] = -np.inf
        best = int(np.argmax(scores))
        return float(scores[best]), np.flatnonzero(bits[best])

    score, in_set = best_prefix(np.argsort(-a, kind="stable"), a, adj, capacity)
    size = int(in_set.sum())
    for _ in range(4 * q):  # strict improvement, terminates
        moved = False
        for u in range(q):
            delta = a[u] + running(b for v, b in adj[u] if in_set[v])
            if in_set[u]:
                if size > 1 and -delta > _TIE_EPS:
                    in_set[u] = False
                    size -= 1
                    score -= delta
                    moved = True
            else:
                if size < capacity and delta > _TIE_EPS:
                    in_set[u] = True
                    size += 1
                    score += delta
                    moved = True
        if not moved:
            break
    return float(score), np.flatnonzero(in_set)


def score_cell(state: RoundingState, c: int, s: int, r: float, loss: np.ndarray,
               q_es: np.ndarray) -> Optional[tuple[float, np.ndarray]]:
    """avgd's best subgroup of cell (c, s) as (score, users); None when the
    cell is full or has nobody eligible."""
    capacity = state.room(c, s)
    if capacity <= 0:
        return None
    elig = state.eligible_users(c, s)
    if elig.size == 0:
        return None
    inst = state.inst
    q = elig.size
    a_lin = inst.pref[elig, c] - r * loss[elig, s]
    inner = inst.edges_within(elig)
    pairs = list(zip(np.searchsorted(elig, inst.eu[inner]).tolist(),
                     np.searchsorted(elig, inst.ev[inner]).tolist(),
                     (inst.w[inner, c] + r * q_es[inner, s]).tolist()))
    adj = adjacency(q, pairs) if q > EXACT_SUBSET_LIMIT else None
    score, local = best_subset(a_lin, pairs, adj, capacity)
    if adj is not None:
        t_score, t_mask = best_prefix(
            np.lexsort((np.arange(q), -state.x[elig, c, s])), a_lin, adj, capacity)
        if t_score > score + _TIE_EPS:
            score, local = t_score, np.flatnonzero(t_mask)
    return score, elig[local]


def indexed_best_prefix(order: np.ndarray, a: np.ndarray, nbrs: tuple, brow: np.ndarray,
                        capacity: int) -> tuple[float, np.ndarray]:
    """Best nonempty prefix of the users `order` (at most `capacity` of them)
    and its mask over all users.  A user adds a[u] plus the bonus of each
    edge to an earlier chosen user, summed in edge order by `np.add.at`."""
    owner, partner, _, _ = nbrs
    pre = order[:capacity]
    rank = np.full(a.size, pre.size)
    rank[pre] = np.arange(pre.size)
    later = rank[partner] < rank[owner]  # each edge inside the prefix, at its later end
    inc = np.zeros(a.size)
    np.add.at(inc, owner[later], brow[later])
    scores = np.cumsum(a[pre] + inc[pre])
    best = int(np.argmax(scores))
    return scores[best], rank <= best


def indexed_local_subset(users: np.ndarray, a: np.ndarray, nbrs: tuple, brow: np.ndarray,
                         capacity: int) -> tuple[float, np.ndarray]:
    """`best_subset` above EXACT_SUBSET_LIMIT over `users`, as a mask over all
    users.  A user's gain, its bonus to chosen partners, is summed again on a
    move."""
    owner, partner, _, ptr = nbrs
    order = users[np.argsort(-a[users], kind="stable")]
    score, in_set = indexed_best_prefix(order, a, nbrs, brow, capacity)
    size = int(in_set.sum())
    gain = np.zeros(a.size)
    hit = in_set[partner]
    np.add.at(gain, owner[hit], brow[hit])
    for _ in range(4 * users.size):  # strict improvement, terminates
        pos = 0
        while pos < users.size:  # the first improving move from `pos` on
            delta, inside = a[users[pos:]] + gain[users[pos:]], in_set[users[pos:]]
            ok = np.where(inside, (-delta > _TIE_EPS) & (size > 1),
                          (delta > _TIE_EPS) & (size < capacity))
            i = int(np.argmax(ok))
            if not ok[i]:
                break
            u, step = int(users[pos + i]), (-1 if inside[i] else 1)  # drop u, or add u
            in_set[u] = not in_set[u]
            size += step
            score += step * delta[i]
            pos += i + 1
            near = partner[ptr[u]:ptr[u + 1]]  # sum their rows again, in edge order
            ln = ptr[near + 1] - ptr[near]
            at = np.arange(ln.sum()) + np.repeat(ptr[near + 1] - np.cumsum(ln), ln)
            at = at[in_set[partner[at]]]
            gain[near] = 0.0
            np.add.at(gain, owner[at], brow[at])
        if not pos:  # no move in this pass
            break
    return float(score), in_set


def indexed_score_cell(state: RoundingState, c: int, s: int, r: float, loss: np.ndarray,
                       q_es: np.ndarray, nbrs: tuple) -> Optional[tuple[float, np.ndarray]]:
    """`score_cell` over the neighbour index `nbrs` = (owner, partner, edge,
    ptr): entries ptr[u]:ptr[u + 1] hold user u's (partner, edge) pairs in
    edge order."""
    capacity = state.room(c, s)
    if capacity <= 0:
        return None
    elig = state.eligible_users(c, s)
    if elig.size == 0:
        return None
    inst = state.inst
    a = inst.pref[:, c] - r * loss[:, s]
    bonus = inst.w[:, c] + r * q_es[:, s]
    if elig.size <= EXACT_SUBSET_LIMIT:
        inner = inst.edges_within(elig)
        pairs = zip(np.searchsorted(elig, inst.eu[inner]).tolist(),
                    np.searchsorted(elig, inst.ev[inner]).tolist(), bonus[inner].tolist())
        score, local = best_subset(a[elig], list(pairs), None, capacity)
        return score, elig[local]
    brow = bonus[nbrs[2]]
    score, in_set = indexed_local_subset(elig, a, nbrs, brow, capacity)
    by_factor = elig[np.argsort(-state.x[elig, c, s], kind="stable")]
    t_score, t_mask = indexed_best_prefix(by_factor, a, nbrs, brow, capacity)
    if t_score > score + _TIE_EPS:
        score, in_set = t_score, t_mask
    return score, np.flatnonzero(in_set)
