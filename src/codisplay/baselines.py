"""Comparison algorithms: personalized and group top-k, static subgroups,
independent rounding, and size-driven pre-partitioning."""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from .core import Configuration, DomainError, Edge, Instance, seeded_rng
from .lp import FractionalSolution


def _topk(scores: np.ndarray, k: int) -> list[int]:
    """Indices of the k largest scores, descending, ties to the lower index."""
    order = sorted(range(scores.size), key=lambda c: (-scores[c], c))
    return order[:k]


def per_topk(inst: Instance) -> Configuration:
    """Each user gets her k most-preferred items; exact for lambda = 0."""
    assign = np.empty((inst.n, inst.k), dtype=np.int64)
    for u in range(inst.n):
        assign[u] = _topk(inst.pref[u], inst.k)
    return Configuration(assign=assign)


def _group_scores(inst: Instance, members: Sequence[int]) -> np.ndarray:
    """Unit-sum value of co-displaying each item to all of `members`."""
    members = list(members)
    rows = np.vstack([inst.pref[members].sum(axis=0), inst.w[inst.edges_within(members)]])
    return np.cumsum(rows, axis=0)[-1]  # edges added one at a time, in edge order


def group_topk(inst: Instance) -> Configuration:
    """Everyone sees the k items with the best whole-group value, same order."""
    items = _topk(_group_scores(inst, range(inst.n)), inst.k)
    assign = np.tile(np.asarray(items, dtype=np.int64), (inst.n, 1))
    return Configuration(assign=assign)


def subgroup_static(inst: Instance, partition: Sequence[Sequence[int]]) -> Configuration:
    """Group top-k applied independently inside each part of a fixed partition."""
    seen: set[int] = set()
    for part in partition:
        for u in part:
            if not 0 <= u < inst.n or u in seen:
                raise DomainError("partition must be a disjoint cover of the users")
            seen.add(u)
    if len(seen) != inst.n:
        raise DomainError("partition must cover every user")
    assign = np.empty((inst.n, inst.k), dtype=np.int64)
    for part in partition:
        items = _topk(_group_scores(inst, part), inst.k)
        for u in part:
            assign[u] = items
    return Configuration(assign=assign)


def auto_partition(inst: Instance, mode: str, groups: int, seed: int = 0) -> list[list[int]]:
    """Split users into g groups by friendship density or preference similarity."""
    if not 1 <= groups <= inst.n:
        raise DomainError(f"need 1 <= groups <= n, got {groups}")
    if mode == "friendship":
        return _friendship_partition(inst, groups)
    if mode == "preference":
        return _preference_partition(inst, groups, seed)
    raise DomainError(f"unknown partition mode {mode!r}")


def _friendship_partition(inst: Instance, g: int) -> list[list[int]]:
    """Greedy agglomerative merging maximizing internal edges, sizes capped at
    ceil(n/g).  Each round merges the first pair that fits in the order of
    (-links, degree sum, i, j): ties prefer the smaller total degree (attach the
    most constrained vertices first), then lexicographic order."""
    n = inst.n
    cap = math.ceil(n / g)
    deg = np.bincount(np.concatenate([inst.eu, inst.ev]), minlength=n)
    clusters: list[list[int]] = [[u] for u in range(n)]
    label = np.arange(n)  # cluster index of each user; -1 while it is being moved

    while len(clusters) > g:
        count = len(clusters)
        size = np.array([len(cl) for cl in clusters])
        i, j = np.triu_indices(count, 1)
        fits = size[i] + size[j] <= cap
        if fits.any():
            i, j = i[fits], j[fits]
            links = np.zeros((count, count), dtype=np.int64)
            np.add.at(links, (label[inst.eu], label[inst.ev]), 1)
            links += links.T
            degsum = np.bincount(label, weights=deg, minlength=count)
            best = np.lexsort((j, i, degsum[i] + degsum[j], -links[i, j]))[0]
            i, j = int(i[best]), int(j[best])
            clusters[i] += clusters.pop(j)
            label[label == j] = i
            label[label > j] -= 1
            continue
        # no pair fits under the cap: dissolve the smallest cluster into others
        src = min(range(count), key=lambda c: (len(clusters[c]), clusters[c][0]))
        members = clusters.pop(src)
        label[members] = -1
        label[label > src] -= 1
        for u in members:
            open_idx = [c for c, cl in enumerate(clusters) if len(cl) < cap]
            if not open_idx:
                raise DomainError("cannot rebalance partition under the size cap")
            friends = label[np.concatenate([inst.ev[inst.eu == u], inst.eu[inst.ev == u]])]
            links = np.bincount(friends[friends >= 0], minlength=len(clusters))
            tgt = max(open_idx, key=lambda c: (links[c], -c))
            clusters[tgt].append(u)
            label[u] = tgt
    clusters = [sorted(cl) for cl in clusters]
    clusters.sort(key=lambda cl: cl[0])
    return clusters


PREF_RESTARTS = 20  # k-medoids restarts of the preference partition
PREF_MAX_ROUNDS = 100  # Voronoi rounds a restart may take before it stops


def _cluster_medoids(dist: np.ndarray, labels: np.ndarray, g: int) -> np.ndarray:
    """The medoid of every cluster of every row of ``labels`` (restarts, n):
    the member with the least distance sum to its cluster, ties to the lower
    user.

    The sums are those of ``dist[members][:, members].sum(axis=1)``, which
    numpy adds left to right along each row, as that array is column-major.
    The clusters of one size q, over all restarts, are gathered as one
    (clusters, q, q) array laid out the same way: entry [c, i, j] is
    ``dist[members[j], members[i]]`` and the sum runs over i, not along the
    contiguous last axis, which numpy would add pairwise."""
    runs, n = labels.shape
    block = (np.arange(runs)[:, None] * g + labels).ravel()  # (restart, cluster) of each user
    sizes = np.bincount(block, minlength=runs * g)
    order = np.argsort(sizes, kind="stable")  # the blocks by size, then index
    # the members of the blocks in that order, each block's ascending
    users = np.argsort(sizes[block] * (runs * g) + block, kind="stable") % n
    picks, lo = [], 0
    for q, count in zip(*(a.tolist() for a in np.unique(sizes, return_counts=True))):
        members = users[lo:lo + q * count].reshape(count, q)
        costs = dist.take(members[:, None, :] * n + members[:, :, None]).sum(axis=1)
        picks.append(np.argmin(costs, axis=1))
        lo += q * count
    starts = np.cumsum(sizes[order]) - sizes[order]
    medoids = np.empty(runs * g, dtype=np.int64)
    medoids[order] = users[starts + np.concatenate(picks)]
    return medoids.reshape(runs, g)


def _preference_partition(inst: Instance, g: int, seed: int) -> list[list[int]]:
    """g-medoids on preference rows with cosine distance, best of PREF_RESTARTS
    restarts.  The restarts advance in lockstep: each round relabels the
    users of every restart whose medoids still moved, then re-picks their
    medoids; a restart stops when its medoids repeat."""
    n = inst.n
    norms = np.linalg.norm(inst.pref, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = inst.pref / safe[:, None]
    sim = unit @ unit.T
    sim[norms == 0, :] = 0.0
    sim[:, norms == 0] = 0.0
    dist = 1.0 - sim
    np.fill_diagonal(dist, 0.0)

    rng = seeded_rng(seed)  # the medoid draws are its only use, in restart order
    medoids = np.array([rng.choice(n, size=g, replace=False) for _ in range(PREF_RESTARTS)])
    labels = np.empty((PREF_RESTARTS, n), dtype=np.intp)
    live = np.arange(PREF_RESTARTS)
    for _ in range(PREF_MAX_ROUNDS):
        med = medoids[live]
        lab = np.argmin(dist[:, med], axis=2).T  # (live, n)
        lab[np.arange(live.size)[:, None], med] = np.arange(g)  # a medoid stays in its own cluster
        labels[live] = lab
        new = _cluster_medoids(dist, lab, g)
        medoids[live] = new
        live = live[(new != med).any(axis=1)]
        if not live.size:
            break
    costs = dist[np.arange(n), np.take_along_axis(medoids, labels, axis=1)].sum(axis=1)
    best_cost, best = np.inf, 0
    for r, cost in enumerate(costs.tolist()):
        if cost < best_cost - 1e-12:
            best_cost, best = cost, r
    clusters = [np.flatnonzero(labels[best] == gi).tolist() for gi in range(g)]  # none empty
    clusters.sort(key=lambda cl: cl[0])
    return clusters


def independent_rounding(inst: Instance, frac: FractionalSolution,
                         rng_seed: int = 0) -> Configuration:
    """Draw every cell independently from its utility-factor distribution.

    No feasibility repair is attempted; the result may violate no-duplication.
    """
    if frac.x.shape != (inst.n, inst.m, inst.k):
        raise DomainError("fractional solution shape does not match the instance")
    rng = seeded_rng(rng_seed)
    probs = np.clip(frac.x, 0.0, None).transpose(0, 2, 1)  # (n, k, m)
    cum = probs.cumsum(axis=2)
    total = cum[:, :, -1:]
    if (total <= 0).any():
        raise DomainError("a cell has no positive utility factor to sample from")
    draws = rng.random((inst.n, inst.k, 1)) * total
    items = (draws <= cum).argmax(axis=2)
    return Configuration(assign=items)


def st_prepartition(inst: Instance) -> list[tuple[Instance, np.ndarray]]:
    """Split into ceil(n/M) balanced friendship-based sub-instances.

    Each sub-instance keeps only internal edges; the second element of each
    pair maps local user indices back to the original ones.
    """
    if inst.st is None:
        raise DomainError("instance has no teleportation parameters")
    parts = _friendship_partition(inst, math.ceil(inst.n / inst.st.M))  # <= m by Instance
    out = []
    for part in parts:
        local = {u: i for i, u in enumerate(part)}
        edges = [Edge(local[e.u], local[e.v], e.tau_uv, e.tau_vu)
                 for e, inside in zip(inst.edges, inst.edges_within(part)) if inside]
        sub = replace(inst, n=len(part), pref=inst.pref[part], edges=tuple(edges))
        out.append((sub, np.asarray(part, dtype=np.int64)))
    return out
