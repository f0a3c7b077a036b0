"""Pairwise friendship partition: the reference `baselines._friendship_partition`
is checked against.

``friendship_partition(inst, g)`` recounts the links between every pair of
clusters in every merge round, so it is slow beyond a few dozen users but
plain to read.  Tests require equal partitions, or the same error, on every
instance.  A ``dissolves`` list, when given, receives each cluster that the
merge loop dissolved, so a test can show that it reached that branch.
"""

from __future__ import annotations

import math

import numpy as np

from codisplay.core import DomainError, Instance


def friendship_partition(inst: Instance, g: int,
                         dissolves: list | None = None) -> list[list[int]]:
    """Greedy agglomerative merging maximizing internal edges, sizes capped at
    ceil(n/g).  Ties prefer the pair with the smaller total degree, then
    lexicographic order."""
    n = inst.n
    cap = math.ceil(n / g)
    adj = np.zeros((n, n), dtype=np.int64)
    adj[inst.eu, inst.ev] = adj[inst.ev, inst.eu] = 1
    deg = adj.sum(axis=1)
    clusters: list[list[int]] = [[u] for u in range(n)]

    def between(a: list[int], b: list[int]) -> int:
        return int(adj[np.ix_(a, b)].sum())

    while len(clusters) > g:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                if len(clusters[i]) + len(clusters[j]) > cap:
                    continue
                links = between(clusters[i], clusters[j])
                degsum = int(deg[clusters[i]].sum() + deg[clusters[j]].sum())
                key = (-links, degsum, i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
        if best is not None:
            _, i, j = best
            clusters[i] = clusters[i] + clusters[j]
            del clusters[j]
            continue
        # no pair fits under the cap: dissolve the smallest cluster into others
        src = min(range(len(clusters)), key=lambda i: (len(clusters[i]), clusters[i][0]))
        members = clusters.pop(src)
        if dissolves is not None:
            dissolves.append(list(members))
        for u in members:
            open_idx = [i for i, cl in enumerate(clusters) if len(cl) < cap]
            if not open_idx:
                raise DomainError("cannot rebalance partition under the size cap")
            tgt = max(open_idx, key=lambda i: (between([u], clusters[i]), -i))
            clusters[tgt].append(u)
    clusters = [sorted(cl) for cl in clusters]
    clusters.sort(key=lambda cl: cl[0])
    return clusters
