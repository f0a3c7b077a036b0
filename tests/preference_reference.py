"""Restart-by-restart preference partition: the reference
`baselines._preference_partition` is checked against.

``preference_partition(inst, g, seed)`` runs each k-medoids restart to the
end before it draws the next one, with one group of numpy calls per round
and cluster.  Tests require equal partitions on every instance.  ``restarts``
and ``rounds`` default to the values `baselines` uses; a test that lowers the
round limit there passes the same limit here.
"""

from __future__ import annotations

import numpy as np

from codisplay.core import Instance, seeded_rng


def preference_partition(inst: Instance, g: int, seed: int, restarts: int = 20,
                         rounds: int = 100) -> list[list[int]]:
    """g-medoids on preference rows with cosine distance, best of ``restarts``."""
    n = inst.n
    norms = np.linalg.norm(inst.pref, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = inst.pref / safe[:, None]
    sim = unit @ unit.T
    sim[norms == 0, :] = 0.0
    sim[:, norms == 0] = 0.0
    dist = 1.0 - sim
    np.fill_diagonal(dist, 0.0)

    rng = seeded_rng(seed)
    best_cost, best_labels = np.inf, None
    for _ in range(restarts):
        medoids = list(rng.choice(n, size=g, replace=False))
        for _ in range(rounds):
            labels = np.argmin(dist[:, medoids], axis=1)
            for gi, med in enumerate(medoids):
                labels[med] = gi  # a medoid stays in its own cluster
            new_medoids = []
            for gi in range(g):
                members = np.flatnonzero(labels == gi)
                costs = dist[members][:, members].sum(axis=1)
                new_medoids.append(int(members[np.argmin(costs)]))
            if new_medoids == medoids:
                break
            medoids = new_medoids
        cost = float(dist[np.arange(n), np.asarray(medoids)[labels]].sum())
        if cost < best_cost - 1e-12:
            best_cost, best_labels = cost, labels.copy()
    clusters = [sorted(np.flatnonzero(best_labels == gi).tolist()) for gi in range(g)]
    clusters = [cl for cl in clusters if cl]
    clusters.sort(key=lambda cl: cl[0])
    return clusters
