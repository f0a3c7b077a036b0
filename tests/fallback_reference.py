"""Per-cell starvation fill: the reference ``codisplay.rounding._fallback_fill``
is checked against.

``fallback_fill(state)`` finds starved cells from the factors themselves: an
empty cell (u, s) is starved when no item u does not hold has a positive
factor x[u, c, s].  It visits every cell in (user, slot) order and gives a
starved one the item of highest optimistic utility (ties to the lower
index) among those u does not hold whose subgroup has room, by one
``np.lexsort`` over the candidates.  A fill that starves a cell before the
current one leaves it for the next call.
"""

from __future__ import annotations

import numpy as np

from codisplay.core import DomainError, optimistic_utility
from codisplay.rounding import RoundingState


def fallback_fill(state: RoundingState) -> int:
    """Fill the starved cells of `state`; returns how many were assigned."""
    inst = state.inst
    open_max = np.where(state.held[:, :, None], 0.0, state.x).max(axis=1)  # (n, k)
    if not ((state.assign < 0) & ~(open_max > 0.0)).any():
        return 0
    ub = optimistic_utility(inst)
    unfilled = state.unfilled
    for u in range(inst.n):
        for s in range(inst.k):
            if state.assign[u, s] >= 0:
                continue
            feasible = ~state.held[u]
            if state.x[u, feasible, s].max(initial=0.0) > 0.0:
                continue
            cand = np.flatnonzero(feasible)
            cand = cand[state.counts[cand, s] < state.limit]
            if cand.size == 0:
                raise DomainError(f"size cap leaves no feasible item for user {u} at slot {s}")
            best = cand[np.lexsort((cand, -ub[u, cand]))[0]]
            state.assign_users([u], int(best), s)
    return unfilled - state.unfilled
