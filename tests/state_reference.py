"""Per-user rounding state: the reference ``codisplay.rounding.RoundingState``
is checked against.

``ReferenceState`` keeps the library's fields but changes them the plain
way: ``assign_users`` checks and assigns one user at a time, lowering
``live`` for the users it assigned even when a later one is not eligible,
and ``xbar()`` rebuilds the whole (m, k) maximum from the (n, m, k) masked
factors on every read.  Step it with ``csf_step`` below and fill it with
``fallback_reference.fallback_fill``, both of which assign through
``assign_users``.
"""

from __future__ import annotations

import numpy as np

from codisplay.core import DomainError
from codisplay.rounding import FocalParams, RoundingState


class ReferenceState(RoundingState):
    def xbar(self) -> np.ndarray:
        mask = (self.assign < 0)[:, None, :] & ~self.held[:, :, None]  # (n, m, k)
        xb = np.where(mask, self.x, 0.0).max(axis=0)
        xb.setflags(write=False)
        return xb

    def assign_users(self, users, c: int, s: int) -> None:
        done = []
        try:
            for u in users:
                if self.assign[u, s] >= 0 or self.held[u, c]:
                    raise DomainError(f"user {u} is not eligible for item {c} at slot {s}")
                self.assign[u, s] = c
                self.held[u, c] = True
                self.counts[c, s] += 1
                self.unfilled -= 1
                done.append(u)
        finally:
            if done:  # item c no longer counts towards any slot of these users
                self.live[np.array(done)] -= self.x[np.array(done), c] > 0.0
        if self.room(c, s) <= 0:
            rest = self.eligible_users(c, s)
            factors = self.x[rest, c, s]
            if factors.any():
                self.live[rest, s] -= factors > 0.0
                self.x[rest, c, s] = 0.0
                self.zeroings += 1


def csf_step(state: ReferenceState, focal: FocalParams) -> list[int]:
    """``codisplay.rounding.csf_step`` through ``state.assign_users``."""
    c, s, alpha = focal.c, focal.s, focal.alpha
    room = state.room(c, s)
    if room <= 0:
        return []
    elig = state.eligible_users(c, s)
    target = elig[state.x[elig, c, s] >= alpha]
    if target.size > room:
        order = np.lexsort((target, -state.x[target, c, s]))  # factor desc, index asc
        target = target[order][:room]
    chosen = [int(u) for u in target]
    state.assign_users(chosen, c, s)
    return chosen
