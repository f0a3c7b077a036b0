"""Dependent rounding: co-display subgroup formation and both solvers.

The randomized solver repeatedly samples focal parameters (item, slot,
threshold) and co-displays the focal item to every eligible user whose
utility factor clears the threshold.  The deterministic solver scores, for
every (item, slot), the subgroup whose immediate gain plus r times the
remaining relaxation value is largest, and applies the best one.

Randomness comes from a Philox 4x64 counter-based generator, so every run is
bit-reproducible from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (Configuration, DomainError, Instance, running_sum, seeded_rng,
                   total_objective)
from .lp import FractionalSolution

EXACT_SUBSET_LIMIT = 12
_TIE_EPS = 1e-12

_mask_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _masks(q: int) -> tuple[np.ndarray, np.ndarray]:
    """All 2^q subset indicator rows and their sizes, cached."""
    if q not in _mask_cache:
        ints = np.arange(1 << q, dtype=np.uint32)
        bits = ((ints[:, None] >> np.arange(q)) & 1).astype(bool)
        _mask_cache[q] = (bits, bits.sum(axis=1))
    return _mask_cache[q]


@dataclass(frozen=True)
class FocalParams:
    """One rounding step: co-display item c at slot s to factors >= alpha."""

    c: int
    s: int
    alpha: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise DomainError(f"alpha must lie in [0, 1], got {self.alpha}")


class RoundingState:
    """Mutable state of one rounding run.

    Cells are never rewritten once set.  An (item, slot) subgroup holds at
    most `limit` users: the size cap, or n, which never binds.  The factors
    are copied, so zeroing those of a full subgroup leaves the caller's intact.
    Every assignment goes through `_apply`, which keeps the copy of the
    factors open to each user that `xbar` reads and marks the last result
    stale; `_assign` adds the zeroing of a full subgroup and `assign_users`
    the checks.

    `live[u, s]` counts the items u does not hold whose factor x[u, c, s] is
    positive; an empty cell with none left is starved.  `zeroings` counts the
    full subgroups whose remaining factors were zeroed, so whoever derives
    terms from `x` knows when to derive them again.
    """

    def __init__(self, inst: Instance, frac: FractionalSolution, cap: Optional[int] = None):
        if frac.x.shape != (inst.n, inst.m, inst.k):
            raise DomainError("fractional solution shape does not match the instance")
        limit = inst.n if cap is None else cap
        if not float(limit).is_integer() or limit < 1:
            raise DomainError(f"rounding size cap must be an integer >= 1, got {cap}")
        self.inst = inst
        self.x = np.array(frac.x, dtype=float)  # mutable copy
        self.assign = np.full((inst.n, inst.k), -1, dtype=np.int64)
        self.held = np.zeros((inst.n, inst.m), dtype=bool)
        self.counts = np.zeros((inst.m, inst.k), dtype=np.int64)
        self.live = np.einsum("ucs->us", (self.x > 0.0).astype(np.int64))  # (n, k); faster than sum
        self.limit = int(limit)
        self.unfilled = inst.n * inst.k
        self.zeroings = 0
        # (m, k, n), built on the first `xbar` read: the factor of each
        # eligible user, 0 once it is not, so that `xbar` is one reduction
        # over contiguous runs
        self._open: Optional[np.ndarray] = None
        self._xbar: Optional[np.ndarray] = None
        self._stale = True  # `_open` changed since `xbar` was read

    def eligible_users(self, c: int, s: int) -> np.ndarray:
        """The users with slot s empty who have never been shown item c."""
        return np.flatnonzero((self.assign[:, s] < 0) & ~self.held[:, c])

    def room(self, c: int, s: int) -> int:
        """How many more users the (item c, slot s) subgroup may take."""
        return self.limit - int(self.counts[c, s])

    def xbar(self) -> np.ndarray:
        """(m, k) maximum factor over currently eligible users; 0 when none.

        Read-only, and reused until an assignment changes the state.  The
        reduction reads the copy of the open factors that assignments keep
        up to date, so it needs no mask of eligible users."""
        if self._open is None:
            mask = (self.assign < 0)[:, None, :] & ~self.held[:, :, None]  # (n, m, k)
            self._open = np.where(mask, self.x, 0.0).transpose(1, 2, 0).copy()
        elif not self._stale:
            return self._xbar
        xb = self._open.max(axis=2)
        xb.setflags(write=False)
        self._xbar, self._stale = xb, False
        return xb

    def assign_users(self, users: Sequence[int], c: int, s: int) -> None:
        """Show item c at slot s to `users`; once the subgroup is full, zero
        the factors of its remaining eligible users so nothing selects it.

        The users are assigned in order up to the first one not eligible (a
        repeated user is not), and then a DomainError names that user.  A
        list that is not of user ids in [0, n) is refused before any of it
        is assigned."""
        users = np.asarray(users)
        n = self.inst.n
        if users.ndim != 1 or users.size and users.dtype.kind not in "iu":
            raise DomainError(f"users must be a list of integer user ids, got {users.tolist()}")
        outside = (users < 0) | (users >= n)
        if outside.any():
            raise DomainError(f"user {users[np.argmax(outside)]} is not in [0, {n})")
        users = users.astype(np.int64, copy=False)
        ok = (self.assign[users, s] < 0) & ~self.held[users, c]
        if users.size > 1 and not (users[1:] > users[:-1]).all():  # may repeat a user
            order = np.argsort(users, kind="stable")
            ok[order[1:][users[order[1:]] == users[order[:-1]]]] = False  # later copies
        if not ok.all():
            bad = int(np.argmin(ok))
            self._apply(users[:bad], c, s)
            raise DomainError(f"user {users[bad]} is not eligible for item {c} at slot {s}")
        self._assign(users, c, s)

    def _assign(self, users, c: int, s: int) -> None:
        """`assign_users` without its checks, for users that are distinct and
        eligible by construction: an index array or one int."""
        self._apply(users, c, s)
        if self.counts[c, s] < self.limit:
            return
        rest = self.eligible_users(c, s)
        factors = self.x[rest, c, s]
        if factors.any():
            self.live[rest, s] -= factors > 0.0
            self.x[rest, c, s] = 0.0
            if self._open is not None:
                self._open[c, s, rest] = 0.0
            self.zeroings += 1

    def _apply(self, users, c: int, s: int) -> None:
        """Show item c at slot s to `users`, distinct and eligible: an index
        array or one int."""
        self.assign[users, s] = c
        self.held[users, c] = True
        count = 1 if isinstance(users, int) else users.size
        self.counts[c, s] += count
        self.unfilled -= count
        self.live[users] -= self.x[users, c] > 0.0  # item c no longer counts towards any slot
        if self._open is not None:
            self._open[:, s, users] = 0.0
            self._open[c, :, users] = 0.0
            self._stale = True

    def to_configuration(self) -> Configuration:
        if self.unfilled:
            cells = [(u, s) for u in range(self.inst.n) for s in range(self.inst.k)
                     if self.assign[u, s] < 0]
            raise DomainError(f"unfilled cells remain: {cells}")
        return Configuration(assign=self.assign.copy())


def csf_step(state: RoundingState, focal: FocalParams) -> list[int]:
    """Apply one co-display step; returns the users assigned (may be empty).

    Every eligible user whose factor reaches the threshold is assigned, up
    to the room left in the (item, slot) subgroup: beyond it, users are
    taken in descending-factor order (ties to the lower index).  Without a
    cap the threshold set always fits.  Thresholds compare against the
    state's working copy of the factors.
    """
    c, s, alpha = focal.c, focal.s, focal.alpha
    room = state.room(c, s)
    if room <= 0:
        return []
    elig = state.eligible_users(c, s)
    target = elig[state.x[elig, c, s] >= alpha]
    if target.size > room:
        order = np.lexsort((target, -state.x[target, c, s]))  # factor desc, index asc
        target = target[order][:room]
    state._assign(target, c, s)
    return target.tolist()


def _fallback_fill(state: RoundingState) -> int:
    """Assign starved cells (no positive factor left) by optimistic utility.

    Only reachable after size-cap zeroing, or with degenerate fractional
    input.  The cells are visited in (user, slot) order from the first
    starved one, reading starvation from `state.live`; each takes the
    item that ranks highest in `inst.optimistic_ranking` among those the
    user does not hold and whose subgroup has room, and is assigned
    directly, zeroing the subgroup's other factors when it fills.  A fill
    may starve further cells: those after the current one are filled in
    this call, those before it in the next.  Returns the number of cells
    assigned.
    """
    starved = np.flatnonzero(((state.assign < 0) & (state.live == 0)).ravel())
    if not starved.size:
        return 0
    k = state.inst.k
    ranked = state.inst.optimistic_ranking
    unfilled = state.unfilled
    for cell in range(int(starved[0]), state.assign.size):
        u, s = divmod(cell, k)
        if state.assign[u, s] >= 0 or state.live[u, s] > 0:
            continue
        held, counts = state.held[u], state.counts[:, s]
        for c in ranked[u]:  # the first item u may still take at slot s
            if not held[c] and counts[c] < state.limit:
                break
        else:
            raise DomainError(f"size cap leaves no feasible item for user {u} at slot {s}")
        state._assign(u, int(c), s)
    return unfilled - state.unfilled


UNIFORM_BLOCK = 256  # uniform focal draws in a decoded `uniform_block`
SCALAR_BLOCK = 16  # draws in a block of scalar calls; a call may use only a few
_LOW32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)


def _decode_block(raw: np.ndarray, m: int, k: int):
    """The uniform focal draws (c, s, alpha) that the raw Philox words `raw`
    stand for, with m, k >= 2, or None when a bounded draw among them would
    be rejected and drawn again.  Assumes no 32-bit half buffered beforehand.

    For 2 <= b <= 2**32, `Generator.integers(b)` takes a 32-bit half, the
    low half of a fresh raw word or else the high half buffered by the last
    such call, and keeps the top 32 bits of half * b (Lemire's method)
    unless the bottom 32 bits fall below 2**32 % b.  `Generator.random()`
    takes the top 53 bits of the next raw word.  So a draw is two words,
    (c | s << 32) and alpha.
    """
    words, alpha = raw[0::2], raw[1::2]
    drawn = []
    for half, b in ((words & _LOW32, m), (words >> _U32, k)):
        scaled = half * np.uint64(b)
        if ((scaled & _LOW32) < (1 << 32) % b).any():
            return None
        drawn.append((scaled >> _U32).astype(np.int64))
    c, s = drawn
    return c, s, (alpha >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def uniform_block(rng: np.random.Generator, m: int,
                  k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A block of uniform focal draws as arrays (c, s, alpha): value for
    value what as many rounds of the scalar calls `rng.integers(m)`,
    `rng.integers(k)`, `rng.random()` return, leaving `rng` where they would.

    `UNIFORM_BLOCK` draws are decoded from the raw Philox stream
    (`_decode_block`) when the decoder can vouch for all of them: both
    ranges in [2, 2**32] (a range of 1 draws nothing), no 32-bit half
    already buffered, and no Lemire rejection.  Otherwise the generator is
    put back and the scalar calls draw a short block of `SCALAR_BLOCK`, so
    that a shape with m or k equal to 1 draws about as many as it uses.
    """
    bg = rng.bit_generator
    saved = bg.state
    if not saved["has_uint32"] and 2 <= min(m, k) and max(m, k) <= 1 << 32:
        block = _decode_block(bg.random_raw(2 * UNIFORM_BLOCK), m, k)
        if block is not None:
            return block
        bg.state = saved
    draws = [(rng.integers(m), rng.integers(k), rng.random()) for _ in range(SCALAR_BLOCK)]
    c, s, alpha = zip(*draws)
    return np.array(c, dtype=np.int64), np.array(s, dtype=np.int64), np.array(alpha)


def _avg_uniform(state: RoundingState, rng: np.random.Generator) -> tuple[int, int, int]:
    """avg's uniform loop over blocks of draws; returns (samples, iterations,
    fallback cells).

    It acts as one `sample_focal` call per draw.  A draw above the cached
    `xbar()` misses and changes nothing, so one array pass over the rest of
    the block finds the next draw that may hit, the misses before it are
    counted at once, and the state is read again only after it changes:
    after a productive `csf_step` or a fallback fill.  The 64-miss
    starvation probe acts only on a starved state (`xbar()` sums to 0).  A
    state is starved from the start or from a change on, and every change
    restarts the count, so the probe is placed only in starved states, on
    the draw where it fires per draw.
    """
    m, k = state.inst.m, state.inst.k
    misses = samples = iterations = fallback_cells = 0
    while state.unfilled:
        cs, ss, alphas = uniform_block(rng, m, k)
        cells = cs * k + ss
        at = 0
        while at < cells.size and state.unfilled:
            xb = state.xbar()
            maybe = np.flatnonzero(xb.ravel()[cells[at:]] >= alphas[at:])
            run = int(maybe[0]) if maybe.size else cells.size - at  # misses before it
            if misses + run >= 64 and xb.sum() <= 0.0:  # the 64th miss probes
                samples += 64 - misses
                at += 64 - misses
                misses = 0
                fallback_cells += _fallback_fill(state)
                continue
            samples += run
            misses += run
            at += run
            if at == cells.size:
                break
            samples += 1
            focal = FocalParams(int(cs[at]), int(ss[at]), float(alphas[at]))
            at += 1
            if csf_step(state, focal):
                iterations += 1
                misses = 0
            else:
                misses += 1
    return samples, iterations, fallback_cells


def avg(inst: Instance, frac: FractionalSolution, rng_seed: int = 0,
        sampler: str = "uniform", cap: Optional[int] = None,
        stats: Optional[dict] = None) -> Configuration:
    """Randomized rounding: sample focal parameters until every cell is filled.

    Each draw is one `sample_focal` draw; uniform ones come a block at a
    time (`_avg_uniform`), with the same outputs and counters.  A uniform
    draw whose target subgroup is empty is a miss; after 64 misses in a row
    the state is probed for starvation.  The advanced sampler never misses,
    and when no positive factor is left the starved cells are filled
    directly.  When given, `stats` receives the run counters (productive
    iterations, samples drawn, fallback assignments).
    """
    if sampler not in ("uniform", "advanced"):
        raise DomainError(f"unknown sampler {sampler!r}")
    state = RoundingState(inst, frac, cap=cap)
    rng = seeded_rng(rng_seed)
    samples = iterations = fallback_cells = 0
    if sampler == "uniform":
        samples, iterations, fallback_cells = _avg_uniform(state, rng)
    while state.unfilled:  # the advanced sampler
        focal = sample_focal(state, rng, sampler)
        if focal is None:  # no positive factor left
            fallback_cells += _fallback_fill(state)
            continue
        samples += 1
        if csf_step(state, focal):
            iterations += 1
    if stats is not None:
        stats.update(fallback_cells=fallback_cells, samples=samples, iterations=iterations)
    return state.to_configuration()


def sample_focal(state: RoundingState, rng: np.random.Generator,
                 sampler: str) -> Optional[FocalParams]:
    """Draw one set of focal parameters at the current state (no assignment).

    The uniform sampler draws (c, s) uniformly and alpha from [0, 1] and
    returns None when alpha exceeds the cached maximum eligible factor
    `state.xbar()[c, s]`, so that the target subgroup would be empty (a
    miss).  A cell with nobody eligible has maximum 0, and at alpha = 0 its
    draw is returned and assigns nobody, which `avg` counts as a miss too.
    The advanced sampler draws (c, s) proportionally to the maximum eligible
    factor and alpha from [0, that maximum], so its outcome distribution
    equals the uniform sampler conditioned on nonempty outcomes; it returns
    None only when no positive factor is left.
    """
    m, k = state.inst.m, state.inst.k
    if sampler == "uniform":
        c = int(rng.integers(m))
        s = int(rng.integers(k))
        alpha = float(rng.random())
        if state.xbar()[c, s] < alpha:
            return None
        return FocalParams(c, s, alpha)
    xb = state.xbar()
    total = xb.sum()
    if total <= 0.0:
        return None
    flat = int(rng.choice(m * k, p=(xb / total).ravel()))
    c, s = divmod(flat, k)
    return FocalParams(c, s, float(rng.random()) * float(xb[c, s]))


def avg_replay(inst: Instance, frac: FractionalSolution,
               sequence: Sequence[FocalParams]) -> Configuration:
    """Deterministically apply a recorded focal-parameter sequence."""
    for f in sequence:
        if not (0 <= f.c < inst.m and 0 <= f.s < inst.k):
            raise DomainError(f"focal (item, slot) ({f.c}, {f.s}) outside the instance")
    state = RoundingState(inst, frac)
    for focal in sequence:
        csf_step(state, focal)
        if state.unfilled == 0:
            break
    return state.to_configuration()  # raises with the unfilled cells listed


# ---------------------------------------------------------------------------
# deterministic solver
# ---------------------------------------------------------------------------


def _exact_subset(a: np.ndarray, pairs, capacity: int) -> tuple[float, np.ndarray]:
    """Maximize sum(a[S]) plus the bonus b of every pair (i, j, b) inside S
    over nonempty S of at most `capacity` of the users 0..a.size-1, by
    enumeration.  All bonuses are nonnegative, so the problem is supermodular."""
    q = a.size
    bits, sizes = _masks(q)
    scores = bits @ a
    for i, j, b in pairs:
        scores = scores + b * (bits[:, i] & bits[:, j])
    scores[0] = -np.inf
    scores[sizes > capacity] = -np.inf
    best = int(np.argmax(scores))
    return float(scores[best]), np.flatnonzero(bits[best])


def _rows(ptr: np.ndarray, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The neighbour-index entries of `users`, one CSR row after another, and
    the length of each row."""
    ln = ptr[users + 1] - ptr[users]
    return np.arange(ln.sum()) + np.repeat(ptr[users + 1] - np.cumsum(ln), ln), ln


def _best_prefix(order: np.ndarray, length: np.ndarray, a: np.ndarray, eu: np.ndarray,
                 ev: np.ndarray, bonus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best nonempty prefix of the users order[j, :length[j]] of each order j,
    as (scores, masks over all users).  Order j ranks the users of row
    b = j % len(a), whose linear scores are a[b] and whose edge bonuses are
    bonus[:, b], so one call may take several orders per row.  A user adds
    its linear score plus the bonus of each edge to an earlier chosen user:
    each edge (eu[e], ev[e]) is charged to its later end by one `np.bincount`
    over flat (order, position) targets, edge by edge, and an edge with an
    end outside the prefix to a spare target."""
    orders, n = order.shape
    width = int(length.max())
    pos = np.arange(width)
    rank = np.full((n, orders), width)  # the position of each user in each order
    rank[order[:, :width], np.arange(orders)[:, None]] = np.where(pos < length[:, None], pos, width)
    later = np.maximum(rank[eu], rank[ev]) + np.arange(orders) * (width + 1)
    inc = np.bincount(later.ravel(), weights=np.tile(bonus, orders // len(a)).ravel(),
                      minlength=orders * (width + 1)).reshape(orders, width + 1)
    row = np.arange(orders)[:, None]
    scores = np.cumsum(a[row % len(a), order[:, :width]] + inc[:, :width], axis=1)
    scores[pos >= length[:, None]] = -np.inf
    best = scores.argmax(axis=1)
    return scores[row[:, 0], best], rank.T <= best[:, None]


def _local_subset(elig: np.ndarray, room: np.ndarray, a: np.ndarray, nbrs: tuple,
                  bonus: np.ndarray, score: np.ndarray,
                  in_set: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The `_exact_subset` problem of each row b over its users elig[b], too
    many to enumerate, with at most room[b] of them: the seed set in_set[b],
    of score score[b], improved in place by single-user moves, a documented
    approximation, and returned.  The rows move in lockstep, each to its
    next first improving move; a user's gain, its bonus to chosen partners,
    is summed again when a partner moves.  `nbrs` is (owner, partner, edge,
    ptr): entries ptr[u]:ptr[u + 1] hold user u's (partner, edge) pairs in
    edge order."""
    owner, partner, edge, ptr = nbrs
    rows, n = a.shape
    size = in_set.sum(axis=1)
    b, at = np.nonzero(in_set[:, partner])
    gain = np.bincount(b * n + owner[at], weights=bonus[edge[at], b],
                       minlength=rows * n).reshape(rows, n)
    left = 4 * elig.sum(axis=1) - 1  # how many more passes row b may start
    # row b seeks its next move from user start[b] on, which is above 0 once
    # it has moved in its current pass
    start = np.zeros(rows, dtype=np.int64)
    live, cols = np.arange(rows), np.arange(n)
    while live.size:  # strict improvement, terminates
        inside, sz = in_set[live], size[live, None]
        delta = a[live] + gain[live]
        signed = np.where(inside, -delta, delta)  # the change of the score on a move
        ok = (signed > _TIE_EPS) & np.where(inside, sz > 1, sz < room[live, None])
        ok &= elig[live] & (cols >= start[live, None])
        u = ok.argmax(axis=1)
        hit = ok[np.arange(live.size), u]
        ended = live[~hit]  # a pass without a further move ends; one with a move starts another
        ended = ended[(start[ended] > 0) & (left[ended] > 0)]
        left[ended] -= 1
        start[ended] = 0
        i = np.flatnonzero(hit)
        if not i.size:
            live = ended
            continue
        b, u, drop = live[i], u[i], inside[i, u[i]]
        in_set[b, u] = ~drop
        size[b] += np.where(drop, -1, 1)
        score[b] += signed[i, u]
        start[b] = u + 1
        at, ln = _rows(ptr, u)  # sum the partners' rows again, in edge order
        b, near = np.repeat(b, ln), partner[at]
        at, ln = _rows(ptr, near)
        gain[b, near] = 0.0
        b = np.repeat(b, ln)
        keep = in_set[b, partner[at]]
        b, at = b[keep], at[keep]
        np.add.at(gain, (b, owner[at]), bonus[edge[at], b])
        live = np.concatenate([live[i], ended])
    return score, in_set


def _score_cells(state: RoundingState, cs: np.ndarray, ss: np.ndarray, r: float,
                 loss: np.ndarray, q_es: np.ndarray, nbrs: tuple) -> list:
    """avgd's best subgroup of each cell (cs[b], ss[b]) as (score, users); None
    when the cell is full or has nobody eligible.  `nbrs` is avgd's neighbour
    index (see `_local_subset`).  Cells above EXACT_SUBSET_LIMIT eligible
    users are searched together as the rows of one batch; an ineligible
    partner is never chosen."""
    inst = state.inst
    room = state.limit - state.counts[cs, ss]
    elig = (state.assign.T[ss] < 0) & ~state.held.T[cs]  # (cells, n)
    q = elig.sum(axis=1)
    a = inst.pref.T[cs] - r * loss.T[ss]  # linear score of every user
    bonus = inst.w[:, cs] + r * q_es[:, ss]  # (E, cells) pair bonus of every edge
    out: list = [None] * cs.size
    for b in np.flatnonzero((room > 0) & (q > 0) & (q <= EXACT_SUBSET_LIMIT)):
        users = np.flatnonzero(elig[b])
        inner = inst.edges_within(users)
        pairs = zip(np.searchsorted(users, inst.eu[inner]).tolist(),
                    np.searchsorted(users, inst.ev[inner]).tolist(), bonus[inner, b].tolist())
        score, local = _exact_subset(a[b, users], pairs, room[b])
        out[b] = (score, users[local])
    large = np.flatnonzero((room > 0) & (q > EXACT_SUBSET_LIMIT))
    if large.size:
        rows = large.size
        elig, room, a, bonus = elig[large], room[large], a[large], bonus[:, large]
        # the best prefix in descending-score order seeds the local search;
        # the (factor desc, index asc) prefixes include every threshold target
        # set and its capped truncation, so dominating them keeps the
        # worst-case guarantee
        keys = np.where(elig, -np.stack([a, state.x[:, cs[large], ss[large]].T]), np.inf)
        order = np.argsort(keys, axis=2, kind="stable").reshape(2 * rows, inst.n)
        score, in_set = _best_prefix(order, np.tile(np.minimum(q[large], room), 2), a,
                                     inst.eu, inst.ev, bonus)
        t_score, t_mask = score[rows:], in_set[rows:]
        score, in_set = _local_subset(elig, room, a, nbrs, bonus, score[:rows], in_set[:rows])
        better = t_score > score + _TIE_EPS
        score[better], in_set[better] = t_score[better], t_mask[better]
        users = np.split(np.nonzero(in_set)[1], np.cumsum(in_set.sum(axis=1))[:-1])
        for b, cell in zip(large, zip(score.tolist(), users)):
            out[b] = cell
    return out


def avgd(inst: Instance, frac: FractionalSolution, r: float = 0.25,
         trace: Optional[list] = None, cap: Optional[int] = None) -> Configuration:
    """Deterministic rounding balancing immediate gain against future value.

    Each iteration scores, for every open (item, slot), the target subgroup
    maximizing  ALG(S) + r * OPT_LP(remaining cells after S),  where ALG is
    the realized preference plus social weight inside S and OPT_LP is the
    fractional value of the cells not yet assigned.  The subgroup search
    covers every threshold set and is refined to the exact maximizer (see
    _score_cells); ties break to the lowest item, then slot, then the
    enumeration order of subsets.  With r = 1/4 the output is worst-case
    4-approximate.  When given, `trace` receives one record per step, its
    "iteration" being the trace's length before the record.

    Cell results are cached across iterations.  A step at (c, s) changes
    only the empty cells of slot s, the users holding item c and, when it
    fills the subgroup, the factors x[:, c, s]; a cell (c', s') with c' != c
    and s' != s therefore keeps its eligible set, linear scores, pair
    bonuses, room and factor order, hence its exact (score, users).  So only
    the m + k - 1 cells of row c and column s are rescored, as one
    `_score_cells` batch.  A fallback fill acts as one such step per cell it
    fills, so the rows and columns of its cells are rescored.  Likewise only
    the loss of the slots a step or fill touched is recomputed.  The
    relaxation terms (the pair values, lpref and the pair sums q_es) depend
    on the factors alone, so they are derived again only after a full
    subgroup zeroed a factor (`state.zeroings` moved): never without a cap.
    Then the pair values of the (c, s) that filled up are recomputed, and
    lpref and q_es are taken over the whole arrays, since reducing one
    slot's slice would make numpy sum pairwise and change the last bits;
    their values at other slots come out as before.
    """
    if not (np.isfinite(r) and r >= 0):
        raise DomainError(f"balancing ratio must be finite and nonnegative, got {r}")
    state = RoundingState(inst, frac, cap=cap)
    m, k = inst.m, inst.k
    pref, eu, ev, w, xt = inst.pref, inst.eu, inst.ev, inst.w, state.x
    ends = np.column_stack([eu, ev]).ravel()  # (u, v) of each edge in turn
    at = np.argsort(ends, kind="stable")  # each user's edge ends, in edge order
    nbrs = (ends[at], ends[at ^ 1], at // 2, np.searchsorted(ends[at], np.arange(inst.n + 1)))
    cells: list[list] = [[None] * k for _ in range(m)]  # _score_cells per (c, s)
    fresh = np.zeros((m, k), dtype=bool)  # cells[c][s] is current
    stale_loss = np.ones(k, dtype=bool)  # slots whose loss is out of date
    loss = np.zeros((inst.n, k))
    pair = w[:, :, None] * np.minimum(xt[eu], xt[ev])  # (E, m, k)
    seen = -1  # state.zeroings when lpref and q_es were last derived from x

    def fill() -> int:
        """`_fallback_fill`, marking stale what its cells changed."""
        was_empty, zeroings = state.assign < 0, state.zeroings
        filled = _fallback_fill(state)
        if filled:
            u, s = np.nonzero(was_empty & (state.assign >= 0))
            c = state.assign[u, s]
            fresh[c] = False
            fresh[:, s] = False
            stale_loss[s] = True
            if state.zeroings != zeroings:  # subgroups it filled zeroed factors
                c, s = np.divmod(np.unique(c * k + s), k)
                full = state.counts[c, s] >= state.limit
                c, s = c[full], s[full]
                pair[:, c, s] = w[:, c] * np.minimum(xt[eu[:, None], c, s], xt[ev[:, None], c, s])
        return filled

    while state.unfilled:
        fill()
        if not state.unfilled:
            break
        empty = state.assign < 0  # (n, k)
        if seen != state.zeroings:  # a full subgroup zeroed factors
            lpref = np.einsum("uc,ucs->us", pref, xt)  # value of each open cell
            q_es = pair.sum(axis=1)  # (E, k)
            seen = state.zeroings
        both_open = empty[eu] & empty[ev]
        # linear loss of closing a cell: its own value plus pair terms shared
        # with still-open same-slot partners, added edge by edge
        redo = np.flatnonzero(stale_loss)  # a slot between two stale ones is redone exactly
        slots = slice(redo[0], redo[-1] + 1)
        loss[:, slots] = np.where(empty[:, slots], lpref[:, slots], 0.0)
        np.add.at(loss[:, slots], ends, np.repeat(both_open[:, slots] * q_es[:, slots], 2, axis=0))
        stale_loss[:] = False

        stale = np.nonzero(~fresh)
        for c, s, cell in zip(*stale, _score_cells(state, *stale, r, loss, q_es, nbrs)):
            cells[c][s] = cell
        fresh[:] = True
        best = None  # (score, c, s, users)
        for c in range(m):
            for s in range(k):
                cell = cells[c][s]
                if cell is not None and (best is None or cell[0] > best[0] + _TIE_EPS):
                    best = (cell[0], c, s, cell[1])
        if best is None:
            if not fill():
                raise DomainError("avgd found no cell to assign")
            continue
        score, c, s, users = best
        if trace is not None:
            opt_cur = float(lpref[empty].sum()) + float(q_es[both_open].sum())
            inner = inst.edges_within(users)
            alg = float(pref[users, c].sum()) + running_sum(w[inner, c])
            lost = float(loss[users, s].sum()) - running_sum(q_es[inner, s])
            opt_fut = opt_cur - lost
            trace.append({
                "iteration": len(trace),
                "c": int(c),
                "s": int(s),
                "alpha": float(xt[users, c, s].min()),
                "users": users.tolist(),
                "alg": alg,
                "opt_lp_fut": opt_fut,
                "f": alg + r * opt_fut,
            })
        state._assign(users, c, s)
        fresh[c, :] = False
        fresh[:, s] = False
        stale_loss[s] = True  # the open cells of slot s changed
        if seen != state.zeroings:  # and so did the factors x[:, c, s]
            pair[:, c, s] = w[:, c] * np.minimum(xt[eu, c, s], xt[ev, c, s])
    return state.to_configuration()


def avg_st(inst: Instance, frac: FractionalSolution, rng_seed: int = 0,
           sampler: str = "uniform", deterministic: bool = False,
           r: float = 0.25) -> Configuration:
    """Size-capped rounding; the output never exceeds M users per (item, slot)."""
    if inst.st is None:
        raise DomainError("instance has no teleportation parameters")
    if deterministic:
        return avgd(inst, frac, r=r, cap=inst.st.M)
    return avg(inst, frac, rng_seed=rng_seed, sampler=sampler, cap=inst.st.M)


def best_of(inst: Instance, frac: FractionalSolution, seeds: Sequence[int],
            sampler: str = "uniform") -> Configuration:
    """Run the randomized solver once per seed and keep the output with the
    highest unit-sum objective (the first on ties)."""
    best_cfg, best_val = None, -np.inf
    for seed in seeds:
        cfg = avg(inst, frac, rng_seed=seed, sampler=sampler)
        val = total_objective(inst, cfg, "unit_sum")
        if val > best_val:
            best_cfg, best_val = cfg, val
    if best_cfg is None:
        raise DomainError("best_of needs at least one seed")
    return best_cfg
