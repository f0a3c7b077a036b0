"""Exact enumeration oracles and instance generators with known structure."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import Configuration, DomainError, Edge, Instance, StParams, seeded_rng

GUARD_LIMIT = 20_000_000
BLOCK = 1 << 14  # configurations scored at once by `_search`


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
    """Exhaustive maximization over per-user arrangement choices, block by block.

    A block holds at most ``BLOCK`` configurations: the last ``s`` users span
    whole axes (``P^s <= BLOCK``), the user before them a run of ``r`` of its
    arrangements, and the users before that are a fixed prefix, enumerated
    lexicographically in Python.  A block is scored at once by broadcasting.
    Each user's increment adds its preference score and then its edge terms in
    edge order, and the total adds the increments user by user: the order of a
    depth-first search, so values are bit-identical to one.  With a subgroup
    cap, a configuration whose (item, slot) counts exceed the cap scores
    ``-inf``, and a prefix that already exceeds it is skipped.  Ties resolve to
    the lexicographically smallest assignment: blocks are visited in
    lexicographic order and compared strictly, and within a block the last
    user's arrangement and then the row are taken by first maximum in C order.
    """
    n = inst.n
    p = arr.shape[0]
    if n == 1:  # a single user can never exceed a cap of >= 1
        vec = pref_scores[0]
        i = int(np.argmax(vec))
        return [i], float(vec[i])
    edges_into = [[] for _ in range(n)]  # (earlier_user, matrix) per user
    for u, v, mat in zip(inst.eu.tolist(), inst.ev.tolist(), mats):
        edges_into[max(u, v)].append((min(u, v), mat if u < v else mat.T))

    # max(p, 2): with P = 1, P^s never grows, and numpy allows only 64 axes
    s = 1
    while s < n - 1 and max(p, 2) ** (s + 1) <= BLOCK:
        s += 1
    f = n - 1 - s  # the user whose arrangements are split into runs of rows
    nb = s + 1
    chunks = -(-p // max(1, BLOCK // p ** s))
    r = -(-p // chunks)

    def place(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
        """View of x with its last dimensions on the given block axes
        (ascending); any leading dimension stays in front of the block."""
        lead = x.ndim - len(axes)
        shape = list(x.shape[:lead]) + [1] * nb
        for d, ax in zip(x.shape[lead:], axes):
            shape[lead + ax] = d
        return x.reshape(shape)

    capped = m_cap is not None and m_cap < n  # n users never exceed a cap of n
    if capped:
        dt = np.min_scalar_type(-n)  # signed, holds every count up to n
        cells = inst.m * inst.k
        # a block's counts take m*k small integers per configuration, stored
        # cell-major, so the check per configuration reduces over the first axis
        onehot = np.zeros((cells, p), dtype=dt)  # (slot * m + item, arrangement)
        onehot[np.arange(inst.k) * inst.m + arr, np.arange(p)[:, None]] = 1
        tail = sum(place(onehot, (u - f,)) for u in range(f + 1, n))

    best_val = -np.inf
    best_choice: list[int] = []
    for pre in itertools.product(range(p), repeat=f):
        score = 0.0
        for u, i in enumerate(pre):
            inc = float(pref_scores[u, i])
            for v, mat in edges_into[u]:
                inc += float(mat[pre[v], i])
            score += inc
        if capped:
            base = onehot[:, list(pre)].sum(axis=1, dtype=dt)
            if (base > m_cap).any():
                continue
        for lo in range(0, p, r):
            hi = min(lo + r, p)
            rows = slice(lo, hi)
            total = score
            for u in range(f, n):
                idx = rows if u == f else slice(None)
                inc = place(pref_scores[u, idx], (u - f,))
                for v, mat in edges_into[u]:
                    if v < f:
                        inc = inc + place(mat[pre[v], idx], (u - f,))
                    else:
                        inc = inc + place(mat[rows] if v == f else mat, (v - f, u - f))
                if u < n - 1:
                    total = total + inc
            shape = (hi - lo,) + (p,) * s
            if capped:
                counts = tail + place(base[:, None] + onehot[:, rows], (0,))
                inc = np.where(counts.max(axis=0) <= m_cap, inc, -np.inf)
            if inc.shape != shape:  # the last user is not linked to every block user
                inc = np.broadcast_to(inc, shape)
            last = inc.reshape(-1, p)
            pick = last.argmax(axis=1)
            # every block user but the last adds its own axis to the total
            totals = total.reshape(-1) + last[np.arange(len(pick)), pick]
            j = int(totals.argmax())
            if totals[j] > best_val:
                best_val = float(totals[j])
                row = np.unravel_index(j, shape[:-1])
                best_choice = (list(pre) + [lo + int(row[0])]
                               + [int(x) for x in row[1:]] + [int(pick[j])])
    if not math.isfinite(best_val):
        raise DomainError("no feasible configuration under the subgroup size cap")
    return best_choice, best_val


def _optimum(inst: Instance, wp: float, ws: float, d_tel: float | None,
             m_cap: int | None) -> tuple[Configuration, float]:
    """Exhaustive optimum of ``wp`` * preference + ``ws`` * social value."""
    _guard(inst)
    arr = _arrangements(inst.m, inst.k)
    pref_scores = wp * inst.pref[:, arr].sum(axis=2)  # (n, P)
    mats = [ws * m for m in _edge_matrices(inst, arr, d_tel)]
    choice, value = _search(inst, arr, pref_scores, mats, m_cap)
    return Configuration(assign=arr[choice]), value


def brute_force(inst: Instance, mode: str = "unit_sum") -> tuple[Configuration, float]:
    """Exhaustive optimum over all feasible configurations."""
    if mode == "canonical":
        return _optimum(inst, 1.0 - inst.lam, inst.lam, None, None)
    if mode == "unit_sum":
        return _optimum(inst, 1.0, 1.0, None, None)
    raise DomainError(f"unknown objective mode {mode!r}")


def brute_force_st(inst: Instance) -> tuple[Configuration, float]:
    """Exhaustive optimum of the teleportation objective under the size cap."""
    if inst.st is None:
        raise DomainError("instance has no teleportation parameters")
    return _optimum(inst, 1.0 - inst.lam, inst.lam, inst.st.d_tel, inst.st.M)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def gen_random(n: int, m: int, k: int, edge_prob: float = 0.5, seed: int = 0,
               d_tel: float | None = None, m_cap: int | None = None) -> Instance:
    """Uniform preferences, Bernoulli edges, directed social values in [0, 0.5]."""
    if not 0.0 <= edge_prob <= 1.0:
        raise DomainError(f"edge_prob must lie in [0, 1], got {edge_prob}")
    rng = seeded_rng(seed)
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
