"""Shared fixtures: the worked running example and small random suites."""

import math

import numpy as np
import pytest

import codisplay as cd

# Users A, B, C, D -> 0..3; items c1..c5 -> 0..4.
PREF = np.array([
    [0.8, 0.85, 0.1, 0.05, 1.0],
    [0.7, 1.0, 0.15, 0.2, 0.1],
    [0.0, 0.15, 0.7, 0.6, 0.1],
    [0.1, 0.0, 0.3, 1.0, 0.95],
])

# (u, v, tau(u,v,.), tau(v,u,.)) per friendship
EDGE_DATA = [
    (0, 1, [0.2, 0.05, 0.1, 0.0, 0.05], [0.2, 0.05, 0.1, 0.05, 0.05]),
    (0, 2, [0.0, 0.05, 0.1, 0.0, 0.3], [0.0, 0.05, 0.1, 0.05, 0.3]),
    (0, 3, [0.2, 0.05, 0.1, 0.05, 0.2], [0.3, 0.05, 0.05, 0.0, 0.25]),
    (1, 2, [0.0, 0.05, 0.1, 0.2, 0.0], [0.1, 0.05, 0.1, 0.2, 0.05]),
]

# Fractional optimum support (per user x item); the tensor is 1/3 on the
# support, identical at every slot.
FRAC_SUPPORT = np.array([
    [1, 1, 0, 0, 1],
    [1, 1, 0, 1, 0],
    [0, 0, 1, 1, 1],
    [1, 0, 0, 1, 1],
], dtype=float)

# Recorded focal-parameter walkthrough (item, slot, threshold), 0-indexed.
REPLAY_SEQ = [
    (0, 2, 0.06), (3, 1, 0.22), (2, 0, 0.04), (4, 2, 0.2),
    (4, 0, 0.31), (1, 0, 0.01), (1, 1, 0.19),
]

RANDOMIZED_TABLE = np.array([[4, 1, 0], [1, 3, 0], [2, 3, 4], [4, 3, 0]])
DETERMINISTIC_TABLE = np.array([[4, 0, 1], [4, 0, 1], [4, 2, 1], [4, 0, 3]])
PER_TABLE = np.array([[4, 1, 0], [1, 0, 3], [2, 3, 1], [3, 4, 2]])
GROUP_ROW = [4, 0, 1]
FRIEND_PARTITION = [[0, 3], [1, 2]]
PREF_PARTITION = [[0, 1], [2, 3]]

EXPECTED_UNIT = {
    "oracle": 10.35,
    "avg_replay": 9.75,
    "avgd": 9.85,
    "per": 8.25,
    "group": 8.35,
    "sub_friend": 8.4,
    "sub_pref": 8.7,
}

# Shapes small enough for the exhaustive oracle: P(m, k)^n <= 2e7.
GUARDED_SHAPES = [
    (2, 6, 3), (3, 5, 3), (4, 5, 3), (4, 4, 2), (5, 4, 2),
    (6, 4, 2), (6, 3, 1), (5, 5, 2), (6, 4, 1), (4, 6, 2),
]


def make_example(lam: float = 0.5) -> cd.Instance:
    edges = tuple(
        cd.Edge(u, v, np.array(a, float), np.array(b, float))
        for u, v, a, b in EDGE_DATA
    )
    return cd.Instance(n=4, m=5, k=3, pref=PREF.copy(), edges=edges, lam=lam)


# (field, value) pairs that an instance file must not accept as an integer;
# `int()` would read each one as a valid size, cap or endpoint
INTEGER_FIELD_CASES = [
    ("n", 4.0), ("n", 4.7), ("n", "4"), ("k", True), ("M", 2.0), ("u", 0.7), ("v", "1"),
]


def instance_dict_with(field: str, value) -> dict:
    """The running example with a cap, as a JSON dict, with one integer field
    (n, m, k, the cap M, or the first edge's u or v) replaced by ``value``."""
    d = cd.core.instance_to_dict(make_example())
    d["st"] = {"d_tel": 0.5, "M": 2}
    owner = {"M": d["st"], "u": d["edges"][0], "v": d["edges"][0]}.get(field, d)
    owner[field] = value
    return d


def make_frac() -> cd.FractionalSolution:
    x = np.repeat((FRAC_SUPPORT / 3.0)[:, :, None], 3, axis=2)
    return cd.FractionalSolution(x=x)


def replay_sequence() -> list[cd.FocalParams]:
    return [cd.FocalParams(c, s, a) for c, s, a in REPLAY_SEQ]


def random_suite(count: int, edge_prob: float = 0.6, base_seed: int = 100):
    """Seeded random instances cycling over oracle-compatible shapes."""
    out = []
    for i in range(count):
        n, m, k = GUARDED_SHAPES[i % len(GUARDED_SHAPES)]
        out.append(cd.gen_random(n, m, k, edge_prob=edge_prob, seed=base_seed + i))
    return out


@pytest.fixture(scope="session")
def example():
    return make_example()


@pytest.fixture(scope="session")
def example_frac():
    return make_frac()


def assert_valid(inst, config):
    assert cd.validate(config, inst) == []
