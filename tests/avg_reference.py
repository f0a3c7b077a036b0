"""Per-draw randomized rounding: the reference ``codisplay.rounding.avg`` is
checked against.

``avg(inst, frac, rng_seed, sampler, cap, stats)`` draws one set of focal
parameters at a time through ``sample_focal``, which reads the cached
``xbar()`` and, for the uniform sampler, makes the three scalar calls
``integers(m)``, ``integers(k)`` and ``random()``.  A draw whose target
subgroup is empty is a miss; after 64 misses in a row the state is probed
for starvation.  The library draws uniform focal parameters a block at a
time and must give the same assignments and the same counters.
"""

from __future__ import annotations

from typing import Optional

from codisplay.core import Configuration, seeded_rng
from codisplay.rounding import RoundingState, _fallback_fill, csf_step, sample_focal


def avg(inst, frac, rng_seed: int = 0, sampler: str = "uniform", cap: Optional[int] = None,
        stats: Optional[dict] = None) -> Configuration:
    state = RoundingState(inst, frac, cap=cap)
    rng = seeded_rng(rng_seed)
    misses = samples = iterations = fallback_cells = 0
    while state.unfilled:
        focal = sample_focal(state, rng, sampler)
        if focal is None and sampler == "advanced":  # no positive factor left
            fallback_cells += _fallback_fill(state)
            continue
        samples += 1
        if focal is not None and csf_step(state, focal):
            iterations += 1
            misses = 0
            continue
        misses += 1
        if misses >= 64:  # probe for starvation before resampling further
            if state.xbar().sum() <= 0.0:
                fallback_cells += _fallback_fill(state)
            misses = 0
    if stats is not None:
        stats.update(fallback_cells=fallback_cells, samples=samples, iterations=iterations)
    return state.to_configuration()
