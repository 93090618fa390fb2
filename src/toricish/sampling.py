"""Seeded random cones for verification suites and property tests.

Rays are sampled from a small coordinate box and degenerate samples (not
pointed, not full-dimensional) are discarded, so every returned cone
satisfies the Cone invariants.  Everything is deterministic given the
seed.
"""

from __future__ import annotations

import random
from typing import Callable

from .cones import Cone

COORD_BOUND = 3

# Random draws sample_cones makes before it gives up, and the highest
# dimension it samples in.
MAX_SAMPLE_TRIES = 10000
MAX_SAMPLE_DIM = 8


def random_cone(rng: random.Random, dim: int, n_rays: int) -> Cone | None:
    vectors = [tuple(rng.randint(-COORD_BOUND, COORD_BOUND) for _ in range(dim)) for _ in range(n_rays)]
    try:  # from_rays drops zero vectors and rejects too few or a line
        return Cone.from_rays(vectors, rank=dim)
    except ValueError:
        return None


def sample_cones(
    seed: int,
    dim: int,
    count: int,
    predicate: Callable[[Cone], bool] | None = None,
) -> list[Cone]:
    """Deterministic list of `count` distinct cones of the given dimension,
    at most MAX_SAMPLE_DIM, satisfying the predicate, from at most
    MAX_SAMPLE_TRIES draws."""
    if count < 0:
        raise ValueError("cone count must be non-negative")
    if dim > MAX_SAMPLE_DIM:
        raise ValueError(f"random cones are sampled in dimension at most {MAX_SAMPLE_DIM}, not {dim}")
    rng = random.Random(seed * 1_000_003 + dim)
    # At most dim + 5 rays, dim + 4 in dimension 5 and 8 from dimension 6
    # on (so none above MAX_SAMPLE_DIM), which keeps the complexes desk-scale.
    max_rays = 8 if dim >= 6 else dim + 4 if dim == 5 else dim + 5
    out: list[Cone] = []
    seen = set()
    for _ in range(MAX_SAMPLE_TRIES):
        if len(out) == count:
            break
        cone = random_cone(rng, dim, rng.randint(dim, max_rays))
        if cone is None or cone in seen:
            continue
        if predicate is not None and not predicate(cone):
            continue
        seen.add(cone)
        out.append(cone)
    if len(out) < count:
        raise RuntimeError(
            f"could only sample {len(out)} of {count} cones in dimension {dim}"
        )
    return out
