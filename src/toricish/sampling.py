"""Seeded random cones for verification suites and property tests.

Rays are sampled from a small coordinate box and degenerate samples (not
pointed, not full-dimensional) are discarded, so every returned cone
satisfies the Cone invariants.  Cones over simple polytopes are obtained by
dualizing cones over simplicial polytopes: the order-reversing face
bijection swaps the two classes.  Everything is deterministic given the
seed.
"""

from __future__ import annotations

import random
from typing import Callable

from .cones import Cone, is_cone_over_simple, is_cone_over_simplicial, is_simplicial

COORD_BOUND = 3

# Random draws sample_cones makes before it gives up.
MAX_SAMPLE_TRIES = 10000


def random_cone(rng: random.Random, dim: int, n_rays: int) -> Cone | None:
    vectors = []
    for _ in range(n_rays):
        v = tuple(rng.randint(-COORD_BOUND, COORD_BOUND) for _ in range(dim))
        if any(v):
            vectors.append(v)
    if len(vectors) < dim:
        return None
    try:
        return Cone.from_rays(vectors, rank=dim)
    except ValueError:
        return None


def sample_cones(
    seed: int,
    dim: int,
    count: int,
    predicate: Callable[[Cone], bool] | None = None,
    max_rays: int | None = None,
) -> list[Cone]:
    """Deterministic list of `count` distinct cones of the given dimension
    satisfying the predicate, from at most MAX_SAMPLE_TRIES draws."""
    if count < 0:
        raise ValueError("cone count must be non-negative")
    rng = random.Random(seed * 1_000_003 + dim)
    if max_rays is None:
        max_rays = dim + 4 if dim >= 5 else dim + 5
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


def simplicial_class_samples(seed: int, dim: int, count: int) -> list[Cone]:
    """Cones over simplicial polytopes, non-simplicial ones preferred."""
    cones = sample_cones(seed, dim, count, predicate=is_cone_over_simplicial)
    cones.sort(key=lambda c: (is_simplicial(c), c.rays))
    return cones


def simple_class_samples(seed: int, dim: int, count: int) -> list[Cone]:
    """Cones over simple polytopes: duals of the simplicial class."""
    out = []
    seen = set()
    for cone in simplicial_class_samples(seed, dim, count + 4):
        dual = cone.dual()
        if dual in seen:
            continue
        if not is_cone_over_simple(dual):  # paranoid: duality swaps the classes
            continue
        seen.add(dual)
        out.append(dual)
        if len(out) == count:
            break
    if len(out) < count:
        raise RuntimeError(f"could not sample {count} simple-class cones in dim {dim}")
    return out


def mixed_corpus(seed: int, dims=(3, 4, 5), per_dim: int = 4, include_dim6: int = 2) -> list[Cone]:
    """General seeded corpus across dimensions, with a couple of small
    six-dimensional cones (ray count capped to keep complexes desk-scale)."""
    out: list[Cone] = []
    for dim in dims:
        out.extend(sample_cones(seed, dim, per_dim))
    if include_dim6:
        out.extend(sample_cones(seed, 6, include_dim6, max_rays=8))
    return out
