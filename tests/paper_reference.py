"""Paper identities, cone constructions and seeded corpora that only the tests use.

The package computes every invariant without these: the quotient cone by a
face (`quotient_cone`) is what FaceLattice.quotient_is_simplicial and
cones.cover_pairings read off the face lattice and perp(mu) instead; the
dual cone (`dual`) swaps the simple and simplicial classes; and the closed
forms here (`ext_dims_simplicial_class`, `hodge_deligne_from_table`,
`euler_h1_prediction`) are the paper's predictions that the tests compare
with the cohomology routes.  The samplers build the seeded corpora of the
conftest fixtures, and the vertex lists (`cube_vertices`, `cross_vertices`,
`simplex_product_vertices`) give the cones over the d-cube, the
d-cross-polytope and products of simplices, in the coordinates the
benchmark's inputs use.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from toricish.combinatorics import h_vector
from toricish.cones import Cone, Face, is_cone_over_simple, is_cone_over_simplicial, is_simplicial
from toricish.linalg import dot
from toricish.sampling import sample_cones


def dual(cone: Cone) -> Cone:
    """The dual cone, generated by the facet normals."""
    return Cone.from_rays(cone.facet_normals, cone.rank)


def quotient_cone(cone: Cone, face: Face) -> Cone:
    """Image of the cone in N / (N intersect <face>), rays re-primitivized.

    The projection pairs with the face's perp lattice basis, which is an
    exact coordinate system for the quotient lattice.
    """
    if face.dim == 0:
        return cone
    if face.dim == cone.rank:
        return Cone(0, (), ())
    images = []
    for r in cone.rays:
        w = tuple(dot(u, r) for u in face.perp_lattice)
        if any(w):
            images.append(w)
    return Cone.from_rays(images, rank=cone.rank - face.dim)


def ext_dims_simplicial_class(cone: Cone) -> dict:
    """Predicted graded Ext dimensions at the apex degree for a cone over a
    simplicial polytope: {(i, k): dim} for i > 0, where k indexes the
    reflexive differential.  Everything else vanishes; in particular for
    even rank the middle differential has maximal depth."""
    if not is_cone_over_simplicial(cone):
        raise ValueError("cone is not a cone over a simplicial polytope")
    n = cone.rank
    h = h_vector(cone.f_vector)
    out = {}
    for l in range(1, n):
        k = n - l
        if 2 * l <= n:
            j, val = l, h[l] - h[l - 1]
        else:
            j, val = l - 1, h[l - 1] - h[l]
        if j > 0 and val:
            out[(j, k)] = val
    return out


def hodge_deligne_from_table(table: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Coefficient of (uv)^p recovered from a Hodge-Du Bois table by the
    alternating column sums; used to cross-check the direct expansion."""
    n = len(table) - 1
    return tuple(
        sum((-1) ** (p + q) * table[p][q] for q in range(n + 1)) for p in range(n + 1)
    )


def euler_h1_prediction(f_cone: Sequence[int], n: int, j: int) -> int:
    """Predicted dimension of the first cohomology of the wedge-(n-j)
    complex of a cone over a simple polytope, 1 <= j < n/2, read off from
    the Euler characteristic when that is the only nonvanishing degree."""
    return -math.comb(n, j) + sum(
        (-1) ** (l - 1) * f_cone[l] * math.comb(n - l, j) for l in range(1, n - j + 1)
    )


def simplicial_class_samples(seed: int, dim: int, count: int) -> list[Cone]:
    """Cones over simplicial polytopes, non-simplicial ones preferred."""
    cones = sample_cones(seed, dim, count, predicate=is_cone_over_simplicial)
    cones.sort(key=lambda c: (is_simplicial(c), c.rays))
    return cones


def simple_class_samples(seed: int, dim: int, count: int) -> list[Cone]:
    """Cones over simple polytopes: duals of the simplicial class, as the
    order-reversing face bijection swaps the two classes."""
    out = []
    seen = set()
    for cone in simplicial_class_samples(seed, dim, count + 4):
        d = dual(cone)
        if d in seen:
            continue
        if not is_cone_over_simple(d):  # paranoid: duality swaps the classes
            continue
        seen.add(d)
        out.append(d)
        if len(out) == count:
            break
    if len(out) < count:
        raise RuntimeError(f"could not sample {count} simple-class cones in dim {dim}")
    return out


def mixed_corpus(seed: int, dims=(3, 4, 5), per_dim: int = 4, include_dim6: int = 2) -> list[Cone]:
    """General seeded corpus across dimensions, with a couple of small
    six-dimensional cones (sample_cones caps their rays at 8, which keeps
    the complexes desk-scale)."""
    out: list[Cone] = []
    for dim in dims:
        out.extend(sample_cones(seed, dim, per_dim))
    if include_dim6:
        out.extend(sample_cones(seed, 6, include_dim6))
    return out


def cube_vertices(d: int) -> list[tuple[int, ...]]:
    return list(itertools.product((-1, 1), repeat=d))


def cross_vertices(d: int) -> list[tuple[int, ...]]:
    return [tuple(s if j == i else 0 for j in range(d)) for i in range(d) for s in (1, -1)]


def simplex_product_vertices(dims: Sequence[int]) -> list[tuple[int, ...]]:
    """Vertices of the product of the standard simplices {0, e_1, ..., e_a}."""
    factors = [[tuple(int(j == i) for j in range(a)) for i in range(-1, a)] for a in dims]
    return [sum(parts, ()) for parts in itertools.product(*factors)]
