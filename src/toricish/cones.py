"""Rational polyhedral cones and their face lattices.

A Cone is full-dimensional and strongly convex in a lattice of the stated
rank, presented by its primitive extreme ray generators.  Its face lattice
is read off the incidence of rays and facets alone, with no linear algebra.
Each face computes, on first use, a saturated lattice basis of its
annihilator; the wedge blocks of the complexes and the pairings of that
basis with the lattice step between covering faces (cover_pairings, read
off a ray) are built on it, and nothing else reads it.  Every vector here
is an integer vector and every computation is in integers: the double
description, the lattice bases, the pairings.

Cones and face lattices are immutable after construction, apart from the
memo dict each cone carries and the bases each face computes on first use;
construction itself is deterministic (faces are ordered by dimension, then
by their sorted ray index sets).  A face is never rebuilt as a cone of its
own: what depends on a face alone is read off the faces below it in the
cone's lattice, its down-set (down_sets).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .linalg import dot, integer_kernel_basis, primitive_vector


def dual_description(generators: Sequence[Sequence[int]], rank: int) -> tuple[tuple[int, ...], ...]:
    """Extreme rays of {h : <h, g> >= 0 for every generator g}.

    Incremental double description in integers: generators are inserted one
    at a time while the extreme rays of the intersection so far are
    maintained, with the ambient lineality space tracked separately until it
    is consumed.  Every new vector is a positive integer combination of two
    old ones, reduced by its gcd (primitive_vector), so no division is made
    and the entries stay small.

    Raises ValueError("cone not full-dimensional; quotient out lineality/span
    first") when the generators do not span, and ValueError("cone contains a
    line") when the dual is degenerate, i.e. the generated cone is not
    strongly convex.
    """
    if rank == 0:
        return ()
    gens: list[tuple[int, ...]] = []
    seen = set()
    for g in generators:
        if not any(g):
            continue
        p = primitive_vector(g)
        if p not in seen:
            seen.add(p)
            gens.append(p)
    lineality = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    rays: list[tuple[tuple[int, ...], frozenset[int]]] = []

    for idx, g in enumerate(gens):
        lin_vals = [dot(l, g) for l in lineality]
        if any(lin_vals):
            # v0 > 0, so v0 * l - v * l0 is a positive multiple of
            # l - (v / v0) * l0: the same ray, with the same zero set.
            j0 = next(j for j, v in enumerate(lin_vals) if v)
            l0, v0 = lineality[j0], lin_vals[j0]
            if v0 < 0:
                l0, v0 = tuple(-x for x in l0), -v0
            lineality = [
                primitive_vector([v0 * x - v * y for x, y in zip(l, l0)])
                for j, (l, v) in enumerate(zip(lineality, lin_vals))
                if j != j0
            ]
            rays = [
                (primitive_vector([v0 * x - dot(r, g) * y for x, y in zip(r, l0)]), zset | {idx})
                for r, zset in rays
            ]
            rays.append((l0, frozenset(range(idx))))
            continue
        vals = [dot(r, g) for r, _ in rays]
        if all(v >= 0 for v in vals):
            rays = [
                (r, zset | {idx} if vals[i] == 0 else zset)
                for i, (r, zset) in enumerate(rays)
            ]
            continue
        plus = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        minus = [i for i, v in enumerate(vals) if v < 0]
        kept = [(rays[i][0], rays[i][1]) for i in plus]
        kept += [(rays[i][0], rays[i][1] | {idx}) for i in zero]
        for ip in plus:
            rp, zp = rays[ip]
            vp = vals[ip]
            for im in minus:
                rm, zm = rays[im]
                vm = vals[im]
                common = zp & zm
                adjacent = not any(
                    k != ip and k != im and common <= rays[k][1] for k in range(len(rays))
                )
                if not adjacent:
                    continue
                combo = primitive_vector([vp * x - vm * y for x, y in zip(rm, rp)])
                kept.append((combo, common | {idx}))
        rays = kept

    if lineality:
        raise ValueError("cone not full-dimensional; quotient out lineality/span first")

    # The generated cone holds a line iff its lineality space is nonzero.
    # That space is a face, so it is generated by the generators it contains,
    # and those are the generators on which every ray of the dual vanishes.
    if not rays or frozenset.intersection(*(z for _, z in rays)):
        raise ValueError("cone contains a line")
    # With the combinatorial adjacency test every ray kept is extreme and no
    # ray is kept twice.
    return tuple(sorted(r for r, _ in rays))


class Cone:
    """Strongly convex rational polyhedral cone, full-dimensional in Z^rank.

    Use Cone.from_rays / Cone.from_dual_rays; the constructor itself trusts
    its arguments.  `rays` are the primitive extreme generators, sorted, and
    `facet_normals` the primitive inequality normals of the minimal
    description, also sorted.  `memo` is the cone's own dict of memoised
    results (see `memoized`).
    """

    __slots__ = ("rank", "rays", "facet_normals", "memo", "_lattice", "_hash")

    def __init__(self, rank: int, rays: tuple, facet_normals: tuple):
        self.rank = rank
        self.rays = rays
        self.facet_normals = facet_normals
        self.memo = {}
        self._lattice = None
        self._hash = hash((rank, rays))

    @classmethod
    def from_rays(cls, vectors: Iterable[Sequence[int]], rank: int | None = None) -> "Cone":
        vectors = list(vectors)
        if rank is None:
            if not vectors:
                raise ValueError("cannot infer the lattice rank from an empty generator list")
            rank = len(vectors[0])
        prim = sorted({primitive_vector(v) for v in vectors if any(v)})
        if rank == 0:
            if prim:
                raise ValueError("a rank-0 lattice admits no rays")
            return cls(0, (), ())
        if not prim:
            raise ValueError("cone not full-dimensional; quotient out lineality/span first")
        normals = dual_description(prim, rank)
        # A generator is extreme iff no other one vanishes on a strict
        # superset of its facet normals.
        zero_sets = [frozenset(j for j, h in enumerate(normals) if dot(h, r) == 0) for r in prim]
        extreme = tuple(r for r, z in zip(prim, zero_sets) if not any(z < other for other in zero_sets))
        return cls(rank, extreme, normals)

    @classmethod
    def from_dual_rays(cls, generators: Iterable[Sequence[int]], rank: int | None = None) -> "Cone":
        """Cone whose dual is generated by the given vectors."""
        generators = list(generators)
        if rank is None:
            if not generators:
                raise ValueError("cannot infer the lattice rank from an empty generator list")
            rank = len(generators[0])
        rays = dual_description(generators, rank)
        return cls.from_rays(rays, rank)

    def face_lattice(self) -> "FaceLattice":
        if self._lattice is None:
            self._lattice = _build_face_lattice(self)
        return self._lattice

    @property
    def f_vector(self) -> tuple[int, ...]:
        return self.face_lattice().f_vector

    def __eq__(self, other):
        return isinstance(other, Cone) and self.rank == other.rank and self.rays == other.rays

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Cone(rank={self.rank}, rays={list(self.rays)})"


@dataclass(frozen=True)
class Face:
    """A face of a cone, identified by the set of extreme rays lying on it.

    Equality and hashing cover index, dim and rays.  The rest is computed on
    first use and kept: ray_set, and perp_lattice, a Z-basis of the
    annihilator M intersect face^perp.  The basis is saturated, so pairing
    with it is an exact coordinate system for the quotient lattice
    N / (N intersect <face>).
    """

    index: int
    dim: int
    rays: tuple[int, ...]
    cone: Cone = field(compare=False, repr=False)

    @functools.cached_property
    def ray_set(self) -> frozenset[int]:
        return frozenset(self.rays)

    @functools.cached_property
    def perp_lattice(self) -> tuple[tuple[int, ...], ...]:
        return integer_kernel_basis([self.cone.rays[i] for i in self.rays], self.cone.rank)


class FaceLattice:
    """Graded poset of the faces of a cone.  children[i] lists the facets of
    face i and parents[i] the faces it is a facet of, both in index order."""

    __slots__ = ("cone", "faces", "by_dim", "children", "parents", "_by_rayset")

    def __init__(self, cone, faces, by_dim, children, parents, by_rayset):
        self.cone = cone
        self.faces = faces
        self.by_dim = by_dim
        self.children = children
        self.parents = parents
        self._by_rayset = by_rayset

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(ids) for ids in self.by_dim)

    @property
    def apex(self) -> Face:
        return self.faces[self.by_dim[0][0]]

    @property
    def top(self) -> Face:
        return self.faces[self.by_dim[-1][0]]

    def face_by_rays(self, ray_indices: Iterable[int]) -> Face:
        key = frozenset(ray_indices)
        try:
            return self.faces[self._by_rayset[key]]
        except KeyError:
            raise ValueError(f"no face with ray set {sorted(key)}") from None

    def facets_of(self, face: Face) -> list[Face]:
        return [self.faces[i] for i in self.children[face.index]]

    def quotient_is_simplicial(self, face: Face) -> bool:
        """Whether the quotient of the cone by `face` is simplicial: its rays
        are the images of the faces covering `face`, its rank is
        rank - dim(face)."""
        return len(self.parents[face.index]) == self.cone.rank - face.dim


def _build_face_lattice(cone: Cone) -> FaceLattice:
    """The face lattice from the ray-facet incidence alone, top face first.

    The facets of a face F are the maximal sets among F & S other than F,
    with S running over the facet ray sets.  Candidates are tested largest
    first, so each is checked only against the maximal sets already kept.
    One level down from a face is one dimension down, so the level gives
    the dimension and the facets found are the children.  Faces are then
    indexed by (dim, sorted rays).
    """
    facet_sets = [
        frozenset(i for i, r in enumerate(cone.rays) if dot(h, r) == 0)
        for h in cone.facet_normals
    ]
    found = {}  # ray set -> (dim, ray sets of its facets)
    level, dim = [frozenset(range(len(cone.rays)))], cone.rank
    while level:
        below = set()
        for face in level:
            kept = []
            for cand in sorted({face & s for s in facet_sets} - {face}, key=len, reverse=True):
                if not any(cand < k for k in kept):
                    kept.append(cand)
            found[face] = (dim, kept)
            below.update(kept)
        level, dim = below, dim - 1

    order = sorted((d, tuple(sorted(s)), s) for s, (d, _) in found.items())
    faces = tuple(Face(i, d, rays, cone) for i, (d, rays, _) in enumerate(order))
    # Keyed by the faces' own ray sets, so that the lattice holds one per face.
    index = {f.ray_set: f.index for f in faces}
    children = [sorted(index[t] for t in found[s][1]) for _, _, s in order]
    parents = [[] for _ in faces]
    for hi, ids in enumerate(children):
        for lo in ids:
            parents[lo].append(hi)
    by_dim = tuple(tuple(f.index for f in faces if f.dim == d) for d in range(cone.rank + 1))
    return FaceLattice(cone, faces, by_dim, children, parents, index)


def memoized(fn):
    """Memoise fn(cone, *args) in cone.memo under (fn's name, *args); args
    must be hashable."""

    @functools.wraps(fn)
    def wrapper(cone: Cone, *args):
        key = (fn.__name__, *args)
        try:
            return cone.memo[key]
        except KeyError:
            value = cone.memo[key] = fn(cone, *args)
            return value

    return wrapper


@memoized
def down_sets(cone: Cone) -> tuple[frozenset[int], ...]:
    """Per face id, the ids of the faces strictly below it: the union of its
    children and their down-sets.  Faces are walked in index order, so the
    children of a face, one dimension lower, come first."""
    fl = cone.face_lattice()
    out: list[frozenset[int]] = []
    for ids in fl.children:
        below = set(ids)
        for child in ids:
            below |= out[child]
        out.append(frozenset(below))
    return tuple(out)


def is_simplicial(cone: Cone) -> bool:
    return len(cone.rays) == cone.rank


def is_simple_in_dim(cone: Cone, c: int) -> bool:
    """True when the quotient by every c-dimensional face is simplicial."""
    if not 0 <= c <= cone.rank:
        raise ValueError("face dimension out of range")
    fl = cone.face_lattice()
    return all(fl.quotient_is_simplicial(fl.faces[i]) for i in fl.by_dim[c])


def is_cone_over_simple(cone: Cone) -> bool:
    """Cross-section is a simple polytope: simple in dimension 1."""
    if cone.rank == 0:
        return True
    return is_simple_in_dim(cone, 1)


def is_cone_over_simplicial(cone: Cone) -> bool:
    """Cross-section is a simplicial polytope: every proper face simplicial."""
    return all(len(f.rays) == f.dim for f in cone.face_lattice().faces if f.dim < cone.rank)


def cover_pairings(mu: Face, tau: Face) -> tuple[int, ...]:
    """Values <v, step> over the basis v of perp(mu) for the lattice step of
    the cover pair mu < tau: an integer vector in the span of tau whose class
    generates the image ray of tau in N / (N intersect <mu>), oriented to
    pair nonnegatively with the dual face of mu.

    They are read off any ray r of tau outside mu.  The pairing with perp(mu)
    is an exact coordinate system for that quotient, as perp(mu) is
    saturated, so the values <v, r> are g times those of the generator, with
    g their gcd and the same sign.
    """
    if tau.dim != mu.dim + 1 or not mu.ray_set <= tau.ray_set:
        raise ValueError("faces do not form a cover pair")
    ray = mu.cone.rays[next(i for i in tau.rays if i not in mu.ray_set)]
    return primitive_vector([dot(v, ray) for v in mu.perp_lattice])


def cone_over_polytope(vertices: Sequence[Sequence[int]]) -> Cone:
    """Cone over the polytope placed at height one.

    Its face lattice minus apex and top face is isomorphic to the face
    lattice of the polytope, so f_l(P) = f_{l+1}(cone).
    """
    vertices = [tuple(v) for v in vertices]
    if not vertices:
        raise ValueError("empty vertex list")
    n = len(vertices[0])
    if any(len(v) != n for v in vertices):
        raise ValueError("vertices of mixed dimension")
    gens = [v + (1,) for v in vertices]
    try:
        return Cone.from_rays(gens, rank=n + 1)
    except ValueError as exc:
        raise ValueError("polytope vertices do not affinely span the ambient space") from exc
