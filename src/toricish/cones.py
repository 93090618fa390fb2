"""Rational polyhedral cones and their face lattices.

A Cone is full-dimensional and strongly convex in a lattice of the stated
rank, presented by its primitive extreme ray generators.  Its face lattice
is read off the incidence of rays and facets alone, walked from whichever
side is smaller, with no linear algebra, and refused past MAX_FACES faces.
Each face computes, on first use, the free-coordinate frame of its
annihilator (Face.perp_frame), from one integer Gauss-Jordan pass over its
rays: the non-pivot columns free(F) and one integer kernel vector per free
column, so that restriction to free(F) identifies perp(F) with Q^free(F).
Spans grow along the face lattice, so the pivots do too: for mu < tau,
pivots(mu) is contained in pivots(tau), and free(tau) is free(mu) without
one column.  The contractions of the complexes are built on these frames
(ishida.contractions).  Every vector here is an integer vector and every
computation is in integers: the double description, the frames.  The
cone's linear symmetries are in symmetry.py.

The closed-form classes, cones over simplicial and over simple polytopes,
are defined once, per face (face_class); is_cone_over_* read the top face.

A set of rays or of faces is an int bitmask over their indices.  Neither a
face nor a face lattice refers back to its cone: a face carries its ray
vectors and the lattice rank, which is all its frame needs.

Cones and face lattices are immutable after construction, apart from the
memo dict each cone carries and what each face or lattice computes on first
use; construction itself is deterministic (faces are ordered by dimension,
then by their sorted ray index sets).  A face is never rebuilt as a cone of
its own: what depends on a face alone is read off the faces below it in the
cone's lattice, its down-set.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .linalg import dot, free_kernel, primitive_vector


def mask_of(ids: Iterable[int]) -> int:
    """The bitmask with the given distinct nonnegative bit positions."""
    return sum(1 << i for i in ids)


def ids_of(mask: int) -> list[int]:
    """The positions of the set bits of a bitmask, ascending."""
    ids = []
    while mask:
        ids.append((mask & -mask).bit_length() - 1)  # the lowest set bit
        mask &= mask - 1
    return ids


def dual_description(generators: Sequence[Sequence[int]], rank: int) -> tuple[tuple[int, ...], ...]:
    """Extreme rays of {h : <h, g> >= 0 for every generator g}.

    Incremental double description in integers: generators are inserted one
    at a time while the extreme rays of the intersection so far are
    maintained, with the ambient lineality space tracked separately until it
    is consumed.  Every new vector is a positive integer combination of two
    old ones, reduced by its gcd (primitive_vector), so no division is made
    and the entries stay small.

    Raises ValueError when a generator's length is not the rank,
    ValueError("cone not full-dimensional; quotient out lineality/span
    first") when the generators do not span, and ValueError("cone contains a
    line") when the dual is degenerate, i.e. the generated cone is not
    strongly convex.
    """
    if any(len(g) != rank for g in generators):
        raise ValueError(f"every vector must have length {rank}, the lattice rank")
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
    if len(gens) < rank:
        raise ValueError("cone not full-dimensional; quotient out lineality/span first")
    lineality = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    rays: list[tuple[tuple[int, ...], int]] = []  # (ray, mask of the generators it vanishes on)

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
                (primitive_vector([v0 * x - dot(r, g) * y for x, y in zip(r, l0)]), zset | 1 << idx)
                for r, zset in rays
            ]
            rays.append((l0, (1 << idx) - 1))
            continue
        vals = [dot(r, g) for r, _ in rays]
        if all(v >= 0 for v in vals):
            rays = [
                (r, zset | 1 << idx if vals[i] == 0 else zset)
                for i, (r, zset) in enumerate(rays)
            ]
            continue
        plus = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        minus = [i for i, v in enumerate(vals) if v < 0]
        kept = [(rays[i][0], rays[i][1]) for i in plus]
        kept += [(rays[i][0], rays[i][1] | 1 << idx) for i in zero]
        # Adjacent rays span a 2-face of the pointed part, of dimension rank -
        # len(lineality): they share that minus 2 zero generators at least.
        least_common = rank - len(lineality) - 2
        for ip in plus:
            rp, zp = rays[ip]
            vp = vals[ip]
            for im in minus:
                rm, zm = rays[im]
                vm = vals[im]
                common = zp & zm
                if common.bit_count() < least_common:
                    continue
                adjacent = not any(
                    k != ip and k != im and common & ~rays[k][1] == 0 for k in range(len(rays))
                )
                if not adjacent:
                    continue
                combo = primitive_vector([vp * x - vm * y for x, y in zip(rm, rp)])
                kept.append((combo, common | 1 << idx))
        rays = kept

    if lineality:
        raise ValueError("cone not full-dimensional; quotient out lineality/span first")

    # The generated cone holds a line iff its lineality space is nonzero.
    # That space is a face, so it is generated by the generators it contains,
    # and those are the generators on which every ray of the dual vanishes.
    if not rays or functools.reduce(int.__and__, (z for _, z in rays)):
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
        # checked here too, as zero vectors never reach dual_description
        if any(len(v) != rank for v in vectors):
            raise ValueError(f"every vector must have length {rank}, the lattice rank")
        prim = sorted({primitive_vector(v) for v in vectors if any(v)})
        if rank == 0:
            return cls(0, (), ())
        normals = dual_description(prim, rank)
        # A generator is extreme iff no other one vanishes on a strict
        # superset of its facet normals.
        zero_sets = [mask_of(j for j, h in enumerate(normals) if dot(h, r) == 0) for r in prim]
        extreme = tuple(r for r, z in zip(prim, zero_sets) if not any(z != o and z & ~o == 0 for o in zero_sets))
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

    Equality and hashing cover index, dim and rays; mask is the ray set as a
    bitmask, vectors the ray generators and rank the lattice rank.
    perp_frame is computed on first use and kept: linalg.free_kernel of the
    rays, (free columns, kernel vectors), which identifies perp(F) with
    Q^free(F) by restriction to the free columns.
    """

    index: int
    dim: int
    rays: tuple[int, ...]
    mask: int = field(compare=False, repr=False)
    vectors: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    rank: int = field(compare=False, repr=False)

    @functools.cached_property
    def perp_frame(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        return free_kernel(self.vectors, self.rank)


class FaceLattice:
    """Graded poset of the faces of a cone in a lattice of rank `rank`.
    children[i] lists the facets of face i and parents[i] the faces it is a
    facet of, both in index order; by_mask maps each face's ray mask to its
    id."""

    __slots__ = ("rank", "faces", "by_dim", "children", "parents", "by_mask", "_down_sets")

    def __init__(self, rank, faces, by_dim, children, parents, by_mask):
        self.rank = rank
        self.faces = faces
        self.by_dim = by_dim
        self.children = children
        self.parents = parents
        self.by_mask = by_mask
        self._down_sets = None

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
        ids = sorted(set(ray_indices))
        # range-checked first: 1 << i fails for i < 0 and is huge for large i
        if all(0 <= i < len(self.top.rays) for i in ids) and mask_of(ids) in self.by_mask:
            return self.faces[self.by_mask[mask_of(ids)]]
        raise ValueError(f"no face with ray set {ids}")

    def down_sets(self) -> tuple[int, ...]:
        """Per face id, the ids of the faces strictly below it as a bitmask:
        the union of its children and their down-sets, computed on first
        use.  Faces are walked in index order, so the children of a face,
        one dimension lower, come first."""
        if self._down_sets is None:
            out: list[int] = []
            for ids in self.children:
                out.append(functools.reduce(int.__or__, (out[c] | 1 << c for c in ids), 0))
            self._down_sets = tuple(out)
        return self._down_sets

    def quotient_is_simplicial(self, face: Face) -> bool:
        """Whether the quotient of the cone by `face` is simplicial: its rays
        are the images of the faces covering `face`, its rank is
        rank - dim(face)."""
        return len(self.parents[face.index]) == self.rank - face.dim


def _build_face_lattice(cone: Cone) -> FaceLattice:
    """The face lattice from the ray-facet incidence alone.

    A face is given by its ray set, or dually by the set of facets it lies
    in, and _maximal_intersections walks whichever side of the incidence is
    smaller: down from the top face over the facets' ray sets, giving each
    face its facets, or up from the apex over the rays' facet sets, giving
    each face the faces it is a facet of.  One level is one dimension.  On
    the ray side, the walk collects each facet set's rays, those lying on
    all its facets, as the sets that contain it.  Faces are indexed by
    (dim, sorted rays).
    """
    facet_masks = [mask_of(i for i, r in enumerate(cone.rays) if dot(h, r) == 0) for h in cone.facet_normals]
    if len(facet_masks) <= len(cone.rays):
        found = _maximal_intersections((1 << len(cone.rays)) - 1, facet_masks)
        dims = {m: cone.rank - level for m, (level, _, _) in found.items()}
        covers = [(m, t) for m, (_, kept, _) in found.items() for t in kept]
    else:
        ray_masks = [mask_of(j for j, f in enumerate(facet_masks) if f >> i & 1) for i in range(len(cone.rays))]
        found = _maximal_intersections((1 << len(facet_masks)) - 1, ray_masks)
        dims = {held: level for level, _, held in found.values()}
        covers = [(found[t][2], held) for _, kept, held in found.values() for t in kept]

    order = sorted((d, tuple(ids_of(m)), m) for m, d in dims.items())
    faces = tuple(
        Face(i, d, rays, m, tuple(cone.rays[j] for j in rays), cone.rank) for i, (d, rays, m) in enumerate(order)
    )
    index = {f.mask: f.index for f in faces}
    children, parents = [[] for _ in faces], [[] for _ in faces]
    for hi, lo in covers:
        children[index[hi]].append(index[lo])
    for hi, ids in enumerate(children):
        ids.sort()
        for lo in ids:
            parents[lo].append(hi)
    by_dim = tuple(tuple(f.index for f in faces if f.dim == d) for d in range(cone.rank + 1))
    return FaceLattice(cone.rank, faces, by_dim, children, parents, index)


# The most faces a face lattice may have: 45 times the largest that a test or
# benchmark input builds (730), enough for the cone over the 9-cube (19,684)
# and the rank-15 orthant, whose lattice `faces` walks in 0.5 s and 80 MB.
MAX_FACES = 2**15


def _maximal_intersections(start: int, sets: list[int]) -> dict[int, tuple[int, list[int], int]]:
    """Level by level from `start`: each mask T reached maps to its level,
    the maximal masks among T & S other than T, S running over `sets`,
    which make up the next level, and the indices of the sets that contain
    T, as a mask, collected in the same scan.  Candidates are tested largest
    first, so each is checked only against the maximal masks already kept.
    Raises ValueError once more than MAX_FACES masks, one level each, are
    reached."""
    found = {}
    level, depth = [start], 0
    while level:
        below, room = set(), MAX_FACES - len(found) - len(level)
        for t in level:
            held, cands = 0, set()
            for j, s in enumerate(sets):
                c = t & s
                if c == t:
                    held |= 1 << j
                else:
                    cands.add(c)
            kept = []
            for cand in sorted(cands, key=int.bit_count, reverse=True):
                for k in kept:
                    if cand & ~k == 0:
                        break
                else:
                    kept.append(cand)
            found[t] = (depth, kept, held)
            below.update(kept)
            if len(below) > room:
                raise ValueError(f"the face lattice has more than MAX_FACES = {MAX_FACES} faces")
        level, depth = below, depth + 1
    return found


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


def is_simplicial(cone: Cone) -> bool:
    return len(cone.rays) == cone.rank


def is_simple_in_dim(cone: Cone, c: int) -> bool:
    """True when the quotient by every c-dimensional face is simplicial."""
    if not 0 <= c <= cone.rank:
        raise ValueError("face dimension out of range")
    fl = cone.face_lattice()
    return all(fl.quotient_is_simplicial(fl.faces[i]) for i in fl.by_dim[c])


@memoized
def face_class(cone: Cone, face: Face) -> tuple[tuple[int, ...], bool, bool]:
    """(f-vector, cone over a simplicial polytope, cone over a simple
    polytope) of the face, read off the faces it contains.  It is in the
    first class when each proper face has as many rays as its dimension,
    and in the second when each ray lies on dim(face) - 1 of its 2-faces.
    The top face contains every face, so no down-set is built for it."""
    fl = cone.face_lattice()
    ids = range(len(fl.faces)) if face.dim == fl.rank else ids_of(fl.down_sets()[face.index] | 1 << face.index)
    inside = [fl.faces[i] for i in ids]
    dims = [g.dim for g in inside]
    f = tuple(map(dims.count, range(face.dim + 1)))
    over_simplicial = all(len(g.rays) == g.dim for g in inside if g.dim < face.dim)
    over_simple = all(
        sum(fl.faces[p].mask & ~face.mask == 0 for p in fl.parents[g.index]) == face.dim - 1 for g in inside if g.dim == 1
    )
    return f, over_simplicial, over_simple


def is_cone_over_simple(cone: Cone) -> bool:
    """Cross-section is a simple polytope (face_class of the top face)."""
    return face_class(cone, cone.face_lattice().top)[2]


def is_cone_over_simplicial(cone: Cone) -> bool:
    """Cross-section is a simplicial polytope (face_class of the top face)."""
    return face_class(cone, cone.face_lattice().top)[1]


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
