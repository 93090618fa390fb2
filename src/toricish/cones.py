"""Rational polyhedral cones and their face lattices.

A Cone is full-dimensional and strongly convex in a lattice of the stated
rank, presented by its primitive extreme ray generators and its ray-facet
incidence, kept from the double description: no dot product runs after it.
Its face lattice is read off that incidence alone, walked from whichever
side is smaller, with no linear algebra, and refused past MAX_FACES faces.
Each face computes, on first use, the free-coordinate frame of its
annihilator (Face.perp_frame), from one integer Gauss-Jordan pass over its
rays: the non-pivot columns free(F) and one integer kernel vector per free
column, so that restriction to free(F) identifies perp(F) with Q^free(F).
Spans grow along the face lattice, so the pivots do too: for mu < tau,
pivots(mu) is contained in pivots(tau), and free(tau) is free(mu) without
one column.  The contractions of the complexes are built on these frames
(ishida.contractions).  Every vector and computation here is in integers;
linalg._gauss_jordan, the one eliminator, gives the frames and the start
of the double description.  Linear symmetries are in symmetry.py.

The closed-form classes, cones over simplicial and over simple polytopes,
are defined once, per face (face_class); is_cone_over_* read the top face.

A set of rays or of faces is an int bitmask over their indices.  Neither a
face nor a face lattice refers back to its cone: a face shares its cone's
ray tuple and carries the lattice rank, all that its frame needs.

Cones and face lattices are immutable after construction, apart from the
memo dict each cone carries and what each face or lattice computes on first
use; construction itself is deterministic (faces are ordered by dimension,
then by their sorted ray index sets).  A face is never rebuilt as a cone of
its own: what depends on a face alone is read off the faces below it in the
cone's lattice, its down-set.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, Sequence

from .linalg import _gauss_jordan, dot, free_kernel, primitive_vector, scaled_inverse

NOT_FULL_DIMENSIONAL = "cone not full-dimensional; quotient out lineality/span first"
CONTAINS_A_LINE = "cone contains a line"
_SWAPPED = {NOT_FULL_DIMENSIONAL: CONTAINS_A_LINE, CONTAINS_A_LINE: NOT_FULL_DIMENSIONAL}


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


def dual_description(generators: Sequence[Sequence[int]], rank: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Extreme rays of {h : <h, g> >= 0 for every generator g}, sorted, each
    with the bitmask of the generators it vanishes on, counted without zero
    and repeated ones (equal after primitive_vector), first occurrence first.

    Incremental double description in integers, started from the simplicial
    cone dual to the first rank independent generators (the pivot columns of
    linalg._gauss_jordan), whose rays are the columns of scaled_inverse.  The
    other generators are inserted one at a time, in input order, while the
    extreme rays of the intersection so far are maintained.  Every new
    vector is a positive integer combination of two old ones, reduced by its
    gcd (primitive_vector), so no division is made and the entries stay small.

    Raises ValueError when a generator's length is not the rank,
    ValueError(NOT_FULL_DIMENSIONAL) when the generators do not span, and
    ValueError(CONTAINS_A_LINE) when the dual is degenerate, i.e. the
    generated cone is not strongly convex.
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
        raise ValueError(NOT_FULL_DIMENSIONAL)
    pivots = _gauss_jordan(list(zip(*gens)))
    if len(pivots) < rank:
        raise ValueError(NOT_FULL_DIMENSIONAL)
    base, rest = sorted(pivots), [j for j in range(len(gens)) if j not in pivots]
    # (ray, mask of the generators it vanishes on): seed ray i is positive on
    # base[i] and vanishes on the other base generators.
    base_mask = mask_of(base)
    rays = [
        (primitive_vector(col), base_mask & ~(1 << j))
        for j, col in zip(base, scaled_inverse([gens[j] for j in base]))
    ]
    # Every cone so far is pointed and full-dimensional, so adjacent rays
    # span a 2-face: they share rank - 2 zero generators at least.
    least_common = rank - 2

    for idx in rest:
        vals = [dot(r, gens[idx]) for r, _ in rays]
        if all(v >= 0 for v in vals):
            rays = [
                (r, zset | 1 << idx if vals[i] == 0 else zset)
                for i, (r, zset) in enumerate(rays)
            ]
            continue
        plus = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        minus = [i for i, v in enumerate(vals) if v < 0]
        kept = [rays[i] for i in plus]
        kept += [(rays[i][0], rays[i][1] | 1 << idx) for i in zero]
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

    # The generated cone holds a line iff its lineality space is nonzero.
    # That space is a face, so it is generated by the generators it contains,
    # and those are the generators on which every ray of the dual vanishes.
    if not rays or functools.reduce(int.__and__, (z for _, z in rays)):
        raise ValueError(CONTAINS_A_LINE)
    # With the combinatorial adjacency test every ray kept is extreme and no
    # ray is kept twice.
    return tuple(sorted(rays))


class Cone:
    """Strongly convex rational polyhedral cone, full-dimensional in Z^rank.

    Use Cone.from_rays / Cone.from_dual_rays; the constructor itself trusts
    its arguments.  `rays` are the primitive extreme generators, sorted, and
    `facet_normals` the primitive inequality normals of the minimal
    description, also sorted; `incidence[j]` is the bitmask of the rays on
    facet j, kept from the one double description, which from_dual_rays
    transposes.  `memo` holds the cone's memoised results (see `memoized`).
    """

    __slots__ = ("rank", "rays", "facet_normals", "incidence", "memo", "_lattice", "_hash")

    def __init__(self, rank: int, rays: tuple, facet_normals: tuple, incidence: tuple):
        self.rank = rank
        self.rays = rays
        self.facet_normals = facet_normals
        self.incidence = incidence
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
        facets = dual_description(prim, rank)
        normals, masks = zip(*facets) if facets else ((), ())
        # A generator is extreme iff the facets through it meet, among the
        # generators, in it alone.
        meet = [(1 << len(prim)) - 1] * len(prim)
        for z in masks:
            for i in ids_of(z):
                meet[i] &= z
        keep = [i for i, m in enumerate(meet) if m == 1 << i]
        if len(keep) < len(prim):  # renumber the masks over the extreme rays
            masks = tuple(mask_of(k for k, i in enumerate(keep) if z >> i & 1) for z in masks)
        return cls(rank, tuple(prim[i] for i in keep), normals, masks)

    @classmethod
    def from_dual_rays(cls, generators: Iterable[Sequence[int]], rank: int | None = None) -> "Cone":
        """Cone whose dual the vectors generate: from_rays of them transposed, its defects swapped."""
        try:
            dual = cls.from_rays(generators, rank)
        except ValueError as exc:
            if str(exc) in _SWAPPED:
                raise ValueError(_SWAPPED[str(exc)]) from None
            raise
        incidence = tuple(mask_of(j for j, z in enumerate(dual.incidence) if z >> i & 1) for i in range(len(dual.rays)))
        return cls(dual.rank, dual.facet_normals, dual.rays, incidence)

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


class Face:
    """A face of a cone, identified by the set of extreme rays lying on it.

    Equality and hashing cover index, dim and rays; mask is the ray set as a
    bitmask, cone_rays the cone's ray tuple, shared by all its faces, and
    rank the lattice rank.  perp_frame, computed on first use and kept, is
    free_kernel of the face's ray vectors: (free columns, kernel vectors),
    identifying perp(F) with Q^free(F) by restriction to the free columns.
    """

    __slots__ = ("index", "dim", "rays", "mask", "cone_rays", "rank", "_perp_frame")

    def __init__(self, index: int, dim: int, rays: tuple[int, ...], mask: int, cone_rays: tuple, rank: int):
        self.index, self.dim, self.rays, self.mask, self.cone_rays, self.rank = index, dim, rays, mask, cone_rays, rank

    def __eq__(self, other):
        return isinstance(other, Face) and (self.index, self.dim, self.rays) == (other.index, other.dim, other.rays)

    def __hash__(self):
        return hash((self.index, self.dim, self.rays))

    @property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.cone_rays[i] for i in self.rays)

    @property
    def perp_frame(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        try:
            return self._perp_frame
        except AttributeError:
            self._perp_frame = free_kernel(self.vectors, self.rank)
            return self._perp_frame


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

    def walk_down_sets(self) -> Iterator[tuple[int, int]]:
        """(face id, the ids of the faces strictly below it as a bitmask) in
        index order: the union of its children and their down-sets.  The
        children of a face, one dimension lower, come first, and a face's
        mask is dropped once its last parent has read it."""
        masks, parents = [0] * len(self.faces), self.parents
        for fid, ids in enumerate(self.children):
            down = 0
            for c in ids:
                down |= masks[c] | 1 << c
                if parents[c][-1] == fid:
                    masks[c] = 0
            masks[fid] = down
            yield fid, down

    def down_sets(self) -> tuple[int, ...]:
        """walk_down_sets' masks per face id, collected on first use."""
        if self._down_sets is None:
            self._down_sets = tuple(down for _, down in self.walk_down_sets())
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
    if len(cone.incidence) <= len(cone.rays):
        found = _maximal_intersections((1 << len(cone.rays)) - 1, cone.incidence)
        dims = {m: cone.rank - level for m, (level, _, _) in found.items()}
        covers = [(m, t) for m, (_, kept, _) in found.items() for t in kept]
    else:
        ray_masks = [mask_of(j for j, f in enumerate(cone.incidence) if f >> i & 1) for i in range(len(cone.rays))]
        found = _maximal_intersections((1 << len(cone.incidence)) - 1, ray_masks)
        dims = {held: level for level, _, held in found.values()}
        covers = [(found[t][2], held) for _, kept, held in found.values() for t in kept]

    order = sorted((d, tuple(ids_of(m)), m) for m, d in dims.items())
    faces = tuple(Face(i, d, rays, m, cone.rays, cone.rank) for i, (d, rays, m) in enumerate(order))
    index = {f.mask: f.index for f in faces}
    # faces come by dimension, and every dimension from 0 to the rank has one
    by_dim = tuple(tuple(f.index for f in same) for _, same in itertools.groupby(faces, key=lambda f: f.dim))
    children, parents = [[] for _ in faces], [[] for _ in faces]
    for hi, lo in covers:
        children[index[hi]].append(index[lo])
    for hi, ids in enumerate(children):
        ids.sort()
        for lo in ids:
            parents[lo].append(hi)
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
