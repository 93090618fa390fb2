"""Facet shellings of cones via line shellings of a cross-section.

A shelling of an n-cone is a linear order of its facets such that each facet
meets the union of its predecessors in a nonempty initial segment of some
shelling of its own facet poset (recursively, down to dimension one).  The
order is produced Bruggesser-Mani style: cut the cone by the hyperplane
where the sum of facet normals evaluates to one, then order the facets by
the signed parameter at which a generic line through an interior point
crosses their hyperplanes.  The point and the direction are integer vectors,
positive multiples of the barycentre of the cross-section's vertices and of
a projected moment vector.  The crossing parameters are integers too: all
scaled by one positive common denominator, so that their order, their ties
and their signs are exact.

Nothing here is canonical: only the shelling property itself is contractual.
shelling() returns only an order that its one certification accepted;
is_shelling() runs the same certification on an order given from outside.

A certification searches, for each facet in the order, a shelling of that
facet's own facets, depth first and recursively.  Whether a face's facets
have a shelling starting with a given set is a function of the face and the
set alone, so each certification keeps one outcome memo, (face index,
prefix) -> bool, shared by all its sub-searches and dropped when it
returns: shelling() and is_shelling() each certify afresh.  It also marks
the partial orders found dead.  Sets of faces and of rays are bitmasks
over their indices, as in the face lattice.  The facets of a candidate
already covered by a partial order are found by the diamond property,
from each facet's parents, not by testing them against every earlier
face.  One certification makes at most MAX_SEARCH_STEPS extensions of a
partial order and raises RuntimeError beyond that, so a search cannot
run without bound.

A simplex is answered without a search, and so without a step: its prefix
facets in index order, then the rest in index order.  That is what the
search returns.  Any two facets of a simplex meet in a ridge, so each
candidate after the first covers a facet of its own, which contains its
intersection with every earlier facet; its sub-search is on a simplex
again.  So no candidate fails, and the search takes the least allowed
facet at every step.  Every facet order of a simplex is a shelling, so
the certificate is still a proof.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .cones import Cone, Face, FaceLattice, mask_of
from .linalg import dot

# Extensions of a partial order allowed in one certification.  The largest
# count on the test corpora and the benchmark's inputs is 6,176 (the cone
# over the 6-cube); this leaves more than 100x headroom.
MAX_SEARCH_STEPS = 1_000_000

# Candidate line directions tried before shelling() gives up.
MAX_DIRECTIONS = 500


@dataclass(frozen=True)
class StepCertificate:
    """For one facet in the order: which of its own facets were already
    covered, and a full shelling of its facet poset starting with them."""

    facet: tuple[int, ...]
    prefix: tuple[tuple[int, ...], ...]
    extension: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Shelling:
    order: tuple[tuple[int, ...], ...]
    direction_index: int
    certificates: tuple[StepCertificate, ...]


def _candidate_direction(w: Sequence[int], t: int) -> tuple[int, ...] | None:
    """Deterministic integer direction inside the cross-section hyperplane
    <w, x> = 0: (t^0, ..., t^(n-1)) projected along w, scaled by <w, w>."""
    raw = tuple(t**k for k in range(len(w)))
    ww, wr = dot(w, w), dot(w, raw)
    d = tuple(ww * r - wr * wi for r, wi in zip(raw, w))
    return d if any(d) else None


def shelling(cone: Cone) -> Shelling:
    """A certified shelling order of the cone's facets.

    Degenerate directions (ties or parallel facets) are skipped by moving to
    the next deterministic candidate, at most MAX_DIRECTIONS of them; the
    index of the direction that worked is reported in the result.
    """
    if cone.rank < 1:
        raise ValueError("shelling needs a cone of dimension at least 1")
    fl = cone.face_lattice()
    n = cone.rank
    facet_ids = fl.by_dim[n - 1]
    if n == 1:
        order = tuple(fl.faces[i].rays for i in facet_ids)
        certs = _certify(fl, [fl.faces[i] for i in facet_ids])
        return Shelling(order, 0, tuple(certs))
    w = [sum(col) for col in zip(*cone.facet_normals)]
    # The barycentre of the cross-section's vertices r / <w, r>, times a
    # positive integer: every <w, r> > 0, and l is their lcm.
    heights = [dot(w, r) for r in cone.rays]
    l = math.lcm(*heights)
    p = [sum(l // s * r[i] for s, r in zip(heights, cone.rays)) for i in range(n)]
    normal_of = {fl.by_mask[mask_of(i for i, r in enumerate(cone.rays) if not dot(h, r))]: h for h in cone.facet_normals}
    normals = [normal_of[fid] for fid in facet_ids]
    hp = [dot(h, p) for h in normals]

    for t in range(1, MAX_DIRECTIONS + 1):
        d = _candidate_direction(w, t)
        if d is None:
            continue
        hd = [dot(h, d) for h in normals]
        if 0 in hd:
            continue
        # The line crosses facet h at -<h, p> / <h, d>; times den > 0, an
        # integer with the same order, ties and sign.
        den = math.lcm(*hd)
        params = [(fid, -a * (den // b)) for fid, a, b in zip(facet_ids, hp, hd)]
        values = [s for _, s in params]
        if len(set(values)) != len(values):
            continue
        positive = sorted((s, fid) for fid, s in params if s > 0)
        negative = sorted((s, fid) for fid, s in params if s < 0)
        ordered = [fl.faces[fid] for _, fid in positive] + [fl.faces[fid] for _, fid in negative]
        certs = _certify(fl, ordered)
        if certs is not None:
            order = tuple(f.rays for f in ordered)
            return Shelling(order, t, tuple(certs))
    raise RuntimeError("no admissible shelling direction found")


def is_shelling(cone: Cone, order: Sequence[Sequence[int]]) -> bool:
    """Check the recursive shelling condition for an order of the facets,
    given as sequences of ray indices."""
    fl = cone.face_lattice()
    n = cone.rank
    try:
        faces = [fl.face_by_rays(r) for r in order]
    except ValueError:
        return False
    if sorted(f.index for f in faces) != sorted(fl.by_dim[n - 1]):
        return False
    return _certify(fl, faces) is not None


def _certify(fl: FaceLattice, ordered: list[Face]) -> list[StepCertificate] | None:
    """Certificates that the facet order is a shelling, or None.

    The outcome memo of the sub-searches, (face index, prefix bitmask) ->
    bool, and the count of extension steps against MAX_SEARCH_STEPS both
    live for this one call, as does `up`, each face's parents as a bitmask.
    """
    memo: dict[tuple[int, ...], bool] = {}
    steps = itertools.count(1)
    up = [mask_of(ids) for ids in fl.parents]
    used_mask, earlier = 0, ()
    certs = []
    for face in ordered:
        prefix = _covered_facets(fl, up, face.index, used_mask)
        if earlier and not (prefix and _intersections_covered(fl, face.mask, earlier, prefix)):
            return None
        ext = _find_shelling(fl, up, face, mask_of(prefix), memo, steps)
        if ext is None:
            return None
        ext_faces = [fl.faces[i] for i in ext]
        prefix_sorted = tuple(f.rays for f in ext_faces[: len(prefix)])
        certs.append(StepCertificate(face.rays, prefix_sorted, tuple(f.rays for f in ext_faces)))
        used_mask, earlier = used_mask | 1 << face.index, earlier + (face.mask,)
    return certs


def _covered_facets(fl: FaceLattice, up: list[int], face_id: int, used_mask: int) -> list[int]:
    """The facets of the face lying in a face of used_mask, all siblings of
    the face: by the diamond property, those with such a parent."""
    return [k for k in fl.children[face_id] if up[k] & used_mask]


def _intersections_covered(fl: FaceLattice, face: int, earlier: tuple[int, ...], covered: list[int]) -> bool:
    """face intersect (union of earlier) must equal the union of the covered
    facets of face (ray masks, but covered holds face ids).  Containment of
    each pairwise intersection in a single covered facet suffices: a face
    cannot be covered by finitely many proper subfaces.  An earlier face
    through a covered facet meets face in just that facet, found first."""
    rays = [fl.faces[k].mask for k in covered]
    for e in earlier:
        common = face & e
        if common not in rays and not any(common & ~c == 0 for c in rays):
            return False
    return True


def _find_shelling(
    fl: FaceLattice, up: list[int], face: Face, prefix: int, memo: dict[tuple[int, ...], bool],
    steps: Iterator[int], used_mask: int = 0, earlier: tuple[int, ...] = (),
) -> tuple[int, ...] | None:
    """A shelling order of face's facet poset whose initial segment is
    exactly the prefix set, or None.  Returns facet indices.

    prefix is a bitmask over face ids, and up holds each face's parents as
    one.  Depth first: `used_mask` is the partial order so far as a set,
    which the result extends, and `earlier` its ray masks in order.  Whether
    an inner sub-search succeeds is looked up in, or stored to, memo, the
    outcome memo of the certification.  So is each partial order found dead,
    as (face index, prefix, used_mask) -> False, so that no order of a dead
    set is walked again.  Each extension draws one step from steps and
    raises RuntimeError once MAX_SEARCH_STEPS is exceeded.
    """
    facet_ids = fl.children[face.index]
    if face.dim <= 1:
        return tuple(facet_ids)
    if len(face.rays) == face.dim:  # a simplex, only ever entered with no partial order
        return tuple(sorted(facet_ids, key=lambda k: not prefix >> k & 1))
    if len(earlier) == len(facet_ids):
        return ()
    if (face.index, prefix, used_mask) in memo:
        return None
    if next(steps) > MAX_SEARCH_STEPS:
        raise RuntimeError(f"shelling search exceeded {MAX_SEARCH_STEPS} steps")
    allowed = prefix if len(earlier) < prefix.bit_count() else ~0
    for cand in facet_ids:
        bit = 1 << cand
        if used_mask & bit or not allowed & bit:
            continue
        g = fl.faces[cand]
        covered = _covered_facets(fl, up, cand, used_mask)
        if earlier and not (covered and _intersections_covered(fl, g.mask, earlier, covered)):
            continue
        if g.dim > 1:  # lower faces always shell
            key = (cand, mask_of(covered))
            if key not in memo:
                memo[key] = _find_shelling(fl, up, g, key[1], memo, steps) is not None
            if not memo[key]:
                continue
        rest = _find_shelling(fl, up, face, prefix, memo, steps, used_mask | bit, earlier + (g.mask,))
        if rest is not None:
            return (cand,) + rest
    memo[face.index, prefix, used_mask] = False
    return None
