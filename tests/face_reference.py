"""The face-intrinsic route, used as the oracle of the per-face invariants.

Each face F of a cone is rebuilt as a full-dimensional cone in the saturated
lattice of its span (`face_cone`): the span lattice N intersect <F> is the
kernel of the perp lattice (lattice_reference.span_lattice), and the rays
of F are written in that basis (`lattice_coordinates`) before a double
description of their own.  The package never builds these cones: it reads the class predicates
and the f-vector of F off its down-set (cones.face_class), and the
intrinsic cohomology of F off its base facet when F is a pyramid, and
otherwise off the cone's own complexes over the faces of F
(ishida.core_table).
The functions here compute the same numbers from the face cones instead,
each face cone's intrinsic cohomology being that of its own complex
(degree_zero_cohomology).

reindexed_class_complex cuts the quotient complex over the faces of F out
of the cone's whole complex, and reindexed_link_complex the subcomplex over
the faces containing a face mu: the oracles for ishida.class_complex and
ishida.link_complex, which assemble them from the rows stored for those
faces alone.  Column labels are slot-wide and each face's rows carry one
scale of their own, so the slices equal the oracles exactly
(assert_same_complex): a class complex's rows are the whole complex's,
verbatim, and a link complex's are those rows without their entries in
other faces' columns.

lattice_coordinates solves for coordinates in a lattice basis by
back-substitution: the oracle for the dual functionals of
lattice_reference.coordinate_solver, which need none.
"""

from __future__ import annotations

import math
from typing import Sequence

from lattice_reference import _column_echelon, span_lattice
from toricish.cones import Cone, Face, is_simplicial
from toricish.decomposition import ic_multiplicities
from toricish.ishida import IshidaComplex, cohomology_dims, ishida_complex
from toricish.linalg import RatMatrix, dot


def lattice_coordinates(
    basis: Sequence[Sequence[int]], vectors: Sequence[Sequence[int]], ambient: int
) -> tuple[tuple[int, ...], ...]:
    """Integer coordinates of each vector in a lattice basis given as rows,
    by back-substitution: the oracle of lattice_reference.coordinate_solver's
    dual.

    One column-Hermite reduction basis . u == [h | 0], then per vector
    y = v . u, which needs y[p:] == 0, and x . h == y[:p] solved from the
    last coordinate up, each step an exact division.  Raises ValueError when
    the basis rows are dependent or a vector lies outside their span or
    outside the lattice they generate.
    """
    cols, p = _column_echelon(basis, ambient)
    if p != len(basis):
        raise ValueError("basis rows are linearly dependent")
    u = [c[p:] for c in cols]
    out = []
    for v in vectors:
        y = [sum(a * b for a, b in zip(v, c)) for c in u]
        if any(y[p:]):
            raise ValueError("vector outside the span of the basis")
        x = [0] * p
        for j in reversed(range(p)):
            x[j], rem = divmod(y[j] - sum(x[i] * cols[j][i] for i in range(j + 1, p)), cols[j][j])
            if rem:
                raise ValueError("vector not in the lattice generated by the basis")
        out.append(tuple(x))
    return tuple(out)


def face_cone(cone: Cone, face: Face) -> Cone:
    """The face viewed as a full-dimensional cone in its own saturated
    lattice, with a memo dict of its own."""
    if face.dim == cone.rank:
        return cone
    if face.dim == 0:
        return Cone(0, (), (), ())
    coords = lattice_coordinates(span_lattice(face), [cone.rays[i] for i in face.rays], cone.rank)
    return Cone.from_rays(coords, rank=face.dim)


def degree_zero_cohomology(cone: Cone, degree: int) -> tuple[int, ...]:
    """Cohomology of the cone's own complex at one wedge degree: the row
    of the top face in the core table."""
    return cohomology_dims(ishida_complex(cone, degree))


def intrinsic_rows(cone: Cone, face: Face) -> tuple[tuple[int, ...], ...]:
    """The face's row of the core table: the cohomology of the face cone's
    own complex at every degree m = 0..dim(face)."""
    inner = face_cone(cone, face)
    return tuple(degree_zero_cohomology(inner, m) for m in range(face.dim + 1))


def intrinsic_class(cone: Cone, face: Face) -> tuple:
    """(f-vector, over simplicial, over simple, simplicial) of the face cone,
    the classes read off its own rays and facet normals: its cross-section
    is a simplicial polytope when every facet holds rank - 1 rays, and a
    simple one when every ray lies on rank - 1 facets."""
    inner = face_cone(cone, face)
    on = [[dot(h, r) == 0 for r in inner.rays] for h in inner.facet_normals]
    over_simplicial = all(sum(row) == inner.rank - 1 for row in on)
    over_simple = all(sum(col) == inner.rank - 1 for col in zip(*on))
    return inner.f_vector, over_simplicial, over_simple, is_simplicial(inner)


def intrinsic_multiplicities(cone: Cone, face: Face):
    """The IC multiplicity table of the face cone as a whole."""
    return ic_multiplicities(face_cone(cone, face))


def reindexed_subcomplex(cone: Cone, full: IshidaComplex, keep, lo: int = 0, drop: bool = True) -> IshidaComplex:
    """The rows of full, the cone's complex at one degree, that belong to
    the faces `keep` holds (a predicate on faces), from slot lo on, with
    their slot-wide column labels and scales; with `drop`, without their
    entries in the columns of the other faces."""
    faces = cone.face_lattice().faces
    term_faces, kept, widths = [], [], []
    for d, ids in enumerate(full.term_faces):
        widths.append(math.comb(cone.rank - d, full.degree - d))
        term_faces.append(tuple(fid for fid in ids if keep(faces[fid])))
        kept.append([j for j, fid in enumerate(ids) if keep(faces[fid])])
    diffs, scales = [], []
    for s in range(lo, len(full.differentials)):
        cols = {j * widths[s] + a for j in kept[s] for a in range(widths[s])}
        rw, rows = widths[s + 1], full.differentials[s].rows
        kept_rows = [rows[j * rw + a] for j in kept[s + 1] for a in range(rw)]
        if drop:
            kept_rows = [tuple((c, x) for c, x in row if c in cols) for row in kept_rows]
        diffs.append(RatMatrix.from_sparse(tuple(kept_rows), len(cols)))
        scales.append(tuple(full.scales[s][j] for j in kept[s + 1]))
    term_dims = tuple(len(k) * w for k, w in zip(kept[lo:], widths[lo:]))
    return IshidaComplex(full.degree, tuple(term_faces[lo:]), term_dims, tuple(diffs), tuple(scales), full.starts[lo:])


def reindexed_class_complex(cone: Cone, face: Face, full: IshidaComplex) -> IshidaComplex:
    """The rows of full that belong to the faces of `face` (`face`
    included), chosen by ray set, verbatim."""
    return reindexed_subcomplex(cone, full, lambda g: set(g.rays) <= set(face.rays), drop=False)


def reindexed_link_complex(cone: Cone, mu: Face, full: IshidaComplex) -> IshidaComplex:
    """The rows of full that belong to the faces containing mu, chosen by
    ray set, from the slot of mu on, without their entries in other faces'
    columns."""
    return reindexed_subcomplex(cone, full, lambda g: set(mu.rays) <= set(g.rays), mu.dim)


def assert_same_complex(got: IshidaComplex, want: IshidaComplex) -> None:
    """The two complexes have the same faces, shapes, scales, label starts
    and rows, entry by entry and label by label."""
    assert (got.degree, got.term_faces, got.term_dims, got.scales, got.starts) == (
        want.degree,
        want.term_faces,
        want.term_dims,
        want.scales,
        want.starts,
    )
    assert [(d.nrows, d.ncols, d.rows) for d in got.differentials] == [
        (d.nrows, d.ncols, d.rows) for d in want.differentials
    ]
