"""The face-intrinsic route, used as the oracle of the per-face invariants.

Each face F of a cone is rebuilt as a full-dimensional cone in the saturated
lattice of its span (`face_cone`): the span lattice N intersect <F> is the
kernel of the perp lattice (`span_lattice`), and the rays of F are written
in that basis (`lattice_coordinates`) before a double description of their
own.  The package never builds these cones: it reads the class predicates
and the f-vector of F off its down-set, and the intrinsic cohomology of F
off the down-set slices of the cone's own complexes (ishida.core_table).
The functions here compute the same numbers from the face cones instead,
each face cone's intrinsic cohomology being that of its own complex
(degree_zero_cohomology).

reindexed_class_complex cuts the quotient complex over the faces of F out
of the cone's complex as a complex of its own, rows and columns re-indexed:
the oracle for ishida.class_complex, which keeps whole rows instead.
"""

from __future__ import annotations

import math
from typing import Sequence

from toricish.cones import (
    Cone,
    Face,
    is_cone_over_simple,
    is_cone_over_simplicial,
    is_simplicial,
)
from toricish.decomposition import ic_multiplicities
from toricish.ishida import IshidaComplex, cohomology_dims, ishida_complex
from toricish.linalg import RatMatrix, _solve_coordinates, coordinate_solver, integer_kernel_basis


def span_lattice(face: Face) -> tuple[tuple[int, ...], ...]:
    """A Z-basis of N intersected with the linear span of the face: the
    integer kernel of its perp lattice, so it is saturated."""
    return integer_kernel_basis(face.perp_lattice, face.rank)


def lattice_coordinates(
    basis: Sequence[Sequence[int]], vectors: Sequence[Sequence[int]], ambient: int
) -> tuple[tuple[int, ...], ...]:
    """Integer coordinates of each vector in a lattice basis given as rows.

    One column-Hermite reduction of the basis, then a triangular solve per
    vector.  Raises ValueError when the basis rows are dependent or a vector
    lies outside their span or outside the lattice they generate.
    """
    return _solve_coordinates(coordinate_solver(basis, ambient), vectors)


def face_cone(cone: Cone, face: Face) -> Cone:
    """The face viewed as a full-dimensional cone in its own saturated
    lattice, with a memo dict of its own."""
    if face.dim == cone.rank:
        return cone
    if face.dim == 0:
        return Cone(0, (), ())
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
    """(f-vector, over simplicial, over simple, simplicial) of the face cone."""
    inner = face_cone(cone, face)
    return inner.f_vector, is_cone_over_simplicial(inner), is_cone_over_simple(inner), is_simplicial(inner)


def intrinsic_multiplicities(cone: Cone, face: Face):
    """The IC multiplicity table of the face cone as a whole."""
    return ic_multiplicities(face_cone(cone, face))


def kept_indices(cone: Cone, face: Face, degree: int) -> list[list[int]]:
    """Per slot of ishida_complex(cone, degree), the indices of the terms
    that belong to the faces of `face` (`face` included), chosen by ray set."""
    full = ishida_complex(cone, degree)
    faces = cone.face_lattice().faces
    kept = []
    for d, ids in enumerate(full.term_faces):
        width = math.comb(cone.rank - d, degree - d)
        kept.append([
            j * width + a for j, fid in enumerate(ids) if set(faces[fid].rays) <= set(face.rays) for a in range(width)
        ])
    return kept


def reindexed_class_complex(cone: Cone, face: Face, degree: int) -> IshidaComplex:
    """The rows and columns of ishida_complex(cone, degree) that belong to
    the faces of `face`, re-indexed into a complex of their own."""
    full = ishida_complex(cone, degree)
    faces = cone.face_lattice().faces
    kept = kept_indices(cone, face, degree)
    term_faces = tuple(tuple(fid for fid in ids if set(faces[fid].rays) <= set(face.rays)) for ids in full.term_faces)
    diffs = []
    for s, d in enumerate(full.differentials):
        new_col = {c: i for i, c in enumerate(kept[s])}
        rows = tuple(tuple((new_col[c], x) for c, x in d.rows[r] if c in new_col) for r in kept[s + 1])
        diffs.append(RatMatrix.from_sparse(rows, len(kept[s])))
    return IshidaComplex(degree, term_faces, tuple(map(len, kept)), tuple(diffs))
