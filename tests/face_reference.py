"""The face-intrinsic route, used as the oracle of the per-face invariants.

Each face F of a cone is rebuilt as a full-dimensional cone in the saturated
lattice of its span (`face_cone`): the span lattice N intersect <F> is the
kernel of the perp lattice (`span_lattice`), and the rays of F are written
in that basis (`lattice_coordinates`) before a double description of their
own.  The package never builds these cones: it reads the class predicates
and the f-vector of F off its down-set (cones.face_class), and the
intrinsic cohomology of F off its base facet when F is a pyramid, and
otherwise off the cone's own complexes over the faces of F
(ishida.core_table).
The functions here compute the same numbers from the face cones instead,
each face cone's intrinsic cohomology being that of its own complex
(degree_zero_cohomology).

reindexed_class_complex cuts the quotient complex over the faces of F out
of the cone's whole complex, rows and columns re-indexed: the oracle for
ishida.class_complex, which assembles it from the blocks of those faces
alone.

lattice_coordinates solves for coordinates in a lattice basis by
back-substitution: the oracle for the dual functionals of
linalg.coordinate_solver and of each face's perp solver, which need none.
"""

from __future__ import annotations

import math
from typing import Sequence

from toricish.cones import Cone, Face, is_simplicial
from toricish.decomposition import ic_multiplicities
from toricish.ishida import IshidaComplex, cohomology_dims, ishida_complex
from toricish.linalg import RatMatrix, _column_echelon, dot, integer_kernel_basis


def span_lattice(face: Face) -> tuple[tuple[int, ...], ...]:
    """A Z-basis of N intersected with the linear span of the face: the
    integer kernel of its perp lattice, so it is saturated."""
    return integer_kernel_basis(face.perp_lattice, face.rank)[0]


def lattice_coordinates(
    basis: Sequence[Sequence[int]], vectors: Sequence[Sequence[int]], ambient: int
) -> tuple[tuple[int, ...], ...]:
    """Integer coordinates of each vector in a lattice basis given as rows,
    by back-substitution: the oracle of linalg.coordinate_solver's dual.

    One column-Hermite reduction basis . u == [h | 0], then per vector
    y = v . u, which needs y[p:] == 0, and x . h == y[:p] solved from the
    last coordinate up, each step an exact division.  Raises ValueError when
    the basis rows are dependent or a vector lies outside their span or
    outside the lattice they generate.
    """
    cols, _, p = _column_echelon(basis, ambient)
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


def kept_indices(cone: Cone, face: Face, full: IshidaComplex) -> list[list[int]]:
    """Per slot of full, the cone's complex at one degree, the indices of
    the terms that belong to the faces of `face` (`face` included), chosen
    by ray set."""
    faces = cone.face_lattice().faces
    kept = []
    for d, ids in enumerate(full.term_faces):
        width = math.comb(cone.rank - d, full.degree - d)
        kept.append([
            j * width + a for j, fid in enumerate(ids) if set(faces[fid].rays) <= set(face.rays) for a in range(width)
        ])
    return kept


def reindexed_class_complex(cone: Cone, face: Face, full: IshidaComplex) -> IshidaComplex:
    """The rows and columns of full, the cone's complex at one degree, that
    belong to the faces of `face`, re-indexed into a complex of their own."""
    faces = cone.face_lattice().faces
    kept = kept_indices(cone, face, full)
    term_faces = tuple(tuple(fid for fid in ids if set(faces[fid].rays) <= set(face.rays)) for ids in full.term_faces)
    diffs = []
    for s, d in enumerate(full.differentials):
        new_col = {c: i for i, c in enumerate(kept[s])}
        rows = tuple(tuple((new_col[c], x) for c, x in d.rows[r] if c in new_col) for r in kept[s + 1])
        diffs.append(RatMatrix.from_sparse(rows, len(kept[s])))
    return IshidaComplex(full.degree, term_faces, tuple(map(len, kept)), tuple(diffs))
