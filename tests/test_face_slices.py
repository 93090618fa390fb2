"""The per-face invariants read off the cone's own face lattice and complexes,
against the face-intrinsic oracle (face_reference), which rebuilds every
face as a cone of its own: the core table, the graded class cohomology at
every degree, the class predicates and f-vector of each face, and its IC
multiplicity table."""

import math

from hypothesis import given, settings, strategies as st

from face_reference import (
    assert_same_complex,
    face_cone,
    intrinsic_class,
    intrinsic_multiplicities,
    intrinsic_rows,
    reindexed_class_complex,
)
from paper_reference import dual
from toricish import ishida
from toricish.cones import Cone, face_class
from toricish.decomposition import ic_multiplicities, multiplicities_from_cohomology
from toricish.ishida import class_complex, cohomology_dims, core_table, graded_class_cohomology, ishida_complex
from toricish.sampling import sample_cones

SMALL = [
    Cone(0, (), (), ()),
    Cone.from_rays([(1,)]),
    Cone.from_rays([(1, 0), (1, 3)]),
]


def _assembled(n, face_dim, rows, degree):
    """sum over j of C(n - dim F, j) times the intrinsic cohomology at
    degree l - j, padded to slots 0..l."""
    out = [0] * (degree + 1)
    for j in range(n - face_dim + 1):
        if 0 <= degree - j <= face_dim:
            for i, x in enumerate(rows[degree - j]):
                out[i] += math.comb(n - face_dim, j) * x
    return tuple(out)


def _table(m):
    return m.dim, m.entries, m.undetermined, m.method


def assert_slices_match_oracle(cone):
    n = cone.rank
    core = core_table(cone)
    for face in cone.face_lattice().faces:
        rows = intrinsic_rows(cone, face)
        assert core[face.index] == rows, (cone, face.rays)
        for l in range(n + 1):
            want = _assembled(n, face.dim, rows, l)
            assert graded_class_cohomology(cone, l, face) == want, (cone, face.rays, l)
            assert cohomology_dims(class_complex(cone, face, l)) == want, (cone, face.rays, l)
        f, over_simplicial, over_simple, simplicial = intrinsic_class(cone, face)
        assert face_class(cone, face) == (f, over_simplicial, over_simple), (cone, face.rays)
        assert (len(face.rays) == face.dim) == simplicial
        assert _table(ic_multiplicities(cone, face)) == _table(intrinsic_multiplicities(cone, face))
        if face.dim <= 6:
            got = multiplicities_from_cohomology(cone, face)
            assert _table(got) == _table(multiplicities_from_cohomology(face_cone(cone, face)))


def test_full_corpus(full_corpus):
    for cone in SMALL + full_corpus:
        assert_slices_match_oracle(cone)


@given(st.integers(3, 5), st.integers(0, 10_000))
@settings(max_examples=12, deadline=None)
def test_random_cones(dim, seed):
    (cone,) = sample_cones(seed, dim, 1)
    assert_slices_match_oracle(cone)
    assert_slices_match_oracle(dual(cone))


def test_class_complexes_are_slices(full_corpus):
    """class_complex, assembled over the faces of F alone, against the rows
    of ishida_complex that belong to them: the same rows, verbatim, with the
    same slot-wide column labels and scales, for every face of the corpus
    and every degree.  The top face's class complex is the whole complex."""
    for cone in full_corpus:
        for l in range(cone.rank + 1):
            full = ishida_complex(cone, l)
            for face in cone.face_lattice().faces:
                got = class_complex(cone, face, l)
                assert_same_complex(got, reindexed_class_complex(cone, face, full))
                if face.dim == cone.rank:
                    assert_same_complex(got, full)


def test_pyramid_faces_are_read_off_their_base(pyramid_tower_cone, monkeypatch):
    """On a fresh copy of the pyramid tower (a pyramid over a pyramid over
    the cube cone), core_table builds no class complex for a face with a
    facet holding all of its rays but one, and reads its rows off that
    facet's with a zero row on top: nothing is assembled above degree 4,
    the rank of the cube cone."""
    cone = Cone.from_rays(pyramid_tower_cone.rays, pyramid_tower_cone.rank)
    fl = cone.face_lattice()
    sliced, degrees = [], []
    real_class, real_assemble = ishida.class_complex, ishida._assemble

    def class_recording(c, face, degree):
        sliced.append(face)
        return real_class(c, face, degree)

    def assemble_recording(c, degree, term_faces):
        degrees.append(degree)
        return real_assemble(c, degree, term_faces)

    monkeypatch.setattr(ishida, "class_complex", class_recording)
    monkeypatch.setattr(ishida, "_assemble", assemble_recording)
    core = core_table(cone)
    assert sliced and max(degrees) == 4
    pyramids = 0
    for face in fl.faces:
        bases = [g for g in fl.children[face.index] if len(fl.faces[g].rays) == len(face.rays) - 1]
        if bases:
            pyramids += 1
            assert face not in sliced, face.rays
            assert core[face.index] == core[bases[0]] + ((0,) * (face.dim + 1),), face.rays
    assert pyramids > len(fl.faces) // 2 and fl.top not in sliced


def test_top_face_is_the_default(full_corpus):
    for cone in full_corpus:
        top = cone.face_lattice().top
        assert _table(ic_multiplicities(cone)) == _table(ic_multiplicities(cone, top))
