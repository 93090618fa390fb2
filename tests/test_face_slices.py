"""The per-face invariants read off the cone's own face lattice and complexes,
against the face-intrinsic oracle (face_reference), which rebuilds every
face as a cone of its own: the core table, the graded class cohomology at
every degree, the class predicates and f-vector of each face, and its IC
multiplicity table."""

import math

from hypothesis import given, settings, strategies as st

from face_reference import (
    face_cone,
    intrinsic_class,
    intrinsic_multiplicities,
    intrinsic_rows,
    kept_indices,
    reindexed_class_complex,
)
from paper_reference import dual
from toricish.cones import Cone
from toricish.decomposition import face_class, ic_multiplicities, multiplicities_from_cohomology
from toricish.ishida import class_complex, cohomology_dims, core_table, graded_class_cohomology, ishida_complex
from toricish.linalg import _certified_prime
from toricish.sampling import sample_cones

SMALL = [
    Cone(0, (), ()),
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


def test_class_slices_keep_whole_rows(full_corpus):
    """class_complex keeps the faces of F and, of each differential, their
    rows whole: every entry of a kept row lies in a kept face's columns, the
    cohomology is that of the re-indexed slice, and the prime of the full
    differential, which the slice takes, is no smaller than the slice's own."""
    for cone in full_corpus:
        for face in cone.face_lattice().faces:
            for l in range(cone.rank + 1):
                got, want = class_complex(cone, face, l), reindexed_class_complex(cone, face, l)
                assert (got.term_faces, got.term_dims) == (want.term_faces, want.term_dims), (cone, face.rays, l)
                assert cohomology_dims(got) == cohomology_dims(want), (cone, face.rays, l)
                kept = kept_indices(cone, face, l)
                for s, (d, whole) in enumerate(zip(got.differentials, ishida_complex(cone, l).differentials)):
                    assert (d.nrows, d.ncols) == (len(kept[s + 1]), whole.ncols)
                    assert d.rows == tuple(whole.rows[r] for r in kept[s + 1])
                    cols = set(kept[s])
                    assert all(c in cols for row in d.rows for c, _ in row), (cone, face.rays, l)
                    own = _certified_prime([dict(r) for r in d.rows if r])
                    assert own <= d.certified_prime() == whole.certified_prime()


def test_top_face_is_the_default(full_corpus):
    for cone in full_corpus:
        top = cone.face_lattice().top
        assert _table(ic_multiplicities(cone)) == _table(ic_multiplicities(cone, top))
