import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ambient_reference import dense, dense_matrix
from face_reference import assert_same_complex, degree_zero_cohomology, face_cone, reindexed_link_complex
from lattice_reference import lattice_complex, normal_step_vector, span_lattice
from paper_reference import dual, quotient_cone
from toricish import ishida
from toricish.cones import Cone, Face, is_simplicial
from toricish.ishida import (
    IshidaComplex,
    class_complex,
    cohomology_dims,
    contractions,
    ext_table,
    graded_class_cohomology,
    ishida_complex,
    lcdef,
    link_complex,
    link_complex_cohomology,
    verify_codim_vanishing,
    verify_d_squared,
    verify_dualizing_exactness,
    verify_link_exactness,
    verify_surjectivity,
)
from toricish.linalg import Contraction, RatMatrix, dot, interior_product_matrix
from toricish.sampling import sample_cones


class TestBuild:
    def test_degree_zero_is_a_point(self, quadric_cone):
        cx = ishida_complex(quadric_cone, 0)
        assert cx.term_dims == (1,)
        assert cohomology_dims(cx) == (1,)

    def test_orthant_top_degree(self, orthant):
        cx = ishida_complex(orthant, 3)
        assert cx.term_dims == (1, 3, 3, 1)
        assert cohomology_dims(cx) == (0, 0, 0, 0)

    def test_quadric_top_degree(self, quadric_cone):
        cx = ishida_complex(quadric_cone, 3)
        # one block per face, dimension C(n - i, l - i) each
        assert cx.term_dims == (1, 4, 4, 1)
        assert cohomology_dims(cx) == (0, 0, 0, 0)

    def test_term_dimension_formula(self, full_corpus):
        for cone in full_corpus:
            n = cone.rank
            fl = cone.face_lattice()
            for l in range(n + 1):
                cx = ishida_complex(cone, l)
                for i, dim in enumerate(cx.term_dims):
                    expected = len(fl.by_dim[i]) * math.comb(n - i, l - i)
                    assert dim == expected

    def test_degree_out_of_range(self, orthant):
        with pytest.raises(ValueError):
            ishida_complex(orthant, 4)
        with pytest.raises(ValueError):
            ishida_complex(orthant, -1)


def _contraction(cone, mid, tid):
    """The memoised contraction of the cover pair of face ids mid < tid."""
    return contractions(cone, tid)[cone.face_lattice().children[tid].index(mid)]


def test_memo_holds_one_contraction_per_cover_pair(named_corpus):
    """After ext_table, a fresh cone's memo holds, per face with facets that
    some class complex reaches, one Contraction per cover pair into it, in
    the order of its children, keeping only its pairings, q0 and
    denominator; per such face and degree, its stored rows (_face_rows);
    and otherwise only the core and Ext tables, keyed (name,).  No complex
    is kept, and a face keeps nothing but its frame."""
    for cone in named_corpus:
        cone = Cone.from_rays(cone.rays, cone.rank)
        ext_table(cone)
        fl = cone.face_lattice()
        targets = {key for key in cone.memo if key[0] == "contractions"}
        stored = {key for key in cone.memo if key[0] == "_face_rows"}
        assert set(cone.memo) - targets - stored == {("core_table",), ("ext_table",)}
        assert {tid for _, tid in targets} <= {tid for tid, ids in enumerate(fl.children) if ids}
        assert {tid for _, tid, _ in stored} <= {tid for _, tid in targets}
        for _, tid in targets:
            got = cone.memo[("contractions", tid)]
            assert len(got) == len(fl.children[tid]) and all(isinstance(c, Contraction) for c in got)
            assert all(set(c.__slots__) == {"pairings", "q0", "denominator"} for c in got)
        for _, tid, l in stored:
            scale, pairs = cone.memo[("_face_rows", tid, l)]
            cs = cone.memo[("contractions", tid)]
            assert scale == math.lcm(*(c.denominator for c in cs))
            assert [mid for mid, _ in pairs] == fl.children[tid]
            for (mid, rows), c in zip(pairs, cs):
                d = fl.faces[mid].dim
                offset = fl.by_dim[d].index(mid) * math.comb(cone.rank - d, l - d)
                assert rows == interior_product_matrix(c, l - d, offset, scale // c.denominator).rows
        assert set(Face.__slots__) == {"index", "dim", "rays", "mask", "cone_rays", "rank", "_perp_frame"}
        assert not any(hasattr(face, "__dict__") for face in fl.faces)


class TestDSquared:
    def test_full_corpus(self, full_corpus):
        for cone in full_corpus:
            assert verify_d_squared(cone)["ok"]

    def test_diamond_anticommutation(self, octahedron_cone):
        # between a face and a face two dimensions up there are exactly two
        # intermediate faces, and the two composite contractions, each block
        # divided by its denominator, cancel
        cone = octahedron_cone
        fl = cone.face_lattice()
        n = cone.rank
        l = n - 1
        mu = fl.faces[fl.by_dim[1][0]]
        for nu_id in fl.by_dim[3]:
            nu = fl.faces[nu_id]
            if not set(mu.rays) <= set(nu.rays):
                continue
            middles = [fl.faces[i] for i in fl.by_dim[2] if set(mu.rays) <= set(fl.faces[i].rays) <= set(nu.rays)]
            assert len(middles) == 2
            total = None
            for lam in middles:
                first, second = _contraction(cone, mu.index, lam.index), _contraction(cone, lam.index, nu.index)
                comp = dense(interior_product_matrix(second, l - lam.dim, 0, 1).matmul(interior_product_matrix(first, l - mu.dim, 0, 1)))
                comp = [[Fraction(x, first.denominator * second.denominator) for x in row] for row in comp]
                if total is None:
                    total = comp
                else:
                    total = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(total, comp)]
            assert not any(any(row) for row in total)

    def test_faces_with_different_scales(self, full_corpus):
        """Full-complex slots whose faces carry different scales L_tau: their
        rows composed as stored are not zero, and d^2 holds there through
        the factor L / L_tau that d_squared_is_zero puts on each face's
        rows."""
        mixed = uncorrected = 0
        for cone in full_corpus:
            slots = []
            for l in range(cone.rank + 1):
                cx = ishida_complex(cone, l)
                slots += [(cx, s) for s, scales in enumerate(cx.scales[:-1]) if len(set(scales)) > 1]
            for cx, s in slots:
                uncorrected += not cx.differentials[s + 1].matmul(cx.differentials[s]).is_zero()
            if slots:
                assert verify_d_squared(cone)["ok"], cone
            mixed += len(slots)
        assert mixed and uncorrected

    def test_corrupted_differential_fails(self, quadric_cone):
        # negative control: flipping one entry of a differential must break
        # the complex property
        cx = ishida_complex(quadric_cone, 3)
        rows = [list(r) for r in dense(cx.differentials[0])]
        rows[0][0] += 1
        bad = IshidaComplex(
            cx.degree,
            cx.term_faces,
            cx.term_dims,
            (dense_matrix(rows), *cx.differentials[1:]),
            cx.scales,
            cx.starts,
        )
        assert cx.d_squared_is_zero() and not bad.d_squared_is_zero()


def assert_euler_identity(cone):
    """Every complex of the cone, link complexes included, has consistent
    shapes, no negative cohomology, and sum (-1)^s term_dims[s] equal to
    sum (-1)^s h^s."""
    fl = cone.face_lattice()
    complexes = [ishida_complex(cone, l) for l in range(cone.rank + 1)]
    complexes += [link_complex(cone, mu, l) for mu in fl.faces for l in range(mu.dim, cone.rank + 1)]
    for cx in complexes:
        assert len(cx.term_dims) == len(cx.term_faces) == len(cx.differentials) + 1
        for s, d in enumerate(cx.differentials):
            assert (d.nrows, d.ncols) == (cx.term_dims[s + 1], cx.term_dims[s])
        h = cohomology_dims(cx)
        assert min(h) >= 0
        chi_terms = sum((-1) ** i * d for i, d in enumerate(cx.term_dims))
        chi_cohom = sum((-1) ** i * d for i, d in enumerate(h))
        assert chi_terms == chi_cohom


@given(st.integers(3, 5), st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_euler_identity_on_random_cones(dim, seed):
    (cone,) = sample_cones(seed, dim, 1)
    assert_euler_identity(cone)
    assert_euler_identity(dual(cone))


def test_link_complexes_are_slices(full_corpus):
    """link_complex, assembled over the faces containing mu alone, against
    the rows of ishida_complex that belong to them without their entries in
    other faces' columns: equal label by label and entry by entry, with the
    same scales, for every face of the corpus and every degree from dim(mu)
    up."""
    for cone in full_corpus:
        fl = cone.face_lattice()
        for l in range(cone.rank + 1):
            full = ishida_complex(cone, l)
            for mu in fl.faces:
                if mu.dim <= l:
                    assert_same_complex(link_complex(cone, mu, l), reindexed_link_complex(cone, mu, full))


def _complexes(cone):
    """Every full, class and link complex of the cone, at every degree."""
    fl = cone.face_lattice()
    for l in range(cone.rank + 1):
        yield ishida_complex(cone, l)
        for face in fl.faces:
            yield class_complex(cone, face, l)
            if face.dim <= l:
                yield link_complex(cone, face, l)


def _assert_one_scale_per_face(cone):
    """Each differential of every complex holds, in the rows of each face
    tau of the slot above, its scale L_tau, the lcm of the denominators of
    all of tau's cover pairs, times the block of each kept pair mu < tau
    divided by its denominator, at mu's slot-wide columns pos(mu) C on
    (pos(mu) the place of mu in its by_dim, C the block's width), and
    nothing else.  Every pair is kept in a full or class complex, and those
    with mu in the slot below in a link complex."""
    fl = cone.face_lattice()
    n = cone.rank
    for cx in _complexes(cone):
        l, lo = cx.degree, fl.faces[cx.term_faces[0][0]].dim
        for s, d in enumerate(cx.differentials):
            k, slot = l - lo - s, fl.by_dim[lo + s]
            cw, rw = math.comb(n - lo - s, k), math.comb(n - lo - s - 1, k - 1)
            assert (d.nrows, d.ncols) == (len(cx.term_faces[s + 1]) * rw, len(cx.term_faces[s]) * cw)
            want = [[0] * (len(slot) * cw) for _ in range(d.nrows)]
            for i, tid in enumerate(cx.term_faces[s + 1]):
                cs = contractions(cone, tid)
                scale = math.lcm(*(c.denominator for c in cs))
                assert cx.scales[s][i] == scale, (cone, cx.term_faces, s)
                for mid, c in zip(fl.children[tid], cs):
                    if mid in cx.term_faces[s]:
                        j = slot.index(mid)
                        # scale * Fraction(x, c.denominator), an integer as
                        # the scale is the lcm of the denominators
                        for a, row in enumerate(dense(interior_product_matrix(c, k, 0, 1))):
                            want[i * rw + a][j * cw:(j + 1) * cw] = [scale // c.denominator * x for x in row]
            assert dense(d, len(slot) * cw) == tuple(map(tuple, want)), (cone, cx.term_faces, s)


def test_each_face_block_is_its_scale_times_the_normalised_blocks(full_corpus):
    for cone in full_corpus:
        _assert_one_scale_per_face(cone)


def test_d_squared_is_zero_on_every_complex(full_corpus):
    """d_squared_is_zero holds on every full, class and link complex, whose
    column labels are slot-wide, and fails once one entry of a differential
    past d^0 flips its sign: each row of the differential before it is
    nonzero, so the composite gains a nonzero row."""
    for cone in full_corpus:
        for cx in _complexes(cone):
            assert cx.d_squared_is_zero(), (cone, cx.term_faces)
            s = max((s for s, d in enumerate(cx.differentials) if s and d.rows), default=None)
            if s is not None:
                d = cx.differentials[s]
                (j, x), *rest = d.rows[0]
                flipped = RatMatrix.from_sparse((((j, -x), *rest), *d.rows[1:]), d.ncols)
                bad = dataclasses.replace(cx, differentials=(*cx.differentials[:s], flipped, *cx.differentials[s + 1:]))
                assert not bad.d_squared_is_zero(), (cone, cx.term_faces)


def _assert_same_cohomology_as_the_lattice_route(cone):
    """Every full, class and link complex has the cohomology of the complex
    over the same faces with the lattice blocks (lattice_reference)."""
    for cx in _complexes(cone):
        assert cohomology_dims(cx) == cohomology_dims(lattice_complex(cone, cx.degree, cx.term_faces)), (cone, cx.term_faces)


def test_cohomology_matches_the_lattice_route(full_corpus):
    for cone in full_corpus:
        _assert_same_cohomology_as_the_lattice_route(cone)


@given(st.integers(3, 5), st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_cohomology_matches_the_lattice_route_on_random_cones(dim, seed):
    (cone,) = sample_cones(seed, dim, 1)
    for c in (cone, dual(cone)):
        _assert_same_cohomology_as_the_lattice_route(c)
        _assert_one_scale_per_face(c)


class TestCohomology:
    def test_orthant_vanishes(self, orthant):
        for l in (1, 2, 3):
            assert degree_zero_cohomology(orthant, l) == (0,) * (l + 1)

    def test_octahedron_cone(self, octahedron_cone):
        assert degree_zero_cohomology(octahedron_cone, 3) == (0, 0, 2, 0)

    def test_cube_cone(self, cube_cone):
        assert degree_zero_cohomology(cube_cone, 3) == (0, 2, 0, 0)

    def test_euler_characteristic(self, full_corpus):
        for cone in full_corpus:
            assert_euler_identity(cone)

    def test_lift_independence(self, quadric_cone, octahedron_cone):
        # rebuild each contraction from the lattice step and from the step
        # shifted by a lattice element of the smaller face's span: both
        # give the blocks of the contraction read off a ray
        for cone in (quadric_cone, octahedron_cone):
            fl = cone.face_lattice()
            n = cone.rank
            for hi, ids in enumerate(fl.children):
                for lo in ids:
                    mu, tau = fl.faces[lo], fl.faces[hi]
                    if mu.dim == 0:
                        continue
                    step = normal_step_vector(mu, tau)
                    shifted = tuple(a + 3 * b for a, b in zip(step, span_lattice(mu)[0]))
                    for k in range(1, n - mu.dim + 1):
                        a, b = (
                            interior_product_matrix(Contraction([dot(v, w) for v in mu.perp_frame[1]]), k, 0, 1)
                            for w in (step, shifted)
                        )
                        assert a.rows == b.rows == interior_product_matrix(_contraction(cone, lo, hi), k, 0, 1).rows


class TestGradedClasses:
    def test_top_class_is_the_degree_zero_complex(self, octahedron_cone):
        fl = octahedron_cone.face_lattice()
        for l in range(5):
            assert graded_class_cohomology(octahedron_cone, l, fl.top) == degree_zero_cohomology(
                octahedron_cone, l
            )

    def test_apex_class_is_one_wedge_block(self, octahedron_cone):
        fl = octahedron_cone.face_lattice()
        n = octahedron_cone.rank
        for l in range(n + 1):
            dims = graded_class_cohomology(octahedron_cone, l, fl.apex)
            assert dims[0] == math.comb(n, l)
            assert not any(dims[1:])

    def test_h0_binomial_identification(self, full_corpus):
        # assembled H^0 of every class equals C(n - dim(face), l)
        for cone in full_corpus:
            n = cone.rank
            fl = cone.face_lattice()
            for l in range(n + 1):
                for face in fl.faces:
                    dims = graded_class_cohomology(cone, l, face)
                    assert dims[0] == math.comb(n - face.dim, l)

    def test_facet_class_matches_direct_build(self, binomial_cone):
        # assemble the facet class by hand from the facet-intrinsic complexes
        cone = binomial_cone
        n = cone.rank
        fl = cone.face_lattice()
        facet = fl.faces[fl.by_dim[n - 1][0]]
        inner = face_cone(cone, facet)
        l = 3
        expected = []
        for i in range(l + 1):
            total = 0
            for j in range(n - facet.dim + 1):
                m = l - j
                if not 0 <= m <= facet.dim:
                    continue
                h = degree_zero_cohomology(inner, m)
                if i < len(h):
                    total += math.comb(n - facet.dim, j) * h[i]
            expected.append(total)
        assert graded_class_cohomology(cone, l, facet) == tuple(expected)


class TestExtTable:
    def test_simplicial_all_vanish(self, orthant):
        table = ext_table(orthant)
        assert all(i == 0 for (_f, i, _k) in table.assembled)
        assert all(v is None for v in table.depth.values())

    def test_octahedron_values(self, octahedron_cone):
        table = ext_table(octahedron_cone)
        top = octahedron_cone.face_lattice().top.index
        assert table.assembled.get((top, 1, 3), 0) == 2
        assert table.assembled.get((top, 2, 1), 0) == 2
        fl = octahedron_cone.face_lattice()
        for face in fl.faces:
            for i in range(1, 5):
                assert table.assembled.get((face.index, i, 2), 0) == 0
        assert table.depth[2] is None
        assert table.depth[3] == 4 - 1
        assert table.depth[1] == 4 - 2

    def test_vanishing_beyond_complex_length(self, full_corpus):
        for cone in full_corpus:
            table = ext_table(cone)
            for (fid, i, k), dim in table.assembled.items():
                assert i + k <= cone.rank or dim == 0


class TestLcdef:
    def test_trichotomy(self, quadric_cone, octahedron_cone, cube_cone):
        assert lcdef(quadric_cone) == 0
        assert lcdef(octahedron_cone) == 1
        assert lcdef(cube_cone) == 0

    def test_binomial_cone(self, binomial_cone):
        assert lcdef(binomial_cone) == 0

    def test_simplicial(self, orthant):
        assert lcdef(orthant) == 0


class TestVerifiers:
    def test_surjectivity_corpus(self, full_corpus):
        for cone in full_corpus:
            assert verify_surjectivity(cone)["ok"], cone

    def test_dualizing_exactness_corpus(self, full_corpus):
        for cone in full_corpus:
            assert verify_dualizing_exactness(cone)["ok"], cone

    def test_codim_vanishing_corpus(self, full_corpus):
        for cone in full_corpus:
            assert verify_codim_vanishing(cone)["ok"], cone

    def test_link_exactness_corpus(self, full_corpus):
        for cone in full_corpus:
            assert verify_link_exactness(cone)["ok"], cone

    def test_link_walk_covers_simplicial_quotients(self, full_corpus, monkeypatch):
        """verify_link_exactness ranks exactly the link complexes of the
        positive-dimensional faces whose quotient cone is simplicial, each at
        every degree above the face's dimension, and each once."""
        calls = []

        def recording(cone, mu, degree):
            calls.append((mu.index, degree))
            return link_complex_cohomology(cone, mu, degree)

        monkeypatch.setattr(ishida, "link_complex_cohomology", recording)
        for cone in full_corpus:
            calls.clear()
            verify_link_exactness(cone)
            want = [
                (face.index, l)
                for face in cone.face_lattice().faces
                if face.dim > 0 and is_simplicial(quotient_cone(cone, face))
                for l in range(face.dim + 1, cone.rank + 1)
            ]
            assert sorted(calls) == want, cone

    def test_link_exactness_facet_two_term(self, quadric_cone):
        fl = quadric_cone.face_lattice()
        facet = fl.faces[fl.by_dim[2][0]]
        dims = link_complex_cohomology(quadric_cone, facet, 3)
        assert dims == (0, 0)

    def test_checks_fail_on_a_corrupted_core_row(self, monkeypatch):
        """The dualizing and surjectivity checks read the core table: one
        extra class in the top cohomology of the top face's row at the top
        degree fails both, at the top face only."""
        cone = Cone.from_rays([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])  # fresh: nothing memoized
        top = cone.face_lattice().top
        table = dict(ishida.core_table(cone))
        rows = table[top.index]
        table[top.index] = (*rows[:-1], (*rows[-1][:-1], rows[-1][-1] + 1))
        monkeypatch.setattr(ishida, "core_table", lambda c: table)
        assert verify_dualizing_exactness(cone) == {
            "name": "dualizing_exactness",
            "ok": False,
            "failures": [{"face": [0, 1, 2, 3], "dims": [0, 0, 0, 1]}],
        }
        assert verify_surjectivity(cone) == {
            "name": "surjectivity",
            "ok": False,
            "failures": [{"k": 0, "face": [0, 1, 2, 3], "top_dim": 1}],
        }


class TestDim5Inequalities:
    def test_facet_sums(self, full_corpus):
        for cone in full_corpus:
            if cone.rank != 5:
                continue
            fl = cone.face_lattice()
            h_sigma = degree_zero_cohomology(cone, 3)
            s1 = s2 = 0
            for fid in fl.by_dim[4]:
                h = degree_zero_cohomology(face_cone(cone, fl.faces[fid]), 3)
                s1 += h[1]
                s2 += h[2]
            assert s1 >= h_sigma[1]
            assert s2 <= h_sigma[2]
