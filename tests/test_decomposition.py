import gc

import pytest
from hypothesis import example, given, settings, strategies as st

from paper_reference import ext_dims_simplicial_class
from toricish.combinatorics import g_polynomial, h_tilde_vector, h_vector, hodge_du_bois_table
from toricish.cones import Cone, is_cone_over_simple
from toricish.decomposition import (
    admissible_pairs,
    decomposition_report,
    face_multiplicity_tables,
    ic_multiplicities,
    multiplicities_from_cohomology,
    multiplicities_simple_class,
    multiplicities_simplicial_class,
)
from toricish.ishida import core_table, ext_table, lcdef
from toricish.sampling import sample_cones
from toricish.shelling import is_shelling, shelling


class TestAdmissiblePairs:
    def test_low_dims_empty(self):
        assert admissible_pairs(0) == ()
        assert admissible_pairs(2) == ()

    def test_dim_five(self):
        assert set(admissible_pairs(5)) == {(0, 1), (1, 1), (2, 1), (0, 2)}

    def test_dim_six(self):
        assert set(admissible_pairs(6)) == {
            (0, 1), (1, 1), (2, 1), (3, 1), (0, 2), (1, 2),
        }


class TestLowDimRoute:
    def test_quadric(self, quadric_cone):
        m = multiplicities_from_cohomology(quadric_cone)
        assert m.nonzero == {(0, 1): 1}

    def test_octahedron(self, octahedron_cone):
        m = multiplicities_from_cohomology(octahedron_cone)
        assert m.nonzero == {(1, 1): 2}

    def test_cube(self, cube_cone):
        m = multiplicities_from_cohomology(cube_cone)
        assert m.nonzero == {(0, 1): 2}

    def test_simplicial_zero(self, orthant):
        assert multiplicities_from_cohomology(orthant).nonzero == {}

    def test_dim3_row_is_ray_count_minus_three(self, full_corpus):
        # dimension three reads (0, 1) off the core row, as four to six do:
        # h^1 at degree 2 is the ray count minus three on every 3-face
        cones = full_corpus + [c for s in range(4) for c in sample_cones(s, 4, 30) + sample_cones(s, 5, 5)]
        seen = 0
        for cone in cones:
            fl, core = cone.face_lattice(), core_table(cone)
            for fid in fl.by_dim[3] if cone.rank >= 3 else ():
                face = fl.faces[fid]
                assert core[fid][2][1] == len(face.rays) - 3, (cone, face.rays)
                assert multiplicities_from_cohomology(cone, face).entries == {(0, 1): len(face.rays) - 3}
                seen += len(face.rays) > 3
        assert seen >= 10

    def test_dim6_undetermined(self, pyramid_tower_cone):
        m = multiplicities_from_cohomology(pyramid_tower_cone)
        assert m.undetermined == ((0, 2), (1, 2))
        for l in range(4):
            assert m.get(l, 1) is not None
        assert m.get(0, 2) is None and m.get(1, 2) is None

    def test_dim7_raises(self):
        from toricish.cones import cone_over_polytope

        cube_v = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
        p = cube_v
        for extra in range(3):
            p = [v + (0,) for v in p] + [tuple([0] * (3 + extra)) + (1,)]
        tower7 = cone_over_polytope(p)
        assert tower7.rank == 7
        with pytest.raises(ValueError, match="dimension"):
            multiplicities_from_cohomology(tower7)


class TestClosedForms:
    def test_simplicial_form_octahedron(self, octahedron_cone):
        m = multiplicities_simplicial_class(octahedron_cone)
        assert m.nonzero == {(1, 1): 2}

    def test_simplicial_form_quadric(self, quadric_cone):
        m = multiplicities_simplicial_class(quadric_cone)
        assert m.nonzero == {(0, 1): 1}

    def test_simple_form_cube(self, cube_cone):
        m = multiplicities_simple_class(cube_cone)
        assert m.nonzero == {(0, 1): 2}

    def test_simple_form_binomial(self, binomial_cone):
        ht = h_tilde_vector(binomial_cone.f_vector)
        m = multiplicities_simple_class(binomial_cone)
        assert m.nonzero == {(0, 1): ht[1] - ht[0], (0, 2): ht[2] - ht[1]}

    def test_simplicial_cone_zero(self, orthant):
        assert multiplicities_simplicial_class(orthant).nonzero == {}
        assert multiplicities_simple_class(orthant).nonzero == {}

    def test_wrong_class_raises(self, cube_cone, octahedron_cone):
        with pytest.raises(ValueError):
            multiplicities_simplicial_class(cube_cone)
        with pytest.raises(ValueError):
            multiplicities_simple_class(octahedron_cone)


class TestDispatch:
    def test_closed_form_vs_cohomology_simplicial(self, simplicial_class_corpus):
        for cone in simplicial_class_corpus:
            # the dispatch itself raises on any disagreement
            m = ic_multiplicities(cone)
            closed = multiplicities_simplicial_class(cone)
            direct = multiplicities_from_cohomology(cone)
            for pair in admissible_pairs(cone.rank):
                assert closed.get(*pair) == direct.get(*pair), (cone, pair)
            h = h_vector(cone.f_vector)
            for j in range(1, (cone.rank + 1) // 2):
                assert m.get(cone.rank - 2 * j - 1, j) == h[j] - h[j - 1]

    def test_closed_form_vs_cohomology_simple(self, simple_class_corpus):
        for cone in simple_class_corpus:
            m = ic_multiplicities(cone)
            closed = multiplicities_simple_class(cone)
            direct = multiplicities_from_cohomology(cone)
            for pair in admissible_pairs(cone.rank):
                assert closed.get(*pair) == direct.get(*pair), (cone, pair)
            ht = h_tilde_vector(cone.f_vector)
            for j in range(1, (cone.rank + 1) // 2):
                assert m.get(0, j) == ht[j] - ht[j - 1]
            for (l, j), v in m.entries.items():
                if l > 0:
                    assert v == 0

    def test_simplicial_faces_are_zero(self, full_corpus):
        for cone in full_corpus:
            tables = face_multiplicity_tables(cone)
            fl = cone.face_lattice()
            for face in fl.faces:
                if len(face.rays) == face.dim:
                    assert tables[face.index].nonzero == {}, face

    def test_braden_monotonicity(self, simplicial_class_corpus):
        # once a multiplicity vanishes along the closed-form diagonal, all
        # later ones vanish too
        for cone in simplicial_class_corpus:
            n = cone.rank
            m = ic_multiplicities(cone)
            seen_zero = False
            for j in range(1, (n + 1) // 2):
                val = m.get(n - 2 * j - 1, j)
                if seen_zero:
                    assert val == 0
                if val == 0:
                    seen_zero = True


class TestExtClosedForm:
    def test_octahedron(self, octahedron_cone):
        assert ext_dims_simplicial_class(octahedron_cone) == {(1, 3): 2, (2, 1): 2}

    def test_quadric(self, quadric_cone):
        assert ext_dims_simplicial_class(quadric_cone) == {(1, 2): 1, (1, 1): 1}

    def test_simplicial_empty(self, orthant):
        assert ext_dims_simplicial_class(orthant) == {}

    def test_matches_computed_table(self, simplicial_class_corpus):
        for cone in simplicial_class_corpus:
            predicted = ext_dims_simplicial_class(cone)
            table = ext_table(cone)
            fl = cone.face_lattice()
            top = fl.top.index
            computed = {
                (i, k): d for (fid, i, k), d in table.assembled.items() if i > 0 and fid == top
            }
            assert predicted == computed, cone
            # nothing supported away from the fixed-point class
            assert all(
                fid == top for (fid, i, _k) in table.assembled if i > 0
            ), cone


class TestReport:
    def test_quadric_rows(self, quadric_cone):
        rep = decomposition_report(quadric_cone)
        rows = {(r["degree"], r["weight"]): r["summands"] for r in rep["rows"]}
        assert rows[(0, 3)] == [{"summand": "IC_X", "multiplicity": 1}]
        assert rows[(0, 2)] == [
            {"face": [0, 1, 2, 3], "face_dim": 3, "twist": 1, "multiplicity": 1}
        ]
        assert rep["lcdef"] == 0 and rep["undetermined"] == []

    def test_octahedron_rows(self, octahedron_cone):
        rep = decomposition_report(octahedron_cone)
        rows = {(r["degree"], r["weight"]): r["summands"] for r in rep["rows"]}
        assert (-1, 2) in rows and rows[(-1, 2)][0]["multiplicity"] == 2
        assert rep["lcdef"] == 1 == rep["lcdef_from_rows"]

    def test_cube_rows(self, cube_cone):
        rep = decomposition_report(cube_cone)
        rows = {(r["degree"], r["weight"]): r["summands"] for r in rep["rows"]}
        facet_row = rows[(0, 3)]
        assert len(facet_row) == 6 and all(s["multiplicity"] == 1 for s in facet_row)
        assert rows[(0, 2)][0]["multiplicity"] == 2
        assert rep["lcdef"] == 0

    def test_lcdef_agreement(self, full_corpus):
        for cone in full_corpus:
            rep = decomposition_report(cone)
            if rep["undetermined"]:
                assert rep["lcdef_from_rows"] <= rep["lcdef"]
            else:
                assert rep["lcdef_from_rows"] == rep["lcdef"] == lcdef(cone)

    def test_weight_bookkeeping(self, full_corpus):
        # every summand weight w = n - dim(face) + 2 j stays in [2, n - l - 1]
        # for rows with l > 0, and in [2, n] for l = 0
        for cone in full_corpus:
            n = cone.rank
            rep = decomposition_report(cone)
            for row in rep["rows"]:
                l, w = -row["degree"], row["weight"]
                for s in row["summands"]:
                    if s.get("summand") == "IC_X":
                        assert (l, w) == (0, n)
                        continue
                    assert w == n - s["face_dim"] + 2 * s["twist"]
                    assert 2 <= w <= (n - l - 1 if l > 0 else n)


def _invariants(cone):
    table = ext_table(cone)
    ic = ic_multiplicities(cone)
    return {
        "f_vector": cone.f_vector,
        "core_rows": sorted(core_table(cone).values()),
        "depth": table.depth,
        "lcdef": table.lcdef,
        "ic": (ic.entries, ic.undetermined, ic.method),
        "face_ic": sorted(
            (t.dim, sorted(t.entries.items()), t.undetermined, t.method)
            for t in face_multiplicity_tables(cone).values()
        ),
        "g": g_polynomial(cone.face_lattice()).coefficients,
        "hodge": hodge_du_bois_table(cone.f_vector) if is_cone_over_simple(cone) else None,
    }


@given(
    st.integers(3, 5),
    st.integers(0, 10**6),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-2, 2)), max_size=6),
)
@example(5, 1, [(0, 1, 1), (1, 2, -2), (2, 3, 1), (3, 4, 2), (4, 0, -1), (0, 2, 1)])
@example(5, 2, [(1, 0, 2), (2, 1, 1), (3, 2, -1), (4, 3, 1), (0, 4, 1), (2, 0, -2)])
@example(5, 3, [(4, 0, -1), (3, 1, 2), (0, 3, 1), (1, 4, -2), (2, 4, 1), (0, 1, 1)])
@settings(max_examples=40, deadline=None)
def test_invariants_under_lattice_automorphism(dim, seed, ops):
    """A unimodular change of coordinates, a product of elementary integer
    matrices, changes no invariant.  The moved cone's faces get other
    coordinates and other indices, and the slices behind its core rows and
    per-face IC tables live in those ambient coordinates, so this also
    checks that none of them depends on the coordinates.  The moved cone's
    own shelling, searched under its new face indices, certifies, and each
    cone's shelling, carried through the ray bijection, is a shelling of the
    other.  The pinned examples are dimension-5 cones."""
    (cone,) = sample_cones(seed, dim, 1)
    moved = [list(r) for r in cone.rays]
    for i, j, c in ops:
        i, j = i % dim, j % dim
        if i != j:
            for r in moved:
                r[i] += c * r[j]
    moved_cone = Cone.from_rays(moved, dim)
    assert _invariants(moved_cone) == _invariants(cone)
    to_moved = [moved_cone.rays.index(tuple(r)) for r in moved]
    to_cone = {m: i for i, m in enumerate(to_moved)}
    order, moved_order = shelling(cone).order, shelling(moved_cone).order
    assert is_shelling(moved_cone, moved_order)
    assert is_shelling(moved_cone, [[to_moved[i] for i in facet] for facet in order])
    assert is_shelling(cone, [[to_cone[i] for i in facet] for facet in moved_order])


def test_cone_family_is_freed():
    """Nothing keeps a cone or its memo alive once its caller lets go of it,
    and no reference cycle runs through them: with the cyclic collector off,
    reference counting alone frees the cone."""
    rays = ((0, 0, 0, 1), (2, 0, 0, 1), (0, 3, 0, 1), (2, 3, 0, 1), (1, 1, 5, 1))

    def compute():
        cone = Cone.from_rays(rays)
        ext_table(cone)
        decomposition_report(cone)
        return cone.rays

    gc.disable()
    try:
        kept = compute()
        alive = any(isinstance(o, Cone) and o.rays == kept for o in gc.get_objects())
    finally:
        gc.enable()
    assert not alive
