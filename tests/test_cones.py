import hashlib
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ambient_reference import _det, _integer_rows, dense_matrix, kernel_basis
from face_reference import face_cone, lattice_coordinates
from lattice_reference import normal_step_vector, perp_lattice, span_lattice
from paper_reference import cross_vertices, cube_vertices, dual, quotient_cone
import toricish.shelling as shelling_module
from toricish import cones
from toricish.cones import (
    CONTAINS_A_LINE,
    NOT_FULL_DIMENSIONAL,
    Cone,
    Face,
    cone_over_polytope,
    dual_description,
    is_cone_over_simple,
    is_cone_over_simplicial,
    is_simple_in_dim,
    is_simplicial,
)
from toricish.ishida import contractions
from toricish.linalg import dot, primitive_vector
from toricish.sampling import sample_cones


def brute_force_facet_normals(rays, rank):
    """Independent oracle: a normal supports a facet iff it vanishes on a
    spanning subset of rays of rank rank-1 and is nonnegative on all rays."""
    out = set()
    if rank == 1:
        for r in rays:
            out.add(primitive_vector(r))
        return out
    for subset in itertools.combinations(rays, rank - 1):
        m = dense_matrix(subset, ncols=rank)
        if m.rank() != rank - 1:
            continue
        h = primitive_vector(_integer_rows(kernel_basis(subset, rank))[0])
        for cand in (h, tuple(-x for x in h)):
            if all(dot(cand, r) >= 0 for r in rays):
                out.add(cand)
    return out


def dot_incidence(normals, vectors):
    """Per normal, the indices of the vectors it vanishes on, by dot
    products."""
    return [frozenset(i for i, v in enumerate(vectors) if dot(h, v) == 0) for h in normals]


def as_mask(ids):
    return sum(2**i for i in ids)


def assert_incidence(facets, gens):
    """dual_description's masks are the dot-product incidence over the
    generators with zero and repeated ones dropped, first occurrence first."""
    distinct = list(dict.fromkeys(primitive_vector(g) for g in gens if any(g)))
    normals = [h for h, _ in facets]
    assert [z for _, z in facets] == [as_mask(ids) for ids in dot_incidence(normals, distinct)]


def pairwise_extreme_rays(generators, normals):
    """Oracle for the extreme rays that Cone.from_rays keeps: of the
    distinct primitive generators, sorted, those whose zero set over the
    facet normals no other generator's zero set strictly contains.  Every
    pair of generators is compared."""
    prim = sorted({primitive_vector(v) for v in generators if any(v)})
    zero_sets = [frozenset(j for j, h in enumerate(normals) if dot(h, r) == 0) for r in prim]
    return tuple(r for r, z in zip(prim, zero_sets) if not any(z < o for o in zero_sets))


def assert_from_rays(gens, rank):
    """from_rays keeps what the pairwise oracle keeps, and its stored
    incidence is the dot-product incidence over the rays it keeps."""
    cone = Cone.from_rays(gens, rank)
    assert cone.rays == pairwise_extreme_rays(gens, cone.facet_normals)
    assert cone.incidence == tuple(as_mask(ids) for ids in dot_incidence(cone.facet_normals, cone.rays))
    return cone


def two_pass_dual(generators, rank):
    """Oracle for Cone.from_dual_rays: the extreme rays of the dual, from one
    double description, then a second double description on them."""
    return Cone.from_rays([h for h, _ in dual_description(generators, rank)], rank)


def description(cone):
    return cone.rays, cone.facet_normals, cone.incidence


def brute_force_faces(cone):
    """Independent face enumeration: every subset of facet normals cuts a
    face; deduplicate by the ray set."""
    seen = {}
    normals = cone.facet_normals
    for k in range(len(normals) + 1):
        for subset in itertools.combinations(normals, k):
            rays = frozenset(
                i for i, r in enumerate(cone.rays) if all(dot(h, r) == 0 for h in subset)
            )
            vecs = [cone.rays[i] for i in rays]
            dim = dense_matrix(vecs, ncols=cone.rank).rank() if vecs else 0
            seen[rays] = dim
    return seen


class TestDualDescription:
    def test_orthant_self_dual(self):
        # each normal vanishes on the other two generators
        got = dual_description([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
        assert got == (((0, 0, 1), 0b011), ((0, 1, 0), 0b101), ((1, 0, 0), 0b110))

    def test_quadric_four_normals(self, quadric_cone):
        assert len(quadric_cone.facet_normals) == 4
        for h in quadric_cone.facet_normals:
            assert sum(1 for r in quadric_cone.rays if dot(h, r) == 0) == 2

    def test_binomial_cone_nine_rays(self, binomial_cone):
        assert len(binomial_cone.rays) == 9

    def test_not_full_dimensional(self):
        with pytest.raises(ValueError, match="full-dimensional"):
            dual_description([(1, 0, 0), (0, 1, 0)], 3)

    def test_too_few_generators_fail_before_the_start_simplex(self):
        # a rank x rank matrix alone would take about 60 MB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="full-dimensional"):
                Cone.from_rays([(0,) * 1999 + (1,)], 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Cone.from_rays([(1, 0, 5), (0, 1, 7)], rank=2),
            lambda: Cone.from_rays([(1, 0), (0, 1, 1)]),
            lambda: Cone.from_rays([(1, 0), (0, 1), (0, 0, 0)]),
            lambda: Cone.from_rays([(1,)], rank=0),
            lambda: Cone.from_dual_rays([(1, 0), (0, 1), (1, 1, 1)]),
            lambda: Cone.from_dual_rays([(1,)], rank=0),
        ],
    )
    def test_vector_length_must_be_the_rank(self, build):
        with pytest.raises(ValueError, match="length"):
            build()

    def test_contains_a_line(self):
        with pytest.raises(ValueError, match="line"):
            Cone.from_rays([(1, 0), (-1, 0), (0, 1), (0, -1)])

    def test_against_brute_force(self, named_corpus):
        for cone in named_corpus:
            assert set(cone.facet_normals) == brute_force_facet_normals(cone.rays, cone.rank)

    def test_start_simplex_need_not_be_a_prefix(self):
        # The first three generators span a plane only, so the simplex that
        # starts the double description takes the first, second and fourth.
        gens = [(1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (-1, 2, 1), (1, 1, 2)]
        assert tuple(h for h, _ in dual_description(gens, 3)) == tuple(sorted(brute_force_facet_normals(gens, 3)))

    def test_redundant_generators(self):
        # interior generator must not disturb the description
        a = dual_description([(1, 0), (0, 1)], 2)
        b = dual_description([(1, 0), (1, 1), (0, 1)], 2)
        assert [h for h, _ in a] == [h for h, _ in b]

    def test_involution(self, named_corpus):
        for cone in named_corpus:
            assert dual(dual(cone)).rays == cone.rays


@st.composite
def generator_lists(draw):
    """(rank, generators): 3-8 generators in Z^3 or Z^4 with entries in
    [-4, 4], among them repeated, opposite, non-primitive and redundant ones,
    shuffled so that the first rank independent generators, which start the
    double description, need not be the first rank generators."""
    rank = draw(st.sampled_from((3, 4)))
    vec = st.tuples(*[st.integers(-4, 4)] * rank)
    gens = draw(st.lists(vec, min_size=rank, max_size=6))
    small = lambda v: all(-4 <= x <= 4 for x in v)
    derived = (
        gens  # repeats
        + [tuple(-x for x in v) for v in gens]  # lines
        + [w for k in (2, 3) for v in gens if small(w := tuple(k * x for x in v))]
        + [w for u in gens for v in gens if small(w := tuple(a + b for a, b in zip(u, v)))]
    )
    extra = draw(st.lists(st.sampled_from(derived), max_size=8 - len(gens)))
    return rank, draw(st.permutations(gens + extra))


@given(generator_lists())
@settings(max_examples=200, deadline=None)
def test_dual_description_matches_brute_force(case):
    rank, gens = case
    nonzero = [g for g in gens if any(g)]
    expected = brute_force_facet_normals(nonzero, rank) if nonzero else set()
    if not nonzero or dense_matrix(nonzero, ncols=rank).rank() < rank:
        message, dual_message = NOT_FULL_DIMENSIONAL, CONTAINS_A_LINE
    elif not expected or dense_matrix(sorted(expected), ncols=rank).rank() < rank:
        # A full-dimensional cone is pointed exactly when its facet normals span.
        message, dual_message = CONTAINS_A_LINE, NOT_FULL_DIMENSIONAL
    else:
        # The exact tuple: a repeated ray would go unseen in a set.
        got = dual_description(gens, rank)
        assert tuple(h for h, _ in got) == tuple(sorted(expected))
        assert_incidence(got, gens)
        cone = assert_from_rays(gens, rank)
        assert description(Cone.from_dual_rays(cone.facet_normals, rank)) == description(cone)
        return
    with pytest.raises(ValueError) as exc:
        dual_description(gens, rank)
    assert str(exc.value) == message
    # gens spans the dual of the cone asked for, whose defect is the other one
    with pytest.raises(ValueError) as exc:
        Cone.from_dual_rays(gens, rank)
    assert str(exc.value) == dual_message


@given(st.integers(3, 5), st.integers(0, 10_000), st.data())
@settings(max_examples=40, deadline=None)
def test_redundant_generators_are_dropped(dim, seed, data):
    """Positive integer combinations of 2-3 extreme rays, on faces or inside,
    shuffled in among the rays, change neither rays nor facet normals."""
    (cone,) = sample_cones(seed, dim, 1)
    combo = st.lists(
        st.tuples(st.integers(0, len(cone.rays) - 1), st.integers(1, 3)),
        min_size=2, max_size=3, unique_by=lambda t: t[0],
    )
    extra = [
        tuple(sum(c * cone.rays[i][j] for i, c in terms) for j in range(dim))
        for terms in data.draw(st.lists(combo, min_size=1, max_size=4))
    ]
    gens = data.draw(st.permutations(list(cone.rays) + extra))
    got, expected = Cone.from_rays(gens, dim), Cone.from_rays(cone.rays, dim)
    assert (got.rays, got.facet_normals) == (expected.rays, expected.facet_normals)
    assert_incidence(dual_description(gens, dim), gens)
    assert_from_rays(gens, dim)


def test_incidence_with_interior_and_redundant_generators(full_corpus):
    """On every corpus cone, with the sum of every two rays (on a 2-face or
    inside) and the sum of all rays (inside) added and the generators
    reversed: dual_description's masks are the dot-product incidence, and
    from_rays keeps exactly the pairwise oracle's rays."""
    for cone in full_corpus:  # named_corpus comes first
        n = len(cone.rays)
        extra = [tuple(map(sum, zip(cone.rays[i], cone.rays[j]))) for i in range(n) for j in range(i + 1, n)]
        for gens in (list(cone.rays), list(reversed(cone.rays + tuple(extra))) + [tuple(map(sum, zip(*cone.rays)))]):
            assert_incidence(dual_description(gens, cone.rank), gens)
            assert assert_from_rays(gens, cone.rank) == cone


def test_from_dual_rays_matches_the_two_pass_oracle(full_corpus):
    """The transposed description of one double description is exactly the
    cone that a second double description on the dual's extreme rays builds:
    on the duals of the corpus cones and of the cones over the cubes and
    cross-polytopes, also with a zero, a repeated and a redundant (interior)
    dual generator added."""
    polytopes = [cube_vertices(d) for d in range(2, 6)] + [cross_vertices(d) for d in range(2, 6)]
    for cone in full_corpus + [cone_over_polytope(v) for v in polytopes]:
        for gens in (cone.facet_normals, cone.rays):
            extra = [(0,) * cone.rank, gens[0], tuple(map(sum, zip(*gens)))]
            for dual_gens in (list(gens), extra + list(reversed(gens))):
                assert description(Cone.from_dual_rays(dual_gens, cone.rank)) == description(
                    two_pass_dual(dual_gens, cone.rank)
                )


def test_from_dual_rays_runs_one_double_description(full_corpus, monkeypatch):
    calls = []

    def counted(generators, rank):
        calls.append(rank)
        return dual_description(generators, rank)

    monkeypatch.setattr(cones, "dual_description", counted)
    for cone in full_corpus:
        calls.clear()
        Cone.from_dual_rays(cone.facet_normals, cone.rank)
        assert calls == [cone.rank]


def test_no_dot_product_after_the_double_description(full_corpus, monkeypatch):
    """Once from_rays returns, the face lattice and the shelling read the
    stored incidence: cones calls dot no more, and shelling pairs no facet
    normal with a ray (it still crosses the facets' hyperplanes with a line,
    by dot products with other vectors)."""

    def no_dot(*args):
        raise AssertionError("dot called after the double description")

    for corpus_cone in full_corpus:
        cone = Cone.from_rays(corpus_cone.rays, corpus_cone.rank)
        normals, rays = set(cone.facet_normals), set(cone.rays)

        def no_incidence_dot(u, v, cone_dot=dot):
            if tuple(u) in normals and tuple(v) in rays or tuple(u) in rays and tuple(v) in normals:
                raise AssertionError("a facet normal paired with a ray after the double description")
            return cone_dot(u, v)

        want = corpus_cone.f_vector, shelling_module.shelling(corpus_cone).order
        with monkeypatch.context() as m:
            m.setattr(cones, "dot", no_dot)
            m.setattr(shelling_module, "dot", no_incidence_dot)
            assert (cone.face_lattice().f_vector, shelling_module.shelling(cone).order) == want


def assert_face_lattice_oracle(cone):
    """Faces, dimensions, order, children and parents against an oracle that
    knows only that the faces are the intersections of facets and that a
    face's dimension is the rank of its rays."""
    fl = cone.face_lattice()
    closure = {frozenset(range(len(cone.rays)))}
    for h in cone.facet_normals:
        facet = frozenset(i for i, r in enumerate(cone.rays) if dot(h, r) == 0)
        closure |= {facet & t for t in closure}
    assert {frozenset(f.rays) for f in fl.faces} == closure
    assert [f.index for f in fl.faces] == list(range(len(fl.faces)))
    assert [(f.dim, f.rays) for f in fl.faces] == sorted((f.dim, f.rays) for f in fl.faces)
    for f in fl.faces:
        vecs = [cone.rays[i] for i in f.rays]
        assert f.dim == (dense_matrix(vecs, ncols=cone.rank).rank() if vecs else 0)
        assert list(fl.children[f.index]) == [
            g.index for g in fl.faces if g.dim == f.dim - 1 and set(g.rays) < set(f.rays)
        ]
        assert list(fl.parents[f.index]) == [
            g.index for g in fl.faces if f.index in fl.children[g.index]
        ]


@given(st.integers(3, 5), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_face_lattice_oracle_on_random_cones(dim, seed):
    (cone,) = sample_cones(seed, dim, 1)
    assert_face_lattice_oracle(cone)
    assert_face_lattice_oracle(dual(cone))


def test_face_lattice_oracle_on_both_sides_of_the_incidence(full_corpus):
    """The lattice is walked from the smaller side of the ray-facet
    incidence.  The cone over the 5-cube (32 rays, 10 facets) takes the ray
    side and the one over the 5-cross-polytope (10 rays, 32 facets) the
    facet side; the corpus the oracle checks, with its duals, reaches both."""
    cube5, cross5 = cone_over_polytope(cube_vertices(5)), cone_over_polytope(cross_vertices(5))
    assert (len(cube5.rays), len(cube5.facet_normals)) == (32, 10)
    assert (len(cross5.rays), len(cross5.facet_normals)) == (10, 32)
    assert_face_lattice_oracle(cube5)
    assert_face_lattice_oracle(cross5)
    corpus = full_corpus + [dual(c) for c in full_corpus]
    assert {len(c.facet_normals) > len(c.rays) for c in corpus} == {False, True}


class TestFaceLattice:
    def test_simplicial_f_vector(self, orthant):
        assert orthant.f_vector == (1, 3, 3, 1)

    def test_quadric_f_vector(self, quadric_cone):
        assert quadric_cone.f_vector == (1, 4, 4, 1)

    def test_binomial_f_vector(self, binomial_cone):
        assert binomial_cone.f_vector == (1, 9, 18, 15, 6, 1)

    def test_against_brute_force(self, full_corpus):
        for cone in full_corpus:
            expected = brute_force_faces(cone)
            fl = cone.face_lattice()
            got = {frozenset(f.rays): f.dim for f in fl.faces}
            assert got == expected
            assert_face_lattice_oracle(cone)
            assert_face_lattice_oracle(dual(cone))

    def test_masks_against_ray_sets(self, full_corpus):
        """Each face's mask has exactly the bits of its rays, each down-set
        holds exactly the faces whose ray sets are strict subsets of the
        face's, and face_by_rays finds every face from its rays."""
        for cone in full_corpus:
            fl = cone.face_lattice()
            ray_sets = [frozenset(f.rays) for f in fl.faces]
            for f, rays in zip(fl.faces, ray_sets):
                assert f.mask == sum(2**i for i in rays)
                below = [g for g, other in enumerate(ray_sets) if other < rays]
                assert fl.down_sets()[f.index] == sum(2**g for g in below)
                assert fl.face_by_rays(f.rays) is f
                assert fl.face_by_rays(reversed(f.rays)) is f

    @pytest.mark.parametrize("name", ["cube_cone", "octahedron_cone"])
    def test_face_count_limit(self, request, monkeypatch, name):
        # 28 faces each, walked from the facets of the cube cone and from
        # the rays of the octahedron cone: the limit admits 28, not 29
        rays = request.getfixturevalue(name).rays
        monkeypatch.setattr(cones, "MAX_FACES", 28)
        assert len(Cone.from_rays(rays).face_lattice().faces) == 28
        monkeypatch.setattr(cones, "MAX_FACES", 27)
        with pytest.raises(ValueError, match="more than MAX_FACES = 27 faces"):
            Cone.from_rays(rays).face_lattice()

    def test_bases_computed_on_first_use(self, cube_cone):
        # Fresh cones: the session fixture's faces may have built theirs.
        fl = Cone.from_rays(cube_cone.rays).face_lattice()
        twin = Cone.from_rays(cube_cone.rays).face_lattice()
        # equal and hashed alike from index, dim and rays alone
        assert set(fl.faces) == set(twin.faces) and len(set(fl.faces)) == len(fl.faces)
        # slotted, with no instance dict, and the frame slot unset until the
        # frame is first read
        assert set(Face.__slots__) == {"index", "dim", "rays", "mask", "cone_rays", "rank", "_perp_frame"}
        assert not any(hasattr(f, "__dict__") or hasattr(f, "_perp_frame") for f in fl.faces)
        frame = fl.top.perp_frame
        assert fl.top._perp_frame is frame and fl.top.perp_frame is frame
        assert not any(hasattr(f, "_perp_frame") for f in fl.faces if f is not fl.top)
        # the faces share their cone's ray tuple
        assert all(f.cone_rays is fl.top.cone_rays for f in fl.faces)

    def test_dual_reverses_f_vector(self, named_corpus):
        for cone in named_corpus:
            assert dual(cone).f_vector == tuple(reversed(cone.f_vector))

    def test_diamond_property(self, full_corpus):
        for cone in full_corpus:
            fl = cone.face_lattice()
            for mu in fl.faces:
                if mu.dim + 2 > cone.rank:
                    continue
                for nu_id in fl.by_dim[mu.dim + 2]:
                    nu = fl.faces[nu_id]
                    if not set(mu.rays) <= set(nu.rays):
                        continue
                    middles = [
                        lam
                        for lam_id in fl.by_dim[mu.dim + 1]
                        if set(mu.rays) <= set((lam := fl.faces[lam_id]).rays) <= set(nu.rays)
                    ]
                    assert len(middles) == 2

    def test_span_perp_dimensions(self, named_corpus):
        for cone in named_corpus:
            for face in cone.face_lattice().faces:
                assert len(span_lattice(face)) + len(perp_lattice(face)) == cone.rank
                for u in perp_lattice(face):
                    for i in face.rays:
                        assert dot(u, cone.rays[i]) == 0

    def test_unique_apex_and_top(self, named_corpus):
        for cone in named_corpus:
            fl = cone.face_lattice()
            assert len(fl.by_dim[0]) == 1 and len(fl.by_dim[-1]) == 1
            assert fl.apex.rays == () and fl.top.rays == tuple(range(len(cone.rays)))


class TestQuotient:
    def test_by_apex_is_identity(self, quadric_cone):
        fl = quadric_cone.face_lattice()
        assert quotient_cone(quadric_cone, fl.apex) is quadric_cone

    def test_quadric_by_ray_is_simplicial(self, quadric_cone):
        fl = quadric_cone.face_lattice()
        for rid in fl.by_dim[1]:
            q = quotient_cone(quadric_cone, fl.faces[rid])
            assert q.rank == 2 and is_simplicial(q)

    def test_by_facet_is_a_ray(self, quadric_cone):
        fl = quadric_cone.face_lattice()
        for fid in fl.by_dim[2]:
            q = quotient_cone(quadric_cone, fl.faces[fid])
            assert q.rank == 1 and len(q.rays) == 1

    def test_direct_projection_oracle(self, quadric_cone):
        # project the four rays along a ray's span directly and compare cones
        fl = quadric_cone.face_lattice()
        ray_face = fl.faces[fl.by_dim[1][0]]
        q = quotient_cone(quadric_cone, ray_face)
        images = []
        for r in quadric_cone.rays:
            w = tuple(dot(u, r) for u in perp_lattice(ray_face))
            if any(w):
                images.append(primitive_vector(w))
        assert set(q.rays) <= set(images)


class TestPredicates:
    def test_orthant(self, orthant):
        assert is_simplicial(orthant)
        assert is_cone_over_simple(orthant)
        assert is_cone_over_simplicial(orthant)
        assert all(is_simple_in_dim(orthant, c) for c in range(4))

    def test_octahedron_cone(self, octahedron_cone):
        assert not is_simplicial(octahedron_cone)
        assert is_cone_over_simplicial(octahedron_cone)
        assert not is_cone_over_simple(octahedron_cone)
        # every facet has exactly 3 rays
        fl = octahedron_cone.face_lattice()
        assert all(len(fl.faces[i].rays) == 3 for i in fl.by_dim[3])

    def test_cube_cone(self, cube_cone):
        assert is_cone_over_simple(cube_cone)
        assert not is_cone_over_simplicial(cube_cone)
        # each ray on exactly n-1 facets
        for r in cube_cone.rays:
            on = sum(1 for h in cube_cone.facet_normals if dot(h, r) == 0)
            assert on == cube_cone.rank - 1

    def test_simple_in_dim_zero_is_simplicial(self, full_corpus):
        for cone in full_corpus:
            assert is_simple_in_dim(cone, 0) == is_simplicial(cone)

    def test_simple_in_dim_monotone(self, full_corpus):
        for cone in full_corpus:
            vals = [is_simple_in_dim(cone, c) for c in range(cone.rank + 1)]
            first = vals.index(True)
            assert all(vals[first:])
            # the face-lattice count agrees with the quotient cone itself
            fl = cone.face_lattice()
            oracle = {f.index: is_simplicial(quotient_cone(cone, f)) for f in fl.faces}
            for face in fl.faces:
                assert fl.quotient_is_simplicial(face) == oracle[face.index], (cone, face.rays)
            for c in range(cone.rank + 1):
                assert vals[c] == all(oracle[i] for i in fl.by_dim[c])

    def test_duality_swaps_classes(self, random_corpus, simplicial_class_corpus, simple_class_corpus):
        """Both ways: the dual of a cone over a simple polytope is a cone
        over a simplicial one and the other way round, and a simplicial cone
        stays simplicial.  The class corpora give positives of both."""
        for cone in random_corpus + simplicial_class_corpus + simple_class_corpus:
            d = dual(cone)
            assert is_cone_over_simplicial(cone) == is_cone_over_simple(d), cone
            assert is_cone_over_simple(cone) == is_cone_over_simplicial(d), cone
            assert is_simplicial(cone) == is_simplicial(d), cone


class TestNormalStep:
    def test_apex_to_ray(self, quadric_cone):
        fl = quadric_cone.face_lattice()
        for rid in fl.by_dim[1]:
            face = fl.faces[rid]
            assert normal_step_vector(fl.apex, face) == quadric_cone.rays[face.rays[0]]

    def test_annihilates_perp_and_sign(self, full_corpus):
        for cone in full_corpus:
            fl = cone.face_lattice()
            for hi, ids in enumerate(fl.children):
                for lo in ids:
                    mu, tau = fl.faces[lo], fl.faces[hi]
                    n = normal_step_vector(mu, tau)
                    for u in perp_lattice(tau):
                        assert dot(u, n) == 0
                    # sample in the relative interior of the dual face of mu
                    u0 = [0] * cone.rank
                    for h in cone.facet_normals:
                        if all(dot(h, cone.rays[i]) == 0 for i in mu.rays):
                            u0 = [a + b for a, b in zip(u0, h)]
                    assert dot(u0, n) > 0

    def test_step_generates_the_quotient(self, full_corpus):
        # The span lattice of mu plus the step is a basis of the span lattice
        # of tau: its coordinates there have determinant +-1.  Ranks over Q
        # cannot tell the step from a multiple of it; this can.
        for cone in full_corpus:
            fl = cone.face_lattice()
            for hi, ids in enumerate(fl.children):
                for lo in ids:
                    mu, tau = fl.faces[lo], fl.faces[hi]
                    n = normal_step_vector(mu, tau)
                    coords = lattice_coordinates(span_lattice(tau), span_lattice(mu) + (n,), cone.rank)
                    assert abs(_det([list(c) for c in coords])) == 1

    def test_non_cover_raises(self, quadric_cone):
        fl = quadric_cone.face_lattice()
        with pytest.raises(ValueError, match="cover"):
            normal_step_vector(fl.apex, fl.top)

    def test_cover_pairings_are_the_step_pairings(self, full_corpus):
        # Read off a ray, a contraction's pairings are those of mu's kernel
        # vectors with the step built from the span lattice of tau and
        # Bezout coefficients, in lowest terms and with the same signs:
        # every cover pair of every face cone of the corpus cones and their
        # duals.
        for cone in full_corpus + [dual(c) for c in full_corpus]:
            for face in cone.face_lattice().faces:
                fc = face_cone(cone, face)
                fl = fc.face_lattice()
                for hi, ids in enumerate(fl.children):
                    for lo, c in zip(ids, contractions(fc, hi)):
                        mu, tau = fl.faces[lo], fl.faces[hi]
                        step = normal_step_vector(mu, tau)
                        assert c.pairings == primitive_vector([dot(k, step) for k in mu.perp_frame[1]])


class TestHomogenize:
    def test_square(self):
        cone = cone_over_polytope([(-1, -1), (-1, 1), (1, -1), (1, 1)])
        assert cone.f_vector == (1, 4, 4, 1)

    def test_octahedron(self, octahedron_cone):
        cone = cone_over_polytope(
            [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        )
        assert cone.f_vector == octahedron_cone.f_vector

    def test_interior_points_dropped(self):
        cone = cone_over_polytope([(-1, -1), (-1, 1), (1, -1), (1, 1), (0, 0)])
        assert cone.f_vector == (1, 4, 4, 1)

    def test_degenerate_vertices(self):
        with pytest.raises(ValueError, match="affinely span"):
            cone_over_polytope([(0, 0), (1, 0), (2, 0)])


class TestFaceCone:
    def test_matches_ray_count_and_dim(self, full_corpus):
        for cone in full_corpus:
            fl = cone.face_lattice()
            for face in fl.faces:
                inner = face_cone(cone, face)
                assert inner.rank == face.dim
                assert len(inner.rays) == len(face.rays)
                assert is_simplicial(inner) == (len(face.rays) == face.dim)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_random_cones_well_formed(seed):
    for cone in sample_cones(seed, 3, 2):
        assert dense_matrix(cone.rays, ncols=3).rank() == 3
        assert set(cone.facet_normals) == brute_force_facet_normals(cone.rays, 3)
        f = cone.f_vector
        assert f[0] == f[-1] == 1
        # Euler relation for the boundary of the cross-section polygon
        assert f[1] == f[2]


def test_sample_cones_are_pinned():
    """The cones that verify --random and the test corpora draw: 12 per seed
    1-7 and dimension 2-7, rays, facet normals and incidence, in order."""
    digest = hashlib.sha256()
    for seed in range(1, 8):
        for dim in range(2, 8):
            for cone in sample_cones(seed, dim, 12):
                digest.update(repr(description(cone)).encode())
    assert digest.hexdigest() == "e89e174d8654969d682be7fb3c8682e2fb7c2ea4f704d6ef42d6ce933548cb4b"


def test_sample_cones_rejects_a_negative_count():
    with pytest.raises(ValueError, match="non-negative"):
        sample_cones(0, 3, -1)
    assert sample_cones(0, 3, 0) == []
