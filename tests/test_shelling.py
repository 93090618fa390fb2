import itertools
import json
import random

import pytest
from click.testing import CliRunner

import toricish.shelling as shelling_module
from paper_reference import cross_vertices, cube_vertices, dual, simplex_product_vertices
from shelling_reference import _find_shelling as reference_find_shelling, reference_certify, reference_shelling
from toricish.cli import cli
from toricish.cones import Cone, cone_over_polytope, mask_of
from toricish.sampling import sample_cones
from toricish.shelling import is_shelling, shelling

ORACLE_SEED = 7


def facet_ray_tuples(cone):
    fl = cone.face_lattice()
    return [fl.faces[i].rays for i in fl.by_dim[cone.rank - 1]]


def test_two_dim_cone_both_orders(quadric_cone):
    c2 = Cone.from_rays([(1, 0), (1, 3)])
    facets = facet_ray_tuples(c2)
    assert is_shelling(c2, facets)
    assert is_shelling(c2, list(reversed(facets)))


def test_orthant_any_order(orthant):
    facets = facet_ray_tuples(orthant)
    for perm in itertools.permutations(facets):
        assert is_shelling(orthant, list(perm))


def test_quadric_brute_force(quadric_cone):
    """All 4! orders checked; the valid ones are exactly those not starting
    with an opposite pair of facets."""
    facets = facet_ray_tuples(quadric_cone)
    valid = [p for p in itertools.permutations(facets) if is_shelling(quadric_cone, list(p))]
    assert len(valid) == 16
    for p in valid:
        assert set(p[0]) & set(p[1]), "first two facets of a valid order must meet in a ray"


def test_known_bad_order_fails(quadric_cone):
    facets = facet_ray_tuples(quadric_cone)
    first = facets[0]
    opposite = next(f for f in facets if not set(f) & set(first))
    rest = [f for f in facets if f not in (first, opposite)]
    assert not is_shelling(quadric_cone, [first, opposite] + rest)


def test_not_a_permutation_fails(quadric_cone):
    facets = facet_ray_tuples(quadric_cone)
    assert not is_shelling(quadric_cone, facets[:-1])
    assert not is_shelling(quadric_cone, facets + [facets[0]])
    # the quadric cone has rays 0..3
    for bad in (-1, 4):
        assert not is_shelling(quadric_cone, [(facets[0][0], bad)] + facets[1:])


def test_shelling_output_verifies(full_corpus):
    for cone in full_corpus:
        result = shelling(cone)
        assert is_shelling(cone, result.order), cone
        assert len(result.order) == len(facet_ray_tuples(cone))


def test_printed_order_is_a_shelling(full_corpus, tmp_path):
    """The command reports "verified" from shelling()'s one certification;
    is_shelling, run apart on the printed order, accepts it."""
    runner = CliRunner()
    for i, cone in enumerate(full_corpus):
        path = tmp_path / f"cone{i}.json"
        path.write_text(json.dumps({"lattice_rank": cone.rank, "rays": [list(r) for r in cone.rays]}))
        res = runner.invoke(cli, ["shelling", str(path)], catch_exceptions=False)
        assert res.exit_code == 0, cone
        data = json.loads(res.output)
        assert data["verified"] is True
        assert is_shelling(cone, data["order"]), cone


def test_certificates_shape(octahedron_cone):
    result = shelling(octahedron_cone)
    assert len(result.certificates) == len(result.order)
    for j, cert in enumerate(result.certificates):
        assert cert.facet == result.order[j]
        if j > 0:
            assert cert.prefix, "every later facet must cover part of its boundary"
        # the prefix is an initial segment of the extension
        assert cert.extension[: len(cert.prefix)] == cert.prefix


def test_deterministic(binomial_cone):
    a = shelling(binomial_cone)
    b = shelling(binomial_cone)
    assert a.order == b.order and a.direction_index == b.direction_index


def oracle_corpus(full_corpus):
    return full_corpus + [c for dim in (3, 4, 5) for c in sample_cones(ORACLE_SEED, dim, 4)]


def test_shelling_matches_reference(full_corpus, named_corpus):
    """The memoised search in integers returns, field for field, what the
    unmemoised reference search in Fractions returns: the same crossing
    order and direction index, so the common denominator of the integer
    crossing parameters changes no order, tie or sign.  The duals and the
    cones of rank 1 and 2 add facet normals of other shapes."""
    low = [Cone.from_rays([(1,)]), Cone.from_rays([(1, 0), (1, 3)])]
    for cone in oracle_corpus(full_corpus) + [dual(c) for c in named_corpus] + low:
        got, want = shelling(cone), reference_shelling(cone)
        assert got.order == want.order, cone
        assert got.direction_index == want.direction_index, cone
        assert got.certificates == want.certificates, cone


def test_is_shelling_matches_reference_on_permuted_orders(named_corpus):
    """Random facet orders, most of them not shellings: the verdict and the
    certificates agree with the reference certification.  On the rank-5
    cones, inner sub-searches of one face are reached with prefixes that
    differ in outcome, which the shelling search itself never meets here."""
    rng = random.Random(ORACLE_SEED)
    cones = named_corpus + [c for dim in (3, 4) for c in sample_cones(ORACLE_SEED, dim, 3)]
    verdicts = set()
    for cone in cones:
        fl = cone.face_lattice()
        facets = [fl.faces[i] for i in fl.by_dim[cone.rank - 1]]
        for _ in range(40):
            rng.shuffle(facets)
            want = reference_certify(fl, facets)
            assert is_shelling(cone, [f.rays for f in facets]) == (want is not None), cone
            assert shelling_module._certify(fl, facets) == want, cone
            verdicts.add(want is not None)
    assert verdicts == {True, False}


def test_search_step_budget(cube_cone, monkeypatch, tmp_path):
    """The facets of the cone over the 3-cube are squares, which take
    search steps; a triangle, a simplex, would take none."""
    monkeypatch.setattr(shelling_module, "MAX_SEARCH_STEPS", 1)
    with pytest.raises(RuntimeError, match="shelling search exceeded 1 steps"):
        shelling(cube_cone)
    path = tmp_path / "cube.json"
    path.write_text(json.dumps({"lattice_rank": 4, "rays": [list(r) for r in cube_cone.rays]}))
    res = CliRunner().invoke(cli, ["shelling", str(path)], catch_exceptions=False)
    assert res.exit_code == 3
    assert "shelling search exceeded" in res.output


def test_simplex_rule_matches_reference(full_corpus):
    """On a simplex, _find_shelling answers without a search: the prefix
    facets in index order, then the rest in index order, drawing no step.
    For every simplicial face of dimension 3 to 6 in the corpus and every
    set of its facets as the prefix, that is what the reference search
    returns."""
    checked = 0
    for cone in full_corpus:
        fl = cone.face_lattice()
        below = [mask_of(ids) for ids in fl.children]
        for face in fl.faces:
            if not (3 <= face.dim <= 6 and len(face.rays) == face.dim):
                continue
            facets = fl.children[face.index]
            for size in range(len(facets) + 1):
                for prefix in itertools.combinations(facets, size):
                    steps = itertools.count()
                    got = shelling_module._find_shelling(fl, below, face, mask_of(prefix), {}, steps)
                    assert got == reference_find_shelling(fl, face, frozenset(prefix), {}), (cone, face, prefix)
                    assert next(steps) == 0
                    checked += 1
    assert checked > 1000


def test_disconnected_prefix_fails_within_the_step_budget(monkeypatch):
    """Cone over the prism over a 26-gon, facets ordered bottom, the sides
    over edges 1..23 and 25, top, then the rest.  The top facet meets its
    predecessors in the path of edges 1..23 plus the separate edge 25, which
    no shelling of the polygon starts with.  Every order of that prefix
    fails; the search marks each dead partial order once and answers False
    in under 1,000 steps, where walking the orders again takes about 2^23."""
    m = 26
    polygon = [(i, i * i) for i in range(m)]
    cone = cone_over_polytope([p + (z,) for z in (0, 1) for p in polygon])
    fl = cone.face_lattice()

    def facet(points):
        return next(
            fl.faces[i].rays for i in fl.by_dim[3] if {cone.rays[j][:3] for j in fl.faces[i].rays} == points
        )

    bottom, top = (facet({p + (z,) for p in polygon}) for z in (0, 1))
    sides = [facet({polygon[i] + (z,) for i in (k, (k + 1) % m) for z in (0, 1)}) for k in range(m)]
    order = [bottom, *sides[:23], sides[24], top, sides[23], sides[25]]
    monkeypatch.setattr(shelling_module, "MAX_SEARCH_STEPS", 1_000)
    assert is_shelling(cone, order) is False
    # the prefix before the top facet is fine: the failure is the top's
    assert is_shelling(cone, order[:25] + order[26:] + order[25:26]) is True


@pytest.mark.parametrize(
    "vertices, steps",
    [(cross_vertices(6), 0), (cube_vertices(6), 6_176), (simplex_product_vertices((2, 2, 2)), 2_700)],
    ids=["cross6", "cube6", "simplex2-cubed"],
)
def test_search_step_counts_are_pinned(vertices, steps, monkeypatch):
    """The one certification shelling() makes on each of these rank-7 cones
    takes exactly this many extension steps, the counts that the comment on
    MAX_SEARCH_STEPS quotes: that budget passes and one step less raises.
    Every facet of the cone over the cross-polytope is a simplex, which
    takes no step, so it passes with no budget at all.  A search that
    reorders its candidates or does more work fails here."""
    cone = cone_over_polytope(vertices)
    monkeypatch.setattr(shelling_module, "MAX_SEARCH_STEPS", steps)
    assert is_shelling(cone, shelling(cone).order)
    if steps:
        monkeypatch.setattr(shelling_module, "MAX_SEARCH_STEPS", steps - 1)
        with pytest.raises(RuntimeError, match=f"exceeded {steps - 1} steps"):
            shelling(cone)
