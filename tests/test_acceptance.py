"""Acceptance suite: one test per criterion, exact integer equality
throughout (no tolerances exist anywhere in the package)."""

import json
from pathlib import Path

from click.testing import CliRunner

from face_reference import degree_zero_cohomology, face_cone
from paper_reference import (
    euler_h1_prediction,
    ext_dims_simplicial_class,
    hodge_deligne_from_table,
    quotient_cone,
)
from toricish.cli import cli
from toricish.combinatorics import (
    h_tilde_vector,
    h_vector,
    hodge_deligne_coefficients,
    hodge_du_bois_table,
)
from toricish.cones import is_simple_in_dim, is_simplicial
from toricish.decomposition import (
    admissible_pairs,
    ic_multiplicities,
    multiplicities_from_cohomology,
)
from toricish.ishida import (
    ext_table,
    facet_inequalities_report,
    lcdef,
    verify_codim_vanishing,
    verify_d_squared,
    verify_dualizing_exactness,
    verify_link_exactness,
    verify_surjectivity,
)
from toricish.shelling import is_shelling, shelling

DATA = Path(__file__).parent / "data"


def report(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_1_binomial_hypersurface_golden(binomial_cone):
    """Golden reproduction of the singular cubic fourfold data."""
    assert binomial_cone.f_vector == (1, 9, 18, 15, 6, 1)
    runner = CliRunner()
    res = runner.invoke(cli, ["hodge", str(DATA / "binomial_hypersurface.json")])
    assert res.exit_code == 0
    data = json.loads(res.output)
    expected_table = [
        [1, 0, 0, 0, 0],
        [0, 1, 0, 1, 0],
        [0, 0, 1, 4, 0],
        [0, 0, 0, 5, 0],
        [0, 0, 0, 0, 1],
    ]
    assert data["hodge_du_bois"] == expected_table
    row_q3 = [data["hodge_du_bois"][p][3] for p in range(5)]
    assert row_q3 == [0, 1, 4, 5, 0]
    diag = [data["hodge_du_bois"][p][p] for p in range(5)]
    assert diag == [1, 1, 1, 5, 1]
    report(1, "f-vector (1,9,18,15,6,1) and the Hodge-Du Bois diamond reproduced exactly")


def test_criterion_2_closed_forms_vs_direct(simplicial_class_corpus, simple_class_corpus):
    """>= 50 seeded cones per class, dims 3-5: direct multiplicities equal
    the closed forms entry by entry."""
    assert len(simplicial_class_corpus) >= 50
    assert len(simple_class_corpus) >= 50
    for cone in simplicial_class_corpus:
        direct = multiplicities_from_cohomology(cone)
        h = h_vector(cone.f_vector)
        for (l, j) in admissible_pairs(cone.rank):
            expected = h[j] - h[j - 1] if l == cone.rank - 2 * j - 1 else 0
            assert direct.get(l, j) == expected, (cone, l, j)
    for cone in simple_class_corpus:
        direct = multiplicities_from_cohomology(cone)
        ht = h_tilde_vector(cone.f_vector)
        for (l, j) in admissible_pairs(cone.rank):
            expected = ht[j] - ht[j - 1] if l == 0 else 0
            assert direct.get(l, j) == expected, (cone, l, j)
    report(
        2,
        f"direct route equals closed forms on {len(simplicial_class_corpus)} simplicial-class "
        f"and {len(simple_class_corpus)} simple-class cones",
    )


def test_criterion_3_depth_property_suites(full_corpus):
    """On the full corpus (dims 3-6): complexes square to zero, the top
    complex resolves the dualizing sheaf, top cohomology of each graded
    piece vanishes up to half the dimension, codimension vanishing holds,
    and link complexes of simplicial quotients are exact."""
    failures = []
    for cone in full_corpus:
        for check in (verify_d_squared, verify_dualizing_exactness, verify_surjectivity, verify_codim_vanishing):
            rep = check(cone)
            if not rep["ok"]:
                failures.append((cone, rep))
        fl = cone.face_lattice()
        for face in fl.faces:
            if face.dim == 0 or not is_simplicial(quotient_cone(cone, face)):
                continue
            rep = verify_link_exactness(cone, face)
            if not rep["ok"]:
                failures.append((cone, rep))
    assert not failures, failures
    report(3, f"zero failures across {len(full_corpus)} corpus cones (dims 3-6)")


def test_criterion_4_lcdef_trichotomy(quadric_cone, octahedron_cone, cube_cone, full_corpus):
    assert lcdef(quadric_cone) == 0
    assert lcdef(octahedron_cone) == 1 == octahedron_cone.rank - 3
    assert lcdef(cube_cone) == 0
    for cone in full_corpus:
        c_min = next(c for c in range(cone.rank + 1) if is_simple_in_dim(cone, c))
        assert lcdef(cone) <= max(0, c_min - 1), cone
    report(4, "defect 0/1/0 on quadric/octahedron/cube cones; corpus bound lcdef <= max(0, c-1)")


def test_criterion_5_ext_closed_form_cross_validation(simplicial_class_corpus):
    for cone in simplicial_class_corpus:
        predicted = ext_dims_simplicial_class(cone)
        table = ext_table(cone)
        top = cone.face_lattice().top.index
        computed = {
            (i, k): d for (fid, i, k), d in table.assembled.items() if i > 0 and fid == top
        }
        assert predicted == computed, cone
        assert all(fid == top for (fid, i, _k) in table.assembled if i > 0), cone
        if cone.rank % 2 == 0:
            k_mid = cone.rank // 2
            assert all(table.assembled.get((top, i, k_mid), 0) == 0 for i in range(1, cone.rank + 1))
    report(5, f"closed-form Ext tables match computed tables on {len(simplicial_class_corpus)} cones")


def test_criterion_6_euler_identity(simple_class_corpus, binomial_cone, cube_cone):
    cones = list(simple_class_corpus) + [binomial_cone, cube_cone]
    checked = 0
    for cone in cones:
        n = cone.rank
        f = cone.f_vector
        for j in range(1, (n + 1) // 2):
            assert euler_h1_prediction(f, n, j) == degree_zero_cohomology(cone, n - j)[1], (cone, j)
            checked += 1
    report(6, f"{checked} Euler-characteristic identities verified exactly")


def test_criterion_7_hodge_deligne_consistency(simple_class_corpus, binomial_cone):
    for cone in list(simple_class_corpus) + [binomial_cone]:
        table = hodge_du_bois_table(cone.f_vector)
        assert hodge_deligne_from_table(table) == hodge_deligne_coefficients(cone.f_vector), cone
    report(7, "Betti data from the tables matches the Hodge-Deligne expansion on every simple polytope")


def test_criterion_8_shelling(full_corpus, quadric_cone):
    for cone in full_corpus:
        result = shelling(cone)
        assert is_shelling(cone, result.order), cone
    fl = quadric_cone.face_lattice()
    facets = [fl.faces[i].rays for i in fl.by_dim[2]]
    first = facets[0]
    opposite = next(f for f in facets if not set(f) & set(first))
    bad = [first, opposite] + [f for f in facets if f not in (first, opposite)]
    assert not is_shelling(quadric_cone, bad)
    report(8, "all produced shellings verify; the known-bad quadric order fails")


def test_criterion_9_dim5_inequalities_and_dim6_undetermined(full_corpus, pyramid_tower_cone):
    count5 = 0
    for cone in full_corpus:
        if cone.rank != 5:
            continue
        fl = cone.face_lattice()
        h_sigma = degree_zero_cohomology(cone, 3)
        s1 = sum(degree_zero_cohomology(face_cone(cone, fl.faces[i]), 3)[1] for i in fl.by_dim[4])
        s2 = sum(degree_zero_cohomology(face_cone(cone, fl.faces[i]), 3)[2] for i in fl.by_dim[4])
        assert s1 >= h_sigma[1] and s2 <= h_sigma[2], cone
        assert facet_inequalities_report(cone)["ok"], cone
        count5 += 1
    assert count5 >= 2
    m = multiplicities_from_cohomology(pyramid_tower_cone)
    assert m.undetermined == ((0, 2), (1, 2))
    assert all(m.get(l, 1) is not None for l in range(4))
    for cone in full_corpus:
        if cone.rank == 6:
            table = ic_multiplicities(cone)
            for (l, j) in table.undetermined:
                assert (l, j) in {(0, 2), (1, 2)}
    report(9, f"dim-5 inequalities hold on {count5} cones; dim-6 runs flag (0,2),(1,2) undetermined")
