import itertools
import math
import sys
import tracemalloc

import pytest

from face_reference import degree_zero_cohomology
from paper_reference import dual, euler_h1_prediction, hodge_deligne_from_table
from shelling_reference import reference_g_polynomial
from toricish.combinatorics import (
    ICStalkPoly,
    betti_numbers,
    g_polynomial,
    h_tilde_vector,
    h_vector,
    hodge_deligne_coefficients,
    hodge_du_bois_table,
)
from toricish.cones import cone_over_polytope
from toricish.sampling import sample_cones


def simplex_cone_f(n):
    """f-vector of the cone over the n-simplex."""
    return [math.comb(n + 1, j) for j in range(n + 2)]


class TestHVector:
    def test_quadric(self):
        assert h_vector((1, 4, 4, 1)) == (1, 2, 1)

    def test_octahedron(self):
        assert h_vector((1, 6, 12, 8, 1)) == (1, 3, 3, 1)

    def test_simplex_cone(self):
        # Betti numbers of projective space
        assert h_vector((1, 4, 6, 4, 1)) == (1, 1, 1, 1)

    def test_symmetric_unimodal_on_class(self, simplicial_class_corpus):
        for cone in simplicial_class_corpus:
            h = h_vector(cone.f_vector)
            assert h == tuple(reversed(h))
            mid = (len(h) + 1) // 2
            assert all(h[i] <= h[i + 1] for i in range(mid - 1))


class TestHTildeVector:
    def test_cube(self):
        assert h_tilde_vector((1, 8, 12, 6, 1)) == (1, 3, 3, 1)

    def test_quadric_agrees_with_h(self):
        # polygons are both simple and simplicial
        assert h_tilde_vector((1, 4, 4, 1)) == h_vector((1, 4, 4, 1))

    def test_binomial_cone(self):
        assert h_tilde_vector((1, 9, 18, 15, 6, 1)) == (1, 2, 3, 2, 1)

    def test_symmetric_unimodal_on_class(self, simple_class_corpus):
        for cone in simple_class_corpus:
            ht = h_tilde_vector(cone.f_vector)
            assert ht == tuple(reversed(ht))
            mid = (len(ht) + 1) // 2
            assert all(ht[i] <= ht[i + 1] for i in range(mid - 1))

    def test_three_expressions_agree(self, simple_class_corpus):
        for cone in simple_class_corpus:
            n = cone.rank
            f = cone.f_vector
            ht = h_tilde_vector(f)
            for j in range(1, (n + 1) // 2):
                diff = ht[j] - ht[j - 1]
                second = sum(
                    (-1) ** l * f[n + l - j] * math.comb(n - j + l, l) for l in range(j + 1)
                )
                third = sum(
                    (-1) ** (j - l) * f[n - l] * math.comb(n - l, j - l) for l in range(j + 1)
                )
                assert diff == second == third


class TestGPolynomial:
    def test_simplicial_cone(self, orthant):
        assert g_polynomial(orthant.face_lattice()).coefficients == (1,)

    def test_quadric(self, quadric_cone):
        assert g_polynomial(quadric_cone.face_lattice()).coefficients == (1, 1)

    def test_octahedron(self, octahedron_cone):
        assert g_polynomial(octahedron_cone.face_lattice()).coefficients == (1, 2)

    def test_cube(self, cube_cone):
        # toric g of the cube: 1 + (f_0 - dim - 1) t for a simple 3-polytope
        # cross-section; the stalk is the primitive part of the intersection
        # cohomology of the proper toric variety of the face fan
        assert g_polynomial(cube_cone.face_lattice()).coefficients == (1, 4)

    def test_agrees_with_h_differences_on_class(self, simplicial_class_corpus):
        for cone in simplicial_class_corpus:
            h = h_vector(cone.f_vector)
            g = g_polynomial(cone.face_lattice()).coefficients
            n = cone.rank
            expected = [1] + [h[j] - h[j - 1] for j in range(1, (n - 1) // 2 + 1)]
            while len(expected) > 1 and expected[-1] == 0:
                expected.pop()
            assert g == tuple(expected)

    def test_degree_bound_and_leading_one(self, full_corpus):
        for cone in full_corpus:
            g = g_polynomial(cone.face_lattice()).coefficients
            assert g[0] == 1
            assert 2 * (len(g) - 1) < max(cone.rank, 1)

    def test_matches_reference(self, full_corpus, simple_class_corpus, simplicial_class_corpus):
        """The per-class sums agree with the all-faces reference recursion,
        also on cones over simple and over simplicial polytopes and on the
        duals of the full corpus."""
        cones = full_corpus + [c for dim in (3, 4, 5) for c in sample_cones(7, dim, 4)]
        cones += simple_class_corpus + simplicial_class_corpus + [dual(c) for c in full_corpus]
        for cone in cones:
            fl = cone.face_lattice()
            assert g_polynomial(fl).coefficients == reference_g_polynomial(fl), cone

    def test_down_sets_are_dropped_once_read(self):
        """On the cone over the 8-cube (6,562 faces), g_polynomial keeps a
        face's down-set only until its last parent has read it: its Python
        heap peak stays below 60% of the size of all the down-sets at once,
        which it kept for the lattice's life before."""
        fl = cone_over_polytope(list(itertools.product((-1, 1), repeat=8))).face_lattice()
        tracemalloc.start()
        try:
            g = g_polynomial(fl).coefficients
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g == (1, 247, 804, 364, 14)
        assert peak < 0.6 * sum(map(sys.getsizeof, fl.down_sets()))

    def test_constant_term_validation(self):
        with pytest.raises(ValueError):
            ICStalkPoly((2, 1))


class TestFVector:
    def test_polytope_counts(self, binomial_cone):
        assert binomial_cone.f_vector == (1, 9, 18, 15, 6, 1)
        assert binomial_cone.f_vector[1:-1] == (9, 18, 15, 6)

    def test_euler_relation_polytope_mode(self, full_corpus):
        for cone in full_corpus:
            if cone.rank < 2:
                continue
            f = cone.f_vector[1:-1]
            total = -1 + sum((-1) ** i * fi for i, fi in enumerate(f))
            assert total == -(-1) ** len(f)


class TestHodgeDeligne:
    def test_projective_space(self):
        for n in (1, 2, 3, 4, 5):
            assert hodge_deligne_coefficients(simplex_cone_f(n)) == (1,) * (n + 1)

    def test_square(self):
        assert hodge_deligne_coefficients((1, 4, 4, 1)) == (1, 2, 1)

    def test_binomial_top_coefficient(self):
        coeffs = hodge_deligne_coefficients((1, 9, 18, 15, 6, 1))
        assert coeffs[3] == 9 - 4
        assert coeffs[0] == 1


class TestHodgeDuBois:
    def test_binomial_diamond(self):
        table = hodge_du_bois_table((1, 9, 18, 15, 6, 1))
        assert [table[p][3] for p in range(5)] == [0, 1, 4, 5, 0]
        assert [table[p][p] for p in range(5)] == [1, 1, 1, 5, 1]
        for p in range(5):
            for q in range(5):
                if p != q and q != 3:
                    assert table[p][q] == 0

    def test_simplex_identity_diamond(self):
        for n in (2, 3, 4, 5):
            table = hodge_du_bois_table(simplex_cone_f(n))
            for p in range(n + 1):
                for q in range(n + 1):
                    assert table[p][q] == (1 if p == q else 0)

    def test_degenerate_dimension(self):
        assert hodge_du_bois_table((1, 2, 1)) == ((1, 0), (0, 1))

    def test_betti_consistency(self, simple_class_corpus, binomial_cone, cube_cone):
        for cone in list(simple_class_corpus) + [binomial_cone, cube_cone]:
            table = hodge_du_bois_table(cone.f_vector)
            assert hodge_deligne_from_table(table) == hodge_deligne_coefficients(cone.f_vector)

    def test_betti_anti_diagonals(self):
        table = hodge_du_bois_table((1, 9, 18, 15, 6, 1))
        assert betti_numbers(table) == (1, 0, 1, 0, 2, 4, 5, 0, 1)
        # Euler characteristic equals the number of facets of the polytope
        assert sum((-1) ** k * b for k, b in enumerate(betti_numbers(table))) == 6


class TestEulerIdentity:
    def test_simple_class(self, simple_class_corpus, binomial_cone, cube_cone):
        for cone in list(simple_class_corpus) + [binomial_cone, cube_cone]:
            n = cone.rank
            f = cone.f_vector
            for j in range(1, (n + 1) // 2):
                predicted = euler_h1_prediction(f, n, j)
                assert predicted == degree_zero_cohomology(cone, n - j)[1], (cone, j)
