import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ambient_reference import (
    AmbientBasis,
    ColumnSolver,
    _det,
    ambient_contraction,
    ambient_interior_product_matrix,
    bareiss_rank,
    dense,
    dense_matrix,
    kernel_basis,
    normalised,
    own_columns,
    wedge_coordinates,
)
from face_reference import lattice_coordinates
from lattice_reference import coordinate_solver, integer_kernel_basis, lattice_block, lattice_contraction, normal_step_vector
from toricish import linalg
from toricish.ishida import contractions, ishida_complex, link_complex
from toricish.linalg import (
    Contraction,
    RatMatrix,
    dot,
    interior_product_matrix,
    primitive_vector,
)
from toricish.sampling import sample_cones


class TestRank:
    def test_identity(self):
        assert dense_matrix([(1, 0, 0), (0, 1, 0), (0, 0, 1)]).rank() == 3

    def test_zero_matrix(self):
        assert dense_matrix(((0,) * 7,) * 3, ncols=7).rank() == 0
        assert dense_matrix((), ncols=4).rank() == 0

    def test_proportional_rows(self):
        assert dense_matrix([(1, 2), (2, 4), (3, 6)]).rank() == 1

    def test_rejects_non_integer_entries(self):
        for bad in (Fraction(1, 2), Fraction(2), 1.0, True):
            with pytest.raises(ValueError, match="integers"):
                dense_matrix([(1, 0), (0, bad)])


class TestKernel:
    """The rational kernel oracle of the tests (ambient_reference)."""

    def test_single_row(self):
        (v,) = kernel_basis([(1, 1)], 2)
        assert v[0] == -v[1] != 0

    def test_identity_has_trivial_kernel(self):
        assert kernel_basis([(1, 0), (0, 1)], 2) == []

    def test_two_rows(self):
        (v,) = kernel_basis([(1, 0, 1), (0, 1, 1)], 3)
        assert v[0] == v[1] == -v[2] != 0

    def test_annihilation_and_count(self):
        m = dense_matrix([(2, 3, 5, 7), (1, 0, 1, 0)])
        basis = kernel_basis(dense(m), m.ncols)
        assert len(basis) == 4 - m.rank()
        for v in basis:
            for row in dense(m):
                assert sum(a * b for a, b in zip(row, v)) == 0


st_small = st.integers(min_value=-6, max_value=6)


@given(st.lists(st.lists(st_small, min_size=3, max_size=3), min_size=1, max_size=5), st.randoms())
@settings(max_examples=40, deadline=None)
def test_rank_invariance_and_nullity(rows, rng):
    m = dense_matrix(rows)
    r = m.rank()
    assert r + len(kernel_basis(rows, m.ncols)) == m.ncols
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert dense_matrix(shuffled).rank() == r
    scaled = [tuple(7 * x for x in rows[0])] + [tuple(r_) for r_ in rows[1:]]
    assert dense_matrix(scaled).rank() == r


@st.composite
def integer_matrices(draw):
    """Sparse (entries 0, +-1), small dense and wide dense integer matrices,
    some rows and columns forced to zero."""
    m, n = draw(st.integers(0, 8)), draw(st.integers(1, 8))
    entry = draw(st.sampled_from((
        st.sampled_from((0, 0, 0, 0, 1, -1)),
        st_small,
        st.integers(-(2**70), 2**70),
    )))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    zero_rows = draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=2))
    return [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(r)] for i, r in enumerate(rows)], n


@given(integer_matrices())
@settings(max_examples=300, deadline=None)
def test_rank_matches_bareiss(matrix):
    rows, n = matrix
    assert dense_matrix(rows, ncols=n).rank() == bareiss_rank(rows, n)


@given(integer_matrices())
@settings(max_examples=100, deadline=None)
def test_dense_sparse_round_trip(matrix):
    rows, n = matrix
    m = dense_matrix(rows, ncols=n)
    assert dense(m) == tuple(map(tuple, rows))
    # Sparse rows hold the nonzero entries only, in increasing column order.
    for row in m.rows:
        assert all(x for _, x in row)
        assert [j for j, _ in row] == sorted({j for j, _ in row})
    again = RatMatrix.from_sparse(m.rows, n)
    assert dense(again) == dense(m)
    assert again.rank() == bareiss_rank(rows, n)
    assert m.is_zero() == (not any(any(r) for r in rows))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_sparse_matmul_matches_dense_product(data):
    m, k, n = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    entry = data.draw(st.sampled_from((st.sampled_from((0, 0, 1, -1)), st_small)))
    a = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m))
    b = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    got = dense_matrix(a, ncols=k).matmul(dense_matrix(b, ncols=n))
    want = tuple(tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)) for i in range(m))
    assert (got.nrows, got.ncols) == (m, n)
    assert dense(got) == want
    assert all(x for row in got.rows for _, x in row)
    assert got.is_zero() == (not any(any(r) for r in want))


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        dense_matrix([(1, 2)]).matmul(dense_matrix([(1, 2)]))


# Entries near 2^40: Hadamard bound about 2^164, above 2^127 - 1 (rank 4).
NEAR_2_40 = [[2**40 + i ** (j + 1) + 3 * j for j in range(4)] for i in range(4)]
# det == 2^127 - 1: rank 2 over Q, rank 1 modulo the first Mersenne prime.
DET_IS_M127 = [(2**64, 1), (1, 2**63)]


def _sparse(rows):
    return [d for d in ({j: x for j, x in enumerate(r) if x} for r in rows) if d]


class TestModularRank:
    def test_bound_above_first_prime_takes_next_rung(self):
        rows = NEAR_2_40
        assert linalg._certified_prime(_sparse(rows)) == 2**521 - 1
        assert dense_matrix(rows).rank() == bareiss_rank(rows, 4) == 4

    def test_minor_equal_to_the_prime(self):
        assert dense_matrix(DET_IS_M127).rank() == 2
        assert linalg._rank_mod(_sparse(DET_IS_M127), 2**127 - 1) == 1

    def test_zero_columns_do_not_certify(self):
        # With the zero column counted, the column product would be 0.
        rows = [(2**64, 1, 0), (1, 2**63, 0), (2**64, 1, 0)]
        assert linalg._certified_prime(_sparse(rows)) == 2**521 - 1
        assert dense_matrix(rows).rank() == 2

    def test_rows_are_divided_by_their_gcd(self):
        # Scaling a row keeps the rank: rows 2^30000 times a primitive row
        # certify at the first prime, where their own Hadamard bound,
        # 2^120000, lies above every prime tried.
        rows = [(2**30000, 0, 3 * 2**30000), (0, 5 * 2**30000, 2**30000)]
        assert dense_matrix(rows).rank() == 2
        with pytest.raises(ArithmeticError):
            linalg._certified_prime(_sparse(rows))

    def test_past_the_last_rung_raises(self, monkeypatch):
        monkeypatch.setattr(linalg, "MERSENNE_EXPONENTS", (127,))
        rows = NEAR_2_40
        with pytest.raises(ArithmeticError):
            dense_matrix(rows).rank()


def test_complex_ranks_match_bareiss(full_corpus):
    """Every differential of every Ishida complex, and of the complexes over
    the faces containing each face (link_complex_cohomology), on the corpus,
    against the rank of its dense matrix in the complex's own columns."""
    for cone in full_corpus:
        fl = cone.face_lattice()
        complexes = [ishida_complex(cone, l) for l in range(cone.rank + 1)]
        complexes += [
            link_complex(cone, mu, l) for mu in fl.faces if mu.dim for l in range(mu.dim, cone.rank + 1)
        ]
        for cx in complexes:
            for s, d in enumerate(cx.differentials):
                assert d.rank() == bareiss_rank(dense(own_columns(cone, cx, s)), d.ncols)


class TestPrimitive:
    def test_examples(self):
        assert primitive_vector((2, 4, 6)) == (1, 2, 3)
        assert primitive_vector((0, -5)) == (0, -1)
        assert primitive_vector((3, 7)) == (3, 7)

    def test_rejects_non_integer_input(self):
        for bad in ((Fraction(1, 2), Fraction(3, 2)), (Fraction(2), 4), (1.0, 2)):
            with pytest.raises(TypeError):
                primitive_vector(bad)

    def test_zero_vector(self):
        with pytest.raises(ValueError, match="primitive"):
            primitive_vector((0, 0, 0))

    @given(st.lists(st_small, min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_gcd_one(self, v):
        if not any(v):
            return
        import math

        p = primitive_vector(v)
        g = 0
        for x in p:
            g = math.gcd(g, x)
        assert g == 1


class TestIntegerKernel:
    """The lattice oracle's integer kernel (lattice_reference)."""

    def test_saturated(self):
        (v,) = integer_kernel_basis([(2, 4)], 2)
        assert sorted(map(abs, v)) == [1, 2]

    def test_empty_rows(self):
        basis = integer_kernel_basis([], 3)
        assert len(basis) == 3

    def test_annihilation(self):
        rows = [(1, 2, 3, 4), (0, 1, 1, 0)]
        basis = integer_kernel_basis(rows, 4)
        assert len(basis) == 2
        for v in basis:
            for r in rows:
                assert sum(a * b for a, b in zip(r, v)) == 0


def free_basis(face) -> tuple[tuple[Fraction, ...], ...]:
    """The free-coordinate basis of perp(face): each kernel vector divided
    by its value D at its free column, so that it restricts to a unit vector
    on the free columns."""
    free, kernel = face.perp_frame
    return tuple(tuple(Fraction(x, k[s]) for x in k) for s, k in zip(free, kernel))


def _assert_free_frames(cones):
    """Each face's frame against the Gauss-Jordan kernel of the rational
    oracle, whose basis vectors are 1 at one free column and 0 at the
    others: the same free columns and, divided by D, the same vectors, with
    one D > 0 for the face.  For every cover pair mu < tau, free(tau) is
    free(mu) without the column q0 of the pair's contraction, the first
    free column where the pairings are nonzero."""
    for cone in cones:
        n = cone.rank
        fl = cone.face_lattice()
        for face in fl.faces:
            free, kernel = face.perp_frame
            assert len(free) == len(kernel) == n - face.dim and free == tuple(sorted(free))
            assert len({k[s] for s, k in zip(free, kernel)}) <= 1 and all(k[s] > 0 for s, k in zip(free, kernel))
            assert all(type(x) is int for k in kernel for x in k)
            assert free_basis(face) == tuple(kernel_basis(face.vectors, n))
            for mu_id, c in zip(fl.children[face.index], contractions(cone, face.index)):
                mu_free = fl.faces[mu_id].perp_frame[0]
                assert not any(c.pairings[: c.q0]) and c.pairings[c.q0]
                assert free == mu_free[: c.q0] + mu_free[c.q0 + 1:]


def test_free_frames_of_the_full_corpus(full_corpus):
    _assert_free_frames(full_corpus)


def test_free_frames_of_sampled_cones():
    _assert_free_frames([c for dim in (3, 4, 5, 6) for c in sample_cones(11, dim, 3)])


@given(st.lists(st.lists(st.integers(-4, 4), min_size=5, max_size=5), max_size=5))
@settings(max_examples=80, deadline=None)
def test_free_kernel_matches_gauss_jordan(rows):
    """linalg.free_kernel on any integer rows, dependent or zero ones too."""
    free, kernel = linalg.free_kernel(rows, 5)
    assert tuple(tuple(Fraction(x, k[s]) for x in k) for s, k in zip(free, kernel)) == tuple(kernel_basis(rows, 5))


@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)))
@settings(max_examples=80, deadline=None)
def test_scaled_inverse_is_a_positive_multiple_of_the_inverse(a):
    """A times the columns of scaled_inverse(A) is D times the identity,
    with one D > 0, for every invertible integer A."""
    assume(_det(a) != 0)
    cols = linalg.scaled_inverse(a)
    n = len(a)
    assert len(cols) == n and all(len(c) == n and all(type(x) is int for x in c) for c in cols)
    d = dot(a[0], cols[0])
    assert d > 0
    assert [[dot(row, c) for c in cols] for row in a] == [[d * (i == j) for j in range(n)] for i in range(n)]


@given(st.lists(st.tuples(st_small, st_small, st_small, st_small), min_size=1, max_size=3), st.lists(st_small, min_size=3, max_size=3))
@settings(max_examples=80, deadline=None)
def test_coordinate_solver_matches_back_substitution(basis, coeffs):
    """coordinate_solver's dual, divided by det, gives the oracle's
    coordinates, and its checks and remainders reject what the oracle
    rejects: vectors outside the span or outside the lattice."""
    if dense_matrix(basis, ncols=4).rank() != len(basis):
        with pytest.raises(ValueError, match="dependent"):
            coordinate_solver(basis, 4)
        return
    dual, checks, det = coordinate_solver(basis, 4)
    assert det > 0 and len(dual) == len(basis) and len(checks) == 4 - len(basis)
    inside = tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(4))
    for v in [inside, *(tuple(int(i == k) for i in range(4)) for k in range(4))]:
        try:
            (want,) = lattice_coordinates(basis, [v], 4)
        except ValueError:
            want = None
        got = [divmod(dot(d, v), det) for d in dual]
        if any(dot(c, v) for c in checks) or any(r for _, r in got):
            assert want is None
        else:
            assert tuple(x for x, _ in got) == want
    assert lattice_coordinates(basis, [inside], 4) == (tuple(coeffs[: len(basis)]),)


def _free_block(pairings, k):
    """The contraction by pairings / |pairings[q0]| from degree k of Q^p,
    in ambient wedge coordinates: the oracle of normalised(Contraction)."""
    p = len(pairings)
    q0 = next(i for i, x in enumerate(pairings) if x)
    units = tuple(tuple(int(i == j) for j in range(p)) for i in range(p))
    # ker phi, restricting to the unit vectors of the coordinates but q0
    kernel = tuple(tuple(Fraction(-pairings[j], pairings[q0]) if i == q0 else int(i == j) for i in range(p)) for j in range(p) if j != q0)
    step = tuple(Fraction(x, abs(pairings[q0])) for x in pairings)
    return [list(r) for r in ambient_contraction(AmbientBasis(units, k, p), AmbientBasis(kernel, k - 1, p), step)]


class TestInteriorProduct:
    """The free-coordinate blocks of linalg.Contraction, and the checks of
    the lattice oracle (lattice_reference.LatticeContraction)."""

    def test_degree_one_contraction(self):
        m = interior_product_matrix(Contraction((1, 0)), 1, 0, 1)
        assert dense(m) == ((1, 0),)
        assert m.rows == (((0, 1),),)
        assert dense(lattice_block(lattice_contraction(((1, 0), (0, 1)), ((0, 1),), (1, 0)), 1)) == ((1, 0),)

    def test_zero_functional_raises(self):
        with pytest.raises(ValueError, match="functional is zero"):
            Contraction((0, 0))
        with pytest.raises(ValueError, match="functional is zero"):
            lattice_contraction(((1, 0), (0, 1)), ((0, 1),), (0, 0))

    def test_step_must_annihilate_target(self):
        with pytest.raises(ValueError, match="annihilate"):
            lattice_contraction(((1, 0), (0, 1)), ((1, 0),), (1, 0))

    def test_image_outside_target_raises(self):
        # source Q^3, target spanned by e3 only: the contraction by e1
        # hits e2 wedges, which are not multiples of e3, as the target's
        # rank is not one below the source's
        with pytest.raises(ValueError, match="one below"):
            lattice_contraction(((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 0, 1),), (1, 0, 0))

    def test_source_degree_at_least_one(self):
        with pytest.raises(ValueError, match="at least 1"):
            interior_product_matrix(Contraction((1, 0)), 0, 0, 1)
        with pytest.raises(ValueError, match="at least 1"):
            lattice_block(lattice_contraction(((1, 0), (0, 1)), ((0, 1),), (1, 0)), 0)

    def test_one_pairing_per_source_vector(self):
        with pytest.raises(ValueError, match="one pairing per"):
            lattice_contraction(((1, 0), (0, 1)), ((0, 1),), (1, 0, 0))

    def test_double_contraction_vanishes(self):
        # iota_a iota_b + iota_b iota_a = 0 in free coordinates: Q^3 loses
        # column 0 and then 1, or 1 and then 0, on the way to Q^{2}; the
        # two paths cancel, and neither is zero
        paths = []
        for first_pairings in ((1, 0, 0), (0, 1, 0)):
            first = interior_product_matrix(Contraction(first_pairings), 2, 0, 1)
            second = interior_product_matrix(Contraction((1, 0)), 1, 0, 1)
            paths.append(dense(second.matmul(first)))
        assert paths == [((1, 0, 0),), ((-1, 0, 0),)]

    def test_q0_is_dropped_from_the_target(self):
        # phi = (0, 2, 3): q0 = 1, so the rows are the subsets of {0, 2};
        # iota(e0 ^ e1) = -2 e0, iota(e0 ^ e2) = -3 e0, iota(e1 ^ e2) = 2 e2
        # - 3 e1, whose e1 term is dropped
        c = Contraction((0, 2, 3))
        assert (c.q0, c.denominator) == (1, 2)
        assert dense(interior_product_matrix(c, 2, 0, 1)) == ((-2, -3, 0), (0, 0, 2))
        assert normalised(c, 2) == _free_block((0, 2, 3), 2)

    def test_offset_and_factor_shift_labels_and_scale_entries(self):
        # a block stored for a complex: its columns moved to where the
        # source face sits in the slot, its entries scaled for the target
        c = Contraction((0, 2, 3))
        base = interior_product_matrix(c, 2, 0, 1)
        moved = interior_product_matrix(c, 2, 6, 5)
        assert (moved.nrows, moved.ncols) == (base.nrows, base.ncols) == (2, 3)
        assert moved.rows == tuple(tuple((j + 6, 5 * x) for j, x in row) for row in base.rows)
        assert moved.rows == (((6, -10), (7, -15)), ((8, 10),))

    def test_pairings_without_a_unit(self):
        # No pairing is +-1: the block is read as (2, 3) / 2, and (4, 6) is
        # kept in lowest terms, so both give the same block.
        for step in ((2, 3), (4, 6), (-4, -6)):
            c = Contraction(step)
            assert c.pairings == tuple(x // math.gcd(*step) for x in step) and c.denominator == 2
            assert normalised(c, 2) == _free_block(step, 2) == [[Fraction(step[0] // abs(step[0]))]]
        # The lattice oracle builds the projection from a Bezout combination:
        # iota(e1 ^ e2) = 2 e2 - 3 e1 = -(3, -2), and twice that for (4, 6).
        src, tgt = ((1, 0), (0, 1)), ((3, -2),)
        assert dense(lattice_block(lattice_contraction(src, tgt, (2, 3)), 2)) == ((-1,),)
        assert dense(lattice_block(lattice_contraction(src, tgt, (4, 6)), 2)) == ((-2,),)
        for step in ((2, 3), (4, 6)):
            _assert_same_block(AmbientBasis(src, 2, 2), AmbientBasis(tgt, 1, 2), step)
        src, tgt = ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((3, -2, 0), (0, 0, 1))
        for step in ((2, 3, 0), (-4, -6, 0)):
            _assert_same_block(AmbientBasis(src, 2, 3), AmbientBasis(tgt, 1, 3), step)

    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_free_contraction(self, pairings, data):
        # Any nonzero functional on Q^p, at any source degree, against the
        # ambient contraction onto its kernel in the coordinates but q0.
        if not any(pairings):
            return
        k = data.draw(st.integers(1, len(pairings)))
        assert normalised(Contraction(pairings), k) == _free_block(pairings, k)

    @given(st.lists(st.tuples(st_small, st_small, st_small, st_small), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_random_chain_contraction(self, u):
        # The lattice oracle on a random 3-dim subspace of Q^4 and a step
        # vector annihilating a 2-dim subspace of it: the column blocks must
        # match the alternating-sum definition by hand.
        if dense_matrix(u).rank() != 3:
            return
        kern = integer_kernel_basis(u[1:], 4)
        step = next((v for v in kern if sum(a * b for a, b in zip(v, u[0]))), None)
        if step is None:
            return
        a = dense(lattice_block(lattice_contraction(tuple(u), tuple(u[1:]), [dot(v, step) for v in u]), 2))
        # hand expansion: image of u0 ^ u1 is <u0, step> u1, of u0 ^ u2 is
        # <u0, step> u2, of u1 ^ u2 is zero (step annihilates both factors)
        pairing = sum(x * y for x, y in zip(u[0], step))
        assert a[0][0] == pairing and a[1][0] == 0
        assert a[0][1] == 0 and a[1][1] == pairing
        assert a[0][2] == 0 and a[1][2] == 0


def test_wedge_basis_conventions():
    basis = AmbientBasis(((1, 0, 0), (0, 1, 0)), 0, 3)
    assert basis.subsets == ((),) and basis.dim == 1
    basis = AmbientBasis(((1, 0, 0), (0, 1, 0)), 3, 3)
    assert basis.subsets == () and basis.dim == 0
    basis = AmbientBasis(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 2, 3)
    assert basis.dim == 3
    assert basis.subsets == ((0, 1), (0, 2), (1, 2))


def test_wedge_coordinates_sign():
    # swapping two vectors flips every minor
    plus = wedge_coordinates([(1, 0, 0), (0, 1, 0)], 3)
    minus = wedge_coordinates([(0, 1, 0), (1, 0, 0)], 3)
    assert [a + b for a, b in zip(plus, minus)] == [0, 0, 0]


def test_column_solver_outside_span():
    solver = ColumnSolver([(1, 0, 0), (0, 1, 0)], 3)
    assert solver.solve((2, 3, 0)) == (2, 3)
    assert solver.solve((0, 0, 1)) is None


class TestLatticeCoordinates:
    def test_coordinates(self):
        basis = ((1, 1, 0), (0, 1, 1))
        assert lattice_coordinates(basis, [(2, 5, 3), (0, 0, 0)], 3) == ((2, 3), (0, 0))

    def test_outside_span(self):
        with pytest.raises(ValueError, match="outside the span"):
            lattice_coordinates(((1, 0, 0),), [(0, 1, 0)], 3)

    def test_outside_lattice(self):
        with pytest.raises(ValueError, match="not in the lattice"):
            lattice_coordinates(((2, 0),), [(1, 0)], 2)


def test_unsaturated_target_raises():
    # <2 e2> has index 2 in <e1, e2>: the lattice oracle's projection is
    # not integral
    with pytest.raises(ValueError, match="saturated"):
        lattice_contraction(((1, 0), (0, 1)), ((0, 2),), (1, 0))


def _assert_same_block(src, tgt, step):
    """The lattice oracle, given the pairings of the step with the source
    basis, and the ambient reference, given the step, agree entry for entry,
    or raise the same ValueError."""
    pairings = [dot(v, step) for v in src.vectors]
    try:
        expected = ambient_interior_product_matrix(src, tgt, step)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            lattice_block(lattice_contraction(src.vectors, tgt.vectors, pairings), src.degree)
        return
    got = lattice_block(lattice_contraction(src.vectors, tgt.vectors, pairings), src.degree)
    assert (got.nrows, got.ncols) == (expected.nrows, expected.ncols)
    assert got.rows == expected.rows
    assert all(type(x) is int for row in got.rows for _, x in row)


def test_blocks_match_ambient_reference(full_corpus):
    """Every block of every cover pair at every source degree, divided by
    its denominator, equals the ambient contraction from the free basis of
    perp(mu) to that of perp(tau) (kernel vectors over D) by the lattice
    step scaled to pair to +-1 with the free basis vector at q0: the
    volume-normalised step."""
    for cone in full_corpus:
        fl = cone.face_lattice()
        n = cone.rank
        for tid, ids in enumerate(fl.children):
            tau = fl.faces[tid]
            for mid, c in zip(ids, contractions(cone, tid)):
                mu = fl.faces[mid]
                src, tgt, u = free_basis(mu), free_basis(tau), normal_step_vector(mu, tau)
                step = tuple(Fraction(x, abs(dot(src[c.q0], u))) for x in u)
                for k in range(1, len(src) + 1):
                    want = ambient_contraction(AmbientBasis(src, k, n), AmbientBasis(tgt, k - 1, n), step)
                    assert normalised(c, k) == [list(r) for r in want], (cone, mu.rays, tau.rays, k)


def _unimodular(n, ops):
    """A product of elementary integer row operations, with its inverse."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    ginv = [row[:] for row in g]
    for i, j, c in ops:
        i, j = i % n, j % n
        if i == j:
            continue
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
        for row in ginv:
            row[j] -= c * row[i]
    return g, ginv


def _mix(rows, ops):
    """Another basis of the lattice spanned by the rows."""
    rows = [list(r) for r in rows]
    for i, j, c in ops:
        if len(rows) > 1 and i % len(rows) != j % len(rows):
            rows[i % len(rows)] = [a + c * b for a, b in zip(rows[i % len(rows)], rows[j % len(rows)])]
    return tuple(tuple(r) for r in rows)


st_ops = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-2, 2)), max_size=8)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_random_saturated_chains_match_ambient_reference(data):
    # g_0..g_{n-1} is a random basis of Z^n.  The source is <g_0..g_{p-1}>,
    # the target <g_1..g_{p-1}>, each in a random basis of its own; both are
    # saturated.  The step pairs to zero with g_1..g_{p-1}, to a nonzero
    # value with g_0 and arbitrarily with the rest.
    n = data.draw(st.sampled_from((4, 5)))
    p = data.draw(st.integers(1, n))
    g, ginv = _unimodular(n, data.draw(st_ops))
    source = _mix(g[:p], data.draw(st_ops))
    target = _mix(g[1:p], data.draw(st_ops))
    coeffs = [data.draw(st.integers(-3, 3).filter(bool))] + [0] * (p - 1)
    coeffs += [data.draw(st.integers(-3, 3)) for _ in range(n - p)]
    step = tuple(sum(c * row[j] for j, c in enumerate(coeffs)) for row in ginv)
    for k in range(1, p + 1):
        _assert_same_block(AmbientBasis(source, k, n), AmbientBasis(target, k - 1, n), step)
