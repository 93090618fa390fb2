"""The ray permutations that linear automorphisms of a cone induce, and the
face orbits they give (symmetry.face_orbits), of which core_table ranks one
face each.

The oracle finds the permutations by brute force: a permutation pi of the
rays comes from a Q-linear map exactly when, with every ray written in a
basis B of rays, the images r_pi(b) combine with the same coefficients
to r_pi(i).  It knows nothing of Gram matrices.
"""

import itertools
import math
from fractions import Fraction

import pytest

from face_reference import intrinsic_rows
from paper_reference import cross_vertices, cube_vertices, simplex_product_vertices
from toricish.cones import Cone, cone_over_polytope
from toricish.symmetry import _projector_gram, _ray_automorphisms, face_orbits
from toricish.ishida import core_table
from toricish.sampling import sample_cones


def _pyramid(vertices):
    return [tuple(v) + (0,) for v in vertices] + [(0,) * len(vertices[0]) + (1,)]


BENCH_SHAPED = {
    # name: (polytope vertices, face orbits, faces)
    "pyramid-tower": (_pyramid(_pyramid(cube_vertices(3))), 15, 112),
    "oct-prism": ([v + (t,) for t in (0, 1) for v in cross_vertices(3)], 9, 82),
    "cross4": (cross_vertices(4), 6, 82),
    "cube4": (cube_vertices(4), 6, 82),
    "cube6": (cube_vertices(6), 8, 730),
    "cross6": (cross_vertices(6), 8, 730),
    "simplex2-cubed": (simplex_product_vertices((2, 2, 2)), 11, 344),
}

# Rays (1, 0, 0), (1, 2, 0), (0, 0, 1): any permutation of them is linear,
# but the 2-face on the first two has lattice index 2 and the others index
# 1, so no lattice automorphism relates them.
NON_UNIMODULAR = Cone.from_rays([(1, 0, 0), (1, 2, 0), (0, 0, 1)])


def _solve(rows, rhs):
    """x with x . rows == rhs over Q, for independent rows; None if none."""
    a = [[Fraction(x) for x in col] + [Fraction(y)] for col, y in zip(zip(*rows), rhs)]
    r = 0
    for c in range(len(rows)):
        p = next(i for i in range(r, len(a)) if a[i][c])
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[r])]
        r += 1
    if any(row[-1] for row in a[r:]):
        return None
    return [row[-1] for row in a[:r]]


def linear_permutations(cone):
    """Every permutation of the rays that a Q-linear map induces."""
    rays = cone.rays
    basis = []
    for i, r in enumerate(rays):
        if not basis or _solve([rays[b] for b in basis], r) is None:
            basis.append(i)
    # the basis rays combine trivially, so only the others are tested
    coeffs = [(i, _solve([rays[b] for b in basis], r)) for i, r in enumerate(rays) if i not in basis]
    out = set()
    for perm in itertools.permutations(range(len(rays))):
        images = [rays[perm[b]] for b in basis]
        if all(
            [sum(c * v[j] for c, v in zip(cs, images)) for j in range(cone.rank)] == list(rays[perm[i]])
            for i, cs in coeffs
        ):
            out.add(perm)
    return out


def is_lattice_map(cone, perm):
    """Whether the linear map taking each ray r_i to r_perm(i) maps Z^n
    into itself: the image of each unit vector, written in a basis of rays,
    is integral."""
    rays, n = cone.rays, cone.rank
    basis = []
    for i, r in enumerate(rays):
        if not basis or _solve([rays[b] for b in basis], r) is None:
            basis.append(i)
    for j in range(n):
        x = _solve([rays[b] for b in basis], [int(i == j) for i in range(n)])
        image = [sum(c * rays[perm[b]][t] for c, b in zip(x, basis)) for t in range(n)]
        if any(v.denominator != 1 for v in image):
            return False
    return True


def closure(gens, k, limit=50_000):
    """The permutation group on range(k) generated by gens, as a set; it
    fails once the group exceeds `limit` elements."""
    group, todo = {tuple(range(k))}, [tuple(range(k))]
    while todo:
        assert len(group) <= limit, "group too large"
        g = todo.pop()
        for h in gens:
            gh = tuple(h[i] for i in g)
            if gh not in group:
                group.add(gh)
                todo.append(gh)
    return group


def lattice_index(vectors):
    """The index of the lattice spanned by integer vectors in its saturation:
    the gcd of their maximal minors."""
    k = len(vectors)
    minors = []
    for cols in itertools.combinations(range(len(vectors[0])), k):
        m = [[Fraction(v[c]) for c in cols] for v in vectors]
        minors.append(int(_det(m)))
    return math.gcd(*minors)


def _det(m):
    if not m:
        return Fraction(1)
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]]) for j in range(len(m)) if m[0][j])


def ray_group(cone):
    gens = _ray_automorphisms(_projector_gram(cone.rays))
    return gens, closure(gens, len(cone.rays))


def test_projector_gram_is_the_inverse_denominator_lcm_times_the_rational_projector(named_corpus):
    """G = D R A^-1 R^T for A = R^T R, in Fractions: row i of A^-1 solves
    x A = e_i, and D is the lcm of the denominators of A^-1."""
    cones = named_corpus + [c for d in (3, 4, 5, 6) for c in sample_cones(1, d, 4)]
    for cone in cones:
        rays, n = cone.rays, cone.rank
        a = [[sum(r[i] * r[j] for r in rays) for j in range(n)] for i in range(n)]
        inv = [_solve(a, [int(i == j) for j in range(n)]) for i in range(n)]
        d = math.lcm(*(x.denominator for row in inv for x in row))
        expected = [[d * sum(u[i] * inv[i][j] * v[j] for i in range(n) for j in range(n)) for v in rays] for u in rays]
        assert _projector_gram(rays) == expected, cone


def _small_cones(named_corpus):
    samples = [c for s in (1, 2) for c in sample_cones(s, 4, 30) if len(c.rays) <= 7]
    return [c for c in named_corpus if len(c.rays) <= 8] + samples + [NON_UNIMODULAR]


@pytest.mark.parametrize("name", sorted(BENCH_SHAPED))
def test_face_orbit_counts_are_pinned(name):
    vertices, orbits, faces = BENCH_SHAPED[name]
    cone = cone_over_polytope(vertices)
    fl = cone.face_lattice()
    rep = face_orbits(cone)
    assert (len(set(rep)), len(fl.faces)) == (orbits, faces)
    for face in fl.faces:
        r = fl.faces[rep[face.index]]
        assert r.index <= face.index and rep[r.index] == r.index
        assert (r.dim, len(r.rays)) == (face.dim, len(face.rays))


def test_generators_give_every_linear_ray_permutation(named_corpus):
    """The group the generators span is the brute-force group of linear ray
    permutations, and the face orbits are the orbits of that group."""
    nontrivial = 0
    for cone in _small_cones(named_corpus):
        gens, group = ray_group(cone)
        assert group == linear_permutations(cone), cone
        fl = cone.face_lattice()
        orbit_of = {}
        for face in fl.faces:
            images = {fl.face_by_rays(g[i] for i in face.rays).index for g in group}
            orbit_of[face.index] = min(images)
        assert face_orbits(cone) == [orbit_of[i] for i in range(len(fl.faces))]
        nontrivial += len(group) > 1
    assert nontrivial >= 10


def test_group_orders_of_bench_shaped_cones():
    # B4 on the 4-cube and 4-cross-polytope; B3 x Z2 on the octahedral
    # prism and, swapping the two apexes, on the pyramid tower
    orders = {"cube4": 384, "cross4": 384, "oct-prism": 96, "pyramid-tower": 96}
    for name, order in orders.items():
        cone = cone_over_polytope(BENCH_SHAPED[name][0])
        gens, group = ray_group(cone)
        assert len(group) == order, name
        gram = _projector_gram(cone.rays)
        for g in gens:
            assert all(gram[g[i]][g[j]] == gram[i][j] for i in range(len(g)) for j in range(len(g)))


def test_rational_automorphisms_of_a_non_unimodular_simplicial_cone():
    """All of S_3 acts on the three rays, though no lattice automorphism
    takes the index-2 face to an index-1 face; the core rows stay those of
    each face's own complex."""
    cone = NON_UNIMODULAR
    fl = cone.face_lattice()
    _, group = ray_group(cone)
    assert len(group) == 6
    rep = face_orbits(cone)
    assert rep == [fl.by_dim[f.dim][0] for f in fl.faces]
    indices = {lattice_index(f.vectors) for f in fl.faces if f.dim == 2}
    assert indices == {1, 2}
    assert not all(is_lattice_map(cone, g) for g in group)
    core = core_table(cone)
    assert all(core[f.index] == intrinsic_rows(cone, f) for f in fl.faces)


def test_rows_copied_across_a_non_lattice_orbit():
    """The cone over the 3-cube stretched to height 4 along one axis: B3
    still acts, linearly, but no lattice map takes the square facets across
    the long axis to the others, though they share one orbit; the copied
    rows, nonzero at degree 2, are those of each face's own complex."""
    cone = cone_over_polytope([(x, 2 * y, z) for x, y, z in cube_vertices(3)])
    fl = cone.face_lattice()
    _, group = ray_group(cone)
    assert len(group) == 48
    assert not all(is_lattice_map(cone, g) for g in group)
    rep = face_orbits(cone)
    facets = fl.by_dim[3]
    assert len({rep[i] for i in facets}) == 1
    first = fl.faces[facets[0]]
    lattice_images = {fl.face_by_rays(g[i] for i in first.rays).index for g in group if is_lattice_map(cone, g)}
    assert len(lattice_images) < len(facets)
    core = core_table(cone)
    assert all(core[i][2][1] == 1 for i in facets)
    assert all(core[f.index] == intrinsic_rows(cone, f) for f in fl.faces)


def test_rows_of_cones_with_rational_symmetries_match_the_oracle():
    """Non-simplicial random cones whose group has a ray permutation that no
    lattice automorphism induces: every face's core row, copied or ranked,
    equals the row of the face rebuilt as a cone of its own."""
    checked = 0
    for cone in (c for d in (3, 4) for s in (1, 2, 3) for c in sample_cones(s, d, 60)):
        if len(cone.rays) == cone.rank or all(is_lattice_map(cone, g) for g in ray_group(cone)[0]):
            continue
        core = core_table(cone)
        assert all(core[f.index] == intrinsic_rows(cone, f) for f in cone.face_lattice().faces), cone
        checked += 1
    assert checked == 5
