import pytest

from paper_reference import mixed_corpus, simple_class_samples, simplicial_class_samples
from toricish.cones import Cone, cone_over_polytope

SEED = 20240811


@pytest.fixture(scope="session")
def orthant():
    return Cone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)])


@pytest.fixture(scope="session")
def quadric_cone():
    return Cone.from_rays([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])


@pytest.fixture(scope="session")
def octahedron_cone():
    return Cone.from_rays(
        [(1, 0, 0, 1), (-1, 0, 0, 1), (0, 1, 0, 1), (0, -1, 0, 1), (0, 0, 1, 1), (0, 0, -1, 1)]
    )


@pytest.fixture(scope="session")
def cube_cone():
    return cone_over_polytope([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])


@pytest.fixture(scope="session")
def binomial_cone():
    """Five-dimensional cone of the singular cubic fourfold xyz = uvw,
    entered by the six generators of its dual."""
    dual_gens = [
        (1, 0, 0, 0, 0),
        (0, 1, 1, 0, 0),
        (0, 0, 0, 1, 1),
        (0, 0, 0, 0, 1),
        (0, 0, 1, 1, 0),
        (1, 1, 0, 0, 0),
    ]
    return Cone.from_dual_rays(dual_gens, 5)


@pytest.fixture(scope="session")
def pyramid_tower_cone():
    """Six-dimensional cone over a double pyramid over the cube: neither a
    cone over a simple polytope nor over a simplicial one, so multiplicity
    computations must take the general route."""
    cube_v = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    p4 = [v + (0,) for v in cube_v] + [(0, 0, 0, 1)]
    p5 = [v + (0,) for v in p4] + [(0, 0, 0, 0, 1)]
    return cone_over_polytope(p5)


@pytest.fixture(scope="session")
def tower_prism_cone(pyramid_tower_cone):
    """Seven-dimensional cone over the prism over the double pyramid over
    the cube (334 faces): in neither class and above dimension 6, so no
    multiplicity route applies to its top face."""
    vertices = [r[:-1] for r in pyramid_tower_cone.rays]  # the rays are (v, 1)
    return cone_over_polytope([v + (t,) for t in (0, 1) for v in vertices])


@pytest.fixture(scope="session")
def oct_prism_cone():
    """Five-dimensional cone over octahedron x segment: neither class."""
    oct_v = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    prism = [v + (0,) for v in oct_v] + [v + (1,) for v in oct_v]
    return cone_over_polytope(prism)


@pytest.fixture(scope="session")
def named_corpus(orthant, quadric_cone, octahedron_cone, cube_cone, binomial_cone, oct_prism_cone):
    return [orthant, quadric_cone, octahedron_cone, cube_cone, binomial_cone, oct_prism_cone]


@pytest.fixture(scope="session")
def random_corpus():
    """Seeded random cones, dims 3-6."""
    return mixed_corpus(SEED, dims=(3, 4, 5), per_dim=4, include_dim6=2)


@pytest.fixture(scope="session")
def full_corpus(named_corpus, random_corpus, pyramid_tower_cone):
    return named_corpus + random_corpus + [pyramid_tower_cone]


@pytest.fixture(scope="session")
def simplicial_class_corpus():
    """At least 50 cones over simplicial polytopes, dims 3-5."""
    cones = []
    for dim, count in ((3, 20), (4, 18), (5, 14)):
        cones.extend(simplicial_class_samples(SEED, dim, count))
    return cones


@pytest.fixture(scope="session")
def simple_class_corpus():
    """At least 50 cones over simple polytopes, dims 3-5."""
    cones = []
    for dim, count in ((3, 20), (4, 18), (5, 14)):
        cones.extend(simple_class_samples(SEED, dim, count))
    return cones
