"""Input cones of the benchmark workloads, written as toricish cone files.

Every input is a fixed construction: a cone over a lattice polytope whose
face numbers are known in closed form (see reference.py), written in its
standard coordinates.  The run seed does not change them.  A seeded signed
permutation of the coordinates changes no invariant, but it changes the
lattice bases the program works in: the pyramid-tower `ext` took 9.5 to
10.6 s on one seed and 11.4 to 13.4 s on another, interleaved, which is more
spread between seeds than the benchmark's bounds allow.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from reference import (
    cone_f_vector,
    cross_faces,
    cube_faces,
    prism_faces,
    product_faces,
    pyramid_faces,
    simplex_faces,
)


@dataclass(frozen=True)
class Input:
    """One cone file and what is known about it independently of the program.

    `family` is "simple", "simplicial" or "neither" for the cross-section
    polytope; `cone_f` is the f-vector of the cone (apex first).
    `simple_from` is the least c for which the quotient by every
    c-dimensional face is simplicial, where it is known: 1 for a simple
    polytope, and d - 1 for the d-cross-polytope, whose face figure at a
    k-face is the (d-k-1)-cross-polytope, a simplex only when d-k-1 <= 1.
    `proper_faces(k)`, where set, gives the face numbers of every k-face of
    the polytope: the faces of a cube are cubes, those of a cross-polytope
    simplices."""

    name: str
    rank: int
    family: str
    cone_f: tuple[int, ...]
    key: str  # "rays" or "dual_rays"
    vectors: tuple[tuple[int, ...], ...]
    simple_from: int | None = None
    proper_faces: Callable[[int], list[int]] | None = None


def _cube_vertices(d: int) -> list[tuple[int, ...]]:
    return [tuple(v) for v in itertools.product((-1, 1), repeat=d)]


def _cross_vertices(d: int) -> list[tuple[int, ...]]:
    out = []
    for i in range(d):
        for s in (1, -1):
            out.append(tuple(s if j == i else 0 for j in range(d)))
    return out


def _simplex_product_vertices(dims: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Vertices of the product of standard simplices {0, e_1, ..., e_a}."""
    factors = []
    for a in dims:
        factors.append([tuple(1 if j == i else 0 for j in range(a)) for i in range(-1, a)])
    return [sum(parts, ()) for parts in itertools.product(*factors)]


def _pyramid_tower_vertices() -> list[tuple[int, ...]]:
    """Pyramid over the pyramid over the 3-cube (a 5-polytope)."""
    p4 = [v + (0,) for v in _cube_vertices(3)] + [(0, 0, 0, 1)]
    return [v + (0,) for v in p4] + [(0, 0, 0, 0, 1)]


def _oct_prism_vertices() -> list[tuple[int, ...]]:
    octa = _cross_vertices(3)
    return [v + (0,) for v in octa] + [v + (1,) for v in octa]


def _cone_rays(vertices) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(v) + (1,) for v in vertices)


# Dual generators of the cone of the singular cubic fourfold, the paper's
# binomial hypersurface example.
CUBIC_FOURFOLD_DUAL = (
    (1, 0, 0, 0, 0),
    (0, 1, 1, 0, 0),
    (0, 0, 0, 1, 1),
    (0, 0, 0, 0, 1),
    (0, 0, 1, 1, 0),
    (1, 1, 0, 0, 0),
)
CUBIC_FOURFOLD_F = (1, 9, 18, 15, 6, 1)


def _polytope_input(name: str, family: str, vertices, faces, **known) -> Input:
    rays = _cone_rays(vertices)
    return Input(name, len(rays[0]), family, cone_f_vector(faces), "rays", rays, **known)


def all_inputs() -> dict[str, Input]:
    """Every fixed construction, in lattice coordinates before the change."""
    items = [
        _polytope_input("pyramid-tower", "neither", _pyramid_tower_vertices(),
                        pyramid_faces(pyramid_faces(cube_faces(3)))),
        _polytope_input("oct-prism", "neither", _oct_prism_vertices(),
                        prism_faces(cross_faces(3))),
        _polytope_input("cross4", "simplicial", _cross_vertices(4), cross_faces(4),
                        simple_from=3, proper_faces=simplex_faces),
        _polytope_input("cube4", "simple", _cube_vertices(4), cube_faces(4),
                        simple_from=1, proper_faces=cube_faces),
        _polytope_input("cube6", "simple", _cube_vertices(6), cube_faces(6), simple_from=1),
        _polytope_input("simplex2-cubed", "simple", _simplex_product_vertices((2, 2, 2)),
                        product_faces(simplex_faces(2), simplex_faces(2), simplex_faces(2)),
                        simple_from=1),
        _polytope_input("cross6", "simplicial", _cross_vertices(6), cross_faces(6), simple_from=5),
        Input("cubic-fourfold", 5, "simple", CUBIC_FOURFOLD_F, "dual_rays", CUBIC_FOURFOLD_DUAL,
              simple_from=1),
    ]
    return {item.name: item for item in items}


def write_cone_file(item: Input, directory: Path) -> Path:
    """Write the input as a cone file; returns the path."""
    data = {"name": item.name, "lattice_rank": item.rank, item.key: [list(v) for v in item.vectors]}
    path = directory / f"{item.name}.json"
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")
    return path
