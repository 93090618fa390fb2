"""Multiplicities of intersection-complex summands in the weight-graded
pieces of the constant Hodge module of an affine toric variety, and the
assembled decomposition report.

For a face lambda of dimension d, the multiplicity table a[(l, j)] counts
the summands IC(-j) supported on the subvariety of lambda appearing in
cohomological degree -l and weight d - 2j; the admissible index range is
j >= 1 and l + 1 <= d - 2j.  The numbers depend on the face alone.  Every
route takes the cone and one of its faces (the top face by default), reads
the face's class predicates and f-vector off its down-set (cones.face_class)
and its cohomology off its row of the core table (ishida.core_table);
results are memoized per face in the cone's memo dict.

Three computation routes exist: the general one, valid up to dimension six,
reads the numbers off the cohomology of the wedge complexes (with two
entries provably out of reach in dimension six, reported as undetermined);
the two closed forms, valid in any dimension, apply to cones over simplicial
and over simple polytopes.  When several routes apply they are all computed
and compared entry by entry, and disagreement raises: the routes are
provably equal, so a mismatch means an implementation bug.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cones import Cone, Face, face_class, memoized
from .combinatorics import h_tilde_vector, h_vector
from .ishida import core_table, lcdef


def admissible_pairs(dim: int) -> tuple[tuple[int, int], ...]:
    """(l, j) with j >= 1 and l + 1 <= dim - 2j, ordered by (l, j)."""
    out = []
    for l in range(max(0, dim - 2)):
        for j in range(1, (dim - l - 1) // 2 + 1):
            out.append((l, j))
    return tuple(sorted(out))


@dataclass(frozen=True)
class ICMultiplicities:
    dim: int
    entries: dict
    undetermined: tuple[tuple[int, int], ...]
    method: str

    def get(self, l: int, j: int):
        """Multiplicity at (l, j); None when the entry is undetermined."""
        if (l, j) in self.undetermined:
            return None
        return self.entries.get((l, j), 0)

    @property
    def nonzero(self) -> dict:
        return {k: v for k, v in self.entries.items() if v}


def multiplicities_simplicial_class(cone: Cone, face: Face | None = None) -> ICMultiplicities:
    """Closed form for cones over simplicial polytopes: the only summands
    sit at l = d - 2j - 1 with multiplicity h_j - h_{j-1}, the g-numbers of
    the cross-section."""
    face = cone.face_lattice().top if face is None else face
    f, over_simplicial, _ = face_class(cone, face)
    if not over_simplicial:
        raise ValueError("cone is not a cone over a simplicial polytope")
    d = face.dim
    h = h_vector(f)
    entries = {p: 0 for p in admissible_pairs(d)}
    for j in range(1, (d + 1) // 2):
        entries[(d - 2 * j - 1, j)] = h[j] - h[j - 1]
    return ICMultiplicities(d, entries, (), "simplicial_closed_form")


def multiplicities_simple_class(cone: Cone, face: Face | None = None) -> ICMultiplicities:
    """Closed form for cones over simple polytopes: everything lives in
    cohomological degree zero with multiplicities the first differences of
    the reversed-role transform."""
    face = cone.face_lattice().top if face is None else face
    f, _, over_simple = face_class(cone, face)
    if not over_simple:
        raise ValueError("cone is not a cone over a simple polytope")
    d = face.dim
    ht = h_tilde_vector(f)
    entries = {p: 0 for p in admissible_pairs(d)}
    for j in range(1, (d + 1) // 2):
        entries[(0, j)] = ht[j] - ht[j - 1]
    return ICMultiplicities(d, entries, (), "simple_closed_form")


def multiplicities_from_cohomology(cone: Cone, face: Face | None = None) -> ICMultiplicities:
    """General route, valid up to dimension six.

    Dimensions three to six read the (l, 1) entries off the face's
    intrinsic cohomology one short of the top (its core table row); in
    dimension three that is the ray count minus three.  Dimension five
    also solves a small linear system involving the tables of the face's
    facets for the (0, 2) entry; in dimension six the analogous system is
    underdetermined and (0, 2), (1, 2) are reported as undetermined rather
    than guessed.
    """
    fl = cone.face_lattice()
    face = fl.top if face is None else face
    d = face.dim
    if d > 6:
        raise ValueError("direct multiplicity computation is limited to dimension <= 6")
    entries = {p: 0 for p in admissible_pairs(d)}
    undetermined: tuple = ()
    rows = core_table(cone)[face.index]
    # the (l, 1) entries are h^1 .. h^(d-2) at degree d - 1
    for l, x in enumerate(rows[d - 1][1:d - 1]):
        entries[(l, 1)] = x
    if d == 5:
        facet_a01 = facet_a11 = 0
        for fid in fl.children[face.index]:
            sub = ic_multiplicities(cone, fl.faces[fid])
            facet_a01 += sub.get(0, 1)
            facet_a11 += sub.get(1, 1)
        h3 = rows[3]
        rank_r = facet_a01 - h3[1]
        entries[(0, 2)] = h3[2] + rank_r - facet_a11
    elif d == 6:
        undetermined = ((0, 2), (1, 2))
        for p in undetermined:
            entries.pop(p, None)
    for (l, j), v in entries.items():
        if v < 0:
            raise RuntimeError(f"negative multiplicity at {(l, j)}: {v}")
    return ICMultiplicities(d, entries, undetermined, "cohomology")


@memoized
def ic_multiplicities(cone: Cone, face: Face | None = None) -> ICMultiplicities:
    """Dispatch for one face (the whole cone by default): closed forms when
    a class predicate holds (any dimension), and the cohomology route on
    every face of dimension <= 6.  All applicable routes are computed and
    compared; the first closed form wins as the reported method because it
    never leaves entries undetermined."""
    face = cone.face_lattice().top if face is None else face
    _, over_simplicial, over_simple = face_class(cone, face)
    routes = []
    if over_simplicial:
        routes.append(multiplicities_simplicial_class(cone, face))
    if over_simple:
        routes.append(multiplicities_simple_class(cone, face))
    if face.dim <= 6:
        routes.append(multiplicities_from_cohomology(cone, face))
    if not routes:
        raise ValueError(
            "multiplicities undetermined: dimension > 6 and no closed-form class applies"
        )
    for other in routes[1:]:
        for pair in admissible_pairs(face.dim):
            a, b = routes[0].get(*pair), other.get(*pair)
            if a is not None and b is not None and a != b:
                raise RuntimeError(
                    f"multiplicity routes disagree at {pair}: "
                    f"{routes[0].method}={a}, {other.method}={b}"
                )
    return routes[0]


def face_multiplicity_tables(cone: Cone) -> dict:
    """Multiplicity table of every face, keyed by face id."""
    return {f.index: ic_multiplicities(cone, f) for f in cone.face_lattice().faces}


def decomposition_report(cone: Cone) -> dict:
    """Weight-graded summand report for the constant Hodge module.

    One row per cohomological degree -l and weight w = n - k carrying
    summands (face, Tate twist j, multiplicity); the intersection complex of
    the whole variety sits alone at (l, w) = (0, n).  Undetermined entries
    of six-dimensional faces are listed explicitly, never as silent zeros.
    The largest l with a nonzero row is the local cohomological defect and is
    cross-checked against the cohomology route.
    """
    n = cone.rank
    fl = cone.face_lattice()
    tables = face_multiplicity_tables(cone)
    rows: dict = {(0, n): [{"summand": "IC_X", "multiplicity": 1}]}
    undetermined_rows = []
    for face in fl.faces:
        table = tables[face.index]
        for (l, j), mult in sorted(table.entries.items()):
            if not mult:
                continue
            w = n - face.dim + 2 * j
            rows.setdefault((l, w), []).append(
                {
                    "face": list(face.rays),
                    "face_dim": face.dim,
                    "twist": j,
                    "multiplicity": mult,
                }
            )
        for (l, j) in table.undetermined:
            w = n - face.dim + 2 * j
            undetermined_rows.append(
                {"face": list(face.rays), "face_dim": face.dim, "degree": -l, "twist": j, "weight": w}
            )
    implied = max((l for (l, _w) in rows if l > 0), default=0)
    defect = lcdef(cone)
    if not undetermined_rows and implied != defect:
        raise RuntimeError(
            f"decomposition defect {implied} disagrees with cohomology defect {defect}"
        )
    report_rows = []
    for (l, w) in sorted(rows):
        report_rows.append(
            {"degree": -l, "weight": w, "summands": rows[(l, w)]}
        )
    return {
        "dim": n,
        "rows": report_rows,
        "undetermined": undetermined_rows,
        "lcdef": defect,
        "lcdef_from_rows": implied,
        "methods": sorted({t.method for t in tables.values()}),
    }
