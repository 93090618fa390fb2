"""Multiplicities of intersection-complex summands in the weight-graded
pieces of the constant Hodge module of an affine toric variety, and the
assembled decomposition report.

For a face lambda of dimension d, the multiplicity table a[(l, j)] counts
the summands IC(-j) supported on the subvariety of lambda appearing in
cohomological degree -l and weight d - 2j; the admissible index range is
j >= 1 and l + 1 <= d - 2j.  The numbers depend on the cone of the face
only, so per-face results are memoized on the face-intrinsic cone, in the
memo dict of the cone's family (cones.memoized).

Three computation routes exist: the general one, valid up to dimension six,
reads the numbers off the cohomology of the wedge complexes (with two
entries provably out of reach in dimension six, reported as undetermined);
the two closed forms, valid in any dimension, apply to cones over simplicial
and over simple polytopes.  When several routes apply they are all computed
and compared entry by entry, and disagreement raises: the routes are
provably equal, so a mismatch means an implementation bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cones import (
    Cone,
    face_cone,
    is_cone_over_simple,
    is_cone_over_simplicial,
    is_simplicial,
    memoized,
)
from .combinatorics import h_tilde_vector, h_vector
from .ishida import degree_zero_cohomology, lcdef


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
    details: dict = field(default_factory=dict)

    def get(self, l: int, j: int):
        """Multiplicity at (l, j); None when the entry is undetermined."""
        if (l, j) in self.undetermined:
            return None
        return self.entries.get((l, j), 0)

    @property
    def nonzero(self) -> dict:
        return {k: v for k, v in self.entries.items() if v}


def _zero_table(dim: int, method: str) -> ICMultiplicities:
    return ICMultiplicities(dim, {p: 0 for p in admissible_pairs(dim)}, (), method)


def multiplicities_simplicial_class(cone: Cone) -> ICMultiplicities:
    """Closed form for cones over simplicial polytopes: the only summands
    sit at l = n - 2j - 1 with multiplicity h_j - h_{j-1}, the g-numbers of
    the cross-section."""
    if not is_cone_over_simplicial(cone):
        raise ValueError("cone is not a cone over a simplicial polytope")
    n = cone.rank
    h = h_vector(cone.f_vector, n)
    entries = {p: 0 for p in admissible_pairs(n)}
    for j in range(1, (n + 1) // 2):
        l = n - 2 * j - 1
        if (l, j) in entries:
            entries[(l, j)] = h[j] - (h[j - 1] if j else 0)
    return ICMultiplicities(n, entries, (), "simplicial_closed_form")


def multiplicities_simple_class(cone: Cone) -> ICMultiplicities:
    """Closed form for cones over simple polytopes: everything lives in
    cohomological degree zero with multiplicities the first differences of
    the reversed-role transform."""
    if not is_cone_over_simple(cone):
        raise ValueError("cone is not a cone over a simple polytope")
    n = cone.rank
    ht = h_tilde_vector(cone.f_vector, n)
    entries = {p: 0 for p in admissible_pairs(n)}
    for j in range(1, (n + 1) // 2):
        if (0, j) in entries:
            entries[(0, j)] = ht[j] - ht[j - 1]
    return ICMultiplicities(n, entries, (), "simple_closed_form")


def multiplicities_from_cohomology(cone: Cone) -> ICMultiplicities:
    """General route, valid up to dimension six.

    Dimension three is the ray count minus three; dimensions four to six
    read the (l, 1) entries off the cohomology of the wedge complex one
    short of the top.  Dimension five additionally solves a small linear
    system involving the facet tables for the (0, 2) entry; in dimension six
    the analogous system is underdetermined and (0, 2), (1, 2) are reported
    as undetermined rather than guessed.
    """
    n = cone.rank
    if n > 6:
        raise ValueError("direct multiplicity computation is limited to dimension <= 6")
    if n <= 2 or is_simplicial(cone):
        return _zero_table(n, "cohomology")
    entries = {p: 0 for p in admissible_pairs(n)}
    details: dict = {}
    undetermined: tuple = ()
    if n == 3:
        entries[(0, 1)] = len(cone.rays) - 3
    elif n == 4:
        h3 = degree_zero_cohomology(cone, 3)
        entries[(0, 1)] = h3[1]
        entries[(1, 1)] = h3[2]
    elif n == 5:
        h4 = degree_zero_cohomology(cone, 4)
        entries[(0, 1)], entries[(1, 1)], entries[(2, 1)] = h4[1], h4[2], h4[3]
        h3 = degree_zero_cohomology(cone, 3)
        fl = cone.face_lattice()
        facet_a01 = facet_a11 = 0
        for fid in fl.by_dim[4]:
            sub = ic_multiplicities(face_cone(cone, fl.faces[fid]))
            facet_a01 += sub.get(0, 1)
            facet_a11 += sub.get(1, 1)
        rank_r = facet_a01 - h3[1]
        entries[(0, 2)] = h3[2] + rank_r - facet_a11
        details["facet_system_rank"] = rank_r
    else:
        h5 = degree_zero_cohomology(cone, 5)
        entries[(0, 1)], entries[(1, 1)] = h5[1], h5[2]
        entries[(2, 1)], entries[(3, 1)] = h5[3], h5[4]
        undetermined = ((0, 2), (1, 2))
        for p in undetermined:
            entries.pop(p, None)
    for (l, j), v in entries.items():
        if v < 0:
            raise RuntimeError(f"negative multiplicity at {(l, j)}: {v}")
    return ICMultiplicities(n, entries, undetermined, "cohomology", details)


@memoized
def ic_multiplicities(cone: Cone) -> ICMultiplicities:
    """Dispatch: closed forms when a class predicate holds (any dimension),
    the cohomology route otherwise (dimension <= 6).  All applicable routes
    are computed and compared; the first closed form wins as the reported
    method because it never leaves entries undetermined."""
    routes = []
    if is_cone_over_simplicial(cone):
        routes.append(multiplicities_simplicial_class(cone))
    if is_cone_over_simple(cone):
        routes.append(multiplicities_simple_class(cone))
    if cone.rank <= 6:
        routes.append(multiplicities_from_cohomology(cone))
    if not routes:
        raise ValueError(
            "multiplicities undetermined: dimension > 6 and no closed-form class applies"
        )
    for other in routes[1:]:
        for pair in admissible_pairs(cone.rank):
            a, b = routes[0].get(*pair), other.get(*pair)
            if a is not None and b is not None and a != b:
                raise RuntimeError(
                    f"multiplicity routes disagree at {pair}: "
                    f"{routes[0].method}={a}, {other.method}={b}"
                )
    return routes[0]


def face_multiplicity_tables(cone: Cone) -> dict:
    """Multiplicity table of every face, computed on the face-intrinsic
    cone; keyed by face id."""
    fl = cone.face_lattice()
    return {f.index: ic_multiplicities(face_cone(cone, f)) for f in fl.faces}


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
