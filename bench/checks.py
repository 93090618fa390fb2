"""Output checks of the benchmark's operations.

Each check takes the parsed JSON payload of one command, the Input it ran
on and a dict shared by the operations of one round, and returns a list of
problems; an empty list means the output is correct.  Expected values come
from reference.py or from properties the method must have, never from the
program itself.
"""

from __future__ import annotations

from collections import Counter

from inputs import Input
from reference import (
    euler_characteristic,
    ext_simplicial,
    g1,
    g_vector,
    h_vector,
    multiplicities,
)

# The paper's Hodge-Du Bois diamond of the singular cubic fourfold,
# table[p][q].
CUBIC_FOURFOLD_DIAMOND = [
    [1, 0, 0, 0, 0],
    [0, 1, 0, 1, 0],
    [0, 0, 1, 4, 0],
    [0, 0, 0, 5, 0],
    [0, 0, 0, 0, 1],
]

VERIFY_CHECKS = {
    "d_squared",
    "dualizing_exactness",
    "surjectivity",
    "codim_vanishing",
    "link_exactness",
    "shelling",
    "facet_inequalities",
    "closed_forms",
}


def _expect(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def _agree_on_lcdef(item: Input, value: int, shared: dict, problems: list[str]) -> None:
    """ext and decompose on one input must report the same lcdef."""
    key = ("lcdef", item.name)
    earlier = shared.setdefault(key, value)
    _expect(problems, earlier == value, f"lcdef {value} differs from {earlier} of another command")


def check_ext(payload: dict, item: Input, shared: dict) -> list[str]:
    n = item.rank
    problems: list[str] = []
    depth = payload["depth"]
    # Toric varieties are Cohen-Macaulay, and omega is the top differential.
    _expect(problems, depth["0"] == "maximal", f"depth of Omega^0 is {depth['0']}, not maximal")
    _expect(problems, depth[str(n)] == "maximal", f"depth of Omega^{n} is {depth[str(n)]}, not maximal")
    _expect(problems, payload["lcdef"] <= n - 3, f"lcdef {payload['lcdef']} exceeds n - 3 = {n - 3}")
    _agree_on_lcdef(item, payload["lcdef"], shared, problems)
    if item.family == "simplicial":
        n_rays = item.cone_f[1]
        rows = payload["assembled_positive_ext"]
        top = {(r["i"], r["k"]): r["dim"] for r in rows if len(r["face"]) == n_rays}
        expected = ext_simplicial(item.cone_f)
        _expect(problems, top == expected, f"Ext at the apex class {top} != closed form {expected}")
        _expect(problems, len(top) == len(rows), "positive Ext outside the apex class")
    return problems


def _face_tables(payload: dict) -> dict[tuple, tuple[int, dict]]:
    """Per face (its ray indices): its dimension and {(l, j): multiplicity}."""
    n = payload["dim"]
    tables: dict[tuple, tuple[int, dict]] = {}
    for row in payload["rows"]:
        for s in row["summands"]:
            if "face" not in s:
                continue
            face = tuple(s["face"])
            if row["weight"] != n - s["face_dim"] + 2 * s["twist"]:
                raise ValueError(f"summand of face {face} has weight {row['weight']}")
            dim, table = tables.setdefault(face, (s["face_dim"], {}))
            table[(-row["degree"], s["twist"])] = s["multiplicity"]
    return tables


def check_decompose(payload: dict, item: Input, shared: dict) -> list[str]:
    n = item.rank
    problems: list[str] = []
    _expect(problems, payload["dim"] == n, f"dim {payload['dim']} != {n}")
    ic_rows = [r for r in payload["rows"] if r["degree"] == 0 and r["weight"] == n]
    _expect(
        problems,
        any({"summand": "IC_X", "multiplicity": 1} in r["summands"] for r in ic_rows),
        "IC_X missing at degree 0, weight n",
    )
    _expect(problems, payload["lcdef"] <= n - 3, f"lcdef {payload['lcdef']} exceeds n - 3")
    _agree_on_lcdef(item, payload["lcdef"], shared, problems)
    undetermined = {(-u["degree"], u["twist"]) for u in payload["undetermined"]}
    if n == 6 and item.family == "neither":
        _expect(problems, undetermined == {(0, 2), (1, 2)}, f"undetermined {sorted(undetermined)}")
        _expect(
            problems,
            all(u["face_dim"] == 6 for u in payload["undetermined"]),
            "undetermined entries below the top face",
        )
    else:
        _expect(problems, not undetermined, f"unexpected undetermined entries {sorted(undetermined)}")
        _expect(
            problems,
            payload["lcdef_from_rows"] == payload["lcdef"],
            f"lcdef_from_rows {payload['lcdef_from_rows']} != lcdef {payload['lcdef']}",
        )
    if item.proper_faces is not None:
        problems += _closed_form_multiplicities(payload, item)
    return problems


def _closed_form_multiplicities(payload: dict, item: Input) -> list[str]:
    """Every face of a cone over a cube or a cross-polytope is a cone over
    a smaller cube or a simplex, so each face table has a closed form."""
    problems: list[str] = []
    n = item.rank
    by_dim: dict[int, list[dict]] = {}
    for dim, table in _face_tables(payload).values():
        by_dim.setdefault(dim, []).append(table)
    for m in range(1, n + 1):
        if m == n:
            count, expected = 1, multiplicities(item.cone_f, item.family)
        else:
            face_f = (1,) + tuple(item.proper_faces(m - 1))
            count, expected = item.cone_f[m], multiplicities(face_f, item.family)
        found = by_dim.get(m, [])
        if expected:
            _expect(problems, len(found) == count, f"{len(found)} faces of dim {m} carry summands, not {count}")
        else:
            _expect(problems, not found, f"faces of dim {m} carry summands")
        bad = [t for t in found if t != expected]
        _expect(problems, not bad, f"faces of dim {m}: {bad[:1]} != closed form {expected}")
    return problems


def check_faces(payload: dict, item: Input, shared: dict) -> list[str]:
    n = item.rank
    problems: list[str] = []
    f = tuple(payload["f_vector"])
    _expect(problems, f == item.cone_f, f"f-vector {f} != {item.cone_f}")
    listed = tuple(len(payload["faces_by_dim"][str(d)]) for d in range(n + 1))
    _expect(problems, listed == item.cone_f, f"faces listed per dimension {listed}")
    _expect(problems, len(payload["rays"]) == item.cone_f[1], "ray count")
    _expect(problems, len(payload["facet_normals"]) == item.cone_f[n - 1], "facet count")
    p = payload["predicates"]
    expected = {
        "simplicial": item.cone_f[1] == n,
        "cone_over_simple": item.family == "simple",
        "cone_over_simplicial": item.family == "simplicial",
        "simple_in_dim": {str(c): c >= item.simple_from for c in range(n + 1)},
    }
    _expect(problems, p == expected, f"predicates {p} != {expected}")
    return problems


def check_gpoly(payload: dict, item: Input, shared: dict) -> list[str]:
    problems: list[str] = []
    g = payload["coefficients"]
    _expect(problems, g[0] == 1, f"g_0 = {g[0]}")
    _expect(problems, len(g) > 1 and g[1] == g1(item.cone_f), f"g_1 = {g[1:2]}, not {g1(item.cone_f)}")
    if item.family == "simplicial":
        expected = list(g_vector(h_vector(item.cone_f)))
        while len(expected) > 1 and expected[-1] == 0:
            expected.pop()
        _expect(problems, g == expected, f"g-vector {g} != first differences of h {expected}")
    return problems


def check_hodge(payload: dict, item: Input, shared: dict) -> list[str]:
    n = item.rank
    problems: list[str] = []
    _expect(problems, payload["polytope_dim"] == n - 1, "polytope dimension")
    f_poly = tuple(payload["polytope_f_vector"])
    _expect(problems, f_poly == item.cone_f[1:-1], f"polytope f-vector {f_poly}")
    chi = euler_characteristic(payload["betti"])
    facets = item.cone_f[n - 1]
    _expect(problems, chi == facets, f"Euler characteristic {chi} != {facets} facets")
    if item.name == "cubic-fourfold":
        _expect(problems, payload["hodge_du_bois"] == CUBIC_FOURFOLD_DIAMOND, "cubic fourfold diamond")
    return problems


def check_shelling(payload: dict, item: Input, shared: dict) -> list[str]:
    problems: list[str] = []
    order = [tuple(f) for f in payload["order"]]
    facets = item.cone_f[item.rank - 1]
    _expect(problems, payload["verified"] is True, "shelling not verified")
    _expect(problems, len(order) == facets, f"{len(order)} facets in the order, not {facets}")
    _expect(problems, len(set(order)) == len(order), "a facet appears twice")
    _expect(problems, len(payload["certificates"]) == len(order), "certificate count")
    return problems


def check_verify(payload: dict, count: int) -> list[str]:
    problems: list[str] = []
    results = payload["results"]
    _expect(problems, len(results) == count, f"{len(results)} cones, not {count}")
    distinct = {tuple(map(tuple, r["rays"])) for r in results}
    _expect(problems, len(distinct) == len(results), "repeated cones")
    _expect(problems, payload["ok"] is True, "suite not ok")
    for r in results:
        names = Counter(c["name"] for c in r["checks"])
        failing = [c["name"] for c in r["checks"] if not c["ok"]]
        _expect(problems, set(names) == VERIFY_CHECKS and max(names.values()) == 1, f"{r['cone']}: checks {dict(names)}")
        _expect(problems, r["ok"] and not failing, f"{r['cone']}: failed {failing}")
    return problems


CHECKS = {
    "ext": check_ext,
    "decompose": check_decompose,
    "faces": check_faces,
    "gpoly": check_gpoly,
    "hodge": check_hodge,
    "shelling": check_shelling,
}
