"""Per-layer metrics of a traced run, computed from the span files the
child processes write (see hook/toricish_trace.py).

`X.calls` counts calls of a wrapped function X, `X.s` is its self time (the
span's duration minus the time in wrapped calls it made) and
`<layer>.self_s` sums the self time of every wrapped function of a module.
The remaining metrics are counters recorded at the wrapped boundaries.
"""

from __future__ import annotations

import json
from pathlib import Path

LAYERS = ("linalg", "cones", "ishida", "decomposition", "combinatorics", "shelling", "sampling", "cli")

COMMANDS = ("ext", "decompose", "verify", "faces", "gpoly", "hodge", "shelling")

VERIFY_SUITES = (
    "verify_d_squared",
    "verify_dualizing_exactness",
    "verify_surjectivity",
    "verify_codim_vanishing",
    "verify_link_exactness",
)

ROUTES = ("simplicial_closed_form", "simple_closed_form", "cohomology")


def _spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out: list[tuple[str, str, str]] = []

    def calls(*names):
        out.extend((f"{n}.calls", "count", "lower") for n in names)

    def secs(*names):
        out.extend((f"{n}.s", "s", "lower") for n in names)

    def count(*names):
        out.extend((n, "count", "lower") for n in names)

    for fn in ("interior_product_matrix", "rank", "matmul", "integer_kernel_basis"):
        calls(f"linalg.{fn}")
        secs(f"linalg.{fn}")
    count("linalg.block_entries", "linalg.rank_entries")
    for fn in ("dual_description", "quotient_cone", "is_simple_in_dim", "face_lattice", "face_cone",
               "normal_step_vector"):
        calls(f"cones.{fn}")
        secs(f"cones.{fn}")
    count("cones.faces_built")
    calls("ishida.ishida_complex", "ishida.cohomology_dims", "ishida.link_complex_cohomology")
    count("ishida.ishida_complex.distinct")
    secs("ishida.ishida_complex", "ishida.core_table", "ishida.cohomology_dims",
         "ishida.link_complex_cohomology", *(f"ishida.{s}" for s in VERIFY_SUITES))
    calls("decomposition.ic_multiplicities")
    secs("decomposition.ic_multiplicities", "decomposition.decomposition_report")
    count(*(f"decomposition.route.{r}" for r in ROUTES))
    secs("combinatorics.g_polynomial", "combinatorics.hodge_du_bois_table")
    calls("shelling.shelling")
    secs("shelling.shelling", "shelling.is_shelling")
    count("shelling.directions_tried")
    secs("sampling.sample_cones")
    calls("sampling.random_cone")
    out.append(("sampling.accept_ratio", "ratio", "higher"))
    secs("cli.load_cone_file", "cli.emit", *(f"cli.cmd.{c}" for c in COMMANDS))
    out.append(("cli.emit.bytes", "bytes", "lower"))
    out.extend((f"{layer}.self_s", "s", "lower") for layer in LAYERS)
    out.append(("trace.wall_s", "s", "lower"))
    return out


METRICS = _spec()


def read_trace(path: Path) -> tuple[dict[str, float], set[str]]:
    """Calls, self seconds and counters of one process, and its absent names."""
    data = json.loads(path.read_text(encoding="utf-8"))
    names, parents = data["span_name"], data["span_parent"]
    starts, ends = data["span_start"], data["span_end"]
    covered = [0] * len(starts)
    for i, p in enumerate(parents):
        if p >= 0:
            covered[p] += ends[i] - starts[i]
    totals: dict[str, float] = dict(data["counters"])
    for i, name_id in enumerate(names):
        name = data["names"][name_id]
        totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + 1
        self_s = (ends[i] - starts[i] - covered[i]) / 1e9
        totals[f"{name}.s"] = totals.get(f"{name}.s", 0.0) + self_s
        layer = name.split(".", 1)[0]
        totals[f"{layer}.self_s"] = totals.get(f"{layer}.self_s", 0.0) + self_s
    return totals, set(data["absent"])


def round_metrics(totals: list[dict[str, float]], wall_s: float, emitted_bytes: int) -> dict[str, float]:
    """Every per-layer metric of one round, summed over its processes;
    a metric nothing recorded reads 0."""
    summed: dict[str, float] = {}
    for t in totals:
        for k, v in t.items():
            summed[k] = summed.get(k, 0) + v
    summed["cli.emit.bytes"] = emitted_bytes
    summed["trace.wall_s"] = wall_s
    attempts = summed.get("sampling.random_cone.calls", 0)
    summed["sampling.accept_ratio"] = summed.get("sampling.cones_kept", 0) / attempts if attempts else 0.0
    return {name: summed.get(name, 0) for name, _unit, _better in METRICS}
