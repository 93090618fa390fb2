"""Command-line front end.

Input is a JSON cone file with exactly one of "rays", "dual_rays" (the tool
dualizes) or "polytope_vertices" (height-one homogenization).  Output is
either canonical JSON (sorted keys, byte-stable across runs for the same
input and version) or a plain-text table.

Exit codes: 0 success / all checks pass, 1 usage error, 2 verification
failure, 3 computation error.
"""

from __future__ import annotations

import importlib
import json
import sys

import click

from . import __version__
from .cones import (
    Cone,
    cone_over_polytope,
    is_cone_over_simple,
    is_cone_over_simplicial,
    is_simple_in_dim,
    is_simplicial,
)
from .linalg import NoCertifiedPrime

SCHEMA_VERSION = 1

# Bad invocations exit with code 1 (click defaults to 2, which this tool
# reserves for verification failures).
click.exceptions.UsageError.exit_code = 1


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def load_cone_file(path: str) -> tuple[Cone, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("cone file must hold a JSON object at the top level")
    keys = [k for k in ("rays", "dual_rays", "polytope_vertices") if k in data]
    if len(keys) != 1:
        raise ValueError(
            'cone file must contain exactly one of "rays", "dual_rays", "polytope_vertices"'
        )
    rank = data.get("lattice_rank")
    if rank is None:
        raise ValueError('cone file is missing "lattice_rank"')
    if not _is_int(rank) or rank < 0:
        raise ValueError('"lattice_rank" must be a non-negative integer')
    raw = data[keys[0]]
    if not isinstance(raw, list) or not all(isinstance(v, list) and all(map(_is_int, v)) for v in raw):
        raise ValueError(f'"{keys[0]}" must be a list of integer coordinate lists')
    vectors = [tuple(v) for v in raw]
    if any(len(v) != rank for v in vectors):
        raise ValueError("vector length does not match lattice_rank")
    if keys[0] == "rays":
        cone = Cone.from_rays(vectors, rank)
    elif keys[0] == "dual_rays":
        cone = Cone.from_dual_rays(vectors, rank)
    else:
        cone = cone_over_polytope(vectors)
    meta = {"name": data.get("name"), "input_form": keys[0]}
    return cone, meta


def emit(payload: dict, fmt: str, out: str | None, table_renderer=None) -> None:
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = table_renderer(payload) if table_renderer else _default_table(payload)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _default_table(payload: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_default_table(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(f"{pad}  {json.dumps(item, sort_keys=True)}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(line for line in lines if line) + ("\n" if indent == 0 else "")


def _payload(command: str, meta: dict, body: dict) -> dict:
    head = {"schema_version": SCHEMA_VERSION, "command": command}
    if meta.get("name"):
        head["name"] = meta["name"]
    head.update(body)
    return head


@click.group()
@click.version_option(version=__version__, prog_name="toricish")
def cli():
    """Exact invariants of rational polyhedral cones and the toric varieties
    they define: face lattices, wedge-complex cohomology, Ext and depth
    tables, local cohomological defect, weight-graded decompositions and
    Hodge tables."""


def cone_command(*params, table=None, file_required=True):
    """Register body(cone, **options) -> payload body as the command named
    after the body, less a "_cmd" suffix, taking FILE, `params`, --format
    and -o in that order.

    The command loads FILE, heads the body with the schema version, the
    command and the file's name, and writes it as JSON or as a table
    (`table`, or one line per key).  A payload whose "ok" is false exits
    with code 2 once written; bad input and failed computations exit with
    code 3.  With file_required=False, FILE may be left out (the cone is
    then None), the head names no file, and the body gets `label`: the
    file's name, or else its path.

    A body imports the names it calls from their defining modules when it
    runs, so rebinding an attribute of the defining module (a test's
    monkeypatch, a tracer) reaches the command.
    """

    def register(body):
        name = body.__name__.removesuffix("_cmd")

        def callback(file, fmt, output, **options):
            try:
                cone, meta = load_cone_file(file) if file else (None, {})
                if not file_required:
                    options["label"], meta = meta.get("name") or file, {}
                payload = _payload(name, meta, body(cone, **options))
                emit(payload, fmt, output, table)
            except (ValueError, RuntimeError, NoCertifiedPrime, OSError, json.JSONDecodeError) as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(3)
            if payload.get("ok") is False:
                click.echo(f"verification failed: suite '{payload['suite']}' reported failures", err=True)
                sys.exit(2)

        callback.__doc__ = body.__doc__
        for param in reversed((
            click.argument("file", type=click.Path(exists=False), required=file_required),
            *params,
            click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="json", show_default=True),
            click.option("-o", "output", type=click.Path(dir_okay=False, writable=True), default=None, help="Write output to a file."),
        )):
            callback = param(callback)
        return cli.command(name)(callback)

    return register


@cone_command()
def faces(cone):
    """f-vector, face lattice summary, and cone-class predicates."""
    fl = cone.face_lattice()
    return {
        "lattice_rank": cone.rank,
        "rays": [list(r) for r in cone.rays],
        "facet_normals": [list(h) for h in cone.facet_normals],
        "f_vector": list(fl.f_vector),
        "faces_by_dim": {
            str(d): [list(fl.faces[i].rays) for i in fl.by_dim[d]]
            for d in range(cone.rank + 1)
        },
        "predicates": {
            "simplicial": is_simplicial(cone),
            "cone_over_simple": is_cone_over_simple(cone),
            "cone_over_simplicial": is_cone_over_simplicial(cone),
            "simple_in_dim": {
                str(c): is_simple_in_dim(cone, c) for c in range(cone.rank + 1)
            },
        },
    }


@cone_command(
    click.option("--l", "degree", type=int, required=True, help="Wedge degree of the complex."),
    click.option("--face", "face_sel", default=None, help="Comma-separated ray indices of a face; reports the graded piece of that face class."),
)
def ishida(cone, degree, face_sel):
    """Term dimensions and cohomology of the wedge complex at one degree."""
    from .ishida import cohomology_dims, graded_class_cohomology, ishida_complex

    cx = ishida_complex(cone, degree)
    body = {
        "degree": degree,
        "term_dims": list(cx.term_dims),
        "cohomology": list(cohomology_dims(cx)),
    }
    if face_sel is not None:
        fl = cone.face_lattice()
        indices = [int(x) for x in face_sel.split(",")] if face_sel else []
        if len(set(indices)) != len(indices):
            raise ValueError(f"repeated ray index in --face {face_sel}")
        face = fl.face_by_rays(indices)
        body["face"] = list(face.rays)
        body["face_class_cohomology"] = list(graded_class_cohomology(cone, degree, face))
    return body


@cone_command()
def ext(cone):
    """Graded Ext table of reflexive differentials, with depth per index."""
    from .ishida import ext_table

    fl = cone.face_lattice()
    table = ext_table(cone)
    core = {}
    for face in fl.faces:
        core[",".join(map(str, face.rays))] = {
            str(m): list(h) for m, h in enumerate(table.core[face.index])
        }
    assembled = [
        {
            "face": list(fl.faces[fid].rays),
            "i": i,
            "k": k,
            "dim": d,
        }
        for (fid, i, k), d in sorted(table.assembled.items())
        if i > 0
    ]
    return {
        "core": core,
        "assembled_positive_ext": assembled,
        "depth": {
            str(k): ("maximal" if v is None else v) for k, v in sorted(table.depth.items())
        },
        "lcdef": table.lcdef,
    }


@cone_command()
def lcdef_cmd(cone):
    """Local cohomological defect of the associated affine toric variety."""
    from .ishida import lcdef

    return {"lcdef": lcdef(cone)}


@cone_command()
def decompose(cone):
    """Weight-graded summand report of the constant Hodge module."""
    from .decomposition import decomposition_report

    return decomposition_report(cone)


@cone_command()
def gpoly(cone):
    """Intersection-complex stalk polynomial (g-vector of the cross-section)."""
    from .combinatorics import g_polynomial

    poly = g_polynomial(cone.face_lattice())
    return {
        "coefficients": list(poly.coefficients),
        "polynomial": " + ".join(
            (f"{c}" if j == 0 else f"{c}*q^{2*j}") for j, c in enumerate(poly.coefficients)
        ),
    }


def _hodge_table_renderer(payload: dict) -> str:
    table = payload["hodge_du_bois"]
    n = len(table) - 1
    lines = ["q\\p " + " ".join(f"{p:>4}" for p in range(n + 1))]
    for q in range(n, -1, -1):
        lines.append(f"{q:>3} " + " ".join(f"{table[p][q]:>4}" for p in range(n + 1)))
    lines.append("betti " + " ".join(str(b) for b in payload["betti"]))
    return "\n".join(lines) + "\n"


@cone_command(table=_hodge_table_renderer)
def hodge(cone):
    """Hodge-Du Bois table, Hodge-Deligne coefficients and Betti numbers of
    the projective toric variety of a simple polytope.

    With "polytope_vertices" input the polytope is the one given; with
    "rays"/"dual_rays" the cone is treated as the cone over its
    cross-section polytope.  The tables are read off the cone's f-vector.
    The reported polytope f-vector of an n-polytope is the cone's without
    its first and last entries, f_0 ... f_(n-1), so a point (a rank-1 cone)
    gets [] as a polygon gets [f_0, f_1]."""
    from .combinatorics import betti_numbers, hodge_deligne_coefficients, hodge_du_bois_table

    if cone.rank < 1:
        raise ValueError("hodge needs a cone of dimension at least 1, i.e. a polytope of dimension at least 0")
    if not is_cone_over_simple(cone):
        raise ValueError("the polytope is not simple; the Hodge table formulas do not apply")
    table = hodge_du_bois_table(cone.f_vector)
    return {
        "polytope_dim": cone.rank - 1,
        "polytope_f_vector": list(cone.f_vector[1:-1]),
        "hodge_du_bois": [list(row) for row in table],
        "hodge_deligne_uv_coefficients": list(hodge_deligne_coefficients(cone.f_vector)),
        "betti": list(betti_numbers(table)),
    }


@cone_command()
def shelling_cmd(cone):
    """A certified facet shelling order."""
    from .shelling import shelling

    result = shelling(cone)
    return {
        "order": [list(f) for f in result.order],
        "direction_index": result.direction_index,
        # shelling() returns only an order that its certification accepted.
        "verified": True,
        "certificates": [
            {
                "facet": list(c.facet),
                "covered_prefix": [list(g) for g in c.prefix],
                "extension": [list(g) for g in c.extension],
            }
            for c in result.certificates
        ],
    }


def _shelling_report(cone: Cone) -> dict:
    from .ishida import check_report
    from .shelling import shelling

    shelling(cone)  # raises unless its certification accepts the order
    return check_report("shelling")


def _closed_forms_report(cone: Cone) -> dict:
    from .decomposition import ic_multiplicities
    from .ishida import check_report

    applicable = is_cone_over_simplicial(cone) or is_cone_over_simple(cone)
    if not applicable and cone.rank > 6:
        return check_report("closed_forms", skipped="no closed form applies")
    try:
        ic_multiplicities(cone)  # dispatch cross-checks all applicable routes
    except RuntimeError as exc:
        return check_report("closed_forms", [{"error": str(exc)}])
    return check_report("closed_forms")


# The verify suites, in the order "--suite all" runs them: the suite key,
# the name of its check (cone -> report dict), and whether the check needs a
# cone of dimension at least 1.  A rank-0 complex has no differential and a
# rank-0 cone no facet to shell, so there such a check reports itself
# skipped under its suite key.  Checks are looked up by name when they run:
# in this module, or else in ishida.
CHECKS = (
    ("d2", "verify_d_squared", False),
    ("ish_n", "verify_dualizing_exactness", False),
    ("surjectivity", "verify_surjectivity", True),
    ("codim", "verify_codim_vanishing", False),
    ("link", "verify_link_exactness", False),
    ("shelling", "_shelling_report", True),
    ("inequalities", "facet_inequalities_report", False),
    ("closed_forms", "_closed_forms_report", False),
)
SUITES = (*(key for key, _, _ in CHECKS), "all")


def _run_suite(cone: Cone, suite: str) -> list[dict]:
    from . import ishida as ishida_module

    return [
        (globals().get(check) or getattr(ishida_module, check))(cone) if cone.rank or not needs_rank
        else ishida_module.check_report(key, skipped="needs dimension at least 1")
        for key, check, needs_rank in CHECKS
        if suite in (key, "all")
    ]


@cone_command(
    click.option("--suite", type=click.Choice(SUITES), default="all", show_default=True),
    click.option("--random", "random_request", nargs=2, type=(click.IntRange(min=1), click.IntRange(min=1)), default=None, metavar="DIM COUNT", help="Verify seeded random cones of the given dimension."),
    click.option("--seed", type=int, default=0, show_default=True),
    file_required=False,
)
def verify(cone, suite, random_request, seed, label):
    """Run verification suites on a cone file or on seeded random cones."""
    from .sampling import sample_cones

    cones = [] if cone is None else [(label, cone)]
    if random_request:
        dim, count = random_request
        cones += ((f"random-{dim}d-{i}", c) for i, c in enumerate(sample_cones(seed, dim, count)))
    if not cones:
        raise click.UsageError("provide a cone file and/or --random DIM COUNT")
    results = []
    # Each cone is dropped once its reports are built, so that what it holds
    # does not stay alive until the run ends.
    while cones:
        name, cone = cones.pop(0)
        reports = _run_suite(cone, suite)
        ok = all(r["ok"] for r in reports)
        results.append({"cone": name, "rays": [list(r) for r in cone.rays], "ok": ok, "checks": reports})
    return {"suite": suite, "ok": all(r["ok"] for r in results), "results": results}


# The package modules each command imports names from, beyond cones and
# linalg.  main() imports them before click dispatches: compiling them is
# start-up, not the command's work, and a wrapper of click's Command.main
# finds them loaded.  The bodies import their own names, so the commands run
# without this table (as under click's test runner).
COMMAND_MODULES = {
    "faces": (),
    "ishida": ("ishida",),
    "ext": ("ishida",),
    "lcdef": ("ishida",),
    "decompose": ("decomposition",),
    "gpoly": ("combinatorics",),
    "hodge": ("combinatorics",),
    "shelling": ("shelling",),
    "verify": ("decomposition", "ishida", "sampling", "shelling"),
}


def main():
    # The group has no option that takes a value, so the first argument is
    # the command's name whenever a command runs.
    command = sys.argv[1] if len(sys.argv) > 1 else None
    for module in COMMAND_MODULES.get(command, ()):
        importlib.import_module(f".{module}", __package__)
    cli(prog_name="toricish")


if __name__ == "__main__":
    main()
