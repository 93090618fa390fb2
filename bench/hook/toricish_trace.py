"""Span tracer for the benchmark's traced runs, installed from outside the
program: nothing under src/ knows about it.

install() wraps the functions listed in WRAPPED.  The modules bind each
other's functions by name at import (`from .linalg import
interior_product_matrix` in ishida), so every module-level binding of a
wrapped function is replaced, not only the one in its defining module.
Methods are wrapped on their class.  A listed name that the program no
longer has is recorded as absent and skipped.

Every call records a span: name, start, end (perf_counter_ns) and the index
of the enclosing span, or -1.  Spans are kept in flat arrays and written as
JSON by dump() when the process ends, with the command id the benchmark
passed in TORICISH_BENCH_COMMAND_ID, which all spans of the process share.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array

# Layer -> names wrapped in it.  Some have no metric of their own; they are
# wrapped so that their time counts in their own layer's self time, not in
# the caller's.  Hot leaf helpers (dot, primitive_vector, binomial, ...) are
# left out on purpose: their time counts as self time of the wrapped
# function that calls them, and wrapping them would multiply the tracing
# overhead.
WRAPPED = {
    "linalg": (
        "interior_product_matrix",
        "integer_kernel_basis",
        "RatMatrix.rank",
        "RatMatrix.matmul",
    ),
    "cones": (
        "dual_description",
        "Cone.face_lattice",
        "face_cone",
        "quotient_cone",
        "is_simple_in_dim",
        "is_cone_over_simple",
        "is_cone_over_simplicial",
        "normal_step_vector",
        "cone_over_polytope",
    ),
    "ishida": (
        "ishida_complex",
        "cohomology_dims",
        "degree_zero_cohomology",
        "core_table",
        "graded_class_cohomology",
        "ext_table",
        "lcdef",
        "link_complex_cohomology",
        "verify_d_squared",
        "verify_dualizing_exactness",
        "verify_surjectivity",
        "verify_codim_vanishing",
        "verify_link_exactness",
    ),
    "decomposition": (
        "ic_multiplicities",
        "multiplicities_simplicial_class",
        "multiplicities_simple_class",
        "multiplicities_from_cohomology",
        "face_multiplicity_tables",
        "decomposition_report",
    ),
    "combinatorics": (
        "h_vector",
        "h_tilde_vector",
        "g_polynomial",
        "hodge_deligne_coefficients",
        "hodge_du_bois_table",
        "betti_numbers",
    ),
    "shelling": ("shelling", "is_shelling"),
    "sampling": ("sample_cones", "random_cone"),
    "cli": ("load_cone_file", "emit"),
}


def _cone_key(cone) -> tuple:
    return (cone.rank, tuple(cone.rays))


class Tracer:
    def __init__(self, command_id: str):
        self.command_id = command_id
        self.names: list[str] = []
        self.absent: list[str] = []
        self.counters: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[int] = []
        self._seen: dict[str, set] = {}

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def first_time(self, name: str, key) -> bool:
        seen = self._seen.setdefault(name, set())
        if key in seen:
            return False
        seen.add(key)
        return True

    def wrap(self, fn, name: str, before=None, after=None):
        """A wrapper of fn recording one span per call.  before(args) runs
        ahead of the call and its value reaches after(args, result, state)."""
        name_id = len(self.names)
        self.names.append(name)
        names, parents, starts, ends, stack = (
            self.span_name, self.span_parent, self.span_start, self.span_end, self.stack,
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result, state)
            return result

        return traced

    def dump(self, path: str) -> None:
        data = {
            "command_id": self.command_id,
            "names": self.names,
            "absent": self.absent,
            "counters": self.counters,
            "span_name": self.span_name.tolist(),
            "span_parent": self.span_parent.tolist(),
            "span_start": self.span_start.tolist(),
            "span_end": self.span_end.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def _hooks(tracer: Tracer) -> dict:
    """Counters recorded at the wrapped boundaries, keyed by span name.
    They read attributes with defaults, so that a refactor that changes a
    return type loses a counter instead of failing the traced command."""

    def block_entries(args, result, state):
        tracer.count("linalg.block_entries", getattr(result, "nrows", 0) * getattr(result, "ncols", 0))

    def rank_unknown(args):
        return getattr(args[0], "_rank", None) is None

    def rank_entries(args, result, state):
        if state:
            tracer.count("linalg.rank_entries", getattr(args[0], "nrows", 0) * getattr(args[0], "ncols", 0))

    def lattice_unbuilt(args):
        return getattr(args[0], "_lattice", None) is None

    def faces_built(args, result, state):
        if state:
            tracer.count("cones.faces_built", len(getattr(result, "faces", ())))

    def complex_distinct(args, result, state):
        if tracer.first_time("ishida_complex", (_cone_key(args[0]), args[1])):
            tracer.count("ishida.ishida_complex.distinct")

    def route(args, result, state):
        if tracer.first_time("ic_multiplicities", _cone_key(args[0])):
            tracer.count(f"decomposition.route.{getattr(result, 'method', 'unknown')}")

    def directions(args, result, state):
        tracer.count("shelling.directions_tried", getattr(result, "direction_index", 0))

    def kept(args, result, state):
        tracer.count("sampling.cones_kept", len(result))

    return {
        "linalg.interior_product_matrix": (None, block_entries),
        "linalg.rank": (rank_unknown, rank_entries),
        "cones.face_lattice": (lattice_unbuilt, faces_built),
        "ishida.ishida_complex": (None, complex_distinct),
        "decomposition.ic_multiplicities": (None, route),
        "shelling.shelling": (None, directions),
        "sampling.sample_cones": (None, kept),
    }


def install(main_module) -> Tracer:
    """Wrap the program's functions in every module that binds them.
    `main_module` is the CLI module, which runs as __main__ under -m."""
    tracer = Tracer(os.environ.get("TORICISH_BENCH_COMMAND_ID", ""))
    hooks = _hooks(tracer)
    modules = {
        name[len("toricish."):]: mod
        for name, mod in list(sys.modules.items())
        if name.startswith("toricish.") and mod is not None
    }
    modules.setdefault("cli", main_module)
    bindings = list(modules.values()) + [sys.modules.get("toricish"), main_module]
    bindings = [m for m in bindings if m is not None]
    for layer, names in WRAPPED.items():
        module = modules.get(layer)
        for qualname in names:
            span = f"{layer}.{qualname.split('.')[-1]}"
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                tracer.absent.append(f"{layer}.{qualname}")
                continue
            wrapper = tracer.wrap(original, span, *hooks.get(span, (None, None)))
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for mod in bindings:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
    group = getattr(main_module, "cli", None)
    for cmd_name, command in getattr(group, "commands", {}).items():
        command.callback = tracer.wrap(command.callback, f"cli.cmd.{cmd_name}")
    return tracer
