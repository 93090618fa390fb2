"""What the package imports, and when.

- Every name a package module imports is used in that module.  A name
  counts as used when it appears as a name anywhere in the module, string
  annotations included; `from __future__` imports bind no name.
- `import toricish` loads no submodule; each exported name loads its
  defining module on first access.
- A command-line process imports the modules its command reaches before
  click dispatches, and no others: `faces` loads only cones and linalg.
"""

import ast
import functools
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toricish
from toricish.cli import COMMAND_MODULES, cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "toricish"
MODULES = sorted(PACKAGE.glob("*.py"))
CUBE = str(ROOT / "tests" / "data" / "cube.json")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import functools\nfrom dataclasses import dataclass, field\n@dataclass\nclass A: pass\n") == [
        "field (line 2)",
        "functools (line 1)",
    ]
    assert unused_imports('from typing import Sequence\ndef f(x: "Sequence[int]"): pass\n') == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that finds the package under src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


# The package's exports by defining module.  `shelling` is the module, not
# its function.
EXPORTS = {
    "combinatorics": "ICStalkPoly betti_numbers g_polynomial h_tilde_vector h_vector hodge_deligne_coefficients hodge_du_bois_table",
    "cones": "Cone Face FaceLattice cone_over_polytope dual_description is_cone_over_simple is_cone_over_simplicial is_simple_in_dim is_simplicial",
    "decomposition": "ICMultiplicities decomposition_report ic_multiplicities multiplicities_from_cohomology multiplicities_simple_class multiplicities_simplicial_class",
    "ishida": "ExtTable IshidaComplex cohomology_dims core_table ext_table facet_inequalities_report graded_class_cohomology ishida_complex lcdef verify_codim_vanishing verify_d_squared verify_dualizing_exactness verify_link_exactness verify_surjectivity",
    "linalg": "Contraction RatMatrix interior_product_matrix primitive_vector",
    "shelling": "Shelling is_shelling",
}


def test_import_toricish_loads_no_submodule():
    proc = run_python("-c", "import json, sys, toricish; print(json.dumps(sorted(m for m in sys.modules if m.startswith('toricish'))))")
    assert json.loads(proc.stdout) == ["toricish"]


def test_exports_resolve_to_their_defining_module():
    assert toricish.__all__ == sorted(name for names in EXPORTS.values() for name in names.split())
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"toricish.{module}")
        for name in names.split():
            assert getattr(toricish, name) is getattr(home, name), name


def test_readme_import_line():
    from toricish import Cone, ext_table, ic_multiplicities, lcdef
    from toricish.cones import Cone as home_cone
    from toricish.decomposition import ic_multiplicities as home_multiplicities
    from toricish.ishida import ext_table as home_ext_table, lcdef as home_lcdef

    assert (Cone, lcdef, ic_multiplicities, ext_table) == (home_cone, home_lcdef, home_multiplicities, home_ext_table)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        toricish.no_such_name
    with pytest.raises(ImportError):
        exec("from toricish import no_such_name", {})


def test_the_shelling_submodule_is_a_module():
    import toricish.shelling as module

    assert module is sys.modules["toricish.shelling"] is toricish.shelling
    assert callable(module.shelling)


# Runs the console entry point with the arguments given and writes to stderr,
# as its last line, the package modules loaded when click's Command.main is
# entered and when it returns.
PROBE = """
import json, sys
import click.core
from toricish import cli

def loaded():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "toricish")

def recording_main(self, *args, **kwargs):
    entry = loaded()
    try:
        return main(self, *args, **kwargs)
    finally:
        print(json.dumps([entry, loaded()]), file=sys.stderr)

main, click.core.Command.main = click.core.Command.main, recording_main
cli.main()
"""

# A small run of each command.
COMMAND_ARGS = {
    "faces": [CUBE],
    "ishida": [CUBE, "--l", "1"],
    "ext": [CUBE],
    "lcdef": [CUBE],
    "decompose": [CUBE],
    "gpoly": [CUBE],
    "hodge": [CUBE],
    "shelling": [CUBE],
    "verify": ["--random", "3", "1"],
}
BASE = ["toricish", "toricish.cli", "toricish.cones", "toricish.linalg"]


@functools.lru_cache(maxsize=None)
def footprint(command: str) -> tuple[list[str], list[str]]:
    """The package modules loaded at dispatch and at exit of one run of
    `command` through main()."""
    proc = run_python("-c", PROBE, command, *COMMAND_ARGS[command])
    entry, exit_ = json.loads(proc.stderr.splitlines()[-1])
    return entry, exit_


def test_every_command_has_modules_and_a_probe():
    assert set(cli.commands) == set(COMMAND_MODULES) == set(COMMAND_ARGS)


@pytest.mark.parametrize("command", sorted(cli.commands))
def test_a_command_imports_nothing_after_dispatch(command):
    entry, exit_ = footprint(command)
    assert entry == exit_
    assert set(BASE) | {f"toricish.{m}" for m in COMMAND_MODULES[command]} <= set(entry)


def test_faces_loads_only_cones_and_linalg():
    assert footprint("faces") == (BASE, BASE)
