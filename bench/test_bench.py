"""Tests of the benchmark's own code: the reference computations on small
cases worked by hand, the output checks, the span arithmetic and the
metric list of BENCHMARK.json.  Standard library only:

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import json
import sys
import tempfile
import types
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH / "hook"))

import checks  # noqa: E402
import layers  # noqa: E402
import reference as ref  # noqa: E402
import toricish_trace  # noqa: E402
from inputs import CUBIC_FOURFOLD_F, all_inputs  # noqa: E402

SQUARE = ref.cone_f_vector(ref.cube_faces(2))
CUBE3 = ref.cone_f_vector(ref.cube_faces(3))
OCTAHEDRON = ref.cone_f_vector(ref.cross_faces(3))


class FaceNumbers(unittest.TestCase):
    def test_small_polytopes(self):
        self.assertEqual(SQUARE, (1, 4, 4, 1))
        self.assertEqual(CUBE3, (1, 8, 12, 6, 1))
        self.assertEqual(OCTAHEDRON, (1, 6, 12, 8, 1))
        self.assertEqual(ref.simplex_faces(3), [4, 6, 4, 1])
        self.assertEqual(ref.cross_faces(2), [4, 4, 1])

    def test_constructions(self):
        self.assertEqual(ref.pyramid_faces(ref.cube_faces(3)), [9, 20, 18, 7, 1])
        tower = ref.pyramid_faces(ref.pyramid_faces(ref.cube_faces(3)))
        self.assertEqual(ref.cone_f_vector(tower), (1, 10, 29, 38, 25, 8, 1))
        # Two octahedra and eight triangular prisms.
        self.assertEqual(ref.prism_faces(ref.cross_faces(3)), [12, 30, 28, 10, 1])
        # The cubic fourfold's cone is the cone over a product of triangles.
        two = ref.product_faces(ref.simplex_faces(2), ref.simplex_faces(2))
        self.assertEqual(ref.cone_f_vector(two), CUBIC_FOURFOLD_F)

    def test_cube_and_cross_polytope_are_polar(self):
        for d in range(1, 7):
            cube, cross = ref.cube_faces(d), ref.cross_faces(d)
            self.assertEqual(cross[:-1], list(reversed(cube[:-1])))

    def test_inputs_match_their_face_numbers(self):
        for item in all_inputs().values():
            self.assertEqual(len(item.cone_f), item.rank + 1, item.name)
            if item.key == "rays":
                self.assertEqual(len(set(item.vectors)), item.cone_f[1], item.name)


class Transforms(unittest.TestCase):
    def test_h_vectors(self):
        self.assertEqual(ref.h_vector(SQUARE), (1, 2, 1))
        self.assertEqual(ref.h_vector(OCTAHEDRON), (1, 3, 3, 1))
        self.assertEqual(ref.h_vector(CUBE3), (1, -1, 5, 1))
        self.assertEqual(ref.h_tilde_vector(CUBE3), (1, 3, 3, 1))
        self.assertEqual(ref.h_tilde_vector(SQUARE), (1, 2, 1))

    def test_g(self):
        self.assertEqual(ref.g_vector(ref.h_vector(OCTAHEDRON)), (1, 2))
        self.assertEqual(ref.g1(OCTAHEDRON), 2)
        self.assertEqual(ref.g1(CUBE3), 4)
        self.assertEqual(ref.g1(SQUARE), 1)

    def test_ext_closed_form(self):
        self.assertEqual(ref.ext_simplicial(OCTAHEDRON), {(1, 3): 2, (2, 1): 2})
        cross4 = ref.cone_f_vector(ref.cross_faces(4))
        self.assertEqual(ref.ext_simplicial(cross4), {(1, 4): 3, (2, 3): 2, (2, 2): 2, (3, 1): 3})

    def test_multiplicities(self):
        self.assertEqual(ref.multiplicities(OCTAHEDRON, "simplicial"), {(1, 1): 2})
        self.assertEqual(ref.multiplicities(CUBE3, "simple"), {(0, 1): 2})
        self.assertEqual(ref.multiplicities(SQUARE, "simple"), {(0, 1): 1})
        self.assertEqual(ref.multiplicities(ref.cone_f_vector(ref.simplex_faces(3)), "simple"), {})

    def test_euler_characteristic(self):
        # Betti numbers of the singular cubic fourfold; it has 6 facets.
        self.assertEqual(ref.euler_characteristic([1, 0, 1, 0, 2, 4, 5, 0, 1]), 6)


class Checks(unittest.TestCase):
    def setUp(self):
        self.inputs = all_inputs()

    def test_ext_on_octahedron_shaped_payload(self):
        item = self.inputs["cross4"]
        top = list(range(8))
        payload = {
            "depth": {"0": "maximal", "5": "maximal"},
            "lcdef": 2,
            "assembled_positive_ext": [
                {"face": top, "i": i, "k": k, "dim": d}
                for (i, k), d in ref.ext_simplicial(item.cone_f).items()
            ],
        }
        self.assertEqual(checks.check_ext(payload, item, {}), [])
        payload["assembled_positive_ext"][0]["dim"] += 1
        self.assertTrue(checks.check_ext(payload, item, {}))

    def test_lcdef_must_agree_between_commands(self):
        item = self.inputs["cross4"]
        shared = {("lcdef", "cross4"): 1}
        payload = {"depth": {"0": "maximal", "5": "maximal"}, "lcdef": 2, "assembled_positive_ext": []}
        self.assertTrue(any("lcdef" in p for p in checks.check_ext(payload, item, shared)))

    def test_faces_rejects_a_wrong_f_vector(self):
        item = self.inputs["cross6"]
        n = item.rank
        payload = {
            "f_vector": list(item.cone_f),
            "faces_by_dim": {str(d): [[0]] * item.cone_f[d] for d in range(n + 1)},
            "rays": [[0]] * item.cone_f[1],
            "facet_normals": [[0]] * item.cone_f[n - 1],
            "predicates": {
                "simplicial": False,
                "cone_over_simple": False,
                "cone_over_simplicial": True,
                "simple_in_dim": {str(c): c >= 5 for c in range(n + 1)},
            },
        }
        self.assertEqual(checks.check_faces(payload, item, {}), [])
        payload["f_vector"][2] -= 1
        self.assertTrue(checks.check_faces(payload, item, {}))

    def test_hodge_euler_characteristic(self):
        item = self.inputs["cubic-fourfold"]
        payload = {
            "polytope_dim": 4,
            "polytope_f_vector": [9, 18, 15, 6],
            "betti": [1, 0, 1, 0, 2, 4, 5, 0, 1],
            "hodge_du_bois": checks.CUBIC_FOURFOLD_DIAMOND,
        }
        self.assertEqual(checks.check_hodge(payload, item, {}), [])
        payload["betti"][5] = 3
        self.assertTrue(checks.check_hodge(payload, item, {}))


class Spans(unittest.TestCase):
    def test_nested_spans_give_self_time(self):
        tracer = toricish_trace.Tracer("test")

        def inner(x):
            return x + 1

        wrapped_inner = tracer.wrap(inner, "linalg.inner")

        def outer(x):
            return wrapped_inner(x) + wrapped_inner(x)

        wrapped_outer = tracer.wrap(outer, "cones.outer")
        self.assertEqual(wrapped_outer(1), 4)
        self.assertEqual(list(tracer.span_parent), [-1, 0, 0])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.json"
            tracer.dump(str(path))
            totals, absent = layers.read_trace(path)
        self.assertEqual(totals["linalg.inner.calls"], 2)
        self.assertEqual(totals["cones.outer.calls"], 1)
        starts, ends = tracer.span_start, tracer.span_end
        children = (ends[1] - starts[1]) + (ends[2] - starts[2])
        self.assertAlmostEqual(totals["cones.outer.s"], (ends[0] - starts[0] - children) / 1e9)
        self.assertAlmostEqual(totals["linalg.self_s"], children / 1e9)
        self.assertEqual(absent, set())


class Install(unittest.TestCase):
    def test_rebinds_imported_names_and_reports_absent_ones(self):
        package = types.ModuleType("toricish")
        linalg = types.ModuleType("toricish.linalg")

        def interior_product_matrix(n):
            return types.SimpleNamespace(nrows=n, ncols=2)

        interior_product_matrix.__module__ = "toricish.linalg"

        class RatMatrix:
            def rank(self):
                return 1

        linalg.interior_product_matrix = interior_product_matrix
        linalg.RatMatrix = RatMatrix
        cli = types.ModuleType("__main__")
        cli.interior_product_matrix = interior_product_matrix  # a from-import
        fakes = {"toricish": package, "toricish.linalg": linalg}
        saved = {name: sys.modules.get(name) for name in fakes}
        sys.modules.update(fakes)
        try:
            tracer = toricish_trace.install(cli)
        finally:
            for name, mod in saved.items():
                if mod is None:
                    sys.modules.pop(name)
                else:
                    sys.modules[name] = mod
        self.assertIsNot(cli.interior_product_matrix, interior_product_matrix)
        self.assertIs(cli.interior_product_matrix, linalg.interior_product_matrix)
        cli.interior_product_matrix(3)
        RatMatrix().rank()
        self.assertEqual(tracer.counters["linalg.block_entries"], 6)
        self.assertEqual([tracer.names[i] for i in tracer.span_name],
                         ["linalg.interior_product_matrix", "linalg.rank"])
        self.assertIn("linalg.RatMatrix.matmul", tracer.absent)
        self.assertIn("cones.dual_description", tracer.absent)
        self.assertIn("cli.load_cone_file", tracer.absent)


class BenchmarkFile(unittest.TestCase):
    def test_per_layer_metrics_match(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        self.assertEqual(listed, layers.METRICS)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         ["general-dim6", "verify-sweep", "combinatorial-highdim"])


if __name__ == "__main__":
    unittest.main()
