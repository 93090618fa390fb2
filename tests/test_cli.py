import gc
import json
import random
from pathlib import Path

import pytest
from click.testing import CliRunner

from toricish.cli import cli
from toricish.combinatorics import g_polynomial
from toricish.cones import MAX_FACES, Cone, FaceLattice
from toricish.decomposition import decomposition_report
from toricish.ishida import ext_table
from toricish.sampling import sample_cones
from toricish.shelling import shelling

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(cli, [str(a) for a in args], catch_exceptions=False)


class TestFaces:
    def test_quadric(self, runner):
        res = invoke(runner, "faces", DATA / "quadric.json")
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["f_vector"] == [1, 4, 4, 1]
        preds = data["predicates"]
        assert preds["cone_over_simplicial"] and preds["cone_over_simple"]
        assert not preds["simplicial"]

    def test_orthant_all_predicates(self, runner):
        res = invoke(runner, "faces", DATA / "orthant.json")
        data = json.loads(res.output)
        assert data["predicates"]["simplicial"]
        assert all(data["predicates"]["simple_in_dim"].values())

    def test_binomial_via_dual_rays(self, runner):
        res = invoke(runner, "faces", DATA / "binomial_hypersurface.json")
        data = json.loads(res.output)
        assert data["f_vector"] == [1, 9, 18, 15, 6, 1]

    def test_golden_bytes(self, runner):
        res = invoke(runner, "faces", DATA / "binomial_hypersurface.json")
        assert res.output == (GOLDEN / "binomial_faces.json").read_text()


class TestIshidaCmd:
    def test_octahedron_l3(self, runner):
        res = invoke(runner, "ishida", DATA / "octahedron.json", "--l", 3)
        data = json.loads(res.output)
        assert data["cohomology"] == [0, 0, 2, 0]

    def test_face_class(self, runner):
        res = invoke(runner, "ishida", DATA / "octahedron.json", "--l", 3, "--face", "0,2,4")
        data = json.loads(res.output)
        assert data["face"] == [0, 2, 4]
        # simplicial facet class: everything vanishes at l = 3 (C(1, 3) = 0)
        assert data["face_class_cohomology"] == [0, 0, 0, 0]
        res = invoke(runner, "ishida", DATA / "octahedron.json", "--l", 1, "--face", "0,2,4")
        data = json.loads(res.output)
        assert data["face_class_cohomology"] == [1, 0]

    def test_bad_degree_exits_3(self, runner):
        res = invoke(runner, "ishida", DATA / "octahedron.json", "--l", 9)
        assert res.exit_code == 3

    @pytest.mark.parametrize(
        "face_sel,shown",
        [("-1", "[-1]"), ("99", "[99]"), ("1000000000000000000", "[1000000000000000000]"), ("5,0", "[0, 5]")],
    )
    def test_not_a_face_exits_3(self, runner, face_sel, shown):
        # Out-of-range indices, a huge one included, are no rays; rays 0 and
        # 5 are opposite vertices of the octahedron, so they span no face.
        res = runner.invoke(cli, ["ishida", str(DATA / "octahedron.json"), "--l", "2", "--face", face_sel])
        assert res.exit_code == 3
        assert f"no face with ray set {shown}" in res.output

    def test_repeated_face_index_exits_3(self, runner):
        # 0,0,2 is not read as the face [0, 2]
        res = invoke(runner, "ishida", DATA / "quadric.json", "--l", 2, "--face", "0,0,2")
        assert res.exit_code == 3
        assert "repeated ray index" in res.output
        assert invoke(runner, "ishida", DATA / "quadric.json", "--l", 2, "--face", "0,2").exit_code == 0


class TestExtCmd:
    def test_octahedron(self, runner):
        res = invoke(runner, "ext", DATA / "octahedron.json")
        data = json.loads(res.output)
        assert data["lcdef"] == 1
        assert data["depth"]["2"] == "maximal"
        entries = {(e["i"], e["k"]): e["dim"] for e in data["assembled_positive_ext"]}
        assert entries[(1, 3)] == 2 and entries[(2, 1)] == 2


class TestLcdefCmd:
    @pytest.mark.parametrize(
        "name,expected",
        [("quadric.json", 0), ("octahedron.json", 1), ("cube.json", 0)],
    )
    def test_trichotomy(self, runner, name, expected):
        res = invoke(runner, "lcdef", DATA / name)
        assert json.loads(res.output)["lcdef"] == expected


class TestDecomposeCmd:
    def test_quadric_golden(self, runner):
        res = invoke(runner, "decompose", DATA / "quadric.json")
        assert res.output == (GOLDEN / "quadric_decompose.json").read_text()

    def test_cube(self, runner):
        res = invoke(runner, "decompose", DATA / "cube.json")
        data = json.loads(res.output)
        assert data["lcdef"] == 0
        weights = {(r["degree"], r["weight"]) for r in data["rows"]}
        assert (0, 4) in weights and (0, 3) in weights and (0, 2) in weights


class TestGpolyCmd:
    def test_octahedron_golden(self, runner):
        res = invoke(runner, "gpoly", DATA / "octahedron.json")
        assert res.output == (GOLDEN / "octahedron_gpoly.json").read_text()

    def test_rank_zero_is_one(self, runner, tmp_path):
        path = tmp_path / "point.json"
        path.write_text('{"lattice_rank": 0, "rays": []}')
        data = json.loads(invoke(runner, "gpoly", path).output)
        assert data["coefficients"] == [1]


class TestHodgeCmd:
    def test_binomial_golden(self, runner):
        res = invoke(runner, "hodge", DATA / "binomial_hypersurface.json")
        assert res.output == (GOLDEN / "binomial_hodge.json").read_text()

    def test_square_polytope(self, runner):
        res = invoke(runner, "hodge", DATA / "square_polytope.json")
        data = json.loads(res.output)
        assert data["hodge_du_bois"] == [[1, 0, 0], [0, 2, 0], [0, 0, 1]]
        assert data["hodge_deligne_uv_coefficients"] == [1, 2, 1]

    def test_not_simple_exits_3(self, runner):
        res = invoke(runner, "hodge", DATA / "octahedron.json")
        assert res.exit_code == 3
        assert "not simple" in res.output

    def test_rank_one_is_a_point(self, runner, tmp_path):
        # The polytope f-vector leaves out the polytope itself, so a point
        # gets [] as a polygon gets [f_0, f_1].
        path = tmp_path / "ray.json"
        path.write_text('{"lattice_rank": 1, "rays": [[1]]}')
        data = json.loads(invoke(runner, "hodge", path).output)
        assert data == {
            "schema_version": 1,
            "command": "hodge",
            "polytope_dim": 0,
            "polytope_f_vector": [],
            "hodge_du_bois": [[1]],
            "hodge_deligne_uv_coefficients": [1],
            "betti": [1],
        }

    def test_rank_two_is_a_segment(self, runner, tmp_path):
        # A segment, n = len(f) - 2 = 1: the projective line, whose (0, 0)
        # entry is f[1] - n = 2 - 1.
        path = tmp_path / "segment.json"
        path.write_text('{"lattice_rank": 2, "rays": [[1, 0], [1, 3]]}')
        data = json.loads(invoke(runner, "hodge", path).output)
        assert data == {
            "schema_version": 1,
            "command": "hodge",
            "polytope_dim": 1,
            "polytope_f_vector": [2],
            "hodge_du_bois": [[1, 0], [0, 1]],
            "hodge_deligne_uv_coefficients": [1, 1],
            "betti": [1, 0, 1],
        }

    def test_rank_zero_exits_3(self, runner, tmp_path):
        path = tmp_path / "point.json"
        path.write_text('{"lattice_rank": 0, "rays": []}')
        res = runner.invoke(cli, ["hodge", str(path)])
        assert res.exit_code == 3
        assert "dimension at least 1" in res.output


class TestShellingCmd:
    def test_quadric(self, runner):
        res = invoke(runner, "shelling", DATA / "quadric.json")
        data = json.loads(res.output)
        assert data["verified"] is True
        assert len(data["order"]) == 4

    def test_rank_zero_exits_3(self, runner, tmp_path):
        path = tmp_path / "point.json"
        path.write_text('{"lattice_rank": 0, "rays": []}')
        res = runner.invoke(cli, ["shelling", str(path)])
        assert res.exit_code == 3
        assert "dimension at least 1" in res.output


class TestVerifyCmd:
    def test_file_all_suites(self, runner):
        res = invoke(runner, "verify", DATA / "quadric.json", "--suite", "all")
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["ok"] is True
        names = {c["name"] for c in data["results"][0]["checks"]}
        assert {"d_squared", "dualizing_exactness", "surjectivity", "codim_vanishing",
                "link_exactness", "shelling", "facet_inequalities", "closed_forms"} <= names

    @pytest.mark.parametrize("suite", ["all", "shelling", "surjectivity"])
    def test_rank_zero_checks_are_skipped(self, runner, tmp_path, suite):
        path = tmp_path / "point.json"
        path.write_text('{"lattice_rank": 0, "rays": []}')
        res = invoke(runner, "verify", path, "--suite", suite)
        assert res.exit_code == 0
        checks = {c["name"]: c for c in json.loads(res.output)["results"][0]["checks"]}
        for name in {"shelling", "surjectivity"} & set(checks):
            assert checks[name] == {
                "name": name, "ok": True, "failures": [], "skipped": "needs dimension at least 1"
            }
        assert suite == "all" or set(checks) == {suite}

    def test_closed_forms_skipped_above_dimension_six_outside_both_classes(self, runner, tmp_path, tower_prism_cone):
        path = tmp_path / "tower_prism.json"
        path.write_text(json.dumps({"lattice_rank": 7, "rays": [list(r) for r in tower_prism_cone.rays]}))
        res = invoke(runner, "verify", path, "--suite", "closed_forms")
        assert res.exit_code == 0
        [check] = json.loads(res.output)["results"][0]["checks"]
        assert check == {"name": "closed_forms", "ok": True, "failures": [], "skipped": "no closed form applies"}

    def test_random_mode_deterministic(self, runner):
        args = ["verify", "--random", "3", "3", "--seed", "7", "--suite", "d2"]
        a = invoke(runner, *args)
        b = invoke(runner, *args)
        assert a.exit_code == 0 and a.output == b.output

    def test_no_input_is_usage_error(self, runner):
        res = runner.invoke(cli, ["verify"])
        assert res.exit_code == 1

    @pytest.mark.parametrize("request_", [("4", "-3"), ("4", "0"), ("-2", "3")])
    def test_random_needs_positive_dim_and_count(self, runner, request_):
        res = runner.invoke(cli, ["verify", "--random", *request_, "--suite", "d2"])
        assert res.exit_code == 1
        assert "is not in the range x>=1" in res.output

    def test_random_above_the_sampled_dimensions_exits_3(self, runner):
        res = invoke(runner, "verify", "--random", "9", "1")
        assert res.exit_code == 3
        assert "error: random cones are sampled in dimension at most 8, not 9" in res.output

    def test_no_cone_family_outlives_its_caller(self):
        """With the cyclic garbage collector off, no cone or face lattice is
        left alive once its caller lets go of it: no face or lattice refers
        back to its cone, so reference counting frees every one of them."""
        from toricish.cli import _run_suite

        def family():
            return {id(o) for o in gc.get_objects() if isinstance(o, (Cone, FaceLattice))}

        def suites():
            for cone in sample_cones(7, 4, 5):
                _run_suite(cone, "all")

        def commands():
            cone = Cone.from_rays([(0, 0, 0, 1), (2, 0, 0, 1), (0, 3, 0, 1), (2, 3, 0, 1), (1, 1, 5, 1)])
            ext_table(cone)
            decomposition_report(cone)
            shelling(cone)
            g_polynomial(cone.face_lattice())

        gc.disable()
        try:
            # The ids of the session's corpora stay taken, so a new object
            # left alive shows up under an id not seen before.
            before = family()
            suites()
            after_suites = family()
            commands()
            after_commands = family()
        finally:
            gc.enable()
        assert after_suites <= before
        assert after_commands <= before

    def test_checked_cones_are_dropped(self, runner, monkeypatch):
        """verify keeps no cone, and so no face lattice, once its reports
        are built: at each cone's suites only that cone's lattice is alive."""
        from toricish import cli as cli_module

        def lattices():
            gc.collect()
            return {id(o) for o in gc.get_objects() if isinstance(o, FaceLattice)}

        def recording(cone, suite):
            reports = run_suite(cone, suite)
            live.append(len(lattices() - before))
            return reports

        # Lattices that other tests' corpora hold are not counted.
        before, live = lattices(), []
        run_suite = cli_module._run_suite
        monkeypatch.setattr(cli_module, "_run_suite", recording)
        res = invoke(runner, "verify", "--random", "4", "20", "--suite", "d2")
        assert res.exit_code == 0
        assert len(live) == 20 and max(live) <= 1, live

    def test_failure_exits_2(self, runner, monkeypatch):
        from toricish import ishida

        monkeypatch.setattr(
            ishida, "verify_d_squared",
            lambda cone: {"name": "d_squared", "ok": False, "failures": [{"forced": True}]},
        )
        res = runner.invoke(cli, ["verify", str(DATA / "quadric.json"), "--suite", "d2"])
        assert res.exit_code == 2
        assert '"forced": true' in res.output
        assert "verification failed: suite 'd2' reported failures" in res.output


class TestParams:
    """Each command's parameters keep their order: FILE, the command's own,
    then --format and -o."""

    @pytest.mark.parametrize(
        "command,names",
        [
            ("faces", ["file", "fmt", "output"]),
            ("ishida", ["file", "degree", "face_sel", "fmt", "output"]),
            ("ext", ["file", "fmt", "output"]),
            ("lcdef", ["file", "fmt", "output"]),
            ("decompose", ["file", "fmt", "output"]),
            ("gpoly", ["file", "fmt", "output"]),
            ("hodge", ["file", "fmt", "output"]),
            ("shelling", ["file", "fmt", "output"]),
            ("verify", ["file", "suite", "random_request", "seed", "fmt", "output"]),
        ],
    )
    def test_order(self, command, names):
        assert [p.name for p in cli.commands[command].params] == names


class TestIO:
    def test_byte_stability(self, runner):
        a = invoke(runner, "faces", DATA / "cube.json")
        b = invoke(runner, "faces", DATA / "cube.json")
        assert a.output == b.output

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "result.json"
        res = invoke(runner, "lcdef", DATA / "quadric.json", "-o", out)
        assert res.exit_code == 0
        assert json.loads(out.read_text())["lcdef"] == 0

    def test_table_format(self, runner):
        res = invoke(runner, "hodge", DATA / "binomial_hypersurface.json", "--format", "table")
        assert "q\\p" in res.output
        assert "betti 1 0 1 0 2 4 5 0 1" in res.output

    def test_missing_file_exits_3(self, runner):
        res = invoke(runner, "lcdef", "/nonexistent/cone.json")
        assert res.exit_code == 3

    def test_usage_error_exits_1(self, runner):
        res = runner.invoke(cli, ["faces"])
        assert res.exit_code == 1

    def test_malformed_json_exits_3(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = runner.invoke(cli, ["faces", str(bad)])
        assert res.exit_code == 3

    def test_two_input_forms_rejected(self, runner, tmp_path):
        bad = tmp_path / "two.json"
        bad.write_text(json.dumps({"lattice_rank": 2, "rays": [[1, 0]], "dual_rays": [[1, 0]]}))
        res = runner.invoke(cli, ["faces", str(bad)])
        assert res.exit_code == 3
        assert "exactly one" in res.output

    def test_all_three_input_forms(self, runner, tmp_path):
        # same combinatorics entered three ways: square cone
        rays = {"lattice_rank": 3, "rays": [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]]}
        dual = {"lattice_rank": 3, "dual_rays": [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]]}
        poly = {"lattice_rank": 2, "polytope_vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]]}
        f_vectors = []
        for i, payload in enumerate((rays, dual, poly)):
            path = tmp_path / f"in{i}.json"
            path.write_text(json.dumps(payload))
            res = invoke(runner, "faces", path)
            f_vectors.append(json.loads(res.output)["f_vector"])
        assert f_vectors[0] == f_vectors[1] == f_vectors[2] == [1, 4, 4, 1]

    def test_rank_zero_from_dual_rays(self, runner, tmp_path):
        # no dual ray in rank 0 describes the whole (zero) lattice
        path = tmp_path / "point.json"
        path.write_text('{"lattice_rank": 0, "dual_rays": []}')
        data = json.loads(invoke(runner, "faces", path).output)
        assert (data["lattice_rank"], data["rays"], data["f_vector"]) == (0, [], [1])


class TestInputValidation:
    """Bad cone files exit with code 3 and say what is wrong; nothing is
    coerced."""

    def _run(self, runner, tmp_path, text):
        path = tmp_path / "cone.json"
        path.write_text(text)
        return runner.invoke(cli, ["faces", str(path)])

    @pytest.mark.parametrize("top", ["42", "[]", '"x"'])
    def test_top_level_not_an_object(self, runner, tmp_path, top):
        res = self._run(runner, tmp_path, top)
        assert res.exit_code == 3
        assert "JSON object" in res.output

    @pytest.mark.parametrize(
        "ray", [[1.7, 0, 1], ["3", 0, 1], [True, 0, 1]], ids=["float", "string", "bool"]
    )
    def test_non_integer_coordinate(self, runner, tmp_path, ray):
        payload = {"lattice_rank": 3, "rays": [ray, [0, 1, 1], [0, 0, 1]]}
        res = self._run(runner, tmp_path, json.dumps(payload))
        assert res.exit_code == 3
        assert "integer coordinate" in res.output

    def test_missing_lattice_rank(self, runner, tmp_path):
        res = self._run(runner, tmp_path, json.dumps({"rays": [[1, 0], [0, 1]]}))
        assert res.exit_code == 3
        assert 'missing "lattice_rank"' in res.output

    def test_vector_length_not_the_rank(self, runner, tmp_path):
        payload = {"lattice_rank": 3, "rays": [[1, 0, 1], [0, 1]]}
        res = self._run(runner, tmp_path, json.dumps(payload))
        assert res.exit_code == 3
        assert "vector length does not match lattice_rank" in res.output

    @pytest.mark.parametrize("rank", [-1, 2.0], ids=["negative", "float"])
    def test_bad_lattice_rank(self, runner, tmp_path, rank):
        payload = {"lattice_rank": rank, "rays": [[1, 0], [0, 1]]}
        res = self._run(runner, tmp_path, json.dumps(payload))
        assert res.exit_code == 3
        assert "lattice_rank" in res.output

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"lattice_rank": 2, "rays": [[0, 0]]}', "not full-dimensional"),
            ('{"lattice_rank": 2, "polytope_vertices": []}', "empty vertex list"),
        ],
        ids=["zero-ray", "no-vertices"],
    )
    def test_no_generator(self, runner, tmp_path, text, message):
        res = self._run(runner, tmp_path, text)
        assert res.exit_code == 3
        assert message in res.output

    @pytest.mark.parametrize(
        "payload, message",
        [
            # full-dimensional, and holds the x3-axis
            ({"lattice_rank": 3, "dual_rays": [[1, 0, 0], [0, 1, 0]]}, "error: cone contains a line"),
            # the single ray spanned by (0, 1)
            ({"lattice_rank": 2, "dual_rays": [[1, 0], [-1, 0], [0, 1]]}, "error: cone not full-dimensional"),
        ],
        ids=["line", "ray"],
    )
    def test_dual_rays_name_the_defect_of_the_cone(self, runner, tmp_path, payload, message):
        res = self._run(runner, tmp_path, json.dumps(payload))
        assert res.exit_code == 3
        assert message in res.output

    def test_coordinates_above_every_certified_prime(self, runner, tmp_path):
        # 1,500-digit coordinates: no Mersenne prime tried bounds the minors
        rng = random.Random(5)
        rays = [[rng.randrange(10**1500) for _ in range(3)] + [1] for _ in range(6)]
        path = tmp_path / "cone.json"
        path.write_text(json.dumps({"lattice_rank": 4, "rays": rays}))
        res = runner.invoke(cli, ["ext", str(path)])
        assert res.exit_code == 3
        assert "error: Hadamard bound exceeds every Mersenne prime tried" in res.output

    def test_face_lattice_above_the_limit(self, runner, tmp_path):
        # the rank-40 orthant has 2^40 faces: the walk stops at the limit
        rays = [[int(i == j) for j in range(40)] for i in range(40)]
        res = self._run(runner, tmp_path, json.dumps({"lattice_rank": 40, "rays": rays}))
        assert res.exit_code == 3
        assert f"error: the face lattice has more than MAX_FACES = {MAX_FACES} faces" in res.output

    def test_other_arithmetic_errors_are_not_bad_input(self, runner, tmp_path, monkeypatch):
        # only a missing certified prime is reported as bad input; a bug
        # raising another ArithmeticError keeps its traceback
        from toricish import ishida

        def broken(cone):
            return 1 // 0

        monkeypatch.setattr(ishida, "lcdef", broken)
        path = tmp_path / "cone.json"
        path.write_text(json.dumps({"lattice_rank": 2, "rays": [[1, 0], [0, 1]]}))
        res = runner.invoke(cli, ["lcdef", str(path)])
        assert res.exit_code == 1
        assert isinstance(res.exception, ZeroDivisionError)

    def test_integral_float_coordinate_is_rejected(self, runner, tmp_path):
        # 1.0 names the same integer, but the file format asks for integers
        payload = {"lattice_rank": 2, "rays": [[1.0, 0], [0, 1]]}
        res = self._run(runner, tmp_path, json.dumps(payload))
        assert res.exit_code == 3
