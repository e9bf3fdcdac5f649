import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatland import build_triangulation, census, cli, format_tri
from tests.conftest import fam, shuffled

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def load_schema(name: str) -> dict:
    text = resources.files("flatland.schemas").joinpath(name).read_text()
    return json.loads(text)


@pytest.fixture()
def tri_file(tmp_path):
    def make(name: str):
        path = tmp_path / (name.replace("(", "_").replace(",", "_").replace(")", "") + ".tri")
        path.write_text(format_tri(fam(name)))
        return str(path)

    return make


class TestFamily:
    def test_text_output_has_labels(self):
        code, out, _ = run_cli("family", "T(7,1,2)")
        assert code == 0
        assert out.startswith("# T_{7,1,2}\n")
        assert "# vertex 0 = 1" in out
        assert "7 14" in out

    def test_out_file_checks_clean(self, tmp_path):
        path = tmp_path / "t.tri"
        code, _, _ = run_cli("family", "T(12,1,3)", "--out", str(path))
        assert code == 0
        code, out, _ = run_cli("check", str(path))
        assert code == 0 and "surface: torus" in out

    def test_json_validates(self):
        code, out, _ = run_cli("family", "B(3,4)", "--json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("triangulation.schema.json"))
        assert payload["n"] == 12

    def test_out_with_json_exit_2(self, tmp_path):
        # --json prints to stdout, so --out with it would be dropped.
        path = tmp_path / "t.tri"
        code, out, err = run_cli("family", "T(7,1,2)", "--out", str(path), "--json")
        assert (code, out) == (2, "") and "not allowed with argument" in err
        assert not path.exists()

    def test_bad_parameters_exit_2(self):
        code, _, err = run_cli("family", "T(9,1,4)")
        assert code == 2 and "k in" in err

    @pytest.mark.parametrize("name", ["T(12,1,3", "B(3,4}", "T(12,,1,3)", "T(012,1,3)"])
    def test_malformed_name_exit_2(self, name):
        code, out, err = run_cli("family", name)
        assert (code, out) == (2, "") and err == f"error: cannot parse family name {name!r}\n"

    def test_overlong_parameter_exit_2_without_echoing_it(self):
        code, out, err = run_cli("family", f"T({'9' * 5000},1,3)")
        assert (code, out) == (2, "")
        assert err == ("error: a T family parameter has more than 20 digits; "
                       "members have at most 100000 vertices\n")

    def test_bad_twist_names_the_ranges_in_one_short_line(self):
        code, out, err = run_cli("family", "T(100000,1,1)")
        assert (code, out) == (2, "")
        assert err == "error: T_{100000,1,k} needs k in 2..49998 or 50001..99997, got k=1\n"
        assert len(err.encode()) < 200


class TestCheck:
    def test_valid(self, tri_file):
        code, out, _ = run_cli("check", tri_file("Q(5,2)"))
        assert code == 0
        assert "surface: klein_bottle" in out
        assert "euler: 0" in out
        assert "orientable: no" in out
        assert "regular_degree: 6" in out

    def test_invalid_complex_exit_1(self, tmp_path):
        path = tmp_path / "disk.tri"
        path.write_text("3 1\n0 1 2\n")
        code, out, _ = run_cli("check", str(path))
        assert code == 1 and "invalid:" in out

    def test_malformed_file_reports_line_and_exit_2(self, tmp_path):
        path = tmp_path / "bad.tri"
        path.write_text("4 4\n0 1 2\n0 1\n")
        code, _, err = run_cli("check", str(path))
        assert code == 2 and "line 3" in err

    def test_missing_file_exit_2(self):
        code, _, err = run_cli("check", "/nonexistent/x.tri")
        assert code == 2 and err

    @pytest.mark.parametrize("command", ["check", "aut", "iso"])
    def test_directory_exit_2(self, tmp_path, command):
        paths = [str(tmp_path)] * (2 if command == "iso" else 1)
        code, _, err = run_cli(command, *paths)
        assert code == 2 and "Is a directory" in err

    @pytest.mark.parametrize("name,text,line", [
        ("plus.tri", "4 4\n0 1 +2\n0 1 3\n0 2 3\n1 2 3\n",
         "error: line 2: face vertices must be integers\n"),
        ("long.tri", f"{'9' * 5000} 4\n0 1 2\n0 1 3\n0 2 3\n1 2 3\n",
         "error: line 1: a number has more than 4300 digits\n"),
        ("long.json", f'{{"faces": [],\n"n": {"9" * 5000}}}',
         "error: line 2: a number has more than 4300 digits\n"),
    ])
    def test_integer_spelling_the_writer_never_uses_exit_2(self, tmp_path, name, text, line):
        path = tmp_path / name
        path.write_text(text)
        assert run_cli("check", str(path)) == (2, "", line)

    def test_infinite_json_vertex_count_exit_2(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"n": 1e400, "faces": []}')
        code, _, err = run_cli("check", str(path))
        assert code == 2 and "bad JSON" in err

    @pytest.mark.parametrize("n", ["7.9", '"7"', "true"])
    def test_non_integer_json_vertex_count_exit_2(self, tmp_path, n):
        # The faces of T(7,1,2): with "n": 7 the file is a valid torus.
        path = tmp_path / "t.json"
        path.write_text(f'{{"n": {n}, "faces": {json.dumps(fam("T(7,1,2)").faces)}}}')
        code, out, err = run_cli("check", str(path))
        assert (code, out) == (2, "") and "is not an integer" in err

    def test_mixed_degrees_listed(self, tmp_path, double_pyramid):
        path = tmp_path / "pyramid.tri"
        path.write_text(format_tri(double_pyramid))
        code, out, _ = run_cli("check", str(path))
        assert code == 0 and "degrees: 4 4 4 3 3\n" in out

    def test_face_listed_twice_exit_1(self, tmp_path):
        # The 14 faces of the 7-vertex torus, then its first face (0, 1, 3) again.
        faces = fam("T(7,1,2)").faces
        path = tmp_path / "twice.tri"
        path.write_text("7 15\n" + "".join(f"{a} {b} {c}\n" for a, b, c in faces + faces[:1]))
        message = "face (0, 1, 3) is listed twice\n"
        assert run_cli("check", str(path)) == (1, "invalid: " + message, "")
        assert run_cli("aut", str(path)) == (2, "", "error: " + message)

    def test_empty_face_list_exit_1(self, tmp_path):
        path = tmp_path / "empty.tri"
        path.write_text("4 0\n")
        assert run_cli("check", str(path)) == (1, "invalid: empty face list\n", "")


class TestInvalidComplex:
    """An invalid complex is a verdict under `check` (exit 1) and an input
    error under every other command (exit 2), with the same message."""

    @pytest.mark.parametrize("command", ["check", "aut", "invariant", "iso"])
    def test_exit_code_per_command(self, tmp_path, command):
        path = tmp_path / "open.tri"
        path.write_text("4 3\n0 1 2\n0 1 3\n1 2 3\n")  # a tetrahedron less a face
        extra = {"invariant": ["--g", "2"], "iso": [str(path)]}.get(command, [])
        message = "edge (0, 2) lies in 1 face(s), expected 2\n"
        expected = (1, "invalid: " + message, "") if command == "check" else (2, "", "error: " + message)
        assert run_cli(command, str(path), *extra) == expected


class TestInvariant:
    def test_shape_string(self, tri_file):
        code, out, _ = run_cli("invariant", tri_file("T(12,1,4)"), "--g", "4")
        assert code == 0 and out.strip() == "G_4(EG) = 3K_4"

    def test_negative_count_exit_2(self, tri_file):
        code, _, err = run_cli("invariant", tri_file("T(7,1,2)"), "--g", "-1")
        assert code == 2 and "common-neighbor count" in err


class TestIso:
    def test_isomorphic_exit_0(self, tri_file):
        code, out, _ = run_cli("iso", tri_file("T(17,1,5)"), tri_file("T(17,1,2)"))
        assert code == 0 and out.startswith("isomorphic")

    def test_non_isomorphic_exit_1(self, tri_file):
        code, out, _ = run_cli("iso", tri_file("T(12,1,2)"), tri_file("T(12,1,3)"))
        assert code == 1 and "not isomorphic" in out

    def test_face_count_named(self, tmp_path, tri_file):
        # The pentagonal bipyramid: a 7-vertex sphere with 10 faces.
        sphere = build_triangulation(7, [(i, (i + 1) % 5, apex) for i in range(5) for apex in (5, 6)])
        path = tmp_path / "sphere.tri"
        path.write_text(format_tri(sphere))
        code, out, _ = run_cli("iso", str(path), tri_file("T(7,1,2)"))
        assert (code, out) == (1, "not isomorphic: face count (10 vs 14)\n")

    def test_json_validates_both_ways(self, tri_file):
        schema = load_schema("isomorphism.schema.json")
        code, out, _ = run_cli(
            "iso", tri_file("T(13,1,2)"), tri_file("T(13,1,4)"), "--json"
        )
        assert code == 0
        jsonschema.validate(json.loads(out), schema)
        code, out, _ = run_cli(
            "iso", tri_file("T(6,2,2)"), tri_file("T(12,1,4)"), "--json"
        )
        assert code == 1
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert payload["distinguishing_invariant"]


class TestAut:
    def test_order_60(self, tri_file):
        code, out, _ = run_cli("aut", tri_file("T(15,1,3)"))
        assert code == 0 and "order: 60" in out

    def test_json_validates(self, tri_file):
        code, out, _ = run_cli("aut", tri_file("T(3,3,0)"), "--json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("automorphisms.schema.json"))
        assert payload["combinatorially_regular"] is True
        assert payload["flag_orbits"] == 1

    def test_flag_orbits_from_order(self, tri_file):
        code, out, _ = run_cli("aut", tri_file("T(15,1,3)"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["order"], payload["flag_orbits"]) == (60, 3)


class TestEnumerate:
    def test_emits_files_and_summary(self, tmp_path):
        out_dir = tmp_path / "census"
        code, _, _ = run_cli("enumerate", "--n", "9", "--out", str(out_dir))
        assert code == 0
        tri_files = sorted(p.name for p in out_dir.glob("*.tri"))
        assert len(tri_files) == 3
        assert all(name.startswith("9_") for name in tri_files)
        assert any("klein_bottle" in name for name in tri_files)
        payload = json.loads((out_dir / "census_9.json").read_text())
        jsonschema.validate(payload, load_schema("census.schema.json"))
        assert payload["total"] == 3
        # every emitted file round-trips through check
        for name in tri_files:
            code, _, _ = run_cli("check", str(out_dir / name))
            assert code == 0


    def test_out_is_a_file_exit_2(self, tmp_path):
        path = tmp_path / "taken"
        path.write_text("")
        code, _, err = run_cli("enumerate", "--n", "7", "--out", str(path))
        assert code == 2 and "exists" in err


class TestClassify:
    def test_table(self):
        code, out, _ = run_cli("classify", "--n", "9")
        assert code == 0
        assert "total 3, torus 2, klein_bottle 1" in out

    def test_zero_vertices_exit_2(self):
        code, _, err = run_cli("classify", "--n", "0")
        assert code == 2 and "vertex count" in err

    def test_json_deterministic_across_jobs(self):
        _, out1, _ = run_cli("classify", "--n", "10", "--jobs", "1", "--json")
        _, out2, _ = run_cli("classify", "--n", "10", "--jobs", "4", "--json")
        assert out1 == out2
        jsonschema.validate(json.loads(out1), load_schema("census.schema.json"))

    def test_json_deterministic_across_jobs_where_the_search_splits(self, monkeypatch):
        # At n = 24 the search splits into 8 frontier states of very unequal
        # size: one holds 2 682 of the 2 867 nodes below them.
        monkeypatch.setattr(census.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(census.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        outputs = set()
        for jobs in ("1", "2", "3"):
            code, out, _ = run_cli("classify", "--n", "24", "--jobs", jobs, "--json")
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_leaves_of_one_class_merge_by_code(self, monkeypatch):
        # Without the prefix test the search leaves each class of n = 12
        # once per flag orbit, 43 leaves for 7 classes.  Merged by canonical
        # code, they give the same census.
        _, expected, _ = run_cli("classify", "--n", "12", "--json")
        canonicalize, leaves = census._canonicalize_leaves, []
        monkeypatch.setattr(census, "_canonicalize_leaves", lambda n, found, deadline=None:
                            leaves.extend(found) or canonicalize(n, found, deadline))
        monkeypatch.setattr(census._LinkSearch, "_search_flag_leads", lambda self: True)
        code, out, _ = run_cli("classify", "--n", "12", "--json")
        assert (code, out) == (0, expected)
        assert len(leaves) == 43


class TestBudget:
    def test_budget_flag_exit_3(self):
        code, _, err = run_cli("classify", "--n", "12", "--budget", "0.0")
        assert code == 3 and "resource limit" in err

    def test_budget_exit_3_when_the_frontier_is_the_whole_tree(self):
        code, out, err = run_cli("classify", "--n", "7", "--budget", "0")
        assert (code, out) == (3, "")
        assert "time budget (0 nodes, 0/0 states done)" in err

    def test_budget_comes_from_the_flag_alone(self, monkeypatch):
        # No environment variable sets the budget: this census completes.
        monkeypatch.setenv("FLATLAND_BUDGET_SECS", "0")
        code, _, _ = run_cli("classify", "--n", "9")
        assert code == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_budget_exit_2(self, value):
        code, _, err = run_cli("classify", "--n", "9", "--budget", value)
        assert code == 2 and "budget" in err


class TestJobs:
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_jobs_exit_2(self, value):
        code, _, err = run_cli("classify", "--n", "9", "--jobs", value)
        assert code == 2 and "jobs" in err


def run_limited(*argv, timeout=60):
    """Run the CLI in a child process whose address space is capped at 1 GiB."""
    return run_python_limited("-m", "flatland.cli", *argv, timeout=timeout)


def run_python_limited(*argv, timeout=60):
    """Run Python in a child process whose address space is capped at
    1 GiB; the limit is set in the child only, never on this process."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env,
                          preexec_fn=limit, capture_output=True, text=True, timeout=timeout)


class TestBoundedInputs:
    """Oversized inputs end with an exit code in bounded memory, not a
    MemoryError traceback."""

    @pytest.mark.parametrize("command,code,line", [
        ("check", 1, "invalid: vertex 4 lies in no face\n"),
        ("aut", 2, "error: vertex 4 lies in no face\n"),
    ])
    def test_huge_vertex_count(self, tmp_path, command, code, line):
        path = tmp_path / "huge.tri"
        path.write_text("1000000000 4\n0 1 2\n0 1 3\n0 2 3\n1 2 3\n")
        proc = run_limited(command, str(path))
        assert (proc.returncode, proc.stdout + proc.stderr) == (code, line)

    def test_huge_census_hits_the_budget(self):
        proc = run_limited("classify", "--n", "1000000000", "--budget", "0.5", timeout=30)
        assert proc.returncode == 3 and "time budget" in proc.stderr

    def test_huge_search_runs_its_prefix_test_in_bounded_memory(self):
        # The prefix test labels only the vertices in use, so 512 nodes of
        # a search on 10^9 vertices fit in 1 GiB.
        proc = run_python_limited("-c", "from flatland import census\n"
                                  "s = census._LinkSearch(10**9, census._initial_star(), None, 512)\n"
                                  "s.run([])\n"
                                  "print(s.nodes, s.pruned, len(s.ties))")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "512 1 3\n", "")

    def test_deep_search_keeps_its_race_in_linear_memory(self):
        # 16 000 nodes of the frontier state whose search goes deepest at
        # n = 10^9, 14 780 faces: each level keeps the race's lengths, not a
        # copy of it, so the path fits in 1 GiB.
        proc = run_python_limited("-c", "from flatland import census\n"
                                  "states, _ = census._frontier(10**9, 8)\n"
                                  "s = census._LinkSearch(10**9, list(states[8]), None, 16000)\n"
                                  "s.run([])\n"
                                  "print(s.nodes, len(s.faces))")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "16000 14780\n", "")

    @pytest.mark.stretch
    def test_huge_census_runs_to_its_budget_in_bounded_memory(self):
        # Four seconds take the search thousands of faces deep.
        proc = run_limited("classify", "--n", "1000000000", "--budget", "4", timeout=60)
        assert proc.returncode == 3 and "time budget" in proc.stderr

    def test_huge_family_exit_2(self):
        proc = run_limited("family", "T(1000000000,1,3)")
        assert proc.returncode == 2
        assert proc.stderr == "error: T_{1000000000,1,3} has more than 100000 vertices\n"

    # A flag-regular member has |Aut| = 12n; the group is kept as generators
    # and orbits, so its size does not bound the memory.
    @pytest.mark.parametrize("k", [60, pytest.param(100, marks=pytest.mark.stretch)])
    def test_aut_of_a_large_flag_regular_member(self, tmp_path, k):
        path = tmp_path / "big.tri"
        path.write_text(format_tri(fam(f"T({k},{k},0)")))
        proc = run_limited("aut", str(path), "--json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert (payload["order"], payload["vertex_orbits"]) == (12 * k * k, 1)

    # A Klein bottle's scan starts at the vertex with the largest balls,
    # grown for all 5000 vertices at once.
    @pytest.mark.stretch
    def test_aut_of_a_large_klein_bottle(self, tmp_path):
        path = tmp_path / "big.tri"
        path.write_text(format_tri(shuffled(fam("K(50,100)"), 1)))
        proc = run_limited("aut", str(path), "--json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert (payload["order"], payload["vertex_orbits"]) == (400, 26)


class TestUsage:
    def test_unknown_command_exit_2(self):
        code, _, err = run_cli("frobnicate")
        assert code == 2 and "usage error" in err

    def test_missing_argument_exit_2(self):
        code, _, _ = run_cli("invariant", "x.tri")
        assert code == 2

    def test_parser_is_built_once(self, monkeypatch):
        built = []

        class Counted(cli._Parser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        cli._build_parser.cache_clear()
        monkeypatch.setattr(cli, "_Parser", Counted)
        try:
            for _ in range(3):
                assert run_cli("family", "T(7,1,2)", "--json")[0] == 0
                assert run_cli("frobnicate")[0] == 2
        finally:
            cli._build_parser.cache_clear()
        assert built.count("flatland") == 1

    def test_reused_parser_keeps_no_state(self):
        # A usage error after a good call reads as it does on its own, and
        # a --json call leaves no --json behind for the next.
        first = run_cli("invariant", "x.tri")
        assert run_cli("family", "T(7,1,2)", "--json")[0] == 0
        assert run_cli("invariant", "x.tri") == first
        assert first[0] == 2 and first[2].startswith("usage error: ")
        code, out, _ = run_cli("family", "T(7,1,2)")
        assert code == 0 and out.startswith("# T_{7,1,2}\n")
        assert out.endswith(format_tri(fam("T(7,1,2)")))


# Text that looks like a .tri file often enough to get past the header.
TRI_TEXT = st.one_of(
    st.text(),
    st.lists(
        st.lists(st.integers(-1, 9), max_size=4).map(lambda row: " ".join(map(str, row))),
        max_size=12,
    ).map("\n".join),
)
SCALAR = st.one_of(st.integers(-1, 9), st.floats(), st.text(max_size=3), st.none())
JSON_TEXT = st.one_of(
    st.text(),
    st.fixed_dictionaries(
        {"n": SCALAR, "faces": st.lists(st.lists(SCALAR, max_size=4), max_size=8)}
    ).map(json.dumps),
)


@given(tri=TRI_TEXT, js=JSON_TEXT, as_directories=st.booleans())
@example(tri="", js="", as_directories=True)  # IsADirectoryError
@example(tri="4 4\n0 1 2\n", js="", as_directories=False)  # enumerate: FileExistsError
@example(tri="", js='{"n": 1e400, "faces": []}', as_directories=False)  # OverflowError
@example(tri="", js="[" * 5000, as_directories=False)  # RecursionError
@settings(max_examples=100, deadline=None)
def test_fuzzed_inputs_end_with_an_exit_code(tri, js, as_directories):
    with tempfile.TemporaryDirectory() as tmp:
        tri_path, json_path = Path(tmp) / "x.tri", Path(tmp) / "x.json"
        for path, text in ((tri_path, tri), (json_path, js)):
            if as_directories:
                path.mkdir()
            else:
                path.write_text(text, encoding="utf-8", errors="surrogatepass")
        for argv in (
            ["check", str(tri_path)],
            ["check", str(json_path)],
            ["aut", str(json_path)],
            ["invariant", str(tri_path), "--g", "4"],
            ["iso", str(tri_path), str(json_path)],
            ["enumerate", "--n", "7", "--out", str(tri_path)],
        ):
            code, _, err = run_cli(*argv)
            assert code in (0, 1, 2) and "unexpected" not in err, argv


# Family names, well formed or not; a parameter is small, or far over the cap.
FAMILY_PARAM = st.one_of(st.integers(0, 12), st.integers(10**6, 10**30))
FAMILY_NAME = st.one_of(
    st.text(max_size=12),
    st.builds(lambda tag, params: f"{tag}({','.join(map(str, params))})",
              st.sampled_from("TBKQX"), st.lists(FAMILY_PARAM, min_size=1, max_size=4)),
)


@given(name=FAMILY_NAME, as_json=st.booleans())
@example(name="T(1000000000,1,3)", as_json=False)  # MemoryError: the twist list
@example(name="T(1000000,1,3)", as_json=True)  # MemoryError: the faces
@settings(max_examples=100, deadline=None)
def test_fuzzed_family_names_end_with_an_exit_code(name, as_json):
    code, _, err = run_cli("family", name, *(["--json"] if as_json else []))
    assert code in (0, 2) and (code == 0) == (not err) and "unexpected" not in err, name
