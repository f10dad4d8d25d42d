"""End-to-end CLI tests: exit codes, artifact chaining, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cstarcat
from cstarcat import cli
from cstarcat import model as md
from cstarcat import randgen as rg
from cstarcat.cli import main
from cstarcat.categories import MatCStarCategory, StarFunctor
from cstarcat.groupoids import FPGroupoid, FiniteGroupoid, cyclic_groupoid
from cstarcat.simplicial import FiniteSimplicialSet, standard


def write(path, data):
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return str(path)


def isometry_presentation():
    """The former presentation file format: one arrow a: x -> y, the
    relation a* a = 1_x and a norm bound on a."""
    def element(*word):
        return {"src": "x", "tgt": "x",
                "terms": [{"coeff": [1.0, 0.0],
                           "word": [{"gen": "a", "adj": adj} for adj in word]}]}

    return {"objects": ["x", "y"],
            "arrows": [{"name": "a", "src": "x", "tgt": "y"}],
            "relations": [[element(True, False), element()]],
            "bounds": {"a": 1.0}}


@pytest.fixture
def z2_file(tmp_path):
    return write(tmp_path / "z2.json", cyclic_groupoid(2).to_json())


@pytest.fixture
def weq_file(tmp_path):
    rng = rg.rng_from_seed(5)
    cat, _ = rg.random_matcat(rng, n_objects=2, max_dim=3)
    functor = rg.random_weq(rng, cat, n_extra=1)
    return write(tmp_path / "weq.json", functor.to_json())


def run(*argv):
    return main(list(argv))


def run_process(*argv, cwd=None):
    """The CLI in a fresh interpreter, so anything escaping main is seen on
    stderr as it would be from the shell."""
    env = dict(os.environ, PYTHONPATH=str(Path(cstarcat.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "cstarcat.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=cwd)


def test_main_runs_the_command_bound_in_the_module(monkeypatch, z2_file):
    """The parser is built once per process; a cmd_* rebound in ``cli``
    afterwards (as a tracer does) is still the one that runs."""
    assert run("validate", z2_file) == 0
    calls = []
    original = cli.cmd_validate

    def spy(args):
        calls.append(args.file)
        return original(args)

    monkeypatch.setattr(cli, "cmd_validate", spy)
    assert run("validate", z2_file) == 0
    assert calls == [z2_file]


# ---------------------------------------------------------------------------
# exit-code contract


def test_validate_pass_and_fail(tmp_path, z2_file, capsys):
    assert run("groupoid-cstar", z2_file,
               "--output", str(tmp_path / "cat.json")) == 0
    capsys.readouterr()
    assert run("validate", str(tmp_path / "cat.json")) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "pass"

    broken = MatCStarCategory(
        [("x", 2)], {("x", "x"): [np.diag([1.0, 0]).astype(complex)]}).to_json()
    bad_file = write(tmp_path / "bad.json", broken)
    assert run("validate", bad_file) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "fail"
    assert any(c["status"] == "fail" for c in out["checks"])


def test_parse_error_exits_2(tmp_path, capsys):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    assert run("validate", str(garbled)) == 2
    assert run("validate", str(tmp_path / "missing.json")) == 2


@pytest.mark.parametrize("argv, output", [
    (("generate", "--kind", "random_matcat"), "missing/dir/x.json"),
    (("verify-axioms", "--suite", "simplicial"), "."),
])
def test_an_unwritable_output_exits_2(tmp_path, argv, output):
    """An --output in a missing directory, or naming a directory, is a usage
    error: one stderr line, no traceback, and nothing on stdout."""
    done = run_process(*argv, "--output", output, cwd=tmp_path)
    assert done.returncode == 2
    assert done.stderr.startswith("cannot write the output: ")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    assert done.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_unknown_only_exits_3(tmp_path, capsys):
    boundary = write(tmp_path / "b2.json", standard("boundary", 2).to_json())
    assert run("pi", boundary) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "unknown"
    assert "NotFinite" in out["checks"][0]["detail"] or \
        "not finite" in out["checks"][0]["detail"]


def test_generate_bounds_checked(tmp_path):
    assert run("generate", "--kind", "random_matcat", "--dims", "9",
               "--seed", "1") == 2


@pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf"])
def test_rejected_tolerance_exits_2(z2_file, capsys, eps):
    assert run("groupoid-cstar", z2_file, "--tolerance", eps) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--tolerance" in err


@pytest.mark.parametrize("argv", [
    ("generate", "--kind", "random_matcat", "--dims", "2,x"),
    ("generate", "--kind", "random_matcat", "--dims", ","),
    ("verify-axioms", "--suite", "simplicial", "--coset-budget", "0"),
    ("verify-axioms", "--suite", "simplicial", "--coset-budget", "-5"),
])
def test_rejected_numeric_flag_exits_2(argv):
    done = run_process(*argv)
    assert done.returncode == 2
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    assert argv[-2] in done.stderr


@pytest.mark.parametrize("argv", [
    ("nerve", "--seed", "1"),
    ("nerve", "--tolerance", "1e-6"),
    ("fundamental-groupoid", "--tolerance", "1e-6"),
    ("tensor", "--coset-budget", "5"),
    ("validate", "--dim-cap", "3"),
    ("groupoid-cstar", "--seed", "1"),
    ("pi", "--dim-cap", "3"),
    ("generate", "--kind", "random_groupoid", "--coset-budget", "5"),
])
def test_flags_a_command_does_not_read_exit_2(z2_file, argv):
    command, *flags = argv
    done = run_process(command, *([] if command == "generate" else [z2_file]), *flags)
    assert done.returncode == 2 and "Traceback" not in done.stderr
    assert "unrecognized arguments" in done.stderr and flags[-2] in done.stderr


@pytest.mark.parametrize("kind", ["category", "groupoid"])
def test_pair_key_without_bar_exits_2(tmp_path, kind):
    if kind == "category":
        data = MatCStarCategory([("x", 1)], {("x", "x"): [np.eye(1)]}).to_json()
        data["homs"] = {"xx": data["homs"]["x|x"]}
        command = "validate"
    else:
        data = cyclic_groupoid(2).to_json()
        data["compose"]["z>1>zz>1>z"] = data["compose"].pop("z>1>z|z>1>z")
        command = "groupoid-cstar"
    done = run_process(command, write(tmp_path / "bad.json", data))
    assert done.returncode == 2
    assert "Traceback" not in done.stderr and "'a|b'" in done.stderr


def test_hom_key_naming_undeclared_object_exits_2(tmp_path):
    data = MatCStarCategory([("x", 1)], {("x", "x"): [np.eye(1)]}).to_json()
    data["homs"]["x|zz"] = data["homs"]["x|x"]
    done = run_process("validate", write(tmp_path / "bad.json", data))
    assert done.returncode == 2
    assert "Traceback" not in done.stderr and "'x|zz'" in done.stderr


def test_matrix_entry_not_a_pair_exits_2(tmp_path):
    data = MatCStarCategory([("x", 1)], {("x", "x"): [np.eye(1)]}).to_json()
    data["homs"]["x|x"] = [[[1.0]]]
    done = run_process("validate", write(tmp_path / "bad.json", data))
    assert done.returncode == 2
    assert "Traceback" not in done.stderr and "[re, im]" in done.stderr


def malformed(case):
    """A groupoid or simplicial-set file with one JSON shape error."""
    groupoid = cyclic_groupoid(2).to_json()
    sset = standard("delta", 2).to_json()
    if case == "objects_is_a_string":
        groupoid["objects"] = "z"
        return groupoid
    if case == "objects_is_an_object":
        groupoid["objects"] = {"z": 5}
        return groupoid
    if case == "compose_is_a_list":
        groupoid["compose"] = list(groupoid["compose"].items())
        return groupoid
    if case == "arrow_entry_is_a_number":
        groupoid["arrows"][0] = 5
        return groupoid
    if case == "dim_cap_is_a_string":
        sset["dim_cap"] = "x"
        return sset
    sset["simplices"]["1"][0]["faces"][0] = 5
    return sset


@pytest.mark.parametrize("case, command", [
    ("objects_is_a_string", "validate"),
    ("objects_is_an_object", "groupoid-cstar"),
    ("compose_is_a_list", "validate"),
    ("arrow_entry_is_a_number", "groupoid-cstar"),
    ("dim_cap_is_a_string", "validate"),
    ("face_entry_is_a_number", "pi"),
])
def test_malformed_groupoid_and_sset_files_exit_2(tmp_path, case, command):
    done = run_process(command, write(tmp_path / "bad.json", malformed(case)))
    assert done.returncode == 2
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    assert "file:" in done.stderr


@pytest.mark.parametrize("kind, field, value", [
    ("groupoid", "arrows", ""),
    ("groupoid", "arrows", {}),
    ("fp-groupoid", "generators", ""),
    ("fp-groupoid", "generators", {}),
], ids=["arrows-string", "arrows-object", "generators-string", "generators-object"])
def test_a_table_that_is_not_a_list_exits_2(tmp_path, capsys, kind, field, value):
    data = (cyclic_groupoid(2) if kind == "groupoid" else
            FPGroupoid(["x"], {"a": ("x", "x")})).to_json()
    data[field] = value
    assert run("validate", write(tmp_path / "bad.json", data)) == 2
    assert f"{kind} file: TypeError: {field} must be a list" in capsys.readouterr().err


def malformed_fp(case):
    """An fp-groupoid file with one shape or value error."""
    data = FPGroupoid(["x"], {"a": ("x", "x")}).to_json()
    empty = {"src": "x", "tgt": "x", "word": []}
    if case == "fp_generators_is_a_number":
        data["generators"] = 5
    elif case == "fp_objects_is_a_string":
        data["objects"] = "x"
    elif case == "fp_objects_is_an_object":
        data["objects"] = {"x": 5}
    elif case == "fp_relations_is_a_string":
        data["relations"] = ""
    elif case == "fp_relation_is_an_object":
        data["relations"] = [{"lhs": empty, "rhs": empty}]
    elif case == "fp_word_is_an_object":
        data["relations"] = [[dict(empty, word={}), empty]]
    else:
        data["relations"] = [[{"src": "x", "tgt": "x", "word": [{"gen": ["a"], "inv": False}]},
                              empty]]
    return data


@pytest.mark.parametrize("case, message", [
    ("fp_generators_is_a_number", "fp-groupoid file: TypeError"),
    ("fp_objects_is_a_string", "fp-groupoid file: TypeError: objects must be a list"),
    ("fp_objects_is_an_object", "fp-groupoid file: TypeError: objects must be a list"),
    ("fp_relations_is_a_string", "fp-groupoid file: TypeError: relations must be a list"),
    ("fp_relation_is_an_object", "fp-groupoid file: TypeError: relation must be a list"),
    ("fp_word_is_an_object", "fp-groupoid file: TypeError: word must be a list"),
    ("fp_generator_name_is_a_list", "names must be strings"),
])
def test_malformed_fp_groupoid_and_presentation_files_exit_2(tmp_path, case, message):
    done = run_process("validate", write(tmp_path / "bad.json", malformed_fp(case)))
    assert done.returncode == 2
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    assert message in done.stderr


def non_boolean_flag(case, value):
    """An fp-groupoid file whose one relation letter has ``inv`` = value, or
    a simplicial-set file (Delta[1]) whose first edge has ``degenerate`` =
    value."""
    if case == "inv":
        data = FPGroupoid(["x"], {"a": ("x", "x")}).to_json()
        data["relations"] = [[{"src": "x", "tgt": "x", "word": [{"gen": "a", "inv": value}]},
                              {"src": "x", "tgt": "x", "word": []}]]
        return data
    data = standard("delta", 1).to_json()
    data["simplices"]["1"][0]["degenerate"] = value
    return data


@pytest.mark.parametrize("case, value", [
    ("inv", "no"), ("inv", None), ("inv", 1), ("inv", "false"),
    ("degenerate", 0), ("degenerate", None), ("degenerate", "false"), ("degenerate", 1),
])
def test_non_boolean_flags_exit_2(tmp_path, capsys, case, value):
    assert run("validate", write(tmp_path / "flag.json", non_boolean_flag(case, value))) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "must be true or false" in err


def triangle_with_degenerate_face(degens):
    """Vertices v, w, an edge e: v -> w and a triangle with faces e, e and
    the degeneracy word ``degens`` on v."""
    return {"dim_cap": 2, "simplices": {
        "0": [{"name": "v"}, {"name": "w"}],
        "1": [{"name": "e", "faces": ["w", "v"]}],
        "2": [{"name": "t", "faces": ["e", "e", {"of": "v", "degens": degens}]}]}}


@pytest.mark.parametrize("degens", [[-1], [1], [5]])
def test_inapplicable_degeneracy_word_exits_1(tmp_path, capsys, degens):
    assert run("validate", write(tmp_path / "t.json", triangle_with_degenerate_face([0]))) == 0
    capsys.readouterr()
    assert run("validate", write(tmp_path / "t.json", triangle_with_degenerate_face(degens))) == 1
    assert capsys.readouterr().err == ("check failed: InvalidSimplicialSet: face of 't' "
                                       "has a degeneracy word that does not apply\n")


def malformed_category_or_functor(case):
    """A category or functor file with one JSON shape error."""
    rng = rg.rng_from_seed(3)
    cat, _ = rg.random_matcat(rng, n_objects=2, max_dim=2)
    category, functor = cat.to_json(), rg.random_weq(rng, cat).to_json()
    if case == "objects_is_a_number":
        category["objects"] = 5
    elif case == "object_entry_is_a_string":
        category["objects"] = ["x"]
    elif case == "dim_is_a_string":
        category["objects"][0]["dim"] = "2"
    elif case == "object_name_is_a_number":
        category["objects"][0]["name"] = 7
    elif case == "homs_is_a_list":
        category["homs"] = []
    elif case == "object_map_is_a_number":
        functor["object_map"] = 5
    elif case == "hom_maps_is_a_list":
        functor["hom_maps"] = []
    else:
        functor["source"] = 5
    return functor if "map" in case or case == "source_is_a_number" else category


@pytest.mark.parametrize("case, message", [
    ("objects_is_a_number", "category file: TypeError"),
    ("object_entry_is_a_string", "category file: TypeError"),
    ("dim_is_a_string", "dims integers"),
    ("object_name_is_a_number", "names must be strings"),
    ("homs_is_a_list", "category file: AttributeError"),
    ("object_map_is_a_number", "functor file: TypeError"),
    ("hom_maps_is_a_list", "functor file: AttributeError"),
    ("source_is_a_number", "category file: TypeError"),
])
def test_malformed_category_and_functor_files_exit_2(tmp_path, case, message):
    done = run_process("validate", write(tmp_path / "bad.json",
                                         malformed_category_or_functor(case)))
    assert done.returncode == 2
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    assert message in done.stderr


def category_with_entry(value, row, col):
    """The file of full_matrix_category([2]) with entry (row, col) of its
    first basis matrix set to [value, 0]."""
    from cstarcat.categories import full_matrix_category

    data = full_matrix_category([2]).to_json()
    data["homs"]["m0|m0"][0][row][col] = [value, 0]
    return data


@pytest.mark.parametrize("row, col", [(0, 0), (0, 1)])
def test_category_file_with_an_overflowing_entry_fails(tmp_path, row, col):
    # its Gram distance from the identity is NaN, which must count as above
    # the tolerance, and numpy's overflow warnings must not reach stderr
    done = run_process("validate", write(tmp_path / "huge.json",
                                         category_with_entry(1e308, row, col)))
    assert done.returncode == 1
    assert done.stderr.startswith("validate: fail (") and done.stderr.count("\n") == 1
    assert json.loads(done.stdout)["status"] == "fail"


def test_matrix_entry_too_large_for_a_float_exits_2(tmp_path):
    done = run_process("validate", write(tmp_path / "huge.json",
                                         category_with_entry(10**400, 0, 0)))
    assert done.returncode == 2
    assert done.stderr.startswith("invalid parameters: matrix entries must be "
                                  "[re, im] pairs: ")
    assert done.stderr.count("\n") == 1


def repeated_names(case):
    """A groupoid or fp-groupoid file with one name repeated."""
    from cstarcat.groupoids import fundamental_groupoid

    groupoid = cyclic_groupoid(2).to_json()
    fp = fundamental_groupoid(standard("delta", 2)).to_json()
    if case == "groupoid_object":
        groupoid["objects"] = ["z", "z"]
    elif case == "groupoid_arrow":
        groupoid["arrows"].append(dict(groupoid["arrows"][0]))
    elif case == "groupoid_arrow_with_another_src":
        groupoid["objects"].append("w")
        groupoid["arrows"].append(dict(groupoid["arrows"][0], src="w"))
    elif case == "fp_object":
        fp["objects"].insert(0, fp["objects"][0])
    else:
        fp["generators"].insert(0, dict(fp["generators"][0]))
    return fp if case.startswith("fp_") else groupoid


@pytest.mark.parametrize("case, command, message", [
    ("groupoid_object", "validate", "duplicate object names"),
    ("groupoid_object", "groupoid-cstar", "duplicate object names"),
    ("groupoid_object", "nerve", "duplicate object names"),
    ("groupoid_arrow", "validate", "duplicate arrow names"),
    ("groupoid_arrow_with_another_src", "validate", "duplicate arrow names"),
    ("fp_object", "validate", "duplicate object names"),
    ("fp_generator", "validate", "duplicate generator names"),
])
def test_repeated_names_in_groupoid_files_exit_1(tmp_path, capsys, case, command, message):
    assert run(command, write(tmp_path / "repeated.json", repeated_names(case))) == 1
    assert capsys.readouterr().err == f"check failed: InvalidGroupoid: {message}\n"


def test_an_overflowing_residual_is_written_as_null(tmp_path, capsys):
    _command, data = valid_input_files()["functor"]
    data["hom_maps"]["m1|m1"][3][1][1][0] = 1e155
    assert run("validate", write(tmp_path / "huge.json", data)) == 1

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    nulls = [c for c in report["checks"] if "residual" in c and c["residual"] is None]
    assert nulls and all(c["status"] == "fail" and c["detail"] for c in nulls)


def malformed_lift(case, tmp_path):
    """A lift file with one defect: for the square modes a missing leg or a
    file that is not an object; for the generator mode a missing key, a
    non-string name or a name the functor does not declare."""
    from cstarcat.categories import full_matrix_category, identity_functor
    from cstarcat.linalg import matrix_to_json

    ident = identity_functor(full_matrix_category([2])).to_json()
    swap = matrix_to_json(np.array([[0, 1], [1, 0]], dtype=complex))
    if case == "square_without_right":
        return "tcof-fib", {"top": ident, "left": ident, "bottom": ident}
    if case == "square_is_a_list":
        return "cof-tfib", [ident, ident, ident, ident]
    generator = {"F": ident, "x": "m0", "v": swap, "y": "m0"}
    if case == "generator_without_F":
        del generator["F"]
    elif case == "x_is_a_number":
        generator["x"] = 5
    elif case == "x_undeclared":
        # v has three rows, so no target object even has its dimension
        del generator["y"]
        generator["x"] = "nope"
        generator["v"] = matrix_to_json(np.eye(3, 2, dtype=complex))
    else:
        generator["y"] = "nope"
    return "generator", generator


@pytest.mark.parametrize("case, message", [
    ("square_without_right", "missing key 'right'"),
    ("square_is_a_list", "expected an object"),
    ("generator_without_F", "missing key 'F'"),
    ("x_is_a_number", "'x' must name an object"),
    ("x_undeclared", "'x' must name an object"),
    ("y_undeclared", "'y' must name an object"),
])
def test_malformed_lift_files_exit_2(tmp_path, case, message):
    mode, data = malformed_lift(case, tmp_path)
    done = run_process("lift", write(tmp_path / "lift.json", data), "--mode", mode)
    assert done.returncode == 2
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    assert message in done.stderr


@pytest.mark.parametrize("content", [b"5\n", b"\xff\xfe", None])
def test_unreadable_inputs_exit_2(tmp_path, content):
    path = tmp_path / "input.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    done = run_process("validate", str(path))
    assert done.returncode == 2
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


def test_category_file_with_zero_dim_is_an_invalid_category(tmp_path):
    # the hom's 1x1 matrix does not fit a 0-dimensional object; the dim is
    # rejected before any hom is read
    data = {"objects": [{"name": "m0", "dim": 0}], "homs": {"m0|m0": [[[[1.0, 0.0]]]]}}
    done = run_process("validate", write(tmp_path / "zero.json", data))
    assert done.returncode == 1
    assert done.stderr == "check failed: InvalidCategory: object 'm0' must have dim >= 1\n"


@pytest.mark.parametrize("error", [MemoryError("Unable to allocate 149. GiB"),
                                   RuntimeError("a bug in a command")])
def test_unexpected_exception_exits_4(monkeypatch, z2_file, capsys, error):
    def failing_load(path):
        raise error

    monkeypatch.setattr(cli, "_load", failing_load)
    assert run("validate", z2_file) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {type(error).__name__}: {error}\n"


def test_category_too_large_for_memory_exits_4(tmp_path):
    # the identity of a 100,000-dimensional object needs 160 GB, over the
    # 1 GiB limit: numpy's MemoryError becomes exit 4 and one stderr line
    resource = pytest.importorskip("resource")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    path = write(tmp_path / "large.json",
                 {"objects": [{"name": "x", "dim": 100000}], "homs": {}})
    env = dict(os.environ, PYTHONPATH=str(Path(cstarcat.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "cstarcat.cli", "validate", path],
                          capture_output=True, text=True, env=env,
                          preexec_fn=limit_memory, timeout=120)
    assert done.returncode == 4
    assert done.stderr.startswith("internal error: ") and done.stderr.count("\n") == 1
    assert "MemoryError" in done.stderr


def test_validate_sset_file_with_huge_dim_cap(tmp_path):
    # an empty simplicial set that declares dimensions up to 10**7: one dict
    # per declared dimension would need about 1.5 GB, over the 1 GiB limit
    resource = pytest.importorskip("resource")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    path = write(tmp_path / "wide.json", {"dim_cap": 10**7, "simplices": {}})
    env = dict(os.environ, PYTHONPATH=str(Path(cstarcat.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "cstarcat.cli", "validate", path],
                          capture_output=True, text=True, env=env,
                          preexec_fn=limit_memory, timeout=120)
    assert done.returncode == 0 and "Traceback" not in done.stderr
    assert json.loads(done.stdout)["checks"] == [{"name": "structure", "status": "pass"}]


def test_validate_fp_groupoid_file(tmp_path, capsys):
    delta2 = write(tmp_path / "delta2.json", standard("delta", 2).to_json())
    fp_file = str(tmp_path / "fp.json")
    assert run("fundamental-groupoid", delta2, "--output", fp_file) == 0
    capsys.readouterr()
    assert run("validate", fp_file) == 0
    assert json.loads(capsys.readouterr().out)["checks"] == \
        [{"name": "structure", "status": "pass"}]


def test_validate_presentation_file(tmp_path, capsys):
    # *-category presentations have no file format: such a file is of no
    # kind that validate reads, and "presentation" is no --kind
    path = write(tmp_path / "presentation.json", isometry_presentation())
    assert run("validate", path) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid parameters: could not detect the input kind\n"
    with pytest.raises(SystemExit) as usage:
        run("validate", path, "--kind", "presentation")
    assert usage.value.code == 2
    assert "argument --kind: invalid choice: 'presentation'" in capsys.readouterr().err


@pytest.fixture
def generated_groupoid_file(tmp_path):
    """Z/3 on the objects x0 and x1, written by ``generate``."""
    path = str(tmp_path / "groupoid.json")
    assert run_process("generate", "--kind", "random_groupoid", "--seed", "1",
                       "--objects", "2", "--order", "3",
                       "--output", path).returncode == 0
    return path


def test_validate_groupoid_and_nerve_files(tmp_path, generated_groupoid_file):
    done = run_process("validate", generated_groupoid_file)
    assert done.returncode == 0 and "Traceback" not in done.stderr
    assert json.loads(done.stdout)["checks"] == [{"name": "structure", "status": "pass"}]

    nerve_file = str(tmp_path / "nerve.json")
    assert run_process("nerve", generated_groupoid_file, "--dim-cap", "2",
                       "--output", nerve_file).returncode == 0
    done = run_process("validate", nerve_file)
    assert done.returncode == 0 and "Traceback" not in done.stderr
    assert json.loads(done.stdout)["checks"] == [{"name": "structure", "status": "pass"}]


def test_validate_functor_file_builds_each_light_closure_once(tmp_path, monkeypatch, capsys):
    from cstarcat import light
    from cstarcat.groupoids import connected_groupoid, cstar_max, cyclic_group_table

    # Z/10 on two objects is large enough to certify; the target is a
    # renamed copy, so the closures of source and target can be told apart
    groupoid = connected_groupoid(["a", "b"], cyclic_group_table(10), check=False)
    source = cstar_max(groupoid).category
    target = MatCStarCategory([(f"t{o.name}", o.dim) for o in source.objects],
                              {(f"t{x}", f"t{y}"): space for (x, y), space in source.homs.items()})
    functor = StarFunctor(source, target, {x: f"t{x}" for x in source.object_names},
                          {pair: space.basis for pair, space in source.homs.items()})
    path = write(tmp_path / "functor.json", functor.to_json())
    built = []
    construct = light.LightClosure.__init__

    def counting(self, cat):
        built.append(cat.object_names[0])
        construct(self, cat)

    monkeypatch.setattr(light.LightClosure, "__init__", counting)
    assert run("validate", path) == 0
    certified = capsys.readouterr().out
    assert sorted(built) == ["a", "ta"]
    # the exhaustive loop, with no closure, writes the same report
    monkeypatch.setattr(light, "CERTIFY_WORK", 2 ** 62)
    built.clear()
    assert run("validate", path) == 0
    assert capsys.readouterr().out == certified and built == []


def test_validate_non_associative_groupoid_exits_1(tmp_path, generated_groupoid_file):
    data = json.loads(Path(generated_groupoid_file).read_text(encoding="utf-8"))
    # with g = x0>1>x0, swap g.g = g^2 and g.g^2 = 1: then (g^2.g).g = g but
    # g^2.(g.g) = g^2
    compose = data["compose"]
    gg, gg2 = "x0>1>x0|x0>1>x0", "x0>1>x0|x0>2>x0"
    assert (compose[gg], compose[gg2]) == ("x0>2>x0", "x0>0>x0")
    compose[gg], compose[gg2] = compose[gg2], compose[gg]
    done = run_process("validate", write(tmp_path / "bad.json", data))
    assert done.returncode == 1
    assert done.stderr == \
        "check failed: InvalidGroupoid: composition is not associative\n"


# ---------------------------------------------------------------------------
# commands and chaining


def test_factorize_both_modes(weq_file, capsys):
    assert run("factorize", weq_file, "--mode", "path") == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    midway = MatCStarCategory.from_json(payload["midway"])
    assert len(midway.objects) >= 2
    assert run("factorize", weq_file, "--mode", "cylinder") == 0


def test_lift_square_via_files(tmp_path, weq_file, capsys):
    functor = StarFunctor.from_json(json.load(open(weq_file)))
    path = md.factor_path(functor)
    cylinder = md.factor_cylinder(functor)
    square = {
        "top": cylinder.first.to_json(),
        "left": path.first.to_json(),
        "right": cylinder.second.to_json(),
        "bottom": path.second.to_json(),
    }
    square_file = write(tmp_path / "square.json", square)
    assert run("lift", square_file, "--mode", "tcof-fib") == 0
    out = json.loads(capsys.readouterr().out)
    assert all(c["residual"] <= 1e-8 for c in out["checks"])
    assert run("lift", square_file, "--mode", "cof-tfib") == 0


def test_lift_generator_shorthand(tmp_path, capsys):
    from cstarcat.categories import full_matrix_category, identity_functor
    from cstarcat.linalg import matrix_to_json

    cat = full_matrix_category([2])
    ident = identity_functor(cat)
    v = np.array([[0, 1], [-1, 0]], dtype=complex)
    data = {"x": "m0", "v": matrix_to_json(v), "F": ident.to_json(), "y": "m0"}
    square_file = write(tmp_path / "gen.json", data)
    assert run("lift", square_file, "--mode", "generator") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["checks"][0]["residual"] <= 1e-8


def test_lift_generator_judges_the_residual_by_the_tolerance(tmp_path, capsys):
    from cstarcat.categories import full_matrix_category, identity_functor
    from cstarcat.linalg import matrix_to_json

    # a unitary off by 5e-8: a lift within 1e-6, with residual 5e-8 * sqrt(2)
    ident = identity_functor(full_matrix_category([2]))
    v = np.array([[0, 1], [-1, 0]], dtype=complex) + 5e-8 * np.diag([1, -1])
    data = {"x": "m0", "v": matrix_to_json(v), "F": ident.to_json(), "y": "m0"}
    near = write(tmp_path / "near.json", data)
    assert run("lift", near, "--mode", "generator", "--tolerance", "1e-6") == 0
    check = json.loads(capsys.readouterr().out)["checks"][0]
    assert check["status"] == "pass" and 7e-8 < check["residual"] < 7.2e-8
    # at the default tolerance v is not unitary, so it has no unitary lift
    assert run("lift", near, "--mode", "generator") == 1
    [check] = json.loads(capsys.readouterr().out)["checks"]
    assert check["status"] == "fail" and check["detail"] == "no unitary lift exists"


def test_lift_generator_skips_preimages_of_another_carrier(tmp_path, capsys):
    from cstarcat.categories import iso_exists
    from cstarcat.linalg import matrix_to_json
    from cstarcat.suites import functor_zoo

    # the second seed-0 zoo projection sends o0 (carrier 2) and o1 (carrier 4) to
    # isomorphic objects; o1 is the only preimage of p:o1 but is not
    # isomorphic to o0, so no unitary o0 -> o1 exists to lift v
    kind, functor = functor_zoo(rg.rng_from_seed(0), 11)[10]
    assert kind == "projection"
    v = iso_exists(functor.target, functor.object_map["o0"], "p:o1").witness
    data = {"F": functor.to_json(), "x": "o0", "v": matrix_to_json(v), "y": "p:o1"}
    assert run("lift", write(tmp_path / "gen.json", data), "--mode", "generator") == 1
    [check] = json.loads(capsys.readouterr().out)["checks"]
    assert check["name"] == "unitary_lift" and check["status"] == "fail"


@pytest.mark.parametrize("seed", [1, 2])
def test_lift_generator_without_y_lifts_the_unit_through_a_projection(tmp_path, capsys, seed):
    from cstarcat.linalg import matrix_to_json

    # the projection of a one-object category kills one of its two sectors, so
    # the least-norm preimage of the unit is a singular projection; with no
    # "y" every object is tried, and the exact lift of v = 1 is over o0
    _cat, model = rg.random_matcat(rg.rng_from_seed(seed), n_objects=1, max_dim=4, n_sectors=2)
    assert all(min(m) >= 1 for m in model.multiplicities.values())
    functor = rg.sector_projection_functor(model)
    dim = functor.target.obj(functor.object_map["o0"]).dim
    data = {"F": functor.to_json(), "x": "o0", "v": matrix_to_json(np.eye(dim, dtype=complex))}
    assert run("lift", write(tmp_path / "gen.json", data), "--mode", "generator") == 0
    [check] = json.loads(capsys.readouterr().out)["checks"]
    assert check["status"] == "pass" and check["witness"] == "o0"
    assert check["residual"] <= 1e-8


def test_tensor_and_pi_chain(tmp_path, z2_file, capsys):
    cat_file = str(tmp_path / "cat.json")
    in_process, fresh = str(tmp_path / "in_process.json"), str(tmp_path / "fresh.json")
    assert run("groupoid-cstar", z2_file, "--output", cat_file) == 0
    assert run("tensor", cat_file, cat_file,
               "--output", str(tmp_path / "tensor.json")) == 0
    tensored = MatCStarCategory.from_json(json.load(open(tmp_path / "tensor.json")))
    assert tensored.objects[0].dim == 4
    delta1 = write(tmp_path / "d1.json", standard("delta", 1, dim_cap=2).to_json())
    assert run("pi", delta1, "--output", str(tmp_path / "pi.json")) == 0
    picat = MatCStarCategory.from_json(json.load(open(tmp_path / "pi.json")))
    assert sorted(o.dim for o in picat.objects) == [2, 2]


def test_nerve_and_fundamental_groupoid_chain(tmp_path, z2_file, capsys):
    nerve_file = str(tmp_path / "nerve.json")
    assert run("nerve", z2_file, "--dim-cap", "2", "--output", nerve_file) == 0
    assert run("fundamental-groupoid", nerve_file,
               "--output", str(tmp_path / "fp.json")) == 0
    pres = FPGroupoid.from_json(json.load(open(tmp_path / "fp.json")))
    assert len(pres.objects) == 1
    # the nerve of Z/2 presents Z/2 back
    from cstarcat.groupoids import normalize_fp
    res = normalize_fp(pres)
    assert res.finite
    # one object whose vertex group has order 2, so Z/2
    [[x]] = res.groupoid.components()
    assert len(res.groupoid.hom(x, x)) == 2


def test_groupoid_cstar_hom_dims(z2_file, capsys):
    assert run("groupoid-cstar", z2_file) == 0
    out = json.loads(capsys.readouterr().out)
    cat = MatCStarCategory.from_json(out["payload"])
    assert cat.hom("z", "z").dim == 2


# ---------------------------------------------------------------------------
# round trips and determinism


def test_round_trip_of_bundled_files(tmp_path):
    instances = {
        "groupoid": cyclic_groupoid(3).to_json(),
        "sset": standard("horn", 2, 0).to_json(),
    }
    rng = rg.rng_from_seed(9)
    cat, _ = rg.random_matcat(rng, n_objects=2, max_dim=3)
    instances["category"] = cat.to_json()
    instances["functor"] = rg.random_weq(rng, cat).to_json()

    parsed = {
        "groupoid": FiniteGroupoid.from_json,
        "sset": FiniteSimplicialSet.from_json,
        "category": MatCStarCategory.from_json,
        "functor": StarFunctor.from_json,
    }
    for kind, blob in instances.items():
        first = json.dumps(blob, sort_keys=False)
        reparsed = parsed[kind](json.loads(first))
        second = json.dumps(reparsed.to_json(), sort_keys=False)
        assert first == second, f"{kind} does not round-trip"


@pytest.mark.parametrize("suite", ["mc", "monoidal", "simplicial", "adjunctions"])
def test_suites_are_byte_deterministic(tmp_path, suite):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run("verify-axioms", "--suite", suite, "--seed", "7",
               "--output", str(out1)) == 0
    assert run("verify-axioms", "--suite", suite, "--seed", "7",
               "--output", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_generate_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run("generate", "--kind", "random_groupoid", "--seed", "11",
               "--objects", "3", "--order", "4", "--output", str(a)) == 0
    assert run("generate", "--kind", "random_groupoid", "--seed", "11",
               "--objects", "3", "--order", "4", "--output", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    groupoid = FiniteGroupoid.from_json(json.load(open(a)))
    assert len(groupoid.objects) == 3


def test_consecutive_in_process_runs_match_fresh_processes(tmp_path, capsys):
    # main builds its parser once per process; reusing it must not carry
    # one call's flags into the next
    cat_file = str(tmp_path / "cat.json")
    in_process, fresh = str(tmp_path / "in_process.json"), str(tmp_path / "fresh.json")
    assert run("generate", "--kind", "random_matcat", "--dims", "2,3", "--seed", "4",
               "--output", cat_file) == 0
    calls = [("validate", cat_file, "--tolerance", "1e-3"),
             ("validate", cat_file),
             ("validate", cat_file, "--output", in_process),
             ("validate", cat_file, "--tolerance", "1e-15"),
             ("generate", "--kind", "random_matcat", "--seed", "4"),
             ("validate", cat_file)]
    capsys.readouterr()
    for argv in calls:
        code = run(*argv)
        out = capsys.readouterr().out
        done = run_process(*[fresh if a == in_process else a for a in argv])
        assert code == done.returncode and out == done.stdout
    assert Path(in_process).read_bytes() == Path(fresh).read_bytes()


@pytest.mark.parametrize("suite", ["mc", "monoidal", "simplicial", "adjunctions"])
def test_default_tolerance_flag_is_byte_identical_to_no_flag(tmp_path, suite):
    plain, flagged = tmp_path / "plain.json", tmp_path / "flagged.json"
    assert run("verify-axioms", "--suite", suite, "--output", str(plain)) == 0
    assert run("verify-axioms", "--suite", suite, "--tolerance", "1e-9",
               "--output", str(flagged)) == 0
    assert plain.read_bytes() == flagged.read_bytes()


def test_tolerance_reaches_the_mc_suite():
    done = run_process("verify-axioms", "--suite", "mc", "--seed", "0",
                       "--tolerance", "1e-15")
    assert done.returncode == 1
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    report = json.loads(done.stdout)
    assert report["status"] == "fail" and len(report["checks"]) == 60
    failing = [c["name"] for c in report["checks"] if c["status"] == "fail"]
    assert failing and all(name.startswith(("mc4[", "mc5[")) for name in failing)


def test_adjunction_rounds_that_cannot_be_built_are_failing_entries():
    done = run_process("verify-axioms", "--suite", "adjunctions", "--seed", "0",
                       "--tolerance", "1e-15")
    assert done.returncode == 1
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    report = json.loads(done.stdout)
    assert report["status"] == "fail" and len(report["checks"]) == 16
    unbuilt = [c for c in report["checks"] if "residual" not in c]
    assert unbuilt and all(c["status"] == "fail" and c["name"].startswith("adjunction[")
                           and c["detail"].startswith("NotUnitary: ") for c in unbuilt)


@pytest.mark.parametrize("suite, count, names", [
    ("mc", 60, ("mc4[",)),
    ("simplicial", 11, ("tensor_unit_dims", "cotensor_point_homs")),
])
def test_suite_checks_that_cannot_be_built_are_failing_entries(suite, count, names):
    done = run_process("verify-axioms", "--suite", suite, "--seed", "0",
                       "--tolerance", "1e-16")
    assert done.returncode == 1
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    report = json.loads(done.stdout)
    assert report["status"] == "fail" and len(report["checks"]) == count
    # an unbuilt round's detail is "<Type>: <message>"
    unbuilt = [c for c in report["checks"] if ": " in c.get("detail", "")]
    assert all(c["status"] == "fail" and "residual" not in c for c in unbuilt)
    assert {n for n in names for c in unbuilt if c["name"].startswith(n)} == set(names)


@pytest.mark.parametrize("tolerance", ["1e-16", "1e-18"])
@pytest.mark.parametrize("seed", ["0", "4"])
def test_pi_checks_pass_at_any_tolerance(capsys, seed, tolerance):
    """pi(f) is built from exact permutation images, so the combinatorial pi
    verdicts do not depend on the tolerance, however small."""
    assert run("verify-axioms", "--suite", "simplicial", "--seed", seed,
               "--tolerance", tolerance) in (0, 1)
    statuses = {c["name"]: c["status"] for c in json.loads(capsys.readouterr().out)["checks"]}
    pi_names = [f"pi_horn_iso[{n},{k}]" for n in (2, 3) for k in range(n + 1)]
    pi_names += ["pi_edge_is_interval", "pi_circle_unbounded"]
    assert {name: statuses[name] for name in pi_names} == dict.fromkeys(pi_names, "pass")


# ---------------------------------------------------------------------------
# mutated input files


def valid_input_files():
    """One valid file of each kind that ``validate`` reads, and a lift square,
    each with the command that reads it."""
    from cstarcat.categories import full_matrix_category, identity_functor
    from cstarcat.groupoids import fundamental_groupoid

    cat = full_matrix_category([1, 2])
    ident = identity_functor(cat).to_json()
    edge = standard("delta", 1)
    square = {"top": ident, "left": ident, "right": ident, "bottom": ident}
    validate = ("validate",)
    return {
        "category": (validate, cat.to_json()),
        "functor": (validate, ident),
        "groupoid": (validate, cyclic_groupoid(2).to_json()),
        "fp-groupoid": (validate, fundamental_groupoid(edge).to_json()),
        "sset": (validate, edge.to_json()),
        "lift-square": (("lift", "--mode", "tcof-fib"), square),
    }


def json_paths(value, path=()):
    """The path of every value in a JSON document, the document included."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from json_paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from json_paths(item, path + (i,))


DELETE = "<delete>"
MUTATIONS = [None, 0, -1, 2, 0.5, 1e308, 10**400, "x", [], ["x"], {}, {"x": 1}, DELETE]


def mutate(data, path, new):
    """A copy of ``data`` with the value at ``path`` replaced by ``new``, or
    deleted from its object or list."""
    if not path:
        return new
    data = json.loads(json.dumps(data))
    parent = data
    for step in path[:-1]:
        parent = parent[step]
    if new == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return data


FILES = valid_input_files()


@pytest.mark.parametrize("kind", list(FILES))
def test_mutated_input_files_exit_cleanly(kind, tmp_path_factory):
    # any one value nulled, retyped or deleted: the documented exit code and
    # one stderr line, never an exception out of main
    command, data = FILES[kind]
    paths = list(json_paths(data))
    target = str(tmp_path_factory.mktemp("mutated") / f"{kind}.json")

    def run_on(document):
        write(Path(target), document)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(*command, target)
        return code, err.getvalue()

    assert run_on(data)[0] == 0

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.sampled_from(paths), st.sampled_from(MUTATIONS))
    def check(path, new):
        if new == DELETE and not path:
            return
        code, err = run_on(mutate(data, path, new))
        assert code in (0, 1, 2, 3)
        assert err.count("\n") == 1, err

    check()
