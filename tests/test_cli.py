import hashlib
import importlib
import json
import pkgutil
import subprocess
import sys

import jsonschema
import pytest

import braidpoly
from braidpoly import diagram, dimer, oracle, overlay, tait
from braidpoly.braid import DEFAULT_CROSSING_CAP, MAX_DET_CROSSINGS
from braidpoly.cli import run
from braidpoly.diagram import build_diagram
from braidpoly.kauffman import F2q
from braidpoly.laurent import LaurentPoly1

from cli_child import child_env, cli_modules, modules_after, run_child
from json_schemas import LAURENT1_JSON_SCHEMA, LAURENT2_JSON_SCHEMA
from words import corpus_words

TREFOIL = "A^-4 + A^-12 - A^-16"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_jones_det_golden(capsys):
    code, out, _ = invoke(capsys, "jones", "--braid", "s1^3")
    assert code == 0
    assert out == TREFOIL + "\n"


def test_all_jones_methods_agree(capsys):
    outputs = set()
    for method in ("det", "matchings", "trees", "statesum"):
        code, out, _ = invoke(capsys, "jones", "--braid", "s1^3", "--method", method)
        assert code == 0
        outputs.add(out)
    assert outputs == {TREFOIL + "\n"}


def test_mirror_trefoil(capsys):
    code, out, _ = invoke(capsys, "jones", "--braid", "s1^-3")
    assert code == 0
    assert out == "-A^16 + A^12 + A^4\n"


def test_non_family_word_exits_2(capsys):
    code, out, err = invoke(capsys, "jones", "--braid", "s1 s2 s1")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_parse_errors_exit_1(capsys):
    for braid in ("s1^^3", "", "x1", "s0"):
        code, _, err = invoke(capsys, "jones", "--braid", braid)
        assert code == 1
        assert "error" in err


def test_usage_errors_exit_1(capsys):
    code, _, _ = invoke(capsys, "jones", "--braid", "s1^3", "--method", "magic")
    assert code == 1
    code, _, _ = invoke(capsys, "frobnicate")
    assert code == 1


def test_parallel_flag_is_a_usage_error(capsys):
    for command in ("jones", "bracket", "verify"):
        code, out, err = invoke(capsys, command, "--braid", "s1^3", "--parallel")
        assert code == 1
        assert out == ""
        assert err.startswith("usage: braidpoly")
        assert "unrecognized arguments: --parallel" in err


@pytest.mark.parametrize("command", ["jones", "bracket", "kauffman", "matrix", "graph", "verify"])
def test_every_subcommand_help_exits_0_and_shows_its_cap_default(capsys, command):
    code, out, _ = invoke(capsys, command, "--help")
    assert code == 0
    assert out.startswith(f"usage: braidpoly {command}")
    capped = command in ("jones", "bracket", "verify")
    assert (f"(default {DEFAULT_CROSSING_CAP})" in out) == capped
    code, out, err = invoke(capsys, command, "--no-such-flag")
    assert (code, out) == (1, "")
    assert err.startswith("usage: braidpoly")


def test_caps_exit_3(capsys):
    code, _, err = invoke(
        capsys, "jones", "--braid", "s1^30 s2^30", "--method", "statesum"
    )
    assert code == 3
    assert "cap" in err
    code, _, _ = invoke(
        capsys, "jones", "--braid", "s1^5", "--method", "trees", "--max-crossings", "4"
    )
    assert code == 3
    code, _, _ = invoke(
        capsys, "jones", "--braid", "s1^5", "--method", "matchings", "--max-crossings", "4"
    )
    assert code == 3


def test_bracket_single_crossing(capsys):
    code, out, _ = invoke(capsys, "bracket", "--braid", "s1")
    assert code == 0
    assert out == "-A^3\n"


def test_bracket_methods_agree(capsys):
    _, det_out, _ = invoke(capsys, "bracket", "--braid", "s1^2 s2^3")
    _, sum_out, _ = invoke(
        capsys, "bracket", "--braid", "s1^2 s2^3", "--method", "statesum"
    )
    assert det_out == sum_out


def test_jones_json_validates(capsys):
    code, out, _ = invoke(capsys, "jones", "--braid", "s1^3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, LAURENT1_JSON_SCHEMA)
    assert payload["variable"] == "A"


def test_kauffman_goldens(capsys):
    code, out, _ = invoke(capsys, "kauffman", "--q", "0")
    assert code == 0
    assert out == "(a + a^-1) z^-1 - 1\n"
    code, out, _ = invoke(capsys, "kauffman", "--q", "1")
    assert out == "a^-1\n"


def test_kauffman_methods_and_normalization(capsys):
    lines = set()
    for method in ("skein", "prop", "closed"):
        _, out, _ = invoke(capsys, "kauffman", "--q", "5", "--method", method)
        lines.add(out)
    assert len(lines) == 1
    _, out, _ = invoke(capsys, "kauffman", "--q", "2", "--normalized")
    assert out == F2q(2).to_text() + "\n"


def test_kauffman_negative_q_exits_1(capsys):
    code, _, err = invoke(capsys, "kauffman", "--q", "-1")
    assert code == 1
    assert "error" in err


def test_kauffman_index_errors_name_the_bound(capsys):
    code, out, err = invoke(capsys, "kauffman", "--q", "0", "--normalized")
    assert (code, out) == (1, "")
    assert err == "braidpoly: error: F2q needs q >= 1, got 0\n"
    code, out, err = invoke(capsys, "kauffman", "--q", "-1")
    assert (code, out) == (1, "")
    assert err == "braidpoly: error: K2q needs q >= 0, got -1\n"


def test_kauffman_json_validates(capsys):
    _, out, _ = invoke(capsys, "kauffman", "--q", "3", "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, LAURENT2_JSON_SCHEMA)


def test_matrix_text_golden(capsys):
    code, out, _ = invoke(capsys, "matrix", "--braid", "s1^2", "--symbolic")
    assert code == 0
    assert out == "[ -L  l ]\n[  D  d ]\n"


def test_matrix_json(capsys):
    _, out, _ = invoke(capsys, "matrix", "--braid", "s1^3", "--format", "json")
    payload = json.loads(out)
    assert payload["rows"] == [1, 2, 3]
    assert payload["symbolic"] is False
    assert len(payload["entries"]) == 3


def test_graph_overlay_dot_counts(capsys):
    _, out, _ = invoke(capsys, "graph", "--braid", "s1^3", "--kind", "overlay")
    assert out.count("shape=box") == 3
    assert out.count("shape=ellipse") == 3


def test_graph_tait_and_dual(capsys):
    _, tait_out, _ = invoke(capsys, "graph", "--braid", "s1^2 s2^2")
    assert tait_out.startswith("graph tait {")
    _, dual_out, _ = invoke(capsys, "graph", "--braid", "s1^2 s2^2", "--kind", "dual")
    assert dual_out.startswith("graph tait {")
    assert tait_out != dual_out


TAIT_GRAPHS_SHA256 = "96b73309bac677cbe7f91c9a7543c6a0198f475425e7447fb7359f752115627f"


def test_graph_tait_and_dual_outputs_are_pinned(capsys):
    # every corpus word and a few mixed-sign ones, both shadings, both formats
    digest = hashlib.sha256()
    texts = [w.to_text() for w in corpus_words()] + [
        "s1 s2 s1 s2", "s1 s2^-1 s1 s2^-1", "s1^2 s2^-3 s1 s3^2 s2^-1", "s2 s1^-1 s2^3 s1 s3^-2",
    ]
    for text in texts:
        for kind in ("tait", "dual"):
            for fmt in ("dot", "json"):
                code, out, _ = invoke(capsys, "graph", "--braid", text, "--kind", kind, "--format", fmt)
                assert code == 0, (text, kind, fmt)
                digest.update(out.encode())
    assert digest.hexdigest() == TAIT_GRAPHS_SHA256


def test_graph_builds_one_diagram_per_kind(capsys, monkeypatch):
    calls = []

    def counted(word):
        calls.append(word)
        return build_diagram(word)

    monkeypatch.setattr(diagram, "build_diagram", counted)
    monkeypatch.setattr(dimer, "build_diagram", counted)
    for kind in ("overlay", "tait", "dual"):
        calls.clear()
        code, _, _ = invoke(capsys, "graph", "--braid", "s1^2 s2^2", "--kind", kind)
        assert (code, len(calls)) == (0, 1), kind


def test_verify_shares_one_diagram_and_one_overlay(capsys, monkeypatch):
    calls = []

    def counted(word):
        calls.append(word)
        return build_diagram(word)

    monkeypatch.setattr(diagram, "build_diagram", counted)
    monkeypatch.setattr(dimer, "build_diagram", counted)
    code, out, _ = invoke(capsys, "verify", "--braid", "s1^2 s2^3")
    # the determinant, the overlay of both matchings counts, the diagram of the other three
    assert (code, len(calls)) == (0, 3)
    assert out.endswith("perfect matchings: 6   spanning trees: 6\nPASS\n")


def test_graph_json(capsys):
    _, out, _ = invoke(capsys, "graph", "--braid", "s1^3", "--kind", "overlay", "--format", "json")
    payload = json.loads(out)
    assert len(payload["edges"]) == 7
    assert {e["letter"] for e in payload["edges"]} <= {"L", "l", "D", "d"}


def test_verify_single_word(capsys):
    code, out, _ = invoke(capsys, "verify", "--braid", "s1^3")
    assert code == 0
    assert "perfect matchings: 3   spanning trees: 3" in out
    assert out.rstrip().endswith("PASS")


def test_verify_two_column_words(capsys):
    for braid in ("s1^2 s2^3", "s1^-2 s2^-2"):
        code, out, _ = invoke(capsys, "verify", "--braid", braid)
        assert code == 0
        assert out.rstrip().endswith("PASS")


def test_verify_needs_input(capsys):
    code, _, err = invoke(capsys, "verify")
    assert code == 1
    assert "error" in err


def test_verify_corpus(capsys):
    code, out, _ = invoke(capsys, "verify", "--corpus")
    assert code == 0
    assert out == "PASS (168 words)\n"


def test_stdout_is_deterministic(capsys):
    _, first, _ = invoke(capsys, "matrix", "--braid", "s1^2 s2^2", "--symbolic")
    _, second, _ = invoke(capsys, "matrix", "--braid", "s1^2 s2^2", "--symbolic")
    assert first == second


def test_debug_diagram_goes_to_stderr(capsys):
    code, out, err = invoke(capsys, "jones", "--braid", "s1^3", "--debug-diagram")
    assert code == 0
    assert out == TREFOIL + "\n"
    assert json.loads(err)["strands"] == 2


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "braidpoly.cli", "jones", "--braid", "s1^3"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 0
    assert result.stdout == TREFOIL + "\n"


def test_cli_loads_no_rational_arithmetic_and_every_export_resolves():
    # nothing evaluates a polynomial at a number, so a CLI process should
    # not pay for importing rational or decimal arithmetic
    arithmetic = {"fractions", "decimal"}
    result, loaded = modules_after("import braidpoly.cli")
    assert result.returncode == 0, result.stderr
    assert arithmetic & loaded == set()
    # verify loads every compute module, so none of them may import it either
    enumeration = {f"braidpoly.{name}" for name in ("diagram", "overlay", "dimer", "tait", "oracle")}
    result, loaded = cli_modules("verify", "--braid", "s1^2 s2^3")
    assert (result.returncode, result.stdout.splitlines()[-1]) == (0, "PASS"), result.stderr
    assert enumeration <= loaded
    assert arithmetic & loaded == set()
    # a process loads only what its command runs
    result, loaded = cli_modules("jones", "--braid", "s1^3")
    assert (result.returncode, result.stdout) == (0, TREFOIL + "\n")
    unused = {"dataclasses", "heapq", "inspect", "json", "braidpoly.tait"}
    assert (arithmetic | unused) & loaded == set()
    result, loaded = cli_modules("kauffman", "--q", "5")
    assert result.returncode == 0, result.stderr
    assert enumeration & loaded == set()
    result, loaded = modules_after("import braidpoly")
    assert result.returncode == 0, result.stderr
    assert "braidpoly.kauffman" in loaded
    assert "braidpoly.dimer" not in loaded
    # a name left in __all__ after its definition is gone breaks `import *`
    for info in pkgutil.iter_modules(braidpoly.__path__, "braidpoly."):
        module = importlib.import_module(info.name)
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], info.name
    assert [name for name in braidpoly.__all__ if not hasattr(braidpoly, name)] == []


def test_package_names_resolve_on_first_use(monkeypatch):
    namespace = {}
    exec("from braidpoly import *", namespace)
    assert set(braidpoly.__all__) <= set(namespace)
    assert namespace["jones_via_det"] is dimer.jones_via_det
    assert set(braidpoly.__all__) <= set(dir(braidpoly))
    with pytest.raises(AttributeError, match="no_such_name"):
        braidpoly.no_such_name
    # each read returns the module's current attribute, so a swapped-in
    # wrapper is seen and, once restored, leaves nothing behind
    monkeypatch.setattr(dimer, "jones_via_det", lambda word: None)
    assert braidpoly.jones_via_det is dimer.jones_via_det
    monkeypatch.undo()
    assert braidpoly.jones_via_det is namespace["jones_via_det"]


@pytest.mark.parametrize("command", ["jones", "bracket", "matrix", "graph", "verify"])
def test_one_strand_above_the_default_splits_the_closure(capsys, command):
    # the default is one more than the highest generator, 3 here; a fourth
    # strand meets no crossing, so the closure is a split link
    code, out, err = invoke(capsys, command, "--braid", "s1^3 s2^2", "--strands", "4")
    assert (code, out) == (2, "")
    assert "closure of 's1^3 s2^2' on 4 strands splits" in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (("jones", "--braid", "s1^5000000"), 3),
        (("bracket", "--braid", f"s1^{MAX_DET_CROSSINGS // 2 + 1} s2^{MAX_DET_CROSSINGS // 2}"), 3),
        (("jones", "--braid", "s1^5000000", "--method", "statesum"), 3),
        (("matrix", "--braid", "s1^5000000", "--symbolic"), 3),
        (("graph", "--braid", "s1^5000000", "--kind", "tait"), 3),
        (("verify", "--braid", "s1^5000000"), 3),
        (("jones", "--braid", "s1", "--strands", str(10**12)), 2),
        (("graph", "--braid", "s1", "--strands", str(10**12), "--debug-diagram"), 2),
        (("kauffman", "--q", "600"), 3),
        (("kauffman", "--q", "600", "--method", "prop"), 3),
        (("kauffman", "--q", "600", "--method", "closed", "--normalized"), 3),
    ],
)
def test_oversized_inputs_are_refused_quickly(argv, code):
    result = run_child(*argv)
    assert result.returncode == code
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert "error" in result.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("jones", "--braid", "s1^30", "--method", "statesum", "--max-crossings", "100"),
        ("verify", "--braid", "s1^60", "--max-crossings", "100"),
    ],
)
def test_a_raised_cap_leaves_the_state_sum_bounded(argv):
    # 2^c states: no cap lifts the state sum past the default's crossings
    result = run_child(*argv, timeout=5)
    assert (result.returncode, result.stdout) == (3, "")
    assert f"past the state-sum ceiling of 2^{DEFAULT_CROSSING_CAP}" in result.stderr


def test_det_cap_is_checked_on_the_syllables(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(dimer, "bracket_via_det", lambda word: calls.append(word) or LaurentPoly1.one())
    code, _, _ = invoke(capsys, "jones", "--braid", f"s1^{MAX_DET_CROSSINGS}")
    assert code == 0
    assert len(calls) == 1
    code, _, err = invoke(capsys, "jones", "--braid", f"s1^{MAX_DET_CROSSINGS + 1}")
    assert code == 3
    assert "cap" in err
    assert len(calls) == 1


def test_enumeration_caps_are_checked_before_building(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a structure was built past the cap")

    for module, name in (
        (diagram, "build_diagram"),
        (dimer, "prepare_overlay"),
        (oracle, "bracket_state_sum"),
    ):
        monkeypatch.setattr(module, name, refuse)
    for method in ("statesum", "trees", "matchings"):
        code, _, err = invoke(
            capsys, "jones", "--braid", "s1^30", "--method", method, "--max-crossings", "29"
        )
        assert code == 3
        assert "cap" in err
    # past the state sum's ceiling, a raised cap builds nothing either
    argv = ("jones", "--braid", "s1^30", "--method", "statesum", "--max-crossings", "100")
    code, _, err = invoke(capsys, *argv)
    assert (code, "ceiling" in err) == (3, True)
    monkeypatch.undo()
    for module, name in (
        (overlay, "partition_function"),
        (tait, "build_tait"),
        (oracle, "bracket_state_sum"),
    ):
        monkeypatch.setattr(module, name, refuse)
    code, _, err = invoke(capsys, "verify", "--braid", "s1^30", "--max-crossings", "100")
    assert (code, "ceiling" in err) == (3, True)


@pytest.mark.parametrize(
    ("braid", "strands", "message"),
    [
        ("s1^3", "1", "word uses s1 but only 1 strand was given"),
        ("s1 s3", "2", "word uses s3 but only 2 strands were given"),
    ],
)
def test_too_few_strands_exit_1_naming_the_count(capsys, braid, strands, message):
    code, out, err = invoke(capsys, "jones", "--braid", braid, "--strands", strands)
    assert (code, out, err) == (1, "", f"braidpoly: error: {message}\n")


def test_overlong_numbers_in_braid_text_exit_1(capsys):
    code, _, err = invoke(capsys, "jones", "--braid", "s1^" + "9" * 5000)
    assert code == 1
    assert "too long" in err
