import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quivrad.cli import main
from quivrad.quiver import _QuotientModel

from conftest import fixture_path
from randgen import random_nakayama


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", fixture_path("s2_cyclic"))
    assert code == 0
    assert "admissible: True" in out
    assert "nilpotency_degree: 4" in out


def test_validate_rejects_short_relation(capsys):
    code, out, err = run(capsys, "validate", fixture_path("bad_length1"))
    assert code == 2
    assert "NotAdmissible" in err


def test_missing_file_is_io_error(capsys):
    code, out, err = run(capsys, "validate", "no_such_file.quiver")
    assert code == 1


def test_syntax_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.quiver"
    bad.write_text("vertex 1 2\narrow a 1 2\nrelation a*?\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "line 3" in err


def test_index_direct_text_and_json(capsys):
    code, out, _ = run(capsys, "index", fixture_path("s2_cyclic"), "--method", "direct")
    assert code == 0
    assert "r_A: 15" in out
    code, out, _ = run(capsys, "index", fixture_path("s2_cyclic"),
                       "--method", "zero-relations", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["r_A"] == 15
    assert data["per_vertex"] == {"1": 14, "2": 14}
    assert data["direct_r_A"] == 15  # default verification below the size threshold


def test_index_auto_selects_reduction(capsys):
    code, out, _ = run(capsys, "index", fixture_path("a3"), "--method", "auto")
    assert code == 0
    assert "note: selected v-set" in out


def test_index_inapplicable_method_exits_4(capsys):
    # fails fast on the monomial gate, before any enumeration
    code, out, err = run(capsys, "index", fixture_path("ex_2_5"),
                         "--method", "zero-relations")
    assert code == 4
    assert "MethodInapplicable" in err


def test_index_v_set_inapplicable_on_a2(capsys):
    code, out, err = run(capsys, "index", fixture_path("a2"), "--method", "v-set")
    assert code == 4


def test_ar_summary_and_artifacts(tmp_path, capsys):
    code, out, _ = run(capsys, "ar", fixture_path("a2"))
    assert code == 0
    assert "indecomposables: 3" in out
    dot_file = tmp_path / "a2.dot"
    json_file = tmp_path / "a2.json"
    code, _, _ = run(capsys, "ar", fixture_path("a2"), "--dot", str(dot_file),
                     "--json", str(json_file))
    assert code == 0
    dot = dot_file.read_text()
    assert dot.startswith("digraph ar_quiver {")
    data = json.loads(json_file.read_text())
    assert len(data["nodes"]) == 3


@pytest.mark.parametrize("options", (["--dot"], ["--json"], ["--dot", "--json", "-"]))
def test_ar_output_option_with_dot_or_json_is_a_usage_error(options, tmp_path, capsys):
    # -o names the text summary's path only; nothing is written or printed
    target = tmp_path / "out"
    code, out, err = run(capsys, "ar", fixture_path("a2"), *options, "-o", str(target))
    assert (code, out) == (2, "")
    assert err == ("-o/--output is for the text summary; "
                   "give the DOT or JSON path to --dot or --json\n")
    assert not target.exists()


def test_ar_takes_no_format_option(capsys):
    # --dot and --json choose what ar writes; a --format it would ignore is refused
    with pytest.raises(SystemExit) as exc:
        main(["ar", fixture_path("a2"), "--format", "json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --format json" in captured.err


def test_ar_output_deterministic(capsys):
    code1, out1, _ = run(capsys, "ar", fixture_path("s3_cycle"), "--dot")
    code2, out2, _ = run(capsys, "ar", fixture_path("s3_cycle"), "--dot")
    assert code1 == code2 == 0
    assert out1 == out2


def test_ar_dot_node_count_on_cyclic_fixture(capsys):
    code, out, _ = run(capsys, "ar", fixture_path("s2_cyclic"), "--dot")
    assert code == 0
    node_lines = [l for l in out.splitlines()
                  if l.startswith('  "') and "->" not in l]
    assert len(node_lines) == 24


def test_ar_kronecker_limits_exit_3(capsys):
    code, out, err = run(capsys, "ar", fixture_path("kronecker"),
                         "--max-total-dim", "60")
    assert code == 3
    assert "representation-infinite" in err


def test_a_corrupt_path_basis_is_an_internal_inconsistency(monkeypatch, capsys):
    # drop the arrow a: 1 -> 2 from the basis of its pair: the class of a
    # then escapes the basis, and the refusal is exit 5, not a traceback
    build = _QuotientModel._build

    def corrupt(model):
        build(model)
        model._basis[("1", "2")] = []

    monkeypatch.setattr(_QuotientModel, "_build", corrupt)
    code, out, err = run(capsys, "ar", fixture_path("a2"))
    assert (code, out) == (5, "")
    assert err == "internal inconsistency: path residue escaped the quotient basis\n"


@pytest.mark.parametrize("command", ("ar", "index", "check"))
@pytest.mark.parametrize("option,value", (("--max-modules", "0"), ("--max-total-dim", "-5")))
def test_non_positive_guard_limit_is_a_usage_error(command, option, value, capsys):
    # refused by the argument parser, before the (missing) file is read
    with pytest.raises(SystemExit) as exc:
        main([command, "no_such_file.quiver", option, value])
    assert exc.value.code == 2
    assert f"argument {option}: must be positive: '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ("validate", "ar"))
def test_non_positive_max_len_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, fixture_path("s2_cyclic"), "--max-len", "-3"])
    assert exc.value.code == 2
    assert "argument --max-len: must be positive: '-3'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ("validate", "ar", "index", "check"))
def test_max_len_is_honoured_by_every_command(command, capsys):
    # s2_cyclic has nonzero paths of length 3
    code, out, err = run(capsys, command, fixture_path("s2_cyclic"), "--max-len", "3")
    assert (code, out) == (2, "")
    assert err.startswith("NotAdmissible: paths of length 3")


def _path_quiver(tmp_path, n: int) -> str:
    """A_n as a path v0 -> v1 -> ... -> v(n-1), with no relations."""
    lines = [f"vertex v{i}" for i in range(n)]
    lines += [f"arrow a{i} v{i} v{i + 1}" for i in range(n - 1)]
    path = tmp_path / f"a{n}.quiver"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("command", ("ar", "index", "check"))
def test_max_len_above_the_default_reaches_the_knitting(command, tmp_path, capsys):
    # A66 has a nonzero path of length 65: past the default cap of 64, within 100
    code, out, err = run(capsys, command, _path_quiver(tmp_path, 66),
                         "--max-len", "100", "--max-modules", "5")
    assert (code, out) == (3, "")
    assert err == ("enumeration guard hit after 5 modules (total dimension 381); "
                   "presentation presumed representation-infinite within the given limits\n")


@pytest.mark.parametrize("option,value,reached", (
    ("--max-total-dim", "400", "after 20 modules (total dimension 441)"),
    ("--max-modules", "12", "after 12 modules (total dimension 169)"),
))
def test_kronecker_guard_message_is_pinned(option, value, reached, capsys):
    code, out, err = run(capsys, "ar", fixture_path("kronecker"), option, value)
    assert code == 3 and out == ""
    assert err == (f"enumeration guard hit {reached}; presentation presumed "
                   "representation-infinite within the given limits\n")


def test_check_corollary_text(capsys):
    code, out, _ = run(capsys, "check", fixture_path("s2_cyclic"),
                       "--theorem", "corollary")
    assert code == 0
    assert "arrow gamma (2->3): r_b<=r_a" in out


def test_check_d_refuses_final_example(capsys):
    code, out, err = run(capsys, "check", fixture_path("s4_final"), "--theorem", "D")
    assert code == 4
    assert "MethodInapplicable" in err


def test_check_b_fallback_report(capsys):
    code, out, _ = run(capsys, "check", fixture_path("a3"), "--theorem", "B")
    assert code == 0
    assert "no zero-relation vertices" in out


def test_check_all_json(capsys):
    code, out, _ = run(capsys, "check", fixture_path("a3_rel"),
                       "--theorem", "all", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"corollary", "A", "prop33", "B", "C", "D",
                         "lemma32", "lemma_refe"}
    assert "inapplicable" in data["D"]
    assert data["B"]["r_A"] == data["C"]["r_A"]


CHECK_GROUPS = {"lemmas": ("lemma32", "lemma_refe")}


@pytest.mark.parametrize("name", ("a2", "a3", "a3_rel", "bad_length1", "ex_4_5", "kronecker",
                                  "s2_cyclic", "s3_cycle", "s4_final"))
def test_single_theorem_matches_its_part_of_all(name, capsys):
    # every fixture but ex_2_5, which is slow to knit
    extra = ("--max-total-dim", "400") if name == "kronecker" else ()
    every = run(capsys, "check", fixture_path(name), "--theorem", "all", "--format", "json",
                *extra)
    for theorem in ("A", "corollary", "prop33", "B", "C", "D", "lemmas"):
        single = run(capsys, "check", fixture_path(name), "--theorem", theorem,
                     "--format", "json", *extra)
        if every[0] != 0:
            assert single == every
            continue
        report = json.loads(every[1])
        part = {key: report[key] for key in CHECK_GROUPS.get(theorem, (theorem,))}
        refused = [v["inapplicable"] for v in part.values()
                   if isinstance(v, dict) and "inapplicable" in v]
        if refused:
            assert single == (4, "", f"MethodInapplicable: {refused[0]}\n")
        else:
            assert single[0] == 0 and json.loads(single[1]) == part


def test_check_json_deterministic(capsys):
    args = ("check", fixture_path("s2_cyclic"), "--theorem", "prop33", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_output_file_writing(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "index", fixture_path("a2"), "--method", "direct",
                       "--format", "json", "-o", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["r_A"] == 2


@pytest.mark.parametrize("command, options", [
    ("validate", []), ("validate", ["--format", "json"]),
    ("ar", []), ("ar", ["--json"]),
    ("index", []), ("index", ["--format", "json"]),
    ("check", []), ("check", ["--format", "json"]),
])
def test_output_file_holds_the_stdout_bytes(command, options, tmp_path, capsys):
    code, out, _ = run(capsys, command, fixture_path("s2_cyclic"), *options)
    assert code == 0 and out.endswith("\n")
    target = tmp_path / "report"
    to_file = options + [str(target)] if options == ["--json"] else options + ["-o", str(target)]
    code, out_file, _ = run(capsys, command, fixture_path("s2_cyclic"), *to_file)
    assert code == 0 and out_file == ""
    assert target.read_bytes() == out.encode("utf-8")


def test_zero_denominator_coefficient_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.quiver"
    bad.write_text("vertex 1 2 3\narrow a 1 2\narrow b 2 3\nrelation 1/0*a*b\n")
    for command in ("validate", "ar", "index", "check"):
        code, out, err = run(capsys, command, str(bad))
        assert code == 2 and out == ""
        assert err == "invalid presentation: line 4, column 10: " \
                      "coefficient 1/0 has denominator zero\n"


def test_python_dash_m_runs_the_cli(capsys):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "quivrad", "validate", "tests/data/a2.quiver"],
                          cwd=root, env=env, capture_output=True, text=True, check=False)
    code, out, _ = run(capsys, "validate", str(root / "tests" / "data" / "a2.quiver"))
    assert proc.returncode == code == 0
    assert proc.stdout == out


def _cli_process(*argv):
    """Run ``python -m quivrad`` in a fresh process: (exit code, stdout, stderr)."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "quivrad", *argv], cwd=root, env=env,
                          capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("command, options", [
    ("validate", ["-o"]), ("ar", ["--json"]), ("ar", ["--dot"]),
])
def test_unwritable_output_path_is_io_error(command, options, tmp_path):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = _cli_process(command, fixture_path("a2"), *options, str(target))
    assert code == 1 and out == ""
    assert err.splitlines() == [f"cannot write {target}: No such file or directory"]
    assert not target.parent.exists()


def test_non_utf8_input_is_io_error(tmp_path):
    bad = tmp_path / "bad.quiver"
    bad.write_bytes(b"vertex 1 2\narrow a 1 2\xff\n")
    code, out, err = _cli_process("validate", str(bad))
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"cannot read {bad}: ")
    assert "can't decode byte 0xff" in lines[0]


def test_check_all_passes_on_the_nakayama_samples(capsys, tmp_path):
    # cyclic Nakayama algebras knit some meshes by cokernels and the rest
    # from Ext classes; every rule check runs to exit 0, and rules B, C and D
    # agree with the direct index wherever they apply
    for k, (text, _, _) in enumerate(random_nakayama()):
        path = tmp_path / f"nakayama{k}.quiver"
        path.write_text(text)
        code, out, err = run(capsys, "check", str(path), "--theorem", "all", "--format", "json")
        assert (code, err) == (0, ""), k
        for rule in ("B", "C", "D"):
            result = json.loads(out)[rule]
            if "inapplicable" not in result:
                assert result["r_A"] == result["direct_r_A"], (k, rule)
