import importlib
import io
import itertools
import json
import os
import runpy
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mcdlo.cli import (EXIT_FALSE, EXIT_TRUE, EXIT_UNSTABLE, EXIT_USAGE,
                       PARSE_SIGNATURES, main)
from mcdlo.models import WsoStructure, eval_qf, restrict
from mcdlo.order import FinSet
from mcdlo.semantics import EvalReport, bruteforce_eval
from mcdlo.cli import _report_exit
from mcdlo.syntax import (SIGNATURES, is_existential, is_positive_existential,
                          parse)

from conftest import THREE_ATOMS_MINISCOPED, THREE_ATOMS_PRENEX, subsets_of


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def test_parse_command(capsys):
    code, out, _ = run_cli(capsys, "parse", "--sig", "wso",
                           "--formula", "(exists X (= (min X) Y))")
    assert code == EXIT_TRUE
    assert out == {"formula": "(exists X (= (min X) Y))", "free_vars": ["Y"]}


def test_parse_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "parse", "--sig", "wso",
                           "--formula", "(= X")
    assert code == EXIT_USAGE
    assert "position" in err


def test_missing_formula_exits_2(capsys):
    code, _, err = run_cli(capsys, "parse", "--sig", "wso")
    assert code == EXIT_USAGE


def test_eval_true_false_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "eval", "--sig", "wso", "--budget", "2",
                           "--formula", "(exists X (not (= X bot)))")
    assert code == EXIT_TRUE
    assert out == {"verdict": True, "budget_used": 2, "stabilized": True}
    code, out, _ = run_cli(capsys, "eval", "--sig", "wso",
                           "--formula", "(forall X (= X bot))")
    assert code == EXIT_FALSE
    assert out["verdict"] is False


def test_eval_msofin_requires_n(capsys):
    code, _, err = run_cli(capsys, "eval", "--sig", "msofin",
                           "--formula", "(= zero zerostar)")
    assert code == EXIT_USAGE
    code, out, _ = run_cli(capsys, "eval", "--sig", "msofin", "--n", "1",
                           "--formula", "(= zero zerostar)")
    assert code == EXIT_TRUE
    code, out, err = run_cli(capsys, "eval", "--sig", "msofin", "--n", "-1",
                             "--formula", "(= zero zerostar)")
    assert (code, out) == (EXIT_USAGE, None)
    assert err == "error: MSO(-1) needs n >= 0\n"


def test_eval_with_params_file(capsys, tmp_path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"A": ["0/1", "1/2"], "B": ["0/1"]}))
    code, out, _ = run_cli(capsys, "eval", "--sig", "wso",
                           "--params", str(params),
                           "--formula", "(= (min A) B)")
    assert code == EXIT_TRUE and out["verdict"] is True


def test_eval_lci_params(capsys, tmp_path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"A": [["1/4", "inf"]]}))
    code, out, _ = run_cli(capsys, "eval", "--sig", "lci",
                           "--params", str(params),
                           "--formula", "(= (max A) bot)")
    assert code == EXIT_TRUE


@pytest.mark.parametrize("command, value", [
    (("eval", "--sig", "wso"), [["0/1", "1/2"]]),
    (("fv-reduce",), [["0/1", "1/2"]]),
    (("eval", "--sig", "lci"), [1]),
])
def test_misshaped_parameter_value_is_a_usage_error(capsys, tmp_path,
                                                    command, value):
    """A JSON array of the wrong shape is a usage error, not a traceback
    whose exit code would read as a false verdict."""
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"A": value}))
    code, out, err = run_cli(capsys, *command, "--params", str(params),
                             "--formula", "(= A A)")
    assert (code, out) == (EXIT_USAGE, None)
    assert err.startswith("error: bad parameter value: ")


def test_translate_wso_to_lci_is_existential(capsys):
    code, out, _ = run_cli(capsys, "translate", "--from", "wso", "--to", "lci",
                           "--formula", "(= (msinv A B) C)")
    assert code == EXIT_TRUE
    translated = parse(out["formula"], SIGNATURES["lci"])
    assert is_existential(translated)


def test_translate_defeq_pair(capsys):
    code, out, _ = run_cli(capsys, "translate", "--from", "mo", "--to", "wso",
                           "--formula", "(ltE X Y)")
    assert code == EXIT_TRUE
    parse(out["formula"], SIGNATURES["wso"])  # well-formed in the target


@pytest.mark.parametrize("text", [
    "(= (setminus X Y) bot)",
    "(not (= (delta X Y) (setminus Y X)))",
    "(= (min (setminus X Y)) (max (delta Y X)))",
])
def test_translate_wso_differences_to_mo(capsys, text):
    """translate --from wso --to mo reads setminus and delta, as the wso
    parser does, and its MO image agrees with the W(I) formula on every pair
    of subsets of {0, 1/2}."""
    code, out, err = run_cli(capsys, "translate", "--from", "wso",
                             "--to", "mo", "--formula", text)
    assert (code, err) == (EXIT_TRUE, "")
    f = parse(text, PARSE_SIGNATURES["wso"])
    translated = parse(out["formula"], SIGNATURES["mo"])
    region = FinSet.of(Fraction(0), Fraction(1, 2))
    er = restrict(WsoStructure(), region)
    subsets = subsets_of(region.points)
    for x, y in itertools.product(subsets, repeat=2):
        asg = {"X": x, "Y": y}
        got = bruteforce_eval(er.msofin(), translated,
                              {k: er.to_msofin(v) for k, v in asg.items()})
        assert got == eval_qf(WsoStructure(), f, asg), asg


def test_translate_unsupported_pair(capsys):
    code, _, err = run_cli(capsys, "translate", "--from", "msofin",
                           "--to", "lci", "--formula", "(= X Y)")
    assert code == EXIT_USAGE


def test_positive_rewrite_command(capsys):
    code, out, _ = run_cli(capsys, "positive-rewrite",
                           "--formula", "(not (= X bot))")
    assert code == EXIT_TRUE
    assert is_positive_existential(parse(out["formula"], SIGNATURES["wso"]))
    code, _, _ = run_cli(capsys, "positive-rewrite",
                         "--formula", "(exists X (= X bot))")
    assert code == EXIT_USAGE


def test_translate_lci_to_wso_output_evaluates(capsys, tmp_path):
    """What translate --to wso prints (setminus included), eval --sig wso
    reads, and its verdict is the lci formula's on the coded values."""
    code, out, _ = run_cli(capsys, "translate", "--from", "lci", "--to", "wso",
                           "--formula", "(= (max X) Z)")
    assert code == EXIT_TRUE and "setminus" in out["formula"]
    translated = tmp_path / "f.txt"
    translated.write_text(out["formula"])
    for z, verdict in (("2/3", True), ("1/3", False)):
        iu = tmp_path / "iu.json"
        iu.write_text(json.dumps({"X": [["1/3", "2/3"]], "Z": [[z, z]]}))
        codes = tmp_path / "codes.json"
        codes.write_text(json.dumps({"X_l": ["1/3"], "X_r": ["2/3"],
                                     "Z_l": [z], "Z_r": [z]}))
        code, out, _ = run_cli(capsys, "eval", "--sig", "lci",
                               "--params", str(iu),
                               "--formula", "(= (max X) Z)")
        assert out["verdict"] is verdict
        code, out, err = run_cli(capsys, "eval", "--sig", "wso",
                                 "--params", str(codes),
                                 "--formula-file", str(translated))
        assert (code, err) == (EXIT_TRUE if verdict else EXIT_FALSE, "")
        assert out["verdict"] is verdict


def test_positive_rewrite_reads_delta(capsys, tmp_path):
    code, out, err = run_cli(capsys, "positive-rewrite",
                             "--formula", "(not (= (delta X X) bot))")
    assert (code, err) == (EXIT_TRUE, "")
    f = parse(out["formula"], SIGNATURES["wso"])
    assert is_positive_existential(f)
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"X": ["0/1", "1/2"]}))
    code, out, _ = run_cli(capsys, "eval", "--sig", "wso", "--budget", "2",
                           "--params", str(params),
                           "--formula", out["formula"])
    assert code == EXIT_FALSE  # X delta X is empty for every X


def test_formula_file_layout_is_free(capsys, tmp_path):
    """A multi-line, tab-indented formula file parses as its one-line text."""
    one_line = "(exists X (and (= (min X) Y) (not (= X bot))))"
    laid_out = tmp_path / "f.txt"
    laid_out.write_text("(exists X\n\t(and (= (min X)\r\n\t\t\tY)\n"
                        "\t\t(not\t(= X bot))))\n")
    code, from_file, _ = run_cli(capsys, "parse", "--sig", "wso",
                                 "--formula-file", str(laid_out))
    assert code == EXIT_TRUE
    code, from_text, _ = run_cli(capsys, "parse", "--sig", "wso",
                                 "--formula", one_line)
    assert from_file == from_text == {"formula": one_line, "free_vars": ["Y"]}


def test_code_check_command(capsys, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"l": ["1/4"], "r": []}))
    code, out, _ = run_cli(capsys, "code-check", "--params", str(good))
    assert code == EXIT_TRUE
    assert out == {"ok": True, "intervals": [["1/4", "inf"]]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"l": ["1/2"], "r": ["1/4"]}))
    code, out, _ = run_cli(capsys, "code-check", "--params", str(bad))
    assert code == EXIT_FALSE
    assert out == {"ok": False}


def test_fv_reduce_command(capsys, tmp_path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"A": ["0/1", "1/2"]}))
    code, out, _ = run_cli(capsys, "fv-reduce", "--params", str(params),
                           "--formula",
                           "(exists X (and (subset X A) (not (= X bot))))")
    assert code == EXIT_TRUE
    assert set(out) == {"psi", "sentences", "stabilized"}
    assert out["stabilized"] is True
    assert out["sentences"]


def test_eval_prenex_block_answers_like_miniscoped(capsys, tmp_path,
                                                   time_limit):
    """The prenex three-atoms sentence returns the miniscoped sentence's
    report and exit code (both the known-wrong false of ROADMAP item 4)."""
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"A": ["1/3"], "B": ["2/3"]}))
    time_limit(5)
    prenex = run_cli(capsys, "eval", "--sig", "wso", "--params", str(params),
                     "--formula", THREE_ATOMS_PRENEX)
    miniscoped = run_cli(capsys, "eval", "--sig", "wso", "--params",
                         str(params), "--formula", THREE_ATOMS_MINISCOPED)
    assert prenex[:2] == miniscoped[:2]


def test_deeply_nested_formula_is_a_usage_error(capsys):
    """A formula nested past the interpreter's recursion limit is reported,
    not a traceback with the exit code of a false verdict; the entry points
    say so, and the CLI only prints it."""
    depth = sys.getrecursionlimit() + 200
    formula = "(not " * depth + "(= bot bot)" + ")" * depth
    for command in (("eval", "--sig", "wso"),
                    ("translate", "--from", "lci", "--to", "lci")):
        code, out, err = run_cli(capsys, *command, "--formula", formula)
        assert code == EXIT_USAGE
        assert out is None
        assert err == "error: formula nested too deeply\n"


def test_selftest_command(capsys):
    code, out, err = run_cli(capsys, "selftest")
    assert code == EXIT_TRUE
    assert out["ok"] is True
    assert all(s["failures"] == 0 for s in out["suites"])
    assert {"name", "cases", "failures", "ok"} <= set(out["suites"][0])


def test_exit_code_is_function_of_report():
    assert _report_exit(EvalReport(True, 1, True)) == EXIT_TRUE
    assert _report_exit(EvalReport(False, 1, True)) == EXIT_FALSE
    assert _report_exit(EvalReport(True, 4, False)) == EXIT_UNSTABLE
    assert _report_exit(EvalReport(False, 4, False)) == EXIT_UNSTABLE


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mcdlo.cli", "eval", "--sig", "wso",
         "--budget", "1", "--formula", "(= bot bot)"],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_TRUE
    assert json.loads(proc.stdout)["verdict"] is True


def test_grid_convergence_script_runs(monkeypatch, capsys):
    """The script runs, and its grid cap does not leak into the process."""
    monkeypatch.delenv("MCDLO_GRID_CAP", raising=False)
    script = Path(__file__).resolve().parent.parent / "scripts" / \
        "grid_convergence.py"
    assert runpy.run_path(str(script))["main"](["--trials", "5"]) == 0
    assert "5 random formulas" in capsys.readouterr().out
    assert "MCDLO_GRID_CAP" not in os.environ


def test_query_outputs_script_is_deterministic():
    """Two runs over the same pass print the same lines, one per query."""
    script = Path(__file__).resolve().parent.parent / "scripts" / \
        "query_outputs.py"
    main_ = runpy.run_path(str(script))["main"]
    runs = []
    for _ in range(2):
        out = io.StringIO()
        assert main_(["--workload", "l-grid", "--seed", "1", "--pass", "0"],
                     out=out) == 0
        runs.append(out.getvalue())
    lines = [json.loads(line) for line in runs[0].splitlines()]
    assert runs[0] == runs[1]
    assert len({line["qid"] for line in lines}) == len(lines) > 0
    assert all(line["status"] == "ok" for line in lines)


def test_ab_queries_script_times_a_checkout_against_itself(capsys,
                                                           tmp_path):
    """With A = B the two sides give the same answers, and the sums of
    their per-query minima agree within 5%; the sums of each kind of query
    (its qid without pass prefix and number) add up to them.  Against a
    copy that names partition blocks apart, every psi prints differently
    at the same node count, and those answers differ."""
    root = Path(__file__).resolve().parent.parent
    main_ = runpy.run_path(str(root / "scripts" / "ab_queries.py"))["main"]
    semantics = sys.modules["mcdlo.semantics"]
    assert main_([str(root), str(root), "--workload", "w-grid", "--seed",
                  "1", "--pass", "0", "--rounds", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["queries"] > 0 and result["answers_differ"] == 0
    assert result["first_differing"] == []
    assert abs(result["ratio"] - 1) < 0.05
    kinds = result["kinds"]
    assert {"cap", "code"} <= set(kinds)
    assert not any(k.startswith("p0-") or k[-1].isdigit() for k in kinds)
    for side in ("a_s", "b_s"):
        assert sum(k[side] for k in kinds.values()) == \
            pytest.approx(result[side], abs=1e-5)
    assert sum(k["queries"] for k in kinds.values()) == result["queries"]
    assert all(set(k) == {"queries", "a_s", "b_s", "ratio"}
               for k in kinds.values())
    assert len(lines) == len(kinds) + 2
    assert sys.modules["mcdlo.semantics"] is semantics

    other = tmp_path / "other"
    for part in ("src", "perfbench"):
        shutil.copytree(root / part, other / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    fefvau = other / "src" / "mcdlo" / "fefvau.py"
    text = fefvau.read_text()
    assert 'fresh.fresh("Zp")' in text
    fefvau.write_text(text.replace('fresh.fresh("Zp")', 'fresh.fresh("Zq")'))
    assert main_([str(root), str(other), "--workload", "fv-params", "--seed",
                  "1", "--pass", "0", "--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["answers_differ"] > 0
    assert lines[-2].startswith(f"{result['answers_differ']} answers differ")
    assert len(result["first_differing"]) == min(5, result["answers_differ"])
    assert sys.modules["mcdlo.semantics"] is semantics


def test_query_outputs_do_not_depend_on_the_hash_seed():
    """Every translator's fresh names come out the same whatever the string
    hashing of the process, so dict and set order cannot leak into them."""
    root = Path(__file__).resolve().parent.parent
    outputs = []
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        run = subprocess.run(
            [sys.executable, str(root / "scripts" / "query_outputs.py"),
             "--workload", "translate", "--seed", "1", "--pass", "0"],
            env=env, capture_output=True, text=True, check=True)
        outputs.append(run.stdout)
    assert outputs[0] and outputs[0] == outputs[1]


def test_traced_bench_entry_points_resolve():
    """Every entry point the traced bench wraps exists under its name, a
    method in its class's own namespace, where the bench replaces it."""
    tracing = Path(__file__).resolve().parent.parent / "perfbench" / \
        "tracing.py"
    entry_points = runpy.run_path(str(tracing))["ENTRY_POINTS"]
    assert entry_points
    for _layer, modname, path, mode in entry_points:
        assert mode in ("span", "leaf", "count")
        owner = importlib.import_module(modname)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in vars(owner), f"{modname}.{path} is gone"
        assert callable(getattr(owner, attr))
