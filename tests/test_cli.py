import json
import subprocess
import sys

import pytest

from mcdlo.cli import EXIT_FALSE, EXIT_TRUE, EXIT_UNSTABLE, EXIT_USAGE, main
from mcdlo.semantics import EvalReport
from mcdlo.cli import _report_exit
from mcdlo.syntax import SIGNATURES, is_existential, parse

from conftest import THREE_ATOMS_MINISCOPED, THREE_ATOMS_PRENEX


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


def test_translate_unsupported_pair(capsys):
    code, _, err = run_cli(capsys, "translate", "--from", "msofin",
                           "--to", "lci", "--formula", "(= X Y)")
    assert code == EXIT_USAGE


def test_positive_rewrite_command(capsys):
    code, out, _ = run_cli(capsys, "positive-rewrite",
                           "--formula", "(not (= X bot))")
    assert code == EXIT_TRUE
    from mcdlo.syntax import is_positive_existential
    assert is_positive_existential(parse(out["formula"], SIGNATURES["wso"]))
    code, _, _ = run_cli(capsys, "positive-rewrite",
                         "--formula", "(exists X (= X bot))")
    assert code == EXIT_USAGE


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
