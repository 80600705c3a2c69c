"""Self-tests of the benchmark.  Run from the root of a checkout with

    python3 -m pytest perfbench -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def verdict_queries(queries):
    return [q for q in queries if q.check and q.kind in ("w-eval", "l-eval",
                                                         "psi-eval")]


def test_same_seed_same_queries_and_answers():
    for name in NAMES:
        first = wl.generate_pass(name, 7, 0)
        again = wl.generate_pass(name, 7, 0)
        assert first == again, name
        sample = verdict_queries(first)[:25]
        assert [wl.expected_verdict(q) for q in sample] == \
            [wl.expected_verdict(q) for q in verdict_queries(again)[:25]]


def test_other_seed_or_pass_other_queries():
    for name in NAMES:
        def inputs(seed, index):
            return [(q.text, q.params)
                    for q in wl.generate_pass(name, seed, index)]
        assert inputs(7, 0) != inputs(8, 0)
        assert inputs(7, 0) != inputs(7, 1)


def test_pass_composition_does_not_depend_on_seed():
    for name in NAMES:
        def shape(seed):
            return sorted((q.kind, str(q.check), q.defect)
                          for q in wl.generate_pass(name, seed, 0))
        assert shape(3) == shape(4), name


def test_checker_flags_flipped_verdict():
    queries = [q for q in wl.generate_pass("w-grid", 5, 0)
               if q.check == "wso-direct"][:10]
    ev = run.Evaluation(wl, 1.0)
    done = {}
    for q in queries:
        want = wl.expected_verdict(q)
        assert wl.check(q, wl.Outcome("ok", 0.0, verdict=want,
                                      stabilized=True))[0] == "right"
        done[q.qid] = wl.Outcome("ok", 0.0, verdict=want, stabilized=True)
    flipped = queries[3]
    done[flipped.qid].verdict = not done[flipped.qid].verdict
    ev.add_pass(queries, done)
    assert ev.tally["wrong"] == 1 and ev.tally["unexpected_wrong"] == 1
    assert [q.qid for kind, q, _ in ev.listing if kind == "wrong"] == \
        [flipped.qid]


def test_checker_flags_changed_translation():
    q = next(q for q in wl.generate_pass("translate", 5, 0)
             if q.ref[0] == "wso>lci")
    out = wl.translate_text("wso>lci", q.text)
    printed = wl.print_formula(out)
    assert wl.check(q, wl.Outcome("ok", 0.0, value=(out, printed)))[0] == \
        "right"
    wrong = wl.parse("(exists X (not (= X bot)))", wl.LCI)
    status, why = wl.check(q, wl.Outcome(
        "ok", 0.0, value=(wrong, wl.print_formula(out))))
    assert status == "wrong" and "round trip" in why


def test_times_are_scaled_to_the_reference_speed():
    q = wl.generate_pass("w-grid", 5, 0)[0]
    slow = 2 * run.REFERENCE_S          # the machine runs at half speed
    speed = [(0.0, slow), (10.0, slow)]
    for status, scaled in (("ok", 5.0), ("timeout", 10.0)):
        ev = run.Evaluation(wl, 1.0)
        done = {q.qid: wl.Outcome(status, 0.01, cause=status, verdict=True,
                                  stabilized=True, middle=5.0)}
        ev.add_pass([q], done, speed)
        assert abs(ev.scaled_ms[0] - scaled) < 1e-9


def test_query_over_its_time_limit_fails_as_timeout():
    prenex = next(q for q in wl.generate_pass("w-grid", 5, 0)
                  if q.defect == "three-atoms-prenex")
    run.signal.signal(run.signal.SIGALRM, run._on_alarm)
    done = run.run_pass(wl, [prenex], 0.05)
    assert done[prenex.qid].status == "timeout"
    assert done[prenex.qid].cause == "timeout"


def test_known_defects_are_generated():
    defects = {q.defect for name in NAMES
               for q in wl.generate_pass(name, 5, 0) if q.defect}
    assert defects == set(run.KNOWN_DEFECTS) - {"nested-two-parameter"}
    assert any(q.text == wl.NESTED
               for q in wl.generate_pass("fv-params", 5, 0))


def test_metric_names_in_benchmark_json_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names + NAMES)


def run_benchmark(trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "translate",
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_printed_metrics_match_benchmark_json():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = run_benchmark(trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        units = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == units
        assert result["correct"] is True and result["attempted"] >= 1
