#!/usr/bin/env python3
"""Time the benchmark's queries at two checkouts in one process.

    python3 scripts/ab_queries.py A B --workload l-grid --seed 1 --pass 0 \\
        --rounds 5

A and B are the roots of two checkouts.  Each one's mcdlo and
perfbench/workloads.py are imported from it under their own module table,
and each side runs its own copy of the queries of the given passes.  In
every round each query runs on both sides, one after the other, and the
side that goes first alternates from one query to the next and from one
round to the next, so a drift in machine speed falls on both sides alike.
A query's answer is its line of scripts/query_outputs.py, printed psi or
translation included, so a change of text at the same node count shows.
The garbage collector is off during a round and collects between rounds:
each round allocates alike, so a collection would land on the same side of
the same query every round.  A query's time on a side is its least over the
rounds; a side's total is the sum of those minima.  The same sums are
printed for each kind of query: its qid without the pass prefix and the
trailing number (wil, univ, univ-param, fv0-psi, lci>lci), so a saving
shows where it lands.  The last line printed is a JSON object with both
totals, their ratio B / A, the sums of each kind, the number of queries
whose answers differ and the first few of their qids.  A sum dominated by
a few long queries (as on l-grid) needs more rounds to settle than one of
many short ones.

The checkouts are only read: no bytecode is written.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import re
import runpy
import signal
import sys
import time
from pathlib import Path

WORKLOADS = ("w-grid", "l-grid", "fv-params", "translate")
output_line = runpy.run_path(
    str(Path(__file__).with_name("query_outputs.py")))["output_line"]


class _Timeout(BaseException):
    """Raised by SIGALRM inside a query that ran into its time limit."""


def _on_alarm(signum, frame):
    raise _Timeout


def _ours(name: str) -> bool:
    return name in ("mcdlo", "workloads") or name.startswith("mcdlo.")


def _activate(modules: dict) -> None:
    """Make these modules the ones an import of mcdlo or workloads finds."""
    for name in [n for n in sys.modules if _ours(n)]:
        del sys.modules[name]
    sys.modules.update(modules)


def load(root: Path, workload: str, seeds, passes) -> tuple:
    """(modules, workloads module, queries) of the checkout at root."""
    _activate({})
    saved = sys.path[:]
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    try:
        wl = importlib.import_module("workloads")
    finally:
        sys.path[:] = saved
    origin = Path(sys.modules["mcdlo"].__file__).resolve()
    if root.resolve() / "src" not in origin.parents:
        raise ImportError(f"mcdlo imported from {origin}, not from {root}")
    modules = {n: m for n, m in sys.modules.items() if _ours(n)}
    queries = [q for seed in seeds for index in passes
               for q in wl.generate_pass(workload, seed, index)]
    return modules, wl, queries


def query_kind(qid: str) -> str:
    """The qid without its pass prefix and its trailing number."""
    return re.sub(r"^p\d+-|-?\d+$", "", qid)


def run_query(side: tuple, q, done: dict, limit: float) -> tuple:
    """(seconds, answer) of one query on one side."""
    modules, wl = side
    _activate(modules)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            o = wl.execute(q, done)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except _Timeout:
        o, answer = None, ("timeout",)
    except Exception as exc:  # a failed query is an answer too
        o, answer = None, ("error", f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    if o is not None:  # printing psi is not the query's time
        done[q.qid] = o
        answer = output_line(wl, q, o)
    return seconds, answer


def compare(a: Path, b: Path, workload: str, seeds, passes,
            rounds: int) -> dict:
    """Both sides' sums of per-query minima; the modules the process had
    imported as mcdlo and workloads, and its bytecode setting, are put back
    afterwards."""
    before = {n: m for n, m in sys.modules.items() if _ours(n)}
    old = signal.signal(signal.SIGALRM, _on_alarm)
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # a lazy import must not write either
    try:
        ma, wa, qa = load(a, workload, seeds, passes)
        mb, wb, qb = load(b, workload, seeds, passes)
        if [q.qid for q in qa] != [q.qid for q in qb]:
            raise SystemExit("the two checkouts generate different queries")
        sides = ((ma, wa), (mb, wb))
        limit = wa.TIME_LIMIT_S[workload]
        best = [[float("inf")] * len(qa) for _ in sides]
        answers: list = [[None] * len(qa) for _ in sides]
        for r in range(rounds):
            gc.collect()
            gc.disable()
            done: tuple = ({}, {})
            for i, pair in enumerate(zip(qa, qb)):
                first = (r + i) % 2
                for s in (first, 1 - first):
                    seconds, answers[s][i] = run_query(sides[s], pair[s],
                                                       done[s], limit)
                    best[s][i] = min(best[s][i], seconds)
    finally:
        gc.enable()
        sys.dont_write_bytecode = writes
        signal.signal(signal.SIGALRM, old)
        _activate(before)
    differ = [q.qid for q, x, y in zip(qa, *answers) if x != y]
    kinds: dict = {}
    for q, ta, tb in zip(qa, *best):
        kinds.setdefault(query_kind(q.qid), []).append((ta, tb))
    return {"workload": workload, "rounds": rounds,
            **_sums(list(zip(*best))),
            "kinds": {k: _sums(times) for k, times in kinds.items()},
            "answers_differ": len(differ), "first_differing": differ[:5]}


def _sums(times: list) -> dict:
    """The query count, both sides' sums and their ratio of (A, B) pairs of
    per-query minima."""
    total_a, total_b = sum(t[0] for t in times), sum(t[1] for t in times)
    return {"queries": len(times), "a_s": round(total_a, 6),
            "b_s": round(total_b, 6),
            "ratio": round(total_b / total_a, 4) if total_a else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="root of checkout A (the base)")
    ap.add_argument("b", type=Path, help="root of checkout B")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", nargs="+", type=int, default=[1])
    ap.add_argument("--pass", dest="passes", nargs="+", type=int,
                    default=[0])
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    result = compare(args.a, args.b, args.workload, args.seed, args.passes,
                     args.rounds)
    print(f"{result['workload']}: {result['queries']} queries, "
          f"{result['rounds']} rounds; sum of per-query minima "
          f"A {result['a_s']:.4f} s, B {result['b_s']:.4f} s, "
          f"B/A {result['ratio']:.3f}")
    for kind, sums in sorted(result["kinds"].items(),
                             key=lambda item: -item[1]["a_s"]):
        ratio = "-" if sums["ratio"] is None else f"{sums['ratio']:.3f}"
        print(f"  {kind:<16} {sums['queries']:5d} queries  "
              f"A {sums['a_s']:.4f} s  B {sums['b_s']:.4f} s  B/A {ratio}")
    if result["answers_differ"]:
        print(f"{result['answers_differ']} answers differ, first at "
              f"{', '.join(result['first_differing'])}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
