#!/usr/bin/env python3
"""Every answer of the benchmark's queries, one JSON line per query.

For the given workloads, seeds and passes, runs each pass with the
benchmark's own loop (perfbench/run.py, untimed and untraced) and prints
each query's qid, status, error (type and text), verdict, stabilized flag,
out_nodes and the printed psi or translation.  Run it at two commits and
diff the outputs to see that a change keeps every answer:

    python3 scripts/query_outputs.py --workload w-grid l-grid \\
        --seed 1 2 3 --pass 0 1 > outputs.jsonl

The benchmark's files are imported, never written (no bytecode is cached).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("w-grid", "l-grid", "fv-params", "translate")


def output_line(wl, q, o) -> dict:
    """The output of query q, whose outcome is o."""
    printed = None
    if o.status == "ok" and q.kind == "fv-reduce":
        printed = wl.print_formula(o.value.psi)
    elif o.status == "ok" and q.kind == "translate":
        printed = o.value[1]
    return {"qid": q.qid, "status": o.status, "error": o.cause or None,
            "verdict": o.verdict, "stabilized": o.stabilized,
            "out_nodes": o.out_nodes, "printed": printed}


def main(argv=None, out=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", choices=WORKLOADS,
                    default=list(WORKLOADS))
    ap.add_argument("--seed", nargs="+", type=int, default=[1])
    ap.add_argument("--pass", dest="passes", nargs="+", type=int,
                    default=[0])
    args = ap.parse_args(argv)
    out = out or sys.stdout
    saved = sys.path[:], sys.dont_write_bytecode
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    sys.dont_write_bytecode = True
    try:
        import run
        import workloads as wl
    finally:
        sys.path[:], sys.dont_write_bytecode = saved

    old = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        for workload in args.workload:
            for seed in args.seed:
                for index in args.passes:
                    queries = wl.generate_pass(workload, seed, index)
                    done = run.run_pass(wl, queries,
                                        wl.TIME_LIMIT_S[workload])
                    for q in queries:
                        line = output_line(wl, q, done[q.qid])
                        out.write(json.dumps(line, sort_keys=True) + "\n")
    finally:
        signal.signal(signal.SIGALRM, old)
    return 0


if __name__ == "__main__":
    sys.exit(main())
