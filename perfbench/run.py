#!/usr/bin/env python3
"""The repository benchmark: seeded query workloads timed end to end, and a
traced run that times each mcdlo module's entry points from outside.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload w-grid --seed 1 --seconds 15 --trace 0

Load model: one process, one thread, a closed loop with one client (the
next query starts when the previous one returns).  The timed loop runs
whole passes (see workloads.py) until ``--seconds`` of query time have
passed.  Each query has a wall-clock limit; a query that raises or runs
into the limit counts as failed, its cause is recorded and the loop goes
on.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
runs one pass untraced and the same pass traced and reports the per-layer
metrics.  Lines before the last one are a human-readable report: run
metadata, every end-to-end figure with its unit, the per-layer table, and
every failed, unstable, wrong and unchecked query.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
# Times are reported at a reference machine speed: a query's wall time is
# scaled by REFERENCE_S over the gauge reading interpolated, in time, between
# the gaugings just before and after it.  The sandbox the benchmark was
# written on runs about 25% faster or slower from one minute to the next,
# the same for the program and for reference_work, so unscaled times of two
# runs of the same code differ by more than a regression worth catching.
# REFERENCE_S is gauge() there (2-CPU Xeon, Python 3.11) at a quiet moment.
REFERENCE_S = 0.0028
CALIBRATE_EVERY_S = 0.2
KNOWN_DEFECTS = json.loads((HERE / "known_defects.json").read_text())


class QueryTimeout(BaseException):
    """Raised by SIGALRM inside a query that ran into its time limit.  A
    BaseException, so no handler inside the program can swallow it."""


def _on_alarm(signum, frame):
    raise QueryTimeout


def load(workload: str, seed: int):
    """Import mcdlo afresh from the checkout and build the first pass.
    Returns (seconds, workloads module, queries of pass 0)."""
    for name in list(sys.modules):
        if name in ("mcdlo", "workloads") or name.startswith("mcdlo."):
            del sys.modules[name]
    t0 = time.perf_counter()
    wl = importlib.import_module("workloads")
    queries = wl.generate_pass(workload, seed, 0)
    seconds = time.perf_counter() - t0
    origin = Path(sys.modules["mcdlo"].__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"mcdlo imported from {origin}, not from {SRC}")
    return seconds, wl, queries


def reference_work() -> int:
    """A fixed pure-Python computation that does not touch the program."""
    table, acc, rows = {}, 0, []
    for i in range(4000):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + (i ^ (i >> 3))
        row = (i, key, acc & 255)
        rows.append(row)
        if isinstance(row[1], tuple):
            acc += (i * 2654435761) & 0xFF
    rows.sort(key=lambda r: r[2])
    return acc + len(table)


def gauge() -> tuple:
    """(when, reading): the machine's speed now, as the best of 3 timings of
    reference_work, with the garbage collector off so that the size of the
    program's heap does not enter the reading."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            reference_work()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return time.perf_counter(), best


def run_pass(wl, queries, limit: float, tracer=None, speed=None) -> dict:
    """Issue the queries one after another; returns qid -> Outcome.  With a
    ``speed`` list, the machine speed is gauged (outside the query times)
    before the pass, after every CALIBRATE_EVERY_S of query time and after
    the pass, and each outcome records the gauging just before it and the
    middle of its run."""
    done = {}
    since = 0.0
    if speed is not None:
        speed.append(gauge())
    for q in queries:
        if tracer is not None:
            tracer.qid = q.qid
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                outcome = wl.execute(q, done)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except QueryTimeout:
            outcome = wl.Outcome("timeout", 0.0, cause="timeout")
        except Exception as exc:  # a failed query is recorded, not fatal
            outcome = wl.Outcome("error", 0.0,
                                 cause=f"{type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        outcome.seconds, outcome.middle = t1 - t0, (t0 + t1) / 2
        done[q.qid] = outcome
        if speed is not None:
            outcome.gauged = len(speed) - 1
            since += outcome.seconds
            if since >= CALIBRATE_EVERY_S:
                speed.append(gauge())
                since = 0.0
    if speed is not None:
        speed.append(gauge())
    return done


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Evaluation:
    """Answers checked pass by pass; the program's outputs are dropped once
    checked, so a run of many passes does not hold every output."""

    def __init__(self, wl, limit: float):
        self.wl = wl
        self.limit = limit
        self.tally = dict.fromkeys(
            ("attempted", "failed", "returned", "verdicts", "unstable",
             "checked", "wrong", "unexpected_wrong", "out_nodes"), 0)
        self.listing = []
        self.times_ms = []      # wall time of each query
        self.scaled_ms = []     # the same at the reference speed
        self.slowest = (0.0, "")

    def add_pass(self, queries, done, speed=None) -> None:
        t = self.tally
        for q in queries:
            o = done[q.qid]
            self.times_ms.append(o.seconds * 1000)
            if speed is not None:
                # the reading interpolated at the middle of the query; a
                # timeout lasts the limit, however fast the machine runs
                (t0, g0), (t1, g1) = speed[o.gauged:o.gauged + 2]
                reading = g0 + (g1 - g0) * (o.middle - t0) / (t1 - t0)
                scale = 1.0 if o.status == "timeout" else REFERENCE_S / reading
                self.scaled_ms.append(o.seconds * 1000 * scale)
            t["attempted"] += 1
            if o.status != "ok":
                t["failed"] += 1
                self.listing.append(("failed", q, o.cause))
                continue
            t["returned"] += 1
            t["out_nodes"] += o.out_nodes
            self.slowest = max(self.slowest, (o.seconds * 1000, q.qid))
            if o.stabilized is not None:
                t["verdicts"] += 1
                if not o.stabilized:
                    t["unstable"] += 1
                    self.listing.append(("unstable", q, "stabilized=false"))
            status, detail = self.wl.check(q, o)
            if status == "unchecked":
                self.listing.append(("unchecked", q, detail))
                continue
            t["checked"] += 1
            if status == "wrong":
                t["wrong"] += 1
                if q.defect not in KNOWN_DEFECTS:
                    t["unexpected_wrong"] += 1
                self.listing.append(("wrong", q, detail))
        for o in done.values():
            o.value = None


def metadata(workload: str, seed: int) -> dict:
    lines = 0
    digest = hashlib.sha256()
    for path in sorted((SRC / "mcdlo").glob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(data)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "cpu_model": cpu,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "git_commit": git_commit(), "src_sha256": digest.hexdigest()[:16],
            "src_mcdlo_lines": lines}


def git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def print_listing(listing) -> None:
    for what in ("failed", "unstable", "wrong", "unchecked"):
        rows = [(q, why) for kind, q, why in listing if kind == what]
        print(f"# {what} queries: {len(rows)}")
        for q, why in rows:
            defect = f" [known defect: {q.defect}]" if q.defect else ""
            print(f"  {q.qid} ({q.kind}) {why}{defect}: {q.text}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = [w["name"] for w in benchmark_spec()["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        before = gauge()[1]
        setups = [load(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
        setup_scale = 2 * REFERENCE_S / (before + gauge()[1])
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    _, wl, first = setups[-1]
    setup_raw_s = statistics.median(s for s, _, _ in setups)
    limit = wl.TIME_LIMIT_S[args.workload]
    meta = metadata(args.workload, args.seed)
    print("# run metadata (information only): " + json.dumps(meta))

    if args.trace:
        return traced_run(args, wl, first, limit)

    ev = Evaluation(wl, limit)
    passes, peak_rss_mb = 0, 0.0
    while sum(ev.times_ms) < args.seconds * 1000 or not passes:
        queries = first if passes == 0 else wl.generate_pass(
            args.workload, args.seed, passes)
        speed = []
        done = run_pass(wl, queries, limit, speed=speed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ev.add_pass(queries, done, speed)
        passes += 1

    t = ev.tally
    busy_s = sum(ev.times_ms) / 1000
    figures = {
        "setup_s": (setup_raw_s * setup_scale, "s"),
        "query_p50_ms": (statistics.median(ev.scaled_ms), "ms"),
        "query_p95_ms": (percentile(ev.scaled_ms, 95), "ms"),
        "queries_per_s": (t["returned"] * 1000 / sum(ev.scaled_ms), "1/s"),
        "failed_frac": (t["failed"] / t["attempted"], "fraction"),
        "unstable_frac": (t["unstable"] / max(t["verdicts"], 1), "fraction"),
        "wrong_verdicts": (t["wrong"], "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if args.workload in ("translate", "fv-params"):
        figures["out_nodes"] = (t["out_nodes"], "nodes")
    print(f"# {passes} passes, {t['attempted']} queries "
          f"({len(ev.times_ms)} timing samples), {busy_s:.2f} s of query "
          f"time, limit {limit} s per query, slowest completed query "
          f"{ev.slowest[0]:.1f} ms ({ev.slowest[1]})")
    print(f"# times at the reference speed; unscaled: setup_s "
          f"{setup_raw_s:.4g}, query_p50_ms "
          f"{statistics.median(ev.times_ms):.4g}, query_p95_ms {percentile(ev.times_ms, 95):.4g}, queries_per_s "
          f"{t['returned'] / busy_s:.4g}")
    for name, (value, unit) in figures.items():
        print(f"{name:16s} {value:14.6g} {unit}")
    print_listing(ev.listing)

    gated = {name: figures[name][0] for name in
             ("setup_s", "query_p50_ms", "query_p95_ms", "queries_per_s",
              "peak_rss_mb")}
    gated["answered_frac"] = 1 - figures["failed_frac"][0]
    gated["stable_frac"] = 1 - figures["unstable_frac"][0]
    gated["agree_frac"] = (t["checked"] - t["wrong"]) / max(t["checked"], 1)
    emit(t, gated, "end_to_end")
    return 0


def traced_run(args, wl, first, limit) -> int:
    """Untraced passes for a quarter of ``--seconds``, the same passes
    traced, and the same passes untraced again; prints the per-layer table,
    the tracing overhead and the per-layer metrics."""
    import tracing
    passes, untraced_s = [first], 0.0
    while True:
        t0 = time.perf_counter()
        run_pass(wl, passes[-1], limit)
        untraced_s += time.perf_counter() - t0
        if untraced_s >= args.seconds / 4:
            break
        passes.append(wl.generate_pass(args.workload, args.seed, len(passes)))

    ev = Evaluation(wl, limit)
    tracer = tracing.Tracer(wl)
    traced_s = again_s = 0.0
    for queries in passes:
        tracer.install()  # not while checking: checks call the program too
        try:
            t0 = time.perf_counter()
            done = run_pass(wl, queries, limit, tracer)
            traced_s += time.perf_counter() - t0
        finally:
            tracer.uninstall()
        ev.add_pass(queries, done)
    for queries in passes:
        t0 = time.perf_counter()
        done = run_pass(wl, queries, limit)
        again_s += time.perf_counter() - t0
        ev.add_pass(queries, done)
    untraced_s = (untraced_s + again_s) / 2
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")

    metrics = tracing.per_layer(tracer)
    metrics["trace.overhead_ms"] = (traced_s - untraced_s) * 1000
    print(f"# {len(passes)} passes, {sum(map(len, passes))} queries traced: "
          f"{traced_s * 1000:.1f} ms traced, {untraced_s * 1000:.1f} ms "
          f"untraced (mean of the runs before and after), tracing overhead "
          f"{(traced_s - untraced_s) * 1000:.1f} ms")
    print(tracer.table())
    for name, value in metrics.items():
        print(f"{name:44s} {value:14.6g}")
    print_listing(ev.listing)
    emit(ev.tally, metrics, "per_layer")
    return 0


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def emit(tally: dict, values: dict, section: str) -> None:
    """Print the result line with the units BENCHMARK.json declares."""
    spec = benchmark_spec()[section]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(values):
        raise RuntimeError(f"metrics {sorted(values)} do not match "
                           f"BENCHMARK.json {section} {sorted(units)}")
    print(json.dumps({
        "correct": tally["unexpected_wrong"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}}))


if __name__ == "__main__":
    sys.exit(main())
