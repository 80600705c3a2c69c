"""Spans around the public entry points of each mcdlo module, installed from
outside the program.

A wrapper replaces an entry point in every module namespace (and on every
class) that binds it, so calls through ``from mcdlo.semantics import
stabilize`` in another module are seen too.  A recursive entry point gets a
span for its outermost call only; its ``calls`` count every call.  Each
span records its name, start, end, parent span and query id; spans stay in
memory until ``write``.  Entry points called millions of times on some
workloads (term evaluation, interval-union construction) are counted, or
timed into their caller's child time, instead of getting spans.  A span's
self time is its duration minus the time its child spans (and timed leaf
calls) cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

ns = time.perf_counter_ns

# (layer, module, attribute path, mode): mode "span" records spans, "leaf"
# times calls without spans, "count" only counts calls.
ENTRY_POINTS = (
    ("semantics", "mcdlo.semantics", "stabilize", "span"),
    ("semantics", "mcdlo.semantics", "make_grid", "span"),
    ("semantics", "mcdlo.semantics", "GridWEvaluator.formula", "span"),
    ("semantics", "mcdlo.semantics", "GridLEvaluator.formula", "span"),
    ("semantics", "mcdlo.semantics", "BruteForceEvaluator.formula", "span"),
    ("order", "mcdlo.order", "enumerate_interval_unions", "span"),
    ("order", "mcdlo.order", "IntervalUnion.normalize", "count"),
    ("order", "mcdlo.order", "IntervalUnion.__post_init__", "count"),
    ("models", "mcdlo.models", "eval_atomic", "leaf"),
    ("models", "mcdlo.models", "eval_term", "count"),
    ("fefvau", "mcdlo.fefvau", "translate_with_parameters", "span"),
    ("fefvau", "mcdlo.fefvau", "fv_reduce", "span"),
    ("syntax", "mcdlo.syntax", "parse", "span"),
    ("syntax", "mcdlo.syntax", "print_formula", "span"),
    ("syntax", "mcdlo.syntax", "substitute", "span"),
    ("syntax", "mcdlo.syntax", "unnest", "span"),
    ("rewriting", "mcdlo.rewriting", "qf_positive_rewrite", "span"),
    ("rewriting", "mcdlo.rewriting", "w_in_l_translate", "span"),
    ("rewriting", "mcdlo.rewriting", "l_in_w_translate", "span"),
    ("rewriting", "mcdlo.rewriting", "lci_existential_rewrite", "span"),
    ("rewriting", "mcdlo.rewriting", "defeq_translate", "span"),
)

REWRITERS = ("qf_positive_rewrite", "w_in_l_translate", "l_in_w_translate",
             "lci_existential_rewrite", "defeq_translate")


class Tracer:
    def __init__(self, wl):
        self.wl = wl               # the workloads module: node counting
        # each span: [name, start_ns, end_ns, parent, qid, child_ns]
        self.spans = []
        self.open = []         # indices of the spans now running
        self.calls = Counter()
        self.leaf_ns = Counter()
        self.active = Counter()
        self.observed = defaultdict(list)
        self.qid = ""
        self.restore = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            if tracer.active[name]:
                return fn(*args, **kwargs)
            tracer.active[name] += 1
            index = len(tracer.spans)
            parent = tracer.open[-1] if tracer.open else -1
            span = [name, ns(), 0, parent, tracer.qid, 0]
            tracer.spans.append(span)
            tracer.open.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.observe(name, span, args, None, exc)
                raise
            finally:
                span[2] = ns()
                tracer.open.pop()
                tracer.active[name] -= 1
                if parent >= 0:
                    tracer.spans[parent][5] += span[2] - span[1]
            tracer.observe(name, span, args, result, None)
            return result
        return wrapper

    def _leaf(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            t0 = ns()
            try:
                return fn(*args, **kwargs)
            finally:
                took = ns() - t0
                tracer.leaf_ns[name] += took
                if tracer.open:
                    tracer.spans[tracer.open[-1]][5] += took
        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def observe(self, name, span, args, result, exc) -> None:
        """Record what a finished outermost call says about its layer."""
        obs = self.observed
        if name == "make_grid":
            if type(exc).__name__ == "GridCapError":
                obs["grid_cap_errors"].append(1)
            elif exc is None:
                obs["grid_points"].append(len(result))
        elif name == "stabilize" and result is not None:
            obs["budget_used"].append(result.budget_used)
        elif name == "enumerate_interval_unions" and result is not None:
            # GridLEvaluator.candidates is its only caller in a query
            obs["candidates"].append(len(result))
        elif name == "fv_reduce" and result is not None:
            obs["thetas"].append(len(result.thetas))
        elif name == "translate_with_parameters" and result is not None:
            blocks, dead = self.wl.psi_stats(result.psi)
            obs["psi_nodes"].append(self.wl.node_count(result.psi))
            obs["partition_blocks"].append(blocks)
            obs["psi_dead_blocks"].append(dead)
        elif name in REWRITERS and result is not None:
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] not in REWRITERS:
                parent = self.spans[parent][3]
            if parent < 0:  # not called by another rewriter
                obs["rewrite_in_nodes"].append(self.wl.node_count(args[0]))
                obs["rewrite_out_nodes"].append(self.wl.node_count(result))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mcdlo" or n.startswith("mcdlo.")
                                         or n == "workloads")]
        for _layer, modname, path, mode in ENTRY_POINTS:
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            name = path
            raw = owner.__dict__[attr] if outer else getattr(owner, attr)
            make = {"span": self._span, "leaf": self._leaf,
                    "count": self._count}[mode]
            if isinstance(raw, classmethod):
                new = classmethod(make(name, raw.__func__))
            else:
                new = make(name, raw)
            if outer:
                self._replace(owner, attr, raw, new)
            else:
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is raw:
                            self._replace(m, key, raw, new)

    def _replace(self, owner, attr, old, new) -> None:
        setattr(owner, attr, new)
        self.restore.append((owner, attr, old))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self.restore):
            setattr(owner, attr, old)
        self.restore.clear()

    # -- reading -----------------------------------------------------------

    def totals(self) -> dict:
        """name -> [outermost calls, total ns, self ns]."""
        out = defaultdict(lambda: [0, 0, 0])
        for name, start, end, _parent, _qid, child in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
        return out

    def oracle_spans(self) -> list:
        """stabilize spans whose parent is translate_with_parameters."""
        return [s for s in self.spans if s[0] == "stabilize" and s[3] >= 0
                and self.spans[s[3]][0] == "translate_with_parameters"]

    def table(self) -> str:
        """Per-layer table: all calls, outermost calls (spans), total and
        self milliseconds of each entry point, and each layer's self time."""
        totals = self.totals()
        head = (f"{'layer / entry point':44s} {'calls':>10s} {'spans':>8s} "
                f"{'total ms':>11s} {'self ms':>11s}")
        rows, layer_self = [head], Counter()
        for layer, _modname, name, mode in ENTRY_POINTS:
            spans, total, own = totals.get(name, (0, 0, 0))
            if mode == "leaf":
                total = own = self.leaf_ns[name]
            layer_self[layer] += own
            timed = mode != "count"
            rows.append(f"{layer + '.' + name:44s} {self.calls[name]:10d} "
                        f"{spans:8d} "
                        f"{total / 1e6 if timed else float('nan'):11.3f} "
                        f"{own / 1e6 if timed else float('nan'):11.3f}")
        for layer, own in layer_self.items():
            rows.append(f"{layer + ' (self time of the layer)':44s} {'':10s} "
                        f"{'':8s} {'':11s} {own / 1e6:11.3f}")
        return "\n".join(rows)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, qid, child in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "query": qid, "child_ns": child}) + "\n")


def per_layer(tracer: Tracer) -> dict:
    """The per-layer metrics of BENCHMARK.json, from the traced passes.  The
    calls of an entry point with spans are its outermost calls; the calls of
    a counted or leaf-timed one are all its calls."""
    totals = tracer.totals()

    def ms(name, own=False):
        return totals[name][2 if own else 1] / 1e6 if name in totals else 0.0

    def spans(name):
        return totals[name][0] if name in totals else 0

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    obs = tracer.observed
    oracle = tracer.oracle_spans()
    in_nodes = sum(obs["rewrite_in_nodes"])
    calls = tracer.calls
    return {
        "semantics.grid_w.ms": ms("GridWEvaluator.formula"),
        "semantics.grid_l.ms": ms("GridLEvaluator.formula"),
        "semantics.grid_l.candidates": sum(obs["candidates"]),
        "semantics.bruteforce.ms": ms("BruteForceEvaluator.formula"),
        "semantics.make_grid.calls": spans("make_grid"),
        "semantics.grid_points.max": max(obs["grid_points"], default=0),
        "semantics.grid_points.mean": mean(obs["grid_points"]),
        "semantics.grid_cap_errors": len(obs["grid_cap_errors"]),
        "semantics.stabilize.budget_used.mean": mean(obs["budget_used"]),
        "order.enumerate_interval_unions.calls":
            spans("enumerate_interval_unions"),
        "order.enumerate_interval_unions.ms": ms("enumerate_interval_unions"),
        "order.interval_unions_built": calls["IntervalUnion.__post_init__"],
        "order.IntervalUnion.normalize.calls":
            calls["IntervalUnion.normalize"],
        "models.eval_atomic.calls": calls["eval_atomic"],
        "models.eval_atomic.ms": tracer.leaf_ns["eval_atomic"] / 1e6,
        "models.eval_term.calls": calls["eval_term"],
        "fefvau.fv_reduce.ms": ms("fv_reduce"),
        "fefvau.thetas": sum(obs["thetas"]),
        "fefvau.partition_blocks": sum(obs["partition_blocks"]),
        "fefvau.translate_with_parameters.ms": ms("translate_with_parameters",
                                                  own=True),
        "fefvau.oracle.calls": len(oracle),
        "fefvau.oracle.ms": sum(s[2] - s[1] for s in oracle) / 1e6,
        "fefvau.psi_nodes": sum(obs["psi_nodes"]),
        "fefvau.psi_dead_blocks": sum(obs["psi_dead_blocks"]),
        "syntax.parse.ms": ms("parse"),
        "syntax.parse.calls": spans("parse"),
        "syntax.print_formula.ms": ms("print_formula"),
        "syntax.print_formula.calls": spans("print_formula"),
        "syntax.substitute.ms": ms("substitute"),
        "syntax.substitute.calls": spans("substitute"),
        "syntax.unnest.ms": ms("unnest"),
        "rewriting.qf_positive_rewrite.ms": ms("qf_positive_rewrite"),
        "rewriting.w_in_l_translate.ms": ms("w_in_l_translate"),
        "rewriting.l_in_w_translate.ms": ms("l_in_w_translate"),
        "rewriting.lci_existential_rewrite.ms": ms("lci_existential_rewrite"),
        "rewriting.defeq_translate.ms": ms("defeq_translate"),
        "rewriting.out_in_nodes_ratio":
            sum(obs["rewrite_out_nodes"]) / in_nodes if in_nodes else 0.0,
    }
