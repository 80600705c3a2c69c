"""Command-line interface.

Machine-readable JSON goes to standard output; human-readable logs go to
standard error.  Exit codes: 0 true/success, 1 false, 2 usage or parse
error, 3 verdict did not stabilize (a report is still emitted).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .fefvau import translate_with_parameters
from .models import EvalError, MsoFin
from .order import FinSet, IntervalUnion
from .rewriting import (code_domain, code_to_interval_union, defeq_translate,
                        l_in_w_translate, lci_existential_rewrite,
                        qf_positive_rewrite, w_in_l_translate)
from .semantics import EvalReport, bruteforce_eval, grid_eval, stabilize
from .syntax import (SIGNATURES, SyntaxErrorAt, free_vars, is_quantifier_free,
                     parse, print_formula)

log = logging.getLogger("mcdlo")

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_UNSTABLE = 3

# wso text is read with setminus and delta: the lci-to-wso translation prints
# setminus and qf_positive_rewrite accepts both.  SIGNATURES["wso"] stays the
# paper's signature.
PARSE_SIGNATURES = {**SIGNATURES, "wso": SIGNATURES["wso"].with_extensions(
    setminus=True, delta=True)}


class UsageError(Exception):
    pass


def _read_formula(args) -> str:
    if getattr(args, "formula", None) is not None:
        return args.formula
    if getattr(args, "formula_file", None) is not None:
        try:
            with open(args.formula_file) as fh:
                return fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read formula file: {exc}") from exc
    raise UsageError("one of --formula/--formula-file is required")


def _parse_formula(args, sig: str):
    try:
        return parse(_read_formula(args), PARSE_SIGNATURES[sig])
    except SyntaxErrorAt as exc:
        raise UsageError(str(exc)) from exc


def _decode_value(raw, sig: str):
    if not isinstance(raw, list):
        raise UsageError(f"parameter values must be JSON arrays, got {raw!r}")
    if sig == "msofin":
        return frozenset(int(i) for i in raw)
    if sig == "lci":
        return IntervalUnion.from_json(raw)
    return FinSet.from_json(raw)


def _load_params(args, sig: str) -> dict:
    if getattr(args, "params", None) is None:
        return {}
    try:
        with open(args.params) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read parameter file: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("parameter file must be a JSON object")
    try:
        return {name: _decode_value(value, sig) for name, value in data.items()}
    except (TypeError, ValueError) as exc:  # a misshaped array: TypeError
        raise UsageError(f"bad parameter value: {exc}") from exc


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _report_exit(report: EvalReport) -> int:
    if not report.stabilized:
        return EXIT_UNSTABLE
    return EXIT_TRUE if report.verdict else EXIT_FALSE


def cmd_parse(args) -> int:
    f = _parse_formula(args, args.sig)
    _emit({"formula": print_formula(f), "free_vars": sorted(free_vars(f))})
    return EXIT_TRUE


def cmd_eval(args) -> int:
    f = _parse_formula(args, args.sig)
    assignment = _load_params(args, args.sig)
    if args.sig == "msofin":
        if args.n is None:
            raise UsageError("--n is required with --sig msofin")
        verdict = bruteforce_eval(MsoFin(args.n), f, assignment)
        report = EvalReport(verdict=verdict, budget_used=0, stabilized=True)
    else:
        kind = "l" if args.sig == "lci" else "w"
        if args.budget is not None:
            if args.budget < 1:
                raise UsageError("--budget must be >= 1")
            report = grid_eval(kind, f, assignment, k=args.budget)
        else:
            report = stabilize(kind, f, assignment, kmax=args.kmax)
    log.info("verdict=%s budget=%d stabilized=%s",
             report.verdict, report.budget_used, report.stabilized)
    _emit(report.to_json())
    return _report_exit(report)


DEFEQ_PAIRS = {("mo", "msofin"), ("msofin", "mo"), ("mo", "wso"), ("wso", "mo")}


def cmd_translate(args) -> int:
    src, dst = args.src, args.dst
    f = _parse_formula(args, src)
    if (src, dst) in DEFEQ_PAIRS:
        out = defeq_translate(f, src, dst)
    elif (src, dst) == ("wso", "lci"):
        out = w_in_l_translate(f)
    elif (src, dst) == ("lci", "wso"):
        out = l_in_w_translate(f)
    elif (src, dst) == ("lci", "lci"):
        out = lci_existential_rewrite(f)
    else:
        raise UsageError(f"no translation from {src!r} to {dst!r}")
    _emit({"formula": print_formula(out)})
    return EXIT_TRUE


def cmd_fv_reduce(args) -> int:
    f = _parse_formula(args, "mo")
    params = _load_params(args, "wso")
    missing = set(free_vars(f)) - set(params)
    if missing:
        raise UsageError(f"unbound parameters: {sorted(missing)}")
    result = translate_with_parameters(
        f, sorted(params),
        oracle=lambda s: stabilize("w", s, {}, kmax=args.kmax))
    log.info("reduced to %d component sentences, stabilized=%s, "
             "psi blocks kept=%d, psi nodes=%d, patterns pruned=%d, "
             "oracle cache hits=%d",
             len(result.sentences), result.stabilized, result.blocks_kept,
             result.psi_nodes, result.patterns_pruned,
             result.oracle_cache_hits)
    _emit(result.to_json())
    return EXIT_TRUE if result.stabilized else EXIT_UNSTABLE


def cmd_positive_rewrite(args) -> int:
    f = _parse_formula(args, "wso")
    if not is_quantifier_free(f):
        raise UsageError("positive-rewrite expects a quantifier-free formula")
    _emit({"formula": print_formula(qf_positive_rewrite(f))})
    return EXIT_TRUE


def cmd_code_check(args) -> int:
    if args.params is None:
        raise UsageError("code-check requires --params with a {l, r} object")
    try:
        with open(args.params) as fh:
            data = json.load(fh)
        b = FinSet.from_json(data["l"])
        c = FinSet.from_json(data["r"])
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad code pair: {exc}") from exc
    ok = (b.is_empty() and c.is_empty()) or code_domain(b, c)
    payload = {"ok": ok}
    if ok:
        payload["intervals"] = code_to_interval_union(b, c).to_json()
    _emit(payload)
    return EXIT_TRUE if ok else EXIT_FALSE


def cmd_selftest(args) -> int:
    from .selftest import run_suites
    results = run_suites()
    for r in results:
        log.info("%-28s %s (%d cases, %d failures)",
                 r.name, "pass" if r.ok else "FAIL", r.cases, r.failures)
    _emit({"suites": [r.to_json() for r in results],
           "ok": all(r.ok for r in results)})
    return EXIT_TRUE if all(r.ok for r in results) else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mcdlo",
        description="Model checking and formula translation for weak monadic "
                    "second-order logic over the rational order [0, 1).")
    top.add_argument("-v", "--verbose", action="store_true",
                     help="log progress to standard error")
    sub = top.add_subparsers(dest="command", required=True)

    def formula_flags(p):
        p.add_argument("--formula", help="formula as an s-expression string")
        p.add_argument("--formula-file", help="path to a formula file")

    p = sub.add_parser("parse", help="parse and echo a formula")
    p.add_argument("--sig", choices=sorted(SIGNATURES), required=True)
    formula_flags(p)
    p.set_defaults(run=cmd_parse)

    p = sub.add_parser("eval", help="evaluate a formula")
    p.add_argument("--sig", choices=sorted(SIGNATURES), required=True)
    p.add_argument("--n", type=int, help="universe size for --sig msofin")
    p.add_argument("--budget", type=int,
                   help="fixed grid budget k (reports k vs k+1 stability)")
    p.add_argument("--kmax", type=int, default=4,
                   help="stabilization budget ceiling (default 4)")
    p.add_argument("--params", help="JSON file of variable bindings")
    formula_flags(p)
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("translate", help="translate between signatures")
    p.add_argument("--from", dest="src", choices=sorted(SIGNATURES),
                   required=True)
    p.add_argument("--to", dest="dst", choices=sorted(SIGNATURES),
                   required=True)
    formula_flags(p)
    p.set_defaults(run=cmd_translate)

    p = sub.add_parser("fv-reduce",
                       help="translate a formula with finite-set parameters "
                            "to a parameter-free formula over the restriction")
    p.add_argument("--params", required=True,
                   help="JSON file of finite-set parameter bindings")
    p.add_argument("--kmax", type=int, default=4)
    formula_flags(p)
    p.set_defaults(run=cmd_fv_reduce)

    p = sub.add_parser("positive-rewrite",
                       help="positive existential form of a quantifier-free "
                            "formula over the finite-set structure")
    formula_flags(p)
    p.set_defaults(run=cmd_positive_rewrite)

    p = sub.add_parser("code-check",
                       help="decide whether an endpoint pair codes an "
                            "interval union")
    p.add_argument("--params", required=True,
                   help="JSON file with an object {l: [...], r: [...]}")
    p.set_defaults(run=cmd_code_check)

    p = sub.add_parser("selftest", help="run the invariant self-check suites")
    p.set_defaults(run=cmd_selftest)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr,
                        level=logging.INFO if (args.verbose
                                               or args.command == "selftest")
                        else logging.WARNING,
                        format="%(levelname)s %(message)s")
    try:
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EvalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
