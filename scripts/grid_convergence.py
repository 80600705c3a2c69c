#!/usr/bin/env python3
"""Grid-evaluation convergence study.

Generates random quantified formulas over finite point sets, evaluates each
at increasing grid budgets, and reports how many budget steps the verdict
needs before it stabilizes (two consecutive budgets agreeing).  The output
is a histogram of stabilization depths plus the formulas, if any, that
never stabilize within the cap.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from mcdlo.order import FinSet
from mcdlo.semantics import GridCapError, grid_eval
from mcdlo.syntax import (And, App, Const, Eq, Exists, Forall, Not, Or, Var,
                          print_formula)


@dataclass
class ConvergenceConfig:
    trials: int = 60
    seed: int = 7
    kmax: int = 3
    grid_cap: int = 18
    pool: list[Fraction] = field(default_factory=lambda: [
        Fraction(0), Fraction(1, 3), Fraction(1, 2)])


def random_formula(rng: random.Random, names: list[str], depth: int):
    def term(d):
        if d == 0 or rng.random() < 0.5:
            return rng.choice([Var(n) for n in names]
                              + [Const("bot"), Const("zero")])
        if rng.random() < 0.4:
            return App(rng.choice(["min", "max"]), (term(d - 1),))
        return App(rng.choice(["union", "inter"]), (term(d - 1), term(d - 1)))

    def go(d, names, quants):
        c = rng.random()
        if d == 0 or c < 0.3:
            atom = Eq(term(2), term(2))
            return Not(atom) if rng.random() < 0.4 else atom
        if c < 0.6 or quants >= 2:
            return rng.choice([And, Or])(go(d - 1, names, quants),
                                         go(d - 1, names, quants))
        q = rng.choice([Exists, Forall])
        v = f"Q{d}"
        return q(v, go(d - 1, names + [v], quants + 1))

    return go(depth, names, 0)


def run(config: ConvergenceConfig) -> int:
    rng = random.Random(config.seed)
    asg = {"A": FinSet.from_iterable(config.pool[:2]),
           "B": FinSet.from_iterable(config.pool[1:])}
    depths: Counter[int] = Counter()
    unstable = []
    capped = 0

    for _ in range(config.trials):
        f = random_formula(rng, list(asg), rng.randint(1, 3))
        prev = None
        settled_at = None
        try:
            for k in range(1, config.kmax + 1):
                verdict = grid_eval("w", f, asg, k,
                                    cap=config.grid_cap).verdict
                if prev is not None and verdict == prev:
                    settled_at = k
                    break
                prev = verdict
        except GridCapError:
            capped += 1
            continue
        if settled_at is None:
            unstable.append(f)
        else:
            depths[settled_at] += 1

    print(f"{config.trials} random formulas, budgets 1..{config.kmax}, "
          f"grid cap {config.grid_cap}")
    for k in sorted(depths):
        bar = "#" * depths[k]
        print(f"  stabilized at budget {k}: {depths[k]:3d} {bar}")
    print(f"  hit the grid cap: {capped}")
    print(f"  never stabilized: {len(unstable)}")
    for f in unstable:
        print(f"    {print_formula(f)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=60)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--kmax", type=int, default=3)
    parser.add_argument("--grid-cap", type=int, default=18,
                        help="point cap for the evaluation grid")
    args = parser.parse_args(argv)
    return run(ConvergenceConfig(trials=args.trials, seed=args.seed,
                                 kmax=args.kmax, grid_cap=args.grid_cap))


if __name__ == "__main__":
    sys.exit(main())
