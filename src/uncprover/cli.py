"""Command-line prover.

`uncprover prove FILE` prints YES, NO, or MAYBE on the first line; the
certificate follows with --certificate.  Exit codes: 0 for YES/NO, 1 for
MAYBE, 2 for input errors.
"""
from __future__ import annotations

import argparse
import sys

from .config import Budgets
from .cops import CopsParseError, parse_cops
from .strategy import SLICE, StrategyConfig, prove_unc


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="uncprover",
        description="Prove or disprove unique normal forms w.r.t. conversion "
                    "(UNC) of a first-order term rewriting system.")
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("prove", help="decide UNC of a Cops-format TRS file")
    p.add_argument("file", help="problem file in Cops TRS format")
    defaults = StrategyConfig()
    p.add_argument("--timeout", type=float, default=defaults.timeout,
                   help="total time budget in seconds (default %(default)s)")
    p.add_argument("--methods", default=",".join(defaults.methods),
                   help="comma-separated method list; prefix a method with "
                        "rev+ to run it on the rule-reversed system.  The "
                        "first method in the list that answers wins; the "
                        "disprove-only cp runs lazily, only when its answer "
                        f"can decide the outcome, and sc/dc get {SLICE * 100:g}%% "
                        "of the timeout while it waits, so under a short timeout "
                        "cp starts later (default %(default)s)")
    p.add_argument("--rounds", type=int, default=defaults.rounds,
                   help="completion rounds (default %(default)s)")
    p.add_argument("--budget-conv", type=int, default=defaults.budgets.conv_depth,
                   metavar="N",
                   help="conversion/reachability depth bound (default %(default)s)")
    p.add_argument("--budget-size", type=int, default=defaults.budgets.size_cap,
                   metavar="N", help="term size cap during searches (default %(default)s)")
    p.add_argument("--certificate", action="store_true",
                   help="print the certificate after the verdict line")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as e:
        print(f"error: {args.file}: {e}", file=sys.stderr)
        return 2
    try:
        problem = parse_cops(text)
    except CopsParseError as e:
        print(f"error: {args.file}:{e}", file=sys.stderr)
        return 2
    try:
        config = StrategyConfig(
            methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
            rounds=args.rounds,
            budgets=Budgets(conv_depth=args.budget_conv, size_cap=args.budget_size),
            timeout=args.timeout)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    result = prove_unc(problem, config)
    print(result.answer)
    if args.certificate:
        print(result.certificate, end="")
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
