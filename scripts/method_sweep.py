#!/usr/bin/env python3
"""Tabulate per-method verdicts over a directory of Cops .trs files.

Usage: python scripts/method_sweep.py DIR [--timeout SECONDS]

Each method runs in isolation so the table shows which criteria carry the
portfolio on the given problem set.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from uncprover.cops import CopsParseError, parse_cops
from uncprover import strategy
from uncprover.strategy import StrategyConfig, prove_unc

#: Every tag of the portfolio: each base tag, then its rev+ form.
METHODS = tuple(p + base for base in strategy.METHODS for p in ("", "rev+"))
WIDTH = 2 + max(map(len, METHODS))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("directory")
    ap.add_argument("--timeout", type=float, default=10.0,
                    help="per-method time budget in seconds (default 10)")
    args = ap.parse_args()
    files = sorted(Path(args.directory).glob("*.trs"))
    if not files:
        print(f"no .trs files under {args.directory}", file=sys.stderr)
        return 2
    counts = {m: {"YES": 0, "NO": 0, "MAYBE": 0} for m in METHODS}
    header = f"{'problem':<28}" + "".join(f"{m:>{WIDTH}}" for m in METHODS)
    print(header)
    print("-" * len(header))
    for path in files:
        try:
            problem = parse_cops(path.read_text())
        except CopsParseError as e:
            print(f"{path.name:<28}  parse error: {e}")
            continue
        row = [f"{path.name:<28}"]
        for m in METHODS:
            config = StrategyConfig(methods=(m,), timeout=args.timeout)
            answer = prove_unc(problem, config).answer
            counts[m][answer] += 1
            row.append(f"{answer:>{WIDTH}}")
        print("".join(row))
    print("-" * len(header))
    for tag in ("YES", "NO"):
        line = [f"{tag:<28}"]
        line += [f"{counts[m][tag]:>{WIDTH}}" for m in METHODS]
        print("".join(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
