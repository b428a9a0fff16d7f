#!/usr/bin/env python3
"""Print the verdict of every non-probe benchmark item, one line each:
name, answer, method and the SHA-1 of the certificate.

Usage: python scripts/verdict_digest.py [WORKLOAD ...]

The items are those of `bench/workloads.py` (all workloads by default)
that run at its common `TIMEOUT`; the deadline probes are left out, since
how far they get follows the machine's speed.  The output of two source
trees is the same exactly when every such verdict, method and certificate
is, so a diff of two runs checks that a change kept them.  The output for
all workloads is pinned in `tests/data/verdict_digest.txt`, which
`tests/test_scripts.py` compares with a fresh run; a change that alters a
certificate on purpose regenerates that file and lists the diff.
"""
import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import workloads
from uncprover.cops import parse_cops
from uncprover.strategy import StrategyConfig, prove_unc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                    help=f"one of {', '.join(workloads.WORKLOADS)} (default: all)")
    args = ap.parse_args()
    names = args.workloads or list(workloads.WORKLOADS)
    unknown = [w for w in names if w not in workloads.WORKLOADS]
    if unknown:
        ap.error(f"unknown workload {unknown[0]!r}")
    for name in names:
        for item in workloads.build(name):
            if item.timeout != workloads.TIMEOUT:
                continue
            config = StrategyConfig(methods=item.methods, timeout=item.timeout)
            result = prove_unc(parse_cops(item.text), config)
            digest = hashlib.sha1(result.certificate.encode()).hexdigest()
            print(item.name, result.answer, result.method, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
