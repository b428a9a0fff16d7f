#!/usr/bin/env python3
"""Run one benchmark workload against the prover in `src/` and print its metrics.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every item is one `prove_unc` call, made in this process and thread, one
after another (a closed loop with one client).  With `--trace 0` the
workload runs in passes over its items for about `--seconds` seconds and
the end-to-end metrics are printed; with `--trace 1` a traced pass between
two plain passes gives the per-layer metrics.  Times are calibrated for
the machine's speed (see calibration.py).  Verdicts are checked after the
timed passes.  The last line of standard output is one JSON object;
details per item go to `.bench_out/` at the repository root.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration
import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh interpreters started to time set-up; the first one only warms the
#: byte-code cache, the median of the others is reported.
SETUP_RUNS = 6

#: A calibration slice runs once `SLICE_EVERY_S` of item time has passed,
#: so after every item but the smallest, since the machine's speed changes
#: within milliseconds; an item of `BURST_AFTER_S` or more is followed by
#: `BURST` slices.
SLICE_EVERY_S = 0.002
BURST_AFTER_S = 0.05
BURST = 5

#: String hashing is seeded alike in every run: the order of the prover's
#: set-based searches, and with it the cost of some cp items, follows the
#: hash seed.
HASH_SEED = "0"

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "solved": "count", "verified_rate": "ratio",
    "overrun_ratio_max": "ratio", "peak_rss_mb": "MB",
}

_SETUP_CODE = """
import json, sys
texts = json.load(sys.stdin)
sys.path.insert(0, sys.argv[1])
import uncprover
for text in texts:
    uncprover.parse_cops(text)
"""


def measure_setup(texts: list[str]) -> float:
    """Median time of a fresh interpreter that imports `uncprover` and
    parses the workload's Cops texts, in calibrated seconds."""
    payload = json.dumps(texts)
    times = []
    before = calibration.slice_time()
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC)], input=payload,
                       text=True, check=True, cwd=ROOT, timeout=120)
        elapsed = time.perf_counter() - t0
        after = calibration.slice_time()
        times.append(elapsed * calibration.REFERENCE_S / ((before + after) / 2))
        before = after
    return statistics.median(times[1:])


class Pass:
    """One pass over the items.  `results` holds (wall s, cpu s, answer,
    certificate) per item, times in calibrated seconds; `measured_s` is the
    pass's wall time as measured."""

    def __init__(self, results: list[tuple], measured_s: float):
        self.results = results
        self.measured_s = measured_s

    def wall(self) -> float:
        return sum(r[0] for r in self.results)


def run_pass(prover, problems, configs, order: list[int], after_item=None) -> Pass:
    """Run every item once, in the given order, with calibration slices in
    between.  Results come back in item order.

    An item's times are scaled by the mean of the slices just before and
    just after it.  The process-global ranked-conversion cache is emptied
    before every item, as a fresh `uncprover prove` process would find it."""
    cache = getattr(prover.criteria, "_eq_states_cached", None)
    gc.collect()
    measured: list = [None] * len(problems)
    slices = [[calibration.slice_time() for _ in range(BURST)]]
    since_slice = 0.0
    for k in order:
        problem, config = problems[k], configs[k]
        if cache is not None:
            cache.cache_clear()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result = prover.strategy.prove_unc(problem, config)
            answer, certificate = result.answer, result.certificate
        except Exception:
            answer, certificate = "ERROR", traceback.format_exc()
        c1, w1 = time.process_time(), time.perf_counter()
        measured[k] = (w1 - w0, c1 - c0, answer, certificate, len(slices))
        if after_item is not None:
            after_item(cache)
        since_slice += w1 - w0
        if since_slice >= SLICE_EVERY_S:
            count = BURST if w1 - w0 >= BURST_AFTER_S else 1
            slices.append([calibration.slice_time() for _ in range(count)])
            since_slice = 0.0
    slices.append([calibration.slice_time() for _ in range(BURST)])
    results = []
    for wall, cpu, answer, certificate, j in measured:
        scale = calibration.REFERENCE_S / statistics.mean(slices[j - 1] + slices[j])
        results.append((wall * scale, cpu * scale, answer, certificate))
    return Pass(results, sum(m[0] for m in measured))


def check(items, passes: list[Pass]) -> list:
    """Why each item's verdict is wrong, or None.  Runs outside any timing."""
    reasons = []
    for k, item in enumerate(items):
        answers = {p.results[k][2] for p in passes}
        _, _, answer, certificate = passes[0].results[k]
        rules, signature = reference.parse_problem(item.text)
        reason = None
        if len(answers) > 1:
            reason = f"verdict changed between passes: {sorted(answers)}"
        elif answer == "ERROR":
            reason = certificate.strip().splitlines()[-1]
        elif item.answer and answer in ("YES", "NO") and answer != item.answer:
            reason = f"answered {answer}, the known answer is {item.answer}"
        elif answer == "NO":
            reason = reference.replay_no(certificate, rules, signature)
        elif answer == "YES" and item.answer is None:
            pair = reference.refute_yes(rules, signature)
            if pair is not None:
                reason = f"YES, but {pair[0]} and {pair[1]} are convertible normal forms"
        reasons.append(reason)
    return reasons


def end_to_end(items, passes: list[Pass], setup_s: float, peak_rss_mb: float,
               failures) -> tuple[dict, list[float], dict]:
    per_item = [statistics.median(p.results[k][0] for p in passes)
                for k in range(len(items))]
    ranked = sorted(per_item)
    n = len(ranked)
    tail_rank = max(1, n - TAIL_BEYOND)  # 1-based rank with TAIL_BEYOND items above it
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall() for p in passes),
        "cpu_s": statistics.median(sum(r[1] for r in p.results) for p in passes),
        "latency_p50_ms": statistics.median(per_item) * 1e3,
        "latency_tail_ms": ranked[tail_rank - 1] * 1e3,
        "solved": sum(r[2] in ("YES", "NO") for r in passes[0].results),
        "verified_rate": 1 - sum(f is not None for f in failures) / n,
        "overrun_ratio_max": max(t / item.timeout for t, item in zip(per_item, items)),
        "peak_rss_mb": peak_rss_mb,
    }
    tail = {"percentile": 100 * tail_rank / n, "n": n}
    return metrics, per_item, tail


def per_layer(prover, problems, configs, texts, orders) -> tuple[dict, list[Pass],
                                                                tracing.Tracer]:
    """A traced pass between two plain ones.  Span times are scaled by the
    traced pass's calibrated-to-measured ratio."""
    tracer = tracing.Tracer()
    counts = tracer.counts

    def cache_counts(cache):
        if cache is not None:
            info = cache.cache_info()
            counts["criteria.eq_states_cache.hits"] += info.hits
            counts["criteria.eq_states_cache.misses"] += info.misses

    before = run_pass(prover, problems, configs, next(orders))
    tracer.install()
    try:
        for text in texts:
            prover.cops.parse_cops(text)
        traced = run_pass(prover, problems, configs, next(orders), cache_counts)
    finally:
        tracer.restore()
    after = run_pass(prover, problems, configs, next(orders))
    layer = tracer.metrics()
    scale = traced.wall() / traced.measured_s
    values = {}
    for name, unit, _ in tracing.PER_LAYER:
        values[name] = layer.get(name, 0) * (scale if unit == "s" else 1)
    values["trace.overhead_ratio"] = traced.wall() / statistics.mean(
        (before.wall(), after.wall()))
    return values, [before, traced, after], tracer


def _orders(n: int, seed: int):
    """Item orders drawn from the seed, a new one for every pass, so that no
    item always follows the same neighbour."""
    rnd = random.Random(seed)
    while True:
        order = list(range(n))
        rnd.shuffle(order)
        yield order


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "uncprover" / "__init__.py").is_file():
        print(f"error: no uncprover package under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.path.insert(0, str(SRC))

    items = workloads.build(args.workload)
    texts = [item.text for item in items]
    orders = _orders(len(items), args.seed)
    setup_s = None if args.trace else measure_setup(texts)
    import uncprover as prover
    problems = [prover.parse_cops(text) for text in texts]
    configs = [prover.StrategyConfig(methods=item.methods, timeout=item.timeout)
               for item in items]
    # keep the benchmark's own objects out of the collector's scans, as in a
    # process that proves a single problem
    gc.collect()
    gc.freeze()

    if args.trace:
        values, passes, tracer = per_layer(prover, problems, configs, texts, orders)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        passes, durations = [], []
        started = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(prover, problems, configs, next(orders)))
            durations.append(time.perf_counter() - t0)
            if time.perf_counter() - started + statistics.median(durations) > args.seconds:
                break
        units = END_TO_END_UNITS
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = check(items, passes)
    failed = sum(f is not None for f in failures)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    print(f"workload {args.workload}, seed {args.seed}: {len(items)} items; passes of "
          + ", ".join(f"{p.measured_s:.2f} s" for p in passes) + " measured, "
          + ", ".join(f"{p.wall():.2f} s" for p in passes) + " calibrated")
    if args.trace:
        tracer.write(OUT / f"{stem}-trace.spans")
    else:
        values, per_item, tail = end_to_end(items, passes, setup_s, peak_rss_mb, failures)
        print(f"latency_tail_ms is p{tail['percentile']:.1f} of N = {tail['n']} "
              f"per-item medians; error_rate = {failed / len(items):.4f}")
        (OUT / f"{stem}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "passes": len(passes),
            "tail": tail, "metrics": values,
            "items": [{"name": item.name, "methods": list(item.methods),
                       "timeout": item.timeout, "known": item.answer,
                       "answer": passes[0].results[k][2], "median_ms": per_item[k] * 1e3,
                       "failure": failures[k]} for k, item in enumerate(items)],
        }, indent=1) + "\n")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name:48} {m['value']:>14.6g} {m['unit']}")
    for item, reason in zip(items, failures):
        if reason is not None:
            print(f"FAILED {item.name}: {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": len(items),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
