"""Smoke tests of `scripts/`: each calls `strategy` and prints one row per
problem."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

from uncprover.strategy import METHODS

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args, env=None):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, timeout=60, env=env)


def test_run_worked_examples():
    proc = _run("run_worked_examples.py")
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split()[1] for line in proc.stdout.splitlines()
            if line and not line.startswith(" ")}
    assert rows["not-unc-constants"] == "NO"
    assert rows["not-unc-escape"] == "NO"


def test_method_sweep(tmp_path):
    for name in ("COPS_254", "not_unc_escape"):
        shutil.copy(ROOT / "bench" / "corpus" / f"{name}.trs", tmp_path)
    proc = _run("method_sweep.py", str(tmp_path), "--timeout", "2")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    columns = header.split()
    assert columns[1:] == [p + base for base in METHODS for p in ("", "rev+")]
    row = next(line.split() for line in rows if line.startswith("not_unc_escape.trs"))
    assert row[columns.index("cp")] == row[columns.index("rev+cp")] == "NO"


def test_verdict_digest():
    proc = _run("verdict_digest.py", "completion-stress")
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines()}
    # 7 systems x 4 methods plus AC with sc and rev+sc; the two probes are left out
    assert len(rows) == 30 and "AC/dc@1s" not in rows
    answer, method, digest = rows["not_unc_constants/sc"]
    assert (answer, method) == ("NO", "sc")
    assert len(digest) == 40 and set(digest) <= set("0123456789abcdef")
    assert _run("verdict_digest.py", "no-such-workload").returncode == 2
    # every non-probe verdict, method and certificate of all workloads, as
    # pinned, under the inherited hash seed and two fixed ones; a change
    # that alters them on purpose regenerates the file
    pinned = (ROOT / "tests" / "data" / "verdict_digest.txt").read_text()
    for seed in (None, "0", "7"):
        env = None if seed is None else {**os.environ, "PYTHONHASHSEED": seed}
        proc = _run("verdict_digest.py", env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == pinned
