"""Round-close sweep: the LAST code-touching event of every round.

Runs, in order, as fresh subprocesses:
  1. the full pytest suite (``python -m pytest tests/ -q``)
  2. the full gate board at sf0.001 (``python scripts/check_gate.py``)
and prints one machine-readable JSON summary line — the ONLY source
SURVEY.md / BASELINE.md "board green" claims may be regenerated from
(the round-4 lesson: a snapshot commit after the sweep shipped a
crash that stale claims then hid; see ARCHITECTURE.md §Correctness
gates). If any commit lands after this script runs, run it again.

Usage: python scripts/round_close.py [sf_dir]
Exit status is non-zero when either leg fails.
"""

import json
import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(cmd):
    p = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True)
    return p.returncode, p.stdout + p.stderr


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"

    rc_t, out_t = run([sys.executable, "-m", "pytest", "tests/", "-q"])
    m = re.search(r"(\d+) passed", out_t)
    passed = int(m.group(1)) if m else 0
    m = re.search(r"(\d+) failed", out_t)
    failed = int(m.group(1)) if m else 0
    print(out_t.strip().splitlines()[-1] if out_t.strip() else "(no output)")

    rc_g, out_g = run([sys.executable, "scripts/check_gate.py", sf_dir])
    oks = len(re.findall(r"^\[(?:OK|rows-only)\]", out_g, re.M))
    fails = re.findall(r"^\[FAIL\][^\n]*", out_g, re.M)
    for line in fails:
        print(line)
    print(f"gates: {oks} ok, {len(fails)} fail at {sf_dir}")
    # every gate line ends in its wall time, e.g. "[OK] name: ... (1.2s)"
    gate_seconds = {
        name: float(sec) for name, sec in re.findall(
            r"^\[(?:OK|rows-only|FAIL)\] (\S+?):.*\((\d+(?:\.\d+)?)s\)$",
            out_g, re.M)}

    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                          capture_output=True, text=True).stdout.strip()
    dirty = bool(subprocess.run(["git", "status", "--porcelain"], cwd=REPO,
                                capture_output=True, text=True).stdout.strip())
    summary = {
        "round_close": True,
        "commit": head,
        "dirty_worktree": dirty,
        "tests_passed": passed,
        "tests_failed": failed,
        "gates_ok": oks,
        "gates_fail": len(fails),
        "gate_seconds": gate_seconds,
        "sf_dir": sf_dir,
        "green": rc_t == 0 and rc_g == 0 and failed == 0 and not fails,
    }
    print(json.dumps(summary))
    sys.exit(0 if summary["green"] else 1)


if __name__ == "__main__":
    main()
