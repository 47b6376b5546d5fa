"""Run every case pinned in tests/pins.json and check its output:
``python3 tests/check_pins.py``.  Output is echoed, so a moved value shows in
the log, to be re-pinned in pins.json openly.  Roster's 75-390-row training
halves put the EUS and PSO fitness lookups on the rank path; traced seed 1
counts one fitness evaluation per scored chromosome.  Fitness-large's 1,000-row
halves share one neighbour index per fold, and its nominal attributes take the
nominal branch of the distances; seed 11 keeps the digest it gave when each
prediction computed its own distances.  Theory runs the four commands at their
defaults, and prop1 on other draws.  ``--trace 1`` runs also compare records at
jobs=2, jobs=1 and traced jobs=1.  A run that outlasts its timeout fails.  Last
line: one JSON verdict; exit 1 on fail."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINS = json.loads((ROOT / "tests" / "pins.json").read_text())
# a benchmark run stops itself at 170 s; a stuck run fails its case, not CI's job
BENCH_TIMEOUT_S, CLI_TIMEOUT_S = 600, 300


def problems(out, pin, bench=True):
    """How the stdout ``out`` of one run misses its ``pin``, empty if it holds:
    a benchmark run's verdict, each records digest, printed line and metric."""
    lines = out.splitlines()
    try:
        verdict = json.loads(lines[-1]) if bench else {}
    except (IndexError, ValueError):
        return ["no verdict line"]
    found = ["not correct"] if bench and verdict.get("correct") is not True else []
    digests = set(re.findall(r"^records\.csv sha256 (\S+)", out, re.M))
    if "records" in pin and digests != {pin["records"]}:
        found.append(f"records.csv sha256 {sorted(digests)}, pinned {pin['records']}")
    found += [f"not printed: {line}" for line in pin.get("lines", ()) if line not in lines]
    for name, want in pin.get("metrics", {}).items():
        got = verdict.get("metrics", {}).get(name, {}).get("value")
        if got != want:
            found.append(f"{name} {got}, pinned {want}")
    return found


def main():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    runs = [(["perfbench/run.py", "--seconds", "1", "--workload", *case.split()], pin, True)
            for case, pin in PINS["bench"].items()]
    runs += [(["-m", "gmsel.cli", *case.split()], pin, False) for case, pin in PINS["cli"].items()]
    failed = {}
    for args, pin, bench in runs:
        print("$ python3", *args, flush=True)
        timeout = BENCH_TIMEOUT_S if bench else CLI_TIMEOUT_S
        try:
            out = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, timeout=timeout,
                                 stdout=subprocess.PIPE, text=True).stdout
        except subprocess.TimeoutExpired:
            failed[" ".join(args)] = [f"timed out after {timeout} s"]
            print(f"timed out after {timeout} s", flush=True)
            continue
        print(out.rstrip("\n"), flush=True)
        if found := problems(out, pin, bench):
            failed[" ".join(args)] = found
    print(json.dumps({"pins_held": not failed, "runs": len(runs), "failed": failed}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
