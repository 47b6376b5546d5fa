"""Summarise saved benchmark output into one JSON document.

    python3 perfbench/summarize.py OUTPUT... > summary.json

Each OUTPUT is the standard output of one ``perfbench/run.py`` run.  Runs are
grouped by workload and trace mode; for every metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
interquartile distance as a share of the median, are given over the runs.
"""

import json
import statistics
import sys


def load(path):
    env = result = None
    with open(path) as fh:
        for line in fh:
            if line.startswith('{"env"'):
                env = json.loads(line)
            elif line.startswith('{"correct"'):
                result = json.loads(line)
    if env is None or result is None:
        raise ValueError(f"{path}: not the output of a complete benchmark run")
    return env, result


def summarize(paths):
    groups, env = {}, None
    for path in paths:
        env_line, result = load(path)
        env = env or env_line["env"]
        key = f"{env_line['workload']} trace={env_line['trace']}"
        groups.setdefault(key, []).append((env_line["seed"], result))
    out = {"env": env, "runs": {}}
    for key, runs in sorted(groups.items()):
        metrics = {}
        for name, first in runs[0][1]["metrics"].items():
            values = [r["metrics"][name]["value"] for _, r in runs]
            median = statistics.median(values)
            entry = {"unit": first["unit"], "median": median}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
            metrics[name] = entry
        out["runs"][key] = {
            "seeds": [seed for seed, _ in runs],
            "correct": all(r["correct"] for _, r in runs),
            "attempted": sum(r["attempted"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "metrics": metrics,
        }
    return out


if __name__ == "__main__":
    json.dump(summarize(sys.argv[1:]), sys.stdout, indent=1)
    print()
