"""Benchmark of the gmsel command line.

Run from the repository root:

    python3 perfbench/run.py --workload roster --seed 1 --seconds 30 --trace 0

Workloads (see README.md in this directory for why each exists):

* ``roster``        -- ``gmsel run`` of all 13 methods over ten small KEEL
                       files, then ``gmsel report``;
* ``fitness-large`` -- the same over two 2000-row files, one with nominal
                       attributes;
* ``theory``        -- ``gmsel theory exhaustive | prop1 | lemma-check |
                       demo-gaussian`` at their defaults.

Every command runs in a fresh interpreter, one after the other (a closed loop
with one client), with ``OPENBLAS_NUM_THREADS=1`` and ``jobs: 2``.  With
``--trace 0`` whole workload cycles are timed untraced for ``--seconds``
(at least one cycle).  With ``--trace 1`` the workload runs once untraced with
``--jobs 2``, once untraced with ``--jobs 1`` and once traced with
``--jobs 1``, and the spans of the traced pass give the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is first imported

import argparse
import csv
import hashlib
import json
import math
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

from tracer import Spans, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
JOBS = 2
BUDGET_S = 170.0          # hard stop for one whole benchmark run
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3

ROSTER = ("1nn", "rus", "tl", "oss", "tlcnn", "ncl", "eus", "pso", "re",
          "bag1nn", "erus", "rusboost", "eusboost")
THEORY = (("exhaustive", ["theory", "exhaustive"]),
          ("prop1", ["theory", "prop1"]),
          ("lemma", ["theory", "lemma-check"]),
          ("gaussian", ["theory", "demo-gaussian"]))


class OutOfTime(Exception):
    """A command was still running at the run's hard deadline."""


# ---------------------------------------------------------------------------
# Inputs

def _keel(name, X, labels, nominal=()):
    """KEEL text for numeric columns ``X`` plus ``(name, categories, codes)``
    nominal columns; ``labels`` is 1 for the positive (minority) class."""
    X = np.round(X, 6)
    lines = [f"@relation {name}"]
    for j in range(X.shape[1]):
        lines.append(f"@attribute x{j} real [{X[:, j].min():.6f}, {X[:, j].max():.6f}]")
    for col, cats, _ in nominal:
        lines.append(f"@attribute {col} {{{', '.join(cats)}}}")
    lines.append("@attribute class {positive, negative}")
    inputs = [f"x{j}" for j in range(X.shape[1])] + [c for c, _, _ in nominal]
    lines += [f"@inputs {', '.join(inputs)}", "@outputs class", "@data"]
    for i in range(X.shape[0]):
        fields = [f"{v:.6f}" for v in X[i]]
        fields += [cats[codes[i]] for _, cats, codes in nominal]
        fields.append("positive" if labels[i] else "negative")
        lines.append(", ".join(fields))
    return "\n".join(lines) + "\n"


def _gaussians(rng, n_pos, n_neg, d, separation):
    """Unit-variance classes whose means are ``separation`` apart (the
    geometry of ``gmsel.bench.make_synthetic_dataset``)."""
    shift = separation / math.sqrt(d)
    X = np.vstack([rng.standard_normal((n_pos, d)) + shift,
                   rng.standard_normal((n_neg, d))])
    return X, np.array([1] * n_pos + [0] * n_neg)


def write_inputs(workload, seed, data_dir):
    """Write the workload's KEEL files; returns ``(paths, repetitions)``."""
    data_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    if workload == "roster":
        # the demo-05 suite: 25 positives, imbalance ratios 5..30, d=2
        for i, ir in enumerate((5, 7, 9, 12, 15, 18, 21, 24, 27, 30)):
            rng = np.random.default_rng([seed, 0, i])
            name = f"gauss-ir{ir:02d}"
            X, y = _gaussians(rng, 25, 25 * ir, 2, 1.5 * math.sqrt(2))
            files[name] = _keel(name, X, y)
        reps = 2
    else:
        # 2000 rows, 5% positives; big-mix swaps two numeric attributes for
        # nominal ones, which takes the 3-D branch of pairwise_distances.
        # The class means are 10 standard deviations apart, so no 1-NN
        # member errs, boosting never retries and the work is the same for
        # every seed; roster's overlapping classes exercise the retries.
        rng = np.random.default_rng([seed, 1, 0])
        X, y = _gaussians(rng, 100, 1900, 8, 10.0)
        files["big-num"] = _keel("big-num", X, y)
        rng = np.random.default_rng([seed, 1, 1])
        X, y = _gaussians(rng, 100, 1900, 6, 10.0)
        nominal = [(col, cats, rng.integers(0, len(cats), y.size))
                   for col, cats in (("colour", ("red", "blue")), ("size", ("small", "large")))]
        files["big-mix"] = _keel("big-mix", X, y, nominal)
        reps = 1
    paths = []
    for name, text in files.items():
        path = data_dir / f"{name}.dat"
        path.write_text(text)
        paths.append(path)
    return paths, reps


def write_config(path, datasets, reps, seed):
    """Experiment config; JSON is valid YAML."""
    cfg = {
        "datasets": [str(p) for p in datasets],
        "methods": list(ROSTER),
        "repetitions": reps,
        "master_seed": seed,
        "jobs": JOBS,
        "eus": {"population": 10, "generations": 10},
        "pso": {"swarm": 10, "iterations": 10},
        "re_trials": 100,
    }
    path.write_text(json.dumps(cfg, indent=1) + "\n")


# ---------------------------------------------------------------------------
# Running commands

@dataclass
class Command:
    label: str
    wall: float
    rc: int
    user: float
    sys: float
    minflt: int
    maxrss_mb: float
    out: str


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def run_process(label, argv, log_path, deadline) -> Command:
    """Run ``argv`` in its own process group and wait for it; the group is
    killed once the process ends, or at ``deadline``."""
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT, start_new_session=True)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            _kill_group(proc.pid)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.monotonic() >= deadline:
        raise OutOfTime(f"{label} did not finish within the run's {BUDGET_S:.0f} s")
    return Command(label, wall, proc.returncode, usage.ru_utime, usage.ru_stime,
                   usage.ru_minflt, usage.ru_maxrss / 1024.0,
                   Path(log_path).read_text())


@dataclass
class Session:
    """One benchmark run: its scratch directory, deadline and outcome."""

    workdir: Path
    deadline: float
    problems: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    counter: int = 0

    def gmsel(self, label, args, spans=None) -> Command:
        """``gmsel <args>`` in a fresh interpreter; traced when ``spans`` is a path."""
        self.counter += 1
        if spans is None:
            argv = [sys.executable, "-m", "gmsel.cli", *map(str, args)]
        else:
            argv = [sys.executable, str(HERE / "traced.py"), str(spans), *map(str, args)]
        cmd = run_process(label, argv, self.workdir / f"{self.counter:03d}-{label}.log",
                          self.deadline)
        self.attempted += 1
        print(f"{label}: {cmd.wall:.3f} s, exit {cmd.rc}")
        if cmd.rc != 0:
            self.fail(f"{label} exited with {cmd.rc}:\n{cmd.out[-2000:]}")
        return cmd

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)
        print(f"CHECK FAILED: {message}")

    def python(self, label, args) -> Command:
        self.counter += 1
        return run_process(label, [sys.executable, *args],
                           self.workdir / f"{self.counter:03d}-{label}.log", self.deadline)


# ---------------------------------------------------------------------------
# Output checks

def check_records(session, path, n_datasets, reps):
    """Validate records.csv; returns its sha256."""
    expected = n_datasets * reps * 2 * len(ROSTER)
    data = path.read_bytes()
    rows = list(csv.DictReader(data.decode().splitlines()))
    session.attempted += len(rows)
    if len(rows) != expected:
        session.fail(f"{path.name}: {len(rows)} trials, expected {expected}")
    by_key = {}
    for r in rows:
        by_key.setdefault((r["dataset"], r["rep"], r["fold"]), []).append(r["method"])
        gm, tpr, tnr = float(r["gm"]), float(r["tpr"]), float(r["tnr"])
        if r["failed"] != "0":
            session.fail(f"trial failed: {r['dataset']} rep {r['rep']} "
                         f"fold {r['fold']} {r['method']}")
        elif not (0 <= tpr <= 1 and 0 <= tnr <= 1 and abs(gm - math.sqrt(tpr * tnr)) < 1e-9
                  and int(r["retained"]) >= 2):
            session.fail(f"inconsistent record {r}")
    if any(sorted(m) != sorted(ROSTER) for m in by_key.values()) or \
            len(by_key) != n_datasets * reps * 2:
        session.fail(f"{path.name}: not every dataset x rep x fold has the 13 methods")
    digest = hashlib.sha256(data).hexdigest()
    print(f"records.csv sha256 {digest} ({len(rows)} trials)")
    return digest


def check_theory(session, label, out):
    """Parse and check one theory command's output."""
    if label == "exhaustive":
        curve = re.findall(r"cardinality\s+(\d+): best GM = ([0-9.]+)", out)
        m = re.search(r"full set GM = ([0-9.]+); global best GM = ([0-9.]+)", out)
        print("per-cardinality best GM: " + ", ".join(f"{k}:{g}" for k, g in curve))
        if not m or [int(k) for k, _ in curve] != list(range(2, 16)):
            session.fail("exhaustive: per-cardinality curve missing")
        elif not float(m.group(2)) > float(m.group(1)):
            session.fail(f"exhaustive: best GM {m.group(2)} not above full set {m.group(1)}")
        else:
            print(f"exhaustive: best {m.group(2)} > full set {m.group(1)}")
    elif label == "prop1":
        m = re.search(r"(\d+)/(\d+) predicted improvements confirmed", out)
        if not m or int(m.group(2)) == 0:
            session.fail("prop1: no confirmed/checked line")
        else:
            confirmed, checked = int(m.group(1)), int(m.group(2))
            print(f"prop1: {confirmed}/{checked} confirmed")
            if confirmed < 0.99 * checked:
                session.fail(f"prop1: {confirmed}/{checked} confirmed, below 99%")
    elif label == "lemma":
        m = re.search(r"(\d+) inclusion violations", out)
        print(f"lemma-check: {m.group(1) if m else '?'} inclusion violations")
        if not m or int(m.group(1)) != 0:
            session.fail("lemma-check: inclusion violations")
    elif label == "gaussian":
        gms = re.findall(r"GM\((classical Bayes|balanced Bayes|random editing)\)\s*=\s*([0-9.]+)",
                         out)
        print("demo-gaussian: " + ", ".join(f"{k} {v}" for k, v in gms))
        if len(gms) != 3 or not all(0 < float(v) <= 1 for _, v in gms):
            session.fail("demo-gaussian: expected three GMs in (0, 1]")


# ---------------------------------------------------------------------------
# Workload cycles

@dataclass
class Cycle:
    commands: list
    trials: int = 0
    digest: str = ""
    spans: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.commands)


def experiment_cycle(session, config, n_datasets, reps, jobs, tag, traced=False):
    out = session.workdir / f"out-{tag}"
    spans = [session.workdir / f"spans-{tag}-{k}.npz" for k in ("run", "report")] \
        if traced else [None, None]
    run = session.gmsel(f"run-{tag}", ["run", "--config", config, "--jobs", jobs,
                                       "--out", out], spans[0])
    m = re.search(r"^(\d+) trials completed, (\d+) failed$", run.out, re.M)
    if not m:
        session.fail(f"run-{tag}: no trial summary")
    cycle = Cycle([run])
    records = out / "records.csv"
    if records.exists():
        cycle.digest = check_records(session, records, n_datasets, reps)
        cycle.trials = n_datasets * reps * 2 * len(ROSTER)
        report = session.gmsel(f"report-{tag}", ["report", "--records", records], spans[1])
        cycle.commands.append(report)
        m = re.search(r"# Benchmark report \((\d+) trials, (\d+) methods\)", report.out)
        if not m or (int(m.group(1)), int(m.group(2))) != (n_datasets * reps * 2, len(ROSTER)):
            session.fail(f"report-{tag}: unexpected header")
    else:
        session.fail(f"run-{tag}: no records.csv")
    cycle.spans = [s for s in spans if s is not None and s.exists()]
    return cycle


def theory_cycle(session, tag, traced=False):
    cycle = Cycle([])
    for label, args in THEORY:
        spans = session.workdir / f"spans-{tag}-{label}.npz" if traced else None
        cmd = session.gmsel(f"{label}-{tag}", args, spans)
        check_theory(session, label, cmd.out)
        cycle.commands.append(cmd)
        if spans is not None and spans.exists():
            cycle.spans.append(spans)
    return cycle


# ---------------------------------------------------------------------------
# Measurements

def setup_seconds(session):
    """Median wall time of a fresh interpreter importing gmsel.cli."""
    walls = [session.python("setup", ["-c", "import gmsel.cli"]).wall
             for _ in range(SETUP_REPEATS)]
    return statistics.median(walls)


def metrics_import_seconds(session):
    """Median cumulative ``-X importtime`` of gmsel.metrics (scipy.stats)."""
    values = []
    for _ in range(IMPORTTIME_REPEATS):
        cmd = session.python("importtime", ["-X", "importtime", "-c", "import gmsel.cli"])
        m = re.search(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*gmsel\.metrics\s*$",
                      cmd.out, re.M)
        if m:
            values.append(int(m.group(1)) / 1e6)
    return statistics.median(values) if values else 0.0


def environment():
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "blas": np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {}).get("name"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "jobs": JOBS,
    }
    for pkg in ("scipy", "PyYAML"):
        try:
            env[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            env[pkg] = None
    env["git_sha"] = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            env["git_sha"] = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return env


def untraced(session, workload, config, n_datasets, reps, seconds):
    """End-to-end metrics: whole cycles for ``seconds`` (at least one)."""
    setup_s = setup_seconds(session)
    cycles = []
    t0 = time.monotonic()
    while True:
        tag = f"c{len(cycles)}"
        cycle = theory_cycle(session, tag) if workload == "theory" else \
            experiment_cycle(session, config, n_datasets, reps, JOBS, tag)
        cycles.append(cycle)
        # start another cycle only if it should end within --seconds
        if time.monotonic() - t0 + cycle.wall > seconds:
            break
    walls = [c.wall for c in cycles]
    done = sum(c.trials or len(c.commands) for c in cycles)
    return {
        "run_s": statistics.median(walls),
        "setup_s": setup_s,
        "trials_per_s": done / sum(walls),
        "peak_rss_mb": max(c.maxrss_mb for cy in cycles for c in cy.commands),
    }


def traced(session, workload, config, n_datasets, reps):
    """Per-layer metrics from one traced pass, beside untraced passes."""
    if workload == "theory":
        pool = theory_cycle(session, "untraced")
        serial = pool
        trace = theory_cycle(session, "traced", traced=True)
    else:
        pool = experiment_cycle(session, config, n_datasets, reps, JOBS, "jobs2")
        serial = experiment_cycle(session, config, n_datasets, reps, 1, "jobs1")
        trace = experiment_cycle(session, config, n_datasets, reps, 1, "traced",
                                 traced=True)
        digests = {pool.digest, serial.digest, trace.digest}
        if len(digests) != 1:
            session.fail(f"records.csv differs between jobs={JOBS}, jobs=1 and traced "
                         f"jobs=1: {sorted(digests)}")
        else:
            print(f"records.csv identical at jobs={JOBS}, jobs=1 and traced jobs=1")
    spans = Spans.load(trace.spans)
    out = layer_metrics(spans)
    trial_s = float(np.sum(spans.duration[spans.named("bench._run_trial")]))
    run_wall = pool.commands[0].wall if workload != "theory" else 0.0
    out["bench.pool_efficiency"] = trial_s / (JOBS * run_wall) if run_wall else 0.0
    out["metrics.import_s"] = metrics_import_seconds(session)
    out["proc.user_s"] = sum(c.user for c in pool.commands)
    out["proc.sys_s"] = sum(c.sys for c in pool.commands)
    out["proc.minflt"] = sum(c.minflt for c in pool.commands)
    out["trace.overhead_ratio"] = trace.wall / serial.wall
    for i, (label, _) in enumerate(THEORY):
        out[f"cli.{label}_s"] = pool.commands[i].wall if workload == "theory" else 0.0
    print(f"traced wall {trace.wall:.3f} s over {len(spans.names)} spans, "
          f"untraced serial wall {serial.wall:.3f} s")
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "gmsel" / "cli.py").is_file():
        print(f"gmsel sources not found under {SRC}", file=sys.stderr)
        return 2

    print(json.dumps({"env": environment(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace}))
    WORK.mkdir(exist_ok=True)
    session = Session(WORK / f"run-{os.getpid()}", time.monotonic() + BUDGET_S)
    session.workdir.mkdir()
    try:
        datasets, reps = ([], 0) if args.workload == "theory" else \
            write_inputs(args.workload, args.seed, session.workdir / "data")
        config = session.workdir / "experiment.yaml"
        if datasets:
            write_config(config, datasets, reps, args.seed)
        if args.trace:
            values = traced(session, args.workload, config, len(datasets), reps)
            declared = spec["per_layer"]
        else:
            values = untraced(session, args.workload, config, len(datasets), reps,
                              args.seconds)
            declared = spec["end_to_end"]
    except OutOfTime as exc:
        print(f"gave up: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(session.workdir, ignore_errors=True)

    if set(values) != {m["name"] for m in declared}:
        print(f"metrics do not match BENCHMARK.json: {sorted(set(values) ^ {m['name'] for m in declared})}",
              file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": not session.problems, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
