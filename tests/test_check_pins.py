"""The pin gate's verdict on canned output, and the pin file's shape."""

import json
import re
import subprocess
from pathlib import Path
from unittest import mock

import check_pins
from check_pins import PINS, problems

ROOT = Path(__file__).resolve().parents[1]
ROSTER = PINS["bench"]["roster --seed 1 --trace 1"]
THEORY = PINS["bench"]["theory --seed 0 --trace 0"]
PROP1 = PINS["cli"]["theory prop1 --cases 50 --seed 3"]


def bench_stdout(digests=(ROSTER["records"],) * 3, correct=True, lines=(), **metrics):
    """A benchmark run's stdout: its header, ``lines``, one digest line per
    entry of ``digests`` and the verdict with ``metrics``."""
    metrics = {**ROSTER["metrics"], **metrics}
    return "\n".join([
        json.dumps({"env": {}, "workload": "roster", "seed": 1, "trace": 1}), *lines,
        *(f"records.csv sha256 {d} (520 trials)" for d in digests),
        json.dumps({"correct": correct, "attempted": 3, "failed": 0,
                    "metrics": {k: {"value": v, "unit": "count"} for k, v in metrics.items()}}),
    ]) + "\n"


def test_pinned_output_holds():
    assert problems(bench_stdout(), ROSTER) == []
    assert problems(bench_stdout(digests=(), lines=THEORY["lines"]), THEORY) == []
    assert problems(PROP1["lines"][0] + "\n", PROP1, bench=False) == []


def test_traced_digests_that_disagree():
    other = "0" * 64
    found = problems(bench_stdout((ROSTER["records"], other, ROSTER["records"]),
                                  correct=False), ROSTER)
    assert found[0] == "not correct"
    assert other in found[1] and len(found) == 2


def test_digest_that_is_not_the_pin():
    found = problems(bench_stdout(("f" * 64,)), ROSTER)
    assert found == [f"records.csv sha256 ['{'f' * 64}'], pinned {ROSTER['records']}"]


def test_no_digest_line():
    assert problems(bench_stdout(()), ROSTER) == \
        [f"records.csv sha256 [], pinned {ROSTER['records']}"]


def test_run_not_correct():
    assert problems(bench_stdout(correct=False), ROSTER) == ["not correct"]


def test_missing_theory_line():
    found = problems(bench_stdout((), lines=THEORY["lines"][:-1]), THEORY)
    assert found == [f"not printed: {THEORY['lines'][-1]}"]
    assert problems("48/50 predicted improvements confirmed\n", PROP1, bench=False) == \
        [f"not printed: {PROP1['lines'][0]}"]


def test_fitness_evals_off_by_one():
    assert problems(bench_stdout(**{"selection.fitness_evals": 106701}), ROSTER) == \
        ["selection.fitness_evals 106701, pinned 106700"]


def test_output_cut_off_before_the_verdict():
    cut = bench_stdout().splitlines(keepends=True)[:-1]
    assert problems("".join(cut), ROSTER) == ["no verdict line"]
    assert problems("", ROSTER) == ["no verdict line"]


def case_of(argv):
    """The pins.json case that ``argv`` runs."""
    return " ".join(argv[5 if "perfbench/run.py" in argv else 3:])


def pinned_run(argv, **kwargs):
    """``subprocess.run`` of one case, printing what its pin asks for."""
    case = case_of(argv)
    pin = PINS["bench"].get(case) or PINS["cli"][case]
    digests = (pin["records"],) if "records" in pin else ()
    lines = pin.get("lines", ())
    out = bench_stdout(digests, lines=lines) if "perfbench/run.py" in argv else lines[0]
    return subprocess.CompletedProcess(argv, 0, stdout=out)


def test_gate_names_every_failed_case(capsys):
    """Every case runs once; one altered digest and one altered theory line
    fail the gate, and its last line names both cases."""
    def run(argv, **kwargs):
        out = pinned_run(argv).stdout.replace("198/200", "197/200")
        if case_of(argv) == "fitness-large --seed 3 --trace 0":
            digest = PINS["bench"][case_of(argv)]["records"]
            out = out.replace(digest, digest[::-1])
        return subprocess.CompletedProcess(argv, 0, stdout=out)

    with mock.patch.object(check_pins.subprocess, "run", side_effect=run) as spy:
        assert check_pins.main() == 1
    assert spy.call_count == len(PINS["bench"]) + len(PINS["cli"])
    verdict = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not verdict["pins_held"]
    assert sorted(verdict["failed"]) == [
        "perfbench/run.py --seconds 1 --workload fitness-large --seed 3 --trace 0",
        "perfbench/run.py --seconds 1 --workload theory --seed 0 --trace 0"]


def test_run_that_times_out_fails_its_case(capsys):
    """Every run has a timeout; one that expires fails its case, and the
    other cases still run and hold."""
    slow = "theory prop1 --cases 50 --seed 3"

    def run(argv, timeout, **kwargs):
        if case_of(argv) == slow:
            raise subprocess.TimeoutExpired(argv, timeout)
        assert timeout == (600 if "perfbench/run.py" in argv else 300)
        return pinned_run(argv)

    with mock.patch.object(check_pins.subprocess, "run", side_effect=run) as spy:
        assert check_pins.main() == 1
    assert spy.call_count == len(PINS["bench"]) + len(PINS["cli"])
    verdict = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert verdict["failed"] == {f"-m gmsel.cli {slow}": ["timed out after 300 s"]}


def test_pin_file_names_benchmark_workloads_and_full_digests():
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    records = {case: pin["records"] for case, pin in PINS["bench"].items() if "records" in pin}
    assert len(records) == 6
    for case, digest in records.items():
        assert case.split()[0] in workloads
        assert re.fullmatch(r"[0-9a-f]{64}", digest)
    assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in PINS["tests"].values())


def test_ci_runs_the_gate():
    ci = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert "run: python3 tests/check_pins.py\n" in ci
