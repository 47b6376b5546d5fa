import csv
import hashlib
import json
import re
from pathlib import Path

import pytest

from gmsel.cli import main
from gmsel.theory import lemma_sweep, prop1_check

KEEL = """\
@relation toy
@attribute x real [0.0, 10.0]
@attribute class {yes, no}
@data
1.0, yes
2.0, yes
3.0, yes
4.0, yes
8.0, no
8.5, no
9.0, no
9.5, no
10.0, no
7.5, no
7.0, no
6.5, no
"""

EXHAUSTIVE_STDOUT = (
    'cardinality  2: best GM = 0.6140\n'
    'cardinality  3: best GM = 0.7892\n'
    'cardinality  4: best GM = 0.8089\n'
    'cardinality  5: best GM = 0.8049\n'
    'cardinality  6: best GM = 0.8070\n'
    'cardinality  7: best GM = 0.8082\n'
    'cardinality  8: best GM = 0.8064\n'
    'cardinality  9: best GM = 0.8036\n'
    'cardinality 10: best GM = 0.7996\n'
    'cardinality 11: best GM = 0.7939\n'
    'cardinality 12: best GM = 0.7881\n'
    'cardinality 13: best GM = 0.7812\n'
    'cardinality 14: best GM = 0.7737\n'
    'cardinality 15: best GM = 0.7461\n'
    'full set GM = 0.7461; global best GM = 0.8089 at cardinality 4\n'
)

# sha256 of `gmsel theory boundary1d --out` at the defaults (101 split points
# over [0, 10]), as first computed
BOUNDARY1D_CSV_SHA256 = json.loads(
    Path(__file__).with_name("pins.json").read_text())["tests"]["BOUNDARY1D_CSV_SHA256"]


class TestParseCommand:
    def test_valid_file(self, tmp_path, capsys):
        path = tmp_path / "toy.dat"
        path.write_text(KEEL)
        assert main(["parse", str(path)]) == 0
        out = capsys.readouterr().out
        assert "toy: 12 instances" in out
        assert "positive class 'yes'" in out
        assert "IR 2.00" in out

    def test_upper_case_csv_suffix(self, tmp_path, capsys):
        # the same suffix rule as `gmsel run`
        path = tmp_path / "toy.CSV"
        path.write_text("x,label\n1.0,yes\n2.0,no\n3.0,no\n4.0,no\n")
        assert main(["parse", str(path)]) == 0
        assert "toy: 4 instances" in capsys.readouterr().out

    def test_invalid_file(self, tmp_path, capsys):
        path = tmp_path / "bad.dat"
        path.write_text("@relation t\n@attribute broken\n@data\n")
        assert main(["parse", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err


class TestTheoryCommands:
    def test_boundary1d_prints_optimum(self, capsys):
        assert main(["theory", "boundary1d", "--steps", "11"]) == 0
        assert "b* = 5.0" in capsys.readouterr().out

    def test_boundary1d_writes_curve(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(["theory", "boundary1d", "--steps", "5",
                     "--out", str(out)]) == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["b", "tpr", "tnr", "gm"]
        assert len(rows) == 6

    def test_boundary1d_curve_pinned(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["theory", "boundary1d", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == BOUNDARY1D_CSV_SHA256

    def test_boundary1d_readme_model(self, tmp_path, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block, = [b for b in re.findall(r"```yaml\n(.*?)```", readme, re.S)
                  if b.startswith("prior_positive:")]
        path = tmp_path / "model.yaml"
        path.write_text(block)
        assert main(["theory", "boundary1d", "--model", str(path)]) == 0
        assert capsys.readouterr().out == "best boundary b* = 5.0, GM* = 0.629941\n"

    def test_boundary1d_sweeps_the_model_support(self, tmp_path):
        path = tmp_path / "model.yaml"
        path.write_text(
            "prior_positive: 0.5\n"
            "positive: {type: piecewise_uniform, segments: [[-2, 1, 0.25], [1, 2, 0.25]]}\n"
            "negative: {type: piecewise_uniform, segments: [[0, 5, 0.2]]}\n")
        out = tmp_path / "curve.csv"
        assert main(["theory", "boundary1d", "--model", str(path), "--steps", "8",
                     "--out", str(out)]) == 0
        b = [float(row[0]) for row in list(csv.reader(out.open()))[1:]]
        assert b == [-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_boundary1d_rejects_gaussian_model(self, tmp_path, capsys):
        path = tmp_path / "model.yaml"
        path.write_text(
            "prior_positive: 0.5\n"
            "positive: {type: piecewise_uniform, segments: [[0, 1, 1.0]]}\n"
            "negative: {type: gaussian_mixture, components: [[1.0, [0, 0], [1, 1]]]}\n")
        assert main(["theory", "boundary1d", "--model", str(path)]) == 1
        assert "GaussianMixture2D" in capsys.readouterr().err

    def test_demo_gaussian_random_editing_pinned(self, capsys):
        # the full stdout at 500 trials, as the one-loo_gm-per-trial loop
        # printed it
        assert main(["theory", "demo-gaussian", "--re-trials", "500"]) == 0
        assert capsys.readouterr().out == (
            "GM(classical Bayes) = 0.6122\n"
            "GM(balanced Bayes)  = 0.8127\n"
            "GM(random editing)  = 0.7609\n")

    def test_demo_gaussian_without_editing(self, capsys):
        assert main(["theory", "demo-gaussian", "--no-re"]) == 0
        out = capsys.readouterr().out
        assert "classical Bayes" in out and "balanced Bayes" in out
        assert "random editing" not in out

    def test_exhaustive_prints_pinned_curve(self, capsys):
        # the full stdout at the defaults, as the one-subset-at-a-time search
        # printed it
        assert main(["theory", "exhaustive"]) == 0
        assert capsys.readouterr().out == EXHAUSTIVE_STDOUT

    def test_exhaustive_writes_printed_curve(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(["theory", "exhaustive", "--out", str(out)]) == 0
        assert capsys.readouterr().out == EXHAUSTIVE_STDOUT + f"wrote {out}\n"
        header, *rows = csv.reader(out.open())
        assert header == ["cardinality", "best_gm"]
        curve = re.findall(r"cardinality +(\d+): best GM = (\S+)", EXHAUSTIVE_STDOUT)
        assert [(k, f"{float(g):.4f}") for k, g in rows] == curve
        assert len(curve) == 14

    def test_lemma_check_small(self, capsys):
        assert main(["theory", "lemma-check", "--configs", "5",
                     "--probes", "2000"]) == 0
        assert "0 inclusion violations" in capsys.readouterr().out

    def test_lemma_check_prints_lemma_sweep_count(self, capsys):
        violations = lemma_sweep(3, 2000, 0)
        main(["theory", "lemma-check", "--configs", "3", "--probes", "2000"])
        assert (f"3 configurations x 2000 probes: {violations} inclusion violations"
                in capsys.readouterr().out)

    def test_prop1_prints_prop1_check_counts(self, capsys):
        confirmed, checked = prop1_check(3, 2000, 0)
        assert checked == 3
        assert main(["theory", "prop1", "--cases", "3", "--samples", "2000"]) == 0
        assert (f"{confirmed}/{checked} predicted improvements confirmed"
                in capsys.readouterr().out)

    @pytest.mark.parametrize("args, flag, floor", [
        (["boundary1d", "--steps", "-1"], "--steps", 1),
        (["demo-gaussian", "--re-trials", "0"], "--re-trials", 1),
        (["lemma-check", "--configs", "0"], "--configs", 1),
        (["lemma-check", "--probes", "0"], "--probes", 1),
        (["prop1", "--cases", "0"], "--cases", 1),
        (["prop1", "--samples", "999"], "--samples", 1000),
        (["demo-gaussian", "--seed", "-1"], "--seed", 0),
        (["exhaustive", "--seed", "-1"], "--seed", 0),
        (["lemma-check", "--seed", "-1"], "--seed", 0),
        (["prop1", "--seed", "-5"], "--seed", 0),
    ])
    def test_count_below_its_floor_rejected_by_name(self, capsys, args, flag, floor):
        # a zero count made lemma-check and prop1 report a vacuous success,
        # and a negative count or seed ended in a numpy traceback
        with pytest.raises(SystemExit) as exit_info:
            main(["theory", *args])
        assert exit_info.value.code == 2
        assert f"argument {flag}: must be at least {floor}, got {args[-1]}" in \
            capsys.readouterr().err


class TestRunAndReport:
    def test_end_to_end(self, tmp_path, capsys):
        data = tmp_path / "toy.dat"
        data.write_text(KEEL)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            f"datasets: [{data}]\nmethods: [1nn, rus]\nrepetitions: 2\n"
        )
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
        run_out = capsys.readouterr().out
        assert "8 trials completed, 0 failed" in run_out

        records = out_dir / "records.csv"
        assert records.exists()
        assert main(["report", "--records", str(records)]) == 0
        rep_out = capsys.readouterr().out
        assert "Win counts" in rep_out
        assert "| rus |" in rep_out

    @pytest.mark.parametrize("args, flag, floor", [
        (["--seed", "-3"], "--seed", 0),
        (["--jobs", "0"], "--jobs", 1),
    ])
    def test_seed_or_jobs_below_its_floor_rejected_by_name(self, capsys, args, flag, floor):
        # both failed only in ExperimentConfig, with a traceback
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--config", "cfg.yaml", *args])
        assert exit_info.value.code == 2
        assert f"argument {flag}: must be at least {floor}, got {args[-1]}" in \
            capsys.readouterr().err

    def test_seed_override_changes_nothing_when_equal(self, tmp_path):
        data = tmp_path / "toy.dat"
        data.write_text(KEEL)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            f"datasets: [{data}]\nmethods: [rus]\nrepetitions: 1\nmaster_seed: 5\n"
        )
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(cfg), "--out", str(a)])
        main(["run", "--config", str(cfg), "--seed", "5", "--out", str(b)])
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()


# a valid density model, whose values the cases below edit
MODEL = ("prior_positive: 0.5\n"
         "positive: {type: piecewise_uniform, segments: [[0, 1, 1.0]]}\n"
         "negative: {type: piecewise_uniform, segments: [[0, 1, 1.0]]}\n")


class TestInputErrors:
    # each ended in a Python traceback; now one line, as `gmsel parse` gives
    @pytest.mark.parametrize("command, text, message", [
        (["run", "--config"], "datasets: [toy.dat]\nmethods: [rus]\nout_dir: 5\n",
         "out_dir must be a file path, got 5"),
        (["theory", "boundary1d", "--model"],
         "prior_positive: 0.5\nextra: 1\n"
         "positive: {type: piecewise_uniform, segments: [[0, 1, 1.0]]}\n"
         "negative: {type: piecewise_uniform, segments: [[0, 1, 1.0]]}\n",
         "unknown config key 'extra'"),
        (["report", "--records"],
         "dataset,rep,fold,method,gm,tpr,tnr,retained,millis,failed\n",
         "no complete trials to report on"),
        # one file listed twice, or two files of one @relation, ran every
        # trial twice under one key
        (["run", "--config"], "datasets: [<dir>/toy.dat, <dir>/toy.dat]\nmethods: [rus]\n",
         "datasets are named twice: ['toy']"),
        (["report", "--records"],
         "dataset,rep,fold,method,gm,tpr,tnr,retained,millis,failed\n"
         "toy,0,1,rus,0.5,0.5,0.5,4,0,0\ntoy,0,1,rus,0.7,0.7,0.7,4,0,0\n",
         "records hold ('toy', 0, 1, 'rus') twice"),
        # a bad value in a density model ended in a TypeError, or a ValueError
        # that did not name its key
        (["theory", "boundary1d", "--model"], MODEL.replace("0.5", "null"),
         "prior_positive must be a real number in (0, 1), got None"),
        (["theory", "boundary1d", "--model"], MODEL.replace("0.5", "abc"),
         "prior_positive must be a real number in (0, 1), got 'abc'"),
        (["theory", "boundary1d", "--model"],
         MODEL.replace("type: piecewise_uniform", "type: [1]", 1),
         "positive.type: unknown density type [1]"),
        (["theory", "boundary1d", "--model"], MODEL.replace("[[0, 1, 1.0]]", "5", 1),
         "positive.segments: 'int' object is not iterable"),
        (["theory", "boundary1d", "--model"], MODEL.replace("[[0, 1, 1.0]]", "[[0, 9]]", 1),
         "positive.segments: not enough values to unpack (expected 3, got 2)"),
    ], ids=["run", "boundary1d", "report", "run-same-name", "report-trial-twice",
            "boundary1d-prior-null", "boundary1d-prior-text", "boundary1d-type-list",
            "boundary1d-segments-number", "boundary1d-segment-pair"])
    def test_one_line_and_exit_1(self, tmp_path, capsys, command, text, message):
        (tmp_path / "toy.dat").write_text(KEEL)
        path = tmp_path / "input"
        path.write_text(text.replace("<dir>", str(tmp_path)))
        assert main([*command, str(path)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"INVALID: {message}\n")

    # a missing file or a directory, a YAML syntax error or a CSV without the
    # records columns
    @pytest.mark.parametrize("command, text, message", [
        (["run", "--config"], None, "No such file or directory"),
        (["report", "--records"], None, "No such file or directory"),
        (["parse"], None, "No such file or directory"),
        (["theory", "boundary1d", "--model"], None, "No such file or directory"),
        (["run", "--config"], "datasets: [{dir}/missing.dat]\nmethods: [rus]\n",
         "No such file or directory"),
        (["run", "--config"], "<directory>", "Is a directory"),
        (["run", "--config"], "methods: [1nn\n", "is not valid YAML: while parsing"),
        (["theory", "boundary1d", "--model"], "positive: [1nn\n",
         "is not valid YAML: while parsing"),
        (["report", "--records"], "a,b\n1,2\n",
         "lacks the records columns ['dataset', 'rep', 'fold', 'method'"),
    ], ids=["run-missing", "report-missing", "parse-missing", "boundary1d-missing",
            "run-missing-dataset", "run-directory", "run-yaml", "boundary1d-yaml",
            "report-columns"])
    def test_bad_file_one_line_and_exit_1(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "input"
        if text == "<directory>":
            path.mkdir()
        elif text is not None:
            path.write_text(text.format(dir=tmp_path))
        assert main([*command, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("INVALID: ") and err.count("\n") == 1
        assert message in err
