import csv

import pytest

from gmsel.cli import main
from gmsel.theory import prop1_check

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


class TestParseCommand:
    def test_valid_file(self, tmp_path, capsys):
        path = tmp_path / "toy.dat"
        path.write_text(KEEL)
        assert main(["parse", str(path)]) == 0
        out = capsys.readouterr().out
        assert "toy: 12 instances" in out
        assert "positive class 'yes'" in out
        assert "IR 2.00" in out

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

    def test_demo_gaussian_without_editing(self, capsys):
        assert main(["theory", "demo-gaussian", "--no-re"]) == 0
        out = capsys.readouterr().out
        assert "classical Bayes" in out and "balanced Bayes" in out
        assert "random editing" not in out

    def test_lemma_check_small(self, capsys):
        assert main(["theory", "lemma-check", "--configs", "5",
                     "--probes", "2000"]) == 0
        assert "0 inclusion violations" in capsys.readouterr().out

    def test_prop1_prints_prop1_check_counts(self, capsys):
        confirmed, checked = prop1_check(3, 2000, 0)
        assert checked == 3
        assert main(["theory", "prop1", "--cases", "3", "--samples", "2000"]) == 0
        assert (f"{confirmed}/{checked} predicted improvements confirmed"
                in capsys.readouterr().out)


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
