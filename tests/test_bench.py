import hashlib

import numpy as np
import pytest

from gmsel.bench import (
    CSV_COLUMNS,
    METHODS,
    ExperimentConfig,
    derive_seed,
    make_synthetic_dataset,
    read_records,
    report,
    run_experiment,
    write_records,
)
from gmsel.data import parse_keel
from gmsel.selection import EusParams, PsoParams


@pytest.fixture(scope="module")
def tiny_datasets():
    return [
        make_synthetic_dataset("syn-a", n_pos=8, imbalance_ratio=5, seed=0),
        make_synthetic_dataset("syn-b", n_pos=10, imbalance_ratio=4, seed=1),
    ]


@pytest.fixture(scope="module")
def tiny_records(tiny_datasets):
    cfg = ExperimentConfig(methods=("1nn", "rus", "ncl"), repetitions=2)
    return run_experiment(cfg, datasets=tiny_datasets)


class TestDeriveSeed:
    def test_pinned_values(self):
        # frozen so historical runs stay reproducible
        assert derive_seed(0, "syn-a", 0, 0, "rus") == derive_seed(0, "syn-a", 0, 0, "rus")
        assert derive_seed(0, "syn-a", 0, 0, "rus") != derive_seed(0, "syn-a", 0, 1, "rus")
        assert derive_seed(0, "syn-a", 0, 0, "rus") != derive_seed(1, "syn-a", 0, 0, "rus")
        assert derive_seed(0, "syn-a", 0, 0, "rus") != derive_seed(0, "syn-a", 0, 0, "ncl")

    def test_range(self):
        s = derive_seed(123, "x", 4, 1, "eus")
        assert 0 <= s < 2**64


class TestMakeSynthetic:
    def test_counts_and_ratio(self):
        ds = make_synthetic_dataset("s", n_pos=10, imbalance_ratio=7, seed=0)
        assert ds.n_pos == 10 and ds.n_neg == 70
        assert ds.imbalance_ratio == 7.0

    def test_deterministic(self):
        a = make_synthetic_dataset("s", 10, 5, seed=3)
        b = make_synthetic_dataset("s", 10, 5, seed=3)
        assert np.array_equal(a.X, b.X)


class TestRunExperiment:
    def test_record_count_and_order(self, tiny_records, tiny_datasets):
        # 2 datasets x 2 reps x 2 folds x 3 methods
        assert len(tiny_records) == 24
        keys = [(r.dataset, r.rep, r.fold, r.method) for r in tiny_records]
        assert keys == sorted(keys)

    def test_no_failures_on_clean_data(self, tiny_records):
        assert not any(r.failed for r in tiny_records)
        for r in tiny_records:
            assert 0.0 <= r.gm <= 1.0
            assert r.retained > 0

    def test_folds_shared_across_methods(self, tiny_records):
        # same (dataset, rep, fold) -> same test half -> identical trial keys
        # per method; the deterministic 1nn row then pins the fold content
        by_method = {}
        for r in tiny_records:
            by_method.setdefault(r.method, []).append((r.dataset, r.rep, r.fold))
        assert len(set(map(tuple, by_method.values()))) == 1

    def test_parallel_matches_serial_byte_for_byte(self, tiny_datasets, tmp_path):
        outs = []
        for jobs in (1, 3):
            cfg = ExperimentConfig(methods=("1nn", "rus", "tl"), repetitions=2,
                                   jobs=jobs, out_dir=str(tmp_path / f"j{jobs}"))
            run_experiment(cfg, datasets=tiny_datasets)
            outs.append((tmp_path / f"j{jobs}" / "records.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_failure_is_isolated(self, tiny_datasets, monkeypatch):
        import gmsel.bench as bench

        real = bench._run_method

        def flaky(method, X, y, seed, cfg, nominal_mask):
            if method == "ncl":
                raise RuntimeError("boom")
            return real(method, X, y, seed, cfg, nominal_mask)

        monkeypatch.setattr(bench, "_run_method", flaky)
        cfg = ExperimentConfig(methods=("1nn", "ncl"), repetitions=1)
        records = run_experiment(cfg, datasets=tiny_datasets[:1])
        ncl_recs = [r for r in records if r.method == "ncl"]
        ok_recs = [r for r in records if r.method == "1nn"]
        assert all(r.failed and r.gm == 0.0 for r in ncl_recs)
        assert all(not r.failed for r in ok_recs)

    def test_empty_method_roster_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(methods=())

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(methods=("1nn", "svm"))


class TestCsvRoundTrip:
    def test_round_trip(self, tiny_records, tmp_path):
        path = tmp_path / "r.csv"
        write_records(tiny_records, path)
        back = read_records(path)
        assert len(back) == len(tiny_records)
        for got, want in zip(back, tiny_records):
            assert (got.dataset, got.rep, got.fold, got.method) == \
                (want.dataset, want.rep, want.fold, want.method)
            assert got.gm == pytest.approx(want.gm, abs=1e-12)
            assert got.tpr == pytest.approx(want.tpr, abs=1e-12)
            assert got.tnr == pytest.approx(want.tnr, abs=1e-12)
            assert (got.retained, got.millis, got.failed) == \
                (want.retained, want.millis, want.failed)

    def test_header(self, tiny_records, tmp_path):
        path = tmp_path / "r.csv"
        write_records(tiny_records, path)
        assert path.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)


class TestConfigYaml:
    def test_from_yaml(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "methods: [1nn, rus]\nrepetitions: 3\nmaster_seed: 42\n"
            "eus:\n  population: 10\n  generations: 4\n"
        )
        cfg = ExperimentConfig.from_yaml(path)
        assert cfg.methods == ("1nn", "rus")
        assert cfg.repetitions == 3
        assert cfg.master_seed == 42
        assert cfg.eus_params.population == 10

    @pytest.mark.parametrize("text, key", [
        ("repetition: 2\n", "'repetition'"),
        ("master-seed: 3\n", "'master-seed'"),
        ("eus_params: {population: 4}\n", "'eus_params'"),
        ("eus:\n  population: 10\n  generation: 4\n", "'eus.generation'"),
        ("pso:\n  swarms: 5\n", "'pso.swarms'"),
    ])
    def test_unknown_key_rejected_by_name(self, tmp_path, text, key):
        path = tmp_path / "cfg.yaml"
        path.write_text("methods: [1nn]\n" + text)
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_yaml(path)

    def test_section_must_be_a_mapping(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("eus: [10, 4]\n")
        with pytest.raises(ValueError, match="eus"):
            ExperimentConfig.from_yaml(path)


def _mixed_keel(n_pos=10, n_neg=40, seed=2):
    """KEEL text with two numeric attributes and one nominal attribute."""
    rng = np.random.default_rng(seed)
    X = np.round(np.vstack([rng.normal(1.0, 1.0, (n_pos, 2)),
                            rng.normal(0.0, 1.0, (n_neg, 2))]), 4)
    colour = rng.choice(["red", "blue", "green"], n_pos + n_neg)
    lines = ["@relation mixed",
             f"@attribute a real [{X[:, 0].min()}, {X[:, 0].max()}]",
             f"@attribute b real [{X[:, 1].min()}, {X[:, 1].max()}]",
             "@attribute colour {red, blue, green}",
             "@attribute class {positive, negative}",
             "@inputs a, b, colour", "@outputs class", "@data"]
    lines += [f"{a}, {b}, {c}, {'positive' if i < n_pos else 'negative'}"
              for i, ((a, b), c) in enumerate(zip(X, colour))]
    return "\n".join(lines) + "\n"


# sha256 of records.csv for the config below, as first computed; a change
# that moves any record has to update it here, openly
PINNED_RECORDS_SHA256 = (
    "f9191730b90d33bfd4f4e3cfe232d3e564227de3e0ae26ededfd972158be98c4")


def test_records_digest_pinned(tmp_path):
    datasets = [make_synthetic_dataset("pin-a", 8, 5, seed=0),
                make_synthetic_dataset("pin-b", 6, 9, seed=1, d=3),
                parse_keel(_mixed_keel())]
    cfg = ExperimentConfig(methods=tuple(METHODS), repetitions=1,
                           ensemble_size_bag=7, ensemble_size_boost=3,
                           eus_params=EusParams(population=6, generations=4),
                           pso_params=PsoParams(swarm=6, iterations=4),
                           re_cardinality=6, re_trials=20, out_dir=str(tmp_path))
    records = run_experiment(cfg, datasets=datasets)
    assert len(records) == 3 * 2 * 13 and not any(r.failed for r in records)
    digest = hashlib.sha256((tmp_path / "records.csv").read_bytes()).hexdigest()
    assert digest == PINNED_RECORDS_SHA256


class TestReport:
    def test_structure(self, tiny_records):
        rep = report(tiny_records)
        assert rep["methods"] == ["1nn", "ncl", "rus"]
        assert rep["wins"].sum() == pytest.approx(rep["n_trials"])
        assert rep["p_matrix"].shape == (3, 3)
        assert np.all(np.diag(rep["p_matrix"]) == 1.0)
        assert "| method | wins |" in rep["markdown"]

    def test_incomplete_trials_dropped(self, tiny_records):
        rep = report(tiny_records[1:])  # drop one 1nn row -> one trial incomplete
        assert rep["n_trials"] == 7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            report([])

    def test_category_summary(self, tiny_records):
        cats = report(tiny_records)["categories"]
        assert cats["balance"]["methods"] == ["ncl", "rus"]
        assert "ensemble" not in cats
