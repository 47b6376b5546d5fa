import hashlib
import json
import os
import re
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import exact_twin
from gmsel import bench, knn
from gmsel import ensemble as ens
from gmsel import selection as sel
from gmsel.bench import (
    CSV_COLUMNS,
    METHODS,
    ExperimentConfig,
    TrialRecord,
    derive_seed,
    make_synthetic_dataset,
    read_records,
    report,
    run_experiment,
    write_records,
)
from gmsel.data import apply_scaler, fit_scaler, parse_keel, stratified_two_fold
from gmsel.knn import NeighbourIndex, ReferenceSet, classify_1nn
from gmsel.metrics import confusion, gm, tnr, tpr
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

    def test_failure_is_isolated(self, tiny_datasets, monkeypatch, caplog):
        # a method that raises in training, or whose model raises in
        # prediction, fails its own trials and no other
        import gmsel.bench as bench

        real_train, real_predict = bench._run_method, ens.predict_ensemble
        cfg = ExperimentConfig(methods=("1nn", "ncl", "rus"), repetitions=1)
        expected = {(r.rep, r.fold, r.method): r for r in run_experiment(
            replace(cfg, methods=("1nn", "rus")), datasets=tiny_datasets[:1])}
        for phase in ("training", "prediction"):
            ncl_models = []

            def flaky_train(method, fold, seed, cfg):
                if method == "ncl" and phase == "training":
                    raise RuntimeError("boom")
                model, retained = real_train(method, fold, seed, cfg)
                if method == "ncl":
                    ncl_models.append(model)
                return model, retained

            def flaky_predict(model, *args, **kwargs):
                if any(model is m for m in ncl_models):
                    raise RuntimeError("boom")
                return real_predict(model, *args, **kwargs)

            monkeypatch.setattr(bench, "_run_method", flaky_train)
            monkeypatch.setattr(bench.ens, "predict_ensemble", flaky_predict)
            caplog.clear()
            records = run_experiment(cfg, datasets=tiny_datasets[:1])
            assert len(ncl_models) == (2 if phase == "prediction" else 0)
            assert len(records) == 6
            for r in records:
                if r.method == "ncl":
                    assert r.failed and (r.gm, r.tpr, r.tnr, r.retained) == (0.0, 0.0, 0.0, 0)
                else:
                    assert r == expected[r.rep, r.fold, r.method]
            failures = [m for m in caplog.messages if m.startswith("trial failed")]
            assert failures == [f"trial failed: syn-a rep=0 fold={f} method=ncl" for f in (0, 1)]

    def test_empty_method_roster_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(methods=())

    def test_no_dataset_rejected(self, tmp_path, monkeypatch):
        import gmsel.bench as bench

        monkeypatch.setattr(bench, "_run_fold", lambda args: pytest.fail("a fold ran"))
        cfg = ExperimentConfig(methods=("1nn",), out_dir=str(tmp_path))
        with pytest.raises(ValueError, match="datasets is empty"):
            run_experiment(cfg)
        # two datasets of one name would share their trial keys and fold seeds
        same_name = [make_synthetic_dataset(name, 10, 3, seed=seed)
                     for name, seed in [("dup", 1), ("other", 1), ("dup", 2)]]
        with pytest.raises(ValueError, match=r"^datasets are named twice: \['dup'\]$"):
            run_experiment(cfg, datasets=same_name)
        assert not (tmp_path / "records.csv").exists()

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(methods=("1nn", "svm"))

    @pytest.mark.parametrize("field, value", [("datasets", "ab"), ("methods", "rus")])
    def test_bare_string_rejected_by_name(self, field, value):
        # iterated, the string would be the paths "a" and "b", or methods r, u, s
        with pytest.raises(ValueError, match=f"^{field} must be a list or tuple"):
            ExperimentConfig(**{field: value})


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
        # fixed settings, not config keys
        ("record_timing: true\n", "'record_timing'"),
        ("eus:\n  mutation_rate: 0.1\n", "'eus.mutation_rate'"),
        ("eus:\n  tournament: 3\n", "'eus.tournament'"),
        ("pso:\n  inertia: 0.5\n", "'pso.inertia'"),
        ("pso:\n  v_max: 2.0\n", "'pso.v_max'"),
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

    @pytest.mark.parametrize("text, key", [
        ("jobs: 0\n", r"\.jobs "),
        ("repetitions: 0\n", r"\.repetitions "),
        ("ensemble_size_bag: 0\n", r"\.ensemble_size_bag "),
        ("ensemble_size_boost: 0\n", r"\.ensemble_size_boost "),
        ("re_cardinality: 1\n", r"\.re_cardinality "),
        ("re_trials: 0\n", r"\.re_trials "),
        ("repetitions: 2.5\n", r"\.repetitions "),
        ("jobs: true\n", r"\.jobs "),
        ("master_seed: abc\n", r"\.master_seed "),
        ("master_seed: -3.5\n", r"\.master_seed "),
        ("master_seed: true\n", r"\.master_seed "),
        ("eus: {population: true}\n", r"EusParams\.population "),
        ("eus: {balance_penalty: abc}\n", r"EusParams\.balance_penalty "),
        ("eus: {balance_penalty: .nan}\n", r"EusParams\.balance_penalty "),
        ("eus: {balance_penalty: -0.5}\n", r"EusParams\.balance_penalty "),
        ("eus: {population: 0}\n", r"EusParams\.population "),
        ("eus: {generations: -1}\n", r"EusParams\.generations "),
        ("pso: {swarm: 0}\n", r"PsoParams\.swarm "),
        ("pso: {iterations: -1}\n", r"PsoParams\.iterations "),
        ("methods: [1nn, rus, rus]\n", "methods .*twice"),
        ("datasets: a.dat\n", "'datasets' must be a list"),
        ("datasets: [5]\n", "datasets entries must be file paths, got 5"),
        ("methods: rus\n", "'methods' must be a list"),
        ("out_dir: 5\n", "out_dir must be a file path, got 5"),
        ("out_dir: [a, b]\n", "out_dir must be a file path"),
        ("out_dir: ''\n", "out_dir must be a file path, got ''"),
    ])
    def test_bad_value_rejected_by_name(self, tmp_path, text, key):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_yaml(path)

    def test_override_is_checked(self):
        # `gmsel run --jobs` overrides the file's value through replace()
        with pytest.raises(ValueError, match=r"\.jobs "):
            replace(ExperimentConfig(), jobs=0)

    def test_readme_config_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block, = [b for b in re.findall(r"```yaml\n(.*?)```", readme, re.S)
                  if b.startswith("datasets:")]
        path = tmp_path / "cfg.yaml"
        path.write_text(block)
        cfg = ExperimentConfig.from_yaml(path)
        assert set(cfg.methods) == set(METHODS)
        assert cfg.eus_params.population == 50 and cfg.pso_params.swarm == 40


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


# sha256 of records.csv for the configs below, as first computed; a change
# that moves any record has to update them in pins.json, openly
PINS = json.loads(Path(__file__).with_name("pins.json").read_text())["tests"]
PINNED_RECORDS_SHA256 = PINS["PINNED_RECORDS_SHA256"]
# the pinned run's records: a moved digest names the records that moved
PINNED_RECORDS = Path(__file__).with_name("pins") / "records.csv"


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
    path = tmp_path / "records.csv"
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == PINNED_RECORDS_SHA256, _moved(read_records(PINNED_RECORDS),
                                                   read_records(path))


def test_pinned_records_are_the_pin():
    assert hashlib.sha256(PINNED_RECORDS.read_bytes()).hexdigest() == PINNED_RECORDS_SHA256


def _keel_text(name, X, n_pos, top, codes=None):
    """KEEL text of the rows ``X`` on the integer grid 0..``top``, the first
    ``n_pos`` positive; ``codes`` (0 or 1 per row) adds a two-valued attribute."""
    fields = [[str(v) for v in row] for row in X]
    header = [f"@attribute x{j} real [0, {top}]" for j in range(X.shape[1])]
    if codes is not None:
        header.append("@attribute n0 {a, b}")
        for row, code in zip(fields, codes):
            row.append("ab"[code])
    rows = [", ".join([*row, "positive" if i < n_pos else "negative"])
            for i, row in enumerate(fields)]
    return "\n".join([f"@relation {name}", *header,
                      "@attribute class {positive, negative}", "@data", *rows]) + "\n"


def _grid_keel(name, n_pos, imbalance_ratio, d, nominal, seed):
    """KEEL text on the integer grid 0..8, positives from 2..8 and negatives
    from 0..6, with a first row of 0s and a last row of 8s; ``nominal`` adds a
    two-valued attribute."""
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.integers(2, 9, (n_pos, d)),
                   rng.integers(0, 7, (n_pos * imbalance_ratio, d))])
    X[0], X[-1] = 0, 8
    return _keel_text(name, X, n_pos, 8, rng.integers(0, 2, len(X)) if nominal else None)


def _sevenths_keel(name, n_pos, imbalance_ratio, d, nominal, seed):
    """KEEL text on the integer grid 0..7, which scaling maps to steps of 1/7
    or coarser: positives from a pool of 2..7 rows and negatives from a pool
    of 0..5 rows, so rows repeat within each class."""
    rng = np.random.default_rng(seed)
    pos_pool, neg_pool = rng.integers(2, 8, (n_pos // 2, d)), rng.integers(0, 6, (2 * n_pos, d))
    X = np.vstack([pos_pool[rng.integers(0, len(pos_pool), n_pos)], neg_pool[:n_pos // 2],
                   neg_pool[rng.integers(0, len(neg_pool), n_pos * imbalance_ratio - n_pos // 2)]])
    X[0], X[-1] = 0, 7
    return _keel_text(name, X, n_pos, 7, rng.integers(0, 2, len(X)) if nominal else None)


def _config(where, keel, shapes):
    """Config file of the full roster over one KEEL file per shape."""
    paths = []
    for i, shape in enumerate(shapes):
        paths.append(where / f"grid{i}.dat")
        paths[-1].write_text(keel(f"grid{i}", *shape, seed=[7, i]))
    path = where / "config.json"  # JSON is valid YAML
    path.write_text(json.dumps({
        "datasets": [str(p) for p in paths], "methods": list(METHODS),
        "repetitions": 2, "master_seed": 5, "re_trials": 100,
        "eus": {"population": 10, "generations": 10},
        "pso": {"swarm": 10, "iterations": 10}}))
    return path


@pytest.fixture(scope="module")
def grid_config(tmp_path_factory):
    """Config file of the full roster over three integer-grid files with 64, 99
    and 24 duplicate rows, whose equal distances are exact ties that the
    lowest-index rule alone breaks.  In the 8 of 12 training halves that span
    0..8 in every column, scaling divides by 8 and every distance is exact."""
    return _config(tmp_path_factory.mktemp("grid"), _grid_keel,
                   [(20, 5, 2, False), (15, 9, 2, False), (30, 4, 3, True)])


@pytest.fixture(scope="module")
def sevenths_config(tmp_path_factory):
    """The same roster over three files on the grid 0..7 at d = 6, 7 and 8,
    with 74, 43 and 63 duplicate rows, whose scaled distances are not exact
    in binary: a training half that spans 0..7 scales to steps of 1/7."""
    return _config(tmp_path_factory.mktemp("sevenths"), _sevenths_keel,
                   [(20, 5, 6, False), (16, 6, 7, True), (24, 4, 8, False)])


# the pinned ties run's records: a moved digest names the records that moved
TIES_RECORDS = Path(__file__).with_name("pins") / "ties_records.csv"


def _moved(pinned, got, cap=20) -> str:
    """The records of ``got`` unequal to those of ``pinned``, one line each by
    (dataset, rep, fold, method), old -> new gm, tpr, tnr and retained, at most
    ``cap`` lines, then their count."""
    old, new = ({(r.dataset, r.rep, r.fold, r.method): r for r in rs} for rs in (pinned, got))
    lines = [f"{key}: " + ", ".join(f"{f} {getattr(old.get(key), f, None)} -> "
                                    f"{getattr(new.get(key), f, None)}"
                                    for f in ("gm", "tpr", "tnr", "retained"))
             for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)]
    return "\n".join([*lines[:cap], f"{len(lines)} records moved"])


def _assert_ties_pinned(out_dir):
    path = out_dir / "records.csv"
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == PINS["PINNED_TIES_SHA256"], _moved(read_records(TIES_RECORDS),
                                                        read_records(path))


@pytest.mark.parametrize("jobs", [1, 2])
def test_records_with_exact_ties_pinned(grid_config, tmp_path, jobs):
    cfg = replace(ExperimentConfig.from_yaml(grid_config), jobs=jobs, out_dir=str(tmp_path))
    records = run_experiment(cfg)
    assert len(records) == 3 * 2 * 2 * 13 and not any(r.failed for r in records)
    _assert_ties_pinned(tmp_path)


def test_records_with_exact_ties_pinned_at_two_blas_threads(grid_config, tmp_path):
    # CI runs every other check at one BLAS thread; the records must not move
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "gmsel.cli", "run", "--config", str(grid_config),
                    "--jobs", "2", "--out", str(tmp_path)], env=env, check=True,
                   capture_output=True)
    _assert_ties_pinned(tmp_path)


def test_pinned_ties_records_are_the_pin():
    assert hashlib.sha256(TIES_RECORDS.read_bytes()).hexdigest() == PINS["PINNED_TIES_SHA256"]


def test_a_moved_record_is_named():
    pinned = read_records(TIES_RECORDS)
    got = [replace(r, tnr=0.5, retained=3) if i == 7 else r for i, r in enumerate(pinned)]
    r = pinned[7]
    assert _moved(pinned, got) == (f"{(r.dataset, r.rep, r.fold, r.method)}: gm {r.gm} -> "
                                   f"{r.gm}, tpr {r.tpr} -> {r.tpr}, tnr {r.tnr} -> 0.5, "
                                   f"retained {r.retained} -> 3\n1 records moved")
    assert _moved(pinned, pinned) == "0 records moved"
    many = _moved(pinned, [replace(r, retained=r.retained + 1) for r in pinned]).splitlines()
    assert len(many) == 21 and many[-1] == f"{len(pinned)} records moved"


def _under_the_twin(run):
    """``run()`` with every distance from ``exact_twin.pairwise``; forked pool
    workers inherit it."""
    with mock.patch.object(knn, "pairwise_distances", exact_twin.pairwise):
        return run()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("config", ["grid_config", "sevenths_config"])
def test_exact_twin_equals_the_records(config, jobs, request):
    # every ordering only compares distances, so exact ones give the records
    # of the lowest-index rule, and the real kernel has to give the same
    cfg = replace(ExperimentConfig.from_yaml(request.getfixturevalue(config)), jobs=jobs)
    real = run_experiment(cfg)
    twin = _under_the_twin(lambda: run_experiment(cfg))
    assert not any(r.failed for r in real + twin)
    assert twin == real, _moved(real, twin)


@st.composite
def small_grid_datasets(draw):
    """A file of 8-48 rows on an integer grid 0..3 up to 0..7 (duplicate rows
    are common), 4-12 positives drawn from its upper part and the negatives
    from its lower part, with or without a nominal attribute."""
    top, d = draw(st.sampled_from([3, 5, 6, 7])), draw(st.integers(1, 3))
    n_pos = draw(st.integers(4, 12))
    n_neg = draw(st.integers(n_pos, 3 * n_pos))
    X = np.vstack([draw(arrays(np.int64, (n_pos, d), elements=st.integers(top // 3, top))),
                   draw(arrays(np.int64, (n_neg, d), elements=st.integers(0, 2 * top // 3)))])
    codes = draw(arrays(np.int64, len(X), elements=st.integers(0, 1))) \
        if draw(st.booleans()) else None
    return parse_keel(_keel_text("small", X, n_pos, top, codes))


SMALL_CFG = ExperimentConfig(methods=tuple(METHODS), repetitions=1,
                             ensemble_size_bag=3, ensemble_size_boost=3,
                             eus_params=EusParams(population=4, generations=2),
                             pso_params=PsoParams(swarm=4, iterations=2),
                             re_cardinality=4, re_trials=10)


@given(ds=small_grid_datasets(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_exact_twin_equals_the_records_on_small_grids(ds, seed):
    cfg, trained = replace(SMALL_CFG, master_seed=seed), []

    def run_method(method, fold, seed, cfg):
        model, retained = real_run_method(method, fold, seed, cfg)
        trained.append((fold.y, model))
        return model, retained

    real_run_method = bench._run_method
    with mock.patch.object(bench, "_run_method", run_method):
        real = run_experiment(cfg, datasets=[ds])
    twin = _under_the_twin(lambda: run_experiment(cfg, datasets=[ds]))
    # a trial may fail here (boosting on constant rows), alike in both runs
    assert twin == real, _moved(real, twin)
    # every reference set and ensemble member: training rows of both classes
    assert len(trained) >= sum(not r.failed for r in real)
    for y, model in trained:
        for member in model.members:
            assert member.retained[-1] < len(y)
            assert set(y[member.retained].tolist()) == {0, 1}


# the full roster at small budgets on one file of 140 rows with a nominal
# attribute: 70-row training halves, over RANK_DEPTH, so lookups take ranks
FOLD_CFG = ExperimentConfig(methods=tuple(METHODS), repetitions=2,
                            ensemble_size_bag=5, ensemble_size_boost=3,
                            eus_params=EusParams(population=6, generations=3),
                            pso_params=PsoParams(swarm=6, iterations=3),
                            re_cardinality=6, re_trials=20)


def _trial_by_trial(cfg, ds):
    """Records of ``cfg`` on ``ds``, each trial on its own: every method gets
    its own neighbour index over the training half, and every prediction its
    own from the test half.  The oracle for the fold tasks of ``run_experiment``."""
    trainers = {
        "1nn": lambda X, y, s, nom: ReferenceSet(np.arange(len(y))),
        "bag1nn": lambda X, y, s, nom: ens.bag_1nn(X, y, cfg.ensemble_size_bag, s),
        "rus": lambda X, y, s, nom: sel.rus(X, y, s),
        "erus": lambda X, y, s, nom: ens.erus(X, y, cfg.ensemble_size_bag, s),
        "rusboost": lambda X, y, s, nom: ens.rusboost(X, y, cfg.ensemble_size_boost, s,
                                                      index=NeighbourIndex(X, nom)),
        "eusboost": lambda X, y, s, nom: ens.eusboost(X, y, cfg.ensemble_size_boost, s,
                                                      cfg.eus_params,
                                                      index=NeighbourIndex(X, nom)),
        "eus": lambda X, y, s, nom: sel.eus(X, y, s, cfg.eus_params,
                                            index=NeighbourIndex(X, nom)),
        "pso": lambda X, y, s, nom: sel.pso_select(X, y, s, cfg.pso_params,
                                                   index=NeighbourIndex(X, nom)),
        "tl": lambda X, y, s, nom: sel.tomek_links(X, y, index=NeighbourIndex(X, nom)),
        "oss": lambda X, y, s, nom: sel.oss(X, y, s, index=NeighbourIndex(X, nom)),
        "tlcnn": lambda X, y, s, nom: sel.tl_cnn(X, y, s, index=NeighbourIndex(X, nom)),
        "ncl": lambda X, y, s, nom: sel.ncl(X, y, index=NeighbourIndex(X, nom)),
        "re": lambda X, y, s, nom: sel.random_edit(X, y, cfg.re_cardinality, cfg.re_trials,
                                                   s, index=NeighbourIndex(X, nom)),
    }
    plan = stratified_two_fold(ds, derive_seed(cfg.master_seed, ds.name, -1, -1, "folds"),
                               cfg.repetitions)
    nom = ds.nominal_mask if ds.nominal_mask.any() else None
    records = []
    for rep, (half1, half2) in enumerate(plan):
        for fold, (train, test) in enumerate([(half1, half2), (half2, half1)]):
            for method in cfg.methods:
                scaler = fit_scaler(ds, train)
                X, Q = apply_scaler(scaler, ds.X[train]), apply_scaler(scaler, ds.X[test])
                y = ds.y[train]
                model = trainers[method](X, y, derive_seed(cfg.master_seed, ds.name, rep,
                                                           fold, method), nom)
                if isinstance(model, ReferenceSet):
                    pred, kept = classify_1nn(X, y, model, Q, nom), len(model)
                else:
                    pred = ens.predict_ensemble(model, X, y, Q,
                                                index=NeighbourIndex(X, nom, Q))
                    kept = np.unique(np.concatenate([m.retained for m in model.members])).size
                c = confusion(ds.y[test], pred)
                records.append(TrialRecord(ds.name, rep, fold, method, gm(c), tpr(c), tnr(c),
                                           kept, 0))
    return sorted(records, key=lambda r: (r.dataset, r.rep, r.fold, r.method))


def test_fold_tasks_equal_trial_by_trial():
    ds = parse_keel(_mixed_keel(n_pos=20, n_neg=120, seed=4))
    records = run_experiment(FOLD_CFG, datasets=[ds])
    assert len(records) == 2 * 2 * 13 and not any(r.failed for r in records)
    assert records == _trial_by_trial(FOLD_CFG, ds)


def test_fold_computes_only_its_two_index_matrices(monkeypatch):
    # every lookup of the fold's 13 methods, random editing's too, reads the
    # training index or the test index: one distance matrix each
    import gmsel.bench as bench
    from gmsel import knn

    real, calls = knn.pairwise_distances, []

    def spy(A, B, nominal_mask=None):
        calls.append(("train" if A is B else "test", len(A), len(B)))
        return real(A, B, nominal_mask)

    monkeypatch.setattr(knn, "pairwise_distances", spy)
    ds = parse_keel(_mixed_keel(n_pos=20, n_neg=120, seed=4))
    train, test = stratified_two_fold(ds, 0, 1)[0]
    records = bench._run_fold((ds, 0, 0, train, test, FOLD_CFG))
    assert len(records) == 13 and not any(r.failed for r in records)
    assert sorted(calls) == [("test", len(test), len(train)),
                             ("train", len(train), len(train))]


def test_fold_builds_each_index_once(monkeypatch):
    # and releases its training index before it builds its test index, so it
    # never holds both distance matrices
    import gmsel.bench as bench

    folds = []  # per fold: the kind of each index built, in order
    training = []  # per fold: a weak reference to its training index

    class SpyFold(bench._Fold):
        def __init__(self, *args):
            folds.append([])
            super().__init__(*args)

    class SpyIndex(NeighbourIndex):
        def __init__(self, X, nominal_mask=None, queries=None):
            if queries is not None:
                held = any(ref() is not None for ref in training)
                folds[-1].append("test while the training index is held" if held else "test")
            else:
                training.append(weakref.ref(self))
                folds[-1].append("train")
            super().__init__(X, nominal_mask, queries)

    monkeypatch.setattr(bench, "_Fold", SpyFold)
    monkeypatch.setattr(bench, "NeighbourIndex", SpyIndex)
    ds = parse_keel(_mixed_keel(n_pos=20, n_neg=120, seed=4))
    records = run_experiment(FOLD_CFG, datasets=[ds])
    assert not any(r.failed for r in records)
    assert len(folds) == len(training) == 4
    for built in folds:
        assert built == ["train", "test"]


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

    def test_trial_twice_rejected(self, tiny_records):
        # was counted as one trial, with the later record's scores
        with pytest.raises(ValueError, match=r"^records hold \('syn-a', 0, 0, '1nn'\) twice$"):
            report([*tiny_records, replace(tiny_records[0], gm=0.5)])

    def test_category_summary(self, tiny_records):
        cats = report(tiny_records)["categories"]
        assert cats["balance"]["methods"] == ["ncl", "rus"]
        assert "ensemble" not in cats
