"""Experiment orchestration: shared 5x2 folds, per-trial seeding, CSV records
and the win-table / sign-test report.

The whole pipeline is a pure function of the experiment configuration: trial
seeds are derived by hashing (master seed, dataset, repetition, fold, method),
so results are identical for any parallelism degree and execution order.
"""

from __future__ import annotations

import csv
import hashlib
import io
import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import ensemble as ens
from . import selection as sel
from .data import Attribute, Dataset, _build_dataset, _check_count, _known_keys, _read_yaml, \
    apply_scaler, fit_scaler, parse_csv, parse_keel, stratified_two_fold
from .knn import NeighbourIndex, ReferenceSet
from .metrics import bonferroni, confusion, gm, sign_test, tnr, tpr, win_counts

logger = logging.getLogger(__name__)

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "METHODS",
    "CSV_COLUMNS",
    "make_synthetic_dataset",
    "load_dataset",
    "run_experiment",
    "write_records",
    "read_records",
    "report",
]

CSV_COLUMNS = ["dataset", "rep", "fold", "method", "gm", "tpr", "tnr",
               "retained", "millis", "failed"]

# Method table: name -> (properties, trainer).  The properties say whether a
# method uses random selection, balances the class distribution (fully or
# partially), explicitly evaluates GM, or is an ensemble.  A trainer maps
# (fold, seed, cfg) to a ReferenceSet or an EnsembleModel, trained on the
# fold's training half.  A fold trains its methods in this order, then predicts
# with each model in the same order (_run_fold), one neighbour index at a time.
METHODS = {
    "rus": ({"random", "balance"}, lambda f, seed, cfg: sel.rus(f.X, f.y, seed)),
    "re": ({"random", "explicit-gm"},
           lambda f, seed, cfg: sel.random_edit(f.X, f.y, cfg.re_cardinality,
                                                cfg.re_trials, seed, index=f.index())),
    "tl": ({"balance"}, lambda f, seed, cfg: sel.tomek_links(f.X, f.y, index=f.index())),
    "oss": ({"balance"}, lambda f, seed, cfg: sel.oss(f.X, f.y, seed, index=f.index())),
    "tlcnn": ({"balance"}, lambda f, seed, cfg: sel.tl_cnn(f.X, f.y, seed, index=f.index())),
    "ncl": ({"balance"}, lambda f, seed, cfg: sel.ncl(f.X, f.y, index=f.index())),
    "eus": ({"random", "balance", "explicit-gm"},
            lambda f, seed, cfg: sel.eus(f.X, f.y, seed, cfg.eus_params, index=f.index())),
    "pso": ({"random", "explicit-gm"},
            lambda f, seed, cfg: sel.pso_select(f.X, f.y, seed, cfg.pso_params, index=f.index())),
    "rusboost": ({"random", "balance", "ensemble"},
                 lambda f, seed, cfg: ens.rusboost(f.X, f.y, cfg.ensemble_size_boost, seed,
                                                   index=f.index())),
    "1nn": (set(), lambda f, seed, cfg: ReferenceSet(np.arange(len(f.y)), method="1nn")),
    "bag1nn": ({"random", "ensemble"},
               lambda f, seed, cfg: ens.bag_1nn(f.X, f.y, cfg.ensemble_size_bag, seed)),
    "erus": ({"random", "balance", "ensemble"},
             lambda f, seed, cfg: ens.erus(f.X, f.y, cfg.ensemble_size_bag, seed)),
    "eusboost": ({"random", "balance", "explicit-gm", "ensemble"},
                 lambda f, seed, cfg: ens.eusboost(f.X, f.y, cfg.ensemble_size_boost, seed,
                                                   cfg.eus_params, index=f.index())),
}


@dataclass(frozen=True)
class TrialRecord:
    dataset: str
    rep: int
    fold: int
    method: str
    gm: float
    tpr: float
    tnr: float
    retained: int
    millis: int  # always 0: wall time would break byte-identical records
    failed: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one benchmark run."""

    datasets: tuple = ()            # KEEL .dat or CSV file paths
    methods: tuple = ("1nn", "rus", "ncl")
    repetitions: int = 5
    master_seed: int = 0
    jobs: int = 1
    out_dir: str | None = None
    ensemble_size_bag: int = 100
    ensemble_size_boost: int = 10
    eus_params: sel.EusParams = field(default_factory=sel.EusParams)
    pso_params: sel.PsoParams = field(default_factory=sel.PsoParams)
    re_cardinality: int = 25
    re_trials: int = 1000

    def __post_init__(self):
        for name in ("datasets", "methods"):
            value = getattr(self, name)
            if isinstance(value, str):  # would iterate as its characters
                raise ValueError(f"{name} must be a list or tuple, not the string {value!r}")
        if not self.methods:
            raise ValueError("method roster must be nonempty")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}")
        if len(set(self.methods)) < len(self.methods):
            raise ValueError(f"methods names a method twice: {list(self.methods)}")
        for path in self.datasets:
            if not isinstance(path, (str, os.PathLike)):
                raise ValueError(f"datasets entries must be file paths, got {path!r}")
        if self.out_dir == "" or not isinstance(self.out_dir, (str, os.PathLike, type(None))):
            raise ValueError(f"out_dir must be a file path, got {self.out_dir!r}")
        for name, low in {"repetitions": 1, "master_seed": 0, "jobs": 1, "ensemble_size_bag": 1,
                          "ensemble_size_boost": 1, "re_cardinality": 2, "re_trials": 1}.items():
            _check_count(f"ExperimentConfig.{name}", getattr(self, name), low)

    @staticmethod
    def from_yaml(path) -> "ExperimentConfig":
        """Read a config file.  An unknown key, at the top level or inside
        ``eus:`` or ``pso:``, is a ValueError naming the key."""
        raw = _read_yaml(path) or {}
        kwargs = {}
        for key, value in _known_keys(raw, "", _TOP_LEVEL_KEYS).items():
            if key in _PARAM_KEYS:
                name, params_cls = _PARAM_KEYS[key]
                known = {f.name for f in fields(params_cls)}
                kwargs[name] = params_cls(**_known_keys(value, f"{key}.", known))
            elif key in ("datasets", "methods"):
                if not isinstance(value, list):
                    raise ValueError(f"config key {key!r} must be a list, got {value!r}")
                kwargs[key] = tuple(value)
            else:
                kwargs[key] = value
        return ExperimentConfig(**kwargs)


# config-file sections holding the parameters of one search
_PARAM_KEYS = {"eus": ("eus_params", sel.EusParams),
               "pso": ("pso_params", sel.PsoParams)}
_TOP_LEVEL_KEYS = (({f.name for f in fields(ExperimentConfig)}
                    - {name for name, _ in _PARAM_KEYS.values()}) | set(_PARAM_KEYS))


def make_synthetic_dataset(name, n_pos, imbalance_ratio, seed, d=2) -> Dataset:
    """Two unit-variance Gaussian classes, the positive one shifted by 1.5 per axis."""
    rng = np.random.default_rng(seed)
    n_neg = int(round(n_pos * imbalance_ratio))
    Xp = rng.standard_normal((n_pos, d)) + 1.5
    Xn = rng.standard_normal((n_neg, d))
    X = np.vstack([Xp, Xn])
    labels = ["pos"] * n_pos + ["neg"] * n_neg
    schema = tuple(Attribute(name=f"x{j}", kind="numeric") for j in range(d))
    class_attr = Attribute(name="class", kind="nominal", categories=("pos", "neg"))
    return _build_dataset(name, schema, X, labels, class_attr)


def load_dataset(path) -> Dataset:
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".csv":
        return parse_csv(text, name=path.stem)
    return parse_keel(text)


def derive_seed(master_seed, dataset_name, rep, fold, method) -> int:
    """Stable per-trial seed independent of execution order."""
    key = f"{master_seed}|{dataset_name}|{rep}|{fold}|{method}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


class _Fold:
    """One fold: its training half ``X``, ``y`` and test half ``X_test``,
    ``y_test``, scaled once, and its neighbour indexes.

    :meth:`index` builds the index over the training half, or from the test
    half to it, on first use, and keeps it for the fold's other methods.  The
    training index answers every method's lookups, and is released before the
    test index answers every prediction: a fold computes two matrices of
    distances (8 MB each at 1,000 x 1,000), one at a time.
    """

    def __init__(self, ds, rep, fold, train_idx, test_idx):
        scaler = fit_scaler(ds, train_idx)
        self.key = (ds.name, rep, fold)
        self.X = apply_scaler(scaler, ds.X[train_idx])
        self.y = np.asarray(ds.y[train_idx])
        self.X_test = apply_scaler(scaler, ds.X[test_idx])
        self.y_test = ds.y[test_idx]
        self.nominal = ds.nominal_mask if ds.nominal_mask.any() else None
        self._indexes = {}

    def index(self, test=False) -> NeighbourIndex:
        if test not in self._indexes:
            self._indexes[test] = NeighbourIndex(self.X, self.nominal,
                                                 queries=self.X_test if test else None)
        return self._indexes[test]


def _run_method(method, fold: _Fold, seed, cfg: ExperimentConfig):
    """Train one method on the fold; returns (model, distinct training rows
    retained).  A reference set votes as a one-member ensemble."""
    model = METHODS[method][1](fold, seed, cfg)
    if isinstance(model, ReferenceSet):
        model = ens.EnsembleModel((model,), np.ones(1))
    retained = np.count_nonzero(np.bincount(np.concatenate([m.retained for m in model.members])))
    return model, retained


def _run_trial(fold: _Fold, method, cfg: ExperimentConfig):
    """Train one method on the fold: ``(model, retained)``, or None when
    training raised, which fails this trial alone."""
    try:
        return _run_method(method, fold, derive_seed(cfg.master_seed, *fold.key, method), cfg)
    except Exception:
        logger.exception("trial failed: %s rep=%d fold=%d method=%s", *fold.key, method)
        return None


def _record(fold: _Fold, method, trained) -> TrialRecord:
    """Score a trained method on the test half; a failure fails this trial alone."""
    scores, failed = (0.0, 0.0, 0.0, 0), True
    if trained is not None:
        model, retained = trained
        try:
            c = confusion(fold.y_test, ens.predict_ensemble(
                model, fold.X, fold.y, fold.X_test, index=fold.index(test=True)))
            scores, failed = (gm(c), tpr(c), tnr(c), retained), False
        except Exception:
            logger.exception("trial failed: %s rep=%d fold=%d method=%s", *fold.key, method)
    return TrialRecord(*fold.key, method, *scores, 0, failed)


def _run_fold(args) -> list[TrialRecord]:
    """Every trial of one fold, in ``METHODS`` order: train every method over
    the training index, release it, then score every model over the test index."""
    *where, cfg = args
    fold = _Fold(*where)
    trained = {m: _run_trial(fold, m, cfg) for m in METHODS if m in cfg.methods}
    fold._indexes.clear()
    return [_record(fold, m, t) for m, t in trained.items()]


def run_experiment(cfg: ExperimentConfig, datasets=None) -> list[TrialRecord]:
    """Run the full protocol: per dataset one shared fold plan; for every
    (repetition, fold) scale the halves once, train every method on one half,
    then test each on the other.  One task runs a fold's methods, which share
    its neighbour indexes (:class:`_Fold`).  ``datasets``, Dataset objects with
    distinct names, replaces the files of ``cfg.datasets``.

    Returns records sorted by (dataset, rep, fold, method).  When
    ``cfg.out_dir`` is set they are also written to ``records.csv`` there.
    """
    if datasets is None:
        datasets = [load_dataset(path) for path in cfg.datasets]
    if not datasets:
        raise ValueError("datasets is empty: there is nothing to run")
    names = [ds.name for ds in datasets]
    twice = sorted({name for name in names if names.count(name) > 1})
    if twice:
        raise ValueError(f"datasets are named twice: {twice}")
    tasks = []
    for ds in datasets:
        plan = stratified_two_fold(ds, derive_seed(cfg.master_seed, ds.name, -1, -1,
                                                   "folds"), cfg.repetitions)
        for rep, (half1, half2) in enumerate(plan):
            for fold, (train_idx, test_idx) in enumerate([(half1, half2),
                                                          (half2, half1)]):
                tasks.append((ds, rep, fold, train_idx, test_idx, cfg))

    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            folds = list(pool.map(_run_fold, tasks, chunksize=1))
    else:
        folds = [_run_fold(t) for t in tasks]

    records = sorted((r for fold in folds for r in fold),
                     key=lambda r: (r.dataset, r.rep, r.fold, r.method))
    if cfg.out_dir:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_records(records, out / "records.csv")
    return records


def write_records(records, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for r in records:
            w.writerow([r.dataset, r.rep, r.fold, r.method,
                        f"{r.gm:.12f}", f"{r.tpr:.12f}", f"{r.tnr:.12f}",
                        r.retained, r.millis, int(r.failed)])


def read_records(path) -> list[TrialRecord]:
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path} lacks the records columns {missing}")
        for row in reader:
            records.append(TrialRecord(
                dataset=row["dataset"], rep=int(row["rep"]), fold=int(row["fold"]),
                method=row["method"], gm=float(row["gm"]), tpr=float(row["tpr"]),
                tnr=float(row["tnr"]), retained=int(row["retained"]),
                millis=int(row["millis"]), failed=bool(int(row["failed"])),
            ))
    return records


def _gm_matrix(records):
    """Pivot records into (trial keys, methods, trials-by-methods GM matrix)."""
    methods = sorted({r.method for r in records})
    by_key = {}
    for r in records:
        row = by_key.setdefault((r.dataset, r.rep, r.fold), {})
        if r.method in row:
            raise ValueError(f"records hold {(r.dataset, r.rep, r.fold, r.method)} twice")
        row[r.method] = r
    complete = [k for k, row in sorted(by_key.items())
                if all(m in row and not row[m].failed for m in methods)]
    if len(complete) < len(by_key):
        logger.warning("report: %d incomplete trials excluded",
                       len(by_key) - len(complete))
    M = np.array([[by_key[k][m].gm for m in methods] for k in complete])
    return complete, methods, M


def report(records):
    """Win table, pairwise one-sided sign-test matrix and category summary.

    Returns a dict with keys ``methods``, ``wins``, ``p_matrix``,
    ``categories``, ``n_trials`` and ``markdown``, which stars a p-value below
    0.05 after Bonferroni over the m*(m-1) ordered pairs of m methods.
    """
    alpha = 0.05
    keys, methods, M = _gm_matrix(records)
    if M.size == 0:
        raise ValueError("no complete trials to report on")
    n_methods = len(methods)
    n_comparisons = max(1, n_methods * (n_methods - 1))
    wins = win_counts(M)

    P = np.ones((n_methods, n_methods))
    for i in range(n_methods):
        for j in range(n_methods):
            if i == j:
                continue
            P[i, j] = sign_test(M[:, i], M[:, j]).p_value

    categories = {}
    for prop in ("random", "balance", "explicit-gm", "ensemble"):
        members = [m for m in methods if prop in METHODS[m][0]]
        if members:
            idx = [methods.index(m) for m in members]
            categories[prop] = {
                "methods": members,
                "average_wins": float(np.mean(wins[idx])),
            }

    md = io.StringIO()
    md.write(f"# Benchmark report ({len(keys)} trials, {n_methods} methods)\n\n")
    md.write("## Win counts (ties split)\n\n| method | wins |\n|---|---|\n")
    for m, w in sorted(zip(methods, wins), key=lambda t: -t[1]):
        md.write(f"| {m} | {w:.2f} |\n")
    md.write("\n## One-sided sign-test p-values (row beats column)\n\n")
    md.write("Significant at level "
             f"{alpha} after Bonferroni (m={n_comparisons}) marked with *.\n\n")
    md.write("| |" + "|".join(methods) + "|\n")
    md.write("|---" * (n_methods + 1) + "|\n")
    for i, m in enumerate(methods):
        cells = []
        for j in range(n_methods):
            if i == j:
                cells.append("-")
            else:
                mark = "*" if bonferroni(P[i, j], n_comparisons) < alpha else ""
                cells.append(f"{P[i, j]:.3f}{mark}")
        md.write(f"| {m} |" + "|".join(cells) + "|\n")
    md.write("\n## Category summary (average wins)\n\n| property | methods | avg wins |\n|---|---|---|\n")
    for prop, info in categories.items():
        md.write(f"| {prop} | {', '.join(info['methods'])} | "
                 f"{info['average_wins']:.2f} |\n")
    return {
        "methods": methods,
        "wins": wins,
        "p_matrix": P,
        "categories": categories,
        "markdown": md.getvalue(),
        "n_trials": len(keys),
    }
