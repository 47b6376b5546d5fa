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
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import ensemble as ens
from . import selection as sel
from .data import Dataset, apply_scaler, fit_scaler, parse_csv, parse_keel, \
    stratified_two_fold
from .knn import ReferenceSet, classify_1nn
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
# (X, y, seed, cfg, nominal_mask) to a ReferenceSet or an EnsembleModel.
METHODS = {
    "1nn": (set(), lambda X, y, seed, cfg, nom: ReferenceSet(np.arange(len(y)),
                                                             method="1nn")),
    "bag1nn": ({"random", "ensemble"},
               lambda X, y, seed, cfg, nom: ens.bag_1nn(X, y, cfg.ensemble_size_bag,
                                                        seed)),
    "rus": ({"random", "balance"}, lambda X, y, seed, cfg, nom: sel.rus(X, y, seed)),
    "erus": ({"random", "balance", "ensemble"},
             lambda X, y, seed, cfg, nom: ens.erus(X, y, cfg.ensemble_size_bag, seed)),
    "rusboost": ({"random", "balance", "ensemble"},
                 lambda X, y, seed, cfg, nom: ens.rusboost(X, y, cfg.ensemble_size_boost,
                                                           seed, nom)),
    "eusboost": ({"random", "balance", "explicit-gm", "ensemble"},
                 lambda X, y, seed, cfg, nom: ens.eusboost(X, y, cfg.ensemble_size_boost,
                                                           seed, cfg.eus_params, nom)),
    "eus": ({"random", "balance", "explicit-gm"},
            lambda X, y, seed, cfg, nom: sel.eus(X, y, seed, cfg.eus_params, nom)),
    "pso": ({"random", "explicit-gm"},
            lambda X, y, seed, cfg, nom: sel.pso_select(X, y, seed, cfg.pso_params, nom)),
    "tl": ({"balance"}, lambda X, y, seed, cfg, nom: sel.tomek_links(X, y, nom)),
    "oss": ({"balance"}, lambda X, y, seed, cfg, nom: sel.oss(X, y, seed, nom)),
    "tlcnn": ({"balance"}, lambda X, y, seed, cfg, nom: sel.tl_cnn(X, y, seed, nom)),
    "ncl": ({"balance"}, lambda X, y, seed, cfg, nom: sel.ncl(X, y, nom)),
    "re": ({"random", "explicit-gm"},
           lambda X, y, seed, cfg, nom: sel.random_edit(X, y, cfg.re_cardinality,
                                                        cfg.re_trials, seed, nom)),
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
    millis: int
    failed: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one benchmark run."""

    datasets: tuple = ()            # paths (str) or Dataset objects
    methods: tuple = ("1nn", "rus", "ncl")
    repetitions: int = 5
    master_seed: int = 0
    jobs: int = 1
    out_dir: str | None = None
    record_timing: bool = False     # wall time breaks byte-identical output
    ensemble_size_bag: int = 100
    ensemble_size_boost: int = 10
    eus_params: sel.EusParams = field(default_factory=sel.EusParams)
    pso_params: sel.PsoParams = field(default_factory=sel.PsoParams)
    re_cardinality: int = 25
    re_trials: int = 1000

    def __post_init__(self):
        if not self.methods:
            raise ValueError("method roster must be nonempty")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}")

    @staticmethod
    def from_yaml(path) -> "ExperimentConfig":
        """Read a config file.  An unknown key, at the top level or inside
        ``eus:`` or ``pso:``, is a ValueError naming the key."""
        import yaml

        with open(path) as fh:
            raw = yaml.safe_load(fh) or {}
        kwargs = {}
        for key, value in _known_keys(raw, "", _TOP_LEVEL_KEYS).items():
            if key in _PARAM_KEYS:
                name, params_cls = _PARAM_KEYS[key]
                known = {f.name for f in fields(params_cls)}
                kwargs[name] = params_cls(**_known_keys(value, f"{key}.", known))
            elif key in ("datasets", "methods"):
                kwargs[key] = tuple(value)
            else:
                kwargs[key] = value
        return ExperimentConfig(**kwargs)


# config-file sections holding the parameters of one search
_PARAM_KEYS = {"eus": ("eus_params", sel.EusParams),
               "pso": ("pso_params", sel.PsoParams)}
_TOP_LEVEL_KEYS = (({f.name for f in fields(ExperimentConfig)}
                    - {name for name, _ in _PARAM_KEYS.values()}) | set(_PARAM_KEYS))


def _known_keys(section, prefix, known) -> dict:
    if not isinstance(section, dict):
        raise ValueError(f"config section {prefix.rstrip('.') or 'top level'} "
                         "must be a mapping")
    for key in section:
        if key not in known:
            raise ValueError(f"unknown config key {prefix + str(key)!r}")
    return section


def make_synthetic_dataset(name, n_pos, imbalance_ratio, seed, d=2,
                           separation=1.5) -> Dataset:
    """Overlapping-Gaussian two-class dataset with a given imbalance ratio."""
    from .data import Attribute, _build_dataset

    rng = np.random.default_rng(seed)
    n_neg = int(round(n_pos * imbalance_ratio))
    Xp = rng.standard_normal((n_pos, d)) + separation
    Xn = rng.standard_normal((n_neg, d))
    X = np.vstack([Xp, Xn])
    labels = ["pos"] * n_pos + ["neg"] * n_neg
    schema = tuple(
        Attribute(name=f"x{j}", kind="numeric",
                  lo=float(X[:, j].min()), hi=float(X[:, j].max()))
        for j in range(d)
    )
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


def _run_method(method, X, y, seed, cfg: ExperimentConfig, nominal_mask):
    """Train one method; returns (predict(queries), retained count)."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    model = METHODS[method][1](X, y, seed, cfg, nominal_mask)
    if isinstance(model, ReferenceSet):
        return lambda Q: classify_1nn(X, y, model, Q, nominal_mask), len(model)
    retained = len(set().union(*(set(m.retained.tolist()) for m in model.members)))
    return (lambda Q: ens.predict_ensemble(model, X, y, Q, nominal_mask)), retained


def _run_trial(args):
    ds, rep, fold, train_idx, test_idx, method, cfg = args
    seed = derive_seed(cfg.master_seed, ds.name, rep, fold, method)
    t0 = time.perf_counter()
    try:
        scaler = fit_scaler(ds, train_idx)
        X_train = apply_scaler(scaler, ds.X[train_idx])
        X_test = apply_scaler(scaler, ds.X[test_idx])
        y_train = np.asarray(ds.y[train_idx])
        nominal = ds.nominal_mask if ds.nominal_mask.any() else None
        predict, retained = _run_method(method, X_train, y_train, seed, cfg, nominal)
        pred = predict(X_test)
        c = confusion(ds.y[test_idx], pred)
        millis = int((time.perf_counter() - t0) * 1000) if cfg.record_timing else 0
        return TrialRecord(ds.name, rep, fold, method, gm(c), tpr(c), tnr(c),
                           retained, millis, failed=False)
    except Exception:
        logger.exception("trial failed: %s rep=%d fold=%d method=%s",
                         ds.name, rep, fold, method)
        millis = int((time.perf_counter() - t0) * 1000) if cfg.record_timing else 0
        return TrialRecord(ds.name, rep, fold, method, 0.0, 0.0, 0.0, 0, millis,
                           failed=True)


def run_experiment(cfg: ExperimentConfig, datasets=None) -> list[TrialRecord]:
    """Run the full protocol: per dataset one shared fold plan; for every
    (repetition, fold, method) train on one half and test on the other.

    Returns records sorted by (dataset, rep, fold, method).  When
    ``cfg.out_dir`` is set they are also written to ``records.csv`` there.
    """
    if datasets is None:
        datasets = [d if isinstance(d, Dataset) else load_dataset(d)
                    for d in cfg.datasets]
    tasks = []
    for ds in datasets:
        plan = stratified_two_fold(ds, derive_seed(cfg.master_seed, ds.name, -1, -1,
                                                   "folds"), cfg.repetitions)
        for rep, (half1, half2) in enumerate(plan.repetitions):
            for fold, (train_idx, test_idx) in enumerate([(half1, half2),
                                                          (half2, half1)]):
                for method in cfg.methods:
                    tasks.append((ds, rep, fold, train_idx, test_idx, method, cfg))

    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            records = list(pool.map(_run_trial, tasks, chunksize=1))
    else:
        records = [_run_trial(t) for t in tasks]

    records.sort(key=lambda r: (r.dataset, r.rep, r.fold, r.method))
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
        for row in csv.DictReader(fh):
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
        by_key.setdefault((r.dataset, r.rep, r.fold), {})[r.method] = r
    keys = sorted(by_key)
    complete, dropped = [], 0
    for k in keys:
        row = by_key[k]
        if all(m in row and not row[m].failed for m in methods):
            complete.append(k)
        else:
            dropped += 1
    if dropped:
        logger.warning("report: %d incomplete trials excluded", dropped)
    M = np.array([[by_key[k][m].gm for m in methods] for k in complete])
    return complete, methods, M


def report(records, alpha=0.05, bonferroni_m=None):
    """Win table, pairwise one-sided sign-test matrix and category summary.

    ``bonferroni_m`` defaults to the full ordered-matrix count m*(m-1) for m
    methods.  Returns a dict with keys ``methods``, ``wins``, ``p_matrix``,
    ``significant`` (Bonferroni at ``alpha``), ``categories`` and ``markdown``.
    """
    keys, methods, M = _gm_matrix(records)
    if M.size == 0:
        raise ValueError("no complete trials to report on")
    n_methods = len(methods)
    if bonferroni_m is None:
        bonferroni_m = max(1, n_methods * (n_methods - 1))
    wins = win_counts(M)

    P = np.ones((n_methods, n_methods))
    sig = np.zeros((n_methods, n_methods), dtype=bool)
    for i in range(n_methods):
        for j in range(n_methods):
            if i == j:
                continue
            res = sign_test(M[:, i], M[:, j])
            P[i, j] = res.p_value
            sig[i, j] = bonferroni(res.p_value, bonferroni_m) < alpha

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
             f"{alpha} after Bonferroni (m={bonferroni_m}) marked with *.\n\n")
    md.write("| |" + "|".join(methods) + "|\n")
    md.write("|---" * (n_methods + 1) + "|\n")
    for i, m in enumerate(methods):
        cells = []
        for j in range(n_methods):
            if i == j:
                cells.append("-")
            else:
                mark = "*" if sig[i, j] else ""
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
        "significant": sig,
        "categories": categories,
        "markdown": md.getvalue(),
        "n_trials": len(keys),
    }
