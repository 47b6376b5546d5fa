"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS/FAIL line with the measured
quantities before asserting, so a failing criterion still reports its numbers.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from gmsel import theory
from gmsel.bench import (
    ExperimentConfig,
    _gm_matrix,
    make_synthetic_dataset,
    run_experiment,
)
from gmsel.data import KeelParseError, KeelValidationError, parse_keel
from gmsel.ensemble import bag_1nn, erus, eusboost, predict_ensemble, rusboost
from gmsel.knn import classify_1nn, classify_knn
from gmsel.metrics import bonferroni, sign_test, win_counts
from gmsel.selection import EusParams, eus, rus


def _line(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} -- {detail}")


def test_criterion_1_exact_1d_boundary():
    t0 = time.perf_counter()
    model = theory.example_uniform_model()
    _, _, gm3 = theory.gm_boundary_1d(model, 3)
    _, _, gm5 = theory.gm_boundary_1d(model, 5)
    b_star, gm_star = theory.best_boundary_1d(model)
    elapsed = time.perf_counter() - t0

    err3 = abs(gm3 - math.sqrt(1 / 3))
    err5 = abs(gm5 - math.sqrt(25 / 63))
    ok = err3 <= 1e-12 and err5 <= 1e-12 and b_star == 5.0 \
        and abs(gm_star - 0.6299) < 5e-5 and elapsed < 1.0
    _line(1, ok, f"GM(3) err {err3:.1e}, GM(5) err {err5:.1e}, "
                 f"b*={b_star}, GM*={gm_star:.6f}, {elapsed:.2f}s")
    assert err3 <= 1e-12 and err5 <= 1e-12
    assert b_star == 5.0
    assert abs(gm_star - 0.6299) < 5e-5
    assert elapsed < 1.0


def test_criterion_2_gaussian_mixture_demo():
    t0 = time.perf_counter()
    cbs, bbs = [], []
    for seed in range(20):
        out = theory.cb_bb_demo(seed=seed, include_re=False)
        cbs.append(out["cb"])
        bbs.append(out["bb"])
    cb_mean, bb_mean = float(np.mean(cbs)), float(np.mean(bbs))
    bb_dominates = sum(b > c for b, c in zip(bbs, cbs))
    full = theory.cb_bb_demo(seed=0, re_trials=10_000, include_re=True)
    elapsed = time.perf_counter() - t0

    ok = (abs(cb_mean - 0.6383) <= 0.03 and abs(bb_mean - 0.8322) <= 0.03
          and bb_dominates == 20 and full["re"] >= full["bb"] - 0.03
          and elapsed < 300)
    _line(2, ok, f"CB mean {cb_mean:.4f} (target 0.6383+-0.03), "
                 f"BB mean {bb_mean:.4f} (target 0.8322+-0.03), "
                 f"BB>CB {bb_dominates}/20, RE {full['re']:.4f} vs "
                 f"BB {full['bb']:.4f}, {elapsed:.0f}s")
    assert bb_dominates == 20
    assert full["re"] >= full["bb"] - 0.03
    assert abs(bb_mean - 0.8322) <= 0.03
    assert elapsed < 300
    assert abs(cb_mean - 0.6383) <= 0.03


def test_criterion_3_cell_inclusion():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    violations = 0
    for _ in range(100):
        n = int(rng.integers(5, 31))
        d = int(rng.integers(1, 5))
        points = rng.standard_normal((n, d))
        i = int(rng.integers(0, n))
        rep = theory.lemma_check(points, i, probe_count=10_000,
                                 seed=int(rng.integers(0, 2**31)))
        violations += rep.inclusion_violations
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60
    _line(3, ok, f"100 configurations x 10,000 probes: {violations} inclusion "
                 f"violations, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 60


def test_criterion_4_removal_improvement():
    t0 = time.perf_counter()
    confirmed, checked = theory.prop1_check(200, 10_000, 0)
    elapsed = time.perf_counter() - t0
    rate = confirmed / checked
    ok = rate >= 0.99 and elapsed < 300
    _line(4, ok, f"{confirmed}/{checked} confirmed improvements "
                 f"({100 * rate:.1f}%), {elapsed:.0f}s")
    assert rate >= 0.99
    assert elapsed < 300


def test_criterion_5_exhaustive_search_nonmonotone():
    t0 = time.perf_counter()
    pts, labels, model = theory.nonmonotone_example()
    per_card, (best, best_gm) = theory.exhaustive_search(
        pts, labels, model, sample_count=2000, seed=0)
    elapsed = time.perf_counter() - t0

    curve = np.array([per_card[k][1] for k in sorted(per_card)])
    full_gm = per_card[len(labels)][1]
    diffs = np.diff(curve)
    signs = np.sign(diffs[diffs != 0])
    changes = int(np.sum(signs[1:] != signs[:-1]))
    ok = best_gm > full_gm and changes >= 1 and elapsed < 120
    _line(5, ok, f"best GM {best_gm:.4f} > full-set GM {full_gm:.4f}, "
                 f"{changes} non-monotonic steps, {elapsed:.0f}s")
    assert best_gm > full_gm
    assert changes >= 1
    assert elapsed < 120


def test_criterion_6_selection_beats_1nn():
    irs = [5, 7, 9, 12, 15, 18, 21, 24, 27, 30]
    datasets = [make_synthetic_dataset(f"syn{i:02d}", n_pos=25,
                                       imbalance_ratio=ir, seed=100 + i)
                for i, ir in enumerate(irs)]
    cfg = ExperimentConfig(methods=("1nn", "rus", "ncl"), repetitions=5)
    records = run_experiment(cfg, datasets=datasets)
    _, methods, M = _gm_matrix(records)
    base = M[:, methods.index("1nn")]
    p_rus = sign_test(M[:, methods.index("rus")], base).p_value
    p_ncl = sign_test(M[:, methods.index("ncl")], base).p_value
    ok = p_rus < 0.05 and p_ncl < 0.05 and M.shape[0] == 100
    _line(6, ok, f"10 datasets (IR 5..30), 100 trials: RUS vs 1-NN p={p_rus:.2e}, "
                 f"NCL vs 1-NN p={p_ncl:.2e}")
    assert M.shape[0] == 100
    assert p_rus < 0.05
    assert p_ncl < 0.05


def test_criterion_7_statistics_oracle():
    p_sweep = sign_test(np.ones(10), np.zeros(10)).p_value
    p_five = sign_test([1] * 5 + [0] * 5, [0] * 5 + [1] * 5).p_value
    clamped = bonferroni(0.5, 132)
    M = np.random.default_rng(0).random((37, 5))
    total_err = abs(win_counts(M).sum() - 37)
    ok = (p_sweep == pytest.approx(2**-10) and p_five == pytest.approx(638 / 1024)
          and clamped == 1.0 and total_err < 1e-9)
    _line(7, ok, f"sign-test 10/10 p={p_sweep:.3e} (2^-10), 5/10 p={p_five:.4f} "
                 f"(638/1024), bonferroni clamp {clamped}, win-total err {total_err:.1e}")
    assert p_sweep == pytest.approx(2**-10)
    assert p_five == pytest.approx(638 / 1024)
    assert clamped == 1.0
    assert total_err < 1e-9


def test_criterion_8_byte_identical_runs(tmp_path):
    datasets = [make_synthetic_dataset("det-a", 10, 6, seed=0),
                make_synthetic_dataset("det-b", 12, 9, seed=1)]
    dumps = []
    for tag, jobs in (("serial", 1), ("serial2", 1), ("parallel", 4)):
        cfg = ExperimentConfig(methods=("1nn", "rus", "tl", "ncl", "rusboost"),
                               repetitions=3, jobs=jobs,
                               out_dir=str(tmp_path / tag))
        run_experiment(cfg, datasets=datasets)
        dumps.append((tmp_path / tag / "records.csv").read_bytes())
    ok = dumps[0] == dumps[1] == dumps[2]
    _line(8, ok, f"3 runs (jobs 1/1/4) produced "
                 f"{len(set(dumps))} distinct CSV byte strings")
    assert dumps[0] == dumps[1] == dumps[2]


def test_criterion_9_degenerate_inputs():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(1.5, 1.0, (8, 2)), rng.normal(0.0, 1.0, (24, 2))])
    y = np.array([1] * 8 + [0] * 24)
    q = rng.normal(0.5, 1.5, (30, 2))
    checks = []

    # single-member ensembles equal their base selection bit-exactly
    bag = bag_1nn(X, y, size=1, seed=3)
    checks.append(np.array_equal(predict_ensemble(bag, X, y, q),
                                 classify_1nn(X, y, bag.members[0], q)))
    e = erus(X, y, size=1, seed=3)
    checks.append(np.array_equal(e.members[0].retained,
                                 rus(X, y, e.members[0].seed).retained))
    rb = rusboost(X, y, size=1, seed=3)
    checks.append(np.array_equal(rb.members[0].retained,
                                 rus(X, y, rb.members[0].seed).retained))
    params = EusParams(population=8, generations=3)
    eb = eusboost(X, y, size=1, seed=3, params=params)
    checks.append(np.array_equal(eb.members[0].retained,
                                 eus(X, y, eb.members[0].seed, params).retained))

    # k=1 k-NN equals 1-NN
    ref = np.arange(len(y))
    checks.append(np.array_equal(classify_knn(X, y, ref, q, k=1),
                                 classify_1nn(X, y, ref, q)))

    # RUS on balanced data retains everything
    yb = np.array([1] * 8 + [0] * 8)
    checks.append(set(rus(X[:16], yb, seed=0).retained) == set(range(16)))

    # documented parse errors on empty/edge inputs
    head = "@relation t\n@attribute x real [0.0, 1.0]\n@attribute class {a, b}\n@data\n"
    try:
        parse_keel(head)  # empty data section
        checks.append(False)
    except KeelValidationError:
        checks.append(True)
    try:
        parse_keel(head + "0.5, a\n0.6, a\n")  # single class
        checks.append(False)
    except KeelValidationError:
        checks.append(True)
    try:
        parse_keel("@relation t\n@attribute broken\n@data\n")
        checks.append(False)
    except KeelParseError as exc:
        checks.append(exc.line_no == 2)

    ok = all(checks)
    _line(9, ok, f"{sum(checks)}/{len(checks)} degenerate-input checks hold")
    assert all(checks)
