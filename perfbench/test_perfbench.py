"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tracer import Spans, Tracer, boost_effort, layer_metrics, self_times, tail_percentile  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    #   a [0, 10]
    #   +-- b [1, 4]
    #   +-- c [5, 9]
    #       +-- d [6, 8]
    #   e [12, 13]          (a second root)
    start = [0.0, 1.0, 5.0, 6.0, 12.0]
    end = [10.0, 4.0, 9.0, 8.0, 13.0]
    parent = [-1, 0, 0, 2, -1]
    assert self_times(start, end, parent).tolist() == [3.0, 3.0, 2.0, 2.0, 1.0]


def test_self_times_sum_to_root_time():
    spans = Spans(["a", "b", "c", "d"], [-1, 0, 1, 0], [0.0, 0.5, 1.0, 3.0],
                  [5.0, 2.5, 2.0, 4.0])
    assert spans.self_time.sum() == pytest.approx(5.0)
    assert spans.under(["b"]).tolist() == [False, False, True, False]


@pytest.mark.parametrize("n, pct, rank", [
    (520, 95.0, 494),   # p99 would leave 5 beyond
    (52, 75.0, 39),     # p90 would leave 5 beyond
    (20, 50.0, 10),     # exactly 10 beyond the median
    (20000, 99.9, 19980),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct, rank):
    values = list(range(1, n + 1))[::-1]
    got = tail_percentile(values)
    assert got == (pct, float(rank))
    assert sum(v > got[1] for v in values) >= 10


def test_tail_needs_ten_samples_beyond_the_median():
    assert tail_percentile(range(19)) is None
    assert tail_percentile([]) is None


def test_useful_ratio_counts_every_member_build_as_an_attempt():
    # rusboost: 12 rus builds (2 retried) for 10 accepted members; the rus
    # calls of erus and the classify_1nn calls of boosting are not attempts
    names = ["ensemble.rusboost"] + ["selection.rus"] * 12 + ["knn.classify_1nn"] * 12
    names += ["ensemble.erus"] + ["selection.rus"] * 5
    parent = [-1] + [0] * 24 + [-1] + [25] * 5
    n = len(names)
    spans = Spans(names, parent, np.arange(n, dtype=float), np.arange(n) + 0.5,
                  counters={"ensemble.rusboost.members": 10})
    assert boost_effort(spans, "ensemble.rusboost") == (12, 10, 10 / 12)
    assert boost_effort(spans, "ensemble.eusboost") == (0, 0, 0.0)


def _toy(n_pos=8, n_neg=40, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.standard_normal((n_pos, 2)) + 1.0,
                   rng.standard_normal((n_neg, 2))])
    return X, np.array([1] * n_pos + [0] * n_neg)


def test_tracer_wraps_names_bound_by_importing_modules(tmp_path):
    import gmsel.cli  # noqa: F401  (loads every layer)
    from gmsel import ensemble, knn, selection, theory

    original = knn.pairwise_distances
    X, y = _toy()
    tracer = Tracer()
    with tracer.installed():
        assert selection.pairwise_distances is not original
        assert theory.pairwise_distances is not original
        selection.cnn_mod(X, y, seed=1)
        selection.eus(X, y, seed=2, params=selection.EusParams(population=4, generations=2))
        model = ensemble.rusboost(X, y, size=3, seed=3)
    assert knn.pairwise_distances is original
    assert selection.pairwise_distances is original

    tracer.save(tmp_path / "spans.npz")
    spans = Spans.load([tmp_path / "spans.npz"])
    m = layer_metrics(spans)
    assert m["selection.cnn_mod.calls"] == 1
    assert m["selection.cnn_mod.classify_calls"] == (m["knn.classify_1nn.calls"]
                                                 - m["ensemble.rusboost.attempts"])
    assert m["selection.fitness_evals"] == 4 * (2 + 1)
    assert m["ensemble.rusboost.members"] == model.size
    assert m["ensemble.rusboost.attempts"] >= model.size
    assert m["knn.pairwise_distances.cells"] > 0
    assert m["knn.pairwise_distances.calls"] == int(np.sum(spans.named("knn.pairwise_distances")))
    # nothing ran under a second root, so self times add up to the roots' time
    roots = spans.parent < 0
    assert spans.self_time.sum() == pytest.approx(spans.duration[roots].sum())


def test_generated_keel_files_parse(tmp_path):
    from run import write_inputs

    from gmsel.data import parse_keel

    paths, reps = write_inputs("fitness-large", 5, tmp_path)
    assert reps == 1
    mix = parse_keel(Path(paths[1]).read_text())
    assert (mix.n_instances, mix.n_pos) == (2000, 100)
    assert mix.nominal_mask.tolist() == [False] * 6 + [True] * 2
    again, _ = write_inputs("fitness-large", 5, tmp_path / "again")
    assert Path(again[0]).read_text() == Path(paths[0]).read_text()

    paths, reps = write_inputs("roster", 5, tmp_path / "roster")
    sizes = [parse_keel(Path(p).read_text()).n_instances for p in paths]
    assert (len(paths), reps, min(sizes), max(sizes)) == (10, 2, 150, 775)
