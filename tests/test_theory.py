import hashlib
import itertools
import json
import math
import multiprocessing
import os
from fractions import Fraction
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmsel import theory
from gmsel.knn import NeighbourIndex
from gmsel.theory import (
    DensityModel,
    GaussianMixture2D,
    LemmaReport,
    PiecewiseUniform1D,
    asymptotic_gm,
    bayes_classify,
    best_boundary_1d,
    cb_bb_demo,
    example_mixture_model,
    example_uniform_model,
    exhaustive_search,
    gm_boundary_1d,
    lemma_check,
    lemma_sweep,
    model_from_config,
    nonmonotone_example,
    prop1_check,
    removal_analysis,
    voronoi_neighbors,
)


def gap_model(pos=(0, 1), neg=(9, 10)):
    """Non-overlapping unit-mass uniforms."""
    return DensityModel(
        positive=PiecewiseUniform1D([(Fraction(pos[0]), Fraction(pos[1]), Fraction(1))]),
        negative=PiecewiseUniform1D([(Fraction(neg[0]), Fraction(neg[1]), Fraction(1))]),
        prior_positive=0.5,
    )


class TestPiecewiseUniform:
    def test_cdf_exact_fractions(self):
        d = PiecewiseUniform1D([(Fraction(0), Fraction(9), Fraction(1, 9))])
        assert d.cdf(Fraction(3)) == Fraction(1, 3)
        assert d.cdf(0) == 0 and d.cdf(100) == 1

    def test_density_lookup(self):
        d = PiecewiseUniform1D([(0.0, 0.5, 1.0), (0.5, 1.0, 1.0)])
        assert d.density_at(0.25) == 1.0
        assert d.density_at(2.0) == 0

    def test_bad_mass_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseUniform1D([(0.0, 1.0, 0.5)])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseUniform1D([(0.0, 2.0, 0.25), (1.0, 3.0, 0.25)])

    def test_sampling_within_support(self):
        d = PiecewiseUniform1D([(2.0, 3.0, 1.0)])
        x = d.sample(500, np.random.default_rng(0))
        assert x.shape == (500, 1)
        assert np.all((x >= 2.0) & (x < 3.0))


def _stacked_components(g, counts, rng):
    """The sampler's first form, a draw per component, stacked: the oracle
    for the numbers drawn and the generator's state after them."""
    return np.vstack([mean + rng.standard_normal((c, 2)) * np.sqrt(var)
                      for (_, mean, var), c in zip(g.components, counts)])


def _stacked_sample(g, n, rng):
    counts = rng.multinomial(n, np.array([w for w, _, _ in g.components]))
    return _stacked_components(g, counts, rng)[rng.permutation(n)]


class TestGaussianMixture:
    def test_pdf_single_standard_normal(self):
        g = GaussianMixture2D([(1.0, [0.0, 0.0], [1.0, 1.0])])
        assert g.pdf([[0.0, 0.0]])[0] == pytest.approx(1 / (2 * np.pi))

    def test_pdf_integrates_to_one(self):
        g = example_mixture_model().positive
        xs = np.linspace(-8, 8, 401)
        X, Y = np.meshgrid(xs, xs)
        grid = np.column_stack([X.ravel(), Y.ravel()])
        dx = xs[1] - xs[0]
        assert g.pdf(grid).sum() * dx * dx == pytest.approx(1.0, abs=1e-3)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GaussianMixture2D([(0.5, [0, 0], [1, 1])])

    @pytest.mark.parametrize("mean, var", [([0.0], [1.0, 1.0]), ([0.0, 0.0, 0.0], [1.0, 1.0]),
                                           ([0.0, 0.0], [1.0]), ([[0.0, 0.0]], [1.0, 1.0])])
    def test_mean_and_variance_must_be_2_vectors(self, mean, var):
        # a 1-vector mean was broadcast to both coordinates by pdf
        with pytest.raises(ValueError, match="^component 1: mean and variance must be 2-vectors$"):
            GaussianMixture2D([(0.5, [0.0, 0.0], [1.0, 1.0]), (0.5, mean, var)])

    def test_sample_shape(self):
        g = example_mixture_model().positive
        assert g.sample(100, np.random.default_rng(1)).shape == (100, 2)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 10_000])
    def test_sample_draws_the_stacked_form(self, n):
        model = example_mixture_model()
        rng, oracle = np.random.default_rng(n), np.random.default_rng(n)
        for g in (model.positive, model.negative):  # one stream, as probes are drawn
            got, want = g.sample(n, rng), _stacked_sample(g, n, oracle)
            assert got.shape == want.shape == (n, 2)
            assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == oracle.bit_generator.state

    @pytest.mark.parametrize("counts", [(300, 200), (0, 5), (4, 0), (0, 0)])
    def test_sample_components_draws_the_stacked_form(self, counts):
        g = example_mixture_model().positive
        rng, oracle = np.random.default_rng(9), np.random.default_rng(9)
        got, want = g.sample_components(counts, rng), _stacked_components(g, counts, oracle)
        assert got.tobytes() == want.tobytes() and got.shape == (sum(counts), 2)
        assert rng.bit_generator.state == oracle.bit_generator.state


class TestBoundary1D:
    def test_rates_at_pdf_intersection(self):
        # at the density crossover the positive side is fully captured
        tpr, tnr, g = gm_boundary_1d(example_uniform_model(), 3)
        assert tpr == pytest.approx(1 / 3)
        assert tnr == 1.0
        assert g == pytest.approx(math.sqrt(1 / 3))

    def test_bayes_rules_switch_at_the_pdf_intersection(self):
        # demo 01: the densities cross at b = 3; equal priors make both rules agree
        for balanced in (False, True):
            got = bayes_classify(example_uniform_model(), [[2.9], [3.1]], balanced=balanced)
            assert got.tolist() == [1, 0]

    def test_optimum_is_past_the_intersection(self):
        b, g = best_boundary_1d(example_uniform_model())
        assert b == 5.0
        assert g == pytest.approx(math.sqrt(Fraction(5, 9) * Fraction(5, 7)), abs=1e-12)
        tpr, tnr, _ = gm_boundary_1d(example_uniform_model(), b)
        assert (tpr, tnr) == (pytest.approx(5 / 9), pytest.approx(5 / 7))

    def test_gap_plateau_midpoint(self):
        b, g = best_boundary_1d(gap_model())
        assert b == 5.0  # midpoint of the zero-density gap [1, 9]
        assert g == 1.0

    def test_symmetric_overlap_vertex(self):
        model = DensityModel(
            positive=PiecewiseUniform1D([(Fraction(0), Fraction(2), Fraction(1, 2))]),
            negative=PiecewiseUniform1D([(Fraction(1), Fraction(3), Fraction(1, 2))]),
            prior_positive=0.5,
        )
        b, g = best_boundary_1d(model)
        assert b == pytest.approx(1.5)
        assert g == pytest.approx(0.75)


class TestAsymptoticGm:
    def test_separable_prototypes_perfect(self):
        g, se = asymptotic_gm([[0.5], [9.5]], [1, 0], gap_model(), seed=0)
        assert g == 1.0 and se == 0.0

    def test_one_class_missing_is_zero(self):
        g, se = asymptotic_gm([[0.5], [0.6]], [1, 1], gap_model())
        assert g == 0.0

    def test_matches_exact_boundary_analysis(self):
        # prototypes at 2.5 and 7.5 induce the boundary 5.0, whose exact GM
        # is known; the MC estimate must land within 3 standard errors
        model = example_uniform_model()
        g, se = asymptotic_gm([[2.5], [7.5]], [1, 0], model,
                              sample_count=40_000, seed=3)
        exact = math.sqrt((5 / 9) * (5 / 7))
        assert se > 0
        assert abs(g - exact) < 3 * se

    def test_2d_matches_grid_quadrature(self):
        model = example_mixture_model()
        pts = np.array([[-1.0, 1.0], [2.0, -2.0], [0.0, 0.0], [-0.5, -1.0]])
        labels = np.array([1, 1, 0, 0])
        g, se = asymptotic_gm(pts, labels, model, sample_count=60_000, seed=5)

        xs = np.linspace(-8.0, 8.0, 801)
        X, Y = np.meshgrid(xs, xs)
        grid = np.column_stack([X.ravel(), Y.ravel()])
        d2 = ((grid[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        pred = labels[np.argmin(d2, axis=1)]
        cell = (xs[1] - xs[0]) ** 2
        tpr = model.positive.pdf(grid)[pred == 1].sum() * cell
        tnr = model.negative.pdf(grid)[pred == 0].sum() * cell
        exact = math.sqrt(tpr * tnr)
        assert abs(g - exact) < 0.01

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            asymptotic_gm([[0.0], [1.0]], [1, 0], gap_model(), sample_count=10)


@pytest.mark.parametrize("call, name", [
    # a one-class set returned GM 0 before its sample count was looked at
    (lambda: asymptotic_gm([[0.0], [1.0]], [1, 1], gap_model(), sample_count=5),
     "sample_count must be at least 1000, got 5"),
    # a NaN margin and numpy's "Mean of empty slice" warning
    (lambda: removal_analysis([[0.5], [0.6], [9.5]], [1, 1, 0], 0, gap_model(),
                              sample_count=0), "sample_count must be at least 1000, got 0"),
    # removal analyses on 500 probes, until a case passed and reached asymptotic_gm
    (lambda: prop1_check(1, 500, 0), "sample_count must be at least 1000, got 500"),
    # vacuous successes
    (lambda: prop1_check(0, 1000, 0), "cases must be at least 1, got 0"),
    (lambda: lemma_sweep(0, 1000, 0), "configs must be at least 1, got 0"),
    (lambda: lemma_check([[0.0], [1.0]], 0, probe_count=0), "probe_count must be at least 1, got 0"),
    (lambda: voronoi_neighbors([[0.0], [1.0]], 0, probe_count=-3),
     "probe_count must be at least 1, got -3"),
    # a helper was forked before lemma_check rejected the count
    (lambda: lemma_sweep(1, 0, 0), "probe_count must be at least 1, got 0"),
    # a NaN GM for every subset, a RuntimeWarning and (None, -1.0)
    (lambda: exhaustive_search([[0.5], [0.6], [9.5]], [1, 1, 0], gap_model(), sample_count=0),
     "sample_count must be at least 1, got 0"),
    (lambda: theory.sweep_boundary_1d(gap_model(), 0), "steps must be at least 1, got 0"),  # []
    # a count that is not an integer: 2 cases checked, 1 configuration swept,
    # numpy's AxisError
    (lambda: prop1_check(1.5, 1000, 0), "cases must be an integer, got 1.5"),
    (lambda: lemma_sweep(True, 100, 0), "configs must be an integer, got True"),
    (lambda: asymptotic_gm([[0.0], [1.0]], [1, 0], gap_model(), sample_count=1000.5),
     "sample_count must be an integer, got 1000.5"),
])
def test_count_below_its_floor_rejected_by_name(monkeypatch, call, name):
    def no_fork():
        raise AssertionError("a helper was forked for a call that fails its checks")
    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(ValueError, match=f"^{name}$"):
        call()


class TestVoronoiNeighbors:
    def test_1d_line(self):
        pts = [[0.0], [1.0], [2.0]]
        assert voronoi_neighbors(pts, 0) == {1}
        assert voronoi_neighbors(pts, 1) == {0, 2}

    def test_two_points(self):
        assert voronoi_neighbors([[0.0, 0.0], [1.0, 0.0]], 0) == {1}

    def test_grid_center_has_four_facets(self):
        pts = [[x, y] for x in (0.0, 1.0, 2.0) for y in (0.0, 1.0, 2.0)]
        center = pts.index([1.0, 1.0])
        nbrs = voronoi_neighbors(pts, center, probe_count=40_000)
        expected = {pts.index(p) for p in ([0.0, 1.0], [2.0, 1.0], [1.0, 0.0], [1.0, 2.0])}
        assert nbrs == expected

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            voronoi_neighbors([[0.0]], 0)

    @pytest.mark.parametrize("i", [-1, 3])
    def test_point_outside_rejected(self, i):
        # -1 has no probe in its cell, so it had no neighbour
        with pytest.raises(ValueError, match="i=.* not one of the 3 points"):
            voronoi_neighbors([[0.0], [1.0], [2.0]], i)

    def test_facet_neighbours_missed_at_low_probe_counts(self):
        # the centre of a 3x3 grid has four facet neighbours; 100 probes put
        # about 6 in its cell, too few for every neighbour to get one
        pts = [[x, y] for x in (0.0, 1.0, 2.0) for y in (0.0, 1.0, 2.0)]
        centre = pts.index([1.0, 1.0])
        found = [voronoi_neighbors(pts, centre, probe_count=100, seed=s) for s in range(8)]
        assert all(f <= {1, 3, 5, 7} for f in found)
        assert any(f != {1, 3, 5, 7} for f in found)
        assert voronoi_neighbors(pts, centre, probe_count=20_000) == {1, 3, 5, 7}

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 30), d=st.integers(1, 4), seed=st.integers(0, 2**31))
    def test_neighbours_are_the_points_absorbing_the_cell(self, n, d, seed):
        # the rows nearest to the probes of i's cell once i is removed, by a
        # plain argmin over the same probes
        rng = np.random.default_rng(seed)
        points, i = rng.standard_normal((n, d)), int(rng.integers(0, n))
        _, probes = theory._box_probes(points, 5000, seed)
        D = ((probes[:, None, :] - points[None]) ** 2).sum(axis=2)
        in_cell = D.argmin(axis=1) == i
        D[:, i] = np.inf
        assert set(D[in_cell].argmin(axis=1).tolist()) == voronoi_neighbors(points, i, 5000, seed)


class TestLemmaCheck:
    def test_inclusion_never_violated(self):
        rng = np.random.default_rng(4)
        pts = rng.random((8, 2))
        for i in range(8):
            assert lemma_check(pts, i, probe_count=5000, seed=i).inclusion_violations == 0

    def test_middle_cell_splits_to_both_sides(self):
        rep = lemma_check([[0.0], [1.0], [2.0]], 1, probe_count=20_000)
        assert rep.inclusion_violations == 0
        assert rep.probes_in_cell > 0

    def test_two_point_survivor_absorbs_cell(self):
        rep = lemma_check([[0.0], [3.0]], 0, probe_count=5000)
        assert rep.inclusion_violations == 0
        assert rep.probes_in_cell > 0

    @pytest.mark.parametrize("i", [-1, 3])
    def test_point_outside_rejected(self, i):
        # -1 removed the last point, and the probes of its cell counted as
        # violations of the lemma
        with pytest.raises(ValueError, match="i=.* not one of the 3 points"):
            lemma_check([[0.0], [1.0], [2.0]], i, probe_count=5000)


class TestRemovalAnalysis:
    def test_duplicate_removal_is_neutral(self):
        # the duplicate never wins a tie, so nothing flips
        pts = [[0.5], [0.5], [9.5]]
        res = removal_analysis(pts, [1, 1, 0], 1, gap_model())
        assert res.gain == 0.0 and res.loss == 0.0
        assert res.margin == 0.0
        assert not res.predicted_improvement

    def test_outlier_removal_predicted_beneficial(self):
        # a positive prototype stranded deep in the negative support carves
        # out a wrong-label island; removing it must raise the rate product
        model = example_uniform_model()
        res = removal_analysis([[2.5], [9.5], [7.5]], [1, 1, 0], 1, model,
                               sample_count=40_000, seed=2)
        assert res.predicted_improvement
        assert res.margin > 5 * res.margin_se
        assert res.loss > 0 and res.gain > 0
        # after removal the induced boundary is 5.0 with known exact rates
        assert res.tpr_after == pytest.approx(5 / 9, abs=0.02)
        assert res.tnr_after == pytest.approx(5 / 7, abs=0.02)

    def test_margin_consistent_with_rates(self):
        model = example_uniform_model()
        res = removal_analysis([[2.5], [9.5], [7.5]], [1, 1, 0], 1, model, seed=0)
        assert res.margin == pytest.approx(
            res.tpr_after * res.tnr_after - res.tpr_before * res.tnr_before
        )

    def test_class_elimination_rejected(self):
        with pytest.raises(ValueError):
            removal_analysis([[0.0], [5.0]], [1, 0], 0, gap_model())

    @pytest.mark.parametrize("i", [-1, 4])
    def test_point_outside_rejected(self, i):
        # -1 took the last label out but no point, and reported no effect
        with pytest.raises(ValueError, match="i=.* not one of the 4 points"):
            removal_analysis([[2.5], [9.5], [7.5], [8.5]], [1, 1, 0, 0], i,
                             example_uniform_model())


@pytest.mark.parametrize("i", [True, 1.5])
@pytest.mark.parametrize("call", [
    lambda i: voronoi_neighbors([[0.0], [1.0], [2.0]], i),
    lambda i: lemma_check([[0.0], [1.0], [2.0]], i, probe_count=5000),
    lambda i: removal_analysis([[2.5], [9.5], [7.5]], [1, 1, 0], i, example_uniform_model()),
], ids=["voronoi_neighbors", "lemma_check", "removal_analysis"])
def test_point_index_must_be_an_integer(call, i):
    # True was numpy's "boolean array argument obj to delete" error, 1.5 an IndexError
    with pytest.raises(ValueError, match=f"^i must be an integer, got {i}$"):
        call(i)


@pytest.mark.parametrize("n_labels", [2, 5])
def test_labels_of_another_length_rejected(n_labels):
    # 5 labels for 3 points gave a GM and a removal analysis; 2 ended in an IndexError
    points, labels = [[0.5], [9.5], [0.7]], [1, 0, 1, 0, 0][:n_labels]
    calls = (lambda: asymptotic_gm(points, labels, gap_model()),
             lambda: removal_analysis(points, labels, 0, gap_model()),
             lambda: exhaustive_search(points, labels, gap_model(), sample_count=50))
    for call in calls:
        with pytest.raises(ValueError, match=f"^{n_labels} labels for 3 rows$"):
            call()


def exhaustive_by_subset(points, labels, model, sample_count, seed):
    """Reference search: every combination in lexicographic order, scored by
    one nearest-point lookup per probe class; a tie keeps the first subset,
    and across sizes the first size."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    labels = np.asarray(labels)
    n = points.shape[0]
    Xp, Xn = theory._class_probes(model, sample_count, seed)
    index_p = NeighbourIndex(points, queries=Xp)
    index_n = NeighbourIndex(points, queries=Xn)
    per_cardinality = {}
    best_subset, best_gm = None, -1.0
    for k in range(2, n + 1):
        k_best, k_gm = None, -1.0
        for comb in itertools.combinations(range(n), k):
            cols = np.array(comb)
            lab = labels[cols]
            if not (np.any(lab == 1) and np.any(lab == 0)):
                continue
            pred_p = labels[index_p.nearest(cols)]
            pred_n = labels[index_n.nearest(cols)]
            g = math.sqrt(np.mean(pred_p == 1) * np.mean(pred_n == 0))
            if g > k_gm:
                k_gm, k_best = g, cols
        if k_best is not None:
            per_cardinality[k] = (k_best, k_gm)
            if k_gm > best_gm:
                best_gm, best_subset = k_gm, k_best
    return per_cardinality, (best_subset, best_gm)


@st.composite
def labelled_sets(draw):
    """4-10 labelled points: 2D mixture draws, or 1D integer-grid points
    (where equal GMs are common); either may repeat a point, an exact
    distance tie for every probe."""
    n = draw(st.integers(4, 10))
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    if draw(st.booleans()):
        model = example_uniform_model()
        points = np.array(draw(st.lists(st.integers(0, 10), min_size=n, max_size=n)),
                          dtype=float)[:, None]
    else:
        model = example_mixture_model()
        points = np.random.default_rng(draw(st.integers(0, 2**31))).standard_normal((n, 2))
    if draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        points[j] = points[i]
    return points, labels, model


class TestExhaustiveSearch:
    @given(case=labelled_sets(), sample_count=st.sampled_from([50, 400]),
           seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_matches_one_subset_at_a_time(self, case, sample_count, seed):
        points, labels, model = case
        per_card, (best, best_gm) = exhaustive_search(points, labels, model,
                                                      sample_count, seed)
        ref_card, (ref_best, ref_gm) = exhaustive_by_subset(points, labels, model,
                                                            sample_count, seed)
        assert list(per_card) == list(ref_card)
        for k, (subset, g) in per_card.items():
            assert subset.tolist() == ref_card[k][0].tolist()
            assert g == ref_card[k][1]
        assert (None if best is None else best.tolist()) == \
            (None if ref_best is None else ref_best.tolist())
        assert best_gm == ref_gm

    def test_best_at_least_full_set(self):
        pts, labels, model = nonmonotone_example()
        per_card, (best, best_gm) = exhaustive_search(
            pts[:8], labels[[0, 1, 2, 5, 6, 7, 8, 9]], model, sample_count=2000
        )
        full_gm = per_card[8][1]
        assert best_gm >= full_gm

    def test_two_point_separable_optimum(self):
        per_card, (best, best_gm) = exhaustive_search(
            [[0.5], [9.5]], [1, 0], gap_model(), sample_count=2000
        )
        assert best_gm == 1.0
        assert set(best.tolist()) == {0, 1}
        assert list(per_card) == [2]

    def test_size_guard(self):
        pts = np.random.default_rng(0).random((21, 2))
        labels = np.array([1] * 5 + [0] * 16)
        with pytest.raises(ValueError):
            exhaustive_search(pts, labels, example_mixture_model())

    def test_single_class_subsets_skipped(self):
        per_card, _ = exhaustive_search([[0.5], [0.6], [9.5]], [1, 1, 0],
                                        gap_model(), sample_count=2000)
        # every recorded subset must contain the lone negative
        for k, (subset, _) in per_card.items():
            assert 2 in subset


class TestNonmonotoneExample:
    def test_shape_and_determinism(self):
        pts, labels, model = nonmonotone_example()
        assert pts.shape == (15, 2)
        assert labels.sum() == 5
        pts2, _, _ = nonmonotone_example()
        assert np.array_equal(pts, pts2)

    def test_curve_rises_to_one_peak_then_falls(self):
        # at 100,000 probes per class the curve has one sign change; the extra
        # ones at 2,000 probes are probe noise
        pts, labels, model = nonmonotone_example()
        for seed in (0, 1, 2):
            per_card, (_, best_gm) = exhaustive_search(pts, labels, model,
                                                       sample_count=100_000, seed=seed)
            steps = np.sign(np.diff([per_card[k][1] for k in sorted(per_card)]))
            steps = steps[steps != 0]
            assert np.sum(steps[1:] != steps[:-1]) == 1, seed
            assert best_gm > per_card[len(labels)][1] + 0.05, seed


class TestBayesDemo:
    def test_bayes_threshold_shift(self):
        # with a 1/9 prior the prior-weighted rule refuses points that the
        # balanced rule accepts
        model = example_mixture_model()
        X = np.array([[-1.0, 1.0]])
        assert bayes_classify(model, X, balanced=True)[0] == 1
        assert bayes_classify(model, X, balanced=False)[0] == 0

    def test_balanced_bayes_beats_classical_on_gm(self):
        out = cb_bb_demo(seed=0, include_re=False)
        assert set(out) == {"cb", "bb"}
        assert out["bb"] > out["cb"]
        assert 0.0 < out["cb"] < out["bb"] <= 1.0

    def test_random_editing_choice_pinned(self):
        # the set random editing keeps from its 10,000 draws over 4,500 rows,
        # and its GM on the test sample, as the one-pass scorer chose them
        out = cb_bb_demo(seed=0)
        assert out["re_refset"].retained.tolist() == [
            98, 168, 239, 245, 314, 340, 570, 648, 693, 735, 739, 789, 972,
            1106, 1802, 2120, 2233, 2404, 2756, 2885, 3570, 3675, 3925, 4022, 4041]
        assert out["re"] == 0.7926445706958797

    def test_re_trials_checked_before_any_draw(self):
        with mock.patch.object(theory, "_sample_joint", side_effect=AssertionError):
            with pytest.raises(ValueError, match="re_trials must be at least 1, got 0"):
                cb_bb_demo(re_trials=0)

    def test_deterministic(self):
        a = cb_bb_demo(seed=3, include_re=False)
        b = cb_bb_demo(seed=3, include_re=False)
        assert a == b


class TestModelFromConfig:
    def test_dict_round_trip(self):
        cfg = {
            "prior_positive": 0.5,
            "positive": {"type": "piecewise_uniform",
                         "segments": [[0.0, 9.0, 1 / 9]]},
            "negative": {"type": "piecewise_uniform",
                         "segments": [[3.0, 10.0, 1 / 7]]},
        }
        model = model_from_config(cfg)
        b, g = best_boundary_1d(model)
        assert b == pytest.approx(5.0)

    def test_yaml_file(self, tmp_path):
        path = tmp_path / "model.yaml"
        path.write_text(
            "prior_positive: 0.111\n"
            "positive:\n  type: gaussian_mixture\n"
            "  components: [[1.0, [2.0, 0.0], [1.0, 1.0]]]\n"
            "negative:\n  type: gaussian_mixture\n"
            "  components: [[1.0, [0.0, 0.0], [1.0, 1.0]]]\n"
        )
        model = model_from_config(str(path))
        assert model.prior_positive == 0.111
        assert bayes_classify(model, [[5.0, 0.0]], balanced=True)[0] == 1

    @pytest.mark.parametrize("edit, message", [
        (lambda c: c.update(extra=1), "unknown config key 'extra'"),
        (lambda c: c["positive"].update(sgements=[]), "unknown config key 'positive.sgements'"),
        (lambda c: c["negative"].pop("segments"), "missing config key 'negative.segments'"),
        # a bad value is named by its key too
        (lambda c: c.update(prior_positive=1.0),
         r"prior_positive must be a real number in \(0, 1\), got 1\.0"),
        (lambda c: c["positive"].update(segments=[[9.0, 0.0, 1 / 9]]),
         "positive.segments: segment with non-positive length"),
        (lambda c: c["positive"].update(segments=[[0.0, 9.0, -1 / 9]]),
         "positive.segments: negative density"),
        (lambda c: c.update(negative={"type": "gaussian_mixture", "components": []}),
         "negative.components: empty mixture"),
        (lambda c: c.update(negative={"type": "gaussian_mixture", "components": [
            [0.0, [0, 0], [1, 1]], [1.0, [0, 0], [1, 1]]]}),
         "negative.components: component weights must be positive"),
        (lambda c: c.update(negative={"type": "gaussian_mixture",
                                      "components": [[1.0, [0, 0], [1, 0]]]}),
         "negative.components: variances must be positive"),
        (lambda c: c.update(positive={"type": "gaussian_mixture",
                                      "components": [[1.0, [0], [1, 1]]]}),
         "positive.components: component 0: mean and variance must be 2-vectors"),
    ])
    def test_bad_key_rejected_by_name(self, edit, message):
        cfg = {"prior_positive": 0.5,
               "positive": {"type": "piecewise_uniform", "segments": [[0.0, 9.0, 1 / 9]]},
               "negative": {"type": "piecewise_uniform", "segments": [[3.0, 10.0, 1 / 7]]}}
        edit(cfg)
        with pytest.raises(ValueError, match=message):
            model_from_config(cfg)

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            model_from_config({
                "prior_positive": 0.5,
                "positive": {"type": "cauchy"},
                "negative": {"type": "cauchy"},
            })


# ---------------------------------------------------------------------------
# The helper process of prop1_check and lemma_sweep.  Stubs are module-level
# functions, patched in before the call, so that the forked helper has them.

def prop1_serial(cases, sample_count, seed):
    """prop1_check as one loop in one process: the oracle of its draws."""
    model = example_mixture_model()
    rng = np.random.default_rng(seed)
    checked = confirmed = 0
    while checked < cases:
        n_pos = int(rng.integers(2, 6))
        n_neg = int(rng.integers(3, 10))
        pts, labels = theory._labelled_sample(model, n_pos, n_neg,
                                              int(rng.integers(0, 2**31)))
        i = int(rng.integers(0, len(labels)))
        ra = theory.removal_analysis(pts, labels, i, model, sample_count=sample_count,
                                     seed=int(rng.integers(0, 2**31)))
        if ra.margin <= 5 * ra.margin_se:
            continue
        checked += 1
        g_before, _ = theory.asymptotic_gm(pts, labels, model, sample_count=sample_count,
                                           seed=int(rng.integers(0, 2**31)))
        kept = np.delete(np.arange(len(labels)), i)
        g_after, _ = theory.asymptotic_gm(pts[kept], labels[kept], model,
                                          sample_count=sample_count,
                                          seed=int(rng.integers(0, 2**31)))
        confirmed += int(g_after > g_before)
    return confirmed, checked


def lemma_configs(configs, seed):
    """lemma_sweep's configurations ``(points, i, seed)``, drawn one at a time."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(configs):
        n = int(rng.integers(5, 31))
        d = int(rng.integers(1, 5))
        points = rng.standard_normal((n, d))
        i = int(rng.integers(0, n))
        out.append((points, i, int(rng.integers(0, 2**31))))
    return out


def lemma_serial(configs, probe_count, seed):
    """lemma_sweep as one loop in one process."""
    return sum(theory.lemma_check(points, i, probe_count=probe_count, seed=s).inclusion_violations
               for points, i, s in lemma_configs(configs, seed))


def prop1_analysis_seeds(seed, count):
    """The removal-analysis seeds of prop1's first ``count`` cases, each
    drawn after the one before it failed."""
    rng = np.random.default_rng(seed)
    seeds = []
    for _ in range(count):
        n = int(rng.integers(2, 6)) + int(rng.integers(3, 10))
        rng.integers(0, 2**31)
        rng.integers(0, n)
        seeds.append(int(rng.integers(0, 2**31)))
    return seeds


def removal_by_seed(modulus, points, labels, i, model, sample_count, seed):
    """A removal analysis stub that passes prop1's filter when ``modulus``
    divides its seed."""
    return SimpleNamespace(margin=1.0 if seed % modulus == 0 else -1.0, margin_se=0.1)


def gm_by_seed(points, labels, model, sample_count, seed):
    return (seed % 1000) / 1000 + len(labels), 0.0


def lemma_by_seed(points, i, probe_count, seed):
    return LemmaReport(inclusion_violations=seed % 7, probes_in_cell=0)


def raise_on_seed(bad, call, *args):
    """``call`` with ``args``, but a ValueError when the last is ``bad``."""
    if args[-1] == bad:
        raise ValueError(f"stub raised on seed {bad}")
    return call(*args)


@pytest.fixture
def no_child_left():
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture(params=[2, 1], ids=["two-cpus", "one-cpu"])
def cpus(request, monkeypatch, no_child_left):
    """Both ways ``_two_processes`` can run: with the box's CPUs, and with one,
    where no child may start."""
    if request.param == 1:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

        def no_fork():
            raise AssertionError("a child was started with one usable CPU")
        monkeypatch.setattr(os, "fork", no_fork)
    return request.param


def test_both_runs_the_second_call_in_another_process(cpus):
    with theory._two_processes() as both:
        here, there = both(os.getpid, os.getpid)
    assert here == os.getpid()
    assert (there != here) == (cpus == 2 and len(os.sched_getaffinity(0)) > 1)


# modulus 1 passes every case, so every guess is wasted and passes follow
# back to back; with 2 and 3 some guessed cases pass, some of them last
@pytest.mark.parametrize("modulus", [1, 2, 3])
@pytest.mark.parametrize("cases", [1, 2, 9, 40])
def test_prop1_equals_the_serial_loop(monkeypatch, cpus, modulus, cases):
    monkeypatch.setattr(theory, "removal_analysis", partial(removal_by_seed, modulus))
    monkeypatch.setattr(theory, "asymptotic_gm", gm_by_seed)
    for seed in (0, 5):
        assert prop1_check(cases, 1000, seed) == prop1_serial(cases, 1000, seed)


@pytest.mark.parametrize("cases, seed", [(1, 0), (7, 1), (30, 2)])
def test_prop1_equals_the_serial_loop_unstubbed(no_child_left, cases, seed):
    assert prop1_check(cases, 1000, seed) == prop1_serial(cases, 1000, seed)


@pytest.mark.parametrize("configs", [1, 2, 7, 10])
def test_lemma_sweep_equals_the_serial_sum(monkeypatch, cpus, configs):
    monkeypatch.setattr(theory, "lemma_check", lemma_by_seed)
    total = lemma_sweep(configs, 100, 3)
    assert total == lemma_serial(configs, 100, 3) > 0


def test_lemma_sweep_unstubbed(no_child_left):
    assert lemma_sweep(9, 300, 4) == lemma_serial(9, 300, 4) == 0


# config or case 0 is checked in this process, 1 in the helper
@pytest.mark.parametrize("which", [0, 1])
def test_a_raise_in_either_process_reaches_the_caller(monkeypatch, cpus, which):
    bad = lemma_configs(4, 0)[which][2]
    monkeypatch.setattr(theory, "lemma_check", partial(raise_on_seed, bad, lemma_by_seed))
    with pytest.raises(ValueError, match=f"stub raised on seed {bad}"):
        lemma_sweep(4, 100, 0)
    assert multiprocessing.active_children() == []
    bad = prop1_analysis_seeds(0, 2)[which]
    monkeypatch.setattr(theory, "removal_analysis",
                        partial(raise_on_seed, bad, partial(removal_by_seed, 10**10)))
    with pytest.raises(ValueError, match=f"stub raised on seed {bad}"):
        prop1_check(3, 1000, 0)
    assert multiprocessing.active_children() == []


def _theory_outputs():
    """Exact outputs of the probe functions on small fixed inputs: a 2D
    mixture draw, and a 1D set with a duplicated point, where ties decide."""
    mixture = example_mixture_model()
    rng = np.random.default_rng(11)
    pts2d = np.vstack([mixture.positive.sample(4, rng), mixture.negative.sample(5, rng)])
    cases = [
        (pts2d, np.array([1] * 4 + [0] * 5), mixture),
        (np.array([[0.5], [0.5], [2.5], [7.5], [9.5]]), np.array([1, 1, 1, 0, 0]),
         example_uniform_model()),
    ]
    out = []
    for pts, labels, model in cases:
        g, se = asymptotic_gm(pts, labels, model, sample_count=2000, seed=1)
        out.append(("gm", float(g), float(se)))
        for i in range(len(labels)):
            if np.sum(labels == labels[i]) > 1:
                ra = removal_analysis(pts, labels, i, model, sample_count=2000, seed=2)
                out.append(("removal", i, ra.gain, ra.loss, ra.tpr_before, ra.tnr_before,
                            ra.tpr_after, ra.tnr_after, ra.margin, ra.margin_se,
                            ra.predicted_improvement))
            out.append(("voronoi", i, sorted(voronoi_neighbors(pts, i, 2000, seed=3))))
            rep = lemma_check(pts, i, probe_count=2000, seed=4)
            out.append(("lemma", i, rep.inclusion_violations, rep.probes_in_cell))
        per_card, (best, best_gm) = exhaustive_search(pts, labels, model,
                                                      sample_count=2000, seed=5)
        curve = [(k, s.tolist(), float(g)) for k, (s, g) in per_card.items()]
        out.append(("curve", curve, best.tolist(), float(best_gm)))
    return out


# sha256 of repr(_theory_outputs()), as first computed; a change that moves
# any of these numbers has to update it in pins.json, openly
PINNED_THEORY_SHA256 = json.loads(
    Path(__file__).with_name("pins.json").read_text())["tests"]["PINNED_THEORY_SHA256"]


def test_theory_outputs_digest_pinned():
    digest = hashlib.sha256(repr(_theory_outputs()).encode()).hexdigest()
    assert digest == PINNED_THEORY_SHA256
