import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gmsel import ensemble, knn, selection
from gmsel.ensemble import EnsembleModel, predict_ensemble
from gmsel.knn import (
    NeighbourIndex,
    ReferenceSet,
    _stable_top_k,
    classify_1nn,
    classify_knn,
    loo_gm,
    loo_gm_best,
    loo_predict,
    nearest_points,
    pairwise_distances,
)

finite_vec = arrays(
    np.float64, 3,
    elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
)


def _one(a, b, nominal_mask=None) -> float:
    """The distance between two vectors, as a one-row ``pairwise_distances``."""
    return float(pairwise_distances([a], [b], nominal_mask)[0, 0])


def _direct_distance(a, b, nominal_mask):
    """Distance summed from the pair's own differences: numeric ones squared,
    a 1 for each nominal mismatch."""
    diff = np.where(nominal_mask, a != b, a - b)
    return float(np.sqrt(np.sum(diff * diff)))


# the expansion ||a||^2 + ||b||^2 - 2ab rounds with the squared norms, up to
# 3 * 100^2 here: a few eps of that is about 1e-11, 3e-6 once square-rooted
# near 0, per distance
_CANCEL = 1e-4


class TestDistance:
    def test_identity(self):
        assert _one([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_interval(self):
        assert _one([0.0], [1.0]) == 1.0

    def test_nominal_overlap(self):
        mask = np.array([True])
        assert _one([0.0], [1.0], mask) == 1.0
        assert _one([2.0], [2.0], mask) == 0.0

    def test_mixed_quadrature(self):
        # one numeric difference of 1 plus one nominal mismatch
        mask = np.array([False, True])
        assert _one([0.0, 0.0], [1.0, 1.0], mask) == pytest.approx(np.sqrt(2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            _one([0.0], [0.0, 1.0])

    @given(a=finite_vec, b=finite_vec)
    def test_symmetry(self, a, b):
        assert _one(a, b) == pytest.approx(_one(b, a), abs=_CANCEL)

    @given(a=finite_vec, b=finite_vec, c=finite_vec)
    @settings(max_examples=200)
    def test_triangle_inequality(self, a, b, c):
        assert _one(a, c) <= _one(a, b) + _one(b, c) + _CANCEL


class TestClassify1NN:
    X = np.array([[0.0], [1.0]])
    y = np.array([1, 0])

    def test_nearest_wins(self):
        ref = ReferenceSet(np.array([0, 1]))
        assert classify_1nn(self.X, self.y, ref, [[0.2]])[0] == 1

    def test_tie_breaks_to_lowest_index(self):
        ref = ReferenceSet(np.array([0, 1]))
        assert classify_1nn(self.X, self.y, ref, [[0.5]])[0] == 1

    def test_single_negative_reference(self):
        ref = ReferenceSet(np.array([1]))
        assert classify_1nn(self.X, self.y, ref, [[0.0]])[0] == 0

    def test_empty_reference_set_rejected(self):
        with pytest.raises(ValueError):
            ReferenceSet(np.array([], dtype=int))

    def test_order_invariance_modulo_tie_rule(self):
        rng = np.random.default_rng(0)
        X = rng.random((20, 2))
        y = (rng.random(20) < 0.3).astype(int)
        q = rng.random((10, 2))
        a = classify_1nn(X, y, np.array([3, 7, 11, 15]), q)
        b = classify_1nn(X, y, np.array([15, 3, 11, 7]), q)
        assert np.array_equal(a, b)


class TestIndexArrays:
    # an index array means what a ReferenceSet of it means, on every lookup path
    X = np.array([[0.0], [0.1], [1.0], [1.1]])
    y = np.array([1, 1, 0, 0])

    def test_repeated_index_rejected_on_the_column_path(self):
        # a repeat let row 0 be predicted from its own copy
        with pytest.raises(ValueError, match="unique"):
            loo_predict(self.X, self.y, [0, 0, 1, 2, 3])

    @pytest.mark.parametrize("ref, match", [
        ([-1, 1], "negative"),  # -1 read the last row
        ([[0, 2]], "index vector"),
        (np.array([True, False, True, False]), "integer"),  # the mask was read as rows 0, 1
        (np.array([0.9, 2.2]), "integer"),  # floats were truncated to rows
        ([0, 9], "row 9 out of range for 4 "),  # the index dropped row 9, the rest raised IndexError
    ])
    def test_bad_index_array_rejected(self, ref, match):
        # on every lookup path; a ReferenceSet alone cannot know the row count
        lookups = (
            lambda: classify_1nn(self.X, self.y, ref, [[0.0]]),
            lambda: classify_knn(self.X, self.y, ref, [[0.0]], 1),
            lambda: classify_1nn(self.X, self.y, ref, [[0.0]],
                                 index=NeighbourIndex(self.X, queries=[[0.0]])),
            lambda: NeighbourIndex(self.X).nearest(ref),
            lambda: loo_predict(self.X, self.y, ref),
            lambda: loo_predict(self.X, self.y, ref, index=NeighbourIndex(self.X)),
            lambda: loo_gm(self.X, self.y, ref),  # floats scored rows 0 and 2
        )
        for call in lookups if "range" in match else (lambda: ReferenceSet(ref), *lookups):
            with pytest.raises(ValueError, match=match):
                call()

    @pytest.mark.parametrize("n_labels", [3, 6])
    def test_labels_of_another_length_rejected(self, n_labels):
        # 6 labels for 4 rows were read as if they matched; 3 ended in an IndexError
        y, ref, q = np.arange(n_labels) % 2, [0, 3], [[0.0], [1.1]]
        model = EnsembleModel((ReferenceSet(np.array(ref)),), np.ones(1))
        predictions = (
            lambda: classify_1nn(self.X, y, ref, q),
            lambda: classify_1nn(self.X, y, ref, q, index=NeighbourIndex(self.X, queries=q)),
            lambda: classify_knn(self.X, y, ref, q, 1),
            lambda: predict_ensemble(model, self.X, y, q),
        )
        # every selection method and ensemble builder said "X and y length mismatch"
        X, tiny = self.X, selection.EusParams(2, 1)
        selections = (
            lambda: selection.rus(X, y, 0),
            lambda: selection.tomek_links(X, y),
            lambda: selection.cnn_mod(X, y, 0),
            lambda: selection.oss(X, y, 0),
            lambda: selection.tl_cnn(X, y, 0),
            lambda: selection.ncl(X, y),
            lambda: selection.eus(X, y, 0, tiny),
            lambda: selection.pso_select(X, y, 0, selection.PsoParams(2, 1)),
            lambda: selection.random_edit(X, y, 2, 1, 0),
            lambda: ensemble.bag_1nn(X, y, 2),
            lambda: ensemble.erus(X, y, 2),
            lambda: ensemble.rusboost(X, y, 2),
            lambda: ensemble.eusboost(X, y, 2, params=tiny),
        )
        for call in predictions + selections:
            with pytest.raises(ValueError, match=f"^{n_labels} labels for 4 rows$"):
                call()

    def test_repeated_index_rejected_by_the_index(self):
        with pytest.raises(ValueError, match="unique"):
            NeighbourIndex(self.X).nearest([0, 0, 1])

    @given(a=arrays(st.sampled_from([np.int8, np.int32, np.int64]), st.integers(1, 12),
                    elements=st.integers(-3, 20)))
    @settings(max_examples=200, deadline=None)
    def test_reference_set_is_the_sorted_rows_or_an_error(self, a):
        if a.min() >= 0 and np.unique(a).size == a.size:
            assert np.array_equal(ReferenceSet(a).retained, np.unique(a))
            assert ReferenceSet(a).retained.dtype == np.intp
        else:
            with pytest.raises(ValueError, match="negative|unique"):
                ReferenceSet(a)


class TestClassifyKNN:
    def test_k1_equals_1nn(self):
        rng = np.random.default_rng(1)
        X = rng.random((30, 3))
        y = (rng.random(30) < 0.4).astype(int)
        ref = np.arange(30)
        q = rng.random((15, 3))
        assert np.array_equal(
            classify_knn(X, y, ref, q, k=1), classify_1nn(X, y, ref, q)
        )

    def test_majority_of_three(self):
        X = np.array([[0.0], [0.1], [0.2], [5.0]])
        y = np.array([1, 1, 0, 0])
        assert classify_knn(X, y, np.arange(4), [[0.0]], k=3)[0] == 1

    def test_even_vote_tie_goes_positive(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([1, 0])
        assert classify_knn(X, y, np.arange(2), [[0.5]], k=2)[0] == 1

    def test_k_too_large(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([1, 0])
        with pytest.raises(ValueError):
            classify_knn(X, y, np.arange(2), [[0.5]], k=3)


class TestLooGm:
    def test_separated_clusters_full_retention(self):
        X = np.array([[0.0], [0.5], [10.0], [10.5]])
        y = np.array([1, 1, 0, 0])
        assert loo_gm(X, y, np.arange(4)) == 1.0

    def test_missing_positives_gives_zero(self):
        X = np.array([[0.0], [10.0], [11.0]])
        y = np.array([1, 0, 0])
        assert loo_gm(X, y, np.array([1, 2])) == 0.0

    def test_two_prototype_line(self):
        # + at 0,1,2 and - at 10,11,12; retaining {0, 10}.  Hand enumeration:
        # the four non-retained instances are classified correctly, but each
        # retained prototype is evaluated over retained-minus-itself and flips,
        # so TPR = TNR = 2/3 and GM = 2/3.
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        y = np.array([1, 1, 1, 0, 0, 0])
        assert loo_gm(X, y, np.array([0, 3])) == pytest.approx(2 / 3)
        # retaining two prototypes per class removes the flip entirely
        assert loo_gm(X, y, np.array([0, 1, 3, 4])) == 1.0

    def test_self_excluded(self):
        # each instance's nearest other-retained neighbour is the other class
        X = np.array([[0.0], [0.1]])
        y = np.array([1, 0])
        assert loo_gm(X, y, np.arange(2)) == 0.0


@st.composite
def refset_problems(draw):
    """Integer-grid data (duplicate rows, exact ties within and across
    classes) or Gaussian data (where a sum rounded in another order would
    show), maybe with nominal columns; up to 40 sets of M distinct rows, some
    with a lone member of one class or with one class only; and the rows per
    block and sets per chunk of ``loo_gm_best``, which may leave a last block
    of one row, and its pilot's size."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = draw(st.booleans())
    X = rng.integers(0, 3, (n, d)).astype(float) if grid else rng.standard_normal((n, d))
    nominal = rng.random(d) < 0.4 if draw(st.booleans()) else None
    if nominal is not None:
        X[:, nominal] = rng.integers(0, 3, (n, np.count_nonzero(nominal)))
    y = (rng.random(n) < draw(st.sampled_from([0.2, 0.5]))).astype(np.int64)
    y[0], y[1] = 1, 0
    M = draw(st.integers(2, n))
    sets = [rng.choice(n, M, replace=False) for _ in range(draw(st.integers(1, 38)))]
    for lone in (1, 0):
        one, rest = np.flatnonzero(y == lone), np.flatnonzero(y != lone)
        if rest.size >= M - 1 and draw(st.booleans()):
            sets.append(np.r_[rng.choice(one, 1), rng.choice(rest, M - 1, replace=False)])
    block = draw(st.integers(1, n))
    return X, y, nominal, np.array(sets), block, draw(st.integers(1, 3)), draw(st.integers(1, 5))


def _first_best(X, y, refsets, nominal=None):
    """The oracle: the first highest per-set ``loo_gm``, and that GM."""
    gms = [loo_gm(X, y, r, nominal) for r in refsets]
    return gms.index(max(gms)), max(gms)


class TestLooGmBest:
    @given(problem=refset_problems())
    @settings(max_examples=300, deadline=None)
    @example(problem=(np.array([[0.0], [1.0], [2.0], [3.0], [0.0]]), np.array([1, 0, 1, 0, 0]),
                      None, np.array([[0, 1], [2, 3], [4, 2], [1, 2], [0, 3]]), 1, 1, 1))
    def test_first_best_of_loo_gm_per_set(self, problem):
        X, y, nominal, refsets, block, chunk, pilot = problem
        n, M = X.shape[0], refsets.shape[1]
        # chunks of 1-3 sets over a whole block's columns, more over fewer
        with mock.patch.object(knn, "_BLOCK_CELLS", block * n), \
                mock.patch.object(knn, "_CHUNK_CELLS", chunk * M * max(2, block)), \
                mock.patch.object(knn, "_PILOT", pilot), \
                mock.patch.object(knn, "pairwise_distances",
                                  wraps=knn.pairwise_distances) as distances:
            got = loo_gm_best(X, y, refsets, nominal)
        assert got == _first_best(X, y, refsets, nominal)
        # numpy multiplies a one-row block by gemv, whose sums round otherwise
        assert all(len(c.args[0]) >= 2 for c in distances.call_args_list)

    @given(problem=refset_problems())
    @settings(max_examples=100, deadline=None)
    def test_hits_on_some_rows_only(self, problem):
        # one row in three: a block of two rows is read whole, a longer one
        # has its counted rows' columns gathered
        X, y, nominal, refsets, block, chunk, _ = problem
        n, M = X.shape[0], refsets.shape[1]
        rows = np.arange(n) % 3 == 0
        k = np.count_nonzero(y[refsets] == 1, axis=1)
        members = np.take_along_axis(refsets, np.argsort(y[refsets] != 1, 1, kind="stable"),
                                     1)[np.argsort(k, kind="stable")]
        hits = np.zeros((len(members), 2), dtype=np.intp)
        with mock.patch.object(knn, "_BLOCK_CELLS", block * n), \
                mock.patch.object(knn, "_CHUNK_CELLS", chunk * M * max(2, block)):
            knn._loo_hits(X, y, [(members, rows, hits)], nominal)
        for m, got in zip(members, hits):
            pred = loo_predict(X, y, m, nominal)
            want = [np.count_nonzero(rows & (pred == 1) & (y == 1)),
                    np.count_nonzero(rows & (pred == 0) & (y == 0))]
            assert got.tolist() == (want if 0 < np.count_nonzero(y[m]) < M else [0, 0])

    @pytest.mark.parametrize("nominal", [None, np.array([False] * 6 + [True] * 2)])
    def test_last_block_of_one_row(self, nominal):
        # 886 rows are three blocks of 295 and one row, which the last block
        # takes on: a one-row block's distances would round otherwise.  With a
        # pilot of 5 of the 20 sets, both passes read these blocks.
        n = 886
        assert n % (knn._BLOCK_CELLS // n) == 1
        rng = np.random.default_rng(5)
        X = rng.standard_normal((n, 8))
        X[:, 6:] = rng.integers(0, 2, (n, 2))
        y = (rng.random(n) < 0.3).astype(np.int64)
        refsets = np.array([rng.choice(n, 12, replace=False) for _ in range(20)])
        with mock.patch.object(knn, "_PILOT", 5), \
                mock.patch.object(knn, "pairwise_distances",
                                  wraps=knn.pairwise_distances) as distances:
            got = loo_gm_best(X, y, refsets, nominal)
        assert [len(c.args[0]) for c in distances.call_args_list] == [295, 295, 296] * 2
        assert got == _first_best(X, y, refsets, nominal)

    def test_one_class_sets_score_zero(self):
        # {0, 3}: rows 0 and 3 each see only the other class, so TPR = TNR = 1/2
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1, 1, 0, 0])
        assert loo_gm_best(X, y, np.array([[0, 1], [2, 3], [0, 3]])) == (2, 0.5)
        assert loo_gm_best(X, y, np.array([[0, 1], [2, 3]])) == (0, 0.0)
        with np.errstate(all="raise"):  # no class to divide by
            assert loo_gm_best(X, np.zeros(4, dtype=int), np.array([[0, 1], [2, 3]])) == (0, 0.0)

    def test_sets_that_cannot_win_are_not_scored_again(self):
        # 30 positives among 300 rows: most sets' sqrt(TPR) is below the best
        # pilot GM, so the pass over every row rescores only a few of them
        rng = np.random.default_rng(11)
        y = (np.arange(300) < 30).astype(np.int64)
        X = rng.standard_normal((300, 2)) + 1.5 * y[:, None]
        refsets = np.array([rng.choice(300, 10, replace=False) for _ in range(400)])
        with mock.patch.object(knn, "_loo_hits", wraps=knn._loo_hits) as passes:
            got = loo_gm_best(X, y, refsets)
        assert got == _first_best(X, y, refsets)
        rescored = sum(len(m) for c in passes.call_args_list[1:] for m, _, _ in c.args[2])
        assert len(refsets) > knn._PILOT
        assert rescored < (len(refsets) - knn._PILOT) / 4


class TestPairwise:
    def test_matches_scalar_distance(self):
        rng = np.random.default_rng(2)
        A = rng.random((5, 4))
        B = rng.random((6, 4))
        mask = np.array([False, True, False, True])
        D = pairwise_distances(A, B, mask)
        for i in range(5):
            for j in range(6):
                assert D[i, j] == pytest.approx(_direct_distance(A[i], B[j], mask))

    @given(rows_a=st.integers(1, 40), rows_b=st.integers(1, 40), d=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1), grid=st.booleans(), nominal=st.booleans(),
           rows_per_block=st.integers(1, 41))
    # integer-grid data with nominal columns: a one-row A (a gemv product), and
    # 4 blocks of rows
    @example(rows_a=1, rows_b=30, d=4, seed=0, grid=True, nominal=True, rows_per_block=1)
    @example(rows_a=40, rows_b=25, d=5, seed=0, grid=True, nominal=True, rows_per_block=13)
    @settings(max_examples=300, deadline=None)
    def test_in_place_kernel_equals_the_expression(self, rows_a, rows_b, d, seed, grid,
                                                   nominal, rows_per_block):
        rng = np.random.default_rng(seed)
        draw = (lambda r: rng.integers(0, 3, (r, d)).astype(float)) if grid else \
            (lambda r: rng.standard_normal((r, d)))
        A, B = draw(rows_a), draw(rows_b)
        mask = rng.random(d) < 0.4 if nominal else np.zeros(d, dtype=bool)
        A[:, mask] = rng.integers(0, 3, (rows_a, np.count_nonzero(mask)))
        B[:, mask] = rng.integers(0, 3, (rows_b, np.count_nonzero(mask)))
        want = _expression_distances(A, B, mask)
        with mock.patch.object(knn, "_BLOCK_CELLS", rows_per_block * rows_b):
            got = pairwise_distances(A, B, mask if nominal else None)
        assert got.tobytes() == want.tobytes()


def _expression_distances(A, B, nominal_mask):
    """``pairwise_distances`` as one expression over whole matrices, its first
    form: the oracle for the kernel, which works in place, a block of rows at a
    time, and must keep its order of operations."""
    num = ~nominal_mask
    An, Bn = A[:, num], B[:, num]
    sq = (
        np.sum(An * An, axis=1)[:, None]
        + np.sum(Bn * Bn, axis=1)[None, :]
        - 2.0 * An @ Bn.T
    )
    np.maximum(sq, 0.0, out=sq)
    if nominal_mask.any():
        Ac, Bc = A[:, nominal_mask], B[:, nominal_mask]
        sq += np.sum(Ac[:, None, :] != Bc[None, :, :], axis=2)
    return np.sqrt(sq)


def _direct_squares(P, Q):
    """``O[q, p]``: the squared distance from query q to point p, summed per
    pair from its differences in attribute order."""
    return np.array([[sum((float(p[a]) - float(q[a])) ** 2 for a in range(len(p)))
                      for p in P] for q in Q])


class TestNearestPoints:
    @given(n=st.integers(1, 25), m=st.integers(1, 40), d=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_grid_data_matches_pairwise_argmin(self, n, m, d, seed):
        # small integers: both kernels are exact, so ties and duplicates decide
        rng = np.random.default_rng(seed)
        P = rng.integers(0, 3, (n, d)).astype(float)
        Q = rng.integers(-1, 4, (m, d)).astype(float)
        want = np.argmin(pairwise_distances(Q, P), axis=1)
        assert nearest_points(P, Q).tolist() == want.tolist()

    @given(n=st.integers(1, 20), m=st.integers(1, 30), d=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_continuous_data_matches_direct_oracle(self, n, m, d, seed):
        rng = np.random.default_rng(seed)
        P = rng.standard_normal((n, d))
        P[rng.integers(0, n, n // 3)] = P[rng.integers(0, n, n // 3)]  # duplicates
        Q = rng.standard_normal((m, d))
        O = _direct_squares(P, Q)
        assert nearest_points(P, Q).tolist() == np.argmin(O, axis=1).tolist()
        # a lookup over some points: their distances are the same as in the full call
        others = np.flatnonzero(rng.random(n) < 0.5)
        others = others if others.size else np.array([n - 1])
        got = others[nearest_points(P[others], Q)]
        assert got.tolist() == others[np.argmin(O[:, others], axis=1)].tolist()

    def test_one_point(self):
        Q = np.random.default_rng(0).standard_normal((7, 3))
        assert nearest_points([[0.0, 1.0, 2.0]], Q).tolist() == [0] * 7

    def test_one_query(self):
        assert nearest_points([[0.0], [2.0], [1.0], [1.0]], [[1.2]]).tolist() == [2]

    def test_no_queries(self):
        got = nearest_points([[0.0, 0.0], [1.0, 1.0]], np.empty((0, 2)))
        assert got.shape == (0,) and got.dtype == np.intp

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            nearest_points([[0.0, 1.0]], [[0.0]])


@st.composite
def grid_problems(draw):
    """Small integer-grid data, where exact distance ties and duplicate rows
    are common and every distance is computed exactly, plus a random retained
    set with both classes: anything from most of the data down to a single
    negative, and a rank depth small enough to force the exact fallback."""
    n = draw(st.integers(3, 30))
    d = draw(st.integers(1, 3))
    X = draw(arrays(np.float64, (n, d), elements=st.integers(0, 3).map(float)))
    nominal = draw(arrays(np.bool_, d)) if draw(st.booleans()) else None
    y = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    y[0], y[1] = 1, 0
    pos, neg = np.flatnonzero(y == 1), np.flatnonzero(y == 0)
    if draw(st.booleans()):
        keep = np.array([draw(st.sampled_from(neg.tolist()))])
    else:
        keep = neg[draw(arrays(np.bool_, neg.size))]
        keep = keep if keep.size else neg[:1]
    retained = np.concatenate([pos, keep])
    depth = draw(st.integers(1, 6))
    return X, y, nominal, retained, depth


def _argmin_nearest(X, retained, nominal, exclude_self):
    """Reference answer: argmin over the retained columns, computed per call."""
    retained = np.sort(retained)
    D = pairwise_distances(X, X[retained], nominal)
    if exclude_self:
        D[retained, np.arange(retained.size)] = np.inf
    return retained[np.argmin(D, axis=1)]


@st.composite
def batch_problems(draw):
    """Integer-grid data (exact ties, duplicate rows) of one row up to twice
    the rank depth, and a few nonempty retained sets, some so sparse that a
    query's ranked rows hold none of them and the lookup has to fall back (as
    every leave-one-out lookup does in one row)."""
    n = draw(st.integers(1, 2 * knn.RANK_DEPTH + 8))
    d = draw(st.integers(1, 3))
    X = draw(arrays(np.float64, (n, d), elements=st.integers(0, 3).map(float)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    member = rng.random((draw(st.integers(1, 5)), n)) < density
    member[np.arange(member.shape[0]), rng.integers(0, n, member.shape[0])] = True
    return X, member


class TestNeighbourIndex:
    @given(problem=grid_problems(), exclude_self=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_call_argmin(self, problem, exclude_self):
        X, y, nominal, retained, depth = problem
        with mock.patch.object(knn, "RANK_DEPTH", depth):
            index = NeighbourIndex(X, nominal)
        want = _argmin_nearest(X, retained, nominal, exclude_self)
        assert np.array_equal(index.nearest(retained, exclude_self), want)
        if exclude_self:
            assert np.array_equal(loo_predict(X, y, retained, nominal, index=index),
                                  loo_predict(X, y, retained, nominal))

    @given(problem=batch_problems(), exclude_self=st.booleans(),
           block_cells=st.sampled_from([1, 64, knn._BLOCK_CELLS]))
    @example(problem=(np.array([[0.0]]), np.array([[True], [True]])), exclude_self=True,
             block_cells=knn._BLOCK_CELLS)
    # a block per member, each with queries that no ranked row answers (the
    # line of test_batch_falls_back_past_the_ranks)
    @example(problem=(np.arange(2 * knn.RANK_DEPTH, dtype=float)[:, None],
                      np.arange(2 * knn.RANK_DEPTH) >= [[2 * knn.RANK_DEPTH - 1], [0]]),
             exclude_self=True, block_cells=1)
    @settings(max_examples=300, deadline=None)
    def test_batch_rows_match_nearest(self, problem, exclude_self, block_cells):
        X, member = problem
        index = NeighbourIndex(X)
        with mock.patch.object(knn, "_BLOCK_CELLS", block_cells):
            got = index.nearest_batch(member, exclude_self)
        assert got.shape == member.shape
        for p, row in enumerate(member):
            retained = np.flatnonzero(row)
            assert np.array_equal(got[p], index.nearest(retained, exclude_self))
            assert np.array_equal(got[p], _argmin_nearest(X, retained, None, exclude_self))

    def test_batch_falls_back_past_the_ranks(self):
        # only the far end of a line is retained: the queries near the other
        # end rank RANK_DEPTH closer rows first and take the stored argmin
        n = 2 * knn.RANK_DEPTH
        X = np.arange(n, dtype=float)[:, None]
        member = np.zeros((2, n), dtype=bool)
        member[0, n - 1] = True
        member[1, [0, n - 1]] = True
        with mock.patch.object(NeighbourIndex, "_argmin",
                               autospec=True, side_effect=NeighbourIndex._argmin) as argmin:
            got = NeighbourIndex(X).nearest_batch(member, exclude_self=True)
        assert argmin.called
        assert got[0].tolist() == [n - 1] * n  # the lone retained row is its own
        assert got[1].tolist() == [n - 1] + [0] * (n // 2 - 1) + [n - 1] * (n // 2 - 1) + [0]

    def test_batch_rejects_an_empty_reference_set(self):
        index = NeighbourIndex(np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError):
            index.nearest_batch(np.array([[True, False], [False, False]]))

    @given(problem=grid_problems())
    @settings(max_examples=100, deadline=None)
    def test_queries_match_classify_1nn(self, problem):
        X, y, nominal, retained, depth = problem
        Q = X[::-1] + 1.0
        with mock.patch.object(knn, "RANK_DEPTH", depth):
            index = NeighbourIndex(X, nominal, queries=Q)
        assert np.array_equal(classify_1nn(X, y, retained, Q, index=index),
                              classify_1nn(X, y, retained, Q, nominal))

    @given(D=arrays(np.float64, st.tuples(st.integers(1, 20), st.integers(1, 12)),
                    elements=st.integers(0, 4).map(float)),
           k=st.integers(1, 12), rows_per_block=st.integers(1, 21))
    # three values in six columns: ties at the k-th value, in 3 blocks of rows
    @example(D=(np.arange(54).reshape(9, 6) * 7 % 3).astype(float), k=2, rows_per_block=3)
    def test_stable_top_k_is_a_stable_argsort_prefix(self, D, k, rows_per_block):
        want = np.argsort(D, axis=1, kind="stable")[:, :k]
        with mock.patch.object(knn, "_BLOCK_CELLS", rows_per_block * D.shape[1]):
            assert np.array_equal(_stable_top_k(D, k), want)

    def test_lone_retained_self_is_its_own_leave_one_out_neighbour(self):
        # nothing else retained: the per-call argmin picks the only column
        X = np.array([[0.0], [1.0], [2.0]])
        with mock.patch.object(knn, "RANK_DEPTH", 1):
            index = NeighbourIndex(X)
        assert index.nearest([1], exclude_self=True).tolist() == [1, 1, 1]

    def test_leave_one_out_needs_square_index(self):
        X = np.array([[0.0], [1.0]])
        index = NeighbourIndex(X, queries=np.array([[0.5]]))
        with pytest.raises(ValueError):
            index.nearest([0, 1], exclude_self=True)
        with pytest.raises(ValueError):
            classify_1nn(X, np.array([1, 0]), [0, 1], X, index=index)


def _peak_above_kept(build):
    """``build()`` and the most bytes its temporaries held at once beyond what
    was still allocated when it returned (numpy reports its buffers to
    tracemalloc)."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        result = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - kept


def _ranked_index(X):
    index = NeighbourIndex(X)
    index.ranks(exclude_self=True)
    return index


class TestMemory:
    # whole-matrix temporaries took 7.3 MB above the index and 12.2 MB above
    # the lookups' result at these sizes
    def test_index_and_ranks_take_one_block_more_than_they_keep(self):
        X = np.random.default_rng(0).standard_normal((1000, 8))
        _, above = _peak_above_kept(lambda: _ranked_index(X))
        # one 2 MB block of distances plus the ranks' small per-block arrays
        assert above <= 3 * 2**20

    def test_batch_lookup_stays_within_its_blocks(self):
        index = _ranked_index(np.random.default_rng(0).standard_normal((1000, 8)))
        member = np.random.default_rng(1).random((400, 1000)) < 0.3
        nn, above = _peak_above_kept(lambda: index.nearest_batch(member, exclude_self=True))
        assert nn.shape == member.shape
        assert above <= 4 * 2**20  # the 3.2 MB result is kept

