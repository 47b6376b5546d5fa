from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import exact_twin
from gmsel import ensemble, knn, selection
from gmsel.bench import make_synthetic_dataset
from gmsel.data import apply_scaler, fit_scaler, parse_keel
from gmsel.knn import NeighbourIndex, ReferenceSet, loo_gm, loo_predict, pairwise_distances
from gmsel.metrics import balanced_auc, confusion, f_measure, gm
from gmsel.selection import (
    EusParams,
    PsoParams,
    _pso_fitness,
    cnn_mod,
    eus,
    eus_fitness,
    ncl,
    oss,
    pso_select,
    random_edit,
    rus,
    tl_cnn,
    tomek_links,
)


def clusters(n_pos=5, n_neg=20, gap=50.0, seed=0):
    """Two tight, far-separated 1D clusters."""
    rng = np.random.default_rng(seed)
    X = np.concatenate([rng.random(n_pos), gap + rng.random(n_neg)])[:, None]
    y = np.array([1] * n_pos + [0] * n_neg)
    return X, y


class TestRus:
    def test_balances_exactly(self):
        X, y = clusters(10, 100)
        ref = rus(X, y, seed=0)
        assert np.sum(y[ref.retained] == 1) == 10
        assert np.sum(y[ref.retained] == 0) == 10

    def test_keeps_all_positives(self):
        X, y = clusters(7, 30)
        ref = rus(X, y, seed=3)
        assert set(np.flatnonzero(y == 1)) <= set(ref.retained)

    def test_balanced_input_retains_everything(self):
        X, y = clusters(8, 8)
        assert set(rus(X, y, seed=1).retained) == set(range(16))

    def test_deterministic(self):
        X, y = clusters(5, 40)
        assert np.array_equal(rus(X, y, 9).retained, rus(X, y, 9).retained)

    def test_fewer_negatives_than_positives_keeps_all_rows(self, caplog):
        X, y = clusters(6, 4)
        assert rus(X, y, seed=0).retained.tolist() == list(range(10))
        assert "majority smaller than minority" in caplog.text


class TestRandomEditReadsTheIndex:
    """A training index's keys pick the set that random editing's own blocks
    of keys pick, on integer grids with exact ties too, over blocks of rows
    whose last one is short or would be one row, and with more sets than the
    pilot, so that both passes read them."""

    @given(n=st.integers(4, 60), d=st.integers(1, 4), grid=st.booleans(),
           positives=st.sampled_from([0.2, 0.5]), cardinality=st.integers(2, 60),
           T=st.integers(1, 300), rows_per_block=st.integers(2, 60),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    @example(n=31, d=2, grid=True, positives=0.2, cardinality=5, T=200, rows_per_block=3,
             seed=0)  # ten blocks of three rows, the last with four
    def test_the_index_does_not_change_the_choice(self, n, d, grid, positives, cardinality,
                                                  T, rows_per_block, seed):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 3, (n, d)).astype(float) if grid else rng.standard_normal((n, d))
        y = (rng.random(n) < positives).astype(np.int64)
        y[0], y[1] = 1, 0
        M = min(cardinality, n)
        with mock.patch.object(knn, "_BLOCK_CELLS", min(rows_per_block, n) * n):
            want = random_edit(X, y, M, T, seed)
            got = random_edit(X, y, M, T, seed, index=NeighbourIndex(X))
        assert got.retained.tolist() == want.retained.tolist()


@pytest.mark.parametrize("call, match", [
    (lambda X, y: rus(X, np.ones_like(y), 0), "both classes must be present"),
    (lambda X, y: tomek_links(X, np.zeros_like(y)), "both classes must be present"),
    (lambda X, y: random_edit(X, y, M=len(y) + 1, T=5, seed=0),
     "cardinality M exceeds the training set size"),
], ids=["one-class-rus", "one-class-tomek", "random-edit-m-over-n"])
def test_bad_input_rejected(call, match):
    X, y = clusters()
    with pytest.raises(ValueError, match=match):
        call(X, y)


# a label 2 was never selected by rus, and the other methods accepted it
@pytest.mark.parametrize("call", [
    lambda X, y: rus(X, y, 0),
    lambda X, y: tomek_links(X, y),
    lambda X, y: cnn_mod(X, y, 0),
    lambda X, y: oss(X, y, 0),
    lambda X, y: tl_cnn(X, y, 0),
    lambda X, y: ncl(X, y),
    lambda X, y: eus(X, y, 0, EusParams(2, 1)),
    lambda X, y: pso_select(X, y, 0, PsoParams(2, 1)),
    lambda X, y: random_edit(X, y, 3, 2, 0),
    lambda X, y: ensemble.bag_1nn(X, y, 2),
    lambda X, y: ensemble.erus(X, y, 2),
    lambda X, y: ensemble.rusboost(X, y, 2),
    lambda X, y: ensemble.eusboost(X, y, 2, params=EusParams(2, 1)),
], ids=["rus", "tl", "cnn", "oss", "tlcnn", "ncl", "eus", "pso", "re", "bag1nn", "erus",
        "rusboost", "eusboost"])
def test_labels_other_than_0_and_1_rejected(call):
    X, y = clusters()
    y[[3, 9]] = 2
    with pytest.raises(ValueError, match="^labels must be 0 or 1, got 2$"):
        call(X, y)


# subsets that are not a set of rows: each was read as some other set
BAD_SUBSETS = pytest.mark.parametrize("subset, match", [
    ([0, 1, 5, 5, 6], "unique"),  # cnn_mod dropped the repeat
    ([0, 1, 5, 6, -1], "negative"),  # cnn_mod read -1 as the last row
    (np.arange(34) % 2 == 0, "integer index vector"),  # the mask read as rows 0 and 1
    ([0, 1, 5, 6, 34], "row 34 out of range for 34 "),  # an IndexError from numpy
], ids=["repeat", "negative", "mask", "past the end"])


class TestTomekLinks:
    @BAD_SUBSETS
    def test_bad_subset_rejected(self, subset, match):
        X, y = clusters(4, 30, gap=3.0)
        with pytest.raises(ValueError, match=match):
            tomek_links(X, y, subset=subset)

    def test_separated_clusters_untouched(self):
        X, y = clusters()
        assert len(tomek_links(X, y)) == len(y)

    def test_line_example(self):
        # mutual cross-class NN pairs: (0.0+, 0.1-) and (5.0-, 5.1+);
        # the negative member of each link is removed, the far negative stays
        X = np.array([[0.0], [0.1], [5.0], [5.1], [10.0]])
        y = np.array([1, 0, 0, 1, 0])
        ref = tomek_links(X, y)
        assert set(ref.retained) == {0, 3, 4}

    def test_one_instance_per_class(self):
        # the lone negative is in a link, but removing it would drop the class
        X = np.array([[0.0], [1.0]])
        y = np.array([1, 0])
        assert set(tomek_links(X, y).retained) == {0, 1}

    def test_no_removal_when_all_nn_same_class(self):
        X = np.array([[0.0], [0.2], [9.0], [9.1], [9.2]])
        y = np.array([1, 1, 0, 0, 0])
        assert len(tomek_links(X, y)) == 5

    def test_lookup_over_every_row_reads_the_ranks(self):
        # every row's neighbour is its first leave-one-out rank, no argmin
        X, y = clusters(10, 2 * knn.RANK_DEPTH)
        with mock.patch.object(NeighbourIndex, "_argmin", side_effect=AssertionError):
            got = tomek_links(X, y).retained
        assert np.array_equal(got, _oracle_tomek(X, y, None, np.arange(len(y))))


class TestCnnMod:
    def test_tight_far_majority_cluster(self):
        X, y = clusters(4, 30, gap=100.0)
        ref = cnn_mod(X, y, seed=0)
        assert np.sum(y[ref.retained] == 0) == 1
        assert np.sum(y[ref.retained] == 1) == 4

    def test_duplicated_majority_all_retained(self):
        # each negative sits exactly on a positive, so it is misclassified
        # (lower positive index wins the distance tie) until added itself
        X = np.array([[0.0], [1.0], [0.0], [1.0]])
        y = np.array([1, 1, 0, 0])
        ref = cnn_mod(X, y, seed=0)
        assert set(ref.retained) == {0, 1, 2, 3}

    def test_deterministic(self):
        X, y = clusters(5, 25, gap=3.0, seed=4)
        assert np.array_equal(cnn_mod(X, y, 7).retained, cnn_mod(X, y, 7).retained)

    def test_subset_without_negative_rejected(self):
        X, y = clusters(4, 30, gap=3.0)
        with pytest.raises(ValueError, match="no negative"):
            cnn_mod(X, y, 0, subset=np.flatnonzero(y == 1))

    @BAD_SUBSETS
    def test_bad_subset_rejected(self, subset, match):
        X, y = clusters(4, 30, gap=3.0)
        with pytest.raises(ValueError, match=match):
            cnn_mod(X, y, 0, subset=subset)


class TestCompositions:
    def test_oss_on_separated_clusters_equals_cnn(self):
        X, y = clusters(4, 30, gap=100.0)
        assert np.array_equal(oss(X, y, 5).retained, cnn_mod(X, y, 5).retained)

    def test_tl_cnn_equals_cnn_when_link_free(self):
        X, y = clusters(4, 30, gap=100.0)
        assert np.array_equal(tl_cnn(X, y, 5).retained, cnn_mod(X, y, 5).retained)

    def test_tl_cnn_composes_hand_traces(self):
        # Tomek pass drops negatives 1 and 2 (see the line example), then
        # condensing keeps both positives and a single surviving negative
        X = np.array([[0.0], [0.1], [5.0], [5.1], [10.0], [11.0]])
        y = np.array([1, 0, 0, 1, 0, 0])
        after_tl = tomek_links(X, y)
        assert set(after_tl.retained) == {0, 3, 4, 5}
        ref = tl_cnn(X, y, seed=0)
        assert set(np.flatnonzero(y == 1)) <= set(ref.retained)
        assert set(ref.retained) <= set(after_tl.retained)

    def test_tl_cnn_builds_one_index(self):
        X, y = clusters(5, 25, gap=3.0, seed=4)
        with mock.patch.object(knn, "NeighbourIndex", wraps=NeighbourIndex) as built:
            got = tl_cnn(X, y, 7).retained
        assert built.call_count == 1
        assert np.array_equal(got, tl_cnn(X, y, 7, index=NeighbourIndex(X)).retained)


class TestIndexOverOtherRows:
    # 40 rows given an index over 60: tomek_links and cnn_mod read the wrong
    # rows without a word, ncl, eus and pso_select ended in an IndexError
    X60, y60 = clusters(10, 50, gap=3.0, seed=2)
    X, y = X60[:40], y60[:40]
    model = ensemble.EnsembleModel((ReferenceSet(np.array([0, 39])),), np.ones(1))
    CALLS = {
        "tomek_links": lambda X, y, index: tomek_links(X, y, index=index),
        "cnn_mod": lambda X, y, index: cnn_mod(X, y, 0, index=index),
        "oss": lambda X, y, index: oss(X, y, 0, index=index),
        "tl_cnn": lambda X, y, index: tl_cnn(X, y, 0, index=index),
        "ncl": lambda X, y, index: ncl(X, y, index=index),
        "ncl_3_rows": lambda X, y, index: ncl(X, y, index=index),  # identity below 4 rows
        "eus": lambda X, y, index: eus(X, y, 0, EusParams(4, 2), index=index),
        "pso_select": lambda X, y, index: pso_select(X, y, 0, PsoParams(4, 2), index=index),
        "rusboost": lambda X, y, index: ensemble.rusboost(X, y, 2, index=index),
        "eusboost": lambda X, y, index: ensemble.eusboost(X, y, 2, params=EusParams(4, 2),
                                                          index=index),
        # from the right queries, but to 60 training rows
        "classify_1nn": lambda X, y, index: knn.classify_1nn(X, y, [0, 39], X, index=index),
        "predict_ensemble": lambda X, y, index: ensemble.predict_ensemble(
            TestIndexOverOtherRows.model, X, y, X, index=index),
    }

    @pytest.mark.parametrize("name", list(CALLS))
    def test_rejected(self, name):
        rows = [0, 1, 39] if name == "ncl_3_rows" else slice(None)
        X, y = self.X[rows], self.y[rows]
        queries = X if name in ("classify_1nn", "predict_ensemble") else None
        index = NeighbourIndex(self.X60, queries=queries)
        with pytest.raises(ValueError,
                           match=rf"other queries or rows: \(\d+, 60\), not \({len(X)}, {len(X)}"):
            self.CALLS[name](X, y, index)
        self.CALLS[name](X, y, NeighbourIndex(X, queries=queries))

    def test_the_index_carries_the_metric(self):
        # as nominal, every pair of rows is 1 apart, so row 0's link is with row 1
        X, y = np.array([[0.0], [5.0], [5.1], [0.1]]), np.array([1, 0, 0, 0])
        assert tomek_links(X, y, index=NeighbourIndex(X, [True])).retained.tolist() == [0, 2, 3]
        assert tomek_links(X, y).retained.tolist() == [0, 1, 2]

    def test_a_stale_positional_mask_is_a_type_error(self):
        # the mask went from every function that takes an index: it would
        # otherwise bind to the index, or to eus's sample_weight
        X, y, mask = self.X, self.y, np.zeros(self.X.shape[1], dtype=bool)
        model, params = self.model, EusParams(4, 2)
        for call in (lambda: tomek_links(X, y, mask), lambda: ncl(X, y, mask),
                     lambda: eus(X, y, 0, params, mask),
                     lambda: ensemble.predict_ensemble(model, X, y, X, mask)):
            with pytest.raises(TypeError):
                call()


@st.composite
def ncl_problems(draw):
    """Integer-grid data (exact ties, duplicate rows) of 4 rows up to twice
    the rank depth, with both classes."""
    n = draw(st.integers(4, 2 * knn.RANK_DEPTH + 8))
    d = draw(st.integers(1, 3))
    X = draw(arrays(np.float64, (n, d), elements=st.integers(0, 3).map(float)))
    nominal = draw(arrays(np.bool_, d)) if draw(st.booleans()) else None
    y = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    y[0], y[1] = 1, 0
    return X, y, nominal


def _oracle_ncl_neighbours(X, nominal):
    """Each row's 3 nearest other rows by exact squares, ties to the lower
    row, its own square the largest."""
    S = exact_twin.squares(X, X, nominal)
    np.fill_diagonal(S, np.iinfo(np.int64).max)
    return np.argsort(S, axis=1, kind="stable")[:, :3]


def _oracle_ncl(X, y, nn3):
    """NCL's marks from the 3 nearest other rows ``nn3``."""
    mis = (2 * y[nn3].sum(axis=1) >= 3) != (y == 1)
    marked = (y == 0) & mis
    voters = nn3[(y == 1) & mis].ravel()
    marked[voters[y[voters] == 0]] = True
    retained = np.flatnonzero(~marked)
    if not (np.any(y[retained] == 1) and np.any(y[retained] == 0)):
        return ReferenceSet(np.arange(len(y)))
    return ReferenceSet(retained)


@st.composite
def subset_problems(draw):
    """An ncl_problems draw, a subset of its rows with both classes, and a seed."""
    X, y, nominal = draw(ncl_problems())
    keep = draw(arrays(np.bool_, len(y)))
    keep[:2] = True
    return X, y, nominal, np.flatnonzero(keep), draw(st.integers(0, 2**32 - 1))


def _oracle_tomek(X, y, nominal, subset):
    """The rows of ``subset`` that are not the negative of a Tomek link, each
    row's neighbour the argmin of the subset's own distances, its own inf;
    all of ``subset`` if that would leave no negative."""
    idx = np.sort(subset)
    D = pairwise_distances(X[idx], X[idx], nominal)
    np.fill_diagonal(D, np.inf)
    nn = np.argmin(D, axis=1)
    link = (nn[nn] == np.arange(idx.size)) & (y[idx] != y[idx[nn]])
    kept = idx[~(link & (y[idx] == 0))]
    return kept if np.any(y[kept] == 0) else idx


class TestSharedIndexTomekPass:
    @given(problem=subset_problems())
    @settings(max_examples=200, deadline=None)
    def test_subset_read_from_the_index_equals_its_own_distances(self, problem):
        X, y, nominal, subset, seed = problem
        index = NeighbourIndex(X, nominal)
        condensed = cnn_mod(X, y, seed, index=index).retained
        with mock.patch.object(knn, "NeighbourIndex", side_effect=AssertionError):
            got = tomek_links(X, y, subset=subset, index=index).retained
            got_oss = oss(X, y, seed, index=index).retained
        assert np.array_equal(got, _oracle_tomek(X, y, nominal, subset))
        assert np.array_equal(got_oss, _oracle_tomek(X, y, nominal, condensed))
        if nominal is None:  # one built from X alone is all-numeric
            assert np.array_equal(oss(X, y, seed).retained, got_oss)

    @given(problem=ncl_problems())
    @settings(max_examples=100, deadline=None)
    def test_all_rows_read_from_the_ranks_equal_the_argmin(self, problem):
        # the oracle is the exact nearest other row, ties to the lower row
        X, y, nominal = problem
        index = NeighbourIndex(X, nominal)
        every = np.arange(len(y))
        assert np.array_equal(index.ranks(exclude_self=True)[:, 0],
                              exact_twin.nearest(X, X, every, nominal, exclude_self=True))
        want = _oracle_tomek(X, y, nominal, np.arange(len(y)))
        with mock.patch.object(NeighbourIndex, "_argmin", side_effect=AssertionError):
            assert np.array_equal(tomek_links(X, y, index=index).retained, want)
            if nominal is None:
                assert np.array_equal(tomek_links(X, y).retained, want)


def _oracle_cnn(X, y, nominal, seed, subset):
    """cnn_mod's store, each scanned row's nearest stored row the exact
    nearest, ties to the lower row."""
    idx = np.arange(len(y)) if subset is None else np.sort(subset)
    order = np.random.default_rng(seed).permutation(idx[y[idx] == 0])
    store = [*idx[y[idx] == 1], order[0]]
    for i in order[1:]:
        if y[exact_twin.nearest(X, X[[i]], store, nominal)[0]] != y[i]:
            store.append(i)
    return np.sort(store)


@st.composite
def cnn_problems(draw):
    """A subset_problems draw whose subset is all rows, the drawn subset, or
    its positives and one negative (nothing left to scan)."""
    X, y, nominal, subset, seed = draw(subset_problems())
    kind = draw(st.sampled_from(["all", "subset", "one negative"]))
    if kind == "one negative":
        subset = np.append(subset[y[subset] == 1], draw(st.sampled_from(subset[y[subset] == 0])))
    return X, y, nominal, None if kind == "all" else subset, seed


class TestCondensing:
    @given(problem=cnn_problems())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_row_oracle(self, problem):
        X, y, nominal, subset, seed = problem
        index = NeighbourIndex(X, nominal)
        want = _oracle_cnn(X, y, nominal, seed, subset)
        assert np.array_equal(cnn_mod(X, y, seed, subset=subset, index=index).retained, want)
        if nominal is None:
            assert np.array_equal(cnn_mod(X, y, seed, subset=subset).retained, want)

    def test_makes_no_nearest_lookup(self):
        X, y = clusters(5, 40, gap=0.5, seed=2)
        with mock.patch.object(NeighbourIndex, "nearest", autospec=True,
                               side_effect=NeighbourIndex.nearest) as spy:
            got = [cnn_mod(X, y, 3), cnn_mod(X, y, 3, subset=np.arange(2, 45),
                                              index=NeighbourIndex(X))]
        assert spy.call_count == 0
        assert [len(r) for r in got] == [12, 10]  # past the first stores, of 6 and 4 rows

    def test_a_stored_row_answers_the_later_scan(self):
        # rows 0+, 1-, 2-, 3+ at 0, 4, 5, 1.5, scanned 2 then 1: row 2's nearest
        # stored row is 3, a positive, so 2 joins the store and is then row 1's
        # nearest; against the first store alone row 1 would join too
        X = np.array([[0.0], [4.0], [5.0], [1.5]])
        y = np.array([1, 0, 0, 1])
        assert NeighbourIndex(X).condense(y, np.array([3, 0]), np.array([2, 1])).tolist() \
            == [3, 0, 2]


class TestNcl:
    def test_separated_clusters_untouched(self):
        X, y = clusters()
        assert len(ncl(X, y)) == len(y)

    def test_line_example(self):
        # - at {0,1,2,10}, + at {9,11}: the 3-NN of -10 vote positive, and
        # the misclassified positives at 9 and 11 mark their negative voters
        # {10, 2}; removal set is {10, 2}
        X = np.array([[0.0], [1.0], [2.0], [10.0], [9.0], [11.0]])
        y = np.array([0, 0, 0, 0, 1, 1])
        ref = ncl(X, y)
        assert set(ref.retained) == {0, 1, 4, 5}

    def test_isolated_negative_needs_both_classes_after_cleaning(self):
        # the lone far negative is marked by its all-positive 3-NN, but
        # removing it would drop the class, so the selection is the identity
        X = np.array([[0.0], [0.1], [0.2], [0.3], [50.0]])
        y = np.array([1, 1, 1, 1, 0])
        assert set(ncl(X, y).retained) == {0, 1, 2, 3, 4}

    def test_isolated_negative_removed_when_another_remains(self):
        # the negative at 0.4 sits inside the positive cluster; its 3-NN all
        # vote positive, so it is removed while the far negatives survive
        X = np.array([[0.0], [0.1], [0.2], [0.3], [0.4], [60.0], [60.1], [60.2]])
        y = np.array([1, 1, 1, 1, 0, 0, 0, 0])
        assert 4 not in ncl(X, y).retained

    def test_tiny_input_identity(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1, 0, 0])
        assert len(ncl(X, y)) == 3

    @given(problem=ncl_problems())
    @example(problem=(np.vstack([np.zeros((knn.RANK_DEPTH + 6, 2)), np.eye(2)]),
                      np.arange(knn.RANK_DEPTH + 8) % 2, None))
    @settings(max_examples=200, deadline=None)
    def test_index_ranks_match_diagonal_copy(self, problem):
        # more than RANK_DEPTH + 1 copies of a point leave some rows out of
        # their own ranks; their leave-one-out ranks drop the last rank instead
        X, y, nominal = problem
        want = _oracle_ncl_neighbours(X, nominal)
        index = NeighbourIndex(X, nominal)
        assert np.array_equal(index.ranks(exclude_self=True)[:, :3], want)
        assert np.array_equal(ncl(X, y, index=index).retained, _oracle_ncl(X, y, want).retained)
        if nominal is None:
            assert np.array_equal(ncl(X, y).retained, _oracle_ncl(X, y, want).retained)


class TestEus:
    def test_all_ones_fitness(self):
        X, y = clusters(5, 15, gap=2.0, seed=2)
        lam = 0.2
        masks = np.ones((1, 15), dtype=bool)
        expected = loo_gm(X, y, np.arange(20)) - lam * abs(1 - 15 / 5)
        assert eus_fitness(X, y, masks, NeighbourIndex(X), lam) == pytest.approx([expected])

    def test_separable_reaches_perfect_gm(self):
        X, y = clusters(4, 12, gap=50.0, seed=1)
        params = EusParams(population=20, generations=15, balance_penalty=0.0)
        ref = eus(X, y, seed=0, params=params)
        assert loo_gm(X, y, ref.retained) == 1.0

    def test_keeps_all_positives(self):
        X, y = clusters(5, 20, gap=2.0)
        ref = eus(X, y, 0, EusParams(population=10, generations=5))
        assert set(np.flatnonzero(y == 1)) <= set(ref.retained)

    def test_deterministic(self):
        X, y = clusters(5, 20, gap=2.0)
        p = EusParams(population=10, generations=5)
        assert np.array_equal(eus(X, y, 4, p).retained, eus(X, y, 4, p).retained)


class _CountingGenerator(np.random.Generator):
    """A Generator that counts its ``integers`` calls, which only the
    per-child draws make."""

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.integer_calls = 0

    def integers(self, *args, **kwargs):
        self.integer_calls += 1
        return super().integers(*args, **kwargs)


def _per_child_draws(rng, size, n_neg):
    """The GA's draws child by child: the stream order _child_draws reproduces."""
    draws = [(rng.integers(0, size, size=2), rng.integers(0, size, size=2),
              rng.random(n_neg), rng.random(n_neg)) for _ in range(size)]
    return [np.array(d) for d in zip(*draws)]


def _assert_same_draws(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and np.array_equal(g, w)


class TestChildDraws:
    @given(size=st.integers(1, 12), n_neg=st.integers(1, 60),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_raw_block_equals_per_child_draws(self, size, n_neg, seed):
        fast = _CountingGenerator(np.random.PCG64(seed))
        loop = np.random.default_rng(seed)
        fast.random((size, n_neg))  # the initial population, as in eus
        loop.random((size, n_neg))
        for _ in range(3):
            _assert_same_draws(selection._child_draws(fast, size, n_neg),
                               _per_child_draws(loop, size, n_neg))
        assert fast.integer_calls == 0  # no generation fell back
        assert fast.random() == loop.random()

    def test_lemire_rejection_falls_back_to_per_child_draws(self):
        # the next word's high half h gives (h * 10) mod 2**32 = 2, below the
        # rejection threshold (2**32 - 10) mod 10 = 6 of a size-10 draw.  The
        # redraw takes a 41st half, so the next generation starts with a half
        # cached and falls back too.
        def rng(generator=np.random.Generator):
            bit_generator = np.random.PCG64(0)
            bit_generator.advance(168_499_528)
            return generator(bit_generator)

        fast, loop = rng(_CountingGenerator), rng()
        for _ in range(2):
            _assert_same_draws(selection._child_draws(fast, 10, 7),
                               _per_child_draws(loop, 10, 7))
        assert fast.integer_calls == 2 * (2 * 10)
        assert fast.random() == loop.random()


def _all_false_seed(n_neg):
    """A seed whose first draw of ``n_neg`` coin flips (the initial
    population of a one-chromosome EUS or a one-particle PSO) is all false."""
    return next(s for s in range(1000)
                if not (np.random.default_rng(s).random((1, n_neg)) < 0.5).any())


class TestDegenerateBestMask:
    """With no search steps a one-member population's random start is the
    result; an all-false start must still return both classes, by retaining
    the lowest-index negative."""

    X, y = clusters(5, 3, gap=2.0)
    want = [0, 1, 2, 3, 4, 5]

    def test_eus(self):
        params = EusParams(population=1, generations=0)
        ref = eus(self.X, self.y, _all_false_seed(3), params)
        assert ref.retained.tolist() == self.want

    def test_pso(self):
        params = PsoParams(swarm=1, iterations=0)
        ref = pso_select(self.X, self.y, _all_false_seed(3), params)
        assert ref.retained.tolist() == self.want


class TestPso:
    def test_fitness_bounded(self):
        X, y = clusters(5, 20, gap=2.0, seed=3)
        masks = np.random.default_rng(0).random((10, 20)) < 0.5
        f = _pso_fitness(X, y, masks, NeighbourIndex(X))
        assert f.shape == (10,) and np.all((0.0 <= f) & (f <= 1.0))

    def test_separable_reaches_perfect_gm(self):
        X, y = clusters(4, 12, gap=50.0, seed=1)
        ref = pso_select(X, y, 0, PsoParams(swarm=15, iterations=10))
        assert loo_gm(X, y, ref.retained) == 1.0

    def test_zero_iterations_returns_initial_best(self):
        X, y = clusters(5, 20, gap=2.0)
        p0 = PsoParams(swarm=10, iterations=0)
        ref = pso_select(X, y, 6, p0)
        assert len(ref) >= 5  # all positives plus at least one negative

    def test_deterministic(self):
        X, y = clusters(5, 20, gap=2.0)
        p = PsoParams(swarm=10, iterations=5)
        assert np.array_equal(pso_select(X, y, 2, p).retained,
                              pso_select(X, y, 2, p).retained)


# ---------------------------------------------------------------------------
# Per-mask oracle: the searches with one weighted-GM / loo_predict call per
# chromosome, the reference that batched scoring must match bit for bit.

def _oracle_loo_gm(X, y, retained, sample_weight, index):
    """Leave-one-out GM of 1-NN over ``retained``, the confusion cells weight
    sums (ones without ``sample_weight``); 0.0 when ``retained`` misses a
    class or a class weighs 0."""
    yr = y[retained]
    if not (np.any(yr == 1) and np.any(yr == 0)):
        return 0.0
    pred = loo_predict(X, y, retained, index=index)
    if sample_weight is None:
        sample_weight = np.ones(len(y))
    pos = y == 1
    tp = sample_weight[pos & (pred == 1)].sum()
    tn = sample_weight[~pos & (pred == 0)].sum()
    wp = sample_weight[pos].sum()
    wn = sample_weight[~pos].sum()
    if wp == 0 or wn == 0:
        return 0.0
    return float(np.sqrt((tp / wp) * (tn / wn)))


def _oracle_eus_fitness(X, y, mask, lam, sample_weight, index):
    pos_idx, neg_idx = np.flatnonzero(y == 1), np.flatnonzero(y == 0)
    retained = np.concatenate([pos_idx, neg_idx[mask]])
    g = _oracle_loo_gm(X, y, retained, sample_weight, index)
    return g - lam * abs(1.0 - mask.sum() / pos_idx.size)


def _oracle_pso_fitness(X, y, mask, index):
    pos_idx, neg_idx = np.flatnonzero(y == 1), np.flatnonzero(y == 0)
    retained = np.concatenate([pos_idx, neg_idx[mask]]) if mask.any() else pos_idx
    if not (np.any(y[retained] == 1) and np.any(y[retained] == 0)):
        return 0.0
    c = confusion(y, loo_predict(X, y, retained, index=index))
    return (balanced_auc(c) + f_measure(c) + gm(c)) / 3.0


def _oracle_eus(X, y, seed, params=None, nominal_mask=None, sample_weight=None,
                index=None):
    """The GA with one draw sequence per child and one fitness call per mask."""
    params = params or EusParams()
    rng = np.random.default_rng(seed)
    pos_idx, neg_idx = np.flatnonzero(y == 1), np.flatnonzero(y == 0)
    n_neg = neg_idx.size
    if index is None:
        index = NeighbourIndex(X, nominal_mask)

    def fitness(mask):
        return _oracle_eus_fitness(X, y, mask, params.balance_penalty, sample_weight,
                                   index)

    pop = rng.random((params.population, n_neg)) < 0.5
    fits = np.array([fitness(m) for m in pop])
    best_mask, best_fit = pop[np.argmax(fits)].copy(), float(np.max(fits))
    for _ in range(params.generations):
        children = np.empty_like(pop)
        for c in range(params.population):
            contenders = rng.integers(0, params.population, size=2)
            p1 = pop[contenders[np.argmax(fits[contenders])]]
            contenders = rng.integers(0, params.population, size=2)
            p2 = pop[contenders[np.argmax(fits[contenders])]]
            child = np.where(rng.random(n_neg) < 0.5, p1, p2)
            child ^= rng.random(n_neg) < 1.0 / n_neg
            children[c] = child
        pop = children
        pop[0] = best_mask
        fits = np.array([fitness(m) for m in pop])
        gen_best = int(np.argmax(fits))
        if fits[gen_best] > best_fit:
            best_fit, best_mask = float(fits[gen_best]), pop[gen_best].copy()
    return ReferenceSet(selection._with_both_classes(pos_idx, neg_idx, best_mask),
                        method="eus", seed=seed)


def _oracle_pso_scorer(X, y, index):
    return lambda masks: np.array([_oracle_pso_fitness(X, y, m, index) for m in masks])


class TestRankPathSearches:
    """On 240 rows, more than RANK_DEPTH, every lookup is a rank lookup, and
    the sparse masks below leave some queries with no retained row ranked."""

    data = make_synthetic_dataset("rank-path", 24, 9, seed=3)
    X, y = data.X, data.y
    n_neg = int(np.sum(y == 0))
    weights = np.random.default_rng(5).random(len(y))

    def masks(self):
        rng = np.random.default_rng(11)
        density = np.repeat([0.0, 0.02, 0.1, 0.5, 1.0], 4)[:, None]
        return rng.random((density.size, self.n_neg)) < density

    @pytest.mark.parametrize("weighted", [False, True])
    def test_eus_fitness_bit_equal_to_oracle(self, weighted):
        w = self.weights if weighted else None
        index = NeighbourIndex(self.X)
        masks = self.masks()
        want = [_oracle_eus_fitness(self.X, self.y, m, 0.2, w, index) for m in masks]
        got = eus_fitness(self.X, self.y, masks, index, sample_weight=w)
        assert np.array_equal(got, want)

    def test_pso_fitness_bit_equal_to_oracle(self):
        masks = self.masks()
        index = NeighbourIndex(self.X)
        want = _oracle_pso_scorer(self.X, self.y, index)(masks)
        assert np.array_equal(_pso_fitness(self.X, self.y, masks, index), want)

    def edge_inputs(self, case):
        """Labels, weights and masks of one edge case, on the same rows."""
        y, w, masks = self.y, self.weights.copy(), self.masks()
        if case == "one chromosome":
            masks = masks[9:10]
        elif case == "one positive":
            y = np.zeros_like(self.y)
            y[np.flatnonzero(self.y == 1)[0]] = 1
            masks = np.random.default_rng(13).random((6, len(y) - 1)) < 0.3
            masks[0] = False
        elif case == "zero weights":
            w[::3] = 0.0
        else:  # every positive weighs 0, so no weighted GM exists
            w[y == 1] = 0.0
        return y, w, masks

    @pytest.mark.parametrize("case", ["one chromosome", "one positive", "zero weights",
                                      "zero positive weights"])
    def test_fitness_bit_equal_to_oracle_at_the_edges(self, case):
        y, w, masks = self.edge_inputs(case)
        index = NeighbourIndex(self.X)
        for weights in (None, w):
            want = [_oracle_eus_fitness(self.X, y, m, 0.2, weights, index) for m in masks]
            got = eus_fitness(self.X, y, masks, index, sample_weight=weights)
            assert np.array_equal(got, want)
        want = _oracle_pso_scorer(self.X, y, index)(masks)
        assert np.array_equal(_pso_fitness(self.X, y, masks, index), want)

    def test_one_loo_predict_per_chromosome(self):
        masks, index = self.masks(), NeighbourIndex(self.X)
        scorers = [lambda: eus_fitness(self.X, self.y, masks, index),
                   lambda: eus_fitness(self.X, self.y, masks, index, sample_weight=self.weights),
                   lambda: _pso_fitness(self.X, self.y, masks, index)]
        for score in scorers:
            with mock.patch.object(selection, "loo_predict", wraps=loo_predict) as spy, \
                    mock.patch.object(selection, "loo_gm", side_effect=AssertionError,
                                      create=True), \
                    mock.patch.object(knn, "loo_gm", side_effect=AssertionError):
                score()
            assert spy.call_count == len(masks)

    def test_fitness_sorts_no_reference_set(self):
        # a chromosome's retained rows reach loo_predict already found and
        # sorted, so the lookup that ignores them must not sort them again
        masks, index = self.masks(), NeighbourIndex(self.X)
        with mock.patch.object(knn, "_retained", wraps=knn._retained) as spy:
            eus_fitness(self.X, self.y, masks, index)
            eus_fitness(self.X, self.y, masks, index, sample_weight=self.weights)
            _pso_fitness(self.X, self.y, masks, index)
        assert spy.call_count == 0

    @pytest.mark.parametrize("weighted", [False, True])
    def test_eus_matches_oracle(self, weighted):
        w = self.weights if weighted else None
        params = EusParams(population=12, generations=8)
        for seed in (0, 1):
            got = eus(self.X, self.y, seed, params, sample_weight=w)
            want = _oracle_eus(self.X, self.y, seed, params, sample_weight=w)
            assert np.array_equal(got.retained, want.retained)

    def test_pso_matches_oracle(self):
        params = PsoParams(swarm=10, iterations=8)
        for seed in (0, 1):
            got = pso_select(self.X, self.y, seed, params)
            with mock.patch.object(selection, "_pso_fitness",
                                   lambda X, y, masks, index:
                                   _oracle_pso_scorer(X, y, index)(masks)):
                want = pso_select(self.X, self.y, seed, params)
            assert np.array_equal(got.retained, want.retained)

    def test_eusboost_matches_oracle(self):
        params = EusParams(population=8, generations=5)
        got = ensemble.eusboost(self.X, self.y, size=3, seed=2, params=params)
        with mock.patch.object(ensemble, "eus", _oracle_eus):
            want = ensemble.eusboost(self.X, self.y, size=3, seed=2, params=params)
        assert np.array_equal(got.weights, want.weights)
        assert [m.retained.tolist() for m in got.members] == \
            [m.retained.tolist() for m in want.members]


class TestRandomEdit:
    def test_single_trial_returned_unconditionally(self):
        X, y = clusters(5, 20, gap=2.0)
        a = random_edit(X, y, M=6, T=1, seed=11)
        b = random_edit(X, y, M=6, T=1, seed=11)
        assert np.array_equal(a.retained, b.retained)
        assert len(a) == 6

    def test_full_cardinality(self):
        X, y = clusters(5, 10, gap=2.0)
        ref = random_edit(X, y, M=15, T=3, seed=0)
        assert set(ref.retained) == set(range(15))

    def test_best_gm_nondecreasing_in_trials(self):
        X, y = clusters(6, 24, gap=1.0, seed=5)
        gms = []
        for T in (1, 5, 20, 60):
            ref = random_edit(X, y, M=8, T=T, seed=42)
            gms.append(loo_gm(X, y, ref.retained))
        assert all(b >= a for a, b in zip(gms, gms[1:]))

    def test_both_classes_guaranteed(self):
        X, y = clusters(2, 40, gap=1.0)
        ref = random_edit(X, y, M=3, T=30, seed=1)
        assert np.any(y[ref.retained] == 1) and np.any(y[ref.retained] == 0)

    def test_m_too_small(self):
        X, y = clusters()
        with pytest.raises(ValueError):
            random_edit(X, y, M=1, T=5, seed=0)
        with pytest.raises(ValueError, match="^T must be at least 1, got 0$"):  # no set to keep
            random_edit(X, y, M=3, T=0, seed=0)

    # each ended in a TypeError from numpy
    @pytest.mark.parametrize("M, T, message", [
        (4, True, "T must be an integer, got True"),
        (2.5, 3, "M must be an integer, got 2.5"),
        (4, 3.0, "T must be an integer, got 3.0"),
    ])
    def test_count_not_an_integer(self, M, T, message):
        X, y = clusters()
        with pytest.raises(ValueError, match=f"^{message}$"):
            random_edit(X, y, M, T, 0)


def _oracle_random_edit(X, y, M, T, seed, nominal_mask=None):
    """The per-trial loop: one loo_gm per drawn set, the first best kept.
    Also returns every trial's GM."""
    rng = np.random.default_rng(seed)
    best_idx, best_gm, gms = None, -1.0, []
    for _ in range(T):
        while True:
            cand = rng.choice(len(y), size=M, replace=False, shuffle=False)
            if np.any(y[cand] == 1) and np.any(y[cand] == 0):
                break
        gms.append(loo_gm(X, y, cand, nominal_mask))
        if gms[-1] > best_gm:
            best_gm, best_idx = gms[-1], cand
    return ReferenceSet(best_idx, method="re", seed=seed), gms


def _grid_keel(n_pos=12, n_neg=48, seed=4):
    """KEEL text with two numeric attributes on a coarse grid (exact distance
    ties) and one nominal attribute."""
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.integers(1, 5, (n_pos, 2)), rng.integers(0, 4, (n_neg, 2))])
    shape = rng.choice(["round", "square"], n_pos + n_neg)
    lines = ["@relation grid", "@attribute a real [0, 4]", "@attribute b real [0, 4]",
             "@attribute shape {round, square}", "@attribute class {positive, negative}",
             "@data"]
    lines += [f"{a}, {b}, {s}, {'positive' if i < n_pos else 'negative'}"
              for i, ((a, b), s) in enumerate(zip(X, shape))]
    return "\n".join(lines) + "\n"


class TestRandomEditMatchesLoop:
    """One loo_gm_best call over all drawn sets picks what the per-trial loop
    picked: the same draws, the same GMs, and the first of equal best GMs,
    also when more sets are drawn than its pilot scores on every row."""

    def _check(self, X, y, M, T, seed, nominal_mask=None):
        index = None if nominal_mask is None else NeighbourIndex(X, nominal_mask)
        got = random_edit(X, y, M, T, seed, index=index)
        want, gms = _oracle_random_edit(X, y, M, T, seed, nominal_mask)
        assert np.array_equal(got.retained, want.retained)
        assert (got.method, got.seed) == (want.method, want.seed)
        return gms

    @pytest.mark.parametrize("M, T, seed", [(2, 50, 0), (6, 80, 3), (15, 40, 7), (25, 30, 11)])
    def test_gaussian_data(self, M, T, seed):
        ds = make_synthetic_dataset("re", 10, 6, seed=seed, d=3)
        self._check(ds.X, ds.y, M, T, seed)

    def test_more_sets_than_the_pilot(self):
        ds = make_synthetic_dataset("re", 6, 9, seed=4, d=2)
        assert len(ds.y) == 60 and knn._PILOT < 300
        gms = self._check(ds.X, ds.y, M=8, T=300, seed=3)
        # the first best comes after the pilot, and a later set equals it
        assert gms.index(max(gms)) >= knn._PILOT and gms.count(max(gms)) == 2

    def test_first_of_equal_best_gms_wins(self):
        X, y = clusters(5, 20, gap=50.0)
        gms = self._check(X, y, M=8, T=60, seed=2)
        assert gms.count(max(gms)) > 1

    @pytest.mark.parametrize("seed", [0, 1])
    def test_file_with_nominal_attributes(self, seed):
        ds = parse_keel(_grid_keel())
        assert ds.nominal_mask.tolist() == [False, False, True]
        X = apply_scaler(fit_scaler(ds), ds.X)
        gms = self._check(X, ds.y, M=10, T=50, seed=seed, nominal_mask=ds.nominal_mask)
        assert len(set(gms)) > 1


class TestInvariants:
    def test_all_methods_keep_minority_and_both_classes(self):
        # the second input puts every negative in a Tomek link
        for X, y in [clusters(6, 30, gap=1.5, seed=8),
                     (np.array([[0.0], [1.0], [10.0], [11.0]]), np.array([1, 0, 1, 0]))]:
            pos = set(np.flatnonzero(y == 1))
            refs = [
                rus(X, y, 0),
                tomek_links(X, y),
                cnn_mod(X, y, 0),
                oss(X, y, 0),
                tl_cnn(X, y, 0),
                ncl(X, y),
                eus(X, y, 0, EusParams(population=8, generations=3)),
                pso_select(X, y, 0, PsoParams(swarm=8, iterations=3)),
            ]
            for ref in refs:
                retained = set(ref.retained)
                assert pos <= retained, ref.method
                assert any(y[i] == 0 for i in retained), ref.method
