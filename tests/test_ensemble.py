import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmsel
from gmsel.ensemble import (
    EnsembleModel,
    _boost,
    bag_1nn,
    erus,
    eusboost,
    predict_ensemble,
    rusboost,
)
from gmsel.knn import RANK_DEPTH, NeighbourIndex, ReferenceSet, classify_1nn
from gmsel.selection import EusParams, rus


def clusters(n_pos=6, n_neg=24, gap=1.5, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(gap, 1.0, (n_pos, 2)), rng.normal(0, 1.0, (n_neg, 2))])
    y = np.array([1] * n_pos + [0] * n_neg)
    return X, y


class TestPredictEnsemble:
    X = np.array([[0.0], [1.0]])
    y = np.array([1, 0])

    def test_single_member_passthrough(self):
        ref = ReferenceSet(np.array([0, 1]))
        model = EnsembleModel((ref,), np.ones(1))
        q = np.array([[0.2], [0.8]])
        assert np.array_equal(
            predict_ensemble(model, self.X, self.y, q),
            classify_1nn(self.X, self.y, ref, q),
        )

    def test_index_for_other_queries_rejected(self):
        # an index from one query row had its one vote broadcast to both
        model = EnsembleModel((ReferenceSet(np.array([0, 1])),), np.ones(1))
        index = NeighbourIndex(self.X, queries=[[0.9]])
        with pytest.raises(ValueError, match="other queries"):
            predict_ensemble(model, self.X, self.y, [[0.2], [0.8]], index=index)

    def test_member_past_the_training_rows_rejected(self):
        # row 9 of 2 was dropped from the membership matrix without a word
        model = EnsembleModel((ReferenceSet(np.array([0, 9])),), np.ones(1))
        for index in (None, NeighbourIndex(self.X, queries=[[0.2]])):
            with pytest.raises(ValueError, match="row 9 out of range for 2 "):
                predict_ensemble(model, self.X, self.y, [[0.2]], index=index)

    def test_unanimous_members(self):
        ref = ReferenceSet(np.array([0]))
        model = EnsembleModel((ref, ref, ref), np.ones(3))
        assert predict_ensemble(model, self.X, self.y, [[5.0]])[0] == 1

    def test_vote_tie_goes_positive(self):
        pos_only = ReferenceSet(np.array([0]))
        neg_only = ReferenceSet(np.array([1]))
        model = EnsembleModel((pos_only, neg_only), np.ones(2))
        assert predict_ensemble(model, self.X, self.y, [[0.5]])[0] == 1

    def test_member_order_invariance(self):
        X, y = clusters()
        m1 = erus(X, y, size=5, seed=3)
        m2 = EnsembleModel(tuple(reversed(m1.members)), m1.weights[::-1])
        q = np.random.default_rng(1).normal(0, 1.5, (20, 2))
        assert np.array_equal(predict_ensemble(m1, X, y, q),
                              predict_ensemble(m2, X, y, q))

    @given(seed=st.integers(0, 2**32 - 1), nominal=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_equals_weighted_vote_of_member_classify_1nn(self, seed, nominal):
        # integer-grid data: exact ties and duplicate rows are common
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 4, (40, 3)).astype(float)
        y = np.array([1] * 8 + [0] * 32)
        q = rng.integers(0, 4, (25, 3)).astype(float)
        mask = np.array([False, True, False]) if nominal else None
        members = tuple(
            ReferenceSet(np.concatenate([rng.choice(8, rng.integers(1, 9), replace=False),
                                         8 + rng.choice(32, rng.integers(1, 33), replace=False)]))
            for _ in range(rng.integers(1, 8)))
        weights = rng.uniform(0.1, 2.0, len(members))
        model = EnsembleModel(members, weights)
        score = sum(w * np.where(classify_1nn(X, y, m, q, mask) == 1, 1.0, -1.0)
                    for m, w in zip(members, weights))
        index = NeighbourIndex(X, mask, q)  # the index carries the metric
        assert np.array_equal(predict_ensemble(model, X, y, q, index=index),
                              (score >= 0).astype(y.dtype))

    @pytest.mark.parametrize("n_queries", [1, 60])
    def test_two_row_members_over_more_rows_than_ranked(self, n_queries):
        # 100 members of one positive and one negative each over 200 rows:
        # most queries rank neither among their RANK_DEPTH nearest rows, so
        # their lookups miss the ranks and take the argmin over the members
        X, y = clusters(20, 180, seed=4)
        assert len(y) > RANK_DEPTH
        rng = np.random.default_rng(9)
        members = tuple(ReferenceSet([rng.integers(20), 20 + rng.integers(180)])
                        for _ in range(100))
        weights = rng.uniform(0.1, 2.0, len(members))
        q = rng.normal(0.5, 1.5, (n_queries, 2))
        score = np.zeros(n_queries)
        for m, w in zip(members, weights):
            score += w * np.where(classify_1nn(X, y, m, q) == 1, 1.0, -1.0)
        got = predict_ensemble(EnsembleModel(members, weights), X, y, q)
        assert np.array_equal(got, (score >= 0).astype(y.dtype))


class TestBagging:
    def test_members_cover_both_classes(self):
        X, y = clusters(3, 40)
        model = bag_1nn(X, y, size=20, seed=0)
        for m in model.members:
            assert np.any(y[m.retained] == 1) and np.any(y[m.retained] == 0)

    def test_deterministic(self):
        X, y = clusters()
        a = bag_1nn(X, y, size=10, seed=5)
        b = bag_1nn(X, y, size=10, seed=5)
        for ma, mb in zip(a.members, b.members):
            assert np.array_equal(ma.retained, mb.retained)

    def test_single_member_equals_its_member(self):
        X, y = clusters()
        model = bag_1nn(X, y, size=1, seed=2)
        q = np.random.default_rng(0).normal(0, 1.5, (15, 2))
        assert np.array_equal(
            predict_ensemble(model, X, y, q),
            classify_1nn(X, y, model.members[0], q),
        )

    def test_one_class_rejected(self):
        # one class was redrawn for ever; a child process bounds the wait
        code = ("import numpy as np\nfrom gmsel.ensemble import bag_1nn\n"
                "try:\n    bag_1nn(np.zeros((3, 1)), np.zeros(3, dtype=int), size=1)\n"
                "except ValueError as exc:\n    print(exc)\n")
        src = str(Path(gmsel.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=30, check=True)
        assert out.stdout.strip() == "both classes must be present"

    def test_labels_of_another_length_rejected(self):
        # 3 rows and 5 labels gave a member [0, 1, 2, 4]
        with pytest.raises(ValueError, match="^5 labels for 3 rows$"):
            bag_1nn(np.zeros((3, 1)), np.array([1, 0, 1, 0, 1]), size=4)


class TestErus:
    def test_size_one_equals_single_rus(self):
        X, y = clusters()
        model = erus(X, y, size=1, seed=7)
        base = rus(X, y, model.members[0].seed)
        q = np.random.default_rng(0).normal(0, 1.5, (15, 2))
        assert np.array_equal(model.members[0].retained, base.retained)
        assert np.array_equal(predict_ensemble(model, X, y, q),
                              classify_1nn(X, y, base, q))

    def test_members_balanced(self):
        X, y = clusters(5, 50)
        model = erus(X, y, size=10, seed=0)
        for m in model.members:
            assert np.sum(y[m.retained] == 1) == 5
            assert np.sum(y[m.retained] == 0) == 5


@pytest.mark.parametrize("call, message", [
    (lambda: EnsembleModel((), np.ones(0)), "ensemble must have at least one member"),
    (lambda: EnsembleModel((ReferenceSet([0]),), np.ones(2)), "one weight per member required"),
    (lambda: EnsembleModel((ReferenceSet([0]),), [0.0]), "must be positive and finite"),
    (lambda: EnsembleModel((ReferenceSet([0]),), [np.inf]), "must be positive and finite"),
    # identical rows, positives first: row 0 is every row's neighbour, so
    # every member errs on the eight negatives
    (lambda: rusboost(np.zeros((10, 2)), [1, 1] + [0] * 8, 3, 0),
     "rusboost: no usable member could be built"),
    # one member, numpy TypeErrors, and messages that did not name the size
    (lambda: rusboost(*clusters(), True, 0), "^size must be an integer, got True$"),
    (lambda: bag_1nn(*clusters(), 2.5, 0), "^size must be an integer, got 2.5$"),
    (lambda: erus(*clusters(), 0, 0), "^size must be at least 1, got 0$"),
    (lambda: eusboost(*clusters(), 0, 0), "^size must be at least 1, got 0$"),
], ids=["no-member", "weight-count", "zero-weight", "infinite-weight", "no-usable-member",
        "rusboost-size-bool", "bag-size-float", "erus-size-zero", "eusboost-size-zero"])
def test_bad_input_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestBoostHarness:
    def test_beta_arithmetic_quarter_error(self):
        # stub member {0, 2} misclassifies only the instance at 0.3:
        # eps = 0.25, beta = 1/3, vote weight ln 3
        X = np.array([[0.0], [0.3], [1.0], [1.1]])
        y = np.array([1, 0, 0, 0])

        def build(seed, w):
            return ReferenceSet(np.array([0, 2]))

        model = _boost(X, y, size=1, seed=0, build_member=build,
                       index=NeighbourIndex(X), method="stub")
        assert model.weights[0] == pytest.approx(np.log(3))

    def test_weight_update_renormalizes(self):
        X = np.array([[0.0], [0.3], [1.0], [1.1]])
        y = np.array([1, 0, 0, 0])
        seen = []

        def build(seed, w):
            seen.append(w.copy())
            return ReferenceSet(np.array([0, 2]))

        _boost(X, y, size=2, seed=0, build_member=build, index=NeighbourIndex(X),
               method="stub")
        w = seen[1]
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(w >= 0)
        # the misclassified instance gains relative weight
        assert w[1] == pytest.approx(0.5)
        assert np.allclose(w[[0, 2, 3]], 1 / 6)


class TestRusboost:
    def test_separable_first_member_perfect(self):
        X, y = clusters(4, 16, gap=60.0, seed=1)
        model = rusboost(X, y, size=5, seed=0)
        q = np.vstack([np.random.default_rng(2).normal(60.0, 1.0, (5, 2)),
                       np.random.default_rng(3).normal(0.0, 1.0, (5, 2))])
        pred = predict_ensemble(model, X, y, q)
        assert np.array_equal(pred, [1] * 5 + [0] * 5)

    def test_deterministic(self):
        X, y = clusters()
        a = rusboost(X, y, size=4, seed=9)
        b = rusboost(X, y, size=4, seed=9)
        assert np.array_equal(a.weights, b.weights)
        for ma, mb in zip(a.members, b.members):
            assert np.array_equal(ma.retained, mb.retained)

    def test_members_contain_both_classes(self):
        X, y = clusters(4, 40)
        model = rusboost(X, y, size=6, seed=0)
        for m in model.members:
            assert np.any(y[m.retained] == 1) and np.any(y[m.retained] == 0)


class TestEusboost:
    params = EusParams(population=8, generations=3)

    def test_deterministic(self):
        X, y = clusters(5, 20)
        a = eusboost(X, y, size=2, seed=1, params=self.params)
        b = eusboost(X, y, size=2, seed=1, params=self.params)
        for ma, mb in zip(a.members, b.members):
            assert np.array_equal(ma.retained, mb.retained)

    def test_size_one_equals_single_eus(self):
        from gmsel.selection import eus

        X, y = clusters(5, 20)
        model = eusboost(X, y, size=1, seed=4, params=self.params)
        # iteration 1 runs with uniform weights, which is exactly plain EUS
        base = eus(X, y, model.members[0].seed, params=self.params)
        assert np.array_equal(model.members[0].retained, base.retained)
