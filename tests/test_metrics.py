import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmsel.metrics import (
    ConfusionCounts,
    balanced_auc,
    bonferroni,
    confusion,
    f_measure,
    gm,
    sign_test,
    tnr,
    tpr,
    win_counts,
)


class TestConfusion:
    def test_all_correct(self):
        c = confusion([1] * 3 + [0] * 7, [1] * 3 + [0] * 7)
        assert (c.a, c.b, c.c, c.d) == (3, 0, 0, 7)

    def test_all_predicted_negative(self):
        c = confusion([1, 1, 0], [0, 0, 0])
        assert c.a == 0 and c.b == 2

    def test_empty(self):
        c = confusion([], [])
        assert (c.a, c.b, c.c, c.d) == (0, 0, 0, 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([1], [1, 0])


class TestRates:
    def test_boundary_at_pdf_intersection(self):
        # TPR 3/9 with perfect TNR
        c = ConfusionCounts(a=3, b=6, c=0, d=7)
        assert gm(c) == pytest.approx(0.5774, abs=1e-4)

    def test_gm_optimal_boundary_value(self):
        # TPR 5/9, TNR 5/7
        c = ConfusionCounts(a=5, b=4, c=2, d=5)
        assert gm(c) == pytest.approx(0.6299, abs=1e-4)
        assert gm(c) == pytest.approx(np.sqrt(25 / 63))

    def test_no_true_positives(self):
        assert gm(ConfusionCounts(a=0, b=5, c=1, d=4)) == 0.0

    def test_empty_class_is_error(self):
        with pytest.raises(ValueError):
            tpr(ConfusionCounts(a=0, b=0, c=1, d=1))
        with pytest.raises(ValueError):
            tnr(ConfusionCounts(a=1, b=1, c=0, d=0))

    def test_gm_swap_symmetry(self):
        c1 = ConfusionCounts(a=4, b=2, c=3, d=9)
        c2 = ConfusionCounts(a=9, b=3, c=2, d=4)
        assert gm(c1) == pytest.approx(gm(c2))

    @given(a=st.integers(0, 50), b=st.integers(0, 50),
           c=st.integers(0, 50), d=st.integers(0, 50))
    def test_gm_bounds_and_perfection(self, a, b, c, d):
        counts = ConfusionCounts(a, b, c, d)
        if a + b == 0 or c + d == 0:
            return
        g = gm(counts)
        assert 0.0 <= g <= 1.0
        assert (g == 1.0) == (b == 0 and c == 0)


class TestFAndAuc:
    def test_derived_case(self):
        c = ConfusionCounts(a=5, b=5, c=5, d=85)
        assert f_measure(c) == pytest.approx(0.5)
        assert balanced_auc(c) == pytest.approx((0.5 + 85 / 90) / 2)

    def test_perfect(self):
        c = ConfusionCounts(a=10, b=0, c=0, d=90)
        assert f_measure(c) == 1.0
        assert balanced_auc(c) == 1.0

    def test_zero_tp_convention(self):
        assert f_measure(ConfusionCounts(a=0, b=3, c=2, d=5)) == 0.0


class TestWinCounts:
    def test_tie_splitting(self):
        wins = win_counts([[0.9, 0.9, 0.5], [0.8, 0.7, 0.8]])
        assert np.allclose(wins, [1.0, 0.5, 0.5])

    def test_strict_winner(self):
        wins = win_counts([[0.9, 0.1], [0.8, 0.2], [0.7, 0.3]])
        assert np.allclose(wins, [3.0, 0.0])

    def test_all_equal(self):
        wins = win_counts(np.full((6, 3), 0.5))
        assert np.allclose(wins, [2.0, 2.0, 2.0])

    @given(st.integers(1, 8), st.integers(1, 5), st.integers(0, 10_000))
    def test_totals_sum_to_trials(self, n_trials, n_methods, seed):
        M = np.random.default_rng(seed).random((n_trials, n_methods))
        assert abs(win_counts(M).sum() - n_trials) < 1e-9


class TestSignTest:
    def test_clean_sweep(self):
        res = sign_test(np.ones(10), np.zeros(10))
        assert res.p_value == pytest.approx(2**-10)

    def test_five_of_ten(self):
        res = sign_test([1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
                        [0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
        assert res.p_value == pytest.approx(638 / 1024)

    def test_all_ties(self):
        res = sign_test([1.0, 2.0], [1.0, 2.0])
        assert res.ties == 2 and res.p_value == 1.0

    def test_direction_symmetry(self):
        rng = np.random.default_rng(3)
        a, b = rng.random(20), rng.random(20)
        fwd, rev = sign_test(a, b), sign_test(b, a)
        assert fwd.wins == rev.losses and fwd.losses == rev.wins
        assert fwd.p_value + rev.p_value >= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sign_test([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("ties", [0, 3])
    def test_p_is_the_exact_tail_rounded_once(self, ties):
        for n in range(61):
            for wins in range(n + 1):
                a = [1.0] * wins + [0.0] * (n - wins) + [0.5] * ties
                b = [0.0] * wins + [1.0] * (n - wins) + [0.5] * ties
                if not a:
                    continue
                tail = sum(math.comb(n, k) for k in range(wins, n + 1))
                res = sign_test(a, b)
                assert (res.wins, res.losses, res.ties) == (wins, n - wins, ties)
                assert res.p_value == float(Fraction(tail, 2**n)), (wins, n)


class TestBonferroni:
    def test_multiplies(self):
        assert bonferroni(0.0001, 132) == pytest.approx(0.0132)

    def test_clamps(self):
        assert bonferroni(0.5, 132) == 1.0

    def test_identity(self):
        assert bonferroni(0.123, 1) == 0.123

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            bonferroni(1.5, 2)


@pytest.mark.parametrize("call, message", [
    (lambda: ConfusionCounts(1, -1, 0, 0), "confusion counts must be nonnegative"),
    (lambda: win_counts([]), "gm_matrix must be a nonempty 2-D array"),
    (lambda: win_counts([0.5, 0.7]), "gm_matrix must be a nonempty 2-D array"),
    (lambda: bonferroni(0.5, 0), "m must be a positive integer"),
], ids=["negative-count", "empty-gm-matrix", "1d-gm-matrix", "zero-tests"])
def test_bad_input_rejected(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
