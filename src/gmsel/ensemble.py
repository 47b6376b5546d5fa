"""Ensemble methods over the 1-NN base learner: bagging, ERUS and boosting.

Members are reference sets over a common training matrix.  Bagging-type
ensembles vote with equal weights; boosting members vote with ln(1/beta_t).
Prediction ties are broken toward the positive class.  A function given
``index``, a :class:`~gmsel.knn.NeighbourIndex` over ``X`` (from ``queries`` for
:func:`predict_ensemble`), takes its metric from it; without one it builds an
all-numeric one, and one over other rows or queries is a ValueError.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .knn import ReferenceSet, _index_over, _labels, _retained, classify_1nn
from .selection import EusParams, _check_xy, eus, rus

logger = logging.getLogger(__name__)

__all__ = [
    "EnsembleModel",
    "bag_1nn",
    "erus",
    "rusboost",
    "eusboost",
    "predict_ensemble",
]

_BETA_FLOOR = 1e-10
_MAX_RETRIES = 10


@dataclass(frozen=True)
class EnsembleModel:
    """Voting ensemble of 1-NN members defined by their reference sets."""

    members: tuple[ReferenceSet, ...]
    weights: np.ndarray

    def __post_init__(self):
        if len(self.members) == 0:
            raise ValueError("ensemble must have at least one member")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(self.members),):
            raise ValueError("one weight per member required")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("member weights must be positive and finite")
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return len(self.members)


def _member_seeds(seed, size):
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(size)]


def bag_1nn(X, y, size=100, seed=0) -> EnsembleModel:
    """Bagging of 1-NN: each member is a same-size bootstrap resample.

    Bootstrap draws missing a class are redrawn from the same member stream.
    """
    X, y = _check_xy(X, y)
    n = len(y)
    members = []
    for s in _member_seeds(seed, size):
        rng = np.random.default_rng(s)
        while True:
            draw = rng.integers(0, n, size=n)
            if np.any(y[draw] == 1) and np.any(y[draw] == 0):
                break
        # 1-NN over a multiset equals 1-NN over the distinct indices, here sorted
        members.append(ReferenceSet(np.flatnonzero(np.bincount(draw, minlength=n)),
                                    method="bag1nn", seed=s))
    return EnsembleModel(tuple(members), np.ones(size))


def erus(X, y, size=100, seed=0) -> EnsembleModel:
    """Ensemble of independent RUS draws combined by unweighted majority vote."""
    members = tuple(rus(X, y, s) for s in _member_seeds(seed, size))
    return EnsembleModel(members, np.ones(size))


def _boost(X, y, size, seed, build_member, index, method):
    """Shared AdaBoost.M2-style harness for the boosting ``method``.

    With two classes and hard votes the pseudo-loss reduces to the weighted
    error on the full training set, which is what is computed here, by rank
    lookups in ``index`` (a :class:`~gmsel.knn.NeighbourIndex` over ``X``).
    ``build_member(member_seed, weights)`` returns the iteration's reference
    set.  Iterations with weighted error >= 0.5 are retried with a fresh
    member seed (up to 10 times), then the ensemble stops early.
    """
    n = len(y)
    w = np.full(n, 1.0 / n)
    members, alphas = [], []
    seeds = iter(_member_seeds(seed, size * (_MAX_RETRIES + 1)))
    for _ in range(size):
        for _retry in range(_MAX_RETRIES + 1):
            member = build_member(next(seeds), w)
            pred = classify_1nn(X, y, member, X, index=index)
            correct = pred == y
            eps = float(np.sum(w[~correct]))
            if eps < 0.5:
                break
        else:
            logger.warning("%s: weighted error stayed >= 0.5; stopping early "
                           "with %d members", method, len(members))
            break
        beta = max(eps / (1.0 - eps), _BETA_FLOOR)
        w = w * np.where(correct, beta, 1.0)
        w = w / w.sum()
        members.append(member)
        alphas.append(np.log(1.0 / beta))
    if not members:
        raise ValueError(f"{method}: no usable member could be built")
    return EnsembleModel(tuple(members), np.array(alphas))


def rusboost(X, y, size=10, seed=0, *, index=None) -> EnsembleModel:
    """Boosting of RUS: weighted undersampling of the majority class in each
    iteration, with AdaBoost-style reweighting of the full training set."""

    def build(member_seed, weights):
        return rus(X, y, member_seed, weights=weights)

    return _boost(X, y, size, seed, build, _index_over(X, index), "rusboost")


def eusboost(X, y, size=10, seed=0, params: EusParams | None = None, *,
             index=None) -> EnsembleModel:
    """AdaBoost-like ensemble of EUS.

    Each iteration runs the evolutionary search with the current boosting
    weights driving its LOO GM fitness, so hard instances steer the selection;
    the beta/weight arithmetic is shared with rusboost.  One neighbour index
    serves every member search and the boosting error.
    """
    index = _index_over(X, index)

    def build(member_seed, weights):
        return eus(X, y, member_seed, params, sample_weight=weights, index=index)

    return _boost(X, y, size, seed, build, index, "eusboost")


def predict_ensemble(model: EnsembleModel, X, y, queries, *, index=None) -> np.ndarray:
    """Weighted vote over member 1-NN predictions; ties go to the positive class.

    The query-to-training distances are computed once, and every member's
    neighbours are found in one :meth:`~gmsel.knn.NeighbourIndex.nearest_batch`
    lookup over the members-by-rows membership matrix.  The votes are added
    member by member, so the float sums keep the members' order.
    """
    y = _labels(X, y)
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    index = _index_over(X, index, queries)
    member = np.zeros((model.size, index.distances.shape[1]), dtype=bool)
    for row, ref in zip(member, model.members):
        row[_retained(ref, len(row))] = True
    votes = np.where(y[index.nearest_batch(member)] == 1, 1.0, -1.0)
    score = np.zeros(queries.shape[0])
    for vote, weight in zip(votes, model.weights):
        score += weight * vote
    return (score >= 0).astype(y.dtype)
