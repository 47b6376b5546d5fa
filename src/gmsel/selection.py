"""Single (non-ensemble) instance-selection methods for imbalanced data.

All functions take a scaled data matrix ``X`` and a 0/1 label vector ``y``
(1 = positive/minority; another label is a ValueError) and return a
:class:`~gmsel.knn.ReferenceSet` of retained indices.  Every method except
random editing retains all minority instances by construction; every returned
set contains both classes.  Stochastic methods are pure functions of (inputs,
seed).  A method given ``index``, a :class:`~gmsel.knn.NeighbourIndex` over
``X``, takes its metric from it; without one it builds an all-numeric one
(random editing computes its keys a block at a time), and one over other rows
is a ValueError.  NCL reads its leave-one-out ranks.  Counts are checked by
:func:`gmsel.data._check_count`: a bool or a float is a ValueError.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import _check_count
from .knn import ReferenceSet, _index_over, _labels, _retained, loo_gm_best, loo_predict
from .knn import pairwise_distances  # noqa: F401  (perfbench/test_perfbench.py traces it here)

logger = logging.getLogger(__name__)

__all__ = [
    "EusParams",
    "PsoParams",
    "rus",
    "tomek_links",
    "cnn_mod",
    "oss",
    "tl_cnn",
    "ncl",
    "eus",
    "pso_select",
    "random_edit",
]


def _check_xy(X, y):
    X = np.asarray(X, dtype=float)
    y = _labels(X, y)
    if (bad := y[(y != 0) & (y != 1)]).size:
        raise ValueError(f"labels must be 0 or 1, got {bad[0]}")
    if not (np.any(y == 1) and np.any(y == 0)):
        raise ValueError("both classes must be present")
    return X, y


def rus(X, y, seed, weights=None) -> ReferenceSet:
    """Random undersampling: all positives plus N+ negatives, p proportional to ``weights``."""
    X, y = _check_xy(X, y)
    rng = np.random.default_rng(seed)
    pos_idx, neg_idx = np.flatnonzero(y == 1), np.flatnonzero(y == 0)
    if neg_idx.size < pos_idx.size:
        logger.warning("rus: majority smaller than minority; retaining all negatives")
        return ReferenceSet(np.arange(len(y)), method="rus", seed=seed)
    w = (np.ones(len(y)) if weights is None else np.asarray(weights, dtype=float))[neg_idx]
    neg_sample = rng.choice(neg_idx, size=pos_idx.size, replace=False, p=w / w.sum(),
                            shuffle=False)
    return ReferenceSet(np.concatenate([pos_idx, neg_sample]), method="rus", seed=seed)


def tomek_links(X, y, *, subset=None, index=None) -> ReferenceSet:
    """Remove majority members of Tomek links (mutual cross-class NN pairs)
    among ``subset``, or all rows, each row's neighbour found by one
    leave-one-out ``nearest`` lookup in ``index`` over the rows considered.
    If every negative is in a link, the rows are returned unchanged."""
    X, y = _check_xy(X, y)
    idx = np.arange(len(y)) if subset is None else _retained(subset, len(y))
    index = _index_over(X, index)
    # positions in idx of each row's nearest other row of idx
    nn = np.searchsorted(idx, index.nearest(idx, exclude_self=True)[idx])
    in_link = (nn[nn] == np.arange(idx.size)) & (y[idx] != y[idx[nn]])  # mutual, cross-class
    kept = idx[~(in_link & (y[idx] == 0))]
    if not np.any(y[kept] == 0):
        logger.warning("tomek_links: every negative is in a link; identity selection")
        kept = idx
    return ReferenceSet(kept, method="tl")


def cnn_mod(X, y, seed, *, subset=None, index=None) -> ReferenceSet:
    """Imbalance-adapted condensed NN: all positives plus a random majority
    seed instance; remaining majority instances are scanned once in seeded
    shuffle order and added only if misclassified by the current store (one
    ``index.condense`` call).  A ``subset`` with no negative is a ValueError."""
    X, y = _check_xy(X, y)
    rng = np.random.default_rng(seed)
    idx = np.arange(len(y)) if subset is None else _retained(subset, len(y))
    pos = idx[y[idx] == 1]
    neg = idx[y[idx] == 0]
    if neg.size == 0:
        raise ValueError("cnn_mod: subset has no negative")
    order = rng.permutation(neg)
    store = _index_over(X, index).condense(y, np.append(pos, order[0]), order[1:])
    return ReferenceSet(store, method="cnn", seed=seed)


def oss(X, y, seed, *, index=None) -> ReferenceSet:
    """One-sided selection: condensing (cnn_mod) followed by Tomek-link removal."""
    index = _index_over(X, index)
    condensed = cnn_mod(X, y, seed, index=index)
    cleaned = tomek_links(X, y, subset=condensed.retained, index=index)
    return ReferenceSet(cleaned.retained, method="oss", seed=seed)


def tl_cnn(X, y, seed, *, index=None) -> ReferenceSet:
    """Tomek-link removal, then condensing (Batista's ordering), over one index."""
    index = _index_over(X, index)
    cleaned = tomek_links(X, y, index=index)
    condensed = cnn_mod(X, y, seed, subset=cleaned.retained, index=index)
    return ReferenceSet(condensed.retained, method="tlcnn", seed=seed)


def ncl(X, y, *, index=None) -> ReferenceSet:
    """Neighbourhood cleaning rule.

    Majority instances misclassified by their own 3-NN are marked; for every
    misclassified minority instance, its majority-voting neighbours are marked
    instead.  All marks are applied simultaneously in a single pass.
    """
    X, y = _check_xy(X, y)
    n, index = len(y), _index_over(X, index)
    if n < 4:
        logger.warning("ncl: fewer than 4 instances; identity selection")
        return ReferenceSet(np.arange(n), method="ncl")
    nn3 = index.ranks(exclude_self=True)[:, :3]
    votes = y[nn3].sum(axis=1)
    pred = (2 * votes >= 3).astype(y.dtype)  # vote ties toward positive (k=3: no tie)
    mis = pred != y
    marked = (y == 0) & mis
    voters = nn3[(y == 1) & mis].ravel()  # of the misclassified positives
    marked[voters[y[voters] == 0]] = True
    retained = np.flatnonzero(~marked)
    if not (np.any(y[retained] == 1) and np.any(y[retained] == 0)):
        logger.warning("ncl: cleaning would drop a class; identity selection")
        return ReferenceSet(np.arange(n), method="ncl")
    return ReferenceSet(retained, method="ncl")


# ---------------------------------------------------------------------------
# Evolutionary undersampling (GA over the majority-inclusion mask)

@dataclass(frozen=True)
class EusParams:
    population: int = 50
    generations: int = 100
    balance_penalty: float = 0.2  # lambda in fitness - lambda*|1 - n_sel/n_pos|

    def __post_init__(self):
        _check_count("EusParams.population", self.population, 1)
        _check_count("EusParams.generations", self.generations, 0)
        lam = self.balance_penalty
        if (isinstance(lam, bool) or not isinstance(lam, (int, float, np.integer, np.floating))
                or not 0 <= lam < np.inf):
            raise ValueError("EusParams.balance_penalty must be a finite real number >= 0, "
                             f"got {lam!r}")


class _Found:
    """Neighbours already found for one reference set, in a NeighbourIndex's place."""

    def __init__(self, nn):
        self.nn = nn

    def nearest(self, retained, exclude_self=False):
        return self.nn


def _hits(X, y, masks, index):
    """The ``(P, n)`` leave-one-out hit matrix of the ``(P, n_neg)`` majority
    masks: row ``p`` is where 1-NN over the positives plus the negatives of
    ``masks[p]``, each row of ``X`` left out, predicts ``y``.  Every
    neighbour is found by one :meth:`~gmsel.knn.NeighbourIndex.nearest_batch`
    call, and each chromosome's predictions are one ``loo_predict`` call."""
    member = np.repeat((y == 1)[None], len(masks), axis=0)
    member[:, y == 0] = masks
    nn = index.nearest_batch(member, exclude_self=True)
    return np.array([loo_predict(X, y, m.nonzero()[0], index=_Found(row)) == y
                     for m, row in zip(member, nn)])


def eus_fitness(X, y, masks, index, lam=0.2, sample_weight=None) -> np.ndarray:
    """For each row of the ``(P, n_neg)`` population ``masks``: the LOO 1-NN GM
    over positives plus masked negatives, minus the balance penalty
    lambda * |1 - n_selected/n_pos|.  ``index`` is a
    :class:`~gmsel.knn.NeighbourIndex` over ``X``, shared across generations.
    The GM is :func:`~gmsel.knn.loo_gm`'s, from one :func:`_hits` matrix: TP
    and TN are one ``sample_weight`` sum per row, of 1.0s without weights, so
    exact counts; a row without negatives, or a class of weight 0, scores 0.0."""
    pos = y == 1
    w = np.ones(len(y)) if sample_weight is None else sample_weight
    hits = _hits(X, y, masks, index)
    tp = np.array([w[r].sum() for r in hits & pos])
    tn = np.array([w[r].sum() for r in hits & ~pos])
    wp, wn = w[pos].sum(), w[~pos].sum()
    g = np.zeros(len(masks))
    if wp != 0 and wn != 0:
        both = masks.any(axis=1)
        g[both] = np.sqrt((tp[both] / wp) * (tn[both] / wn))
    return g - lam * np.abs(1.0 - masks.sum(axis=1) / np.count_nonzero(pos))


def _with_both_classes(pos_idx, neg_idx, mask):
    """Positives plus the masked negatives; an all-false mask would leave one
    class, so it retains the lowest-index negative instead."""
    return np.concatenate([pos_idx, neg_idx[mask] if mask.any() else neg_idx[:1]])


def _child_draws(rng, size, n_neg):
    """``(t1, t2, take, flip)``: per child, in stream order, two binary
    tournaments (``rng.integers(0, size, 2)`` each) and the crossover and
    mutation draws (``rng.random(n_neg)`` each), as ``(size, 2)`` and
    ``(size, n_neg)`` arrays.

    One ``random_raw`` call gives them all.  For PCG64, ``default_rng``'s
    generator, numpy draws such an integer from a 32-bit half of a word (low
    half first, the high half cached) by Lemire's multiply-shift, and a
    double from a word's top 53 bits; over one value it draws no word.  A
    Lemire rejection (odds about 1e-9 per integer) or a half already cached
    before the call would move that layout, so the stream is rewound and the
    per-child calls draw instead.
    """
    bitgen = rng.bit_generator
    saved = bitgen.state
    if not saved["has_uint32"]:
        k = 2 if size > 1 else 0
        words = bitgen.random_raw(size * (k + 2 * n_neg)).reshape(size, -1)
        halves = np.stack([words[:, :k] & 0xFFFFFFFF, words[:, :k] >> 32], axis=2)
        m = halves.reshape(size, 2 * k) * np.uint64(size)
        if not np.any((m & 0xFFFFFFFF) < (2**32 - size) % size):
            t = (m >> 32).astype(np.int64) if k else np.zeros((size, 4), dtype=np.int64)
            u = (words[:, k:] >> 11) * 2.0**-53
            return t[:, :2], t[:, 2:], u[:, :n_neg], u[:, n_neg:]
        bitgen.state = saved
    draws = [(rng.integers(0, size, size=2), rng.integers(0, size, size=2),
              rng.random(n_neg), rng.random(n_neg)) for _ in range(size)]
    return tuple(np.array(d) for d in zip(*draws))


def eus(X, y, seed, params: EusParams | None = None, *, sample_weight=None,
        index=None) -> ReferenceSet:
    """Evolutionary undersampling: a generational GA over the majority mask.

    Binary tournaments, uniform crossover and bit-flip mutation at rate
    1/n_neg; the best-ever chromosome survives each generation and is
    returned.  Each generation draws its random numbers in one
    :func:`_child_draws` call (one raw-bits block, with the per-child draws
    as fallback) and is scored in one :func:`eus_fitness` call, whose lookups
    go to ``index``, a :class:`~gmsel.knn.NeighbourIndex` over ``X``.
    """
    X, y = _check_xy(X, y)
    params = params or EusParams()
    rng = np.random.default_rng(seed)
    pos_idx, neg_idx = np.flatnonzero(y == 1), np.flatnonzero(y == 0)
    n_neg, size = neg_idx.size, params.population
    index = _index_over(X, index)

    pop = rng.random((size, n_neg)) < 0.5
    fits = eus_fitness(X, y, pop, index, params.balance_penalty, sample_weight)
    best_mask, best_fit = pop[np.argmax(fits)].copy(), float(np.max(fits))

    for _ in range(params.generations):
        t1, t2, take, flip = _child_draws(rng, size, n_neg)
        # a tournament goes to the fitter contender, the first one on a tie
        p1, p2 = (pop[t[np.arange(size), np.argmax(fits[t], axis=1)]] for t in (t1, t2))
        pop = np.where(take < 0.5, p1, p2)
        pop ^= flip < 1.0 / n_neg
        pop[0] = best_mask  # elitism
        fits = eus_fitness(X, y, pop, index, params.balance_penalty, sample_weight)
        gen_best = int(np.argmax(fits))
        if fits[gen_best] > best_fit:
            best_fit, best_mask = float(fits[gen_best]), pop[gen_best].copy()

    return ReferenceSet(_with_both_classes(pos_idx, neg_idx, best_mask),
                        method="eus", seed=seed)


# ---------------------------------------------------------------------------
# Binary PSO over the majority-inclusion mask

@dataclass(frozen=True)
class PsoParams:
    swarm: int = 40
    iterations: int = 100

    def __post_init__(self):
        _check_count("PsoParams.swarm", self.swarm, 1)
        _check_count("PsoParams.iterations", self.iterations, 0)


def _pso_fitness(X, y, masks, index) -> np.ndarray:
    """Mean of balanced AUC, F-measure and GM of the LOO 1-NN predictions, for
    each row of ``masks`` as in :func:`eus_fitness`; 0 for a row without
    negatives.  The confusion cells come from one :func:`_hits` matrix, and
    each measure is computed in :mod:`gmsel.metrics`' order of operations."""
    pos = y == 1
    hits = _hits(X, y, masks, index)
    a, d = np.count_nonzero(hits & pos, axis=1), np.count_nonzero(hits & ~pos, axis=1)
    b, c = np.count_nonzero(pos) - a, np.count_nonzero(~pos) - d
    tpr, tnr = a / (a + b), d / (c + d)
    f = 2 * a / (2 * a + b + c)  # 0.0 where a = 0, as b = n_pos > 0 there
    fits = ((tpr + tnr) / 2 + f + np.sqrt(tpr * tnr)) / 3.0
    return np.where(masks.any(axis=1), fits, 0.0)


def pso_select(X, y, seed, params: PsoParams | None = None, *,
               index=None) -> ReferenceSet:
    """Binary PSO over the majority mask with sigmoid-velocity bit sampling.

    Fitness is the equal-weight mean of balanced AUC, F-measure and GM, one
    :func:`_pso_fitness` call per iteration; the best-ever particle is
    returned (the best of the random initial swarm when ``iterations`` is 0).
    """
    X, y = _check_xy(X, y)
    params = params or PsoParams()
    rng = np.random.default_rng(seed)
    pos_idx = np.flatnonzero(y == 1)
    neg_idx = np.flatnonzero(y == 0)
    n_neg = neg_idx.size
    index = _index_over(X, index)

    pos_mask = rng.random((params.swarm, n_neg)) < 0.5
    vel = rng.uniform(-1, 1, size=(params.swarm, n_neg))
    x = pos_mask.copy()
    fits = _pso_fitness(X, y, x, index)
    pbest, pbest_fit = x.copy(), fits.copy()
    g = int(np.argmax(pbest_fit))
    gbest, gbest_fit = pbest[g].copy(), float(pbest_fit[g])

    for _ in range(params.iterations):
        r1 = rng.random((params.swarm, n_neg))
        r2 = rng.random((params.swarm, n_neg))
        vel = (  # Clerc-Kennedy constriction coefficients, rounded
            0.72 * vel
            + 1.49 * r1 * (pbest.astype(float) - x.astype(float))
            + 1.49 * r2 * (gbest.astype(float) - x.astype(float))
        )
        np.clip(vel, -4.0, 4.0, out=vel)
        x = rng.random((params.swarm, n_neg)) < 1.0 / (1.0 + np.exp(-vel))
        fits = _pso_fitness(X, y, x, index)
        improved = fits > pbest_fit
        pbest[improved] = x[improved]
        pbest_fit[improved] = fits[improved]
        g = int(np.argmax(pbest_fit))
        if pbest_fit[g] > gbest_fit:
            gbest, gbest_fit = pbest[g].copy(), float(pbest_fit[g])

    return ReferenceSet(_with_both_classes(pos_idx, neg_idx, gbest),
                        method="pso", seed=seed)


def random_edit(X, y, M, T, seed, *, index=None) -> ReferenceSet:
    """Best of ``T`` random cardinality-``M`` reference sets by LOO GM.

    Every sampled set is forced to contain at least one instance of each class
    (degenerate draws are resampled from the same stream).  All ``T`` sets are
    drawn, then the first best is found by one :func:`~gmsel.knn.loo_gm_best`
    call, so the best GM is non-decreasing in ``T`` for a fixed seed.  It reads
    the keys of ``index`` if given, else computes its own in blocks of rows.
    """
    X, y = _check_xy(X, y)
    n = len(y)
    _check_count("M", M, 2)
    _check_count("T", T, 1)
    if M > n:
        raise ValueError("cardinality M exceeds the training set size")
    rng = np.random.default_rng(seed)
    cands = np.empty((T, M), dtype=np.intp)
    for cand in cands:
        while True:
            cand[:] = rng.choice(n, size=M, replace=False, shuffle=False)
            if np.any(y[cand] == 1) and np.any(y[cand] == 0):
                break
    best, _ = loo_gm_best(X, y, cands, index=index)
    return ReferenceSet(cands[best], method="re", seed=seed)
