"""Single (non-ensemble) instance-selection methods for imbalanced data.

All functions take a scaled data matrix ``X`` and a 0/1 label vector ``y``
(1 = positive/minority) and return a :class:`~gmsel.knn.ReferenceSet` of
retained indices.  Every method except random editing retains all minority
instances by construction; every returned set contains both classes.
Stochastic methods are pure functions of (inputs, seed).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .knn import (NeighbourIndex, ReferenceSet, _stable_top_k, loo_gm, loo_predict,
                  pairwise_distances)
from .metrics import balanced_auc, confusion, f_measure
from .metrics import gm as gm_of

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
    y = np.asarray(y)
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y length mismatch")
    if not (np.any(y == 1) and np.any(y == 0)):
        raise ValueError("both classes must be present")
    return X, y


def _weighted_neg_sample(rng, y, n, weights=None):
    """Draw ``n`` majority indices without replacement, p proportional to weight."""
    neg_idx = np.flatnonzero(y == 0)
    if weights is None:
        p = np.full(neg_idx.size, 1.0 / neg_idx.size)
    else:
        w = np.asarray(weights, dtype=float)[neg_idx]
        p = w / w.sum()
    return rng.choice(neg_idx, size=n, replace=False, p=p, shuffle=False)


def rus(X, y, seed, weights=None) -> ReferenceSet:
    """Random undersampling: keep all positives plus a size-N+ majority sample."""
    X, y = _check_xy(X, y)
    rng = np.random.default_rng(seed)
    pos_idx = np.flatnonzero(y == 1)
    n_pos, n_neg = pos_idx.size, int(np.sum(y == 0))
    if n_neg < n_pos:
        logger.warning("rus: majority smaller than minority; retaining all negatives")
        return ReferenceSet(np.arange(len(y)), method="rus", seed=seed)
    neg_sample = _weighted_neg_sample(rng, y, n_pos, weights)
    return ReferenceSet(np.concatenate([pos_idx, neg_sample]), method="rus", seed=seed)


def tomek_links(X, y, nominal_mask=None, subset=None) -> ReferenceSet:
    """Remove majority members of Tomek links (mutual cross-class NN pairs)."""
    X, y = _check_xy(X, y)
    idx = np.arange(len(y)) if subset is None else np.sort(np.asarray(subset))
    local = np.arange(idx.size)
    nn = NeighbourIndex(X[idx], nominal_mask).nearest(local, exclude_self=True)
    mutual = nn[nn[local]] == local
    cross = y[idx] != y[idx[nn]]
    in_link = mutual & cross
    drop = in_link & (y[idx] == 0)
    return ReferenceSet(idx[~drop], method="tl")


def cnn_mod(X, y, seed, nominal_mask=None, subset=None) -> ReferenceSet:
    """Imbalance-adapted condensed NN: all positives plus a random majority
    seed instance; remaining majority instances are scanned once in seeded
    shuffle order and added only if misclassified by the current store."""
    X, y = _check_xy(X, y)
    rng = np.random.default_rng(seed)
    idx = np.arange(len(y)) if subset is None else np.sort(np.asarray(subset))
    pos = idx[y[idx] == 1]
    neg = idx[y[idx] == 0]
    if neg.size == 0:
        return ReferenceSet(pos, method="cnn", seed=seed)
    order = rng.permutation(neg)
    store = list(pos) + [order[0]]
    index = NeighbourIndex(X, nominal_mask)
    for i in order[1:]:
        if y[index.nearest(store, rows=[i])[0]] != y[i]:
            store.append(i)
    return ReferenceSet(np.array(store), method="cnn", seed=seed)


def oss(X, y, seed, nominal_mask=None) -> ReferenceSet:
    """One-sided selection: condensing (cnn_mod) followed by Tomek-link removal."""
    condensed = cnn_mod(X, y, seed, nominal_mask)
    cleaned = tomek_links(X, y, nominal_mask, subset=condensed.retained)
    return ReferenceSet(cleaned.retained, method="oss", seed=seed)


def tl_cnn(X, y, seed, nominal_mask=None) -> ReferenceSet:
    """Tomek-link removal followed by condensing (Batista's ordering)."""
    cleaned = tomek_links(X, y, nominal_mask)
    condensed = cnn_mod(X, y, seed, nominal_mask, subset=cleaned.retained)
    return ReferenceSet(condensed.retained, method="tlcnn", seed=seed)


def ncl(X, y, nominal_mask=None) -> ReferenceSet:
    """Neighbourhood cleaning rule.

    Majority instances misclassified by their own 3-NN are marked; for every
    misclassified minority instance, its majority-voting neighbours are marked
    instead.  All marks are applied simultaneously in a single pass.
    """
    X, y = _check_xy(X, y)
    n = len(y)
    if n < 4:
        logger.warning("ncl: fewer than 4 instances; identity selection")
        return ReferenceSet(np.arange(n), method="ncl")
    D = pairwise_distances(X, X, nominal_mask)
    np.fill_diagonal(D, np.inf)
    nn3 = _stable_top_k(D, 3)
    votes = y[nn3].sum(axis=1)
    pred = (2 * votes >= 3).astype(y.dtype)  # vote ties toward positive (k=3: no tie)
    marked = np.zeros(n, dtype=bool)
    mis = pred != y
    marked[(y == 0) & mis] = True
    for i in np.flatnonzero((y == 1) & mis):
        voters = nn3[i]
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
    mutation_rate: float | None = None  # default 1/n_neg
    tournament: int = 2
    balance_penalty: float = 0.2  # lambda in fitness - lambda*|1 - n_sel/n_pos|


def eus_fitness(X, y, mask, nominal_mask=None, lam=0.2, sample_weight=None,
                index=None) -> float:
    """GM of the LOO 1-NN over positives plus masked negatives, minus the
    balance penalty lambda * |1 - n_selected/n_pos|.  ``index`` is a
    :class:`~gmsel.knn.NeighbourIndex` over ``X``, shared across evaluations."""
    pos_idx = np.flatnonzero(y == 1)
    neg_idx = np.flatnonzero(y == 0)
    retained = np.concatenate([pos_idx, neg_idx[mask]])
    g = loo_gm(X, y, retained, nominal_mask, sample_weight, index=index)
    return g - lam * abs(1.0 - mask.sum() / pos_idx.size)


def _with_both_classes(pos_idx, neg_idx, mask):
    """Positives plus the masked negatives; an all-false mask would leave one
    class, so it retains the lowest-index negative instead."""
    return np.concatenate([pos_idx, neg_idx[mask] if mask.any() else neg_idx[:1]])


def eus(X, y, seed, params: EusParams | None = None, nominal_mask=None,
        sample_weight=None, index=None) -> ReferenceSet:
    """Evolutionary undersampling: a generational GA over the majority mask.

    Tournament selection, uniform crossover and bit-flip mutation; the single
    best-ever chromosome survives each generation and is returned.  Every
    fitness evaluation looks neighbours up in ``index``, a
    :class:`~gmsel.knn.NeighbourIndex` over ``X`` built here unless given.
    """
    X, y = _check_xy(X, y)
    params = params or EusParams()
    rng = np.random.default_rng(seed)
    pos_idx = np.flatnonzero(y == 1)
    neg_idx = np.flatnonzero(y == 0)
    n_neg = neg_idx.size
    mut = params.mutation_rate if params.mutation_rate is not None else 1.0 / n_neg
    if index is None:
        index = NeighbourIndex(X, nominal_mask)

    def fitness(mask):
        return eus_fitness(X, y, mask, nominal_mask, params.balance_penalty,
                           sample_weight, index)

    pop = rng.random((params.population, n_neg)) < 0.5
    fits = np.array([fitness(m) for m in pop])
    best_mask, best_fit = pop[np.argmax(fits)].copy(), float(np.max(fits))

    for _ in range(params.generations):
        children = np.empty_like(pop)
        for c in range(params.population):
            contenders = rng.integers(0, params.population, size=params.tournament)
            p1 = pop[contenders[np.argmax(fits[contenders])]]
            contenders = rng.integers(0, params.population, size=params.tournament)
            p2 = pop[contenders[np.argmax(fits[contenders])]]
            take = rng.random(n_neg) < 0.5
            child = np.where(take, p1, p2)
            child ^= rng.random(n_neg) < mut
            children[c] = child
        pop = children
        pop[0] = best_mask  # elitism
        fits = np.array([fitness(m) for m in pop])
        gen_best = int(np.argmax(fits))
        if fits[gen_best] > best_fit:
            best_fit = float(fits[gen_best])
            best_mask = pop[gen_best].copy()

    return ReferenceSet(_with_both_classes(pos_idx, neg_idx, best_mask),
                        method="eus", seed=seed)


# ---------------------------------------------------------------------------
# Binary PSO over the majority-inclusion mask

@dataclass(frozen=True)
class PsoParams:
    swarm: int = 40
    iterations: int = 100
    inertia: float = 0.72
    cognitive: float = 1.49
    social: float = 1.49
    v_max: float = 4.0


def _pso_fitness(X, y, mask, nominal_mask=None, index=None):
    """Mean of balanced AUC, F-measure and GM of the LOO 1-NN predictions;
    ``index`` as in :func:`eus_fitness`."""
    pos_idx = np.flatnonzero(y == 1)
    neg_idx = np.flatnonzero(y == 0)
    retained = np.concatenate([pos_idx, neg_idx[mask]]) if mask.any() else pos_idx
    if not (np.any(y[retained] == 1) and np.any(y[retained] == 0)):
        return 0.0
    pred = loo_predict(X, y, retained, nominal_mask, index=index)
    c = confusion(y, pred)
    return (balanced_auc(c) + f_measure(c) + gm_of(c)) / 3.0


def pso_select(X, y, seed, params: PsoParams | None = None,
               nominal_mask=None) -> ReferenceSet:
    """Binary PSO over the majority mask with sigmoid-velocity bit sampling.

    Fitness is the equal-weight mean of balanced AUC, F-measure and GM; the
    best-ever particle is returned (the best of the random initial swarm when
    ``iterations`` is 0).
    """
    X, y = _check_xy(X, y)
    params = params or PsoParams()
    rng = np.random.default_rng(seed)
    pos_idx = np.flatnonzero(y == 1)
    neg_idx = np.flatnonzero(y == 0)
    n_neg = neg_idx.size
    index = NeighbourIndex(X, nominal_mask)

    pos_mask = rng.random((params.swarm, n_neg)) < 0.5
    vel = rng.uniform(-1, 1, size=(params.swarm, n_neg))
    x = pos_mask.copy()
    fits = np.array([_pso_fitness(X, y, m, nominal_mask, index) for m in x])
    pbest, pbest_fit = x.copy(), fits.copy()
    g = int(np.argmax(pbest_fit))
    gbest, gbest_fit = pbest[g].copy(), float(pbest_fit[g])

    for _ in range(params.iterations):
        r1 = rng.random((params.swarm, n_neg))
        r2 = rng.random((params.swarm, n_neg))
        vel = (
            params.inertia * vel
            + params.cognitive * r1 * (pbest.astype(float) - x.astype(float))
            + params.social * r2 * (gbest.astype(float) - x.astype(float))
        )
        np.clip(vel, -params.v_max, params.v_max, out=vel)
        x = rng.random((params.swarm, n_neg)) < 1.0 / (1.0 + np.exp(-vel))
        fits = np.array([_pso_fitness(X, y, m, nominal_mask, index) for m in x])
        improved = fits > pbest_fit
        pbest[improved] = x[improved]
        pbest_fit[improved] = fits[improved]
        g = int(np.argmax(pbest_fit))
        if pbest_fit[g] > gbest_fit:
            gbest, gbest_fit = pbest[g].copy(), float(pbest_fit[g])

    return ReferenceSet(_with_both_classes(pos_idx, neg_idx, gbest),
                        method="pso", seed=seed)


def random_edit(X, y, M, T, seed, nominal_mask=None) -> ReferenceSet:
    """Best of ``T`` random cardinality-``M`` reference sets by LOO GM.

    Every sampled set is forced to contain at least one instance of each class
    (degenerate draws are resampled from the same stream).  The best-so-far GM
    is non-decreasing in ``T`` for a fixed seed.
    """
    X, y = _check_xy(X, y)
    n = len(y)
    if M < 2:
        raise ValueError("cardinality M must be at least 2")
    if M > n:
        raise ValueError("cardinality M exceeds the training set size")
    rng = np.random.default_rng(seed)
    best_idx, best_gm = None, -1.0
    for _ in range(T):
        while True:
            cand = rng.choice(n, size=M, replace=False, shuffle=False)
            yc = y[cand]
            if np.any(yc == 1) and np.any(yc == 0):
                break
        g = loo_gm(X, y, cand, nominal_mask)
        if g > best_gm:
            best_gm, best_idx = g, cand
    return ReferenceSet(best_idx, method="re", seed=seed)
