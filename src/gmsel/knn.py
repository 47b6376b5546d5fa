"""Distance computation and nearest-neighbour classification over reference sets.

Distances are Euclidean over numeric attributes with nominal attributes
contributing overlap distance (0 if equal, 1 otherwise) in quadrature.
Nearest-neighbour distance ties are broken toward the lowest retained index;
k-NN vote ties are broken toward the positive class.

Callers that look up nearest retained neighbours many times over one training
matrix (subset searches, condensing, boosting, ensemble voting) or one probe
set (the theory lab) build a :class:`NeighbourIndex` once and pass it as
``index``; one-shot calls compute only the distance columns of the retained
instances.  Every ordering of distances happens in this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ReferenceSet",
    "NeighbourIndex",
    "distance",
    "pairwise_distances",
    "classify_1nn",
    "classify_knn",
    "loo_predict",
    "loo_gm",
]

# Neighbours ranked per query row by a NeighbourIndex.  Lookups that find no
# retained instance this deep fall back to an exact argmin.
RANK_DEPTH = 32


@dataclass(frozen=True)
class ReferenceSet:
    """Indices into a training set retained for 1-NN classification."""

    retained: np.ndarray
    method: str = ""
    seed: int | None = None

    def __post_init__(self):
        retained = np.asarray(self.retained, dtype=np.intp)
        if retained.ndim != 1 or retained.size == 0:
            raise ValueError("reference set must be a non-empty index vector")
        if len(np.unique(retained)) != retained.size:
            raise ValueError("reference set indices must be unique")
        if np.any(retained < 0):
            raise ValueError("negative index in reference set")
        object.__setattr__(self, "retained", np.sort(retained))

    def __len__(self):
        return self.retained.size


def pairwise_distances(A, B, nominal_mask=None) -> np.ndarray:
    """Distance matrix between the rows of ``A`` and the rows of ``B``."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ValueError("dimension mismatch")
    if nominal_mask is None:
        nominal_mask = np.zeros(A.shape[1], dtype=bool)
    else:
        nominal_mask = np.asarray(nominal_mask, dtype=bool)
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


def distance(a, b, nominal_mask=None) -> float:
    """Distance between two value vectors."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError("length mismatch")
    return float(pairwise_distances(a[None, :], b[None, :], nominal_mask)[0, 0])


def _stable_top_k(D, k) -> np.ndarray:
    """The first ``k`` columns of ``np.argsort(D, axis=1, kind="stable")``.

    Only the ``k`` smallest entries of each row are sorted: all entries below
    the row's k-th smallest value, then the lowest-index entries equal to it.
    """
    n_rows, n_cols = D.shape
    if k >= n_cols:
        return np.argsort(D, axis=1, kind="stable")
    kth = np.partition(D, k - 1, axis=1)[:, k - 1:k].copy()
    take = D < kth
    room = k - take.sum(axis=1)
    tie = D == kth
    # rows with more ties at the k-th value than room keep the lowest-index ones
    over = np.flatnonzero(tie.sum(axis=1) > room)
    tie[over] &= np.cumsum(tie[over], axis=1) <= room[over, None]
    take |= tie
    cols = np.nonzero(take)[1].reshape(n_rows, k)  # row-major: index order
    order = np.argsort(np.take_along_axis(D, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def _nearest_retained(D, retained, rows=None) -> np.ndarray:
    """``retained[argmin]`` of each row of ``D``, whose columns are ``retained``
    (sorted), so ties go to the lowest retained index.  With ``rows`` (the
    training index of each row of ``D``) a row never picks itself."""
    if rows is not None:
        col = np.minimum(np.searchsorted(retained, rows), retained.size - 1)
        own = np.flatnonzero(retained[col] == rows)
        D[own, col[own]] = np.inf
    return retained[np.argmin(D, axis=1)]


class NeighbourIndex:
    """Nearest-retained-neighbour lookups over one training matrix ``X``.

    The distances from every query row to every row of ``X`` are computed
    once.  On the first lookup over all queries, each query's ``RANK_DEPTH``
    nearest rows of ``X`` are ranked by a stable sort, so equal distances keep
    index order; :meth:`nearest` is then a rank lookup: the first ranked row
    that is retained, which is the argmin over the retained columns with ties
    to the lowest retained index.  Queries with no retained row ranked,
    lookups for a few given ``rows``, and every lookup in an index over at
    most ``RANK_DEPTH`` rows of ``X`` (whose ranks would be whole rows), take
    that argmin over the stored distances instead.

    Without ``queries`` the queries are the rows of ``X`` themselves, and
    ``nearest(..., exclude_self=True)`` gives leave-one-out lookups.  Memory is
    8 bytes per query per row of ``X`` (8 MB at 1,000 x 1,000) plus the ranks.
    """

    def __init__(self, X, nominal_mask=None, queries=None):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        self.distances = pairwise_distances(X if queries is None else queries, X,
                                            nominal_mask)
        self._square = queries is None
        self._ranks = None
        self._depth = RANK_DEPTH  # fixed when the index is built

    @property
    def n_queries(self) -> int:
        return self.distances.shape[0]

    def _ranked(self, exclude_self):
        if self._ranks is None:
            n = self.distances.shape[1]
            # one extra rank, so that dropping the query itself leaves the depth
            ranks = _stable_top_k(self.distances, min(self._depth + 1, n))
            self._ranks = {False: ranks[:, :self._depth]}
            if self._square:
                own = ranks == np.arange(n)[:, None]
                own[~own.any(axis=1), -1] = True
                self._ranks[True] = ranks[~own].reshape(n, -1)
        return self._ranks[exclude_self]

    def nearest(self, retained, exclude_self=False, rows=None) -> np.ndarray:
        """Index into ``X`` of the nearest retained row, for every query, or
        for the queries numbered in ``rows``.  With ``exclude_self`` a row of
        ``X`` is never its own neighbour."""
        if exclude_self and not self._square:
            raise ValueError("exclude_self needs an index whose queries are X")
        retained = np.sort(np.asarray(retained, dtype=np.intp))
        if retained.size == 0:
            raise ValueError("empty reference set")
        if rows is not None:
            # ranking every query would cost more than these few argmins
            return self._argmin(np.asarray(rows, dtype=np.intp), retained, exclude_self)
        if self.distances.shape[1] <= self._depth:
            return self._argmin(None, retained, exclude_self)
        member = np.zeros(self.distances.shape[1], dtype=bool)
        member[retained] = True
        ranked = self._ranked(exclude_self)
        hit = member[ranked]
        first = np.argmax(hit, axis=1)
        at = np.arange(ranked.shape[0])
        nn = ranked[at, first]
        miss = np.flatnonzero(~hit[at, first])
        if miss.size:
            nn[miss] = self._argmin(miss, retained, exclude_self)
        return nn

    def _argmin(self, rows, retained, exclude_self):
        """Argmin over the stored distances for the queries in ``rows``, or
        for every query when ``rows`` is None.  A lookup of every query over
        every row of ``X`` reads the stored matrix without copying it."""
        D, n = self.distances, self.distances.shape[1]
        if rows is not None:
            D = D[np.ix_(rows, retained)]
        elif retained.size != n or not np.array_equal(retained, np.arange(n)):
            D = D[:, retained]
        elif exclude_self:
            D = D.copy()  # _nearest_retained overwrites each row's own distance
        if exclude_self and rows is None:
            rows = np.arange(D.shape[0])
        return _nearest_retained(D, retained, rows if exclude_self else None)


def _retained(ref):
    retained = ref.retained if isinstance(ref, ReferenceSet) else np.sort(
        np.asarray(ref, dtype=np.intp)
    )
    if retained.size == 0:
        raise ValueError("empty reference set")
    return retained


def classify_1nn(X, y, ref, queries, nominal_mask=None, index=None) -> np.ndarray:
    """Label each query row by its nearest retained instance.

    ``ref`` is a :class:`ReferenceSet` or an index array into ``X``/``y``.
    Ties go to the lowest retained index.  ``index``, a
    :class:`NeighbourIndex` from ``queries`` to ``X``, turns the lookup into
    a rank lookup instead of a distance computation.
    """
    retained = _retained(ref)
    if index is not None:
        if index.n_queries != len(queries):
            raise ValueError("index was built for other queries")
        return y[index.nearest(retained)]
    D = pairwise_distances(queries, X[retained], nominal_mask)
    return y[_nearest_retained(D, retained)]


def classify_knn(X, y, ref, queries, k, nominal_mask=None) -> np.ndarray:
    """Majority label among the k nearest retained instances; vote ties -> positive."""
    retained = _retained(ref)
    if k < 1 or k > retained.size:
        raise ValueError(f"k={k} out of range for reference set of size {retained.size}")
    D = pairwise_distances(queries, X[retained], nominal_mask)
    nn = _stable_top_k(D, k)  # equidistant neighbours are taken in index order
    votes = y[retained][nn].sum(axis=1)
    return (2 * votes >= k).astype(y.dtype)


def loo_predict(X, y, retained, nominal_mask=None, exclude_self=True,
                index=None) -> np.ndarray:
    """1-NN prediction for every row of ``X`` over ``retained`` minus itself.

    ``index``, a :class:`NeighbourIndex` over ``X``, answers from its ranks;
    without it only the retained columns of the distance matrix are computed.
    """
    retained = np.sort(np.asarray(retained, dtype=np.intp))
    if index is not None:
        return y[index.nearest(retained, exclude_self)]
    D = pairwise_distances(X, X[retained], nominal_mask)
    rows = np.arange(D.shape[0]) if exclude_self else None
    return y[_nearest_retained(D, retained, rows)]


def loo_gm(X, y, retained, nominal_mask=None, sample_weight=None,
           index=None) -> float:
    """Leave-one-out GM of 1-NN over ``retained``, evaluated on all of ``X``.

    Returns 0.0 (not an error) when ``retained`` misses a class, so subset
    optimisers can penalise degenerate selections naturally.  With
    ``sample_weight`` the confusion cells are weight sums instead of counts.
    ``index`` is passed on to :func:`loo_predict`.
    """
    retained = np.asarray(retained, dtype=np.intp)
    yr = y[retained]
    if not (np.any(yr == 1) and np.any(yr == 0)):
        return 0.0
    pred = loo_predict(X, y, retained, nominal_mask, index=index)
    if sample_weight is None:
        sample_weight = np.ones(len(y))
    pos = y == 1
    tp = np.sum(sample_weight[pos & (pred == 1)])
    tn = np.sum(sample_weight[~pos & (pred == 0)])
    wp = np.sum(sample_weight[pos])
    wn = np.sum(sample_weight[~pos])
    if wp == 0 or wn == 0:
        return 0.0
    return float(np.sqrt((tp / wp) * (tn / wn)))
