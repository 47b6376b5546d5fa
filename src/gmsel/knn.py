"""Distance computation and nearest-neighbour classification over reference sets.

Distances are Euclidean over numeric attributes with nominal attributes
contributing overlap distance (0 if equal, 1 otherwise) in quadrature.
Nearest-neighbour distance ties are broken toward the lowest retained index;
k-NN vote ties are broken toward the positive class.

Callers that look up nearest retained neighbours many times over one training
matrix (subset searches, condensing, boosting) build a :class:`NeighbourIndex`
once and pass it as ``index``; the benchmark builds one per fold and hands it
to every method of the fold that reads distances over all of its training
rows.  One-shot calls over a subset compute only the distance columns of the
retained instances; EUS and PSO look up a whole generation, and ensemble
voting all its members, in one ``nearest_batch`` call, NCL reads ``ranks``,
random editing finds its best set in one ``loo_gm_best`` call, and the theory
lab's probes take :func:`nearest_points`.  Every ordering of distances is here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ReferenceSet",
    "NeighbourIndex",
    "pairwise_distances",
    "nearest_points",
    "classify_1nn",
    "classify_knn",
    "loo_predict",
    "loo_gm",
    "loo_gm_best",
]

# Neighbours ranked per query row by a NeighbourIndex.  Lookups that find no
# retained instance this deep fall back to an exact argmin.
RANK_DEPTH = 32

# loo_gm_best's float64 cells per block of distances (2 MB) and per chunk of
# gathered distances (512 kB), and the sets it scores on every row first
_BLOCK_CELLS = 2**18
_CHUNK_CELLS = 2**16
_PILOT = 128


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
    # in place, in the order of ||a||^2 + ||b||^2 - 2ab: two n x m matrices live
    sq = np.sum(An * An, axis=1)[:, None] + np.sum(Bn * Bn, axis=1)[None, :]
    sq -= 2.0 * An @ Bn.T
    np.maximum(sq, 0.0, out=sq)
    if nominal_mask.any():
        Ac, Bc = A[:, nominal_mask], B[:, nominal_mask]
        sq += np.sum(Ac[:, None, :] != Bc[None, :, :], axis=2)
    return np.sqrt(sq, out=sq)


def nearest_points(points, queries) -> np.ndarray:
    """Index of the nearest row of ``points`` to each row of ``queries``, ties
    to the lowest, over numeric attributes.  Each squared distance is summed
    from its own pair's differences, without BLAS, so a lookup over some of
    the points finds the same distances to them."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    columns = np.ascontiguousarray(np.atleast_2d(np.asarray(queries, dtype=float)).T)
    if points.shape[1] != columns.shape[0]:
        raise ValueError("dimension mismatch")
    sq = np.zeros((points.shape[0], columns.shape[1]))  # points x queries: long rows
    diff = np.empty_like(sq)
    for p, q in zip(points.T, columns):  # a strided query column took 3x as long
        np.subtract.outer(p, q, out=diff)
        diff *= diff
        sq += diff
    # the first minimum, an earlier point overwriting a later one, by arithmetic:
    # a masked copy branches on every query and took twice as long
    best, nearest = sq.min(axis=0), np.zeros(columns.shape[1], dtype=np.intp)
    for j in range(points.shape[0] - 1, -1, -1):
        nearest -= (sq[j] == best) * (nearest - j)
    return nearest


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
    index order; a lookup (:meth:`nearest`, or :meth:`nearest_batch` for many
    reference sets at once) is then the first ranked row that is retained,
    which is the argmin over the retained columns with ties to the lowest
    retained index.  Queries with no retained row ranked, and ``nearest`` for
    a few given ``rows`` or over every row of ``X`` (where no rank can beat one
    argmin), take that argmin over the stored distances.

    ``queries`` are rows to classify, or without them the rows of ``X``, where
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

    def ranks(self, exclude_self=False) -> np.ndarray:
        """Each query's ``RANK_DEPTH`` nearest rows of ``X``, nearest first and
        equal distances in index order; ``exclude_self`` leaves a row's own out."""
        if exclude_self and not self._square:
            raise ValueError("exclude_self needs an index whose queries are X")
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
        retained = _retained(retained)
        if rows is not None:
            # ranking every query would cost more than these few argmins
            return self._argmin(np.asarray(rows, dtype=np.intp), retained, exclude_self)
        n = self.distances.shape[1]
        # with every row retained, the first ranked row is the argmin
        if np.array_equal(retained, np.arange(n)):
            return self._argmin(None, retained, exclude_self)
        return self.nearest_batch(np.bincount(retained, minlength=n)[None] > 0,
                                  exclude_self)[0]

    def nearest_batch(self, member, exclude_self=False) -> np.ndarray:
        """Row ``p`` is ``nearest(np.flatnonzero(member[p]), exclude_self)``
        for the ``(P, n)`` boolean matrix ``member``, all by rank lookup: over
        at most ``RANK_DEPTH`` rows of ``X`` the ranks are whole rows."""
        ranked = self.ranks(exclude_self)
        if not member.any(axis=1).all():
            raise ValueError("empty reference set")
        if not ranked.shape[1]:  # one row of X, which its leave-one-out ranks leave out
            return np.array([self.nearest(np.flatnonzero(m), exclude_self) for m in member])
        first = np.take(member, ranked, axis=1).argmax(axis=2)  # first True, or 0
        # flat takes: ranked[q, first[p, q]], then member[p, nn[p, q]]
        nn = np.take(ranked, first + np.arange(0, ranked.size, ranked.shape[1]))
        miss = ~np.take(member, nn + np.arange(0, member.size, member.shape[1])[:, None])
        for p in np.flatnonzero(miss.any(axis=1)):
            rows = np.flatnonzero(miss[p])
            nn[p, rows] = self._argmin(rows, np.flatnonzero(member[p]), exclude_self)
        return nn

    def _argmin(self, rows, retained, exclude_self):
        """Argmin over the stored distances for the queries in ``rows``, or
        for every query when ``rows`` is None.  A lookup of every query over
        every row of ``X`` reads the stored matrix without copying it."""
        D, n = self.distances, self.distances.shape[1]
        if rows is not None:
            D = D[np.ix_(rows, retained)]
        elif not np.array_equal(retained, np.arange(n)):
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
        if index.distances.shape[0] != len(queries):
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


def loo_predict(X, y, retained, nominal_mask=None, index=None) -> np.ndarray:
    """1-NN prediction for every row of ``X`` over ``retained`` minus itself.

    ``index``, a :class:`NeighbourIndex` over ``X``, answers from its ranks;
    without it only the retained columns of the distance matrix are computed.
    """
    retained = _retained(retained)
    if index is not None:
        return y[index.nearest(retained, exclude_self=True)]
    D = pairwise_distances(X, X[retained], nominal_mask)
    return y[_nearest_retained(D, retained, np.arange(D.shape[0]))]


def _loo_hits(X, y, jobs, nominal_mask=None):
    """Add :func:`loo_gm`'s TP and TN counts to ``hits`` for each ``(members,
    rows, hits)`` of ``jobs``: the ``(S, M)`` sets ``members``, sorted by
    positive count, positives first, on the rows where the mask ``rows`` is
    true.  Each block of rows gets its distances to all of ``X`` once, own
    distances inf; a job reads the whole block if at least half its rows are
    the job's, else gathers their columns.  Nearest positive and negative are
    min reductions; where neither is strictly nearer (a tie, or NaN),
    :func:`_nearest_retained` decides, so ties go to the lowest index."""
    n, pos = len(y), y == 1
    block = max(2, _BLOCK_CELLS // n)
    # per job: its sets (those with k positives in rows first[k]:first[k + 1]), rows, hits
    jobs = [(m, np.searchsorted(np.count_nonzero(pos[m], axis=1), np.arange(m.shape[1] + 1)),
             r, h) for m, r, h in jobs if len(m)]
    # no block of one row, which numpy would multiply by gemv, rounding otherwise
    bounds = [*range(0, n - 1, block), n] if jobs else []
    for r0, r1 in zip(bounds, bounds[1:]):
        DT = np.ascontiguousarray(pairwise_distances(X[r0:r1], X, nominal_mask).T)
        np.fill_diagonal(DT[r0:r1], np.inf)  # each row's own distance
        for members, first, rows, hits in jobs:
            own = rows[r0:r1]
            q = np.flatnonzero(own)
            if not q.size:
                continue
            # half the block or more: all its columns, the job's rows counted
            q, own, D = (np.arange(r0, r1), own, DT) if 2 * q.size >= r1 - r0 \
                else (r0 + q, own[q], DT.take(q, axis=1))
            tp_q, tn_q = own & pos[q], own & ~pos[q]
            M = members.shape[1]
            chunk = max(1, _CHUNK_CELLS // (M * q.size))
            for k in range(1, M):
                for c0 in range(first[k], first[k + 1], chunk):
                    sets = members[c0:min(c0 + chunk, first[k + 1])]
                    G = D.take(sets, axis=0)
                    d_pos, d_neg = G[:, :k].min(axis=1), G[:, k:].min(axis=1)
                    pred = d_pos < d_neg
                    undecided = ~(pred | (d_neg < d_pos))
                    for t in np.flatnonzero(undecided.any(axis=1)):
                        c, u = np.sort(sets[t]), np.flatnonzero(undecided[t])
                        pred[t, u] = pos[_nearest_retained(D[np.ix_(c, u)].T, c)]
                    hits[c0:c0 + len(sets), 0] += (pred & tp_q).sum(axis=1)
                    hits[c0:c0 + len(sets), 1] += (tn_q > pred).sum(axis=1)  # tn_q and not pred
        DT = D = G = None  # freed before the next block's distances are computed


def loo_gm_best(X, y, refsets, nominal_mask=None) -> tuple[int, float]:
    """The first of the highest ``[loo_gm(X, y, r, nominal_mask) for r in
    refsets]``, as ``(index, gm)``, for the ``(T, M)`` array ``refsets`` of
    distinct indices.  The first ``_PILOT`` sets are scored on every row and
    the others on the positive rows.  As GM = sqrt(TPR * TNR) <= sqrt(TPR), in
    floating point too, only a set whose sqrt(TPR) reaches the pilot's best GM
    can equal the highest; only those are scored again, on every row."""
    refsets = np.asarray(refsets, dtype=np.intp)
    (T, M), pos = refsets.shape, y == 1
    n_pos = np.count_nonzero(pos[refsets], axis=1)
    if not np.any((n_pos > 0) & (n_pos < M)):  # loo_gm gives 0.0 to a one-class set
        return 0, 0.0
    # the pilot's sets, then the others, each part by positive count, positives first
    order = np.lexsort((n_pos, np.arange(T) >= _PILOT))
    members = np.take_along_axis(refsets, np.argsort(~pos[refsets], 1, kind="stable"), 1)[order]
    P, every, hits = min(T, _PILOT), np.ones(len(y), dtype=bool), np.zeros((T, 2), np.intp)
    _loo_hits(X, y, [(members[:P], every, hits[:P]), (members[P:], pos, hits[P:])], nominal_mask)
    wp, wn = np.count_nonzero(pos), np.count_nonzero(~pos)
    pilot_best = np.sqrt((hits[:P, 0] / wp) * (hits[:P, 1] / wn)).max()
    alive = P + np.flatnonzero(np.sqrt(hits[P:, 0] / wp) >= pilot_best)
    again = np.zeros((alive.size, 2), np.intp)
    _loo_hits(X, y, [(members[alive], every, again)], nominal_mask)
    hits[alive] = again
    # a set left out scores 0.0 here (no TN counted), below the pilot's best
    gms = np.empty(T)
    gms[order] = np.sqrt((hits[:, 0] / wp) * (hits[:, 1] / wn))
    best = int(np.argmax(gms))
    return best, float(gms[best])


def loo_gm(X, y, retained, nominal_mask=None, sample_weight=None,
           index=None) -> float:
    """Leave-one-out GM of 1-NN over ``retained``, evaluated on all of ``X``.

    Returns 0.0 (not an error) when ``retained`` misses a class, so subset
    optimisers can penalise degenerate selections naturally.  With
    ``sample_weight`` the confusion cells are weight sums instead of counts.
    ``index`` is passed on to :func:`loo_predict`.
    """
    # count_nonzero, .sum(): no np.any/np.sum dispatch, as EUS calls this per chromosome
    retained = np.asarray(retained, dtype=np.intp)
    yr = y[retained]
    if not (np.count_nonzero(yr == 1) and np.count_nonzero(yr == 0)):
        return 0.0
    pred = loo_predict(X, y, retained, nominal_mask, index=index)
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
