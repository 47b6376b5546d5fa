"""Distance computation and nearest-neighbour classification over reference sets.

Distances are Euclidean over numeric attributes with nominal attributes
contributing overlap distance (0 if equal, 1 otherwise) in quadrature.
Every ordering of distances is over the int64 keys of :func:`_keys`, one tie
rule; k-NN vote ties go to the positive class.  Retained rows are an integer
index vector, checked by :class:`ReferenceSet` on every path.

Callers that look up nearest retained neighbours many times over one training
matrix (subset searches, condensing, Tomek links, random editing, boosting)
build a :class:`NeighbourIndex` once and pass it as ``index``, the one carrier
of the metric there: ``_index_over`` rejects one over other rows or queries and
builds an all-numeric one when none is passed; :func:`loo_predict` rejects one
that answers for other rows.
The benchmark builds two per fold in turn, over its training half for its
methods, then from its test half for every prediction: an ensemble vote.
One-shot calls without an index compute only the retained distance columns;
EUS and PSO look up a whole generation, and ensemble voting all its members,
in one ``nearest_batch`` call (the searches then score the generation from its
hit matrix, not by :func:`loo_gm`), NCL reads ``ranks``, a Tomek pass is one
``nearest`` lookup and condensing one ``condense`` call, random editing finds
its best set in one ``loo_gm_best`` call over its keys a block of rows at a time,
and the theory lab's probes take :func:`nearest_points`, which keeps its own
first-minimum rule.  Every other ordering of distances is here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _check_count

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

# 8-byte cells per block of distances or gathered ranks (2 MB) and per chunk of
# loo_gm_best's gathered keys (512 kB); the sets it scores on every row first
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
        object.__setattr__(self, "retained", _sorted_sets(self.retained))

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
    An, Bn, Ac, Bc = A[:, num], B[:, num], A[:, nominal_mask], B[:, nominal_mask]
    an, bn = np.sum(An * An, axis=1), np.sum(Bn * Bn, axis=1)
    # one product: row blocks of it round otherwise.  It becomes the result in
    # place, a block of rows at a time, as (||a||^2 + ||b||^2) - 2ab
    sq, step = 2.0 * An @ Bn.T, max(1, _BLOCK_CELLS // max(1, B.shape[0]))
    for r in (slice(r0, r0 + step) for r0 in range(0, A.shape[0], step)):
        np.subtract(an[r, None] + bn, sq[r], out=sq[r])
        np.maximum(sq[r], 0.0, out=sq[r])
        if Ac.shape[1]:
            sq[r] += np.sum(Ac[r, None, :] != Bc[None, :, :], axis=2)
        np.sqrt(sq[r], out=sq[r])
    return sq


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


def _keys(D, cols) -> np.ndarray:
    """``D``'s distances turned in place, a block of rows at a time, into int64
    keys ``(q << b) | cols[j]``, ordered as nearer, then lower row: ``q`` is
    the square in units of 2^-36, rounded, and ``b`` the bit count of the
    largest row in ``cols``.  A row whose squares would not fit below 2^52, or
    2^(63 - b), takes a coarser power-of-two grid, the finest that fits."""
    b = int(cols.max(initial=0)).bit_length()
    K, step = D.view(np.int64), max(1, _BLOCK_CELLS // max(1, D.shape[1]))
    for r in (slice(r0, r0 + step) for r0 in range(0, D.shape[0], step)):
        sq = np.square(D[r], out=D[r])
        if not np.isfinite(top := sq.max(axis=1, initial=0.0)).all():  # inf, nan: the farthest
            top = 2 * np.nan_to_num(sq, copy=False, nan=-1.0, posinf=-1.0).max(1, initial=0) + 1
            np.copyto(sq, top[:, None], where=sq < 0)
        sq *= np.ldexp(1.0, np.minimum(36, min(52, 62 - b) - np.frexp(top)[1]))[:, None]
        sq += 2.0**52  # rounds q, and its int64 view is then 0x4330000000000000 + q
        np.left_shift(np.subtract(K[r], 0x4330000000000000, out=K[r]), b, out=K[r])
        K[r] |= cols
    return K


def _mask(n) -> int:
    """The low bits of a key over rows below ``n``: its row."""
    return (1 << int(n - 1).bit_length()) - 1


def _ranked(K, k, n) -> np.ndarray:
    """The rows of the ``k`` smallest keys in each row of ``K``, keys over rows
    below ``n``, nearest first; ``k`` is at most the row length."""
    top, step = np.empty((len(K), k), np.int64), max(1, _BLOCK_CELLS // max(1, K.shape[1]))
    for r0 in range(0, len(K), step):
        B = K[r0:r0 + step]
        top[r0:r0 + step] = np.partition(B, k - 1, axis=1)[:, :k] if k < B.shape[1] else B
    top.sort(axis=1)
    return np.bitwise_and(top, _mask(n), out=top)


def _nearest_retained(K, n, rows=None) -> np.ndarray:
    """The row of each row's smallest key in ``K``, keys over rows below ``n``;
    with ``rows``, the training row of each, a row's own key is the largest."""
    if rows is not None:
        K[(K & _mask(n)) == rows[:, None]] |= np.iinfo(np.int64).max ^ _mask(n)
    return K.min(axis=1) & _mask(n)


class NeighbourIndex:
    """Nearest-retained-neighbour lookups over one training matrix ``X``.

    The distances from every query row to every row of ``X`` are computed
    once and kept as their :func:`_keys`, ``keys``.  On the first lookup over
    all queries, each query's ``RANK_DEPTH`` nearest rows of ``X`` are ranked;
    a lookup (:meth:`nearest`, or :meth:`nearest_batch` for many reference
    sets at once) is then the first ranked row that is retained, which is the
    smallest key over the retained columns.  Queries with no retained row
    ranked take that minimum over the stored keys, and :meth:`condense`
    reads only those.

    ``queries`` are rows to classify, or without them the rows of ``X``, where
    ``nearest(..., exclude_self=True)`` gives leave-one-out lookups.  Memory is
    8 bytes per query per row of ``X`` (8 MB at 1,000 x 1,000) plus the ranks.
    Building them and lookups work in 2 MB blocks (2.5-3 MB of temporaries).
    """

    def __init__(self, X, nominal_mask=None, queries=None):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        self.keys = _keys(pairwise_distances(X if queries is None else queries, X,
                                             nominal_mask), np.arange(len(X)))
        self._square = queries is None
        self._ranks = None
        self._depth = RANK_DEPTH  # fixed when the index is built

    def ranks(self, exclude_self=False) -> np.ndarray:
        """Each query's ``RANK_DEPTH`` nearest rows of ``X``, nearest first and
        equal distances in index order; ``exclude_self`` leaves a row's own out."""
        if exclude_self and not self._square:
            raise ValueError("exclude_self needs an index whose queries are X")
        if self._ranks is None:
            n = self.keys.shape[1]
            # one extra rank, so that dropping the query itself leaves the depth
            ranks = _ranked(self.keys, min(self._depth + 1, n), n)
            self._ranks = {False: ranks[:, :self._depth]}
            if self._square:
                own = ranks == np.arange(n)[:, None]
                own[~own.any(axis=1), -1] = True
                self._ranks[True] = ranks[~own].reshape(n, -1)
        return self._ranks[exclude_self]

    def nearest(self, retained, exclude_self=False) -> np.ndarray:
        """Index into ``X`` of the nearest retained row, for every query.  With
        ``exclude_self`` a row of ``X`` is never its own neighbour."""
        n = self.keys.shape[1]
        return self.nearest_batch(np.bincount(_retained(retained, n), minlength=n)[None] > 0,
                                  exclude_self)[0]

    def nearest_batch(self, member, exclude_self=False) -> np.ndarray:
        """Row ``p`` is ``nearest(np.flatnonzero(member[p]), exclude_self)``
        for the ``(P, n)`` boolean matrix ``member``, all by rank lookup: over
        at most ``RANK_DEPTH`` rows of ``X`` the ranks are whole rows."""
        ranked = self.ranks(exclude_self)
        if not member.any(axis=1).all():
            raise ValueError("empty reference set")
        if not ranked.shape[1]:  # one row of X, which its leave-one-out ranks leave out
            return np.array([self._argmin(np.arange(1), np.flatnonzero(m), exclude_self)
                             for m in member])
        nn = np.empty((len(member), len(ranked)), dtype=np.intp)
        # members per block: a byte per rank gathered, or 8 per lookup, fill at most a block
        step = max(1, 8 * _BLOCK_CELLS // (len(ranked) * max(8, ranked.shape[1])))
        for p0 in range(0, len(member), step):
            m, out = member[p0:p0 + step], nn[p0:p0 + step]
            first = np.take(m, ranked, axis=1).argmax(axis=2)  # first True, or 0
            # flat takes: ranked[q, first[p, q]], then m[p, out[p, q]]; the indices
            # are in range, so "clip" changes nothing but lets take fill out unbuffered
            first += np.arange(0, ranked.size, ranked.shape[1])
            np.take(ranked, first, out=out, mode="clip")
            miss = ~np.take(m, out + np.arange(0, m.size, m.shape[1])[:, None])
            for p in np.flatnonzero(miss.any(axis=1)):
                rows = np.flatnonzero(miss[p])
                out[p, rows] = self._argmin(rows, np.flatnonzero(m[p]), exclude_self)
        return nn

    def condense(self, y, store, scan) -> np.ndarray:
        """``store`` plus, in scan order, each row of ``scan`` whose nearest row in
        the store so far has another label in ``y``, each scanned row's nearest
        stored row a running minimum of keys."""
        near, t, K = self._argmin(scan, np.sort(store), False), 0, self.keys
        while (wrong := np.flatnonzero(y[near[t:]] != y[scan[t:]])).size:
            t += wrong[0]
            near[K[scan, scan[t]] < K[scan, near]] = scan[t]
            store, t = np.append(store, scan[t]), t + 1
        return store

    def _argmin(self, rows, retained, exclude_self):
        """The smallest stored key over ``retained`` for the queries in ``rows``."""
        return _nearest_retained(self.keys[np.ix_(rows, retained)], self.keys.shape[1],
                                 rows if exclude_self else None)


def _index_over(X, index=None, queries=None) -> NeighbourIndex:
    """``index``, else a new all-numeric :class:`NeighbourIndex` from ``queries``
    (or ``X``) to ``X``; one over other rows or queries is a ValueError."""
    if index is None:
        return NeighbourIndex(X, queries=queries)
    shape, got = (len(X if queries is None else queries), len(X)), index.keys.shape
    if got != shape:
        raise ValueError(f"index was built for other queries or rows: {got}, not {shape}")
    return index


def _labels(X, y) -> np.ndarray:
    """``y`` as an array, a ValueError unless it has one label per row of ``X``."""
    y = np.asarray(y)
    if len(y) != len(X):
        raise ValueError(f"{len(y)} labels for {len(X)} rows")
    return y


def _sorted_sets(sets, ndim=1) -> np.ndarray:
    """The one check of sets of training rows: ``sets``, a non-empty ``ndim``-D
    integer array of distinct non-negative rows along its last axis, sorted."""
    sets = np.asarray(sets)
    if sets.dtype.kind not in "iu" or sets.ndim != ndim or sets.size == 0:
        raise ValueError("reference set must be a non-empty integer index vector" if ndim == 1
                         else "reference sets must be a non-empty (T, M) integer index array")
    sets = np.sort(sets.astype(np.intp, copy=False), axis=-1)
    if sets[..., 0].min() < 0:
        raise ValueError("negative index in reference set")
    if (sets[..., 1:] == sets[..., :-1]).any():
        raise ValueError("reference set indices must be unique")
    return sets


def _retained(ref, n):
    """The sorted rows of ``ref``, a ReferenceSet or an index array checked as one, below n."""
    retained = ref.retained if isinstance(ref, ReferenceSet) else _sorted_sets(ref)
    if retained[-1] >= n:
        raise ValueError(f"row {retained[-1]} out of range for {n} training rows")
    return retained


def classify_1nn(X, y, ref, queries, nominal_mask=None, index=None) -> np.ndarray:
    """Label each query row by its nearest retained instance.

    ``ref`` is a :class:`ReferenceSet` or an index array into ``X``/``y``.
    Ties go to the lowest retained index.  ``index``, a :class:`NeighbourIndex`
    from ``queries`` to ``X``, turns the lookup into a rank lookup instead of a
    distance computation; ``nominal_mask`` applies only without one.
    """
    retained, y = _retained(ref, len(X)), _labels(X, y)
    if index is not None:
        return y[_index_over(X, index=index, queries=queries).nearest(retained)]
    K = _keys(pairwise_distances(queries, X[retained], nominal_mask), retained)
    return y[_nearest_retained(K, retained[-1] + 1)]


def classify_knn(X, y, ref, queries, k, nominal_mask=None) -> np.ndarray:
    """Majority label among the k nearest retained instances; vote ties -> positive."""
    retained, y = _retained(ref, len(X)), _labels(X, y)
    _check_count("k", k, 1)
    if k > retained.size:
        raise ValueError(f"k={k} out of range for reference set of size {retained.size}")
    K = _keys(pairwise_distances(queries, X[retained], nominal_mask), retained)
    votes = y[_ranked(K, k, retained[-1] + 1)].sum(axis=1)
    return (2 * votes >= k).astype(y.dtype)


def loo_predict(X, y, retained, nominal_mask=None, index=None) -> np.ndarray:
    """1-NN prediction for every row of ``X`` over ``retained`` minus itself.

    ``index``, a :class:`NeighbourIndex` over ``X``, answers from its ranks;
    without it only the retained columns of the distances by ``nominal_mask``
    (which applies only then) are computed.
    """
    if index is not None:
        if len(nn := index.nearest(retained, exclude_self=True)) != len(X):
            raise ValueError(f"index answered {len(nn)} rows, not the {len(X)} of X")
        return y[nn]
    retained = _retained(retained, len(X))
    K = _keys(pairwise_distances(X, X[retained], nominal_mask), retained)
    return y[_nearest_retained(K, retained[-1] + 1, np.arange(len(X)))]


def _loo_hits(X, y, jobs, index=None):
    """Add the leave-one-out TP and TN counts of 1-NN over each set to ``hits``
    for each ``(members, rows, hits)`` of ``jobs``: the ``(S, M)`` sets
    ``members``, each of distinct rows, on the rows where the mask ``rows`` is
    true.  Each block of rows takes its keys to all of ``X`` from ``index``,
    checked by the caller, or computes them all-numeric; own keys are made the
    largest.  A job reads the whole block if at least half its rows are the
    job's, else gathers their columns.  A row's prediction is the label of its
    set's member of the smallest key, as in :func:`loo_predict`."""
    n, pos, cols = len(y), y == 1, np.arange(len(y))
    block = max(2, _BLOCK_CELLS // n)
    jobs = [job for job in jobs if len(job[0])]
    # no block of one row, which numpy would multiply by gemv, rounding otherwise
    bounds = [*range(0, n - 1, block), n] if jobs else []
    for r0, r1 in zip(bounds, bounds[1:]):
        DT = (_keys(pairwise_distances(X[r0:r1], X), cols) if index is None
              else index.keys[r0:r1]).T.copy()
        np.fill_diagonal(DT[r0:r1], np.iinfo(np.int64).max)  # each row's own key
        for members, rows, hits in jobs:
            own = rows[r0:r1]
            q = np.flatnonzero(own)
            if not q.size:
                continue
            # half the block or more: all its columns, the job's rows counted
            q, own, D = (np.arange(r0, r1), own, DT) if 2 * q.size >= r1 - r0 \
                else (r0 + q, own[q], DT.take(q, axis=1))
            tp_q, tn_q = own & pos[q], own & ~pos[q]
            chunk = max(1, _CHUNK_CELLS // (members.shape[1] * q.size))
            for c0 in range(0, len(members), chunk):
                pred = pos[_nearest_retained(D.take(members[c0:c0 + chunk], axis=0), n)]
                hits[c0:c0 + chunk, 0] += (pred & tp_q).sum(axis=1)
                hits[c0:c0 + chunk, 1] += (tn_q > pred).sum(axis=1)  # tn_q and not pred
        DT = D = None  # freed before the next block's keys are computed


def loo_gm_best(X, y, refsets, *, index=None) -> tuple[int, float]:
    """The first of the highest ``[loo_gm(X, y, r) for r in refsets]``, as
    ``(index, gm)``, for the checked ``(T, M)`` array ``refsets`` of distinct
    rows, by the metric of ``index`` over ``X`` (all-numeric without one).  The
    first ``_PILOT`` sets are scored on every row and the others on the positive
    rows.  As GM = sqrt(TPR * TNR) <= sqrt(TPR), in floating point too, only a
    set whose sqrt(TPR) reaches the pilot's best GM can equal the highest; only
    those are scored again, on every row."""
    if (top := _sorted_sets(refsets, 2)[:, -1].max()) >= len(y):  # as in _retained
        raise ValueError(f"row {top} out of range for {len(y)} training rows")
    refsets = np.asarray(refsets, dtype=np.intp)
    index = None if index is None else _index_over(X, index)
    (T, M), pos = refsets.shape, y == 1
    n_pos = np.count_nonzero(pos[refsets], axis=1)
    if not np.any((n_pos > 0) & (n_pos < M)):  # loo_gm gives 0.0 to a one-class set
        return 0, 0.0
    P, every, hits = min(T, _PILOT), np.ones(len(y), dtype=bool), np.zeros((T, 2), np.intp)
    _loo_hits(X, y, [(refsets[:P], every, hits[:P]), (refsets[P:], pos, hits[P:])], index)
    wp, wn = np.count_nonzero(pos), np.count_nonzero(~pos)
    pilot_best = np.sqrt((hits[:P, 0] / wp) * (hits[:P, 1] / wn)).max()
    alive = P + np.flatnonzero(np.sqrt(hits[P:, 0] / wp) >= pilot_best)
    again = np.zeros((alive.size, 2), np.intp)
    _loo_hits(X, y, [(refsets[alive], every, again)], index)
    hits[alive] = again
    # 0.0 for a set left out (no TN counted) and a one-class set (one class predicted)
    gms = np.sqrt((hits[:, 0] / wp) * (hits[:, 1] / wn))
    best = int(np.argmax(gms))
    return best, float(gms[best])


def loo_gm(X, y, retained, nominal_mask=None) -> float:
    """Leave-one-out GM of 1-NN over ``retained``, evaluated on all of ``X``.

    Returns 0.0 (not an error) when ``retained`` misses a class, so subset
    optimisers can penalise degenerate selections naturally.  EUS scores its
    populations from the same predictions in ``selection.eus_fitness``.
    """
    retained = _retained(retained, len(X))
    yr = y[retained]
    if not (np.count_nonzero(yr == 1) and np.count_nonzero(yr == 0)):
        return 0.0
    pred = loo_predict(X, y, retained, nominal_mask)
    pos = y == 1
    tp = np.count_nonzero(pos & (pred == 1))
    tn = np.count_nonzero(~pos & (pred == 0))
    return float(np.sqrt((tp / np.count_nonzero(pos)) * (tn / np.count_nonzero(~pos))))
