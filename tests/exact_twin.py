"""Exact distances on grid data: the oracle of the tie rule.

On data whose every numeric coordinate is an integer over ``scale`` (min-max
scaled integer grids of range up to 8 have ``scale`` 840, the lcm of 1..8),
the squared distances are integers in units of ``1 / scale**2``.  They are
summed here in int64, without BLAS, so equal distances are equal and order is
exact.  :func:`pairwise` is a drop-in double for ``knn.pairwise_distances``:
every ordering in gmsel only compares distances, so a run under it gives the
records of the lowest-index rule on exact distances.
"""

import numpy as np

SCALE = 840


def integers(X, scale=SCALE) -> np.ndarray:
    """``X * scale`` as int64, asserting that each coordinate was an integer."""
    Z = np.atleast_2d(np.asarray(X, dtype=float)) * scale
    R = np.rint(Z)
    assert np.all(np.abs(Z - R) <= 1e-9 + 1e-12 * np.abs(R)), "not on the grid"
    return R.astype(np.int64)


def squares(A, B, nominal_mask=None, scale=SCALE) -> np.ndarray:
    """Squared distances between the rows of ``A`` and ``B`` in units of
    ``1 / scale**2``: ``scale**2`` per nominal mismatch."""
    A, B = integers(A, scale), integers(B, scale)
    nominal = np.zeros(A.shape[1], bool) if nominal_mask is None else np.asarray(nominal_mask)
    S = np.zeros((len(A), len(B)), dtype=np.int64)
    for a, b, nom in zip(A.T, B.T, nominal):
        diff = np.subtract.outer(a, b)
        S += (diff != 0) * scale**2 if nom else diff * diff
    return S


def pairwise(A, B, nominal_mask=None) -> np.ndarray:
    """``knn.pairwise_distances`` on grid data, exactly: the square roots of
    the integer squares, back in the data's units."""
    return np.sqrt(squares(A, B, nominal_mask).astype(float)) / SCALE


def nearest(X, queries, retained, nominal_mask=None, exclude_self=False, scale=SCALE):
    """Each query's nearest row of ``retained``, ties to the lowest row; with
    ``exclude_self`` the queries are ``X`` and a row is never its own
    neighbour unless nothing else is retained."""
    retained = np.sort(retained)
    S = squares(queries, X[retained], nominal_mask, scale)
    if exclude_self:
        own = np.flatnonzero(np.isin(np.arange(len(X)), retained))
        S[own, np.searchsorted(retained, own)] = np.iinfo(np.int64).max
    return retained[np.argmin(S, axis=1)]


def ranked(X, queries, retained, k, nominal_mask=None, scale=SCALE):
    """Each query's ``k`` nearest rows of ``retained``, ties to the lower row."""
    retained = np.sort(retained)
    S = squares(queries, X[retained], nominal_mask, scale)
    return retained[np.argsort(S, axis=1, kind="stable")[:, :k]]
