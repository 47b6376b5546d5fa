"""Numerical verification lab for GM-optimal instance selection claims.

Ground-truth class-conditional densities (piecewise-uniform 1D or diagonal
Gaussian-mixture 2D) provide asymptotic-GM oracles.  On top of them:

* exact 1D boundary analysis (TPR/TNR/GM as a function of a split point and
  its closed-form maximiser);
* Monte Carlo asymptotic GM of an arbitrary 1-NN reference set;
* sampling-based Voronoi facet-neighbour detection, cell-inclusion checks and
  the gain/loss analysis that predicts whether removing one prototype
  improves GM;
* exhaustive subset search over small point sets with common random numbers;
* the classical-Bayes / balanced-Bayes / random-editing comparison on a
  heavily imbalanced Gaussian mixture.

:func:`prop1_check` and :func:`lemma_sweep` return what one process would, but
use a forked helper (:func:`_two_processes`): it analyses prop1's next case and
a passing case's GM after removal, and checks lemma-check's odd configurations.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from numbers import Real

import numpy as np

from .knn import _labels, _stable_top_k, classify_1nn, nearest_points, pairwise_distances
from .metrics import confusion, gm
from .selection import _known_keys, _read_yaml, random_edit

__all__ = [
    "PiecewiseUniform1D", "GaussianMixture2D", "DensityModel", "RemovalAnalysis",
    "LemmaReport", "example_uniform_model", "example_mixture_model", "gm_boundary_1d",
    "best_boundary_1d", "sweep_boundary_1d", "asymptotic_gm", "voronoi_neighbors",
    "removal_analysis", "prop1_check", "lemma_check", "lemma_sweep", "exhaustive_search",
    "nonmonotone_example", "cb_bb_demo", "model_from_config",
]


class PiecewiseUniform1D:
    """1D density that is constant on each of a list of disjoint intervals.

    Segment bounds and densities may be floats or :class:`~fractions.Fraction`
    (exact rationals keep the boundary maximiser exact).
    """

    def __init__(self, segments):
        segs = sorted(((lo, hi, d) for lo, hi, d in segments), key=lambda s: float(s[0]))
        for lo, hi, d in segs:
            if float(hi) <= float(lo):
                raise ValueError("segment with non-positive length")
            if float(d) < 0:
                raise ValueError("negative density")
        for (_, hi1, _), (lo2, _, _) in zip(segs, segs[1:]):
            if float(lo2) < float(hi1):
                raise ValueError("overlapping segments")
        total = sum(d * (hi - lo) for lo, hi, d in segs)
        if abs(float(total) - 1.0) > 1e-9:
            raise ValueError(f"density integrates to {float(total)}, not 1")
        self.segments = segs

    @property
    def breakpoints(self):
        return sorted({b for lo, hi, _ in self.segments for b in (lo, hi)},
                      key=float)

    def density_at(self, x):
        """Constant density of the segment containing ``x`` (0 outside)."""
        for lo, hi, d in self.segments:
            if float(lo) <= float(x) < float(hi):
                return d
        return 0

    def cdf(self, b):
        """P(X <= b); exact when segments are rational."""
        acc = 0
        for lo, hi, d in self.segments:
            if float(b) <= float(lo):
                break
            acc += d * (min(b, hi) - lo) if float(b) < float(hi) else d * (hi - lo)
        return acc

    def pdf(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
        out = np.zeros(x.shape)
        for lo, hi, d in self.segments:
            out[(x >= float(lo)) & (x < float(hi))] = float(d)
        return out

    def sample(self, n, rng):
        weights = np.array([float(d * (hi - lo)) for lo, hi, d in self.segments])
        weights = weights / weights.sum()
        which = rng.choice(len(self.segments), size=n, p=weights)
        u = rng.random(n)
        lo = np.array([float(s[0]) for s in self.segments])[which]
        hi = np.array([float(s[1]) for s in self.segments])[which]
        return (lo + u * (hi - lo))[:, None]


class GaussianMixture2D:
    """Mixture of axis-aligned 2D Gaussians: (weight, mean, diagonal variance)."""

    def __init__(self, components):
        comps = [(float(w), np.asarray(m, dtype=float), np.asarray(v, dtype=float))
                 for w, m, v in components]
        if not comps:
            raise ValueError("empty mixture")
        if any(w <= 0 for w, _, _ in comps):
            raise ValueError("component weights must be positive")
        if abs(sum(w for w, _, _ in comps) - 1.0) > 1e-9:
            raise ValueError("component weights must sum to 1")
        for k, (_, m, v) in enumerate(comps):
            if m.shape != (2,) or v.shape != (2,):
                raise ValueError(f"component {k}: mean and variance must be 2-vectors")
        if any(np.any(v <= 0) for _, _, v in comps):
            raise ValueError("variances must be positive")
        self.components = comps

    def pdf(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.zeros(X.shape[0])
        for w, mean, var in self.components:
            z = (X - mean) ** 2 / var
            norm = 2.0 * np.pi * np.sqrt(var[0] * var[1])
            out += w * np.exp(-0.5 * z.sum(axis=1)) / norm
        return out

    def sample_components(self, counts, rng):
        """``counts[c]`` draws from component ``c``, stacked in component order:
        the normals drawn at once, then scaled and shifted column by column."""
        X = np.empty((sum(counts), 2))
        rng.standard_normal(out=X)
        for (_, mean, var), rows in zip(self.components, np.split(X, np.cumsum(counts)[:-1])):
            for col, m, v in zip(rows.T, mean, var):
                col *= np.sqrt(v)
                col += m
        return X

    def sample(self, n, rng):
        """``n`` draws: component counts from one multinomial draw, then
        :meth:`sample_components` put in a random order by ``take``."""
        counts = rng.multinomial(n, np.array([w for w, _, _ in self.components]))
        return self.sample_components(counts, rng).take(rng.permutation(n), axis=0)


@dataclass(frozen=True)
class DensityModel:
    """Ground-truth class-conditional densities with class priors."""

    positive: object
    negative: object
    prior_positive: float

    def __post_init__(self):
        p = self.prior_positive  # a bool is 0 or 1, so out of range
        if not (isinstance(p, Real) and 0.0 < p < 1.0):
            raise ValueError(f"prior_positive must be a real number in (0, 1), got {p!r}")

    @property
    def prior_negative(self) -> float:
        return 1.0 - self.prior_positive


def example_uniform_model() -> DensityModel:
    """Overlapping uniforms: positive on [0, 9], negative on [3, 10].

    The pdfs intersect at 3, but the GM-optimal split point is 5.
    """
    return DensityModel(
        positive=PiecewiseUniform1D([(Fraction(0), Fraction(9), Fraction(1, 9))]),
        negative=PiecewiseUniform1D([(Fraction(3), Fraction(10), Fraction(1, 7))]),
        prior_positive=0.5,
    )


def example_mixture_model() -> DensityModel:
    """Imbalanced 2D example: standard-normal majority versus a two-component
    minority mixture, priors 1/9 versus 8/9."""
    return DensityModel(
        positive=GaussianMixture2D([
            (0.6, [-1.0, 1.0], [1.0, 0.3]),
            (0.4, [2.0, -2.0], [0.4, 0.7]),
        ]),
        negative=GaussianMixture2D([(1.0, [0.0, 0.0], [1.0, 1.0])]),
        prior_positive=1.0 / 9.0,
    )


# ---------------------------------------------------------------------------
# Exact 1D boundary analysis

def _breakpoints_1d(model: DensityModel):
    """Sorted breakpoints of the model's two densities, both piecewise uniform."""
    for side in (model.positive, model.negative):
        if not isinstance(side, PiecewiseUniform1D):
            raise ValueError("1D boundary analysis needs PiecewiseUniform1D "
                             f"densities, not {type(side).__name__}")
    return sorted(set(model.positive.breakpoints) | set(model.negative.breakpoints),
                  key=float)


def gm_boundary_1d(model: DensityModel, b):
    """(TPR, TNR, GM) of the classifier "positive iff x < b" by exact
    piecewise integration."""
    tpr = model.positive.cdf(b)
    tnr = 1 - model.negative.cdf(b)
    return float(tpr), float(tnr), math.sqrt(float(tpr) * float(tnr))


def best_boundary_1d(model: DensityModel):
    """Maximise GM(b) over all split points.

    On every interval between density breakpoints GM^2 is a quadratic in b,
    so the maximiser is a breakpoint or a closed-form vertex.  When the
    maximum is attained on a plateau (e.g. a gap between supports) the
    plateau midpoint is returned.  Exact for rational segment data.
    """
    bps = _breakpoints_1d(model)
    candidates = list(bps)
    for left, right in zip(bps, bps[1:]):
        mid = (left + right) / 2
        candidates.append(mid)
        dp = model.positive.density_at(mid)
        dn = model.negative.density_at(mid)
        if float(dp) > 0 and float(dn) > 0:
            a = model.positive.cdf(left)
            c = 1 - model.negative.cdf(left)
            # maximise (a + dp*u)(c - dn*u) over u in [0, right-left]
            u = (c * dp - a * dn) / (2 * dp * dn)
            if 0 < float(u) < float(right - left):
                candidates.append(left + u)

    def gm2(b):
        return model.positive.cdf(b) * (1 - model.negative.cdf(b))

    values = [(b, gm2(b)) for b in candidates]
    best = max(float(v) for _, v in values)
    at_max = [b for b, v in values if float(v) >= best - 1e-12]
    b_star = (min(at_max, key=float) + max(at_max, key=float)) / 2
    return float(b_star), math.sqrt(float(gm2(b_star)))


def sweep_boundary_1d(model: DensityModel, steps):
    """``[b, TPR, TNR, GM]`` at ``steps`` evenly spaced split points from the
    lowest to the highest breakpoint of the two densities."""
    bps = _breakpoints_1d(model)
    return [[float(b), *gm_boundary_1d(model, float(b))]
            for b in np.linspace(float(bps[0]), float(bps[-1]), steps)]


# ---------------------------------------------------------------------------
# Monte Carlo machinery

def _check_count(name, value, low):
    """ValueError naming ``name`` unless ``value`` is at least ``low``."""
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")


def _serve(conn, parent_end):
    """The helper process: answer each call ``(True, result)`` or ``(False, exception)``."""
    parent_end.close()  # this fork's copy of it would keep the pipe open
    with suppress(EOFError):  # from recv, once the parent's end closes
        while True:
            call = conn.recv()
            try:
                conn.send((True, call()))
            except Exception as exc:  # re-raised in the parent
                conn.send((False, exc))


@contextmanager
def _two_processes():
    """``both(here, there)`` for the block: run the call ``here`` in this
    process and ``there`` in one forked helper process, and return both
    results.  Without fork or a second usable CPU both run here in turn."""
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:  # or fork
        yield lambda here, there: (here(), there())
        return
    import multiprocessing  # here, so that importing gmsel.theory loads nothing more
    ctx = multiprocessing.get_context("fork")
    mine, theirs = ctx.Pipe()
    helper = ctx.Process(target=_serve, args=(theirs, mine), daemon=True)
    helper.start()
    theirs.close()

    def both(here, there):
        mine.send(there)
        result = here()
        ok, other = mine.recv()
        if not ok:
            raise other
        return result, other

    try:
        yield both
    except BaseException:
        helper.terminate()
        raise
    finally:
        mine.close()
        helper.join()


def _class_probes(model, n, seed):
    rng = np.random.default_rng(seed)
    return model.positive.sample(n, rng), model.negative.sample(n, rng)


def asymptotic_gm(points, labels, model: DensityModel, sample_count=10_000, seed=0):
    """Monte Carlo estimate of the asymptotic GM of a 1-NN reference set.

    Returns ``(gm, standard_error)``.  Per-class samples are drawn from the
    ground-truth densities.  A reference set missing a class has GM exactly 0.
    """
    _check_count("sample_count", sample_count, 1000)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    labels = _labels(points, labels)
    if not (np.any(labels == 1) and np.any(labels == 0)):
        return 0.0, 0.0
    Xp, Xn = _class_probes(model, sample_count, seed)
    p = np.mean(labels[nearest_points(points, Xp)] == 1)
    q = np.mean(labels[nearest_points(points, Xn)] == 0)
    g = math.sqrt(p * q)
    se_p = math.sqrt(p * (1 - p) / Xp.shape[0])
    se_n = math.sqrt(q * (1 - q) / Xn.shape[0])
    if g == 0.0:
        se = math.sqrt(q * se_p**2 + p * se_n**2)  # degenerate delta-method limit
    else:
        se = math.sqrt((q / (2 * g)) ** 2 * se_p**2 + (p / (2 * g)) ** 2 * se_n**2)
    return g, se


def _box_probes(points, probe_count, seed):
    """The points (at least 2) and uniform probes over their padded bounding
    box."""
    _check_count("probe_count", probe_count, 1)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] < 2:
        raise ValueError("need at least 2 points")
    rng = np.random.default_rng(seed)
    lo, hi = points.min(axis=0), points.max(axis=0)
    pad = 0.5 * np.maximum(hi - lo, 1.0)
    return points, rng.uniform(lo - pad, hi + pad, size=(probe_count, points.shape[1]))


def _check_point(points, i):
    """ValueError unless ``i`` numbers a row of ``points`` (-1 would be the last)."""
    if not 0 <= i < len(points):
        raise ValueError(f"point i={i} is not one of the {len(points)} points")


def _nearest_without(points, i, queries):
    """Index into ``points`` of the nearest point other than ``i`` to each
    query: each distance is summed from its own pair, so it is the one the
    lookup over every point finds."""
    others = np.delete(np.arange(points.shape[0]), i)
    return others[nearest_points(points[others], queries)]


def voronoi_neighbors(points, i, probe_count=10_000, seed=0):
    """Facet neighbours of cell ``i`` by Monte Carlo: probes landing in the
    cell report their second-nearest point.  A probabilistic
    under-approximation; recall grows with ``probe_count``."""
    points, probes = _box_probes(points, probe_count, seed)
    _check_point(points, i)
    in_cell = probes[nearest_points(points, probes) == i]
    return set(np.unique(_nearest_without(points, i, in_cell)).tolist())


@dataclass(frozen=True)
class LemmaReport:
    inclusion_violations: int
    probes_in_cell: int


def lemma_check(points, i, probe_count=10_000, seed=0) -> LemmaReport:
    """Probe-based check of cell inclusion after removing point ``i``: a probe
    whose nearest point is j != i must still have nearest j once i is removed
    (violations must always be 0).  The points that take over i's cell are
    :func:`voronoi_neighbors` on the same probes."""
    points, probes = _box_probes(points, probe_count, seed)
    _check_point(points, i)
    nearest = nearest_points(points, probes)
    # every probe is looked up again: that no outside probe moves is the check
    nearest_wo = _nearest_without(points, i, probes)
    outside = nearest != i
    return LemmaReport(
        inclusion_violations=int(np.sum(nearest_wo[outside] != nearest[outside])),
        probes_in_cell=int(np.sum(~outside)),
    )


def _lemma_violations(configs, probe_count):
    """Inclusion violations summed over ``configs``, each ``(points, i, seed)``."""
    return sum(lemma_check(points, i, probe_count, seed).inclusion_violations
               for points, i, seed in configs)


def lemma_sweep(configs, probe_count, seed) -> int:
    """Total inclusion violations of :func:`lemma_check` over ``configs``
    random configurations: 5-30 standard-normal points in 1-4 dimensions,
    with a random point removed.  All are drawn first; this process checks
    the even ones and the helper process the odd ones."""
    _check_count("configs", configs, 1)
    rng = np.random.default_rng(seed)
    drawn = []
    for _ in range(configs):
        n, d = int(rng.integers(5, 31)), int(rng.integers(1, 5))
        points = rng.standard_normal((n, d))
        drawn.append((points, int(rng.integers(0, n)), int(rng.integers(0, 2**31))))
    with _two_processes() as both:
        return sum(both(partial(_lemma_violations, drawn[::2], probe_count),
                        partial(_lemma_violations, drawn[1::2], probe_count)))


@dataclass(frozen=True)
class RemovalAnalysis:
    """Predicted GM effect of removing one prototype from a reference set."""

    gain: float   # probability mass flowing to the opposite class's rate
    loss: float   # probability mass lost from the removed point's class rate
    tpr_before: float
    tnr_before: float
    tpr_after: float
    tnr_after: float
    margin: float       # TPR'*TNR' - TPR*TNR, > 0 iff improvement predicted
    margin_se: float
    predicted_improvement: bool


def removal_analysis(points, labels, i, model: DensityModel, sample_count=10_000,
                     seed=0) -> RemovalAnalysis:
    """Estimate the gain/loss probability masses over the region whose label
    flips when point ``i`` is removed, and evaluate the product-rate
    improvement condition (TPR - l)(TNR + g) > TPR * TNR (or its mirror for a
    negative removal)."""
    _check_count("sample_count", sample_count, 1000)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    labels = _labels(points, labels)
    _check_point(points, i)
    keep = np.delete(labels, i)
    if not (np.any(keep == 1) and np.any(keep == 0)):
        raise ValueError("removal would leave a class unrepresented")

    def correct(probes, label):
        """1.0 where a probe's nearest point has ``label``, before and after
        removing i."""
        before = nearest_points(points, probes)
        # cell inclusion: only the probes of i's cell change their nearest point
        cell = np.flatnonzero(before == i)
        after = before.copy()
        after[cell] = _nearest_without(points, i, probes[cell])
        return (labels[before] == label).astype(float), (labels[after] == label).astype(float)

    Xp, Xn = _class_probes(model, sample_count, seed)
    a_before, a_after = correct(Xp, 1)
    b_before, b_after = correct(Xn, 0)
    p, p2 = a_before.mean(), a_after.mean()
    q, q2 = b_before.mean(), b_after.mean()

    if labels[i] == 1:
        loss = float(np.mean(a_before > a_after))   # positive mass flipped to -
        gain = float(np.mean(b_after > b_before))   # negative mass gained
    else:
        loss = float(np.mean(b_before > b_after))
        gain = float(np.mean(a_after > a_before))

    margin = p2 * q2 - p * q
    # delta method on M = p'q' - pq with (p, p') and (q, q') from shared samples
    u = q2 * a_after - q * a_before
    v = p2 * b_after - p * b_before
    margin_se = math.sqrt(np.var(u) / len(u) + np.var(v) / len(v))
    return RemovalAnalysis(gain=gain, loss=loss, tpr_before=float(p), tnr_before=float(q),
                           tpr_after=float(p2), tnr_after=float(q2), margin=float(margin),
                           margin_se=float(margin_se), predicted_improvement=bool(margin > 0))


def _labelled_sample(model, n_pos, n_neg, seed):
    """``n_pos`` positives then ``n_neg`` negatives drawn from ``model``
    with ``seed`` (a seed or a Generator), and their labels."""
    rng = np.random.default_rng(seed)
    points = np.vstack([model.positive.sample(n_pos, rng),
                        model.negative.sample(n_neg, rng)])
    return points, np.array([1] * n_pos + [0] * n_neg)


def prop1_check(cases, sample_count, seed):
    """Check the single-removal improvement condition on random point sets.

    Each case draws 2-5 positives and 3-9 negatives from
    :func:`example_mixture_model` and a point to remove, so both classes
    keep a member.  A removal whose predicted margin exceeds five standard
    errors is checked by estimating GM with and without the point on fresh
    probes, and confirmed when GM rises.  Returns ``(confirmed, checked)``
    once ``cases`` removals have been checked.

    While this process analyses a case, the helper analyses the next, drawn
    as if this one fails the filter, as most do.  When it passes, the draws
    rewind to just after it, and its GM is estimated before removal here and
    after removal in the helper.
    """
    _check_count("sample_count", sample_count, 1000)
    _check_count("cases", cases, 1)
    model = example_mixture_model()
    rng = np.random.default_rng(seed)

    def draw():
        """A case's points, labels and point to remove, and its analysis."""
        n_pos, n_neg = int(rng.integers(2, 6)), int(rng.integers(3, 10))
        pts, labels = _labelled_sample(model, n_pos, n_neg, int(rng.integers(0, 2**31)))
        i = int(rng.integers(0, len(labels)))
        return (pts, labels, i), partial(removal_analysis, pts, labels, i, model,
                                         sample_count, int(rng.integers(0, 2**31)))

    checked = confirmed = 0
    with _two_processes() as both:
        while checked < cases:
            case, here = draw()
            resume = rng.bit_generator.state  # where the draws go on if it passes
            guess, there = draw()
            for (pts, labels, i), ra in zip((case, guess), both(here, there)):
                if ra.margin <= 5 * ra.margin_se:
                    resume = rng.bit_generator.state
                    continue
                rng.bit_generator.state = resume
                checked += 1
                kept = np.delete(np.arange(len(labels)), i)
                (g_before, _), (g_after, _) = both(*(  # seeds drawn in order, before then after
                    partial(asymptotic_gm, p, y, model, sample_count, int(rng.integers(0, 2**31)))
                    for p, y in ((pts, labels), (pts[kept], labels[kept]))))
                confirmed += int(g_after > g_before)
                break
    return confirmed, checked


# ---------------------------------------------------------------------------
# Exhaustive subset search

# 2^n subsets: at 20 points the search takes about 0.7 s and 35 MB more
# memory (2-core x86, numpy 2.4), and both grow at least as 2^n
_EXHAUSTIVE_MAX_POINTS = 20


def _hits_per_subset(probes, points, right):
    """For every subset S of ``points`` (a bitmask holding point j at bit
    n-1-j), how many ``probes`` have a nearest point in S that is ``right``.

    Point j = r[t] of a probe's stable neighbour order r is its nearest in S
    exactly when j is in S and S misses A = r[0..t-1].  So g_j counts the
    probes by their A, its subset sums h_j count those whose A lies within a
    set, and S has the sum of h_j[~S] over the right points j in S.
    """
    n = points.shape[0]
    order = _stable_top_k(pairwise_distances(probes, points), n)
    bits = (1 << np.arange(n - 1, -1, -1))[order]
    ahead = np.empty_like(bits)  # ahead[:, j]: the mask A of point j
    np.put_along_axis(ahead, order, np.cumsum(bits, axis=1) - bits, axis=1)
    hits = np.zeros(1 << n, dtype=np.int64)
    for j in np.flatnonzero(right):
        h = np.bincount(ahead[:, j], minlength=1 << n)
        for b in range(n):
            h.reshape(-1, 2, 1 << b)[:, 1] += h.reshape(-1, 2, 1 << b)[:, 0]
        at_j = 1 << (n - 1 - j)  # h[::-1][S] is h[~S]
        hits.reshape(-1, 2, at_j)[:, 1] += h[::-1].reshape(-1, 2, at_j)[:, 1]
    return hits


def exhaustive_search(points, labels, model: DensityModel, sample_count=2000, seed=0):
    """Evaluate every reference subset (both classes present, size >= 2) by
    asymptotic GM under one shared probe sample (common random numbers).

    Returns ``(per_cardinality, best)`` where ``per_cardinality[k]`` is the
    best ``(subset, gm)`` of size ``k`` and ``best`` the global optimum.  Ties
    go to the lexicographically first subset, then to the smallest size.  The
    probe counts of all 2^n subsets come from one pass per point (see
    :func:`_hits_per_subset`) and are exact, as are the GMs.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    labels = _labels(points, labels)
    n = points.shape[0]
    if n > _EXHAUSTIVE_MAX_POINTS:
        raise ValueError(
            f"{n} points means 2^{n} subsets; use random_edit for sets this large"
        )
    Xp, Xn = _class_probes(model, sample_count, seed)
    gms = np.sqrt((_hits_per_subset(Xp, points, labels == 1) / Xp.shape[0])
                  * (_hits_per_subset(Xn, points, labels == 0) / Xn.shape[0]))
    masks = np.arange(1 << n)
    bit = 1 << np.arange(n - 1, -1, -1)
    size = sum((masks & b) > 0 for b in bit)
    gms[((masks & bit[labels == 1].sum()) == 0)
        | ((masks & bit[labels == 0].sum()) == 0)] = -1.0  # a class missing

    per_cardinality = {}
    best_subset, best_gm = None, -1.0
    for k in range(2, n + 1):
        of_size = np.flatnonzero(size == k)
        k_gm = float(gms[of_size].max())
        if k_gm >= 0:
            # the largest mask among the ties is the lexicographically first
            k_best = np.flatnonzero(of_size[gms[of_size] == k_gm][-1] & bit)
            per_cardinality[k] = (k_best, k_gm)
            if k_gm > best_gm:
                best_gm, best_subset = k_gm, k_best
    return per_cardinality, (best_subset, best_gm)


# Found by a since-retired rejection search (seed 7) over draws of this model
# for a set whose best proper subset beats the full set.
_NONMONOTONE_DRAW_SEED = 1763574599


def nonmonotone_example():
    """The recorded 15-point 2D set whose best-GM-per-cardinality curve is
    non-monotonic and beats the full set.  Returns ``(points, labels, model)``."""
    model = example_mixture_model()
    pts, labels = _labelled_sample(model, 5, 10, _NONMONOTONE_DRAW_SEED)
    return pts, labels, model


# ---------------------------------------------------------------------------
# Classical Bayes / Balanced Bayes / random editing comparison

def bayes_classify(model: DensityModel, X, balanced=False) -> np.ndarray:
    """1 where the (prior-weighted unless ``balanced``) positive density wins."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    pp = model.positive.pdf(X)
    pn = model.negative.pdf(X)
    if not balanced:
        pp = pp * model.prior_positive
        pn = pn * model.prior_negative
    return (pp > pn).astype(int)


def _sample_joint(model, n, rng):
    n_pos = rng.binomial(n, model.prior_positive)
    X, y = _labelled_sample(model, n_pos, n - n_pos, rng)
    perm = rng.permutation(n)
    return X[perm], y[perm]


def cb_bb_demo(seed=0, re_trials=10_000, include_re=True):
    """Compare classical Bayes, balanced Bayes and (optionally) random editing
    on the imbalanced Gaussian-mixture example.

    Training data is used only by random editing, which picks 25 of 300 + 200
    positives (one count per positive mixture component) and 4000 negatives;
    CB and BB classify straight from the densities.  GM is estimated on a
    fresh test sample of 9,000 rows drawn from the joint distribution.
    Returns a dict with keys ``cb``, ``bb`` and, when requested, ``re``.
    """
    model = example_mixture_model()
    rng = np.random.default_rng(seed)
    X_test, y_test = _sample_joint(model, 9000, rng)
    out = {
        "cb": gm(confusion(y_test, bayes_classify(model, X_test))),
        "bb": gm(confusion(y_test, bayes_classify(model, X_test, balanced=True))),
    }
    if include_re:
        # one positive count per mixture component, honoured exactly
        X_pos = model.positive.sample_components((300, 200), rng)
        X_neg = model.negative.sample(4000, rng)
        X_train = np.vstack([X_pos, X_neg])
        y_train = np.array([1] * X_pos.shape[0] + [0] * X_neg.shape[0])
        ref = random_edit(X_train, y_train, M=25, T=re_trials,
                          seed=int(rng.integers(0, 2**31)))
        pred = classify_1nn(X_train, y_train, ref, X_test)
        out["re"] = gm(confusion(y_test, pred))
        out["re_refset"] = ref
    return out


# ---------------------------------------------------------------------------
# Declarative model configuration

def model_from_config(cfg) -> DensityModel:
    """Build a :class:`DensityModel` from a dict or a YAML file path.

    Schema::

        prior_positive: 0.111
        positive:
          type: piecewise_uniform        # or gaussian_mixture
          segments: [[0, 9, 0.1111]]     # lo, hi, density
        negative:
          type: gaussian_mixture
          components: [[1.0, [0, 0], [1, 1]]]   # weight, mean, variance

    An unknown or missing key, or a bad value, is a ValueError naming the key.
    """
    if not isinstance(cfg, dict):
        cfg = _read_yaml(cfg)
    top = ("prior_positive", "positive", "negative")
    _known_keys(cfg, "", top, top)
    densities = {"piecewise_uniform": ("segments", PiecewiseUniform1D),
                 "gaussian_mixture": ("components", GaussianMixture2D)}

    def build(key):
        side = _known_keys(cfg[key], f"{key}.", ("type", "segments", "components"), ("type",))
        if not isinstance(side["type"], str) or side["type"] not in densities:
            raise ValueError(f"{key}.type: unknown density type {side['type']!r}")
        rows, density = densities[side["type"]]
        _known_keys(side, f"{key}.", ("type", rows), (rows,))
        try:
            return density([tuple(r) for r in side[rows]])
        except (TypeError, ValueError) as exc:  # not rows, or rows of other values
            raise ValueError(f"{key}.{rows}: {exc}") from None

    return DensityModel(positive=build("positive"), negative=build("negative"),
                        prior_positive=cfg["prior_positive"])
