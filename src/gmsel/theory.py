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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .knn import NeighbourIndex, classify_1nn
# perfbench/test_perfbench.py checks that its tracer rebinds
# theory.pairwise_distances, so the name stays importable from here.
from .knn import pairwise_distances  # noqa: F401
from .selection import random_edit

__all__ = [
    "PiecewiseUniform1D",
    "GaussianMixture2D",
    "DensityModel",
    "RemovalAnalysis",
    "LemmaReport",
    "example_uniform_model",
    "example_mixture_model",
    "gm_boundary_1d",
    "best_boundary_1d",
    "asymptotic_gm",
    "voronoi_neighbors",
    "removal_analysis",
    "prop1_check",
    "lemma_check",
    "exhaustive_search",
    "nonmonotone_example",
    "search_nonmonotone_pointset",
    "cb_bb_demo",
    "model_from_config",
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

    def sample(self, n, rng):
        weights = np.array([w for w, _, _ in self.components])
        counts = rng.multinomial(n, weights)
        parts = []
        for (w, mean, var), c in zip(self.components, counts):
            parts.append(mean + rng.standard_normal((c, 2)) * np.sqrt(var))
        out = np.vstack(parts)
        return out[rng.permutation(n)]


@dataclass(frozen=True)
class DensityModel:
    """Ground-truth class-conditional densities with class priors."""

    positive: object
    negative: object
    prior_positive: float

    def __post_init__(self):
        if not 0.0 < self.prior_positive < 1.0:
            raise ValueError("prior must be strictly between 0 and 1")

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
    bps = sorted(set(model.positive.breakpoints) | set(model.negative.breakpoints),
                 key=float)
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


# ---------------------------------------------------------------------------
# Monte Carlo machinery

def _class_probes(model, n, seed):
    rng = np.random.default_rng(seed)
    return model.positive.sample(n, rng), model.negative.sample(n, rng)


def asymptotic_gm(points, labels, model: DensityModel, sample_count=10_000,
                  seed=0, probes=None):
    """Monte Carlo estimate of the asymptotic GM of a 1-NN reference set.

    Returns ``(gm, standard_error)``.  Per-class samples are drawn from the
    ground-truth densities (or passed in via ``probes`` for common random
    numbers).  A reference set missing a class has GM exactly 0.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    labels = np.asarray(labels)
    if not (np.any(labels == 1) and np.any(labels == 0)):
        return 0.0, 0.0
    if probes is None:
        if sample_count < 1000:
            raise ValueError("sample_count must be at least 1000")
        probes = _class_probes(model, sample_count, seed)
    Xp, Xn = probes
    every = np.arange(len(labels))
    p = np.mean(labels[NeighbourIndex(points, queries=Xp).nearest(every)] == 1)
    q = np.mean(labels[NeighbourIndex(points, queries=Xn).nearest(every)] == 0)
    g = math.sqrt(p * q)
    se_p = math.sqrt(p * (1 - p) / Xp.shape[0])
    se_n = math.sqrt(q * (1 - q) / Xn.shape[0])
    if g == 0.0:
        se = math.sqrt(q * se_p**2 + p * se_n**2)  # degenerate delta-method limit
    else:
        se = math.sqrt((q / (2 * g)) ** 2 * se_p**2 + (p / (2 * g)) ** 2 * se_n**2)
    return g, se


def _probe_box(points, rng, probe_count, pad_factor=0.5):
    points = np.atleast_2d(points)
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    pad = pad_factor * np.maximum(hi - lo, 1.0)
    return rng.uniform(lo - pad, hi + pad, size=(probe_count, points.shape[1]))


def voronoi_neighbors(points, i, probe_count=10_000, seed=0):
    """Facet neighbours of cell ``i`` by Monte Carlo: probes landing in the
    cell report their second-nearest point.  A probabilistic
    under-approximation; recall grows with ``probe_count``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] < 2:
        raise ValueError("need at least 2 points")
    rng = np.random.default_rng(seed)
    index = NeighbourIndex(points, queries=_probe_box(points, rng, probe_count))
    every = np.arange(points.shape[0])
    in_cell = np.flatnonzero(index.nearest(every) == i)
    return set(np.unique(index.nearest(np.delete(every, i), rows=in_cell)).tolist())


@dataclass(frozen=True)
class LemmaReport:
    inclusion_violations: int
    expansion_misses: int
    neighbors: frozenset
    probes_in_cell: int


def lemma_check(points, i, probe_count=10_000, seed=0) -> LemmaReport:
    """Probe-based check of cell inclusion and cell expansion after removing
    point ``i``.

    Inclusion: a probe whose nearest point is j != i must still have nearest
    j once i is removed (violations must always be 0).  Expansion: every
    facet neighbour that :func:`voronoi_neighbors` detects on an independent
    probe stream must capture at least one probe from the old cell of i;
    misses indicate insufficient probes, not a failure.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] < 2:
        raise ValueError("need at least 2 points")
    rng = np.random.default_rng(seed)
    index = NeighbourIndex(points, queries=_probe_box(points, rng, probe_count))
    every = np.arange(points.shape[0])
    nearest = index.nearest(every)
    # every probe is looked up again: that no outside probe moves is the check
    nearest_wo = index.nearest(np.delete(every, i))

    outside = nearest != i
    inclusion_violations = int(np.sum(nearest_wo[outside] != nearest[outside]))

    in_cell = ~outside
    absorbed = set(np.unique(nearest_wo[in_cell]).tolist())
    neighbors = voronoi_neighbors(points, i, probe_count,
                                  seed=int(rng.integers(0, 2**31)))
    expansion_misses = len(neighbors - absorbed)
    return LemmaReport(
        inclusion_violations=inclusion_violations,
        expansion_misses=expansion_misses,
        neighbors=frozenset(neighbors),
        probes_in_cell=int(np.sum(in_cell)),
    )


@dataclass(frozen=True)
class RemovalAnalysis:
    """Predicted GM effect of removing one prototype from a reference set."""

    removed_index: int
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
    points = np.atleast_2d(np.asarray(points, dtype=float))
    labels = np.asarray(labels)
    keep = np.delete(labels, i)
    if not (np.any(keep == 1) and np.any(keep == 0)):
        raise ValueError("removal would leave a class unrepresented")

    every = np.arange(len(labels))

    def predictions(probes):
        """Labels of each probe's nearest point, before and after removing i."""
        index = NeighbourIndex(points, queries=probes)
        before = index.nearest(every)
        # cell inclusion: only the probes of i's cell change their nearest point
        cell = np.flatnonzero(before == i)
        after = before.copy()
        after[cell] = index.nearest(np.delete(every, i), rows=cell)
        return labels[before], labels[after]

    Xp, Xn = _class_probes(model, sample_count, seed)
    pred_p_before, pred_p_after = predictions(Xp)
    pred_n_before, pred_n_after = predictions(Xn)

    a_before = (pred_p_before == 1).astype(float)
    a_after = (pred_p_after == 1).astype(float)
    b_before = (pred_n_before == 0).astype(float)
    b_after = (pred_n_after == 0).astype(float)
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
    return RemovalAnalysis(
        removed_index=int(i),
        gain=gain,
        loss=loss,
        tpr_before=float(p),
        tnr_before=float(q),
        tpr_after=float(p2),
        tnr_after=float(q2),
        margin=float(margin),
        margin_se=float(margin_se),
        predicted_improvement=bool(margin > 0),
    )


def prop1_check(cases, sample_count, seed):
    """Check the single-removal improvement condition on random point sets.

    Each case draws 2-5 positives and 3-9 negatives from
    :func:`example_mixture_model` and a point to remove whose class keeps
    another member.  A removal whose predicted margin exceeds five standard
    errors is checked by estimating GM with and without the point on fresh
    probes, and confirmed when GM rises.  Returns ``(confirmed, checked)``
    once ``cases`` removals have been checked.
    """
    model = example_mixture_model()
    rng = np.random.default_rng(seed)
    checked = confirmed = 0
    while checked < cases:
        n_pos = int(rng.integers(2, 6))
        n_neg = int(rng.integers(3, 10))
        draw = np.random.default_rng(int(rng.integers(0, 2**31)))
        pts = np.vstack([model.positive.sample(n_pos, draw),
                         model.negative.sample(n_neg, draw)])
        labels = np.array([1] * n_pos + [0] * n_neg)
        i = int(rng.integers(0, len(labels)))
        if np.sum(labels == labels[i]) < 2:
            continue
        ra = removal_analysis(pts, labels, i, model, sample_count=sample_count,
                              seed=int(rng.integers(0, 2**31)))
        if ra.margin <= 5 * ra.margin_se:
            continue
        checked += 1
        g_before, _ = asymptotic_gm(pts, labels, model, sample_count=sample_count,
                                    seed=int(rng.integers(0, 2**31)))
        kept = np.delete(np.arange(len(labels)), i)
        g_after, _ = asymptotic_gm(pts[kept], labels[kept], model,
                                   sample_count=sample_count,
                                   seed=int(rng.integers(0, 2**31)))
        confirmed += int(g_after > g_before)
    return confirmed, checked


# ---------------------------------------------------------------------------
# Exhaustive subset search

def exhaustive_search(points, labels, model: DensityModel, sample_count=2000,
                      seed=0, max_points=20):
    """Evaluate every reference subset (both classes present, size >= 2) by
    asymptotic GM under one shared probe sample (common random numbers).

    Returns ``(per_cardinality, best)`` where ``per_cardinality[k]`` is the
    best ``(subset, gm)`` of size ``k`` and ``best`` the global optimum.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    labels = np.asarray(labels)
    n = points.shape[0]
    if n > max_points:
        raise ValueError(
            f"{n} points means 2^{n} subsets; use random_edit for sets this large"
        )
    Xp, Xn = _class_probes(model, sample_count, seed)
    index_p = NeighbourIndex(points, queries=Xp)
    index_n = NeighbourIndex(points, queries=Xn)

    per_cardinality = {}
    best_subset, best_gm = None, -1.0
    for k in range(2, n + 1):
        k_best, k_gm = None, -1.0
        for comb in itertools.combinations(range(n), k):
            cols = np.array(comb)
            lab = labels[cols]
            if not (np.any(lab == 1) and np.any(lab == 0)):
                continue
            pred_p = labels[index_p.nearest(cols)]
            pred_n = labels[index_n.nearest(cols)]
            g = math.sqrt(np.mean(pred_p == 1) * np.mean(pred_n == 0))
            if g > k_gm:
                k_gm, k_best = g, cols
        if k_best is not None:
            per_cardinality[k] = (k_best, k_gm)
            if k_gm > best_gm:
                best_gm, best_subset = k_gm, k_best
    return per_cardinality, (best_subset, best_gm)


def search_nonmonotone_pointset(seed, n_pos=5, n_neg=10, sample_count=2000,
                                max_tries=200):
    """Rejection-sample 15-point labelled sets from :func:`nonmonotone_example`'s
    model until the exhaustive per-cardinality best-GM curve both beats the
    full set and wiggles (>= 2 sign changes in its difference sequence).

    Returns ``(points, labels, draw_seed)``; the recorded example pins the
    draw seed this search produced.
    """
    model = example_mixture_model()
    rng_outer = np.random.default_rng(seed)
    for _ in range(max_tries):
        draw_seed = int(rng_outer.integers(0, 2**31))
        rng = np.random.default_rng(draw_seed)
        pts = np.vstack([
            model.positive.sample(n_pos, rng),
            model.negative.sample(n_neg, rng),
        ])
        labels = np.array([1] * n_pos + [0] * n_neg)
        per_card, (best, best_gm) = exhaustive_search(
            pts, labels, model, sample_count=sample_count, seed=0
        )
        curve = [per_card[k][1] for k in sorted(per_card)]
        full_gm = per_card[len(labels)][1]
        diffs = np.diff(curve)
        signs = np.sign(diffs[diffs != 0])
        changes = int(np.sum(signs[1:] != signs[:-1]))
        if best_gm > full_gm + 0.01 and changes >= 2:
            return pts, labels, draw_seed
    raise RuntimeError("no qualifying point set found; increase max_tries")


# Pinned by running search_nonmonotone_pointset(seed=7), which returns this
# draw seed as its third value; call it again to regenerate it.
_NONMONOTONE_DRAW_SEED = 1763574599


def nonmonotone_example():
    """The recorded 15-point 2D set whose best-GM-per-cardinality curve is
    non-monotonic and beats the full set.  Returns ``(points, labels, model)``."""
    model = example_mixture_model()
    rng = np.random.default_rng(_NONMONOTONE_DRAW_SEED)
    pts = np.vstack([model.positive.sample(5, rng), model.negative.sample(10, rng)])
    labels = np.array([1] * 5 + [0] * 10)
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
    X = np.vstack([
        model.positive.sample(n_pos, rng),
        model.negative.sample(n - n_pos, rng),
    ])
    y = np.array([1] * n_pos + [0] * (n - n_pos))
    perm = rng.permutation(n)
    return X[perm], y[perm]


def _gm_of_predictions(y, pred) -> float:
    p = np.mean(pred[y == 1] == 1)
    q = np.mean(pred[y == 0] == 0)
    return math.sqrt(p * q)


def cb_bb_demo(model: DensityModel | None = None, n_neg_train=4000,
               n_pos_train=(300, 200), test_size=9000, seed=0,
               re_cardinality=25, re_trials=10_000, include_re=True):
    """Compare classical Bayes, balanced Bayes and (optionally) random editing
    on the imbalanced Gaussian-mixture example.

    Training data is used only by random editing; CB and BB classify straight
    from the densities.  GM is estimated on a fresh test sample drawn from the
    joint distribution.  Returns a dict with keys ``cb``, ``bb`` and, when
    requested, ``re``.
    """
    model = model or example_mixture_model()
    rng = np.random.default_rng(seed)
    X_test, y_test = _sample_joint(model, test_size, rng)
    out = {
        "cb": _gm_of_predictions(y_test, bayes_classify(model, X_test)),
        "bb": _gm_of_predictions(y_test, bayes_classify(model, X_test, balanced=True)),
    }
    if include_re:
        # draw the positive training sample component by component so the
        # stated per-component counts are honoured exactly
        if isinstance(n_pos_train, (tuple, list)):
            parts = []
            for (w, mean, var), c in zip(model.positive.components, n_pos_train):
                parts.append(mean + rng.standard_normal((c, 2)) * np.sqrt(var))
            X_pos = np.vstack(parts)
        else:
            X_pos = model.positive.sample(n_pos_train, rng)
        X_neg = model.negative.sample(n_neg_train, rng)
        X_train = np.vstack([X_pos, X_neg])
        y_train = np.array([1] * X_pos.shape[0] + [0] * X_neg.shape[0])
        ref = random_edit(X_train, y_train, M=re_cardinality, T=re_trials,
                          seed=int(rng.integers(0, 2**31)))
        pred = classify_1nn(X_train, y_train, ref, X_test)
        out["re"] = _gm_of_predictions(y_test, pred)
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
    """
    if not isinstance(cfg, dict):
        import yaml

        with open(cfg) as fh:
            cfg = yaml.safe_load(fh)

    def build(side):
        kind = side["type"]
        if kind == "piecewise_uniform":
            return PiecewiseUniform1D([tuple(s) for s in side["segments"]])
        if kind == "gaussian_mixture":
            return GaussianMixture2D([tuple(c) for c in side["components"]])
        raise ValueError(f"unknown density type {kind!r}")

    return DensityModel(
        positive=build(cfg["positive"]),
        negative=build(cfg["negative"]),
        prior_positive=float(cfg["prior_positive"]),
    )
