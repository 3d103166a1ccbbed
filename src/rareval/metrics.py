"""Point-and-interval estimation of core performance metrics.

Counts support inverse-probability weighting for enriched designs: with a
design attached, every case contributes weight 1/inclusion_probability to its
confusion cell (Horvitz-Thompson style), which removes the optimism that
enrichment otherwise injects into precision-like estimates.

Confidence intervals: Wilson score intervals for unweighted proportions; for
weighted designs use :func:`estimate_metric` / :func:`bootstrap_metric`,
which run a seeded nonparametric case-bootstrap (percentile interval,
2,000 resamples by default). Degenerate denominators yield ``None`` values,
never silent zeros or NaNs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Mapping

import numpy as np

from . import datamodel
from .datamodel import AMBIGUOUS, CELLS, EXCLUDED, NEGATIVE, POSITIVE, Dataset
from .errors import InputError
from .provenance import derive_seed, slot_fields

# metric -> (numerator cell, other denominator cell): the denominator is the
# numerator cell plus the other cell. Drives the public estimators, the
# bootstrap vectors and their n_effective.
_METRIC_CELLS = {
    "recall": ("tp", "fn"),
    "precision": ("tp", "fp"),
    "specificity": ("tn", "fp"),
    "npv": ("tn", "fn"),
}
PROPORTION_METRICS = tuple(_METRIC_CELLS)

DEFAULT_BOOTSTRAP_RESAMPLES = 2000


@dataclass(frozen=True, slots=True)
class ConfusionCounts:
    """TP/FP/FN/TN tallies; weighted sums when a design is present."""

    tp: float
    fp: float
    fn: float
    tn: float
    weighted: bool = False

    def __post_init__(self):
        for name in ("tp", "fp", "fn", "tn"):
            if getattr(self, name) < 0:
                raise InputError(f"confusion count {name} must be >= 0")

    @property
    def total(self) -> float:
        return self.tp + self.fp + self.fn + self.tn

    def scaled(self, factor: float) -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp * factor, self.fp * factor, self.fn * factor, self.tn * factor, weighted=True
        )


@dataclass(frozen=True, slots=True)
class MetricEstimate:
    """A proportion estimate with its confidence interval.

    ``value`` is None when the denominator is empty (undefined, not zero).
    ``n_effective`` is the denominator mass behind the estimate.
    """

    value: float | None
    ci_low: float | None
    ci_high: float | None
    ci_level: float = 0.95
    n_effective: float = 0.0
    weighted: bool = False

    @property
    def defined(self) -> bool:
        return self.value is not None

    def to_json_dict(self, metric: str) -> dict:
        return {"metric": metric, **slot_fields(self)}


def wilson_interval(successes: float, total: float, ci_level: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a proportion; behaves well near 0 and 1."""
    if total <= 0:
        return 0.0, 1.0
    z = NormalDist().inv_cdf(0.5 + ci_level / 2.0)
    phat = successes / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2.0 * total)) / denom
    half = z * math.sqrt((phat * (1.0 - phat) + z * z / (4.0 * total)) / total) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _proportion(successes: float, total: float, ci_level: float, weighted: bool) -> MetricEstimate:
    if total <= 0:
        return MetricEstimate(None, None, None, ci_level=ci_level, n_effective=0.0, weighted=weighted)
    lo, hi = wilson_interval(successes, total, ci_level)
    value = successes / total
    return MetricEstimate(
        value=value,
        ci_low=min(lo, value),
        ci_high=max(hi, value),
        ci_level=ci_level,
        n_effective=total,
        weighted=weighted,
    )


def confusion(dataset: Dataset) -> ConfusionCounts:
    """Cross-classify predictions against reference labels.

    Ambiguous and excluded cases never contribute. With a design, each case
    adds its inverse-probability weight to its cell and the result is flagged
    weighted.
    """
    cells = datamodel.confusion_cells(dataset)
    evaluable = cells >= 0
    # bincount adds the weights in case order, like a running sum
    sums = np.bincount(cells[evaluable], weights=dataset.columns.weight[evaluable], minlength=len(CELLS))
    return ConfusionCounts(*(float(x) for x in sums), weighted=dataset.weighted)


def _metric_cells(metric: str) -> tuple[str, str]:
    try:
        return _METRIC_CELLS[metric]
    except KeyError:
        raise InputError(f"unknown metric {metric!r} (expected one of {PROPORTION_METRICS})") from None


def metric_from_counts(counts: ConfusionCounts, metric: str, ci_level: float = 0.95) -> MetricEstimate:
    num_cell, other_cell = _metric_cells(metric)
    num = getattr(counts, num_cell)
    return _proportion(num, num + getattr(counts, other_cell), ci_level, counts.weighted)


def recall(counts: ConfusionCounts, ci_level: float = 0.95) -> MetricEstimate:
    """Proportion of positive controls predicted positive: tp / (tp + fn)."""
    return metric_from_counts(counts, "recall", ci_level)


def precision(counts: ConfusionCounts, ci_level: float = 0.95) -> MetricEstimate:
    """Proportion of predicted positives that are positive controls: tp / (tp + fp)."""
    return metric_from_counts(counts, "precision", ci_level)


def specificity(counts: ConfusionCounts, ci_level: float = 0.95) -> MetricEstimate:
    """Proportion of negative controls predicted negative: tn / (tn + fp)."""
    return metric_from_counts(counts, "specificity", ci_level)


def npv(counts: ConfusionCounts, ci_level: float = 0.95) -> MetricEstimate:
    """Proportion of predicted negatives that are negative controls: tn / (tn + fn)."""
    return metric_from_counts(counts, "npv", ci_level)


def f_beta(precision: float, recall: float, beta: float = 1.0) -> float | None:
    """Weighted harmonic mean of precision and recall.

    beta=1 is the plain F1. Undefined (None) when both inputs are zero; when
    exactly one is zero the score is 0, the formula's continuous limit.
    """
    if beta <= 0:
        raise InputError("beta must be > 0")
    for name, v in (("precision", precision), ("recall", recall)):
        if not (0.0 <= v <= 1.0):
            raise InputError(f"{name} must be in [0, 1], got {v}")
    if precision == 0.0 and recall == 0.0:
        return None
    b2 = beta * beta
    return (1.0 + b2) * precision * recall / (b2 * precision + recall)


def bayes_adjusted_precision(
    sensitivity: float, specificity: float, prevalence: float
) -> float | None:
    """Precision projected to an assumed deployment prevalence.

    se*pi / (se*pi + (1-sp)*(1-pi)): the probability a predicted positive is
    a true positive in a population with the given prevalence, by Bayes'
    rule. None when the denominator vanishes.
    """
    for name, v in (
        ("sensitivity", sensitivity),
        ("specificity", specificity),
        ("prevalence", prevalence),
    ):
        if not (0.0 <= v <= 1.0):
            raise InputError(f"{name} must be in [0, 1], got {v}")
    numerator = sensitivity * prevalence
    denominator = numerator + (1.0 - specificity) * (1.0 - prevalence)
    if denominator == 0.0:
        return None
    return numerator / denominator


@dataclass(frozen=True, slots=True)
class PrecisionAtK:
    """Precision over the k highest-scored cases.

    Ambiguous/excluded cases inside the top k are dropped from both numerator
    and denominator; their count is reported. ``ties_straddle_cut`` flags
    that the k-th score also occurs below the cut, where the deterministic
    case_id tie-break decided membership.
    """

    estimate: MetricEstimate
    k: int
    n_unlabeled_in_top_k: int
    ties_straddle_cut: bool
    threshold: float


def precision_at_k(dataset: Dataset, k: int, ci_level: float = 0.95) -> PrecisionAtK:
    """Precision at the highest threshold yielding k predicted positives.

    Cases are ranked by descending score; ties at the k-th score break by
    ascending case_id, deterministically. Weighted tallies are used when a
    design is present.
    """
    if k <= 0:
        raise InputError("k must be a positive integer")
    cols = dataset.columns
    scored = np.flatnonzero(cols.reference != EXCLUDED)
    scores = cols.score[scored]
    unscored = np.flatnonzero(np.isnan(scores))
    if unscored.size:
        missing = cols.case_id[scored[unscored[0]]]
        raise InputError(f"case {missing!r} has no score; precision@k needs a fully scored dataset")
    if k > len(scored):
        raise InputError(f"k={k} exceeds the {len(scored)} scorable cases")

    ranked = scored[np.lexsort((cols.case_id[scored], -scores))]
    top = ranked[:k]
    cut_score = float(cols.score[top[-1]])
    ties_straddle = k < len(ranked) and bool(cols.score[ranked[k]] == cut_score)

    reference = cols.reference[top]
    sums = np.bincount(reference, weights=cols.weight[top], minlength=NEGATIVE + 1)
    tp, fp = float(sums[POSITIVE]), float(sums[NEGATIVE])
    unlabeled = int(np.count_nonzero(reference == AMBIGUOUS))
    estimate = _proportion(tp, tp + fp, ci_level, dataset.weighted)
    return PrecisionAtK(
        estimate=estimate,
        k=k,
        n_unlabeled_in_top_k=unlabeled,
        ties_straddle_cut=ties_straddle,
        threshold=cut_score,
    )


def concordance_and_override(
    dataset: Dataset, human_labels: Mapping[str, bool]
) -> tuple[float, float]:
    """Decision concordance and override rate of a human-in-the-loop.

    Concordance is the fraction of human-labeled cases whose final decision
    equals the model prediction; override rate is its complement.
    """
    if not human_labels:
        raise InputError("human_labels is empty")
    predicted = dict(zip(dataset.columns.case_id.tolist(), dataset.columns.predicted.tolist()))
    agree = 0
    for case_id, decision in human_labels.items():
        model = predicted.get(case_id)
        if model is None:
            raise InputError(f"human label for unknown case_id {case_id!r}")
        if model < 0:
            raise InputError(f"case {case_id!r} has no model prediction")
        agree += int(bool(decision) == model)
    concordance = agree / len(human_labels)
    return concordance, 1.0 - concordance


# --- case bootstrap ---------------------------------------------------------


def _class_table(dataset: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse evaluable cases into (cell, weight) classes.

    Resampling n cases with replacement and retallying depends only on the
    class counts, so a multinomial draw over classes is exactly the
    nonparametric case bootstrap, at a fraction of the cost.
    """
    cells = datamodel.confusion_cells(dataset)
    evaluable = cells >= 0
    if not evaluable.any():
        raise InputError("dataset has no evaluable cases")
    cells = cells[evaluable]
    weights = dataset.columns.weight[evaluable]
    _, weight_code = np.unique(weights, return_inverse=True)
    _, first, counts = np.unique(weight_code * len(CELLS) + cells, return_index=True, return_counts=True)
    # classes in order of first appearance: the order fixes what each seeded multinomial draw means
    order = np.argsort(first)
    return counts[order].astype(float), weights[first[order]], cells[first[order]]


def _metric_vector(
    metric: str, draws: np.ndarray, weights: np.ndarray, cells: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (metric value, denominator) of class-count rows ``draws``."""
    num_cell, other_cell = (CELLS.index(c) for c in _metric_cells(metric))
    weighted = draws * weights
    num = weighted[:, cells == num_cell].sum(axis=1)
    den = num + weighted[:, cells == other_cell].sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return num / den, den


def bootstrap_metric(
    dataset: Dataset,
    metric: str,
    n_resamples: int = DEFAULT_BOOTSTRAP_RESAMPLES,
    ci_level: float = 0.95,
    seed: int = 0,
) -> MetricEstimate:
    """Seeded nonparametric case-bootstrap percentile interval.

    The point estimate and ``n_effective`` come from the full (weighted)
    class tallies that the resamples are drawn from; resamples with
    an undefined metric are dropped from the percentile computation.
    """
    counts, weights, cells = _class_table(dataset)
    n = int(counts.sum())
    points, dens = _metric_vector(metric, counts[None, :], weights, cells)
    point, n_effective = float(points[0]), float(dens[0])
    if not math.isfinite(point):
        return MetricEstimate(None, None, None, ci_level=ci_level, n_effective=0.0, weighted=dataset.weighted)

    rng = np.random.default_rng(derive_seed(seed, f"bootstrap:{metric}"))
    draws = rng.multinomial(n, counts / n, size=n_resamples).astype(float)
    values, _ = _metric_vector(metric, draws, weights, cells)
    values = values[np.isfinite(values)]
    if values.size == 0:
        lo, hi = 0.0, 1.0
    else:
        alpha = (1.0 - ci_level) / 2.0
        lo = float(np.quantile(values, alpha))
        hi = float(np.quantile(values, 1.0 - alpha))
    return MetricEstimate(
        value=point,
        ci_low=min(lo, point),
        ci_high=max(hi, point),
        ci_level=ci_level,
        n_effective=n_effective,
        weighted=dataset.weighted,
    )


def estimate_metric(
    dataset: Dataset,
    metric: str,
    ci_level: float = 0.95,
    seed: int = 0,
    n_resamples: int = DEFAULT_BOOTSTRAP_RESAMPLES,
) -> MetricEstimate:
    """Metric estimate with the interval appropriate to the design.

    Unweighted datasets get closed-form Wilson intervals; enriched designs
    get the seeded case-bootstrap, matching the weighted point estimator.
    """
    if dataset.weighted:
        return bootstrap_metric(dataset, metric, n_resamples=n_resamples, ci_level=ci_level, seed=seed)
    return metric_from_counts(confusion(dataset), metric, ci_level)
