"""Threshold sweeps: precision-recall and ROC curves, AUC, operating points.

Curves enumerate only the distinct observed scores (descending) plus the
all-negative extreme; no interpolation is performed, and precision at the
all-negative extreme is undefined rather than interpolated. PR and ROC
points come from the same sweep, so they share recall sequences. Weighted
tallies are used when the dataset has an enrichment design. Reports embed
only a bounded part of a sweep (:func:`report_points`): the vertices of its
upper ROC convex hull plus the run's operating point.

The module also emits structured rare-event suitability warnings: composite
summaries like AUC and F1 integrate over operating regions that carry no
consequence when positives are rare, and enriched test sets make naive
precision optimistic.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .datamodel import POSITIVE, Dataset
from .errors import InputError
from .provenance import slot_fields


@dataclass(frozen=True, slots=True)
class CurvePoint:
    """One operating point of a threshold sweep (predicted = score >= threshold)."""

    threshold: float
    recall: float
    precision: float | None
    specificity: float
    fpr: float
    predicted_positive_count: int

    def to_json_dict(self) -> dict:
        return {
            "threshold": None if self.threshold == float("inf") else self.threshold,
            "recall": self.recall,
            "precision": self.precision,
            "specificity": self.specificity,
            "fpr": self.fpr,
            "predicted_positive_count": self.predicted_positive_count,
        }


@dataclass(frozen=True, slots=True)
class CostSpec:
    """Relative costs of the two error types."""

    cost_fp: float
    cost_fn: float

    def __post_init__(self):
        if self.cost_fp <= 0 or self.cost_fn <= 0:
            raise InputError("error costs must be strictly positive")


@dataclass(frozen=True, slots=True)
class RareEventWarning:
    code: str
    message: str
    details: dict = field(default_factory=dict)

    to_json_dict = slot_fields


@dataclass(frozen=True, slots=True)
class WarningConfig:
    """Overridable thresholds for the suitability warnings."""

    auc_prevalence_threshold: float = 0.01
    enrichment_ratio_threshold: float = 10.0


def pr_curve(dataset: Dataset) -> list[CurvePoint]:
    """Threshold sweep over all distinct scores plus the all-negative extreme.

    One sweep serves both curves: precision against recall, and (as
    ``roc_curve``) recall against fpr = 1 - specificity.
    """
    cols = dataset.columns
    labeled = np.flatnonzero(cols.evaluable)
    unscored = np.flatnonzero(np.isnan(cols.score[labeled]))
    if unscored.size:
        missing = dataset.cases[labeled[unscored[0]]].case_id
        raise InputError(f"case {missing!r} has no score; curves need a fully scored dataset")
    labeled = labeled[np.argsort(-cols.score[labeled], kind="stable")]  # descending score
    scores, positive, weights = cols.score[labeled], cols.reference[labeled] == POSITIVE, cols.weight[labeled]
    if positive.all() or not positive.any():
        raise InputError("curves need at least one positive and one negative control")

    total_pos = float(weights[positive].sum())
    total_neg = float(weights[~positive].sum())

    cum_tp = np.cumsum(np.where(positive, weights, 0.0))
    cum_fp = np.cumsum(np.where(positive, 0.0, weights))

    # index of the last case at each distinct score (cumulative counts there
    # are the tallies for threshold == that score under the >= convention)
    last_of_score = np.flatnonzero(np.diff(scores, append=-np.inf) != 0.0)

    points = [
        CurvePoint(
            threshold=float("inf"),
            recall=0.0,
            precision=None,
            specificity=1.0,
            fpr=0.0,
            predicted_positive_count=0,
        )
    ]
    for idx in last_of_score:
        tp = float(cum_tp[idx])
        fp = float(cum_fp[idx])
        fn = total_pos - tp
        tn = total_neg - fp
        points.append(
            CurvePoint(
                threshold=float(scores[idx]),
                recall=tp / total_pos,
                precision=tp / (tp + fp) if tp + fp > 0 else None,
                specificity=tn / total_neg,
                fpr=fp / total_neg,
                predicted_positive_count=int(idx) + 1,
            )
        )
    return points


roc_curve = pr_curve


def hull_indices(fpr: np.ndarray, recall: np.ndarray) -> np.ndarray:
    """Sweep indices of the vertices of the upper ROC convex hull, in sweep order.

    ``fpr`` and ``recall`` are the coordinates of a sweep (both non-decreasing).
    The hull holds every operating point that minimises expected cost for some
    cost ratio and prevalence (Fawcett 2006); the first and last points are
    always vertices. Any other vertex is a top-left corner of the staircase:
    recall rose into it and fpr rises out of it. The monotone-chain scan runs
    over those corners only, at most one per distinct score held by a positive.
    """
    corner = np.ones(fpr.size, dtype=bool)
    corner[1:-1] = (recall[1:-1] > recall[:-2]) & (fpr[2:] > fpr[1:-1])
    candidates = np.flatnonzero(corner)
    xs, ys = fpr[candidates].tolist(), recall[candidates].tolist()
    hull: list[int] = []
    for i in range(len(candidates)):
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            # keep a only if it lies strictly above the chord from o to i
            if (xs[a] - xs[o]) * (ys[i] - ys[o]) < (ys[a] - ys[o]) * (xs[i] - xs[o]):
                break
            hull.pop()
        hull.append(i)
    return candidates[hull]


def report_points(curve: list[CurvePoint], threshold: float | None) -> list[CurvePoint]:
    """The bounded part of a sweep that reports embed, in sweep order.

    The vertices of the upper ROC convex hull plus the run's operating point:
    the point at the smallest observed score >= ``threshold`` (``inf`` selects
    the all-negative point, as does a threshold no score reaches); None when
    the run's predictions came with the data. Every point is observed; PR
    points are never interpolated (Davis & Goadrich 2006).
    """
    n = len(curve)
    fpr = np.fromiter((p.fpr for p in curve), float, n)
    recall = np.fromiter((p.recall for p in curve), float, n)
    keep = hull_indices(fpr, recall)
    if threshold is not None:
        # thresholds descend from inf, so those >= threshold are a prefix
        thresholds = np.fromiter((p.threshold for p in curve), float, n)
        keep = np.union1d(keep, [np.count_nonzero(thresholds >= threshold) - 1])
    return [curve[i] for i in keep.tolist()]


def auc(curve: list[CurvePoint]) -> float:
    """Trapezoidal area under the ROC curve.

    Equals the probability that a random positive control outranks a random
    negative control, counting ties as one half.
    """
    if len(curve) < 2:
        raise InputError("AUC needs a curve with at least 2 points")
    fpr = np.array([p.fpr for p in curve], dtype=float)
    rec = np.array([p.recall for p in curve], dtype=float)
    order = np.argsort(fpr, kind="stable")
    fpr = fpr[order]
    rec = rec[order]
    return float(np.trapezoid(rec, fpr))


def expected_cost(point: CurvePoint, costs: CostSpec, assumed_prevalence: float) -> float:
    """Expected per-case cost at the assumed deployment prevalence."""
    return (
        costs.cost_fn * assumed_prevalence * (1.0 - point.recall)
        + costs.cost_fp * (1.0 - assumed_prevalence) * point.fpr
    )


def select_operating_point(
    curve: list[CurvePoint], costs: CostSpec, assumed_prevalence: float
) -> CurvePoint:
    """Curve point minimizing expected cost; ties resolve to the lower fpr.

    The objective uses the assumed deployment prevalence, not the test-set
    prevalence, so the chosen threshold reflects real-world error costs.
    """
    if not curve:
        raise InputError("cannot select an operating point on an empty curve")
    if not (0.0 < assumed_prevalence < 1.0):
        raise InputError("assumed_prevalence must be in (0, 1)")
    return min(curve, key=lambda p: (expected_cost(p, costs, assumed_prevalence), p.fpr))


def test_set_prevalence_from_curve(curve: list[CurvePoint]) -> float | None:
    """Prevalence among labeled cases (precision of the all-positive point)."""
    full = max(curve, key=lambda p: p.predicted_positive_count)
    if full.recall < 1.0:
        return None
    return full.precision


def rare_event_warnings(
    curve: list[CurvePoint],
    assumed_prevalence: float | None,
    auc_requested: bool = False,
    f1_requested: bool = False,
    costs_provided: bool = False,
    config: WarningConfig | None = None,
) -> list[RareEventWarning]:
    """Structured warnings about metric suitability in a rare-event setting."""
    cfg = config or WarningConfig()
    warnings: list[RareEventWarning] = []

    if auc_requested and assumed_prevalence is not None and assumed_prevalence < cfg.auc_prevalence_threshold:
        warnings.append(
            RareEventWarning(
                code="auc_low_prevalence",
                message=(
                    "AUC summarizes the whole specificity range; at deployment prevalence "
                    f"{assumed_prevalence:g} almost all of that range has no operational consequence"
                ),
                details={
                    "assumed_prevalence": assumed_prevalence,
                    "threshold": cfg.auc_prevalence_threshold,
                },
            )
        )

    test_prev = test_set_prevalence_from_curve(curve)
    if (
        assumed_prevalence is not None
        and test_prev is not None
        and assumed_prevalence > 0
        and test_prev / assumed_prevalence > cfg.enrichment_ratio_threshold
    ):
        ratio = test_prev / assumed_prevalence
        warnings.append(
            RareEventWarning(
                code="enrichment_optimism",
                message=(
                    f"test-set prevalence {test_prev:g} is {ratio:.1f}x the assumed deployment "
                    f"prevalence {assumed_prevalence:g}; unweighted precision-style estimates are optimistic"
                ),
                details={
                    "test_set_prevalence": test_prev,
                    "assumed_prevalence": assumed_prevalence,
                    "ratio": ratio,
                    "threshold": cfg.enrichment_ratio_threshold,
                },
            )
        )

    if f1_requested and not costs_provided:
        warnings.append(
            RareEventWarning(
                code="f1_without_costs",
                message=(
                    "F-scores assume equal error costs; provide a cost specification or justify "
                    "the equal-cost assumption"
                ),
                details={},
            )
        )
    return warnings


def curve_to_csv(curve: list[CurvePoint]) -> str:
    """Plot-ready CSV: threshold, recall, precision, specificity, fpr, count."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["threshold", "recall", "precision", "specificity", "fpr", "predicted_positive_count"])
    for p in curve:
        writer.writerow(
            [
                "inf" if p.threshold == float("inf") else repr(p.threshold),
                repr(p.recall),
                "" if p.precision is None else repr(p.precision),
                repr(p.specificity),
                repr(p.fpr),
                p.predicted_positive_count,
            ]
        )
    return buf.getvalue()
