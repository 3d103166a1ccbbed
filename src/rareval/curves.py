"""Threshold sweeps: precision-recall and ROC curves, AUC, operating points.

A sweep enumerates only the distinct observed scores (descending) plus the
all-negative extreme; no interpolation is performed, and precision at the
all-negative extreme is undefined rather than interpolated. One sweep serves
both the PR and the ROC curve. Weighted tallies are used when the dataset has
an enrichment design. A sweep is one :class:`Curve` of numpy columns; the
hull, AUC, operating point and CSV read those columns, and
``curve[i]`` builds a :class:`CurvePoint` only where a single point is
wanted. Reports embed only a bounded part of a sweep (:func:`report_points`):
the vertices of its upper ROC convex hull plus the run's operating point.

The module also emits structured rare-event suitability warnings: composite
summaries like AUC and F1 integrate over operating regions that carry no
consequence when positives are rare, and enriched test sets make naive
precision optimistic. The warnings read the dataset, not a sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import datamodel
from .datamodel import POSITIVE, Dataset, _chunks
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
        return slot_fields(self) | {"threshold": None if self.threshold == float("inf") else self.threshold}


@dataclass(frozen=True, slots=True, eq=False)
class Curve:
    """A threshold sweep as read-only columns, in sweep order.

    The all-negative point (threshold ``inf``) comes first, then thresholds
    descend. ``precision`` is NaN where it is undefined. ``curve[i]`` is the
    i-th :class:`CurvePoint`, with ``precision=None`` there.
    """

    threshold: np.ndarray
    recall: np.ndarray
    precision: np.ndarray
    specificity: np.ndarray
    fpr: np.ndarray
    predicted_positive_count: np.ndarray

    def __post_init__(self):
        for array in slot_fields(self).values():
            array.flags.writeable = False

    def __len__(self) -> int:
        return self.threshold.size

    def __getitem__(self, i: int) -> CurvePoint:
        row = {name: column[i].item() for name, column in slot_fields(self).items()}
        if math.isnan(row["precision"]):
            row["precision"] = None
        return CurvePoint(**row)


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


def pr_curve(dataset: Dataset) -> Curve:
    """Threshold sweep over all distinct scores plus the all-negative extreme.

    One sweep serves both curves: precision against recall, and (as
    ``roc_curve``) recall against fpr = 1 - specificity.
    """
    cols = dataset.columns
    labeled = np.flatnonzero(cols.evaluable)
    scores = datamodel.scores_of(dataset, labeled, "curves need a fully scored dataset")
    labeled = labeled[np.argsort(-scores, kind="stable")]  # descending score
    scores, positive, weights = cols.score[labeled], cols.reference[labeled] == POSITIVE, cols.weight[labeled]
    if positive.all() or not positive.any():
        raise InputError("curves need at least one positive and one negative control")

    # index of the last case at each distinct score (cumulative counts there
    # are the tallies for threshold == that score under the >= convention);
    # the leading zero tallies are the all-negative point. The totals are the
    # last running sums, so the all-positive point is exactly recall 1, fpr 1.
    last_of_score = np.flatnonzero(np.diff(scores, append=-np.inf) != 0.0)
    tp = np.concatenate(([0.0], np.cumsum(np.where(positive, weights, 0.0))[last_of_score]))
    fp = np.concatenate(([0.0], np.cumsum(np.where(positive, 0.0, weights))[last_of_score]))
    total_pos, total_neg = tp[-1], fp[-1]
    with np.errstate(invalid="ignore"):  # 0/0 at the all-negative point
        precision = tp / (tp + fp)
    return Curve(
        threshold=np.concatenate(([np.inf], scores[last_of_score])),
        recall=tp / total_pos,
        precision=precision,
        specificity=(total_neg - fp) / total_neg,
        fpr=fp / total_neg,
        predicted_positive_count=np.concatenate(([0], last_of_score + 1)),
    )


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


def report_points(curve: Curve, threshold: float | None) -> list[CurvePoint]:
    """The bounded part of a sweep that reports embed, in sweep order.

    The vertices of the upper ROC convex hull plus the run's operating point:
    the point at the smallest observed score >= ``threshold`` (``inf`` selects
    the all-negative point, as does a threshold no score reaches); None when
    the run's predictions came with the data. Every point is observed; PR
    points are never interpolated (Davis & Goadrich 2006).
    """
    keep = hull_indices(curve.fpr, curve.recall).tolist()
    if threshold is not None:
        # thresholds descend from inf, so those >= threshold are a prefix
        keep = sorted({*keep, np.count_nonzero(curve.threshold >= threshold) - 1})
    return [curve[i] for i in keep]


def auc(curve: Curve) -> float:
    """Trapezoidal area under the ROC curve.

    Equals the probability that a random positive control outranks a random
    negative control, counting ties as one half. fpr never falls along a
    sweep, so the points are already in fpr order.
    """
    if len(curve) < 2:
        raise InputError("AUC needs a curve with at least 2 points")
    return float(np.trapezoid(curve.recall, curve.fpr))


def expected_cost(point: CurvePoint | Curve, costs: CostSpec, assumed_prevalence: float) -> float | np.ndarray:
    """Expected per-case cost at the assumed deployment prevalence: a float, or an array for a Curve."""
    return (
        costs.cost_fn * assumed_prevalence * (1.0 - point.recall)
        + costs.cost_fp * (1.0 - assumed_prevalence) * point.fpr
    )


def select_operating_point(curve: Curve, costs: CostSpec, assumed_prevalence: float) -> CurvePoint:
    """Curve point minimizing expected cost; ties resolve to the lower fpr, then the earlier point.

    The objective uses the assumed deployment prevalence, not the test-set
    prevalence, so the chosen threshold reflects real-world error costs.
    """
    if not curve:
        raise InputError("cannot select an operating point on an empty curve")
    if not (0.0 < assumed_prevalence < 1.0):
        raise InputError("assumed_prevalence must be in (0, 1)")
    # lexsort is stable and sorts by its last key first
    return curve[np.lexsort((curve.fpr, expected_cost(curve, costs, assumed_prevalence)))[0]]


def prevalence_of(dataset: Dataset) -> float | None:
    """The test-set prevalence: the labelled cases' positive share, design-weighted; None without a labelled case."""
    cols, labeled = dataset.columns, dataset.columns.evaluable  # weights add one at a time, as in the sweep's tallies
    positives, negatives = np.bincount(cols.reference[labeled], cols.weight[labeled], minlength=2).tolist()
    return positives / (positives + negatives) if positives + negatives else None


def rare_event_warnings(
    dataset: Dataset,
    assumed_prevalence: float | None,
    auc_requested: bool = False,
    f1_requested: bool = False,
    costs_provided: bool = False,
    config: WarningConfig | None = None,
) -> list[RareEventWarning]:
    """Rare-event suitability warnings; enrichment compares :func:`prevalence_of` with the assumed prevalence."""
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

    test_prev = prevalence_of(dataset)
    if (
        assumed_prevalence is not None
        and test_prev is not None
        and assumed_prevalence > 0
        and test_prev / assumed_prevalence > cfg.enrichment_ratio_threshold
    ):
        ratio = test_prev / assumed_prevalence
        share, consequence = (
            ("design-weighted test-set", "precision-style estimates are optimistic for deployment") if dataset.weighted
            else ("test-set", "unweighted precision-style estimates are optimistic"))
        warnings.append(
            RareEventWarning(
                code="enrichment_optimism",
                message=(
                    f"{share} prevalence {test_prev:g} is {ratio:.1f}x the assumed deployment "
                    f"prevalence {assumed_prevalence:g}; {consequence}"
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


def curve_csv_chunks(curve: Curve) -> Iterator[bytes]:
    """Plot-ready CSV as UTF-8 chunks: the header, then ``_CHUNK_ROWS`` sweep points at a time.

    Columns: threshold, recall, precision, specificity, fpr, count. Values are
    ``repr`` strings (``inf`` for the all-negative threshold, an empty field
    for undefined precision); lines end in CRLF.
    """
    columns = slot_fields(curve)
    yield (",".join(columns) + "\r\n").encode("utf-8")
    for rows in _chunks(len(curve)):
        text = {name: _reprs(column[rows]) for name, column in columns.items()}
        text["precision"][np.isnan(curve.precision[rows])] = ""
        lines = map(",".join, zip(*(column.tolist() for column in text.values())))
        yield ("\r\n".join(lines) + "\r\n").encode("utf-8")


def _reprs(values: np.ndarray) -> np.ndarray:
    """``repr`` of every value, made once per run of equal adjacent values.

    Values compare by bit pattern, so 0.0 and -0.0 never merge and NaN needs
    no special case. Every sweep column but precision is monotone.
    """
    bits = values.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    text = np.array(list(map(repr, values[starts].tolist())), dtype=object)
    return np.repeat(text, np.diff(starts, append=values.size))
