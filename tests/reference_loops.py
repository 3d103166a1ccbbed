"""Per-case reference implementations for the differential tests.

These are the case-by-case loops that the column view of ``Dataset``
replaced: each walks ``dataset.cases`` and looks weights up in the design.
They stay here, outside the package, as the oracle the vectorised paths are
compared against.
"""

from __future__ import annotations

import numpy as np

from rareval.curves import CurvePoint
from rareval.datamodel import Dataset, EvaluationCase, ReferenceLabel
from rareval.errors import InputError
from rareval.provenance import replicate_rng


def case_weight(dataset: Dataset, case: EvaluationCase) -> float:
    """Inverse-probability weight by a linear scan of the design."""
    if not dataset.design:
        return 1.0
    for spec in dataset.design:
        if spec.stratum_id == case.stratum_id:
            return 1.0 / spec.inclusion_probability
    raise InputError(f"unknown stratum_id {case.stratum_id!r}")


def confusion_cell(case: EvaluationCase) -> str:
    if case.predicted is None:
        raise InputError(f"case {case.case_id!r} has no predicted label")
    positive = case.reference is ReferenceLabel.POSITIVE
    if case.predicted:
        return "tp" if positive else "fp"
    return "fn" if positive else "tn"


def confusion(dataset: Dataset) -> dict[str, float]:
    cells = {"tp": 0.0, "fp": 0.0, "fn": 0.0, "tn": 0.0}
    for case in dataset.cases:
        if case.evaluable:
            cells[confusion_cell(case)] += case_weight(dataset, case)
    return cells


def label_counts(dataset: Dataset) -> dict[str, int]:
    counts = {label.value: 0 for label in ReferenceLabel}
    for case in dataset.cases:
        counts[case.reference.value] += 1
    return counts


def class_table(dataset: Dataset) -> list[tuple[str, float, int]]:
    """(cell, weight, count) classes in order of first appearance."""
    classes: dict[tuple[str, float], int] = {}
    for case in dataset.cases:
        if not case.evaluable:
            continue
        key = (confusion_cell(case), case_weight(dataset, case))
        classes[key] = classes.get(key, 0) + 1
    if not classes:
        raise InputError("dataset has no evaluable cases")
    return [(cell, weight, count) for (cell, weight), count in classes.items()]


def pr_curve(dataset: Dataset) -> list[CurvePoint]:
    labeled = [c for c in dataset.cases if c.evaluable]
    if any(c.score is None for c in labeled):
        missing = next(c.case_id for c in labeled if c.score is None)
        raise InputError(f"case {missing!r} has no score; curves need a fully scored dataset")
    has_pos = any(c.reference is ReferenceLabel.POSITIVE for c in labeled)
    has_neg = any(c.reference is ReferenceLabel.NEGATIVE for c in labeled)
    if not has_pos or not has_neg:
        raise InputError("curves need at least one positive and one negative control")

    scores = np.array([c.score for c in labeled], dtype=float)
    positive = np.array([c.reference is ReferenceLabel.POSITIVE for c in labeled], dtype=bool)
    weights = np.array([case_weight(dataset, c) for c in labeled], dtype=float)
    order = np.argsort(-scores, kind="stable")
    scores, positive, weights = scores[order], positive[order], weights[order]
    total_pos = float(weights[positive].sum())
    total_neg = float(weights[~positive].sum())
    cum_tp = np.cumsum(np.where(positive, weights, 0.0))
    cum_fp = np.cumsum(np.where(positive, 0.0, weights))
    points = [CurvePoint(float("inf"), 0.0, None, 1.0, 0.0, 0)]
    for idx in np.flatnonzero(np.diff(scores, append=-np.inf) != 0.0):
        tp, fp = float(cum_tp[idx]), float(cum_fp[idx])
        points.append(
            CurvePoint(
                threshold=float(scores[idx]),
                recall=tp / total_pos,
                precision=tp / (tp + fp) if tp + fp > 0 else None,
                specificity=(total_neg - fp) / total_neg,
                fpr=fp / total_neg,
                predicted_positive_count=int(idx) + 1,
            )
        )
    return points


def precision_at_k_tally(dataset: Dataset, k: int) -> tuple[float, float, int, bool, float]:
    """(tp, fp, unlabeled, ties_straddle_cut, threshold) of the top k."""
    scored = [c for c in dataset.cases if c.reference is not ReferenceLabel.EXCLUDED]
    if any(c.score is None for c in scored):
        missing = next(c.case_id for c in scored if c.score is None)
        raise InputError(f"case {missing!r} has no score; precision@k needs a fully scored dataset")
    if k > len(scored):
        raise InputError(f"k={k} exceeds the {len(scored)} scorable cases")
    ranked = sorted(scored, key=lambda c: (-c.score, c.case_id))
    top = ranked[:k]
    cut_score = top[-1].score
    ties_straddle = k < len(ranked) and ranked[k].score == cut_score
    tp = fp = 0.0
    unlabeled = 0
    for case in top:
        if not case.evaluable:
            unlabeled += 1
            continue
        w = case_weight(dataset, case)
        if case.reference is ReferenceLabel.POSITIVE:
            tp += w
        else:
            fp += w
    return tp, fp, unlabeled, ties_straddle, cut_score


def subset_tallies(dataset: Dataset, attribute: str) -> dict[str, tuple[int, int]]:
    """category -> (n, errors) over the evaluable cases."""
    groups: dict[str, list] = {}
    for case in dataset.cases:
        if case.evaluable:
            groups.setdefault(case.subgroups.get(attribute, "unknown"), []).append(case)
    return {
        category: (len(cases), sum(1 for c in cases if confusion_cell(c) in ("fp", "fn")))
        for category, cases in groups.items()
    }


def _value(cells: dict[str, float], metric: str) -> float:
    num_cell, other_cell = {
        "recall": ("tp", "fn"),
        "precision": ("tp", "fp"),
        "specificity": ("tn", "fp"),
        "npv": ("tn", "fn"),
    }[metric]
    den = cells[num_cell] + cells[other_cell]
    return cells[num_cell] / den if den > 0 else float("nan")


def k_fold_values(dataset: Dataset, metric: str, k: int, derived_seed: int) -> list[float]:
    """Metric of each seeded fold, each fold tallied case by case in fold order."""
    evaluable = [c for c in dataset.cases if c.evaluable]
    order = replicate_rng(derived_seed, 0).permutation(len(evaluable))
    return [
        _value(confusion(dataset.replace_cases([evaluable[int(i)] for i in fold])), metric)
        for fold in np.array_split(order, k)
    ]


def stratum_counts(dataset: Dataset) -> list[int]:
    return [sum(1 for c in dataset.cases if c.stratum_id == s.stratum_id) for s in dataset.design]


def index_bootstrap(dataset: Dataset, metric: str, n: int, derived_seed: int) -> np.ndarray:
    """Case bootstrap by drawing n index vectors of the evaluable cases.

    Each resample is tallied from the per-case cells and weights; no copy of
    the dataset is built.
    """
    evaluable = [c for c in dataset.cases if c.evaluable]
    cell_code = {"tp": 0, "fp": 1, "fn": 2, "tn": 3}
    cells = np.array([cell_code[confusion_cell(c)] for c in evaluable])
    weights = np.array([case_weight(dataset, c) for c in evaluable])
    rng = replicate_rng(derived_seed, 0)
    values = []
    for _ in range(n):
        idx = rng.integers(0, len(evaluable), size=len(evaluable))
        sums = np.bincount(cells[idx], weights=weights[idx], minlength=4)
        values.append(_value(dict(zip(("tp", "fp", "fn", "tn"), sums)), metric))
    return np.array(values)


def permutation_p_value(table: np.ndarray, n_permutations: int, seed: int) -> float:
    """Monte Carlo p-value from permuting the full error-indicator vector.

    ``table`` is the 2 x k (not-error, error) x category count table.
    """
    nj = table.sum(axis=0)
    n = int(nj.sum())
    total_err = float(table[1].sum())
    expected = np.outer(table.sum(axis=1), nj) / n

    def stat(err_by_cat):
        observed = np.stack([nj - err_by_cat, err_by_cat])
        return float(((observed - expected) ** 2 / expected).sum())

    observed_stat = stat(table[1])
    categories = np.repeat(np.arange(table.shape[1]), nj.astype(int))
    errors = np.concatenate(
        [np.concatenate([np.ones(int(table[1, j])), np.zeros(int(table[0, j]))]) for j in range(table.shape[1])]
    )
    assert errors.sum() == total_err
    rng = np.random.default_rng(seed)
    count_ge = 0
    for _ in range(n_permutations):
        err_by_cat = np.bincount(categories, weights=rng.permutation(errors), minlength=table.shape[1])
        if stat(err_by_cat) >= observed_stat - 1e-12:
            count_ge += 1
    return (1 + count_ge) / (1 + n_permutations)
