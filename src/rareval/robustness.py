"""Subset breakdowns, stability of nondeterministic output, and resampling.

Global metrics can hide systematic failures inside subgroups, so
``subset_metrics`` breaks the standard estimates down by a case attribute
and screens whether errors cluster by category (chi-squared, switching to a
seeded permutation test when expected cells are small). ``stability``
summarizes label agreement across repeated runs of a nondeterministic
classifier. ``resampling_variability`` quantifies evaluation-set sampling
noise via bootstrap or k-fold splits of the evaluation set; it deliberately
does not retrain anything, so it measures evaluation variability, not
model-fitting variability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import datamodel
from . import metrics as metrics_mod  # subset_metrics has a parameter named metrics
from .datamodel import CELLS, EXCLUDED, FN, FP, UNKNOWN_CATEGORY, Dataset
from .errors import InfeasibleError, InputError
from .metrics import _case_bootstrap, _metric_vector
from .provenance import derive_seed, markdown_table, replicate_rng, slot_fields


@dataclass(frozen=True, slots=True)
class HeterogeneityResult:
    flagged: bool
    p_value: float
    test: str
    alpha: float

    to_json_dict = slot_fields
    test_name = property(lambda self: self.test)  # the name benchmarks/spans.py reads


@dataclass(slots=True)
class SubsetReport:
    """Per-category metric estimates plus an error-clustering screen."""

    attribute: str
    categories: dict  # category -> {"n": int, "counts": ConfusionCounts, "metrics": {name: MetricEstimate}}
    heterogeneity: HeterogeneityResult
    total_evaluable: int

    def to_json_dict(self) -> dict:
        return {
            "attribute": self.attribute,
            "total_evaluable": self.total_evaluable,
            "heterogeneity": self.heterogeneity.to_json_dict(),
            "categories": {
                category: {
                    "n": entry["n"],
                    "metrics": {
                        name: est.to_json_dict(name) for name, est in entry["metrics"].items()
                    },
                }
                for category, entry in self.categories.items()
            },
        }


def subsets_markdown(doc: dict) -> str:
    """Markdown of a subset report's JSON form; missing keys read as empty, as in a hand-edited document."""
    h = doc.get("heterogeneity") or {}
    categories = doc.get("categories") or {}
    metric_names = sorted({m for entry in categories.values() for m in entry.get("metrics", {})})
    rows = []
    for category in sorted(categories):
        ests = categories[category].get("metrics", {})
        values = [(ests.get(name) or {}).get("value") for name in metric_names]
        rows.append((category, categories[category].get("n"), *("-" if v is None else repr(v) for v in values)))
    return "\n".join([
        f"## Subset breakdown by `{doc.get('attribute')}`",
        "",
        f"Error-clustering screen: p={h.get('p_value')!r} ({h.get('test')}); "
        f"{'heterogeneity flagged' if h.get('flagged') else 'no heterogeneity flagged'} at alpha={h.get('alpha')}",
        "",
        *markdown_table(("category", "n", *metric_names), rows),
    ]) + "\n"


def _chi2_from_error_counts(err_by_cat: np.ndarray, nj: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """Pearson statistic of each row of per-category error counts.

    ``expected`` is the (not-error, error) x category table of expected
    counts, the same for every row because the margins are fixed.
    """
    observed = np.stack([nj - err_by_cat, err_by_cat], axis=-2)
    return ((observed - expected) ** 2 / expected).sum(axis=(-2, -1))


def _chi2_sf(x: float, df: int) -> float:
    """Upper tail probability of the chi-squared distribution with integer ``df``.

    Closed form: e^(-h) * sum of h^a / a! over a = 0, 1, .., df/2 - 1 for even
    df, and erfc(sqrt(h)) plus the same sum over a = 1/2, 3/2, .., df/2 - 1 for
    odd df, with h = x/2. Each term is exponentiated from its logarithm, so the
    sum does not underflow before the tail itself does.
    """
    h = x / 2.0
    if h <= 0.0:
        return 1.0
    head = math.erfc(math.sqrt(h)) if df % 2 else 0.0
    return head + math.fsum(
        math.exp(a * math.log(h) - h - math.lgamma(a + 1.0)) for a in (i + df % 2 / 2 for i in range(df // 2))
    )


def _heterogeneity_screen(
    table: np.ndarray, alpha: float, n_permutations: int, seed: int
) -> HeterogeneityResult:
    """Chi-squared screen of the error-indicator x category table.

    Falls back to a seeded Monte Carlo permutation p-value whenever any
    expected cell drops below 5, which is the norm for rare-event errors.
    With the category sizes and the error total fixed, permuting the error
    indicators over the cases gives multivariate hypergeometric error counts
    per category, so those counts are drawn directly.
    """
    table = table[:, table.sum(axis=0) > 0]
    if table.shape[1] < 2 or table.sum(axis=1).min() == 0:
        return HeterogeneityResult(False, 1.0, "degenerate (single category or no variation)", alpha)

    nj = table.sum(axis=0)
    expected = np.outer(table.sum(axis=1), nj) / nj.sum()
    chi2 = _chi2_from_error_counts(table[1], nj, expected)
    if expected.min() < 5:
        test = "permutation (Monte Carlo)"
        rng = replicate_rng(derive_seed(seed, "heterogeneity"), 0)
        draws = rng.multivariate_hypergeometric(nj.astype(np.int64), int(table[1].sum()), size=n_permutations)
        stats = _chi2_from_error_counts(draws, nj, expected)
        # permutations that tie the observed table up to summation order count as "at least as extreme"
        count_ge = int(np.count_nonzero(stats >= chi2 * (1.0 - 1e-12)))
        p_value = (1 + count_ge) / (1 + n_permutations)
    else:
        test = "chi-squared"
        p_value = _chi2_sf(chi2, table.shape[1] - 1)
    return HeterogeneityResult(p_value < alpha, p_value, test, alpha)


def subset_metrics(
    dataset: Dataset,
    attribute: str,
    metrics: Sequence[str] = ("recall", "precision", "specificity"),
    alpha: float = 0.05,
    n_permutations: int = 2000,
    seed: int = 0,
    ci_level: float = 0.95,
) -> SubsetReport:
    """Break the requested metrics down by one subgroup attribute.

    Cases missing the attribute form their own "unknown" category, so the
    categories always partition the evaluable cases. Each category is a row
    subset of the dataset; a subset of a valid dataset needs no checks of its own.
    """
    for m in metrics:
        metrics_mod._metric_cells(m)  # rejects an unknown name
    cols = dataset.columns
    evaluable = np.flatnonzero(cols.evaluable)
    if not evaluable.size:
        raise InputError("dataset has no evaluable cases")
    category_of = cols.categories_of(attribute, UNKNOWN_CATEGORY)[evaluable]  # merges with a category of that name

    names, group = np.unique(category_of, return_inverse=True)
    categories: dict[str, dict] = {}
    for j, category in enumerate(names.tolist()):
        rows = evaluable[group == j]
        sub = dataset._take(rows)
        counts = metrics_mod.confusion(sub)
        sub_seed = derive_seed(seed, f"subset:{category}")
        ests = {m: metrics_mod.estimate_metric(sub, m, ci_level=ci_level, seed=sub_seed) for m in metrics}
        categories[category] = {"n": rows.size, "counts": counts, "metrics": ests}

    errors = np.isin(datamodel.confusion_cells(dataset)[evaluable], (FP, FN))
    n_by_category = np.bincount(group, minlength=names.size)
    errors_by_category = np.bincount(group, weights=errors, minlength=names.size)
    table = np.stack([n_by_category - errors_by_category, errors_by_category])
    heterogeneity = _heterogeneity_screen(table, alpha, n_permutations, seed)
    return SubsetReport(
        attribute=attribute,
        categories=categories,
        heterogeneity=heterogeneity,
        total_evaluable=int(evaluable.size),
    )


@dataclass(frozen=True, slots=True)
class StabilityReport:
    """Label agreement across repeated executions."""

    n_runs: int
    n_cases: int
    unanimity_rate: float
    pairwise_agreement: float
    flip_counts: Mapping[str, int]

    to_json_dict = slot_fields


def stability(dataset: Dataset) -> StabilityReport:
    """Unanimity and mean pairwise agreement of repeated-run labels.

    Every non-excluded case must carry the same number of repeated labels
    (at least 2 runs). Reference labels play no role: stability is a
    property of the classifier's output alone. The agreement is the exact
    ratio of agreeing run pairs, an integer, to all run pairs of all cases.
    """
    cols = dataset.columns
    kept = np.flatnonzero(cols.reference != EXCLUDED)
    if not kept.size:
        raise InputError("dataset has no cases with repeated labels")
    runs = cols.runs[kept]
    counts = (runs >= 0).sum(axis=1)
    if not counts.all():
        raise InputError(f"case {cols.case_id[kept[np.argmin(counts)]]!r} has no repeated_labels")
    run_counts = sorted(set(counts.tolist()))  # np.unique would import numpy.ma
    if len(run_counts) != 1:
        raise InputError(f"unequal run counts across cases: {run_counts}")
    n_runs = run_counts[0]
    if n_runs < 2:
        raise InputError("stability needs at least 2 runs per case")

    ones = (runs == 1).sum(axis=1)
    zeros = n_runs - ones
    flips = np.minimum(ones, zeros)
    agreeing = int((ones * (ones - 1) // 2 + zeros * (zeros - 1) // 2).sum())
    split = np.flatnonzero(flips)
    return StabilityReport(
        n_runs=n_runs,
        n_cases=int(kept.size),
        unanimity_rate=int(kept.size - split.size) / kept.size,
        pairwise_agreement=agreeing / (n_runs * (n_runs - 1) // 2 * kept.size),  # one division, so exact
        flip_counts=dict(zip(cols.case_id[kept[split]].tolist(), flips[split].tolist())),
    )


@dataclass(slots=True)
class ResamplingSummary:
    """Distribution of a metric over evaluation-set resamples."""

    metric: str
    scheme: str
    n: int
    seed: int
    values: tuple[float, ...]
    mean: float
    std: float
    percentile_low: float
    percentile_high: float
    ci_level: float
    n_undefined: int

    def to_json_dict(self) -> dict:
        # a resample with an undefined metric is NaN here and null in JSON
        return {**slot_fields(self), "values": [v if math.isfinite(v) else None for v in self.values]}


def resampling_variability(
    dataset: Dataset,
    metric: str,
    scheme: str = "bootstrap",
    n: int = 200,
    seed: int = 0,
    ci_level: float = 0.95,
) -> ResamplingSummary:
    """Metric variability over bootstrap resamples or k-fold splits.

    Bootstrap draws n case-resamples of the evaluation set; k_fold computes
    the metric inside each of n seeded folds. Deterministic per seed.
    """
    metrics_mod._metric_cells(metric)  # rejects an unknown name
    if scheme == "bootstrap":
        _, arr = _case_bootstrap(dataset, metric, n, replicate_rng(derive_seed(seed, "resample-bootstrap"), 0))
    elif scheme == "k_fold":
        case_cells = datamodel.confusion_cells(dataset)
        evaluable = np.flatnonzero(case_cells >= 0)
        if not evaluable.size:
            raise InputError("dataset has no evaluable cases")
        if n > evaluable.size:
            raise InfeasibleError(f"k_fold with k={n} exceeds the {evaluable.size} evaluable cases")
        if n < 2:
            raise InputError("k_fold needs k >= 2")
        rng = replicate_rng(derive_seed(seed, "resample-kfold"), 0)
        folds = np.array_split(evaluable[rng.permutation(evaluable.size)], n)
        weight = dataset.columns.weight
        # one row per fold; bincount adds the fold's weights in fold order
        draws = np.array([np.bincount(case_cells[f], weights=weight[f], minlength=len(CELLS)) for f in folds])
        arr, _ = _metric_vector(metric, draws, np.ones(len(CELLS)), np.arange(len(CELLS)))
    else:
        raise InputError(f"unknown scheme {scheme!r} (expected 'bootstrap' or 'k_fold')")

    defined = arr[np.isfinite(arr)]
    n_undefined = int(arr.size - defined.size)
    if defined.size == 0:
        raise InfeasibleError(f"metric {metric!r} was undefined in every resample")
    low, high = metrics_mod.percentile_interval(defined, ci_level)
    return ResamplingSummary(
        metric=metric,
        scheme=scheme,
        n=n,
        seed=seed,
        values=tuple(float(v) for v in arr),
        mean=float(defined.mean()),
        std=float(defined.std(ddof=1)) if defined.size > 1 else 0.0,
        percentile_low=low,
        percentile_high=high,
        ci_level=ci_level,
        n_undefined=n_undefined,
    )

