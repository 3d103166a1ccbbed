"""Per-case reference implementations for the differential tests.

These are the case-by-case loops that the column view of ``Dataset``
replaced: each walks ``dataset.cases`` and looks weights up in the design.
The point-by-point sweep readers (``curve_to_csv``, ``auc``,
``select_operating_point``) walk a list of ``CurvePoint`` the same way.
The per-row ingest (``ingest`` and the ``Dataset`` checks it ends with)
builds one ``EvaluationCase`` per row, as ingest did before the columns
became the dataset's storage; it states the case rules itself
(``case_problem``), since a case is a plain record. The per-case consumers
at the end (subset breakdown, stability, SCLE sampling, review sheet and
verdicts, synth and emit) are the case loops those modules ran before they
read columns. They stay here, outside the package, as the oracle the
vectorised paths are compared against. The scipy formulas for the size-study mid-p test and the
chi-squared tail are the oracle for the closed forms that replaced them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings as _warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np

from rareval import metrics, robustness, scle, synth
from rareval.curves import CostSpec, CurvePoint
from rareval.datamodel import (
    DESIGN_SIDECAR_SUFFIX,
    Dataset,
    EvaluationCase,
    ReferenceLabel,
    StratumSpec,
    _load_sidecar,
    confusion_cells,
)
from rareval.errors import IngestError, InfeasibleError, InputError
from rareval.provenance import canonical_json, derive_seed, replicate_rng


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
    cum_tp = np.cumsum(np.where(positive, weights, 0.0))
    cum_fp = np.cumsum(np.where(positive, 0.0, weights))
    total_pos, total_neg = float(cum_tp[-1]), float(cum_fp[-1])  # the sweep ends at exactly (1, 1)
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


def curve_to_csv(points: list[CurvePoint]) -> str:
    """One ``csv.writer`` row per sweep point."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["threshold", "recall", "precision", "specificity", "fpr", "predicted_positive_count"])
    for p in points:
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


def auc(points: list[CurvePoint]) -> float:
    """Trapezoid over the points sorted (stably) by fpr."""
    fpr = np.array([p.fpr for p in points], dtype=float)
    rec = np.array([p.recall for p in points], dtype=float)
    order = np.argsort(fpr, kind="stable")
    return float(np.trapezoid(rec[order], fpr[order]))


def expected_cost(point: CurvePoint, costs: CostSpec, assumed_prevalence: float) -> float:
    return (
        costs.cost_fn * assumed_prevalence * (1.0 - point.recall)
        + costs.cost_fp * (1.0 - assumed_prevalence) * point.fpr
    )


def select_operating_point(points: list[CurvePoint], costs: CostSpec, assumed_prevalence: float) -> CurvePoint:
    """The first point of least (expected cost, fpr)."""
    return min(points, key=lambda p: (expected_cost(p, costs, assumed_prevalence), p.fpr))


def precision_at_k_tally(dataset: Dataset, k: int) -> tuple[float, float, int, bool, float, list[EvaluationCase]]:
    """(tp, fp, unlabeled, ties_straddle_cut, threshold, cases) of the top k, the cases in rank order."""
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
    return tp, fp, unlabeled, ties_straddle, cut_score, top


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


def disagreement_midp(xa, na, xb, nb) -> np.ndarray:
    """Two-sided hypergeometric mid-p of each disagreement table, from scipy."""
    from scipy.stats import hypergeom

    xa, na, xb, nb = (np.asarray(v, dtype=np.int64) for v in (xa, na, xb, nb))
    t = xa + xb
    with np.errstate(invalid="ignore"):
        pmf = hypergeom.pmf(xa, na + nb, t, na)
        lower = hypergeom.cdf(xa, na + nb, t, na) - 0.5 * pmf
        upper = hypergeom.sf(xa, na + nb, t, na) + 0.5 * pmf
    p = np.minimum(1.0, 2.0 * np.minimum(lower, upper))
    return np.where((t == 0) | (na == 0) | (nb == 0), 1.0, p)


def exact_disagreement_midp(xa: int, na: int, xb: int, nb: int) -> float:
    """The same mid-p in 50-digit decimal arithmetic over the whole support.

    scipy's hypergeometric cdf loses about 1e-11 relative on supports of 10^5
    points; this walks the weight ratio recurrence exactly enough to judge it.
    """
    t = xa + xb
    if t == 0 or na == 0 or nb == 0:
        return 1.0
    lo = max(0, t - nb)
    with localcontext() as ctx:
        ctx.prec = 50
        w, below, at, above = Decimal(1), Decimal(0), Decimal(0), Decimal(0)
        for k in range(lo, min(na, t) + 1):
            if k > lo:
                w = w * ((na - k + 1) * (t - k + 1)) / (k * (nb - t + k))
            if k < xa:
                below += w
            elif k == xa:
                at = w
            else:
                above += w
        return float(min(Decimal(1), (2 * min(below, above) + at) / (below + at + above)))


def chi2_sf(x, df):
    """Upper tail of the chi-squared distribution, from scipy (broadcasts)."""
    from scipy.stats import chi2

    return chi2.sf(x, df)


# --- per-row ingest ------------------------------------------------------------

_TEXT = (str, int, float)  # the JSON values a case id or subgroup value reads as text
_TRUE = {"1", "true"}
_FALSE = {"0", "false"}


def _parse_bool(text: str, *, row: int, fieldname: str) -> bool:
    lowered = text.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise IngestError([f"row {row}: field {fieldname!r}: expected a binary label, got {text!r}"])


def _shown(value) -> str:
    """A JSON value as a message shows it: a string as ``repr`` quotes it, anything else as JSON text."""
    return repr(value) if isinstance(value, str) else json.dumps(value)


def case_problem(case_id: str, score: float | None, predicted: bool | None, repeated_labels) -> str | None:
    """The first rule a case's values break, None when they keep them all."""
    if score is None and predicted is None:
        return f"case {case_id!r}: needs a score or a predicted label"
    if score is not None and not math.isfinite(score):
        return f"case {case_id!r}: score must be finite"
    if repeated_labels is not None and len(repeated_labels) == 0:
        return f"case {case_id!r}: repeated_labels must be non-empty when present"
    return None


def _case_from_record(record: dict, *, row: int, problems: list[str]) -> EvaluationCase | None:
    def fail(msg: str) -> None:
        problems.append(f"row {row}: {msg}")

    case_id = record.get("case_id")  # numbers read as text; null is no id
    if case_id is None or type(case_id) in _TEXT and not str(case_id).strip():
        fail("field 'case_id': missing")
        return None
    if type(case_id) not in _TEXT:
        fail("field 'case_id': expected a string or a number")
        return None
    if "reference" not in record:
        fail("field 'reference': missing")
        return None
    try:
        reference = ReferenceLabel.parse(record["reference"])
    except InputError as exc:
        fail(f"field 'reference': {exc}")
        return None

    score = record.get("score")
    if score is not None:
        try:
            score = float(score)
        except OverflowError:  # an integer beyond float range is infinite, as its text is
            score = math.inf if score > 0 else -math.inf
        except (TypeError, ValueError):
            fail(f"field 'score': not a real number: {_shown(record['score'])}")
            return None

    repeated = record.get("repeated_labels")
    if repeated is not None:
        if not isinstance(repeated, (list, tuple)) or not all(isinstance(x, bool) for x in repeated):
            fail("field 'repeated_labels': expected a list of booleans")
            return None
        repeated = tuple(repeated)

    subgroups = record.get("subgroups") or {}
    if not isinstance(subgroups, dict):
        fail("field 'subgroups': expected an object")
        return None
    for name, value in subgroups.items():  # numbers read as text; null is no value
        if value is not None and type(value) not in _TEXT:
            fail(f"field 'subgroups': expected a string, a number or null for {name!r}")
            return None
    if record.get("stratum_id") is not None and not isinstance(record["stratum_id"], str):
        fail("field 'stratum_id': expected a string")
        return None

    for fieldname in ("predicted", "benchmark_predicted"):
        value = record.get(fieldname)
        if value is not None and not isinstance(value, bool):
            fail(f"field {fieldname!r}: expected a boolean")
            return None

    problem = case_problem(str(case_id), score, record.get("predicted"), repeated)
    if problem is not None:
        fail(problem)
        return None
    return EvaluationCase(
        case_id=str(case_id),
        reference=reference,
        score=score,
        predicted=record.get("predicted"),
        benchmark_predicted=record.get("benchmark_predicted"),
        stratum_id=record.get("stratum_id"),
        subgroups={str(k): str(v) for k, v in subgroups.items() if v is not None},
        repeated_labels=repeated,
    )


def _ingest_csv_rows(path: Path, problems: list[str]) -> list[tuple[int, EvaluationCase]]:
    cases: list[tuple[int, EvaluationCase]] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        numbered = []  # (file line the row ends on, row), without blank lines or lines of only whitespace
        for row in reader:
            if row and not (len(row) == 1 and row[0].isspace()):
                numbered.append((reader.line_num, row))
        if not numbered:
            raise IngestError([f"{path}: empty file"])
        header = numbered[0][1]
        required = {"case_id", "reference"}
        missing = required - set(header)
        if missing:
            raise IngestError([f"{path}: header missing required column(s): {sorted(missing)}"])
        run_cols = [c for c in header if c.startswith("run_")]
        try:
            run_cols.sort(key=lambda c: int(c[4:]))
        except ValueError:
            raise IngestError(
                [f"{path}: repeated-run columns need a run number after 'run_': {run_cols}"]
            ) from None
        sg_cols = [c for c in header if c.startswith("sg_")]
        for row_number, row in numbered[1:]:
            if len(row) != len(header):
                problems.append(f"row {row_number}: expected {len(header)} fields, got {len(row)}")
                continue
            raw = dict(zip(header, row))
            record: dict = {"case_id": raw.get("case_id", "")}
            record["reference"] = raw.get("reference", "")
            if raw.get("score", "") != "":
                record["score"] = raw["score"]
            try:
                for fieldname in ("predicted", "benchmark_predicted"):
                    if raw.get(fieldname, "") != "":
                        record[fieldname] = _parse_bool(raw[fieldname], row=row_number, fieldname=fieldname)
                runs = []
                for col in run_cols:
                    if raw.get(col, "") != "":
                        runs.append(_parse_bool(raw[col], row=row_number, fieldname=col))
                if runs:
                    record["repeated_labels"] = runs
            except IngestError as exc:
                problems.extend(exc.problems)
                continue
            if raw.get("stratum_id", "") != "":
                record["stratum_id"] = raw["stratum_id"]
            subgroups = {c[3:]: raw[c] for c in sg_cols if raw[c] != ""}
            if subgroups:
                record["subgroups"] = subgroups
            case = _case_from_record(record, row=row_number, problems=problems)
            if case is not None:
                cases.append((row_number, case))
    return cases


def _finite_number(text: str) -> float:
    """A JSON float or constant as strict parsers read it: NaN, (-)Infinity and a float beyond range are not JSON."""
    if not math.isfinite(value := float(text)):
        raise ValueError(f"non-finite JSON number {text}")
    return value


def _ingest_jsonl_rows(path: Path, problems: list[str]) -> list[tuple[int, EvaluationCase]]:
    cases: list[tuple[int, EvaluationCase]] = []
    with open(path, encoding="utf-8-sig") as fh:
        for row_number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line, parse_float=_finite_number, parse_constant=_finite_number)
            except json.JSONDecodeError as exc:
                problems.append(f"row {row_number}: invalid JSON: {exc.msg}")
                continue
            except (ValueError, RecursionError) as exc:  # a non-finite number; too many digits; too deep a nesting
                problems.append(f"row {row_number}: invalid JSON: {exc}")
                continue
            if not isinstance(record, dict):
                problems.append(f"row {row_number}: expected a JSON object")
                continue
            if record.get("kind") == "truth_sidecar":
                raise IngestError(
                    [f"row {row_number}: this is a truth sidecar (oracle data), not an evaluation input"]
                )
            case = _case_from_record(record, row=row_number, problems=problems)
            if case is not None:
                cases.append((row_number, case))
    return cases


def check_dataset(cases: tuple[EvaluationCase, ...], design: tuple[StratumSpec, ...]) -> None:
    """The case-by-case checks ``Dataset(cases, design)`` made, in their order."""
    for i, case in enumerate(cases):
        problem = case_problem(case.case_id, case.score, case.predicted, case.repeated_labels)
        if problem is not None:
            raise InputError(f"row {i + 1}: {problem}")
    seen: dict[str, int] = {}
    for i, case in enumerate(cases):
        if case.case_id in seen:
            raise InputError(
                f"duplicate case_id {case.case_id!r} (rows {seen[case.case_id] + 1} and {i + 1})"
            )
        seen[case.case_id] = i

    with_stratum = [c for c in cases if c.stratum_id is not None]
    if with_stratum and len(with_stratum) != len(cases):
        missing = next(c.case_id for c in cases if c.stratum_id is None)
        raise InputError(
            f"mixed design: case {missing!r} has no stratum_id while other cases do"
        )
    design_ids = {s.stratum_id for s in design}
    if len(design_ids) != len(design):
        raise InputError("design contains duplicate stratum_id entries")
    for c in with_stratum:
        if c.stratum_id not in design_ids:
            raise InputError(f"case {c.case_id!r} references unknown stratum_id {c.stratum_id!r}")
    if design and not with_stratum and cases:
        raise InputError("a design is present but no case carries a stratum_id")


def ingest(path: str | Path, format: str = "csv") -> tuple[tuple[EvaluationCase, ...], tuple, dict]:
    """(cases, design, metadata) of a file read row by row; raises as ``datamodel.ingest`` did."""
    path = Path(path)
    with open(path, encoding="utf-8", errors="replace") as fh:
        head = fh.read(256)
    if '"kind"' in head and "truth_sidecar" in head:
        raise InputError(f"{path}: this is a truth sidecar (oracle data), not an evaluation input")
    problems: list[str] = []
    numbered = (_ingest_csv_rows if format == "csv" else _ingest_jsonl_rows)(path, problems)
    seen: dict[str, int] = {}
    for row_number, case in numbered:
        if case.case_id in seen:
            problems.append(
                f"duplicate case_id {case.case_id!r} (rows {seen[case.case_id]} and {row_number})"
            )
        else:
            seen[case.case_id] = row_number
    if problems:
        raise IngestError(problems)

    design, metadata = _load_sidecar(path)
    cases = tuple(case for _, case in numbered)
    try:
        check_dataset(cases, design)
    except InputError as exc:
        raise IngestError([str(exc)]) from None
    return cases, design, metadata


# --- per-case consumers ----------------------------------------------------------


def subset_metrics(dataset, attribute, names=("recall", "precision", "specificity"), alpha=0.05,
                   n_permutations=2000, seed=0, ci_level=0.95) -> robustness.SubsetReport:
    """One re-checked ``Dataset`` per category, rebuilt from its cases."""
    for m in names:
        if m not in metrics.PROPORTION_METRICS:
            raise InputError(f"unknown metric {m!r} (expected one of {metrics.PROPORTION_METRICS})")
    evaluable = [c for c in dataset.cases if c.evaluable]
    if not evaluable:
        raise InputError("dataset has no evaluable cases")
    if not any(attribute in c.subgroups for c in dataset.cases):
        raise InputError(f"attribute {attribute!r} is absent from every case")

    groups: dict[str, list] = {}
    for case in evaluable:
        groups.setdefault(case.subgroups.get(attribute, "unknown"), []).append(case)

    categories: dict[str, dict] = {}
    table = np.zeros((2, len(groups)), dtype=float)
    for j, category in enumerate(sorted(groups)):
        cases = groups[category]
        sub = dataset.replace_cases(cases)
        counts = metrics.confusion(sub)
        ests = {
            m: metrics.estimate_metric(sub, m, ci_level=ci_level, seed=derive_seed(seed, f"subset:{category}"))
            for m in names
        }
        categories[category] = {"n": len(cases), "counts": counts, "metrics": ests}
        errors = np.count_nonzero(np.isin(confusion_cells(sub), (1, 2)))  # FP, FN
        table[:, j] = len(cases) - errors, errors

    heterogeneity = robustness._heterogeneity_screen(table, alpha, n_permutations, seed)
    return robustness.SubsetReport(attribute, categories, heterogeneity, len(evaluable))


def stability(dataset: Dataset) -> robustness.StabilityReport:
    """Per-case tallies; the mean pairwise agreement is summed as an exact fraction."""
    cases = [c for c in dataset.cases if c.reference is not ReferenceLabel.EXCLUDED]
    if not cases:
        raise InputError("dataset has no cases with repeated labels")
    run_counts = set()
    for case in cases:
        if case.repeated_labels is None:
            raise InputError(f"case {case.case_id!r} has no repeated_labels")
        run_counts.add(len(case.repeated_labels))
    if len(run_counts) != 1:
        raise InputError(f"unequal run counts across cases: {sorted(run_counts)}")
    n_runs = run_counts.pop()
    if n_runs < 2:
        raise InputError("stability needs at least 2 runs per case")

    unanimous = 0
    agreement = Fraction(0)
    flip_counts: dict[str, int] = {}
    pair_total = n_runs * (n_runs - 1) // 2
    for case in cases:
        ones = sum(case.repeated_labels)
        zeros = n_runs - ones
        if ones == 0 or zeros == 0:
            unanimous += 1
        else:
            flip_counts[case.case_id] = min(ones, zeros)
        agreement += Fraction(ones * (ones - 1) // 2 + zeros * (zeros - 1) // 2, pair_total)
    return robustness.StabilityReport(
        n_runs=n_runs,
        n_cases=len(cases),
        unanimity_rate=unanimous / len(cases),
        pairwise_agreement=float(agreement / len(cases)),
        flip_counts=flip_counts,
    )


def _benchmark_cell_of(case: EvaluationCase) -> str:
    m = "+" if case.predicted else "-"
    b = "+" if case.benchmark_predicted else "-"
    return f"model{m}/benchmark{b}"


def _effective_threshold(dataset: Dataset) -> float | None:
    positives = [c.score for c in dataset.cases if c.predicted and c.score is not None]
    return min(positives) if positives else None


def _boundary_bin(rank: int, n: int, bins: int) -> int:
    return min(bins - 1, rank * bins // n)


def _distance_ranks(population: list[EvaluationCase], threshold: float | None) -> dict[str, int]:
    t = threshold if threshold is not None else 0.0
    ordered = sorted(population, key=lambda c: (abs((c.score or 0.0) - t), c.case_id))
    return {c.case_id: i for i, c in enumerate(ordered)}


def _sample_cell(population, requested, config, ranks, rng) -> list[EvaluationCase]:
    strata: dict[tuple, list[EvaluationCase]] = {}
    for case in population:
        key_parts: list = [case.subgroups.get(a, "unknown") for a in config.substratify_by]
        if config.boundary_bins is not None:
            key_parts.append(_boundary_bin(ranks[case.case_id], len(population), config.boundary_bins))
        strata.setdefault(tuple(key_parts), []).append(case)

    keys = sorted(strata.keys())
    sizes = [len(strata[k]) for k in keys]
    alloc = scle._largest_remainder(requested, sizes, keys)

    if config.boundary_bins is not None and requested >= 1:
        top_bin = max(k[-1] for k in keys)
        top_idx = [i for i, k in enumerate(keys) if k[-1] == top_bin]
        if top_idx and all(alloc[i] == 0 for i in top_idx):
            donor = max(
                (i for i in range(len(keys)) if alloc[i] > 0),
                key=lambda i: (alloc[i], keys[i]),
                default=None,
            )
            if donor is not None:
                alloc[donor] -= 1
                alloc[top_idx[0]] += 1

    chosen: list[EvaluationCase] = []
    for key, take in zip(keys, alloc):
        if take == 0:
            continue
        group = strata[key]
        idx = rng.choice(len(group), size=take, replace=False)
        chosen.extend(group[int(i)] for i in sorted(idx))
    return chosen


def draw_sample(dataset: Dataset, config: scle.ScleConfig) -> scle.ScleSample:
    """Cell populations as lists of cases, ranked and stratified case by case."""
    cells = confusion_cells(dataset)
    evaluable = [dataset.cases[i] for i in np.flatnonzero(cells >= 0)]
    cell_of = {c.case_id: ("TP", "FP", "FN", "TN")[k] for c, k in zip(evaluable, cells[cells >= 0])}
    if config.benchmark_mode:
        for case in evaluable:
            if case.benchmark_predicted is None:
                raise InputError(f"benchmark_mode requires benchmark labels; case {case.case_id!r} has none")
    if config.boundary_bins is not None and any(c.score is None for c in evaluable):
        missing = next(c.case_id for c in evaluable if c.score is None)
        raise InputError(f"case {missing!r} has no score; boundary_bins requires scored cases")
    for attr in config.substratify_by:
        if not any(attr in c.subgroups for c in dataset.cases):
            raise InputError(f"attribute {attr!r} is absent from every case")

    if config.benchmark_mode:
        cell_names: tuple[str, ...] = scle.BENCHMARK_CELLS
        targets = scle._benchmark_targets(config)
    else:
        cell_names = scle.CELLS
        targets = {"FP": config.n_fp, "FN": config.n_fn, "TP": config.n_tp, "TN": config.n_tn}

    populations: dict[str, list[EvaluationCase]] = {name: [] for name in cell_names}
    for case in evaluable:
        populations[_benchmark_cell_of(case) if config.benchmark_mode else cell_of[case.case_id]].append(case)

    threshold = _effective_threshold(dataset) if config.boundary_bins is not None else None
    rng = replicate_rng(derive_seed(config.seed, "scle"), 0)
    rows: list[scle.ScleRow] = []
    sample_sizes: dict[str, int] = {}
    shortfalls: dict[str, tuple[int, int]] = {}
    for cell in cell_names:
        requested = targets[cell]
        population = populations[cell]
        pop_size = len(population)
        if requested == 0:
            sample_sizes[cell] = 0
            continue
        ranks = _distance_ranks(population, threshold) if config.boundary_bins is not None else None
        if pop_size <= requested:
            chosen = list(population)
            if pop_size < requested:
                shortfalls[cell] = (requested, pop_size)
                _warnings.warn(f"cell {cell}: only {pop_size} of {requested} requested cases available", stacklevel=2)
        else:
            chosen = _sample_cell(population, requested, config, ranks, rng)
        sample_sizes[cell] = len(chosen)
        weight = float(np.sum([case_weight(dataset, c) for c in population])) / len(chosen) if chosen else 0.0
        for case in chosen:
            strata = {attr: case.subgroups.get(attr, "unknown") for attr in config.substratify_by}
            if ranks is not None:
                strata["boundary_bin"] = f"bin_{_boundary_bin(ranks[case.case_id], pop_size, config.boundary_bins)}"
            rows.append(scle.ScleRow(
                case_id=case.case_id,
                cell=cell_of[case.case_id],
                benchmark_cell=_benchmark_cell_of(case) if config.benchmark_mode else None,
                strata=strata,
                sampling_weight=weight,
            ))
    return scle.ScleSample(
        rows=tuple(rows),
        config=config,
        seed=config.seed,
        cell_population_sizes={c: len(populations[c]) for c in cell_names},
        cell_sample_sizes=sample_sizes,
        shortfalls=shortfalls,
    )


def emit_review_sheet(sample, dataset, context_fields=(), path="review_sheet.csv", generated_at=None) -> Path:
    """Context columns looked up case by case in an id -> case dict."""
    by_id = {c.case_id: c for c in dataset.cases}
    known_subgroups = {name for c in dataset.cases for name in c.subgroups}
    metadata = dataset.metadata
    for fieldname in context_fields:
        if fieldname not in known_subgroups and fieldname not in metadata and fieldname not in ("score", "stratum_id"):
            raise InputError(f"unknown context field {fieldname!r}")
    header = ["case_id", "cell", "benchmark_cell", *context_fields, *scle.SHEET_COLUMNS_FIXED]
    repeated = [column for column in header if header.count(column) > 1]
    if repeated:
        raise InputError(f"context fields repeat review sheet column(s): {repeated}")
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# seed: {sample.seed}\n")
        fh.write(f"# config_hash: {sample.config_hash}\n")
        fh.write(f"# generated_at: {generated_at or 'unspecified'}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in sample.rows:
            case = by_id.get(row.case_id)
            if case is None:
                raise InputError(f"sampled case {row.case_id!r} is not in the dataset")
            context = []
            for fieldname in context_fields:
                if fieldname == "score":
                    context.append("" if case.score is None else repr(case.score))
                elif fieldname == "stratum_id":
                    context.append(case.stratum_id or "")
                elif fieldname in case.subgroups:
                    context.append(case.subgroups[fieldname])
                else:
                    context.append(str(metadata.get(fieldname, "")))
            writer.writerow([row.case_id, row.cell, row.benchmark_cell or "", *context]
                            + [""] * len(scle.SHEET_COLUMNS_FIXED))
    return path


def apply_verdicts(dataset: Dataset, annotations) -> Dataset:
    """A new ``Dataset`` of rebuilt cases, one per changed reference label; one verdict per case."""
    verdicts = {}
    for a in annotations:
        if a.verdict is None:
            continue
        if a.case_id in verdicts and verdicts[a.case_id] is not a.verdict:
            raise InputError(f"conflicting verdicts for case {a.case_id!r}")
        verdicts[a.case_id] = a.verdict
    unknown = set(verdicts) - {c.case_id for c in dataset.cases}
    if unknown:
        raise InputError(f"verdicts for unknown case ids: {sorted(unknown)}")
    new_cases = []
    for case in dataset.cases:
        verdict = verdicts.get(case.case_id)
        if verdict is None or verdict is case.reference:
            new_cases.append(case)
            continue
        new_cases.append(EvaluationCase(
            case_id=case.case_id,
            reference=verdict,
            score=case.score,
            predicted=case.predicted,
            benchmark_predicted=case.benchmark_predicted,
            stratum_id=case.stratum_id,
            subgroups=case.subgroups,
            repeated_labels=case.repeated_labels,
        ))
    metadata = dataset.metadata
    metadata["verdicts_applied"] = metadata.get("verdicts_applied", 0) + len(verdicts)
    return Dataset(new_cases, dataset.design, metadata)


def generate(spec: synth.PopulationSpec) -> synth.SynthResult:
    """The same draws as ``synth.generate``, kept rows built as one ``EvaluationCase`` each."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    if spec.exact_positive_count:
        k = int(round(spec.prevalence * n))
        truth = np.zeros(n, dtype=bool)
        truth[rng.permutation(n)[:k]] = True
    else:
        truth = rng.random(n) < spec.prevalence
    latent = rng.normal(loc=0.0, scale=spec.spread, size=n)
    latent = latent + np.where(truth, spec.separation / 2.0, -spec.separation / 2.0)
    scores = 1.0 / (1.0 + np.exp(-latent))
    reference = truth.copy()
    if spec.label_noise > 0:
        reference ^= rng.random(n) < spec.label_noise
    runs = None
    if spec.n_runs is not None:
        runs = truth[:, None] ^ (rng.random((n, spec.n_runs)) < spec.flip_probability)
    sidecar = synth.TruthSidecar(scores, truth)

    keep = np.ones(n, dtype=bool)
    strata = None
    design: tuple[StratumSpec, ...] = ()
    if spec.enrichment:
        strata = np.full(n, synth.REST_STRATUM_ID, dtype=object)
        assigned = np.zeros(n, dtype=bool)
        specs = []
        for rule in spec.enrichment:
            matches = (truth if rule.select == "positive" else ~truth) & ~assigned
            if not matches.any():
                raise InfeasibleError(
                    f"enrichment stratum {rule.stratum_id!r} is empty: no {rule.select} cases to select"
                )
            strata[matches] = rule.stratum_id
            assigned |= matches
            specs.append(StratumSpec(
                stratum_id=rule.stratum_id,
                inclusion_probability=rule.inclusion_probability,
                description=f"{rule.select} cases kept with probability {rule.inclusion_probability}",
            ))
            keep[matches] &= rng.random(int(matches.sum())) < rule.inclusion_probability
        if not assigned.all():
            specs.append(StratumSpec(synth.REST_STRATUM_ID, 1.0, "all remaining cases"))
        design = tuple(specs)

    width = max(6, len(str(n)))
    cases = [
        EvaluationCase(
            case_id=f"case-{i:0{width}d}",
            reference=ReferenceLabel.POSITIVE if reference[i] else ReferenceLabel.NEGATIVE,
            score=float(scores[i]),
            stratum_id=str(strata[i]) if strata is not None else None,
            repeated_labels=tuple(bool(b) for b in runs[i]) if runs is not None else None,
        )
        for i in np.flatnonzero(keep)
    ]
    dataset = Dataset(cases, design, {"generator": "rareval.synth", "seed": spec.seed})
    return synth.SynthResult(dataset=dataset, truth=sidecar, population_size=n)


def _case_to_record(case: EvaluationCase) -> dict:
    record: dict = {"case_id": case.case_id, "reference": case.reference.value}
    if case.score is not None:
        record["score"] = case.score
    if case.predicted is not None:
        record["predicted"] = case.predicted
    if case.benchmark_predicted is not None:
        record["benchmark_predicted"] = case.benchmark_predicted
    if case.stratum_id is not None:
        record["stratum_id"] = case.stratum_id
    if case.subgroups:
        record["subgroups"] = dict(sorted(case.subgroups.items()))
    if case.repeated_labels is not None:
        record["repeated_labels"] = list(case.repeated_labels)
    return record


def emit(dataset: Dataset, path, format: str = "csv") -> list[Path]:
    """One CSV row or JSON record per case, formatted field by field."""
    path = Path(path)
    flag = {True: "1", False: "0"}
    if format == "csv":
        sg_names = sorted({name for c in dataset.cases for name in c.subgroups})
        n_runs = max((len(c.repeated_labels) for c in dataset.cases if c.repeated_labels), default=0)
        header = ["case_id", "reference", "score", "predicted", "benchmark_predicted", "stratum_id"]
        header += [f"sg_{name}" for name in sg_names] + [f"run_{i + 1}" for i in range(n_runs)]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for case in dataset.cases:
                runs = case.repeated_labels or ()
                writer.writerow([
                    case.case_id,
                    case.reference.value,
                    "" if case.score is None else repr(float(case.score)),
                    flag.get(case.predicted, ""),
                    flag.get(case.benchmark_predicted, ""),
                    case.stratum_id or "",
                    *(case.subgroups.get(name, "") for name in sg_names),
                    *(flag[runs[i]] if i < len(runs) else "" for i in range(n_runs)),
                ])
    else:
        with open(path, "w", encoding="utf-8") as fh:
            for case in dataset.cases:
                fh.write(json.dumps(_case_to_record(case), sort_keys=True))
                fh.write("\n")
    written = [path]
    if dataset.design or dataset.metadata:
        sidecar = path.with_name(path.name + DESIGN_SIDECAR_SUFFIX)
        payload = {
            "kind": "dataset_design",
            "design": [
                {"stratum_id": s.stratum_id, "inclusion_probability": s.inclusion_probability,
                 "description": s.description}
                for s in dataset.design
            ],
            "metadata": dataset.metadata,
        }
        sidecar.write_text(canonical_json(payload), encoding="utf-8")
        written.append(sidecar)
    return written
