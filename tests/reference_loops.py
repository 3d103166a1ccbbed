"""Per-case reference implementations for the differential tests.

These are the case-by-case loops that the column view of ``Dataset``
replaced: each walks ``dataset.cases`` and looks weights up in the design.
The point-by-point sweep readers (``curve_to_csv``, ``auc``,
``select_operating_point``) walk a list of ``CurvePoint`` the same way.
The per-row ingest at the end (``ingest`` and the ``Dataset`` checks it
ends with) builds one ``EvaluationCase`` per row, as ingest did before the
columns became the dataset's storage. They stay here, outside the package,
as the oracle the vectorised paths are compared against.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

from rareval.curves import CostSpec, CurvePoint
from rareval.datamodel import Dataset, EvaluationCase, ReferenceLabel, StratumSpec, _load_sidecar
from rareval.errors import IngestError, InputError
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


# --- per-row ingest ------------------------------------------------------------

_TRUE = {"1", "true"}
_FALSE = {"0", "false"}


def _parse_bool(text: str, *, row: int, fieldname: str) -> bool:
    lowered = text.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise IngestError([f"row {row}: field {fieldname!r}: expected a binary label, got {text!r}"])


def _case_from_record(record: dict, *, row: int, problems: list[str]) -> EvaluationCase | None:
    def fail(msg: str) -> None:
        problems.append(f"row {row}: {msg}")

    if "case_id" not in record or not str(record["case_id"]).strip():
        fail("field 'case_id': missing")
        return None
    if "reference" not in record:
        fail("field 'reference': missing")
        return None
    try:
        reference = ReferenceLabel.parse(str(record["reference"]))
    except InputError as exc:
        fail(f"field 'reference': {exc}")
        return None

    score = record.get("score")
    if score is not None:
        try:
            score = float(score)
        except (TypeError, ValueError):
            fail(f"field 'score': not a real number: {record['score']!r}")
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

    for fieldname in ("predicted", "benchmark_predicted"):
        value = record.get(fieldname)
        if value is not None and not isinstance(value, bool):
            fail(f"field {fieldname!r}: expected a boolean")
            return None

    try:
        return EvaluationCase(
            case_id=str(record["case_id"]),
            reference=reference,
            score=score,
            predicted=record.get("predicted"),
            benchmark_predicted=record.get("benchmark_predicted"),
            stratum_id=record.get("stratum_id"),
            subgroups={str(k): str(v) for k, v in subgroups.items()},
            repeated_labels=repeated,
        )
    except InputError as exc:
        fail(str(exc))
        return None


def _ingest_csv_rows(path: Path, problems: list[str]) -> list[tuple[int, EvaluationCase]]:
    cases: list[tuple[int, EvaluationCase]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError([f"{path}: empty file"]) from None
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
        for row_number, row in enumerate(reader, start=2):
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


def _ingest_jsonl_rows(path: Path, problems: list[str]) -> list[tuple[int, EvaluationCase]]:
    cases: list[tuple[int, EvaluationCase]] = []
    with open(path, encoding="utf-8") as fh:
        for row_number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"row {row_number}: invalid JSON: {exc.msg}")
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
