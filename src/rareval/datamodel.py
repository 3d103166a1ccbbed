"""Core types, dataset container, and file ingestion for evaluation cases.

A :class:`Dataset` is an immutable collection of :class:`EvaluationCase`
records plus an optional enrichment design (per-stratum inclusion
probabilities) and free-form metadata. Datasets are read from and written to
CSV (RFC-4180) or JSONL; the design and metadata travel in a
``<path>.design.json`` sidecar so that a dataset round-trips through either
format without loss.

CSV column conventions: ``case_id, reference, score, predicted,
benchmark_predicted, stratum_id`` followed by subgroup columns prefixed
``sg_`` and repeated-run columns prefixed ``run_``. Booleans serialize as
``1``/``0``; missing values as the empty string; reals in full-precision
decimal.
"""

from __future__ import annotations

import csv
import enum
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import IngestError, InputError
from .provenance import canonical_json, slot_fields

DESIGN_SIDECAR_SUFFIX = ".design.json"


class ReferenceLabel(enum.Enum):
    """Reference standard for one case.

    POSITIVE and NEGATIVE are the annotated controls. AMBIGUOUS marks cases a
    reviewer could not settle; EXCLUDED marks cases deliberately set aside as
    a margin of error. Neither contributes to confusion counts, but ambiguous
    cases stay visible downstream (counts, review) while excluded cases are
    dropped from every derived output.
    """

    POSITIVE = "positive"
    NEGATIVE = "negative"
    AMBIGUOUS = "ambiguous"
    EXCLUDED = "excluded"

    @classmethod
    def parse(cls, text: str) -> "ReferenceLabel":
        try:
            return cls(text.strip().lower())
        except ValueError:
            allowed = ", ".join(m.value for m in cls)
            raise InputError(f"unknown reference label {text!r} (expected one of: {allowed})") from None


@dataclass(frozen=True, slots=True)
class EvaluationCase:
    """One evaluated data point.

    At least one of ``score`` (higher = more positive) and ``predicted`` must
    be present; ``repeated_labels``, when present, holds the binary labels of
    repeated executions of a nondeterministic classifier.
    """

    case_id: str
    reference: ReferenceLabel
    score: float | None = None
    predicted: bool | None = None
    benchmark_predicted: bool | None = None
    stratum_id: str | None = None
    subgroups: Mapping[str, str] = field(default_factory=dict)
    repeated_labels: tuple[bool, ...] | None = None

    def __post_init__(self):
        if self.score is None and self.predicted is None:
            raise InputError(f"case {self.case_id!r}: needs a score or a predicted label")
        if self.score is not None and not math.isfinite(self.score):
            raise InputError(f"case {self.case_id!r}: score must be finite")
        if self.repeated_labels is not None and len(self.repeated_labels) == 0:
            raise InputError(f"case {self.case_id!r}: repeated_labels must be non-empty when present")
        object.__setattr__(self, "subgroups", dict(self.subgroups))

    @property
    def evaluable(self) -> bool:
        """True when the case contributes to confusion counts."""
        return self.reference in (ReferenceLabel.POSITIVE, ReferenceLabel.NEGATIVE)


# Column codes. A reference code indexes ``tuple(ReferenceLabel)``; codes up
# to NEGATIVE are evaluable. A confusion-cell code indexes CELLS.
POSITIVE, NEGATIVE, AMBIGUOUS, EXCLUDED = range(4)
CELLS = ("tp", "fp", "fn", "tn")
TP, FP, FN, TN = range(4)
_REFERENCE_CODE = {label: code for code, label in enumerate(ReferenceLabel)}


@dataclass(frozen=True, slots=True)
class CaseColumns:
    """Read-only per-case arrays of a :class:`Dataset`, in case order.

    ``score`` is NaN and ``predicted`` -1 where missing; ``weight`` is the
    inverse inclusion probability (1.0 without a design); ``stratum`` indexes
    the design (-1 without one).
    """

    score: np.ndarray
    reference: np.ndarray
    predicted: np.ndarray
    weight: np.ndarray
    stratum: np.ndarray

    def __post_init__(self):
        for array in slot_fields(self).values():
            array.flags.writeable = False

    @property
    def evaluable(self) -> np.ndarray:
        return self.reference <= NEGATIVE


def confusion_cells(dataset: "Dataset") -> np.ndarray:
    """Confusion-cell code (TP, FP, FN, TN) of every case; -1 when not evaluable.

    The one place that cross-classifies predictions against the reference.
    """
    cols = dataset.columns
    unpredicted = np.flatnonzero(cols.evaluable & (cols.predicted < 0))
    if unpredicted.size:
        raise InputError(f"case {dataset.cases[unpredicted[0]].case_id!r} has no predicted label")
    # 2 * (not predicted) + (reference is negative) orders the codes TP, FP, FN, TN
    return np.where(cols.evaluable, 2 * (1 - cols.predicted) + cols.reference, -1)


@dataclass(frozen=True, slots=True)
class StratumSpec:
    """Sampling stratum of an enrichment design."""

    stratum_id: str
    inclusion_probability: float
    description: str = ""

    def __post_init__(self):
        if not (0.0 < self.inclusion_probability <= 1.0):
            raise InputError(
                f"stratum {self.stratum_id!r}: inclusion_probability must be in (0, 1], "
                f"got {self.inclusion_probability}"
            )


class Dataset:
    """Immutable evaluation dataset: cases, optional design, metadata."""

    __slots__ = ("_cases", "_design", "_metadata", "_columns")

    def __init__(
        self,
        cases: Iterable[EvaluationCase],
        design: Iterable[StratumSpec] = (),
        metadata: Mapping[str, object] | None = None,
    ):
        cases = tuple(cases)
        design = tuple(design)

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

        self._cases = cases
        self._design = design
        self._metadata = dict(metadata or {})
        self._columns: CaseColumns | None = None

    @property
    def cases(self) -> tuple[EvaluationCase, ...]:
        return self._cases

    @property
    def design(self) -> tuple[StratumSpec, ...]:
        return self._design

    @property
    def metadata(self) -> dict:
        return dict(self._metadata)

    @property
    def weighted(self) -> bool:
        """True when an enrichment design is attached."""
        return len(self._design) > 0

    def __len__(self) -> int:
        return len(self._cases)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self._cases == other._cases
            and self._design == other._design
            and self._metadata == other._metadata
        )

    def __repr__(self) -> str:
        return f"Dataset(n={len(self._cases)}, strata={len(self._design)})"

    @property
    def columns(self) -> CaseColumns:
        """The cases as read-only arrays, built on first use and cached."""
        if self._columns is None:
            cases = self._cases
            stratum_of = {s.stratum_id: i for i, s in enumerate(self._design)}
            stratum = np.array([stratum_of.get(c.stratum_id, -1) for c in cases], dtype=np.intp)
            # 1/p by stratum; stratum -1 (no design) picks the trailing 1.0
            inverse_p = np.array([1.0 / s.inclusion_probability for s in self._design] + [1.0])
            self._columns = CaseColumns(
                score=np.array([math.nan if c.score is None else c.score for c in cases], dtype=float),
                reference=np.array([_REFERENCE_CODE[c.reference] for c in cases], dtype=np.int8),
                predicted=np.array([-1 if c.predicted is None else c.predicted for c in cases], dtype=np.int8),
                weight=inverse_p[stratum],
                stratum=stratum,
            )
        return self._columns

    def label_counts(self) -> dict[str, int]:
        counts = np.bincount(self.columns.reference, minlength=len(_REFERENCE_CODE))
        return {label.value: int(k) for label, k in zip(ReferenceLabel, counts)}

    def replace_cases(self, cases: Iterable[EvaluationCase]) -> "Dataset":
        return Dataset(cases, self._design, self._metadata)


def apply_threshold(dataset: Dataset, threshold: float) -> Dataset:
    """Set ``predicted = (score >= threshold)`` on every case.

    Ties at the threshold are predicted positive, which keeps precision@k
    consistent under score ties. Original scores are retained; reference
    labels (including ambiguous/excluded) are untouched.
    """
    new_cases = []
    for case in dataset.cases:
        if case.score is None:
            raise InputError(f"case {case.case_id!r} has no score; cannot apply a threshold")
        new_cases.append(
            EvaluationCase(
                case_id=case.case_id,
                reference=case.reference,
                score=case.score,
                predicted=case.score >= threshold,
                benchmark_predicted=case.benchmark_predicted,
                stratum_id=case.stratum_id,
                subgroups=case.subgroups,
                repeated_labels=case.repeated_labels,
            )
        )
    return dataset.replace_cases(new_cases)


# --- serialization helpers -------------------------------------------------

_TRUE = {"1", "true"}
_FALSE = {"0", "false"}


def _parse_bool(text: str, *, row: int, fieldname: str) -> bool:
    lowered = text.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise IngestError([f"row {row}: field {fieldname!r}: expected a binary label, got {text!r}"])


def _format_bool(value: bool) -> str:
    return "1" if value else "0"


def _format_score(value: float) -> str:
    return repr(float(value))


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


def _csv_header(cases: tuple[EvaluationCase, ...]) -> list[str]:
    sg_names = sorted({name for c in cases for name in c.subgroups})
    n_runs = max((len(c.repeated_labels) for c in cases if c.repeated_labels), default=0)
    header = ["case_id", "reference", "score", "predicted", "benchmark_predicted", "stratum_id"]
    header += [f"sg_{name}" for name in sg_names]
    header += [f"run_{i + 1}" for i in range(n_runs)]
    return header


def emit(dataset: Dataset, path: str | Path, format: str = "csv") -> list[Path]:
    """Write a dataset to ``path``; returns the files written.

    The design and metadata, when present, go to ``<path>.design.json`` so
    both CSV and JSONL round-trip completely.
    """
    path = Path(path)
    if format == "csv":
        header = _csv_header(dataset.cases)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for case in dataset.cases:
                row = [
                    case.case_id,
                    case.reference.value,
                    "" if case.score is None else _format_score(case.score),
                    "" if case.predicted is None else _format_bool(case.predicted),
                    "" if case.benchmark_predicted is None else _format_bool(case.benchmark_predicted),
                    case.stratum_id or "",
                ]
                for col in header[6:]:
                    if col.startswith("sg_"):
                        row.append(case.subgroups.get(col[3:], ""))
                    else:
                        idx = int(col[4:]) - 1
                        runs = case.repeated_labels or ()
                        row.append(_format_bool(runs[idx]) if idx < len(runs) else "")
                writer.writerow(row)
    elif format == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for case in dataset.cases:
                fh.write(json.dumps(_case_to_record(case), sort_keys=True))
                fh.write("\n")
    else:
        raise InputError(f"unknown dataset format {format!r} (expected 'csv' or 'jsonl')")

    written = [path]
    if dataset.design or dataset.metadata:
        sidecar = path.with_name(path.name + DESIGN_SIDECAR_SUFFIX)
        payload = {
            "kind": "dataset_design",
            "design": [
                {
                    "stratum_id": s.stratum_id,
                    "inclusion_probability": s.inclusion_probability,
                    "description": s.description,
                }
                for s in dataset.design
            ],
            "metadata": dataset.metadata,
        }
        sidecar.write_text(canonical_json(payload), encoding="utf-8")
        written.append(sidecar)
    return written


def _load_sidecar(path: Path) -> tuple[tuple[StratumSpec, ...], dict]:
    sidecar = path.with_name(path.name + DESIGN_SIDECAR_SUFFIX)
    if not sidecar.exists():
        return (), {}
    payload = json.loads(sidecar.read_text(encoding="utf-8"))
    if payload.get("kind") != "dataset_design":
        raise InputError(f"{sidecar}: not a dataset design sidecar")
    design = tuple(
        StratumSpec(
            stratum_id=s["stratum_id"],
            inclusion_probability=float(s["inclusion_probability"]),
            description=s.get("description", ""),
        )
        for s in payload.get("design", [])
    )
    return design, dict(payload.get("metadata", {}))


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
                run_cols = sorted(
                    (c for c in header if c.startswith("run_")), key=lambda c: int(c[4:])
                )
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
            subgroups = {c[3:]: raw[c] for c in header if c.startswith("sg_") and raw.get(c, "") != ""}
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


def ingest(path: str | Path, format: str = "csv") -> Dataset:
    """Read and validate a dataset file; row order is preserved.

    Every problem is collected with its row number and field before a single
    :class:`IngestError` is raised, so one pass reports all defects.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"no such file: {path}")

    # oracle-leakage guard: truth sidecars are never evaluation inputs
    with open(path, encoding="utf-8", errors="replace") as fh:
        head = fh.read(256)
    if '"kind"' in head and "truth_sidecar" in head:
        raise InputError(f"{path}: this is a truth sidecar (oracle data), not an evaluation input")

    problems: list[str] = []
    if format == "csv":
        numbered = _ingest_csv_rows(path, problems)
    elif format == "jsonl":
        numbered = _ingest_jsonl_rows(path, problems)
    else:
        raise InputError(f"unknown dataset format {format!r} (expected 'csv' or 'jsonl')")

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
    try:
        return Dataset((case for _, case in numbered), design, metadata)
    except InputError as exc:
        raise IngestError([str(exc)]) from None
