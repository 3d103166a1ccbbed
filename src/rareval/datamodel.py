"""Core types, dataset container, and file ingestion for evaluation cases.

A :class:`Dataset` is an immutable table of per-case columns
(:class:`CaseColumns`) plus an optional enrichment design (per-stratum
inclusion probabilities) and free-form metadata; its :class:`EvaluationCase`
rows are built only when read. Datasets are read from and written to CSV
(RFC-4180) or JSONL; the design and metadata travel in a
``<path>.design.json`` sidecar so that a dataset round-trips through either
format without loss.

CSV column conventions: ``case_id, reference, score, predicted,
benchmark_predicted, stratum_id`` followed by subgroup columns prefixed
``sg_`` and repeated-run columns prefixed ``run_``. Booleans serialize as
``1``/``0``; missing values as the empty string; reals in full-precision
decimal. A header that names a column twice (or two ``run_`` columns with
the same run number) is rejected.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
import operator
from dataclasses import dataclass, field, replace
from itertools import chain, compress, islice, repeat
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import IngestError, InputError
from .provenance import (STRICT_JSON, SURROGATE, canonical_json, read_file, read_record, show, slot_fields, strict_json,
                         write_file, write_record)

DESIGN_SIDECAR_SUFFIX = ".design.json"
UNKNOWN_CATEGORY = "unknown"  # the category of a case without the subgroup attribute asked for


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
    def _missing_(cls, value):  # a label's text in any case, between blanks
        return next((label for label in cls if isinstance(value, str) and label.value == value.strip().lower()), None)

    @classmethod
    def parse(cls, text) -> "ReferenceLabel":
        try:
            return cls(text)
        except ValueError:
            allowed = ", ".join(m.value for m in cls)
            raise InputError(f"unknown reference label {show(text)} (expected one of: {allowed})") from None


@dataclass(frozen=True, slots=True)
class EvaluationCase:
    """One evaluated data point, as a plain record; a :class:`Dataset` built from cases checks their values.

    ``score`` is higher for more positive; ``repeated_labels``, when present,
    holds the binary labels of repeated executions of a nondeterministic
    classifier.
    """

    case_id: str
    reference: ReferenceLabel
    score: float | None = None
    predicted: bool | None = None
    benchmark_predicted: bool | None = None
    stratum_id: str | None = None
    subgroups: Mapping[str, str] = field(default_factory=dict)
    repeated_labels: tuple[bool, ...] | None = None

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
_FLAG = (False, True, None)  # a binary code as a case field: 0, 1, or -1 (missing)
_FLAG_TEXT = ("0", "1", "")  # the same code as CSV text


def _decode(codes: np.ndarray, values: Sequence) -> list:
    """``values[code]`` of every code, as a list; a missing code (-1) picks the last value."""
    return np.array(values, dtype=object)[codes].tolist()


@dataclass(frozen=True, slots=True, eq=False)
class CaseColumns:
    """The cases of a :class:`Dataset` as read-only arrays, in case order.

    ``score`` is NaN and ``predicted``/``benchmark_predicted`` -1 where
    missing; ``weight`` is the inverse inclusion probability (1.0 without a
    design); ``stratum`` indexes the design (-1 without one). Subgroup
    attribute ``subgroup_names[j]`` of case i is
    ``subgroup_categories[j][subgroups[i, j]]``, absent where the code is -1;
    names and categories are sorted. Row i of ``runs`` holds case i's
    repeated-run labels left-aligned, -1 after its last one.
    """

    case_id: np.ndarray
    score: np.ndarray
    reference: np.ndarray
    predicted: np.ndarray
    benchmark_predicted: np.ndarray
    weight: np.ndarray
    stratum: np.ndarray
    subgroup_names: tuple[str, ...]
    subgroup_categories: tuple[tuple[str, ...], ...]
    subgroups: np.ndarray
    runs: np.ndarray

    def __post_init__(self):
        for value in slot_fields(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, CaseColumns):
            return NotImplemented
        return all(
            np.array_equal(a, b, equal_nan=a.dtype.kind == "f") if isinstance(a, np.ndarray) else a == b
            for a, b in zip(slot_fields(self).values(), slot_fields(other).values())
        )

    @property
    def evaluable(self) -> np.ndarray:
        return self.reference <= NEGATIVE

    def rows_of(self, ids: Sequence[str]) -> np.ndarray:
        """Row of every case id in ``ids``, -1 for an id the dataset does not hold.

        The one place that finds cases by id.
        """
        row = dict(zip(self.case_id.tolist(), range(len(self.case_id))))
        return np.fromiter(map(row.get, ids, repeat(-1)), np.intp, len(ids))

    def categories_of(self, attribute: str, missing: str, fallback: bool = False) -> np.ndarray:
        """Every case's category of subgroup ``attribute`` (object array), ``missing`` where it has none. The one
        rule for an attribute that no case holds: an error, unless ``fallback`` gives every case ``missing``."""
        if attribute not in self.subgroup_names:
            if not fallback:
                raise InputError(f"attribute {attribute!r} is absent from every case")
            return np.full(len(self.score), missing, dtype=object)
        j = self.subgroup_names.index(attribute)
        return np.array((*self.subgroup_categories[j], missing), dtype=object)[self.subgroups[:, j]]


def confusion_cells(dataset: "Dataset") -> np.ndarray:
    """Confusion-cell code (TP, FP, FN, TN) of every case; -1 when not evaluable.

    The one place that cross-classifies predictions against the reference.
    """
    cols = dataset.columns
    unpredicted = np.flatnonzero(cols.evaluable & (cols.predicted < 0))
    if unpredicted.size:
        raise InputError(f"case {cols.case_id[unpredicted[0]]!r} has no predicted label")
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


def _duplicate_ids(case_id: Sequence, rows: Sequence[int]) -> list[str]:
    """One message per repeat of a case id, naming the rows of its first and this occurrence."""
    if len(set(case_id)) == len(case_id):  # the common case; the set is gone before the dict is built
        return []
    first: dict = {}
    return [
        f"duplicate case_id {v!r} (rows {rows[first[v]]} and {rows[i]})"
        for i, v in enumerate(case_id)
        if first.setdefault(v, i) != i
    ]


def _stratum_codes(
    case_id: Sequence, stratum_id: Sequence, missing, design: tuple[StratumSpec, ...]
) -> np.ndarray:
    """Design index of every case's stratum (-1 without one), after the design checks in order."""
    n, absent = len(stratum_id), stratum_id.count(missing)
    if 0 < absent < n:
        missing_id = case_id[stratum_id.index(missing)]
        raise InputError(f"mixed design: case {missing_id!r} has no stratum_id while other cases do")
    index = {s.stratum_id: i for i, s in enumerate(design)}
    if len(index) != len(design):
        raise InputError("design contains duplicate stratum_id entries")
    if absent == n and design and n:
        raise InputError("a design is present but no case carries a stratum_id")
    unknown = set(stratum_id) - index.keys() - {missing}
    if unknown:
        i = next(i for i, s in enumerate(stratum_id) if s in unknown)
        raise InputError(f"case {case_id[i]!r} references unknown stratum_id {stratum_id[i]!r}")
    index[missing] = -1
    return np.fromiter(map(index.__getitem__, stratum_id), np.intp, n)


def _build_columns(design: tuple[StratumSpec, ...], case_id: Sequence, stratum_id: Sequence,
                   subgroups: Mapping[str, Sequence], runs: np.ndarray, missing, **arrays: np.ndarray) -> CaseColumns:
    """The one column builder: check the strata against ``design`` and assemble the view.

    ``missing`` marks an absent stratum or subgroup value (``""`` in CSV text,
    None in cases); ``runs`` is an int8 run-label matrix with -1 where a label
    is absent; ``arrays`` are the score, reference and prediction columns.
    """
    stratum = _stratum_codes(case_id, stratum_id, missing, design)
    # 1/p by stratum; stratum -1 (no design) picks the trailing 1.0
    inverse_p = np.array([1.0 / s.inclusion_probability for s in design] + [1.0])
    weight = inverse_p[stratum]
    if len(stratum) * float(weight.max(initial=1.0)) == math.inf:  # no weighted total of the cases exceeds this
        raise InputError(f"an inclusion_probability is too small for {len(stratum)} cases: weighted totals overflow")
    categories = {name: sorted(set(values) - {missing}) for name, values in sorted(subgroups.items())}
    categories = {name: present for name, present in categories.items() if present}
    codes = []
    for name, present in categories.items():
        code = {missing: -1, **{value: k for k, value in enumerate(present)}}
        codes.append(np.fromiter(map(code.__getitem__, subgroups[name]), np.int32, len(stratum)))
    left_aligned = np.take_along_axis(runs, np.argsort(runs < 0, axis=1, kind="stable"), axis=1)
    return CaseColumns(
        case_id=np.array(case_id, dtype=object),
        weight=weight,
        stratum=stratum,
        subgroup_names=tuple(categories),
        subgroup_categories=tuple(map(tuple, categories.values())),
        subgroups=np.stack(codes, axis=1) if codes else np.empty((len(stratum), 0), np.int32),
        runs=left_aligned[:, : (runs >= 0).sum(axis=1).max(initial=0)],
        **arrays,
    )


_CHUNK_ROWS = 4096  # rows read or written at a time, so that their own memory does not grow with the dataset


def _chunks(n: int) -> list[slice]:
    return [slice(start, start + _CHUNK_ROWS) for start in range(0, n, _CHUNK_ROWS)]


def _csv_text(rows: Iterable[Sequence], **dialect) -> str:
    """``rows`` as ``csv.writer`` writes them (CRLF after each by default)."""
    csv.writer(out := io.StringIO(), **dialect).writerows(rows)
    return out.getvalue()


def _row_values(columns: CaseColumns, design: tuple[StratumSpec, ...], rows: slice) -> list[list]:
    """The :class:`EvaluationCase` fields of ``rows`` as Python values, one list per field."""
    c, n = columns, len(columns.score[rows])
    score = c.score[rows].astype(object)
    score[np.isnan(c.score[rows])] = None
    named = list(zip(c.subgroup_names, c.subgroup_categories))
    # no per-row lists when there are no subgroups or runs; each row still owns its dict
    subgroups = [
        {name: values[k] for (name, values), k in zip(named, row) if k >= 0}
        for row in c.subgroups[rows].tolist()
    ] if named else [{} for _ in range(n)]
    runs = [
        tuple(_FLAG[label] for label in row if label >= 0) or None for row in c.runs[rows].tolist()
    ] if c.runs.size else [None] * n
    return [
        c.case_id[rows].tolist(),
        _decode(c.reference[rows], tuple(ReferenceLabel)),
        score.tolist(),
        _decode(c.predicted[rows], _FLAG),
        _decode(c.benchmark_predicted[rows], _FLAG),
        _decode(c.stratum[rows], (*(s.stratum_id for s in design), None)),
        subgroups,
        runs,
    ]


class Dataset:
    """Immutable evaluation dataset: case columns, optional design, metadata.

    Every computation reads :attr:`columns`, which a dataset built from cases
    builds at once from the checked values. :attr:`cases` is a row view of
    the columns, built on first use.
    """

    __slots__ = ("_cases", "_design", "_metadata", "_columns")

    def __init__(self, cases: Iterable[EvaluationCase], design: Iterable[StratumSpec] = (),
                 metadata: Mapping[str, object] | None = None):
        cases, problems = tuple(cases), []
        values = {name: [getattr(c, name) for c in cases] for name in _RECORD_KEYS}
        values["reference"] = [r.value if type(r) is ReferenceLabel else r for r in values["reference"]]
        fields = _check_records(range(1, len(cases) + 1), [], problems, *values.values())
        if problems:  # the first, as a reader would report it by row
            raise InputError(problems[0])
        self._design = tuple(design)
        self._columns = _build_columns(self._design, **fields)  # runs the design checks
        self._metadata = dict(metadata or {})
        self._cases: tuple[EvaluationCase, ...] | None = None

    @classmethod
    def _from_columns(cls, columns: CaseColumns, design: tuple[StratumSpec, ...], metadata: Mapping):
        """A dataset over already checked columns; its cases are built when first read."""
        dataset = cls.__new__(cls)
        dataset._columns, dataset._design, dataset._metadata = columns, design, dict(metadata)
        dataset._cases = None
        return dataset

    def _take(self, rows: np.ndarray) -> "Dataset":
        """The dataset of the cases at ``rows``, with this one's design and metadata: the one row subset."""
        arrays = {name: v[rows] for name, v in slot_fields(self._columns).items() if isinstance(v, np.ndarray)}
        return Dataset._from_columns(replace(self._columns, **arrays), self._design, self._metadata)

    @property
    def cases(self) -> tuple[EvaluationCase, ...]:
        if self._cases is None:
            self._cases = tuple(chain.from_iterable(
                map(EvaluationCase, *_row_values(self._columns, self._design, rows)) for rows in _chunks(len(self))
            ))
        return self._cases

    @property
    def columns(self) -> CaseColumns:
        return self._columns

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
        return len(self._columns.score)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.columns == other.columns
            and self._design == other._design
            and self._metadata == other._metadata
        )

    def __repr__(self) -> str:
        return f"Dataset(n={len(self)}, strata={len(self._design)})"

    def label_counts(self) -> dict[str, int]:
        counts = np.bincount(self.columns.reference, minlength=len(_REFERENCE_CODE))
        return {label.value: int(k) for label, k in zip(ReferenceLabel, counts)}

    def replace_cases(self, cases: Iterable[EvaluationCase]) -> "Dataset":
        return Dataset(cases, self._design, self._metadata)


def scores_of(dataset: Dataset, rows: np.ndarray, purpose: str) -> np.ndarray:
    """``score[rows]`` (indices or a mask); the one score rule: an error naming the first of ``rows`` without one."""
    cols = dataset.columns
    scores = cols.score[rows]
    unscored = np.flatnonzero(np.isnan(scores))
    if unscored.size:
        raise InputError(f"case {cols.case_id[rows][unscored[0]]!r} has no score; {purpose}")
    return scores


def apply_threshold(dataset: Dataset, threshold: float) -> Dataset:
    """Set ``predicted = (score >= threshold)`` on every scored case.

    Every case but an excluded one needs a score. Ties at the threshold are
    predicted positive, which keeps precision@k consistent under score ties.
    Original scores are retained, and an excluded case without a score keeps
    its ``predicted``; reference labels (including ambiguous/excluded) are
    untouched. Every column but ``predicted`` is shared with ``dataset``.
    """
    cols = dataset.columns
    scores_of(dataset, cols.reference != EXCLUDED, "cannot apply a threshold")
    predicted = np.where(np.isnan(cols.score), cols.predicted, cols.score >= threshold).astype(np.int8)
    return Dataset._from_columns(replace(cols, predicted=predicted), dataset.design, dataset.metadata)


# --- serialization helpers -------------------------------------------------

# Text codes: a binary field or a reference label by its stripped,
# lower-cased text; _BAD marks text that is neither.
_BINARY = {"1": 1, "true": 1, "0": 0, "false": 0}
_LABEL = {label.value: code for label, code in _REFERENCE_CODE.items()}
_BAD = -2
_OPTIONAL_COLUMNS = ("score", "predicted", "benchmark_predicted", "stratum_id")
_NO_REFERENCE = object()  # a JSONL record without "reference", which is not "reference": null
_RECORD_KEYS = EvaluationCase.__slots__  # a case's fields, or a JSONL record's keys, as _check_records takes them
_NONE, _TEXT = type(None), (str, int, float)  # the JSON values that read as text: strings and numbers


def emit(dataset: Dataset, path: str | Path, format: str = "csv") -> list[Path]:
    """Write a dataset to ``path`` with :func:`provenance.write_file`'s rules; returns the files written.

    Rows are formatted from the columns ``_CHUNK_ROWS`` at a time: CSV rows
    end in CRLF and scores are written as ``repr``; a JSONL record holds the
    fields a case has. The design and metadata, when present, go to
    ``<path>.design.json`` so both CSV and JSONL round-trip completely.
    """
    path = Path(path)
    cols, design = dataset.columns, dataset.design
    design_record = _Sidecar(design, dataset.metadata)  # its checks run before any file is written
    chunks = _chunks(len(dataset))
    if format == "csv":
        header = [*_RECORD_KEYS[:2], *_OPTIONAL_COLUMNS, *(f"sg_{name}" for name in cols.subgroup_names)]
        header += [f"run_{k + 1}" for k in range(cols.runs.shape[1])]
        labels = tuple(label.value for label in ReferenceLabel)
        strata = (*(s.stratum_id for s in design), "")
        text = chain([_csv_text([header])], (_csv_text(zip(
            cols.case_id[rows].tolist(),
            _decode(cols.reference[rows], labels),
            ["" if math.isnan(s) else repr(s) for s in cols.score[rows].tolist()],
            _decode(cols.predicted[rows], _FLAG_TEXT),
            _decode(cols.benchmark_predicted[rows], _FLAG_TEXT),
            _decode(cols.stratum[rows], strata),
            *(_decode(codes, (*categories, "")) for codes, categories in zip(
                cols.subgroups[rows].T, cols.subgroup_categories
            )),
            *(_decode(codes, _FLAG_TEXT) for codes in cols.runs[rows].T),
        )) for rows in chunks))
    elif format == "jsonl":
        optional = _RECORD_KEYS[2:]  # every field but case_id and reference

        def lines(rows: slice) -> str:
            records = [{"case_id": case_id, "reference": reference.value, **{
                key: v for key, v in zip(optional, values) if v not in (None, {})
            }} for case_id, reference, *values in zip(*_row_values(cols, design, rows))]
            return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
        text = map(lines, chunks)
    else:
        raise InputError(f"unknown dataset format {format!r} (expected 'csv' or 'jsonl')")

    write_file(path, text)
    written = [path]
    if design or design_record.metadata:
        written.append(path.with_name(path.name + DESIGN_SIDECAR_SUFFIX))
        write_file(written[-1], canonical_json(write_record(design_record, "dataset_design")))
    return written


@dataclass(frozen=True, slots=True)
class _Sidecar:
    """The JSON form of a design sidecar, without its ``kind``."""

    design: tuple[StratumSpec, ...] = ()
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        count = self.metadata.get("verdicts_applied", 0)
        if type(count) is not int or count < 0:
            raise InputError(f"field 'metadata.verdicts_applied': expected a count of 0 or more, got {show(count)}")


def _load_sidecar(path: Path) -> tuple[tuple[StratumSpec, ...], dict]:
    sidecar = path.with_name(path.name + DESIGN_SIDECAR_SUFFIX)
    try:  # read even when missing, so that a run writes no file there, which would become the input's design
        with read_file(sidecar) as fh:
            data = strict_json(fh.read())
    except InputError:
        if sidecar.exists():
            raise
        return (), {}  # no sidecar: no design
    try:
        payload = read_record(_Sidecar, data, kind="dataset_design")
    except InputError as exc:
        raise InputError(f"{sidecar}: malformed design sidecar: {exc}") from None
    return payload.design, payload.metadata


def _codes(fields: Sequence[str], table: Mapping[str, int], empty: int) -> np.ndarray:
    """int8 code of every field: ``empty`` for "", else ``table`` at its stripped, lower-cased text, or _BAD."""
    code = {text: table.get(text.strip().lower(), _BAD) if text else empty for text in set(fields)}
    return np.fromiter(map(code.__getitem__, fields), np.int8, len(fields))


def _real(value) -> float | None:
    """``float(value)``, None when float() refuses it; an integer beyond float range is infinite, as its text is."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        return None


def _reals(values: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """(every value as a float, NaN for None; mask of the values other than None that :func:`_real` refuses)."""
    try:
        return np.fromiter(values, float, len(values)), np.zeros(len(values), dtype=bool)
    except (TypeError, ValueError, OverflowError):  # name the values float() refuses
        reals = list(map(_real, values))
        return np.fromiter(reals, float, len(reals)), _of((_NONE,), reals) & ~_of((_NONE,), values)


def _of(types: tuple, values: Sequence) -> np.ndarray:
    """Mask of the values whose exact type is one of ``types`` (so a JSON ``true`` is not a number); reads no truth."""
    kinds, types = set(map(type, values)), set(types)
    if kinds <= types or kinds.isdisjoint(types):  # one answer for every value
        return np.full(len(values), kinds <= types)
    return np.fromiter(map(types.__contains__, map(type, values)), bool, len(values))


def _unpaired(texts: Sequence) -> np.ndarray:
    """Mask of the strings in ``texts`` holding a surrogate: one search of them all, then of each if it finds one."""
    strings = [text if type(text) is str else "" for text in texts]
    if not SURROGATE.search("".join(strings)):
        return np.zeros(len(strings), dtype=bool)
    return np.fromiter(map(bool, map(SURROGATE.search, strings)), bool, len(strings))


def _blank(texts: Sequence[str]) -> np.ndarray:
    return np.fromiter(map(operator.not_, map(str.strip, texts)), bool, len(texts))


def _reference_problem(value) -> str:
    try:
        ReferenceLabel.parse(value)
    except InputError as exc:
        return f"field 'reference': {exc}"


def _value_checks(case_id: Sequence[str], no_score: np.ndarray, score: np.ndarray, unpredicted: np.ndarray,
                  empty_runs: np.ndarray) -> list:
    """The rules every reader and ``Dataset(cases)`` apply to a case's values, as :func:`_report_rows` checks."""
    return [
        (no_score & unpredicted, lambda i: f"case {case_id[i]!r}: needs a score or a predicted label"),
        (~no_score & ~np.isfinite(score), lambda i: f"case {case_id[i]!r}: score must be finite"),
        (empty_runs, lambda i: f"case {case_id[i]!r}: repeated_labels must be non-empty when present"),
    ]


def _report_rows(checks: list, numbers: Sequence[int], case_id: Sequence, found: list, problems: list[str]) -> None:
    """Each row's first failing check, by file row, then the repeated ids of the rows that pass, into ``problems``.

    ``checks`` are (failing rows, message of row i) pairs in the order a row-by-row reader meets them;
    ``numbers`` are the rows' file rows, and ``found`` the (file row, message) problems of lines that are no row.
    """
    numbers, failed = np.asarray(numbers, np.intp), np.zeros(len(numbers), dtype=bool)
    for rows_failing, message in checks:
        found += [(numbers[i], f"row {numbers[i]}: {message(i)}") for i in np.flatnonzero(rows_failing & ~failed)]
        failed |= rows_failing
    problems += [message for _, message in sorted(found)]
    passed = list(compress(case_id, (~failed).tolist())) if failed.any() else case_id
    problems += _duplicate_ids(passed, numbers[~failed])


def _csv_rows(lines: Iterable[str], first_line: int = 0):
    """Each CSV row of ``lines`` but a blank line, with the file line it ends on (``first_line`` lines in) appended."""
    reader = csv.reader(lines)
    for row in reader:
        if len(row) > 1 or row and not row[0].isspace():  # a line of only whitespace reads as one field of it
            row.append(first_line + reader.line_num)  # onto the reader's own list: no (line, row) pair to allocate
            yield row


def _csv_header(path: Path, rows, required: Sequence[str], run_numbers: bool = False) -> list[str]:
    """The first of :func:`_csv_rows`, a header holding every ``required`` column and no column twice. With
    ``run_numbers``, a ``run_`` column needs a run number, and two with the same number are the same column."""
    header = next(rows, [])[:-1]
    if not header:
        raise IngestError([f"{path}: empty file"])
    missing = set(required) - set(header)
    if missing:
        raise IngestError([f"{path}: header missing required column(s): {sorted(missing)}"])
    keys = header
    if run_numbers:
        try:
            keys = [int(c[4:]) if c.startswith("run_") else c for c in header]
        except ValueError:
            run_cols = [c for c in header if c.startswith("run_")]
            raise IngestError([f"{path}: repeated-run columns need a run number after 'run_': {run_cols}"]) from None
    repeated = [c for c, key in zip(header, keys) if keys.count(key) > 1]
    if repeated:
        raise IngestError([f"{path}: header repeats column(s): {repeated}"])
    return header


def _csv_fields(rows, width: int):
    """The width rule on :func:`_csv_rows` rows, read ``_CHUNK_ROWS`` at a time: (the fields of the rows of ``width``
    fields, one list per column; their file lines; the (file line, message) problems of the other rows).
    """
    fields, found = [[] for _ in range(width + 1)], []  # and a last column, the rows' file lines
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        found += [(row[-1], f"row {row[-1]}: expected {width} fields, got {len(row) - 1}")
                  for row in chunk if len(row) != width + 1]
        for column, values in zip(fields, zip(*(row for row in chunk if len(row) == width + 1))):
            column += values
    *fields, numbers = fields
    return fields, np.array(numbers, np.intp), found


def _read_csv(path: Path, problems: list[str]) -> dict:
    """The file's fields as :func:`_build_columns` arguments; row problems and repeated ids go to ``problems``.

    Rows are read ``_CHUNK_ROWS`` at a time into one list per column. Each
    column is then parsed in one step (``float()`` semantics for scores, a
    lookup of the distinct texts for labels and flags). A row's problem is the
    first check it fails, in the order a row-by-row reader meets them.
    """
    with read_file(path, newline="") as fh:
        header = _csv_header(path, rows := _csv_rows(fh), ("case_id", "reference"), run_numbers=True)
        fields, numbers, found = _csv_fields(rows, len(header))
    run_cols = sorted((c for c in header if c.startswith("run_")), key=lambda c: int(c[4:]))
    n, present = len(numbers), dict(zip(header, fields))
    raw = {name: present.get(name, ("",) * n) for name in (*header, *_OPTIONAL_COLUMNS)}

    ids, reference = raw["case_id"], _codes(raw["reference"], _LABEL, _BAD)
    flag_cols = ["predicted", "benchmark_predicted", *run_cols]
    flags = {name: _codes(raw[name], _BINARY, -1) for name in flag_cols}
    no_score = np.fromiter(map(operator.not_, raw["score"]), bool, n)
    score, unreadable = _reals([text or None for text in raw["score"]] if no_score.any() else raw["score"])
    checks = [
        (flags[name] == _BAD, lambda i, name=name: f"field {name!r}: expected a binary label, got {raw[name][i]!r}")
        for name in flag_cols
    ]
    checks += [
        (_blank(ids), lambda i: "field 'case_id': missing"),
        (reference == _BAD, lambda i: _reference_problem(raw["reference"][i])),
        (unreadable, lambda i: f"field 'score': not a real number: {show(raw['score'][i])}"),
        *_value_checks(ids, no_score, score, flags["predicted"] < 0, np.zeros(n, dtype=bool)),
    ]
    _report_rows(checks, numbers, ids, found, problems)
    return dict(
        case_id=ids,
        stratum_id=raw["stratum_id"],
        subgroups={c[3:]: raw[c] for c in header if c.startswith("sg_")},
        runs=np.stack([flags[c] for c in run_cols], axis=1) if run_cols else np.empty((n, 0), np.int8),
        missing="",
        score=score,
        reference=reference,
        predicted=flags["predicted"],
        benchmark_predicted=flags["benchmark_predicted"],
    )


def _read_jsonl(path: Path, problems: list[str]) -> dict:
    """The file's fields as :func:`_build_columns` arguments; problems go to ``problems`` as in :func:`_read_csv`.

    Each record's values go to one list per :class:`EvaluationCase` field, which :func:`_check_records` checks.
    """
    found, numbers, fields = [], [], [[] for _ in _RECORD_KEYS]
    with read_file(path) as fh:
        for row_number, line in enumerate(fh, start=1):
            if not (line := line.strip()):
                continue
            try:
                record = STRICT_JSON.decode(line)
            except (ValueError, RecursionError) as exc:  # also a non-finite number, too many digits, too deep a nesting
                found.append((row_number, f"row {row_number}: invalid JSON: {getattr(exc, 'msg', exc)}"))
                continue
            if not isinstance(record, dict):
                found.append((row_number, f"row {row_number}: expected a JSON object"))
                continue
            get = record.get
            if get("kind") == "truth_sidecar":
                raise IngestError([f"row {row_number}: this is a truth sidecar (oracle data), not an evaluation input"])
            numbers.append(row_number)
            for key, values in zip(_RECORD_KEYS, fields):
                values.append(get(key, _NO_REFERENCE if key == "reference" else None))
    return _check_records(numbers, found, problems, *fields)


def _check_records(numbers: Sequence[int], found: list, problems: list[str], ids: list, references: list,
                   scores: list, predicted: list, benchmark: list, strata: list, groups: list, runs: list) -> dict:
    """The one record rule, of JSONL and ``Dataset(cases)``: the :func:`_build_columns` arguments (no design) of the
    records at rows ``numbers``, one list per :class:`EvaluationCase` field, a reference as text; {} on a problem.

    Values are checked by exact JSON type, and a number id or subgroup value reads as its text. Problems go to
    ``problems`` as :func:`_report_rows` reports them, after ``found`` (the lines that are no record).
    """
    n, no_id, bad_id = len(ids), _of((_NONE,), ids), ~_of((*_TEXT, _NONE), ids)
    no_reference = np.fromiter(map(operator.is_, references, repeat(_NO_REFERENCE)), bool, n)
    ids, texts = (
        v if _of((str,), v).all() else [x if type(x) is str else str(x) for x in v] for v in (ids, references)
    )
    no_score = _of((_NONE,), scores)
    reference, (score, unreadable) = _codes(texts, _LABEL, _BAD), _reals(scores)
    bad_runs = empty_runs = np.zeros(n, dtype=bool)
    if any(r is not None for r in runs):  # some record has repeated labels
        bad_runs = np.fromiter((r is not None and (type(r) not in (list, tuple) or any(type(x) is not bool for x in r))
                                for r in runs), bool, n)
        empty_runs = np.fromiter((type(r) in (list, tuple) and not r for r in runs), bool, n)
    not_object = ~_of((dict, _NONE), groups)  # a false JSON value is no subgroups; an array's truth is never asked
    not_object[not_object] = [type(g) not in (bool, *_TEXT, list) or bool(g) for g in compress(groups, not_object)]
    odd = [None] * n  # each record's first subgroup name whose value is neither text nor null
    groups = [] if _of((_NONE,), groups).all() else [g if type(g) is dict else {} for g in groups]
    bad_name = np.zeros(n, dtype=bool)
    if set(map(type, chain.from_iterable(groups))) - {str}:
        bad_name = np.fromiter((any(type(k) is not str for k in g) for g in groups), bool, n)
    if set(map(type, chain.from_iterable(map(dict.values, groups)))) - {str}:
        odd = [next((k for k, v in g.items() if type(v) not in (*_TEXT, _NONE)), None) for g in groups]
        groups = [{k: v if type(v) is str else str(v) for k, v in g.items() if v is not None} for g in groups]
    group_texts = [""] * n  # one search of every subgroup name and value; a text per row only if it finds a surrogate
    if SURROGATE.search("".join(map(str, chain.from_iterable(map(chain.from_iterable, map(dict.items, groups)))))):
        group_texts = ["".join(map(str, chain(*g.items()))) for g in groups]
    checks = [
        (no_id | _blank(ids), lambda i: "field 'case_id': missing"),
        (bad_id, lambda i: "field 'case_id': expected a string or a number"),
        (no_reference, lambda i: "field 'reference': missing"),
        (reference == _BAD, lambda i: _reference_problem(references[i])),
        (unreadable, lambda i: f"field 'score': not a real number: {show(scores[i])}"),
        (bad_runs, lambda i: "field 'repeated_labels': expected a list of booleans"),
        (not_object, lambda i: "field 'subgroups': expected an object"),
        (bad_name, lambda i: "field 'subgroups': expected a string name, got "
                             f"{show(next(k for k in groups[i] if type(k) is not str))}"),
        (~_of((_NONE,), odd), lambda i: f"field 'subgroups': expected a string, a number or null for {odd[i]!r}"),
        (~_of((str, _NONE), strata), lambda i: "field 'stratum_id': expected a string"),
        (~_of((bool, _NONE), predicted), lambda i: "field 'predicted': expected a boolean"),
        (~_of((bool, _NONE), benchmark), lambda i: "field 'benchmark_predicted': expected a boolean"),
        *((_unpaired(texts), lambda i, name=name: f"field {name!r}: not Unicode text (unpaired surrogate)")
          for name, texts in (("case_id", ids), ("stratum_id", strata), ("subgroups", group_texts))),
        *_value_checks(ids, no_score, score, _of((_NONE,), predicted), empty_runs),
    ]
    _report_rows(checks, numbers, ids, found, problems)
    if problems:  # values with problems are not fit to convert
        return {}
    width = max(map(len, filter(None, runs)), default=0)
    padded = [(*(r or ()), *(-1,) * width)[:width] for r in runs] if width else []
    return dict(
        case_id=ids,
        stratum_id=strata,
        subgroups={name: [g.get(name) for g in groups] for name in set().union(*groups)},
        runs=np.array(padded, dtype=np.int8).reshape(n, width),
        missing=None,
        score=score,
        reference=reference,
        predicted=np.array([-1 if p is None else p for p in predicted], dtype=np.int8),
        benchmark_predicted=np.array([-1 if p is None else p for p in benchmark], dtype=np.int8),
    )


def ingest(path: str | Path, format: str = "csv") -> Dataset:
    """Read and validate a dataset file; row order is preserved.

    Every problem is collected with its row number and field before a single
    :class:`IngestError` is raised, so one pass reports all defects.
    """
    path, problems = Path(path), []
    with read_file(path) as fh:  # oracle-leakage guard: truth sidecars are never evaluation inputs
        head = fh.read(256)
    if '"kind"' in head and "truth_sidecar" in head:
        raise InputError(f"{path}: this is a truth sidecar (oracle data), not an evaluation input")
    read = {"csv": _read_csv, "jsonl": _read_jsonl}.get(format)
    if read is None:
        raise InputError(f"unknown dataset format {format!r} (expected 'csv' or 'jsonl')")
    fields = read(path, problems)
    if problems:
        raise IngestError(problems)

    design, metadata = _load_sidecar(path)
    try:
        return Dataset._from_columns(_build_columns(design, **fields), design, metadata)
    except InputError as exc:
        raise IngestError([str(exc)]) from None
