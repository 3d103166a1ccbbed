"""Structured case-level examination: sampling, review sheets, aggregation.

Human review of concrete classifications complements summary metrics. This
module draws seeded stratified samples of false positives, false negatives,
true positives (and optionally true negatives), emits a CSV review sheet,
re-ingests the annotated sheet, and aggregates diagnostic tags into raw and
weight-projected frequencies.

Only reference-labeled cases fall into the four confusion cells; ambiguous
cases stay visible in datasets and reports but have no cell, and excluded
cases are invisible downstream. Reviewer verdicts never mutate the dataset
they came from: ``apply_verdicts`` produces a new dataset version instead.
"""

from __future__ import annotations

import enum
import math
import warnings as _warnings
from dataclasses import dataclass, field, replace
from itertools import takewhile
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import datamodel, metrics, provenance
from .datamodel import CELLS as CONFUSION_CELLS
from .datamodel import _BAD, Dataset, ReferenceLabel, _decode
from .errors import IngestError, InputError
from .provenance import config_hash, derive_seed, markdown_table, read_record, replicate_rng, show, write_record

CELLS = ("FP", "FN", "TP", "TN")
BENCHMARK_CELLS = (
    "model+/benchmark+",
    "model+/benchmark-",
    "model-/benchmark+",
    "model-/benchmark-",
)
DISAGREEMENT_CELLS = ("model+/benchmark-", "model-/benchmark+")
_CELL_NAMES = tuple(c.upper() for c in CONFUSION_CELLS)  # by confusion-cell code


class TagCategory(enum.Enum):
    NEVER_EVENT = "never_event"
    UNEXPECTED_ERROR = "unexpected_error"
    INPUT_DATA_ISSUE = "input_data_issue"
    TEST_SET_ISSUE = "test_set_issue"


class Triviality(enum.Enum):
    TRIVIAL = "trivial"
    NON_TRIVIAL = "non_trivial"
    UNCLEAR = "unclear"


TAG_COLUMNS = tuple(tag.value for tag in TagCategory)
SHEET_COLUMNS_FIXED = ("reviewer",) + TAG_COLUMNS + ("triviality", "note", "verdict")

REMEDIAL_ACTIONS = {
    "test_set_issue": "update annotations/guidelines",
    "input_data_issue": "data quality improvement",
    "unexpected_error": "re-training/threshold review",
    "never_event": "escalate",
}


@dataclass(frozen=True, slots=True)
class ScleConfig:
    """Requested review sample sizes and stratification options."""

    n_fp: int = 0
    n_fn: int = 0
    n_tp: int = 0
    n_tn: int = 0
    substratify_by: tuple[str, ...] = ()
    boundary_bins: int | None = None
    benchmark_mode: bool = False
    disagreement_oversample_factor: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n_fp", "n_fn", "n_tp", "n_tn"):
            if getattr(self, name) < 0:
                raise InputError(f"{name} must be >= 0")
        if self.n_fp + self.n_fn + self.n_tp <= 0:
            raise InputError("at least one of n_fp, n_fn, n_tp must be positive")
        if self.boundary_bins is not None and self.boundary_bins < 2:
            raise InputError("boundary_bins must be >= 2 when given")
        if self.boundary_bins is not None and self.boundary_bins > np.iinfo(np.int64).max:
            raise InputError(f"boundary_bins must be at most {np.iinfo(np.int64).max}")
        if not self.disagreement_oversample_factor >= 1.0:  # NaN too
            raise InputError("disagreement_oversample_factor must be >= 1")
        provenance._entropy(self.seed)
        object.__setattr__(self, "substratify_by", tuple(self.substratify_by))
        if not all(isinstance(attr, str) for attr in self.substratify_by):
            raise InputError(f"substratify_by must name subgroup attributes, got {self.substratify_by!r}")

    @property
    def total_requested(self) -> int:
        return self.n_fp + self.n_fn + self.n_tp + self.n_tn

    to_json_dict = write_record
    from_dict = classmethod(read_record)


@dataclass(frozen=True, slots=True)
class ScleRow:
    case_id: str
    cell: str
    sampling_weight: float
    benchmark_cell: str | None = None
    strata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        cell, benchmark_cell, weight = self.cell, self.benchmark_cell, self.sampling_weight
        if cell not in CELLS or benchmark_cell not in (None, *BENCHMARK_CELLS) or not 0 < weight < math.inf:
            raise InputError(f"not a review sample row: cell {show(cell)}, benchmark_cell {show(benchmark_cell)}, "
                             f"sampling_weight {show(weight)}")


@dataclass(frozen=True, slots=True)
class ScleSample:
    """A drawn review sample with its provenance."""

    rows: tuple[ScleRow, ...]
    config: ScleConfig
    seed: int
    cell_population_sizes: Mapping[str, int]
    cell_sample_sizes: Mapping[str, int]
    shortfalls: Mapping[str, tuple[int, int]]  # cell -> (requested, obtained)

    def __post_init__(self):
        # no projected count exceeds the row count times the largest weight
        if len(self.rows) * max((r.sampling_weight for r in self.rows), default=1.0) == math.inf:
            raise InputError(f"a sampling_weight is too large for {len(self.rows)} rows: projections overflow")

    @property
    def config_hash(self) -> str:
        return config_hash(
            {
                "config": self.config.to_json_dict(),
                "seed": self.seed,
                "case_ids": [r.case_id for r in self.rows],
            }
        )

    def to_json_dict(self) -> dict:
        return write_record(self, "scle_sample", derived=("config_hash",))

    @classmethod
    def from_json_dict(cls, data: dict) -> "ScleSample":
        return read_record(cls, data, kind="scle_sample", derived=("config_hash",))


@dataclass(frozen=True, slots=True)
class ScleAnnotation:
    """One reviewed case: category tags, triviality, note, optional verdict."""

    case_id: str
    reviewer: str = ""
    categories: tuple[TagCategory, ...] = ()
    triviality: Triviality | None = None
    note: str = ""
    verdict: ReferenceLabel | None = None


def _largest_remainder(total: int, sizes: Sequence[float], keys: Sequence) -> list[int]:
    """Integer allocation of ``total`` proportional to ``sizes``; sums exactly to total.

    Leftover units go to the largest fractional parts, ties broken by key.
    No share exceeds its size when total < sum(sizes): each quota
    total * s / sum(sizes) is then below s, so its floor plus one is at most s.
    """
    n = sum(sizes)
    if n == 0 or total == 0:
        return [0] * len(sizes)
    quotas = [total * s / n for s in sizes]
    base = [math.floor(q) for q in quotas]
    order = sorted(range(len(sizes)), key=lambda i: (-(quotas[i] - base[i]), keys[i]))
    for i in order[: total - sum(base)]:
        base[i] += 1
    return base


def _benchmark_targets(config: ScleConfig) -> dict[str, int]:
    """Oversampled disagreement-cell targets, normalized to the requested total."""
    factor = config.disagreement_oversample_factor
    weights = [factor if cell in DISAGREEMENT_CELLS else 1.0 for cell in BENCHMARK_CELLS]
    return dict(zip(BENCHMARK_CELLS, _largest_remainder(config.total_requested, weights, BENCHMARK_CELLS)))


def draw_sample(dataset: Dataset, config: ScleConfig) -> ScleSample:
    """Seeded stratified sample of classifications for human review.

    Each requested cell is sampled uniformly without replacement; with
    sub-stratification the cell's target is spread proportionally across
    strata by largest-remainder rounding, and with boundary bins the most
    boundary-distant ("confident") bin always contributes at least one case
    when it is nonempty. Cell shortfalls are reported, never padded.
    """
    cols = dataset.columns
    cells = datamodel.confusion_cells(dataset)
    evaluable = np.flatnonzero(cells >= 0)
    if config.benchmark_mode:
        unlabeled = evaluable[cols.benchmark_predicted[evaluable] < 0]
        if unlabeled.size:
            raise InputError(
                f"benchmark_mode requires benchmark labels; case {cols.case_id[unlabeled[0]]!r} has none"
            )
    threshold = 0.0
    if config.boundary_bins is not None:
        datamodel.scores_of(dataset, evaluable, "boundary_bins requires scored cases")
        # the threshold in effect: the lowest score among predicted positives
        positive = cols.score[(cols.predicted == 1) & ~np.isnan(cols.score)]
        threshold = float(positive.min()) if positive.size else 0.0

    if config.benchmark_mode:
        cell_names = by_code = BENCHMARK_CELLS
        targets = _benchmark_targets(config)
        # 2 * (model negative) + (benchmark negative) indexes BENCHMARK_CELLS
        sampling_cell = 2 * (1 - cols.predicted) + 1 - cols.benchmark_predicted
    else:
        cell_names, by_code = CELLS, _CELL_NAMES
        targets = {"FP": config.n_fp, "FN": config.n_fn, "TP": config.n_tp, "TN": config.n_tn}
        sampling_cell = cells
    populations = {name: evaluable[sampling_cell[evaluable] == k] for k, name in enumerate(by_code)}
    attributes = [cols.categories_of(attr, datamodel.UNKNOWN_CATEGORY) for attr in config.substratify_by]

    rng = replicate_rng(derive_seed(config.seed, "scle"), 0)
    rows: list[ScleRow] = []
    sample_sizes: dict[str, int] = {}
    shortfalls: dict[str, tuple[int, int]] = {}

    for cell in cell_names:
        requested = targets[cell]
        population = populations[cell]
        pop_size = population.size
        if requested == 0:
            sample_sizes[cell] = 0
            continue
        # every member's stratum labels, and its boundary bin by rank of distance from the threshold
        labels = [values[population].tolist() for values in attributes]
        bins = None
        if config.boundary_bins is not None and pop_size:
            ranks = np.argsort(np.lexsort((cols.case_id[population], np.abs(cols.score[population] - threshold))))
            # rank * bins // pop_size without its int64 overflow: each term stays below bins or pop_size^2
            q, r = divmod(config.boundary_bins, pop_size)
            bins = (ranks * q + ranks * r // pop_size).tolist()
        if pop_size <= requested:
            chosen = list(range(pop_size))
            if pop_size < requested:
                shortfalls[cell] = (requested, pop_size)
                _warnings.warn(
                    f"cell {cell}: only {pop_size} of {requested} requested cases available",
                    stacklevel=2,
                )
        else:
            parts = labels + ([bins] if bins is not None else [])  # a bin is keyed, and sorted, by its number
            keys = list(zip(*parts)) if parts else [()] * pop_size
            chosen = _stratified_choice(keys, requested, bins is not None, rng)
        sample_sizes[cell] = len(chosen)
        weight = float(cols.weight[population].sum()) / len(chosen) if chosen else 0.0  # the design-weighted size
        for i in chosen:
            strata = {attr: values[i] for attr, values in zip(config.substratify_by, labels)}
            if bins is not None:
                strata["boundary_bin"] = f"bin_{bins[i]}"
            row = population[i]
            rows.append(
                ScleRow(
                    case_id=cols.case_id[row],
                    cell=_CELL_NAMES[cells[row]],
                    benchmark_cell=BENCHMARK_CELLS[sampling_cell[row]] if config.benchmark_mode else None,
                    strata=strata,
                    sampling_weight=weight,
                )
            )

    return ScleSample(
        rows=tuple(rows),
        config=config,
        seed=config.seed,
        cell_population_sizes={c: populations[c].size for c in cell_names},
        cell_sample_sizes=sample_sizes,
        shortfalls=shortfalls,
    )


def _stratified_choice(keys: list[tuple], requested: int, boundary: bool, rng: np.random.Generator) -> list[int]:
    """Positions drawn from a cell whose members have stratum ``keys``, in key order.

    With ``boundary`` the last key part is the boundary bin, and the most
    distant bin gets a case from the largest allocation when it has none.
    """
    strata: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        strata.setdefault(key, []).append(i)
    ordered = sorted(strata)
    alloc = _largest_remainder(requested, [len(strata[k]) for k in ordered], ordered)

    if boundary:
        # the most boundary-distant bin holds the "confident" calls; keep it visible
        top_bin = max(k[-1] for k in ordered)
        top_idx = [i for i, k in enumerate(ordered) if k[-1] == top_bin]
        if all(alloc[i] == 0 for i in top_idx):
            donor = max(
                (i for i in range(len(ordered)) if alloc[i] > 0),
                key=lambda i: (alloc[i], ordered[i]),
                default=None,
            )
            if donor is not None:
                alloc[donor] -= 1
                alloc[top_idx[0]] += 1

    chosen: list[int] = []
    for key, take in zip(ordered, alloc):
        if take == 0:
            continue
        group = strata[key]
        idx = rng.choice(len(group), size=take, replace=False)
        chosen.extend(group[int(i)] for i in sorted(idx))
    return chosen


# --- review sheet round trip -------------------------------------------------


def emit_review_sheet(
    sample: ScleSample,
    dataset: Dataset,
    context_fields: Sequence[str] = (),
    path: str | Path = "review_sheet.csv",
    generated_at: str | None = None,
) -> Path:
    """Write the annotation sheet: context columns plus empty tag columns.

    A three-line comment header records the seed, the sample's config hash,
    and the generation timestamp; ingestion verifies the hash so annotations
    cannot be applied to the wrong sample. A context field that repeats a
    sheet column is refused before anything is written, as ingestion would
    refuse the sheet.
    """
    cols, metadata = dataset.columns, dataset.metadata
    for fieldname in context_fields:
        if fieldname not in (*cols.subgroup_names, *metadata, "score", "stratum_id"):
            raise InputError(f"unknown context field {fieldname!r}")
    header = ["case_id", "cell", "benchmark_cell", *context_fields, *SHEET_COLUMNS_FIXED]
    repeated = [column for column in header if header.count(column) > 1]
    if repeated:  # scle ingest would refuse the sheet
        raise InputError(f"context fields repeat review sheet column(s): {repeated}")
    rows = cols.rows_of([row.case_id for row in sample.rows])
    missing = np.flatnonzero(rows < 0)
    if missing.size:
        raise InputError(f"sampled case {sample.rows[missing[0]].case_id!r} is not in the dataset")

    def context(fieldname: str) -> list[str]:
        """The field of every sampled case; a subgroup the case lacks falls back to the metadata."""
        if fieldname == "score":
            return ["" if math.isnan(x) else repr(x) for x in cols.score[rows].tolist()]
        if fieldname == "stratum_id":
            return _decode(cols.stratum[rows], (*(s.stratum_id for s in dataset.design), ""))
        return cols.categories_of(fieldname, str(metadata.get(fieldname, "")), fallback=True)[rows].tolist()

    sheet = datamodel._csv_text([header, *(
        [row.case_id, row.cell, row.benchmark_cell or "", *values, *[""] * len(SHEET_COLUMNS_FIXED)]
        for row, *values in zip(sample.rows, *map(context, context_fields))
    )], lineterminator="\n")  # LF, like the # lines
    provenance.write_file(path, f"# seed: {sample.seed}\n# config_hash: {sample.config_hash}\n"
                                f"# generated_at: {generated_at or 'unspecified'}\n{sheet}")
    return Path(path)


def ingest_annotations(sheet: str | Path, sample: ScleSample) -> list[ScleAnnotation]:
    """Parse an annotated review sheet back into annotations.

    The sheet is read with the dataset CSV reader's rules: its header holds
    ``case_id`` and the annotation columns once each, and every row has the
    header's width. A row's problem is the first check it fails (membership
    in the sample, each tag, triviality, verdict); rows are numbered by the
    file line on which they end, and blank lines are skipped. Rows left
    completely untouched yield no annotation; a true-positive row annotated
    without a triviality judgment is flagged with a warning.
    """
    # csv reads the lines itself so quoted notes keep their newlines; an oversized field raises in the block
    with provenance.read_file(sheet, newline="") as fh:
        lines = fh.readlines()
        comments = list(takewhile(lambda line: line.startswith("#") or line.isspace(), lines))
        pairs = (line[1:].partition(":") for line in comments if ":" in line)
        sheet_hash = {key.strip(): value.strip() for key, _, value in pairs}.get("config_hash", "")
        if sheet_hash != sample.config_hash:
            raise InputError(f"sheet config_hash {sheet_hash!r} does not match sample config_hash "
                             f"{sample.config_hash!r}")
        columns, rows = ("case_id", *SHEET_COLUMNS_FIXED), datamodel._csv_rows(lines[len(comments):], len(comments))
        header = datamodel._csv_header(sheet, rows, columns)
        fields, numbers, found = datamodel._csv_fields(rows, len(header))
    # the cells of the columns read, without surrounding blanks, so that a blank cell is an empty one
    raw = {column: [text.strip() for text in values] for column, values in zip(header, fields) if column in columns}

    cells_by_id = {r.case_id: r.cell for r in sample.rows}
    ids = raw["case_id"]
    tags = {column: datamodel._codes(raw[column], datamodel._BINARY, 0) for column in TAG_COLUMNS}
    triviality = datamodel._codes(raw["triviality"], {t.value: k for k, t in enumerate(Triviality)}, -1)
    verdict = datamodel._codes(raw["verdict"], datamodel._LABEL, -1)
    unknown = np.array([case_id not in cells_by_id for case_id in ids], dtype=bool)
    checks = [
        (unknown, lambda i: f"case_id {ids[i]!r} is not part of the sample"),
        *((tags[c] == _BAD, lambda i, c=c: f"field {c!r}: unknown tag value {raw[c][i]!r}") for c in TAG_COLUMNS),
        (triviality == _BAD, lambda i: f"field 'triviality': unknown value {raw['triviality'][i]!r}"),
        (verdict == _BAD, lambda i: f"field 'verdict': unknown value {raw['verdict'][i]!r}"),
    ]
    problems: list[str] = []
    datamodel._report_rows(checks, numbers, ids, found, problems)
    if problems:
        raise IngestError(problems)

    judged, labels = _decode(triviality, (*Triviality, None)), _decode(verdict, (*ReferenceLabel, None))
    annotations: list[ScleAnnotation] = []
    for i, (case_id, row_number) in enumerate(zip(ids, numbers.tolist())):
        categories = tuple(tag for tag in TagCategory if tags[tag.value][i])
        note, reviewer = raw["note"][i], raw["reviewer"][i]
        if not (categories or judged[i] or note or labels[i] or reviewer):
            continue
        if cells_by_id[case_id] == "TP" and judged[i] is None:
            _warnings.warn(
                f"row {row_number}: true-positive case {case_id!r} annotated without a "
                "triviality judgment",
                stacklevel=2,
            )
        annotations.append(ScleAnnotation(case_id=case_id, reviewer=reviewer, categories=categories,
                                          triviality=judged[i], note=note, verdict=labels[i]))
    return annotations


# --- aggregation --------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TagProjection:
    raw_count: int
    projected: float
    ci_low: float
    ci_high: float


@dataclass(slots=True)
class ScleSummary:
    """Aggregated review findings, raw and projected to the cell populations."""

    no_findings: bool
    n_annotations: int
    per_cell_tags: dict  # cell -> tag -> TagProjection
    triviality_rate: float | None
    triviality_ci: tuple[float, float] | None
    n_tp_sampled: int
    never_events: list[dict]
    per_subgroup_tags: dict  # attr -> category -> tag -> count
    remedial_actions: list[str]
    verdict_changes: int
    seed: int

    def to_json_dict(self) -> dict:
        return write_record(self, "scle_summary")


def summary_markdown(doc: dict) -> str:
    """Markdown of a summary's JSON form; missing keys read as empty, as in a hand-edited document."""
    lines = ["## Case-level examination summary", ""]
    if doc.get("no_findings"):
        lines.append("No findings: no annotations were returned for this sample.")
        return "\n".join(lines) + "\n"
    lines.append(f"Annotations: {doc.get('n_annotations')}")
    if doc.get("triviality_rate") is not None:
        lo, hi = doc.get("triviality_ci") or (0.0, 1.0)
        lines.append(
            f"Triviality rate among sampled true positives: {doc['triviality_rate']!r} "
            f"(95% CI {lo!r} to {hi!r}, n={doc.get('n_tp_sampled')})"
        )
    if doc.get("never_events"):
        lines += ["", "### Never events (itemized)"]
        for item in doc["never_events"]:
            note = f" - {item['note']}" if item.get("note") else ""
            lines.append(f"- `{item.get('case_id')}` [{item.get('cell')}]{note}")
    tags = doc.get("per_cell_tags")
    if tags:
        lines += ["", "### Tag frequencies by cell"]
        columns = ("raw_count", "projected", "ci_low", "ci_high")
        lines += markdown_table(
            ("cell", "tag", "raw", "projected", "ci_low", "ci_high"),
            (
                (cell, tag, *(repr(proj.get(c)) for c in columns))
                for cell in sorted(tags)
                for tag, proj in sorted(tags[cell].items())
            ),
        )
    if doc.get("remedial_actions"):
        lines += ["", "### Suggested remedial actions (advisory)"]
        lines += [f"- {action}" for action in doc["remedial_actions"]]
    return "\n".join(lines) + "\n"


def aggregate(
    annotations: Sequence[ScleAnnotation],
    sample: ScleSample,
    n_resamples: int = 1000,
    ci_level: float = 0.95,
    seed: int | None = None,
) -> ScleSummary:
    """Aggregate diagnostic tags per cell with weighted population projections.

    Projections multiply raw tag counts by the cell's sampling weight; their
    intervals come from a seeded bootstrap over the cell's sampled rows.
    Never-event cases are always itemized individually, whatever their
    weight.
    """
    rows_by_id = {r.case_id: r for r in sample.rows}
    for ann in annotations:
        if ann.case_id not in rows_by_id:
            raise InputError(f"annotation for case {ann.case_id!r} is not part of the sample")
    ann_by_id = {a.case_id: a for a in annotations}
    if len(ann_by_id) != len(annotations):
        raise InputError("duplicate annotations for the same case_id")

    agg_seed = seed if seed is not None else derive_seed(sample.seed, "scle-aggregate")
    rng = replicate_rng(agg_seed, 0)
    n_tp_sampled = sum(1 for r in sample.rows if r.cell == "TP")
    reviewed = [(r, ann_by_id[r.case_id]) for r in sample.rows if r.case_id in ann_by_id]  # in sample order

    def sampling_cell(row: ScleRow) -> str:
        return row.benchmark_cell or row.cell

    per_cell_tags: dict[str, dict[str, TagProjection]] = {}
    cells_present = sorted({sampling_cell(r) for r in sample.rows})
    for cell in cells_present:
        cell_rows = [r for r in sample.rows if sampling_cell(r) == cell]
        n_sampled = len(cell_rows)
        weight = cell_rows[0].sampling_weight
        tags: dict[str, TagProjection] = {}
        for tag in TAG_COLUMNS:
            raw = sum(TagCategory(tag) in a.categories for r, a in reviewed if sampling_cell(r) == cell)
            if raw == 0:
                continue
            draws = rng.binomial(n_sampled, raw / n_sampled, size=n_resamples)
            tags[tag] = TagProjection(raw, raw * weight, *metrics.percentile_interval(draws * weight, ci_level))
        if tags:
            per_cell_tags[cell] = tags

    triviality_rate = None
    triviality_ci = None
    if n_tp_sampled > 0 and annotations:
        trivial = sum(r.cell == "TP" and a.triviality is Triviality.TRIVIAL for r, a in reviewed)
        triviality_rate = trivial / n_tp_sampled
        triviality_ci = metrics.wilson_interval(trivial, n_tp_sampled, ci_level)

    never_events = [
        {"case_id": a.case_id, "cell": rows_by_id[a.case_id].cell, "note": a.note}
        for a in annotations
        if TagCategory.NEVER_EVENT in a.categories
    ]

    per_subgroup: dict[str, dict[str, dict[str, int]]] = {}
    for attr in sample.config.substratify_by:
        breakdown: dict[str, dict[str, int]] = {}
        for row, ann in reviewed:
            bucket = breakdown.setdefault(row.strata.get(attr, datamodel.UNKNOWN_CATEGORY), {})
            for tag in dict.fromkeys(ann.categories):  # a repeated tag counts once, as in per_cell_tags
                bucket[tag.value] = bucket.get(tag.value, 0) + 1
        if breakdown:
            per_subgroup[attr] = breakdown

    observed_tags = {t.value for a in annotations for t in a.categories}
    remedial = sorted(REMEDIAL_ACTIONS[t] for t in observed_tags)

    verdict_changes = sum(1 for a in annotations if a.verdict is not None)

    return ScleSummary(
        no_findings=not annotations,
        n_annotations=len(annotations),
        per_cell_tags=per_cell_tags,
        triviality_rate=triviality_rate,
        triviality_ci=triviality_ci,
        n_tp_sampled=n_tp_sampled,
        never_events=never_events,
        per_subgroup_tags=per_subgroup,
        remedial_actions=remedial,
        verdict_changes=verdict_changes,
        seed=agg_seed,
    )


@dataclass(frozen=True, slots=True)
class _Annotations:
    """The JSON form of an annotations document, without its ``kind``."""

    annotations: tuple[ScleAnnotation, ...]


def annotations_to_json_dict(annotations: Sequence[ScleAnnotation]) -> dict:
    return write_record(_Annotations(tuple(annotations)), "scle_annotations")


def annotations_from_json_dict(data: dict) -> list[ScleAnnotation]:
    return list(read_record(_Annotations, data, kind="scle_annotations").annotations)


def apply_verdicts(dataset: Dataset, annotations: Sequence[ScleAnnotation]) -> Dataset:
    """New dataset version with reviewer verdicts applied as reference labels.

    The input dataset is untouched; this is the only sanctioned way reviewer
    corrections reach the reference standard, keeping it auditable. Every
    column but ``reference`` is shared with ``dataset``. Two different
    verdicts on one case are an input error.
    """
    verdicts: dict = {}
    for a in annotations:
        if a.verdict is not None and verdicts.setdefault(a.case_id, a.verdict) is not a.verdict:
            raise InputError(f"conflicting verdicts for case {a.case_id!r}")
    cols = dataset.columns
    rows = cols.rows_of(list(verdicts))
    if (rows < 0).any():
        raise InputError(f"verdicts for unknown case ids: {sorted(c for c, r in zip(verdicts, rows) if r < 0)}")
    reference = np.array(cols.reference)
    reference[rows] = [tuple(ReferenceLabel).index(v) for v in verdicts.values()]
    metadata = dataset.metadata
    metadata["verdicts_applied"] = metadata.get("verdicts_applied", 0) + len(verdicts)
    return Dataset._from_columns(replace(cols, reference=reference), dataset.design, metadata)
