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

import csv
import enum
import math
import warnings as _warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import datamodel, metrics
from .datamodel import CELLS as CONFUSION_CELLS
from .datamodel import Dataset, ReferenceLabel, _decode
from .errors import InputError
from .provenance import config_hash, derive_seed, markdown_table, replicate_rng, slot_fields

CELLS = ("FP", "FN", "TP", "TN")
BENCHMARK_CELLS = (
    "model+/benchmark+",
    "model+/benchmark-",
    "model-/benchmark+",
    "model-/benchmark-",
)
DISAGREEMENT_CELLS = ("model+/benchmark-", "model-/benchmark+")
_CELL_NAMES = tuple(c.upper() for c in CONFUSION_CELLS)  # by confusion-cell code

TAG_COLUMNS = ("never_event", "unexpected_error", "input_data_issue", "test_set_issue")
SHEET_COLUMNS_FIXED = ("reviewer",) + TAG_COLUMNS + ("triviality", "note", "verdict")

REMEDIAL_ACTIONS = {
    "test_set_issue": "update annotations/guidelines",
    "input_data_issue": "data quality improvement",
    "unexpected_error": "re-training/threshold review",
    "never_event": "escalate",
}


class TagCategory(enum.Enum):
    NEVER_EVENT = "never_event"
    UNEXPECTED_ERROR = "unexpected_error"
    INPUT_DATA_ISSUE = "input_data_issue"
    TEST_SET_ISSUE = "test_set_issue"


class Triviality(enum.Enum):
    TRIVIAL = "trivial"
    NON_TRIVIAL = "non_trivial"
    UNCLEAR = "unclear"


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
        if self.disagreement_oversample_factor < 1.0:
            raise InputError("disagreement_oversample_factor must be >= 1")
        object.__setattr__(self, "substratify_by", tuple(self.substratify_by))

    @property
    def total_requested(self) -> int:
        return self.n_fp + self.n_fn + self.n_tp + self.n_tn

    to_json_dict = slot_fields

    @classmethod
    def from_dict(cls, data: dict) -> "ScleConfig":
        return cls(
            n_fp=int(data.get("n_fp", 0)),
            n_fn=int(data.get("n_fn", 0)),
            n_tp=int(data.get("n_tp", 0)),
            n_tn=int(data.get("n_tn", 0)),
            substratify_by=tuple(data.get("substratify_by", ()) or ()),
            boundary_bins=int(data["boundary_bins"]) if data.get("boundary_bins") else None,
            benchmark_mode=bool(data.get("benchmark_mode", False)),
            disagreement_oversample_factor=float(data.get("disagreement_oversample_factor", 1.0)),
            seed=int(data.get("seed", 0)),
        )


@dataclass(frozen=True, slots=True)
class ScleRow:
    case_id: str
    cell: str
    benchmark_cell: str | None
    strata: Mapping[str, str]
    sampling_weight: float

    to_json_dict = slot_fields


@dataclass(frozen=True, slots=True)
class ScleSample:
    """A drawn review sample with its provenance."""

    rows: tuple[ScleRow, ...]
    config: ScleConfig
    seed: int
    cell_population_sizes: Mapping[str, int]
    cell_sample_sizes: Mapping[str, int]
    shortfalls: Mapping[str, tuple[int, int]]  # cell -> (requested, obtained)

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
        return {
            "kind": "scle_sample",
            "seed": self.seed,
            "config": self.config.to_json_dict(),
            "config_hash": self.config_hash,
            "cell_population_sizes": dict(self.cell_population_sizes),
            "cell_sample_sizes": dict(self.cell_sample_sizes),
            "shortfalls": {k: list(v) for k, v in self.shortfalls.items()},
            "rows": [r.to_json_dict() for r in self.rows],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ScleSample":
        if data.get("kind") != "scle_sample":
            raise InputError("not a serialized review sample")
        rows = tuple(
            ScleRow(
                case_id=r["case_id"],
                cell=r["cell"],
                benchmark_cell=r.get("benchmark_cell"),
                strata=dict(r.get("strata", {})),
                sampling_weight=float(r["sampling_weight"]),
            )
            for r in data["rows"]
        )
        return cls(
            rows=rows,
            config=ScleConfig.from_dict(data["config"]),
            seed=int(data["seed"]),
            cell_population_sizes={k: int(v) for k, v in data["cell_population_sizes"].items()},
            cell_sample_sizes={k: int(v) for k, v in data["cell_sample_sizes"].items()},
            shortfalls={k: (int(v[0]), int(v[1])) for k, v in data["shortfalls"].items()},
        )


@dataclass(frozen=True, slots=True)
class ScleAnnotation:
    """One reviewed case: category tags, triviality, note, optional verdict."""

    case_id: str
    reviewer: str
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
        unscored = evaluable[np.isnan(cols.score[evaluable])]
        if unscored.size:
            raise InputError(f"boundary_bins requires scored cases; case {cols.case_id[unscored[0]]!r} has no score")
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
    attributes = [cols.categories_of(attr, "unknown") for attr in config.substratify_by]

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
        if config.boundary_bins is not None:
            ranks = np.argsort(np.lexsort((cols.case_id[population], np.abs(cols.score[population] - threshold))))
            bins = np.minimum(config.boundary_bins - 1, ranks * config.boundary_bins // pop_size).tolist()
        if pop_size <= requested:
            chosen = list(range(pop_size))
            if pop_size < requested:
                shortfalls[cell] = (requested, pop_size)
                _warnings.warn(
                    f"cell {cell}: only {pop_size} of {requested} requested cases available",
                    stacklevel=2,
                )
        else:
            parts = labels + ([[f"bin_{b:06d}" for b in bins]] if bins is not None else [])
            keys = list(zip(*parts)) if parts else [()] * pop_size
            chosen = _stratified_choice(keys, requested, bins is not None, rng)
        sample_sizes[cell] = len(chosen)
        weight = pop_size / len(chosen) if chosen else 0.0
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

_FLAG_TRUE = {"1", "true"}
_FLAG_FALSE = {"", "0", "false"}


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
    cannot be applied to the wrong sample.
    """
    cols, metadata = dataset.columns, dataset.metadata
    for fieldname in context_fields:
        if (
            fieldname not in cols.subgroup_names
            and fieldname not in metadata
            and fieldname not in ("score", "stratum_id")
        ):
            raise InputError(f"unknown context field {fieldname!r}")
    row_of = dict(zip(cols.case_id.tolist(), range(len(dataset))))
    missing = next((row.case_id for row in sample.rows if row.case_id not in row_of), None)
    if missing is not None:
        raise InputError(f"sampled case {missing!r} is not in the dataset")
    rows = np.array([row_of[row.case_id] for row in sample.rows], dtype=np.intp)

    def context(fieldname: str) -> list[str]:
        """The field of every sampled case; a subgroup the case lacks falls back to the metadata."""
        if fieldname == "score":
            return ["" if math.isnan(x) else repr(x) for x in cols.score[rows].tolist()]
        if fieldname == "stratum_id":
            return _decode(cols.stratum[rows], (*(s.stratum_id for s in dataset.design), ""))
        return cols.categories_of(fieldname, str(metadata.get(fieldname, "")))[rows].tolist()

    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# seed: {sample.seed}\n")
        fh.write(f"# config_hash: {sample.config_hash}\n")
        fh.write(f"# generated_at: {generated_at or 'unspecified'}\n")
        writer = csv.writer(fh, lineterminator="\n")  # LF, like the # lines
        writer.writerow(["case_id", "cell", "benchmark_cell", *context_fields, *SHEET_COLUMNS_FIXED])
        writer.writerows(
            [row.case_id, row.cell, row.benchmark_cell or "", *values, *[""] * len(SHEET_COLUMNS_FIXED)]
            for row, *values in zip(sample.rows, *map(context, context_fields))
        )
    return path


def ingest_annotations(sheet: str | Path, sample: ScleSample) -> list[ScleAnnotation]:
    """Parse an annotated review sheet back into annotations.

    Rows left completely untouched yield no annotation. Unknown tag values
    and duplicate or unknown case ids are rejected with their row numbers;
    a true-positive row that was annotated without a triviality judgment is
    flagged with a warning.
    """
    # utf-8-sig and newline="" accept sheets re-saved by spreadsheets (BOM,
    # CRLF); csv reads the file itself so quoted notes keep their newlines
    with open(sheet, newline="", encoding="utf-8-sig") as fh:
        header_meta: dict[str, str] = {}
        comment_lines = 0
        while True:
            start = fh.tell()
            line = fh.readline()
            if not line.startswith("#"):
                fh.seek(start)
                break
            comment_lines += 1
            if ":" in line:
                key, _, value = line[1:].partition(":")
                header_meta[key.strip()] = value.strip()
        sheet_hash = header_meta.get("config_hash", "")
        if sheet_hash != sample.config_hash:
            raise InputError(
                f"sheet config_hash {sheet_hash!r} does not match sample config_hash "
                f"{sample.config_hash!r}"
            )
        reader = csv.DictReader(fh)
        # file line on which each row ends
        numbered_rows = [(comment_lines + reader.line_num, raw) for raw in reader]

    cells_by_id = {r.case_id: r.cell for r in sample.rows}
    annotations: list[ScleAnnotation] = []
    seen: set[str] = set()
    problems: list[str] = []
    for row_number, raw in numbered_rows:
        case_id = (raw.get("case_id") or "").strip()
        if case_id not in cells_by_id:
            problems.append(f"row {row_number}: case_id {case_id!r} is not part of the sample")
            continue
        if case_id in seen:
            problems.append(f"row {row_number}: duplicate case_id {case_id!r}")
            continue
        seen.add(case_id)

        categories: list[TagCategory] = []
        bad = False
        for column in TAG_COLUMNS:
            value = (raw.get(column) or "").strip().lower()
            if value in _FLAG_TRUE:
                categories.append(TagCategory(column))
            elif value not in _FLAG_FALSE:
                problems.append(
                    f"row {row_number}: field {column!r}: unknown tag value {raw.get(column)!r}"
                )
                bad = True

        triviality_raw = (raw.get("triviality") or "").strip().lower()
        triviality: Triviality | None = None
        if triviality_raw:
            try:
                triviality = Triviality(triviality_raw)
            except ValueError:
                problems.append(
                    f"row {row_number}: field 'triviality': unknown value {raw.get('triviality')!r}"
                )
                bad = True

        verdict_raw = (raw.get("verdict") or "").strip()
        verdict: ReferenceLabel | None = None
        if verdict_raw:
            try:
                verdict = ReferenceLabel.parse(verdict_raw)
            except InputError:
                problems.append(
                    f"row {row_number}: field 'verdict': unknown value {verdict_raw!r}"
                )
                bad = True

        if bad:
            continue
        note = (raw.get("note") or "").strip()
        reviewer = (raw.get("reviewer") or "").strip()
        touched = bool(categories or triviality or note or verdict or reviewer)
        if not touched:
            continue
        if cells_by_id[case_id] == "TP" and triviality is None:
            _warnings.warn(
                f"row {row_number}: true-positive case {case_id!r} annotated without a "
                "triviality judgment",
                stacklevel=2,
            )
        annotations.append(
            ScleAnnotation(
                case_id=case_id,
                reviewer=reviewer,
                categories=tuple(categories),
                triviality=triviality,
                note=note,
                verdict=verdict,
            )
        )
    if problems:
        raise InputError("; ".join(problems))
    return annotations


# --- aggregation --------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TagProjection:
    raw_count: int
    projected: float
    ci_low: float
    ci_high: float

    to_json_dict = slot_fields


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
        return {
            "kind": "scle_summary",
            "no_findings": self.no_findings,
            "n_annotations": self.n_annotations,
            "per_cell_tags": {
                cell: {tag: proj.to_json_dict() for tag, proj in tags.items()}
                for cell, tags in self.per_cell_tags.items()
            },
            "triviality_rate": self.triviality_rate,
            "triviality_ci": list(self.triviality_ci) if self.triviality_ci else None,
            "n_tp_sampled": self.n_tp_sampled,
            "never_events": self.never_events,
            "per_subgroup_tags": self.per_subgroup_tags,
            "remedial_actions": self.remedial_actions,
            "verdict_changes": self.verdict_changes,
            "seed": self.seed,
        }

    def to_markdown(self) -> str:
        lines = ["## Case-level examination summary", ""]
        if self.no_findings:
            lines.append("No findings: no annotations were returned for this sample.")
            return "\n".join(lines) + "\n"
        lines.append(f"Annotations: {self.n_annotations}")
        if self.triviality_rate is not None:
            lo, hi = self.triviality_ci or (0.0, 1.0)
            lines.append(
                f"Triviality rate among sampled true positives: {self.triviality_rate!r} "
                f"(95% CI {lo!r} to {hi!r}, n={self.n_tp_sampled})"
            )
        if self.never_events:
            lines.append("")
            lines.append("### Never events (itemized)")
            for item in self.never_events:
                note = f" - {item['note']}" if item.get("note") else ""
                lines.append(f"- `{item['case_id']}` [{item['cell']}]{note}")
        if self.per_cell_tags:
            lines.append("")
            lines.append("### Tag frequencies by cell")
            lines += markdown_table(
                ("cell", "tag", "raw", "projected", "ci_low", "ci_high"),
                (
                    (cell, tag, proj.raw_count, repr(proj.projected), repr(proj.ci_low), repr(proj.ci_high))
                    for cell in sorted(self.per_cell_tags)
                    for tag, proj in sorted(self.per_cell_tags[cell].items())
                ),
            )
        if self.remedial_actions:
            lines.append("")
            lines.append("### Suggested remedial actions (advisory)")
            for action in self.remedial_actions:
                lines.append(f"- {action}")
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
    ids = [a.case_id for a in annotations]
    if len(ids) != len(set(ids)):
        raise InputError("duplicate annotations for the same case_id")

    agg_seed = seed if seed is not None else derive_seed(sample.seed, "scle-aggregate")
    rng = replicate_rng(agg_seed, 0)
    n_tp_sampled = sum(1 for r in sample.rows if r.cell == "TP")

    if not annotations:
        return ScleSummary(
            no_findings=True,
            n_annotations=0,
            per_cell_tags={},
            triviality_rate=None,
            triviality_ci=None,
            n_tp_sampled=n_tp_sampled,
            never_events=[],
            per_subgroup_tags={},
            remedial_actions=[],
            verdict_changes=0,
            seed=agg_seed,
        )

    ann_by_id = {a.case_id: a for a in annotations}
    alpha = (1.0 - ci_level) / 2.0

    def sampling_cell(row: ScleRow) -> str:
        return row.benchmark_cell or row.cell

    per_cell_tags: dict[str, dict[str, TagProjection]] = {}
    cells_present = sorted({sampling_cell(r) for r in sample.rows})
    for cell in cells_present:
        cell_rows = [r for r in sample.rows if sampling_cell(r) == cell]
        n_sampled = len(cell_rows)
        if n_sampled == 0:
            continue
        weight = cell_rows[0].sampling_weight
        tags: dict[str, TagProjection] = {}
        for tag in TAG_COLUMNS:
            flags = np.array(
                [
                    ann_by_id.get(r.case_id) is not None
                    and TagCategory(tag) in ann_by_id[r.case_id].categories
                    for r in cell_rows
                ],
                dtype=float,
            )
            raw = int(flags.sum())
            if raw == 0:
                continue
            draws = rng.binomial(n_sampled, raw / n_sampled, size=n_resamples)
            projections = draws * weight
            tags[tag] = TagProjection(
                raw_count=raw,
                projected=raw * weight,
                ci_low=float(np.quantile(projections, alpha)),
                ci_high=float(np.quantile(projections, 1.0 - alpha)),
            )
        if tags:
            per_cell_tags[cell] = tags

    triviality_rate = None
    triviality_ci = None
    if n_tp_sampled > 0:
        trivial = sum(
            1
            for r in sample.rows
            if r.cell == "TP"
            and ann_by_id.get(r.case_id) is not None
            and ann_by_id[r.case_id].triviality is Triviality.TRIVIAL
        )
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
        for row in sample.rows:
            ann = ann_by_id.get(row.case_id)
            if ann is None:
                continue
            category = row.strata.get(attr, "unknown")
            bucket = breakdown.setdefault(category, {})
            for tag in ann.categories:
                bucket[tag.value] = bucket.get(tag.value, 0) + 1
        if breakdown:
            per_subgroup[attr] = breakdown

    observed_tags = {t.value for a in annotations for t in a.categories}
    remedial = sorted(REMEDIAL_ACTIONS[t] for t in observed_tags)

    verdict_changes = sum(1 for a in annotations if a.verdict is not None)

    return ScleSummary(
        no_findings=False,
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


def annotations_to_json_dict(annotations: Sequence[ScleAnnotation]) -> dict:
    return {
        "kind": "scle_annotations",
        "annotations": [
            {
                "case_id": a.case_id,
                "reviewer": a.reviewer,
                "categories": [c.value for c in a.categories],
                "triviality": a.triviality.value if a.triviality else None,
                "note": a.note,
                "verdict": a.verdict.value if a.verdict else None,
            }
            for a in annotations
        ],
    }


def annotations_from_json_dict(data: dict) -> list[ScleAnnotation]:
    if data.get("kind") != "scle_annotations":
        raise InputError("not a serialized annotations document")
    out = []
    for a in data["annotations"]:
        out.append(
            ScleAnnotation(
                case_id=a["case_id"],
                reviewer=a.get("reviewer", ""),
                categories=tuple(TagCategory(c) for c in a.get("categories", [])),
                triviality=Triviality(a["triviality"]) if a.get("triviality") else None,
                note=a.get("note", ""),
                verdict=ReferenceLabel.parse(a["verdict"]) if a.get("verdict") else None,
            )
        )
    return out


def apply_verdicts(dataset: Dataset, annotations: Sequence[ScleAnnotation]) -> Dataset:
    """New dataset version with reviewer verdicts applied as reference labels.

    The input dataset is untouched; this is the only sanctioned way reviewer
    corrections reach the reference standard, keeping it auditable. Every
    column but ``reference`` is shared with ``dataset``.
    """
    verdicts = {a.case_id: a.verdict for a in annotations if a.verdict is not None}
    cols = dataset.columns
    ids = cols.case_id.tolist()
    unknown = set(verdicts).difference(ids)
    if unknown:
        raise InputError(f"verdicts for unknown case ids: {sorted(unknown)}")
    reference = np.array(cols.reference)
    labels = tuple(ReferenceLabel)
    for i, case_id in enumerate(ids):
        if case_id in verdicts:
            reference[i] = labels.index(verdicts[case_id])
    metadata = dataset.metadata
    metadata["verdicts_applied"] = metadata.get("verdicts_applied", 0) + len(verdicts)
    return Dataset._from_columns(replace(cols, reference=reference), dataset.design, metadata)
