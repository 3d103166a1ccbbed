"""Checklist instantiation and consolidated evaluation-report generation.

The checklist has twelve fixed considerations. Prefill is deterministic and
conservative: rows whose key question is qualitative are never marked
satisfied from numbers alone; they cap at partial until a human attestation
(supplied via configuration) lifts them. Reports render as one
self-contained, schema-versioned JSON document plus a Markdown view whose
numbers appear verbatim in the JSON. With ``reproducible=True`` timestamps
are omitted so identical inputs yield byte-identical reports.
"""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import dataclass, field, fields

import numpy as np

from .datamodel import Dataset
from .errors import InputError
from .provenance import canonical_json, markdown_table, slot_fields

SCHEMA_VERSION = "2"

# the checklist's rows, in order, with their key questions
KEY_QUESTIONS = {
    "test_sets": (
        "Do the available test sets match the intended use in scope and content, and do "
        "they hold enough representative positive and negative controls?"
    ),
    "annotation_process": (
        "How were positive and negative controls defined and annotated, how were edge "
        "cases handled, and was annotation quality controlled?"
    ),
    "metrics": (
        "Are the chosen performance metrics relevant to the intended use, and do they "
        "jointly cover false positives, false negatives, and output stability?"
    ),
    "recall": (
        "Does the positive-control set span the full difficulty spectrum, and is any "
        "enrichment with positives accounted for in the recall estimate?"
    ),
    "precision": (
        "What is the test-set prevalence of positive controls, how does it compare to "
        "the deployment prevalence, and is enrichment corrected for?"
    ),
    "specificity": (
        "Is specificity high enough for the intended operating point, and was it "
        "estimated from enough negative controls to be reliable?"
    ),
    "decision_thresholds": (
        "Which decision thresholds were evaluated, and do they reflect the relative "
        "costs of false positives and false negatives in the intended use?"
    ),
    "benchmarks": (
        "Was the model compared against relevant, properly tuned benchmark methods, and "
        "on public benchmark test sets where they exist?"
    ),
    "robustness": (
        "Does performance hold up across relevant case subsets, and is there a mechanism "
        "to detect data, model, or performance drift?"
    ),
    "non_triviality": (
        "Are the true positives the model finds non-trivial, or does the test set mostly "
        "reward easy calls?"
    ),
    "types_of_errors": (
        "What kinds of false positives and false negatives occur, and are they acceptable "
        "and explainable for the intended use?"
    ),
    "human_ai_interaction": (
        "How will humans and the model share the task in deployment, and was that "
        "interaction reflected in the evaluation?"
    ),
}
CONSIDERATIONS = tuple(KEY_QUESTIONS)

STATUSES = ("satisfied", "partial", "unsatisfied", "not_applicable", "external_evidence_required")

# rows whose key question cannot be answered by computed numbers alone;
# attestation via configuration is required to reach "satisfied"
QUALITATIVE_ROWS = frozenset(
    {
        "test_sets",
        "annotation_process",
        "metrics",
        "specificity",
        "benchmarks",
        "non_triviality",
        "types_of_errors",
    }
)


@dataclass(frozen=True, slots=True)
class ChecklistItem:
    consideration: str
    key_questions: str
    status: str
    evidence: tuple[str, ...] = ()
    rationale: str = ""

    def __post_init__(self):
        if self.consideration not in CONSIDERATIONS:
            raise InputError(f"unknown consideration {self.consideration!r}")
        if self.status not in STATUSES:
            raise InputError(f"unknown status {self.status!r}")
        if self.status != "satisfied" and not self.rationale:
            raise InputError(
                f"checklist row {self.consideration!r}: status {self.status!r} requires a rationale"
            )

    to_json_dict = slot_fields


# the Python types of the JSON values that each name in a field's annotation admits
_JSON_TYPES = {"dict": dict, "list": list, "str": str, "bool": bool, "int": int, "float": (int, float),
               "None": type(None)}


@dataclass(slots=True)
class EvaluationOutputs:
    """Everything one evaluation run produced, in JSON-compatible form."""

    dataset_summary: dict | None = None
    metrics: list = field(default_factory=list)
    test_set_prevalence: float | None = None
    assumed_deployment_prevalence: float | None = None
    enrichment_accounted: bool = False
    enrichment_justification: str | None = None
    curve_points: list | None = None  # bounded: ROC hull vertices plus the operating point
    curve_n_points: int = 0  # the full sweep, written to curve_file
    curve_file: dict | None = None  # {"path": ..., "sha256": ...}
    auc_value: float | None = None
    f1_value: float | None = None
    costs: dict | None = None
    operating_point: dict | None = None
    threshold: float | None = None
    warnings: list = field(default_factory=list)
    scle_summary: dict | None = None
    subset_reports: list = field(default_factory=list)
    stability_report: dict | None = None
    resampling_reports: list = field(default_factory=list)
    benchmark_present: bool = False
    concordance: dict | None = None
    power_results: dict | None = None
    attestations: dict = field(default_factory=dict)
    seed: int | None = None
    config_hash: str | None = None

    def to_json_dict(self) -> dict:
        return {"kind": "evaluation_outputs", **slot_fields(self)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "EvaluationOutputs":
        if data.get("kind") != "evaluation_outputs":
            raise InputError("not a serialized evaluation-outputs document")
        kwargs, types = {k: v for k, v in data.items() if k != "kind"}, {f.name: f.type for f in fields(cls)}
        out = cls()
        for key, value in kwargs.items():
            if key not in types:
                raise InputError(f"unknown evaluation-outputs field {key!r}")
            _check_json_type(key, value, types[key])
            setattr(out, key, value)
        for key, inner in (("metrics", "metric"), ("warnings", "code")):  # the nested values the checklist reads
            for i, item in enumerate(getattr(out, key)):
                _check_json_type(f"{key}[{i}].{inner}", item.get(inner), "str | None")
        if out.scle_summary:
            _check_json_type("scle_summary.never_events", out.scle_summary.get("never_events"), "list | None")
        return out


def _check_json_type(path: str, value, annotation: str) -> None:
    """Reject an evaluation-outputs value whose JSON type ``annotation`` does not admit; a list must hold objects."""
    admitted = tuple(_JSON_TYPES[name] for name in annotation.split(" | "))
    objects = not isinstance(value, list) or all(isinstance(v, dict) for v in value)
    if not (isinstance(value, admitted) and objects):
        expected = annotation.replace("list", "list of objects")
        raise InputError(f"evaluation-outputs field {path!r} must be {expected}, got {type(value).__name__}")


def summarize_dataset(dataset: Dataset) -> dict:
    counts = dataset.label_counts()
    per_stratum = np.bincount(dataset.columns.stratum, minlength=len(dataset.design)) if dataset.weighted else ()
    labeled = counts["positive"] + counts["negative"]
    return {
        "n_cases": len(dataset),
        "n_positive": counts["positive"],
        "n_negative": counts["negative"],
        "n_ambiguous": counts["ambiguous"],
        "n_excluded": counts["excluded"],
        "prevalence": counts["positive"] / labeled if labeled else None,
        "weighted": dataset.weighted,
        "strata": [
            {"stratum_id": s.stratum_id, "inclusion_probability": s.inclusion_probability, "n_cases": int(k)}
            for s, k in zip(dataset.design, per_stratum)
        ],
        "metadata": dataset.metadata,
    }


def _prefill_row(row: str, o: EvaluationOutputs) -> tuple[str, list[str], str]:
    """(status, evidence, rationale) of one checklist row, from the run's outputs alone."""
    names = {m.get("metric") for m in o.metrics}
    scle = o.scle_summary or {}
    if row == "test_sets":
        if not o.dataset_summary:
            return "unsatisfied", [], "no dataset descriptives available"
        keys = ("n_positive", "n_negative", "n_ambiguous", "prevalence")
        evidence = [f"dataset.{k}={o.dataset_summary.get(k)}" for k in keys]
        return "partial", evidence, "descriptives computed; alignment with the intended use needs human judgment"
    if row == "annotation_process":
        return "unsatisfied", [], "annotation criteria and quality control are not derivable from run outputs"
    if row == "metrics":
        if not names:
            return "unsatisfied", [], "no metrics were computed"
        evidence = [f"metrics.{n}" for n in sorted(n for n in names if n)]
        return "partial", evidence, "metrics computed; their relevance to the intended use needs human judgment"
    if row in ("recall", "precision", "specificity") and row not in names:
        return "unsatisfied", [], f"{row} was not computed"
    if row == "recall":
        if o.enrichment_accounted:
            return "satisfied", ["metrics.recall", "design.weighted=true"], ""
        if o.enrichment_justification:
            return "satisfied", ["metrics.recall", f"enrichment_justification: {o.enrichment_justification}"], ""
        return "partial", ["metrics.recall"], (
            "recall computed without enrichment accounting (no weighted design or justification)"
        )
    if row == "precision":
        optimism = "enrichment_optimism" in {w.get("code") for w in o.warnings}
        evidence = ["metrics.precision", f"test_set_prevalence={o.test_set_prevalence}"]
        if o.assumed_deployment_prevalence is not None:
            evidence.append(f"assumed_deployment_prevalence={o.assumed_deployment_prevalence}")
        evidence += ["curves.warnings.enrichment_optimism"] if optimism else []
        if o.enrichment_accounted:
            return "satisfied", evidence + ["design.weighted=true"], ""
        if optimism:
            return "partial", evidence, (
                "test-set prevalence far exceeds the assumed deployment prevalence and no weighting was applied"
            )
        if o.assumed_deployment_prevalence is None:
            return "partial", evidence, "no assumed deployment prevalence was provided for comparison"
        return "satisfied", evidence, ""
    if row == "specificity":
        spec = next(m for m in o.metrics if m.get("metric") == "specificity")
        return "partial", ["metrics.specificity", f"n_effective={spec.get('n_effective')}"], (
            "specificity computed; adequacy for the operating point needs human judgment"
        )
    if row == "decision_thresholds":
        if o.operating_point is not None and o.costs is not None:
            return "satisfied", ["curves.select_operating_point", f"costs={o.costs}"], ""
        if not o.curve_points and o.threshold is None:
            return "unsatisfied", [], "no threshold analysis was performed"
        evidence = ["curves.sweep"] if o.curve_points else []
        evidence += [f"threshold={o.threshold}"] if o.threshold is not None else []
        return "partial", evidence, "thresholds examined without an explicit error-cost specification"
    if row == "benchmarks":
        if not o.benchmark_present:
            return "unsatisfied", [], "no benchmark comparison available"
        return "partial", ["dataset.benchmark_predicted"], (
            "benchmark labels present; benchmark adequacy needs human judgment"
        )
    if row == "robustness":
        evidence = [
            name
            for present, name in (
                (o.subset_reports, "robustness.subset_metrics"),
                (o.stability_report, "robustness.stability"),
                (o.resampling_reports, "robustness.resampling_variability"),
            )
            if present
        ]
        if not evidence:
            return "unsatisfied", [], "no subset breakdown, stability, or resampling analysis was run"
        return "partial", evidence + ["drift monitoring: external evidence required"], (
            "subset/stability analyses present; drift detection needs external evidence"
        )
    if row == "non_triviality":
        if scle.get("triviality_rate") is None:
            return "unsatisfied", [], "no case-level examination of true positives available"
        return "partial", [f"scle.triviality_rate={scle['triviality_rate']}"], (
            "triviality rate measured; interpretation against the intended use needs human judgment"
        )
    if row == "types_of_errors":
        if scle.get("no_findings", True):
            return "unsatisfied", [], "no reviewed false positives or false negatives available"
        never = scle.get("never_events")
        evidence = ["scle.aggregate"] + ([f"scle.never_events={len(never)}"] if never else [])
        return "partial", evidence, "error review findings present; acceptability needs human judgment"
    if o.concordance is None:  # human_ai_interaction
        return "external_evidence_required", [], (
            "human-AI interaction cannot be assessed from a static evaluation run"
        )
    return "partial", [
        f"metrics.concordance={o.concordance.get('concordance')}",
        f"metrics.override_rate={o.concordance.get('override_rate')}",
    ], "concordance and override rate computed; workflow integration needs external evidence"


def _finish(
    consideration: str,
    status: str,
    evidence: list[str],
    rationale: str,
    attestations: dict,
) -> ChecklistItem:
    attestation = attestations.get(consideration)
    if attestation:
        evidence = [*evidence, f"attestation: {attestation}"]
        if status == "partial":
            status = "satisfied"
            rationale = ""
        elif status in ("unsatisfied", "external_evidence_required"):
            status = "partial"
            rationale = f"attested but unsupported by computed artifacts: {attestation}"
    return ChecklistItem(
        consideration=consideration,
        key_questions=KEY_QUESTIONS[consideration],
        status=status,
        evidence=tuple(evidence),
        rationale=rationale,
    )


def prefill_checklist(outputs: EvaluationOutputs) -> list[ChecklistItem]:
    """Deterministically map run outputs onto the twelve checklist rows."""
    attestations = outputs.attestations or {}
    items = [_finish(row, *_prefill_row(row, outputs), attestations) for row in CONSIDERATIONS]
    for item in items:
        # numbers alone never satisfy a qualitative row; only attestation can
        if item.consideration in QUALITATIVE_ROWS and item.status == "satisfied":
            assert any(e.startswith("attestation:") for e in item.evidence), item.consideration
    return items


def load_report_schema() -> dict:
    """The published, versioned JSON schema for report documents."""
    ref = importlib.resources.files("rareval").joinpath(f"schemas/report-v{SCHEMA_VERSION}.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def _fmt(value) -> str:
    """Format a number exactly as json.dumps will, so Markdown matches JSON."""
    if value is None:
        return "undefined"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_report(
    outputs: EvaluationOutputs,
    checklist: list[ChecklistItem],
    reproducible: bool = False,
    generated_at: str | None = None,
) -> tuple[str, str]:
    """Render the consolidated report; returns (json_text, markdown_text)."""
    if len(checklist) != len(CONSIDERATIONS):
        raise InputError(f"checklist must contain exactly {len(CONSIDERATIONS)} rows")

    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "evaluation_report",
        "seed": outputs.seed,
        "config_hash": outputs.config_hash,
        "dataset": outputs.dataset_summary,
        "metrics": outputs.metrics,
        "curves": {
            "auc": outputs.auc_value,
            "f1": outputs.f1_value,
            "n_points": outputs.curve_n_points,
            "file": outputs.curve_file,
            "points": outputs.curve_points or [],
            "operating_point": outputs.operating_point,
            "threshold": outputs.threshold,
        },
        "assumed_deployment_prevalence": outputs.assumed_deployment_prevalence,
        "test_set_prevalence": outputs.test_set_prevalence,
        "warnings": outputs.warnings,
        "scle": outputs.scle_summary,
        "robustness": {
            "subsets": outputs.subset_reports,
            "stability": outputs.stability_report,
            "resampling": outputs.resampling_reports,
        },
        "design": outputs.power_results,
        "concordance": outputs.concordance,
        "checklist": [item.to_json_dict() for item in checklist],
    }
    if not reproducible:
        doc["generated_at"] = generated_at or "unspecified"

    json_text = canonical_json(doc)
    md_text = _render_markdown(doc)
    return json_text, md_text


def _render_markdown(doc: dict) -> str:
    lines = ["# Evaluation report", ""]
    if doc.get("generated_at"):
        lines.append(f"Generated at: {doc['generated_at']}")
    lines.append(f"Seed: {_fmt(doc.get('seed'))}")
    if doc.get("config_hash"):
        lines.append(f"Config hash: `{doc['config_hash']}`")
    lines.append("")

    ds = doc.get("dataset")
    if ds:
        lines += ["## Dataset", ""]
        lines += markdown_table(
            ("quantity", "value"),
            (
                (key, _fmt(ds.get(key)))
                for key in ("n_cases", "n_positive", "n_negative", "n_ambiguous", "n_excluded", "prevalence")
            ),
        )
        if ds.get("strata"):
            lines.append("")
            lines.append("Strata (stratum_id, inclusion_probability, n):")
            for s in ds["strata"]:
                lines.append(
                    f"- {s['stratum_id']}: p={_fmt(s['inclusion_probability'])}, n={s['n_cases']}"
                )
        lines.append("")

    if doc.get("metrics"):
        lines += ["## Metrics", ""]
        columns = ("value", "ci_low", "ci_high", "ci_level", "n_effective", "weighted")
        lines += markdown_table(
            ("metric", *columns), ((m["metric"], *(_fmt(m[c]) for c in columns)) for m in doc["metrics"])
        )
        lines.append("")

    curves = doc.get("curves") or {}
    if curves.get("n_points"):
        lines += ["## Threshold sweep", ""]
        lines.append(f"Curve points: {curves['n_points']}")
        if curves.get("file"):
            lines.append(f"Curve file: `{curves['file']['path']}` (sha256 `{curves['file']['sha256']}`)")
        if curves.get("auc") is not None:
            lines.append(f"ROC AUC: {_fmt(curves['auc'])}")
        if curves.get("f1") is not None:
            lines.append(f"F1 at operating point: {_fmt(curves['f1'])}")
        if curves.get("threshold") is not None:
            lines.append(f"Threshold: {_fmt(curves['threshold'])}")
        op = curves.get("operating_point")
        if op:
            lines.append(
                f"Selected operating point: threshold={_fmt(op.get('threshold'))}, "
                f"recall={_fmt(op.get('recall'))}, fpr={_fmt(op.get('fpr'))}"
            )
        lines.append("")

    if doc.get("warnings"):
        lines += ["## Warnings", ""]
        for w in doc["warnings"]:
            lines.append(f"- `{w['code']}`: {w['message']}")
        lines.append("")

    # a result's own module renders it; each rendering ends in a newline, so a blank line follows
    if doc.get("scle"):
        from . import scle

        lines.append(scle.summary_markdown(doc["scle"]))

    robustness = doc.get("robustness") or {}
    if robustness.get("subsets"):
        from . import robustness as robustness_mod

        lines += map(robustness_mod.subsets_markdown, robustness["subsets"])
    if robustness.get("stability") or robustness.get("resampling"):
        lines += ["## Robustness", ""]
        st = robustness.get("stability")
        if st:
            lines.append(
                f"Stability: unanimity={_fmt(st.get('unanimity_rate'))}, "
                f"pairwise agreement={_fmt(st.get('pairwise_agreement'))} over {st.get('n_runs')} runs"
            )
        for rs in robustness.get("resampling") or []:
            lines.append(
                f"Resampling ({rs['scheme']}, n={rs['n']}): {rs['metric']} mean={_fmt(rs['mean'])}, "
                f"std={_fmt(rs['std'])}"
            )
        lines.append("")

    if doc.get("design"):
        d = doc["design"]
        lines += ["## Study design", ""]
        lines.append(
            f"Simulated power: {_fmt(d.get('power'))} (mc_stderr={_fmt(d.get('mc_stderr'))}, "
            f"replicates={d.get('n_replicates')}, seed={d.get('seed')})"
        )
        lines.append("")

    lines += ["## Checklist", "", checklist_markdown(doc["checklist"])]
    return "\n".join(lines)


def checklist_markdown(rows: list[dict]) -> str:
    """The checklist's Markdown table, from its rows' JSON form; the report and ``checklist.md`` share it."""
    return "\n".join(markdown_table(
        ("consideration", "status", "evidence", "rationale"),
        (
            (row["consideration"], row["status"], "; ".join(row["evidence"]) or "-", row["rationale"] or "-")
            for row in rows
        ),
    )) + "\n"
