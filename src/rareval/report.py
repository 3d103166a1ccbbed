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
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .datamodel import Dataset
from .errors import InputError
from .provenance import canonical_json, slot_fields

SCHEMA_VERSION = "1"

CONSIDERATIONS = (
    "test_sets",
    "annotation_process",
    "metrics",
    "recall",
    "precision",
    "specificity",
    "decision_thresholds",
    "benchmarks",
    "robustness",
    "non_triviality",
    "types_of_errors",
    "human_ai_interaction",
)

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


@dataclass(slots=True)
class EvaluationOutputs:
    """Everything one evaluation run produced, in JSON-compatible form."""

    dataset_summary: dict | None = None
    metrics: list = field(default_factory=list)
    test_set_prevalence: float | None = None
    assumed_deployment_prevalence: float | None = None
    enrichment_accounted: bool = False
    enrichment_justification: str | None = None
    curve_points: list | None = None
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
        kwargs = {k: v for k, v in data.items() if k != "kind"}
        out = cls()
        for key, value in kwargs.items():
            if not hasattr(out, key):
                raise InputError(f"unknown evaluation-outputs field {key!r}")
            setattr(out, key, value)
        return out


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


def _metric_names(outputs: EvaluationOutputs) -> set[str]:
    return {m.get("metric") for m in outputs.metrics}


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
    att = outputs.attestations or {}
    items: list[ChecklistItem] = []
    names = _metric_names(outputs)
    warning_codes = {w.get("code") for w in outputs.warnings}

    # test_sets
    if outputs.dataset_summary:
        ds = outputs.dataset_summary
        evidence = [
            f"dataset.n_positive={ds.get('n_positive')}",
            f"dataset.n_negative={ds.get('n_negative')}",
            f"dataset.n_ambiguous={ds.get('n_ambiguous')}",
            f"dataset.prevalence={ds.get('prevalence')}",
        ]
        items.append(
            _finish(
                "test_sets",
                "partial",
                evidence,
                "descriptives computed; alignment with the intended use needs human judgment",
                att,
            )
        )
    else:
        items.append(
            _finish("test_sets", "unsatisfied", [], "no dataset descriptives available", att)
        )

    # annotation_process
    items.append(
        _finish(
            "annotation_process",
            "unsatisfied",
            [],
            "annotation criteria and quality control are not derivable from run outputs",
            att,
        )
    )

    # metrics
    if names:
        items.append(
            _finish(
                "metrics",
                "partial",
                [f"metrics.{n}" for n in sorted(n for n in names if n)],
                "metrics computed; their relevance to the intended use needs human judgment",
                att,
            )
        )
    else:
        items.append(_finish("metrics", "unsatisfied", [], "no metrics were computed", att))

    # recall
    if "recall" in names:
        if outputs.enrichment_accounted:
            items.append(
                _finish(
                    "recall",
                    "satisfied",
                    ["metrics.recall", "design.weighted=true"],
                    "",
                    att,
                )
            )
        elif outputs.enrichment_justification:
            items.append(
                _finish(
                    "recall",
                    "satisfied",
                    ["metrics.recall", f"enrichment_justification: {outputs.enrichment_justification}"],
                    "",
                    att,
                )
            )
        else:
            items.append(
                _finish(
                    "recall",
                    "partial",
                    ["metrics.recall"],
                    "recall computed without enrichment accounting (no weighted design or justification)",
                    att,
                )
            )
    else:
        items.append(_finish("recall", "unsatisfied", [], "recall was not computed", att))

    # precision
    if "precision" in names:
        evidence = ["metrics.precision", f"test_set_prevalence={outputs.test_set_prevalence}"]
        if outputs.assumed_deployment_prevalence is not None:
            evidence.append(f"assumed_deployment_prevalence={outputs.assumed_deployment_prevalence}")
        if "enrichment_optimism" in warning_codes:
            evidence.append("curves.warnings.enrichment_optimism")
        if outputs.enrichment_accounted:
            items.append(_finish("precision", "satisfied", evidence + ["design.weighted=true"], "", att))
        elif "enrichment_optimism" in warning_codes:
            items.append(
                _finish(
                    "precision",
                    "partial",
                    evidence,
                    "test-set prevalence far exceeds the assumed deployment prevalence and no "
                    "weighting was applied",
                    att,
                )
            )
        elif outputs.assumed_deployment_prevalence is None:
            items.append(
                _finish(
                    "precision",
                    "partial",
                    evidence,
                    "no assumed deployment prevalence was provided for comparison",
                    att,
                )
            )
        else:
            items.append(_finish("precision", "satisfied", evidence, "", att))
    else:
        items.append(_finish("precision", "unsatisfied", [], "precision was not computed", att))

    # specificity
    if "specificity" in names:
        spec = next(m for m in outputs.metrics if m.get("metric") == "specificity")
        items.append(
            _finish(
                "specificity",
                "partial",
                ["metrics.specificity", f"n_effective={spec.get('n_effective')}"],
                "specificity computed; adequacy for the operating point needs human judgment",
                att,
            )
        )
    else:
        items.append(
            _finish("specificity", "unsatisfied", [], "specificity was not computed", att)
        )

    # decision_thresholds
    if outputs.operating_point is not None and outputs.costs is not None:
        items.append(
            _finish(
                "decision_thresholds",
                "satisfied",
                ["curves.select_operating_point", f"costs={outputs.costs}"],
                "",
                att,
            )
        )
    elif outputs.curve_points or outputs.threshold is not None:
        evidence = []
        if outputs.curve_points:
            evidence.append("curves.sweep")
        if outputs.threshold is not None:
            evidence.append(f"threshold={outputs.threshold}")
        items.append(
            _finish(
                "decision_thresholds",
                "partial",
                evidence,
                "thresholds examined without an explicit error-cost specification",
                att,
            )
        )
    else:
        items.append(
            _finish(
                "decision_thresholds",
                "unsatisfied",
                [],
                "no threshold analysis was performed",
                att,
            )
        )

    # benchmarks
    if outputs.benchmark_present:
        items.append(
            _finish(
                "benchmarks",
                "partial",
                ["dataset.benchmark_predicted"],
                "benchmark labels present; benchmark adequacy needs human judgment",
                att,
            )
        )
    else:
        items.append(
            _finish("benchmarks", "unsatisfied", [], "no benchmark comparison available", att)
        )

    # robustness
    robustness_evidence = []
    if outputs.subset_reports:
        robustness_evidence.append("robustness.subset_metrics")
    if outputs.stability_report:
        robustness_evidence.append("robustness.stability")
    if outputs.resampling_reports:
        robustness_evidence.append("robustness.resampling_variability")
    if robustness_evidence:
        items.append(
            _finish(
                "robustness",
                "partial",
                robustness_evidence + ["drift monitoring: external evidence required"],
                "subset/stability analyses present; drift detection needs external evidence",
                att,
            )
        )
    else:
        items.append(
            _finish(
                "robustness",
                "unsatisfied",
                [],
                "no subset breakdown, stability, or resampling analysis was run",
                att,
            )
        )

    # non_triviality
    scle = outputs.scle_summary
    if scle and scle.get("triviality_rate") is not None:
        items.append(
            _finish(
                "non_triviality",
                "partial",
                [f"scle.triviality_rate={scle['triviality_rate']}"],
                "triviality rate measured; interpretation against the intended use needs human judgment",
                att,
            )
        )
    else:
        items.append(
            _finish(
                "non_triviality",
                "unsatisfied",
                [],
                "no case-level examination of true positives available",
                att,
            )
        )

    # types_of_errors
    if scle and not scle.get("no_findings", True):
        evidence = ["scle.aggregate"]
        if scle.get("never_events"):
            evidence.append(f"scle.never_events={len(scle['never_events'])}")
        items.append(
            _finish(
                "types_of_errors",
                "partial",
                evidence,
                "error review findings present; acceptability needs human judgment",
                att,
            )
        )
    else:
        items.append(
            _finish(
                "types_of_errors",
                "unsatisfied",
                [],
                "no reviewed false positives or false negatives available",
                att,
            )
        )

    # human_ai_interaction
    if outputs.concordance is not None:
        items.append(
            _finish(
                "human_ai_interaction",
                "partial",
                [
                    f"metrics.concordance={outputs.concordance.get('concordance')}",
                    f"metrics.override_rate={outputs.concordance.get('override_rate')}",
                ],
                "concordance and override rate computed; workflow integration needs external evidence",
                att,
            )
        )
    else:
        items.append(
            _finish(
                "human_ai_interaction",
                "external_evidence_required",
                [],
                "human-AI interaction cannot be assessed from a static evaluation run",
                att,
            )
        )

    assert [i.consideration for i in items] == list(CONSIDERATIONS)
    for item in items:
        # numbers alone never satisfy a qualitative row; only attestation can
        if item.consideration in QUALITATIVE_ROWS and item.status == "satisfied":
            assert any(e.startswith("attestation:") for e in item.evidence), item.consideration
    return items


def load_report_schema() -> dict:
    """The published, versioned JSON schema for report documents."""
    ref = importlib.resources.files("rareval").joinpath("schemas/report-v1.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def markdown_table(header: Sequence[str], rows: Iterable[Sequence]) -> list[str]:
    """Lines of a Markdown pipe table; cells are rendered with ``str``."""
    lines = ["| " + " | ".join(header) + " |", "|---" * len(header) + "|"]
    lines += ["| " + " | ".join(str(cell) for cell in row) + " |" for row in rows]
    return lines


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
            "n_points": len(outputs.curve_points) if outputs.curve_points else 0,
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

    scle = doc.get("scle")
    if scle:
        lines += ["## Case-level examination", ""]
        if scle.get("no_findings"):
            lines.append("No findings: no annotations were returned.")
        else:
            lines.append(f"Annotations: {scle.get('n_annotations')}")
            if scle.get("triviality_rate") is not None:
                lines.append(f"Triviality rate among sampled true positives: {_fmt(scle['triviality_rate'])}")
            for item in scle.get("never_events", []):
                note = f" - {item['note']}" if item.get("note") else ""
                lines.append(f"- NEVER EVENT: `{item['case_id']}` [{item['cell']}]{note}")
        lines.append("")

    robustness = doc.get("robustness") or {}
    if robustness.get("subsets") or robustness.get("stability") or robustness.get("resampling"):
        lines += ["## Robustness", ""]
        for sub in robustness.get("subsets", []):
            lines.append(f"Subset breakdown by `{sub['attribute']}`:")
            h = sub.get("heterogeneity", {})
            lines.append(
                f"- error-clustering screen: p={_fmt(h.get('p_value'))} ({h.get('test')}), "
                f"flagged={_fmt(h.get('flagged'))}"
            )
            for category, entry in sorted(sub.get("categories", {}).items()):
                parts = [f"n={entry['n']}"]
                for name, est in sorted(entry.get("metrics", {}).items()):
                    parts.append(f"{name}={_fmt(est.get('value'))}")
                lines.append(f"- {category}: " + ", ".join(parts))
        st = robustness.get("stability")
        if st:
            lines.append(
                f"Stability: unanimity={_fmt(st.get('unanimity_rate'))}, "
                f"pairwise agreement={_fmt(st.get('pairwise_agreement'))} over {st.get('n_runs')} runs"
            )
        for rs in robustness.get("resampling", []):
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

    lines += ["## Checklist", ""]
    lines += markdown_table(
        ("consideration", "status", "evidence", "rationale"),
        (
            (
                item["consideration"],
                item["status"],
                "; ".join(item["evidence"]) if item["evidence"] else "-",
                item["rationale"] or "-",
            )
            for item in doc["checklist"]
        ),
    )
    lines.append("")
    return "\n".join(lines)
