import dataclasses
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from rareval.datamodel import apply_threshold
from rareval.errors import InputError
from rareval.metrics import PROPORTION_METRICS, estimate_metric, f_beta
from rareval.report import (
    CONSIDERATIONS,
    ChecklistItem,
    EvaluationOutputs,
    KEY_QUESTIONS,
    load_report_schema,
    markdown_table,
    prefill_checklist,
    render_report,
    summarize_dataset,
)
from rareval.synth import PopulationSpec, generate
from rareval import curves as curves_mod

GOLDEN = Path(__file__).parent / "golden"


def full_run_outputs():
    """A run with weighted metrics, curves, and SCLE findings; used by the golden test."""
    metrics = []
    for name, value, n_eff in (
        ("recall", 0.8, 179.0),
        ("precision", 0.7, 210.0),
        ("specificity", 0.95, 200.0),
        ("npv", 0.99, 160.0),
    ):
        metrics.append(
            {
                "metric": name,
                "value": value,
                "ci_low": value - 0.05,
                "ci_high": value + 0.04,
                "ci_level": 0.95,
                "n_effective": n_eff,
                "weighted": True,
                "operation": f"metrics.{name}",
                "seed": 7,
            }
        )
    return EvaluationOutputs(
        dataset_summary={
            "n_cases": 400,
            "n_positive": 179,
            "n_negative": 179,
            "n_ambiguous": 2,
            "n_excluded": 1,
            "prevalence": 0.01,
            "weighted": True,
            "strata": [],
            "metadata": {},
        },
        metrics=metrics,
        test_set_prevalence=0.5,
        assumed_deployment_prevalence=0.05,
        enrichment_accounted=True,
        curve_points=[
            {"threshold": None, "recall": 0.0, "precision": None, "specificity": 1.0, "fpr": 0.0, "predicted_positive_count": 0},
            {"threshold": 0.5, "recall": 1.0, "precision": 0.5, "specificity": 0.0, "fpr": 1.0, "predicted_positive_count": 400},
        ],
        auc_value=0.9,
        f1_value=0.7466,
        threshold=0.5,
        warnings=[{"code": "f1_without_costs", "message": "F-scores assume equal error costs", "details": {}}],
        scle_summary={
            "no_findings": False,
            "n_annotations": 9,
            "triviality_rate": 0.3,
            "never_events": [{"case_id": "fn-1", "cell": "FN", "note": ""}],
        },
        subset_reports=[{"attribute": "region", "categories": {}, "heterogeneity": {"p_value": 0.4, "test": "chi-squared", "flagged": False}}],
        stability_report={"n_runs": 3, "unanimity_rate": 0.9, "pairwise_agreement": 0.93, "n_cases": 10, "flip_counts": {}},
        benchmark_present=True,
        seed=7,
        config_hash="abc123",
    )


class TestChecklistItem:
    def test_unsatisfied_requires_rationale(self):
        with pytest.raises(InputError, match="rationale"):
            ChecklistItem("recall", KEY_QUESTIONS["recall"], "unsatisfied")

    def test_unknown_consideration_rejected(self):
        with pytest.raises(InputError):
            ChecklistItem("vibes", "?", "satisfied")

    def test_unknown_status_rejected(self):
        with pytest.raises(InputError):
            ChecklistItem("recall", KEY_QUESTIONS["recall"], "excellent")


class TestPrefill:
    def test_empty_run_all_unsatisfied_or_external(self):
        items = prefill_checklist(EvaluationOutputs())
        assert [i.consideration for i in items] == list(CONSIDERATIONS)
        assert all(i.status in ("unsatisfied", "external_evidence_required") for i in items)

    def test_full_run_matches_hand_built_golden(self):
        golden = json.loads((GOLDEN / "checklist_full_run.json").read_text())["expected"]
        items = prefill_checklist(full_run_outputs())
        assert len(items) == 12
        for item in items:
            expectation = golden[item.consideration]
            assert item.status == expectation["status"], item.consideration
            for fragment in expectation["evidence_contains"]:
                assert any(fragment in e for e in item.evidence), (item.consideration, fragment)
            if item.status != "satisfied":
                assert item.rationale

    def test_missing_robustness_row_unsatisfied(self):
        outputs = full_run_outputs()
        outputs.subset_reports = []
        outputs.stability_report = None
        outputs.resampling_reports = []
        items = {i.consideration: i for i in prefill_checklist(outputs)}
        assert items["robustness"].status == "unsatisfied"
        assert "no subset breakdown" in items["robustness"].rationale

    def test_attestation_lifts_capped_row(self):
        outputs = full_run_outputs()
        outputs.attestations = {"metrics": "reviewed by evaluation board 2031-01-01"}
        items = {i.consideration: i for i in prefill_checklist(outputs)}
        assert items["metrics"].status == "satisfied"
        assert any("attestation" in e for e in items["metrics"].evidence)

    def test_attestation_without_artifacts_only_partial(self):
        outputs = EvaluationOutputs(attestations={"annotation_process": "double annotation, kappa tracked"})
        items = {i.consideration: i for i in prefill_checklist(outputs)}
        assert items["annotation_process"].status == "partial"

    @pytest.mark.parametrize("attestations, message", [
        ({"anotation_process": "reviewed"}, "unknown checklist consideration 'anotation_process'"),
        ({"metrics": " "}, "empty attestation for checklist consideration 'metrics'"),
    ])
    def test_attestation_names_a_row_and_says_something(self, attestations, message):
        with pytest.raises(InputError) as exc:
            prefill_checklist(EvaluationOutputs(attestations=attestations))
        assert str(exc.value) == message

    def test_recall_partial_without_enrichment_accounting(self):
        outputs = full_run_outputs()
        outputs.enrichment_accounted = False
        items = {i.consideration: i for i in prefill_checklist(outputs)}
        assert items["recall"].status == "partial"
        outputs.enrichment_justification = "no enrichment was used in sampling"
        items = {i.consideration: i for i in prefill_checklist(outputs)}
        assert items["recall"].status == "satisfied"


class TestRender:
    def test_minimal_report_schema_valid_and_complete(self):
        outputs = EvaluationOutputs()
        items = prefill_checklist(outputs)
        json_text, md_text = render_report(outputs, items, reproducible=True)
        doc = json.loads(json_text)
        jsonschema.validate(doc, load_report_schema())
        for consideration in CONSIDERATIONS:
            assert consideration in md_text

    def test_reproducible_reports_byte_identical(self):
        outputs = full_run_outputs()
        items = prefill_checklist(outputs)
        a = render_report(outputs, items, reproducible=True)
        b = render_report(outputs, items, reproducible=True)
        assert a == b

    def test_json_round_trips_byte_identically(self):
        from rareval.provenance import canonical_json

        outputs = full_run_outputs()
        json_text, _ = render_report(outputs, prefill_checklist(outputs), reproducible=True)
        assert canonical_json(json.loads(json_text)) == json_text

    def test_markdown_metric_values_verbatim_in_json(self):
        self._assert_metric_cells_in_json(full_run_outputs())

    def test_computed_wilson_bounds_verbatim_in_json(self):
        self._assert_metric_cells_in_json(build_outputs_from_dataset(1, True, True))

    @staticmethod
    def _assert_metric_cells_in_json(outputs):
        json_text, md_text = render_report(outputs, prefill_checklist(outputs), reproducible=True)
        section = md_text.split("## Metrics", 1)[1].split("##", 1)[0]
        metric_rows = [
            l for l in section.splitlines() if any(f"| {m} |" in l for m in PROPORTION_METRICS)
        ]
        assert len(metric_rows) == 4
        for row in metric_rows:
            cells = [c.strip() for c in row.strip("|").split("|")]
            for cell in cells[1:4]:  # value, ci_low, ci_high
                if cell in ("undefined", ""):
                    continue
                assert cell in json_text, cell

    def test_markdown_table(self):
        assert markdown_table(("a", "b"), [(1, "x"), (0.5, None)]) == [
            "| a | b |",
            "|---|---|",
            "| 1 | x |",
            "| 0.5 | None |",
        ]

    def test_outputs_json_dict_is_a_shallow_field_dump(self):
        outputs = build_outputs_from_dataset(2, True, True)
        doc = outputs.to_json_dict()
        assert list(doc) == ["kind", *(f.name for f in dataclasses.fields(EvaluationOutputs))]
        assert doc["curve_points"] is outputs.curve_points  # no deep copy of the sweep
        assert EvaluationOutputs.from_json_dict(doc) == outputs

    def test_checklist_length_enforced(self):
        outputs = EvaluationOutputs()
        with pytest.raises(InputError):
            render_report(outputs, prefill_checklist(outputs)[:5])


def build_outputs_from_dataset(seed, with_curves, with_threshold):
    result = generate(PopulationSpec(n=150, prevalence=0.2, seed=seed))
    ds = apply_threshold(result.dataset, 0.5 if with_threshold else 0.4)
    metrics = []
    for name in PROPORTION_METRICS:
        est = estimate_metric(ds, name)
        entry = est.to_json_dict(name)
        entry["operation"] = f"metrics.{name}"
        entry["seed"] = None
        metrics.append(entry)
    summary = summarize_dataset(ds)
    outputs = EvaluationOutputs(
        dataset_summary=summary,
        metrics=metrics,
        test_set_prevalence=curves_mod.prevalence_of(ds),
        assumed_deployment_prevalence=0.01 if seed % 2 else None,
        threshold=0.5,
        seed=seed,
        config_hash="fuzz",
    )
    by_name = {m["metric"]: m for m in metrics}
    if by_name["precision"]["value"] is not None and by_name["recall"]["value"] is not None:
        outputs.f1_value = f_beta(by_name["precision"]["value"], by_name["recall"]["value"])
    if with_curves:
        sweep = curves_mod.pr_curve(ds)
        outputs.curve_points = [p.to_json_dict() for p in sweep]
        outputs.auc_value = curves_mod.auc(sweep)
    outputs.warnings = [
        w.to_json_dict()
        for w in curves_mod.rare_event_warnings(
            ds, outputs.assumed_deployment_prevalence, auc_requested=with_curves, f1_requested=True
        )
    ]
    return outputs


class TestSchemaFuzz:
    def test_fifty_randomized_runs_validate(self):
        schema = load_report_schema()
        rng = np.random.default_rng(123)
        for i in range(50):
            outputs = build_outputs_from_dataset(
                seed=int(rng.integers(0, 10_000)),
                with_curves=bool(rng.integers(0, 2)),
                with_threshold=bool(rng.integers(0, 2)),
            )
            json_text, md_text = render_report(
                outputs, prefill_checklist(outputs), reproducible=bool(rng.integers(0, 2))
            )
            jsonschema.validate(json.loads(json_text), schema)
            assert md_text.count("| ") > 10
