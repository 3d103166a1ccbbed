import numpy as np
import pytest

from rareval.curves import (
    CostSpec,
    WarningConfig,
    auc,
    curve_to_csv,
    expected_cost,
    pr_curve,
    rare_event_warnings,
    roc_curve,
    select_operating_point,
)
from rareval.datamodel import Dataset
from rareval.errors import InputError
from rareval.synth import EnrichmentRule, PopulationSpec, generate

from conftest import make_case


def pairwise_auc_oracle(dataset):
    """Exhaustive rank-probability: P(random positive outranked by none), ties half."""
    pos = np.array([c.score for c in dataset.cases if c.reference.value == "positive"])
    neg = np.array([c.score for c in dataset.cases if c.reference.value == "negative"])
    diff = pos[:, None] - neg[None, :]
    return float((np.sum(diff > 0) + 0.5 * np.sum(diff == 0)) / (len(pos) * len(neg)))


class TestSweep:
    def test_perfectly_separable(self):
        ds = Dataset([make_case("p", "positive", score=0.9), make_case("n", "negative", score=0.1)])
        curve = pr_curve(ds)
        middle = [p for p in curve if p.predicted_positive_count == 1]
        assert middle[0].recall == 1.0
        assert middle[0].precision == 1.0

    def test_point_ordering_and_identities(self):
        result = generate(PopulationSpec(n=500, prevalence=0.2, seed=3))
        curve = pr_curve(result.dataset)
        thresholds = [p.threshold for p in curve]
        assert thresholds == sorted(thresholds, reverse=True)
        assert len(set(thresholds)) == len(thresholds)
        recalls = [p.recall for p in curve]
        assert recalls == sorted(recalls)
        for p in curve:
            assert abs(p.fpr - (1.0 - p.specificity)) < 1e-12
        assert curve[0].predicted_positive_count == 0
        assert curve[0].precision is None
        assert curve[-1].recall == 1.0

    def test_pr_and_roc_share_recall_sequence(self):
        result = generate(PopulationSpec(n=300, prevalence=0.3, seed=8))
        pr = pr_curve(result.dataset)
        roc = roc_curve(result.dataset)
        assert [p.recall for p in pr] == [p.recall for p in roc]

    def test_requires_both_classes(self):
        ds = Dataset([make_case("p", "positive", score=0.9)])
        with pytest.raises(InputError, match="positive and one negative"):
            pr_curve(ds)

    def test_random_scores_precision_near_prevalence(self):
        # label-independent scores: interior precision within 2 SE of prevalence
        result = generate(PopulationSpec(n=10_000, prevalence=0.3, separation=0.0, seed=101))
        prevalence = sum(1 for c in result.dataset.cases if c.reference.value == "positive") / 10_000
        curve = pr_curve(result.dataset)
        for point in curve:
            k = point.predicted_positive_count
            if k == 0:
                continue
            se = np.sqrt(prevalence * (1 - prevalence) / k)
            assert abs(point.precision - prevalence) <= 2 * se

    def test_enrichment_optimism_on_unweighted_curve(self):
        from dataclasses import replace

        from rareval.synth import EnrichmentRule

        spec = PopulationSpec(
            n=20_000,
            prevalence=0.01,
            enrichment=(EnrichmentRule(select="negative", inclusion_probability=0.0101),),
            seed=12,
        )
        result = generate(spec)
        weighted_curve = pr_curve(result.dataset)
        naive = Dataset(replace(c, stratum_id=None) for c in result.dataset.cases)
        naive_curve = pr_curve(naive)
        interior = [
            (a, b)
            for a, b in zip(naive_curve, weighted_curve)
            if 0 < a.predicted_positive_count < len(naive.cases)
            and a.precision is not None
            and 0.0 < a.precision < 1.0  # at least one FP and one TP above threshold
        ]
        assert len(interior) > 100
        assert all(a.precision > b.precision for a, b in interior)


    @pytest.mark.parametrize("seed", range(5))
    def test_weighted_sweep_ends_exactly_at_all_positive(self, seed):
        # 1/0.3 is inexact: totals summed in another order than the running
        # sums would leave the last point at fpr 1 +- 1e-14
        spec = PopulationSpec(n=3000, prevalence=0.05, enrichment=(EnrichmentRule("negative", 0.3),), seed=seed)
        curve = pr_curve(generate(spec).dataset)
        assert curve.fpr[-1] == 1.0
        assert curve.recall[-1] == 1.0
        assert curve.specificity[-1] == 0.0


class TestAuc:
    def test_diagonal(self):
        ds = Dataset(
            [make_case("p", "positive", score=0.5), make_case("n", "negative", score=0.5)]
        )
        assert auc(roc_curve(ds)) == pytest.approx(0.5)

    def test_perfectly_separable(self):
        ds = Dataset([make_case("p", "positive", score=0.9), make_case("n", "negative", score=0.1)])
        assert auc(roc_curve(ds)) == 1.0

    def test_reversed_scores_complement(self):
        result = generate(PopulationSpec(n=200, prevalence=0.25, seed=4))
        forward = auc(roc_curve(result.dataset))
        flipped = Dataset(
            [make_case(c.case_id, c.reference, score=-c.score) for c in result.dataset.cases]
        )
        assert auc(roc_curve(flipped)) == pytest.approx(1.0 - forward, abs=1e-9)

    def test_matches_pairwise_oracle_with_ties(self):
        rng = np.random.default_rng(77)
        for trial in range(10):
            scores = rng.choice(np.linspace(0, 1, 17), size=200)
            labels = rng.random(200) < 0.3
            if labels.all() or not labels.any():
                continue
            ds = Dataset(
                [
                    make_case(f"c{i}", "positive" if labels[i] else "negative", score=float(scores[i]))
                    for i in range(200)
                ]
            )
            assert auc(roc_curve(ds)) == pytest.approx(pairwise_auc_oracle(ds), abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(InputError):
            auc([])


class TestOperatingPoint:
    def test_fn_cost_dominates_selects_max_recall(self):
        result = generate(PopulationSpec(n=400, prevalence=0.2, seed=5))
        curve = pr_curve(result.dataset)
        point = select_operating_point(curve, CostSpec(cost_fp=1.0, cost_fn=1e9), 0.2)
        assert point.recall == 1.0

    def test_fp_cost_dominates_selects_min_fpr(self):
        result = generate(PopulationSpec(n=400, prevalence=0.2, seed=5))
        curve = pr_curve(result.dataset)
        point = select_operating_point(curve, CostSpec(cost_fp=1e9, cost_fn=1.0), 0.2)
        assert point.fpr == 0.0

    def test_matches_exhaustive_evaluation(self):
        result = generate(PopulationSpec(n=1000, prevalence=0.1, seed=6))
        curve = pr_curve(result.dataset)
        costs = CostSpec(cost_fp=1.0, cost_fn=25.0)
        point = select_operating_point(curve, costs, 0.01)
        best = min(expected_cost(p, costs, 0.01) for p in curve)
        assert expected_cost(point, costs, 0.01) == best
        # no other point beats it; ties resolve to lower fpr
        for p in curve:
            cost = expected_cost(p, costs, 0.01)
            assert cost > best or p.fpr >= point.fpr

    def test_prevalence_validation(self):
        result = generate(PopulationSpec(n=50, prevalence=0.2, seed=5))
        curve = pr_curve(result.dataset)
        with pytest.raises(InputError):
            select_operating_point(curve, CostSpec(1, 1), 0.0)


class TestWarnings:
    @staticmethod
    def _curve(prevalence=0.5, n=400, seed=9):
        result = generate(PopulationSpec(n=n, prevalence=prevalence, seed=seed))
        return pr_curve(result.dataset)

    def test_auc_warning_fires_below_threshold(self):
        warnings = rare_event_warnings(self._curve(), 0.0007, auc_requested=True)
        assert any(w.code == "auc_low_prevalence" for w in warnings)

    def test_enrichment_warning_cites_ratio(self):
        curve = self._curve(prevalence=0.5)
        warnings = rare_event_warnings(curve, 0.01)
        enrichment = [w for w in warnings if w.code == "enrichment_optimism"]
        assert len(enrichment) == 1
        assert enrichment[0].details["ratio"] == pytest.approx(50.0, rel=0.15)

    def test_f1_without_costs(self):
        warnings = rare_event_warnings(self._curve(prevalence=0.4), 0.4, f1_requested=True)
        assert [w.code for w in warnings] == ["f1_without_costs"]
        assert not rare_event_warnings(
            self._curve(prevalence=0.4), 0.4, f1_requested=True, costs_provided=True
        )

    def test_matched_prevalence_no_requests_is_empty(self):
        assert rare_event_warnings(self._curve(prevalence=0.4), 0.4) == []

    def test_thresholds_are_configurable(self):
        config = WarningConfig(auc_prevalence_threshold=0.5, enrichment_ratio_threshold=1e9)
        warnings = rare_event_warnings(self._curve(prevalence=0.5), 0.2, auc_requested=True, config=config)
        assert [w.code for w in warnings] == ["auc_low_prevalence"]


class TestCsvEmission:
    def test_round_numbers_and_header(self):
        ds = Dataset([make_case("p", "positive", score=0.75), make_case("n", "negative", score=0.25)])
        text = curve_to_csv(pr_curve(ds))
        lines = text.strip().splitlines()
        assert lines[0] == "threshold,recall,precision,specificity,fpr,predicted_positive_count"
        assert lines[1].startswith("inf,")
        assert len(lines) == 4


class TestPrecisionAtKThresholdIdentity:
    def test_identity_with_distinct_scores(self):
        from rareval.metrics import confusion, precision, precision_at_k
        from rareval.datamodel import apply_threshold

        result = generate(PopulationSpec(n=300, prevalence=0.2, seed=13))
        ds = result.dataset
        curve = pr_curve(ds)
        for point in curve:
            k = point.predicted_positive_count
            if k == 0:
                continue
            at_k = precision_at_k(ds, k).estimate.value
            at_threshold = precision(confusion(apply_threshold(ds, point.threshold))).value
            assert at_k == pytest.approx(at_threshold, abs=1e-12)
            assert at_k == pytest.approx(point.precision, abs=1e-12)
