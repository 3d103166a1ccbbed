import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rareval.datamodel import Dataset, StratumSpec, apply_threshold
from rareval.errors import InputError
from rareval.metrics import (
    ConfusionCounts,
    MetricEstimate,
    bayes_adjusted_precision,
    bootstrap_metric,
    concordance_and_override,
    confusion,
    estimate_metric,
    f_beta,
    npv,
    percentile_interval,
    precision,
    precision_at_k,
    recall,
    specificity,
    wilson_interval,
)
from rareval.provenance import MOST_ARRAY_VALUES
from rareval.synth import EnrichmentRule, PopulationSpec, generate

from conftest import dataset_from_counts, make_case


class TestConfusion:
    def test_direct_count(self, small_dataset):
        counts = confusion(small_dataset)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (2, 1, 1, 6)
        assert counts.weighted is False

    def test_ambiguous_never_counted(self):
        ds = dataset_from_counts(tp=2, fp=1, fn=1, tn=6, ambiguous=5)
        counts = confusion(ds)
        assert counts.total == 10

    def test_uniform_weights_double_counts(self):
        cases = [
            make_case(f"p{i}", "positive", predicted=i < 2, stratum_id="s") for i in range(3)
        ] + [make_case(f"n{i}", "negative", predicted=i == 0, stratum_id="s") for i in range(7)]
        ds = Dataset(cases, design=[StratumSpec("s", 0.5)])
        counts = confusion(ds)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (4, 2, 2, 12)
        assert counts.weighted is True
        # ratios unchanged
        assert recall(counts).value == pytest.approx(2 / 3)
        assert precision(counts).value == pytest.approx(2 / 3)

    def test_missing_prediction_names_case(self):
        ds = Dataset([make_case("only", "positive", score=0.4)])
        with pytest.raises(InputError, match="'only'"):
            confusion(ds)


class TestProportionMetrics:
    def test_recall_pregnancy_value(self):
        assert recall(ConfusionCounts(75, 0, 25, 0)).value == 0.75

    def test_recall_undefined(self):
        est = recall(ConfusionCounts(0, 5, 0, 5))
        assert est.value is None and est.ci_low is None

    def test_recall_redaction_value(self):
        assert recall(ConfusionCounts(178, 0, 1, 0)).value == pytest.approx(178 / 179)

    def test_precision_redaction_value(self):
        assert precision(ConfusionCounts(55, 45, 0, 0)).value == 0.55

    def test_precision_undefined(self):
        assert precision(ConfusionCounts(0, 0, 3, 4)).value is None

    def test_specificity_values(self):
        assert specificity(ConfusionCounts(0, 5, 0, 9995)).value == 0.9995
        assert specificity(ConfusionCounts(0, 0, 0, 7)).value == 1.0
        assert specificity(ConfusionCounts(0, 2, 0, 98)).value == 0.98

    def test_npv_values(self):
        assert npv(ConfusionCounts(0, 0, 0, 6)).value == 1.0
        assert npv(ConfusionCounts(1, 1, 0, 0)).value is None
        assert npv(ConfusionCounts(0, 0, 1, 263093)).value == pytest.approx(263093 / 263094)

    def test_ci_brackets_value(self, small_dataset):
        counts = confusion(small_dataset)
        for metric in (recall, precision, specificity, npv):
            est = metric(counts)
            assert est.ci_low <= est.value <= est.ci_high
            assert 0.0 <= est.ci_low and est.ci_high <= 1.0

    @given(
        tp=st.integers(0, 50),
        fp=st.integers(0, 50),
        fn=st.integers(0, 50),
        tn=st.integers(0, 50),
        scale=st.floats(min_value=0.1, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_uniform_scaling(self, tp, fp, fn, tn, scale):
        base = ConfusionCounts(tp, fp, fn, tn)
        scaled = base.scaled(scale)
        for metric in (recall, precision, specificity, npv):
            v1, v2 = metric(base).value, metric(scaled).value
            if v1 is None:
                assert v2 is None
            else:
                assert v2 == pytest.approx(v1, abs=1e-12)


class TestWilson:
    def test_covers_at_moderate_n(self):
        rng = np.random.default_rng(42)
        n, p, sims = 200, 0.1, 2000
        draws = rng.binomial(n, p, size=sims)
        covered = sum(1 for k in draws if wilson_interval(k, n)[0] <= p <= wilson_interval(k, n)[1])
        assert covered / sims >= 0.93

    def test_degenerate_total(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_matches_scipy_normal_quantile_reference(self):
        from scipy.stats import norm

        for ci_level in np.linspace(0.01, 0.999, 60):
            z = norm.ppf(0.5 + ci_level / 2.0)
            for successes, total in ((0, 5), (3, 10), (130, 200), (9_999, 10_000)):
                phat = successes / total
                denom = 1.0 + z * z / total
                center = (phat + z * z / (2.0 * total)) / denom
                half = z * math.sqrt((phat * (1.0 - phat) + z * z / (4.0 * total)) / total) / denom
                lo, hi = wilson_interval(successes, total, ci_level)
                assert lo == pytest.approx(max(0.0, center - half), abs=1e-12)
                assert hi == pytest.approx(min(1.0, center + half), abs=1e-12)


class TestFBeta:
    def test_equal_inputs(self):
        assert f_beta(0.5, 0.5, 1.0) == 0.5

    def test_one_zero_gives_zero(self):
        assert f_beta(1.0, 0.0, 1.0) == 0.0
        assert f_beta(0.0, 1.0, 1.0) == 0.0

    def test_both_zero_undefined(self):
        assert f_beta(0.0, 0.0, 1.0) is None

    def test_redaction_case_study(self):
        assert f_beta(0.55, 0.994, 1.0) == pytest.approx(2 * 0.55 * 0.994 / (0.55 + 0.994), abs=1e-12)
        assert f_beta(0.55, 0.994, 1.0) == pytest.approx(0.708, abs=1e-3)

    @given(
        p=st.floats(min_value=0, max_value=1),
        r=st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=80, deadline=None)
    def test_symmetry_and_bounds(self, p, r):
        f_pr = f_beta(p, r, 1.0)
        f_rp = f_beta(r, p, 1.0)
        if f_pr is None:
            assert f_rp is None
            return
        assert f_pr == pytest.approx(f_rp, abs=1e-12)
        assert min(p, r) - 1e-12 <= f_pr <= max(p, r) + 1e-12

    def test_beta_validation(self):
        with pytest.raises(InputError):
            f_beta(0.5, 0.5, 0.0)


class TestBayesAdjustedPrecision:
    def test_counterfactual_specificity_098(self):
        value = bayes_adjusted_precision(178 / 179, 0.98, 179 / 263451)
        assert value == pytest.approx(0.033, abs=0.005)

    def test_reported_specificity_09995(self):
        value = bayes_adjusted_precision(178 / 179, 0.9995, 179 / 263451)
        # reproduces as ~0.57 against the reported 0.55; inputs are ambiguous
        assert 0.50 <= value <= 0.62

    def test_perfect_specificity(self):
        assert bayes_adjusted_precision(0.5, 1.0, 0.001) == 1.0

    def test_zero_denominator_undefined(self):
        assert bayes_adjusted_precision(0.0, 1.0, 0.5) is None

    @given(
        tp=st.integers(1, 40),
        fp=st.integers(1, 40),
        fn=st.integers(0, 40),
        tn=st.integers(1, 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_identity_at_test_set_prevalence(self, tp, fp, fn, tn):
        counts = ConfusionCounts(tp, fp, fn, tn)
        se = recall(counts).value
        sp = specificity(counts).value
        pi = (tp + fn) / counts.total
        projected = bayes_adjusted_precision(se, sp, pi)
        assert projected == pytest.approx(precision(counts).value, abs=1e-12)

    @given(
        se=st.floats(min_value=0.05, max_value=0.95),
        sp=st.floats(min_value=0.05, max_value=0.95),
        pi=st.floats(min_value=0.05, max_value=0.95),
        bump=st.floats(min_value=0.001, max_value=0.04),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_all_arguments(self, se, sp, pi, bump):
        base = bayes_adjusted_precision(se, sp, pi)
        assert bayes_adjusted_precision(se + bump, sp, pi) >= base
        assert bayes_adjusted_precision(se, sp + bump, pi) >= base
        assert bayes_adjusted_precision(se, sp, pi + bump) >= base


class TestRandomGuessBaseline:
    def test_mean_precision_equals_prevalence(self):
        rng = np.random.default_rng(2024)
        prevalence, n, trials = 0.3, 200, 1000
        values = []
        for _ in range(trials):
            truth = rng.random(n) < prevalence
            flagged = rng.random(n) < 0.5
            tp = int(np.sum(truth & flagged))
            fp = int(np.sum(~truth & flagged))
            est = precision(ConfusionCounts(tp, fp, 0, 0))
            if est.value is not None:
                values.append(est.value)
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1) / math.sqrt(len(values)))
        assert abs(mean - prevalence) <= 2 * se


class TestPrecisionAtK:
    def test_direct_count(self):
        ds = Dataset(
            [
                make_case("a", "positive", score=0.9),
                make_case("b", "negative", score=0.8),
                make_case("c", "positive", score=0.7),
            ]
        )
        assert precision_at_k(ds, 2).estimate.value == 0.5

    def test_full_dataset_equals_prevalence(self, scored_dataset):
        result = precision_at_k(scored_dataset, len(scored_dataset.cases))
        assert result.estimate.value == pytest.approx(2 / 5)

    def test_ambiguous_excluded_and_reported(self):
        ds = Dataset(
            [
                make_case("a", "positive", score=0.9),
                make_case("b", "ambiguous", score=0.8),
                make_case("c", "negative", score=0.7),
            ]
        )
        result = precision_at_k(ds, 2)
        assert result.n_unlabeled_in_top_k == 1
        assert result.estimate.value == 1.0  # only "a" counts

    def test_tie_flag(self):
        ds = Dataset(
            [
                make_case("a", "positive", score=0.9),
                make_case("b", "negative", score=0.5),
                make_case("c", "positive", score=0.5),
            ]
        )
        result = precision_at_k(ds, 2)
        assert result.ties_straddle_cut is True
        # tie at the cut resolves by case_id: "b" enters before "c"
        assert result.estimate.value == 0.5

    def test_matches_brute_force_oracle(self):
        result = generate(PopulationSpec(n=10_000, prevalence=0.05, seed=33))
        # quantize scores so ties actually occur
        cases = [
            make_case(c.case_id, c.reference, score=round(c.score, 3)) for c in result.dataset.cases
        ]
        ds = Dataset(cases)
        for k in (10, 50, 100):
            got = precision_at_k(ds, k).estimate.value
            ranked = sorted(ds.cases, key=lambda c: (-c.score, c.case_id))[:k]
            labeled = [c for c in ranked if c.evaluable]
            expected = sum(1 for c in labeled if c.reference.value == "positive") / len(labeled)
            assert got == expected

    def test_k_validation(self, scored_dataset):
        with pytest.raises(InputError):
            precision_at_k(scored_dataset, 0)
        with pytest.raises(InputError):
            precision_at_k(scored_dataset, 6)

    def test_a_design_gets_the_bootstrap_of_the_k_cases_not_a_wilson_interval_of_their_weights(self):
        cases = [make_case(f"c{i:03d}", "positive" if i % 3 == 0 else "negative", score=1.0 - i / 200,
                           stratum_id="neg" if i % 3 else "all") for i in range(200)]
        ds = Dataset(cases, (StratumSpec("neg", 0.1), StratumSpec("all", 1.0)))
        got = precision_at_k(ds, 60, seed=7).estimate
        top = Dataset([make_case(c.case_id, c.reference, predicted=True, stratum_id=c.stratum_id) for c in cases[:60]],
                      ds.design)
        assert got == estimate_metric(top, "precision", seed=7)
        counts = confusion(top)  # 20 positives of weight 1 and 40 negatives of weight 10
        assert (counts.tp, counts.fp) == (20.0, 400.0)
        assert (got.ci_low, got.ci_high) != (precision(counts).ci_low, precision(counts).ci_high)
        assert got != precision_at_k(ds, 60, seed=8).estimate

    def test_a_design_whose_k_cases_are_all_ambiguous_has_an_undefined_precision(self):
        ds = Dataset([make_case("a", "ambiguous", score=0.9, stratum_id="s"),
                      make_case("b", "positive", score=0.1, stratum_id="s")], (StratumSpec("s", 0.5),))
        result = precision_at_k(ds, 1)
        assert (result.estimate.value, result.estimate.n_effective, result.n_unlabeled_in_top_k) == (None, 0.0, 1)


class TestConcordance:
    def test_identical_labels(self, small_dataset):
        labels = {c.case_id: c.predicted for c in small_dataset.cases}
        assert concordance_and_override(small_dataset, labels) == (1.0, 0.0)

    def test_complementary_labels(self, small_dataset):
        labels = {c.case_id: not c.predicted for c in small_dataset.cases}
        assert concordance_and_override(small_dataset, labels) == (0.0, 1.0)

    def test_three_of_ten_overridden(self, small_dataset):
        cases = list(small_dataset.cases)
        labels = {c.case_id: c.predicted for c in cases}
        for c in cases[:3]:
            labels[c.case_id] = not c.predicted
        concordance, override = concordance_and_override(small_dataset, labels)
        assert override == pytest.approx(0.30)
        assert concordance == pytest.approx(0.70)

    def test_unknown_case_rejected(self, small_dataset):
        with pytest.raises(InputError, match="unknown case_id"):
            concordance_and_override(small_dataset, {"ghost": True})


class TestWeightedEstimation:
    @staticmethod
    def _enriched(seed):
        spec = PopulationSpec(
            n=20_000,
            prevalence=0.01,
            separation=2.0,
            enrichment=(EnrichmentRule(select="negative", inclusion_probability=200 / 19_800),),
            seed=seed,
        )
        return generate(spec)

    def test_weighting_removes_enrichment_bias(self):
        from dataclasses import replace

        result = self._enriched(seed=7)
        ds = apply_threshold(result.dataset, 0.5)
        truth = result.truth.precision_at(0.5)

        naive_counts = confusion(Dataset(replace(c, stratum_id=None) for c in ds.cases))
        naive = precision(naive_counts).value
        assert naive - truth > 0.2

        weighted = estimate_metric(ds, "precision", seed=1)
        assert weighted.weighted is True
        assert abs(weighted.value - truth) < naive - truth

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bootstrap_interval_covers_truth(self, seed):
        result = self._enriched(seed=seed)
        ds = apply_threshold(result.dataset, 0.5)
        truth = result.truth.precision_at(0.5)
        est = bootstrap_metric(ds, "precision", seed=seed)
        assert est.ci_low <= truth <= est.ci_high

    @pytest.mark.parametrize("metric", ["recall", "precision", "specificity", "npv"])
    def test_bootstrap_point_and_n_effective_match_confusion(self, metric):
        # inclusion probability 0.3: 1/p is not exactly representable, so count x weight per class differs from
        # confusion's per-case sums in the last ulp; the bootstrap takes confusion's point and n_effective
        cases = [
            make_case(f"c{i}", "positive" if i % 7 == 0 else "negative", predicted=i % 3 == 0,
                      stratum_id="neg" if i % 2 else "all")
            for i in range(300)
        ]
        ds = Dataset(cases, (StratumSpec("neg", 0.3), StratumSpec("all", 1.0)))
        reference = {"recall": recall, "precision": precision, "specificity": specificity, "npv": npv}
        expected = reference[metric](confusion(ds))
        est = bootstrap_metric(ds, metric, n_resamples=50, seed=3)
        assert (est.value, est.n_effective, est.weighted) == (expected.value, expected.n_effective, True)

    def test_bootstrap_builds_the_class_table_once(self, monkeypatch):
        # a weighted point of 0 (no positive predicted) once built a second table for Kish's size
        import rareval.metrics as metrics_mod

        tables = []
        real = metrics_mod._class_table
        monkeypatch.setattr(metrics_mod, "_class_table", lambda d: tables.append(d) or real(d))
        cases = [make_case(f"c{i}", "positive", predicted=False, stratum_id="p") for i in range(6)]
        est = bootstrap_metric(Dataset(cases, (StratumSpec("p", 0.3),)), "recall", n_resamples=20, seed=1)
        assert (est.value, len(tables)) == (0.0, 1)

    @pytest.mark.parametrize("n_resamples, message", [
        (0, "bootstrap needs n >= 1"), (-1, "bootstrap needs n >= 1"),
        (MOST_ARRAY_VALUES // 4 + 1, f"bootstrap n must be at most {MOST_ARRAY_VALUES // 4}, "),
    ])
    def test_bootstrap_refuses_a_resample_count_outside_one_to_the_array_limit(self, n_resamples, message):
        ds = dataset_from_counts(tp=3, fp=1, fn=2, tn=4)  # 4 classes, so a resample is a row of 4 counts
        with pytest.raises(InputError, match=message):
            bootstrap_metric(ds, "recall", n_resamples=n_resamples)

    def test_a_design_without_an_evaluable_case_has_undefined_metrics(self):
        ds = Dataset([make_case("a", "ambiguous", predicted=True, stratum_id="s")], (StratumSpec("s", 0.5),))
        assert estimate_metric(ds, "recall") == MetricEstimate(None, None, None, n_effective=0.0, weighted=True)

    def test_a_weighted_point_of_0_or_1_gets_wilson_at_kish_effective_size(self):
        # every resample of 0 of 19 positives, or of 58 negatives kept with p = 0.2 all below the threshold, equals
        # the point, so the percentile interval was [0, 0] and [1, 1]; equal weights make Kish's size the case count
        spec = PopulationSpec(n=400, prevalence=0.05, enrichment=(EnrichmentRule("negative", 0.2),), seed=1)
        ds = apply_threshold(generate(spec).dataset, 2.0)
        recall_, specificity_ = (bootstrap_metric(ds, metric, seed=1) for metric in ("recall", "specificity"))
        assert (recall_.value, recall_.n_effective, specificity_.value, specificity_.n_effective) == (0.0, 19, 1.0, 290)
        assert (recall_.ci_low, recall_.ci_high) == pytest.approx(wilson_interval(0, 19), rel=1e-12)
        assert (specificity_.ci_low, specificity_.ci_high) == pytest.approx(wilson_interval(58, 58), rel=1e-12)
        assert specificity_.ci_low == pytest.approx(0.9379, abs=1e-4)

    @pytest.mark.parametrize("reference, metric, point", [("positive", "recall", 0.0), ("negative", "specificity", 1.0)])
    def test_unequal_weights_give_wilson_at_kish_effective_size(self, reference, metric, point):
        cases = [make_case(f"c{i}", reference, predicted=False, stratum_id="half" if i < 6 else "all") for i in range(10)]
        ds = Dataset(cases, (StratumSpec("half", 0.5), StratumSpec("all", 1.0)))
        est = bootstrap_metric(ds, metric, seed=2)
        kish = (6 * 2.0 + 4) ** 2 / (6 * 2.0**2 + 4)  # 16^2 / 28, below the 10 cases
        assert (est.value, est.n_effective) == (point, 16.0)
        assert (est.ci_low, est.ci_high) == pytest.approx(wilson_interval(point * kish, kish), rel=1e-12)

    def test_bootstrap_deterministic_per_seed(self):
        ds = dataset_from_counts(tp=130, fp=70, fn=40, tn=760)
        a = bootstrap_metric(ds, "recall", seed=9)
        b = bootstrap_metric(ds, "recall", seed=9)
        c = bootstrap_metric(ds, "recall", seed=10)
        assert a == b
        assert (a.ci_low, a.ci_high) != (c.ci_low, c.ci_high)


class TestPercentileInterval:
    @given(
        st.lists(st.one_of(st.floats(-1e300, 1e300), st.sampled_from([-0.0, 0.0, 0.25, 1.0])), min_size=1,
                 max_size=300),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_numpys_default_quantile_bit_for_bit(self, values, ci_level):
        alpha = (1.0 - ci_level) / 2.0
        # == holds for two floats exactly when their bits agree, but for the sign of a zero
        assert percentile_interval(np.array(values), ci_level) == tuple(
            float(np.quantile(values, q)) for q in (alpha, 1.0 - alpha))

    @pytest.mark.parametrize("ci_level", [-0.1, 1.5, float("nan")])
    def test_a_level_outside_zero_to_one_raises(self, ci_level):
        # np.quantile refuses a quantile outside [0, 1]; an unchecked index would wrap to the other end
        with pytest.raises(ValueError, match="ci_level"):
            percentile_interval(np.array([0.1, 0.2, 0.3]), ci_level)
