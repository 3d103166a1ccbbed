import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rareval.datamodel import Dataset
from rareval.errors import InfeasibleError, InputError
from rareval.metrics import confusion
from rareval.robustness import resampling_variability, stability, subset_metrics
from rareval.synth import PopulationSpec, generate

from conftest import make_case


def two_subset_dataset():
    """Recall 0.91 on e2b cases, 0.59 elsewhere: 0.75 overall."""
    cases = []
    for i in range(91):
        cases.append(make_case(f"e2b-tp-{i}", "positive", predicted=True, subgroups={"fmt": "e2b"}))
    for i in range(9):
        cases.append(make_case(f"e2b-fn-{i}", "positive", predicted=False, subgroups={"fmt": "e2b"}))
    for i in range(59):
        cases.append(make_case(f"other-tp-{i}", "positive", predicted=True, subgroups={"fmt": "other"}))
    for i in range(41):
        cases.append(make_case(f"other-fn-{i}", "positive", predicted=False, subgroups={"fmt": "other"}))
    return Dataset(cases)


class TestSubsetMetrics:
    def test_reproduces_constructed_recalls_exactly(self):
        ds = two_subset_dataset()
        from rareval.metrics import recall

        overall = recall(confusion(ds)).value
        assert overall == 0.75
        report = subset_metrics(ds, "fmt", metrics=("recall",))
        assert report.categories["e2b"]["metrics"]["recall"].value == 0.91
        assert report.categories["other"]["metrics"]["recall"].value == 0.59

    def test_single_category_equals_global(self):
        result = generate(PopulationSpec(n=300, prevalence=0.3, seed=2))
        from rareval.datamodel import apply_threshold
        from rareval.metrics import recall

        ds = apply_threshold(result.dataset, 0.5)
        cases = [make_case(c.case_id, c.reference, predicted=c.predicted, subgroups={"g": "all"}) for c in ds.cases]
        ds = Dataset(cases)
        report = subset_metrics(ds, "g", metrics=("recall",))
        assert list(report.categories) == ["all"]
        assert report.categories["all"]["metrics"]["recall"].value == recall(confusion(ds)).value

    def test_missing_attribute_becomes_unknown_category(self):
        cases = [
            make_case("a", "positive", predicted=True, subgroups={"g": "x"}),
            make_case("b", "positive", predicted=False),
        ]
        report = subset_metrics(Dataset(cases), "g", metrics=("recall",))
        assert set(report.categories) == {"x", "unknown"}
        assert report.categories["x"]["n"] + report.categories["unknown"]["n"] == 2

    def test_absent_attribute_rejected(self):
        cases = [make_case("a", "positive", predicted=True)]
        with pytest.raises(InputError, match="absent"):
            subset_metrics(Dataset(cases), "ghost")

    def test_an_attribute_only_a_case_outside_the_counts_holds_is_one_unknown_category(self):
        cases = [make_case("a", "positive", score=0.9, predicted=True), make_case("b", "negative", score=0.2,
                 predicted=False), make_case("c", "ambiguous", score=0.5, predicted=True, subgroups={"site": "north"})]
        report = subset_metrics(Dataset(cases), "site")
        assert list(report.categories) == ["unknown"] and report.categories["unknown"]["n"] == 2
        assert report.heterogeneity.test.startswith("degenerate")

    def test_category_counts_partition_and_recombine(self):
        result = generate(PopulationSpec(n=500, prevalence=0.2, seed=4))
        from rareval.datamodel import apply_threshold

        rng = np.random.default_rng(3)
        ds = apply_threshold(result.dataset, 0.5)
        cases = [
            make_case(
                c.case_id, c.reference, predicted=c.predicted,
                subgroups={"g": str(rng.integers(0, 4))},
            )
            for c in ds.cases
        ]
        ds = Dataset(cases)
        report = subset_metrics(ds, "g", metrics=("recall", "precision"))
        assert sum(e["n"] for e in report.categories.values()) == report.total_evaluable
        pooled = confusion(ds)
        summed = np.zeros(4)
        for entry in report.categories.values():
            c = entry["counts"]
            summed += np.array([c.tp, c.fp, c.fn, c.tn])
        assert tuple(summed) == (pooled.tp, pooled.fp, pooled.fn, pooled.tn)

    def test_heterogeneity_calibrated_under_null(self):
        # errors independent of category: flag rate should stay near alpha
        flagged = 0
        n_reps = 100
        for rep in range(n_reps):
            rng = np.random.default_rng(1000 + rep)
            cases = []
            for i in range(1000):
                positive = rng.random() < 0.5
                error = rng.random() < 0.1
                predicted = positive ^ error
                cases.append(
                    make_case(
                        f"c{i}",
                        "positive" if positive else "negative",
                        predicted=bool(predicted),
                        subgroups={"g": str(rng.integers(0, 4))},
                    )
                )
            report = subset_metrics(Dataset(cases), "g", metrics=("recall",), seed=rep)
            flagged += int(report.heterogeneity.flagged)
        assert flagged <= 10  # >= 90% unflagged at alpha = 0.05

    def test_small_cells_use_permutation_test(self):
        rng = np.random.default_rng(9)
        cases = []
        for i in range(60):
            positive = rng.random() < 0.5
            error = rng.random() < 0.15
            cases.append(
                make_case(
                    f"c{i}",
                    "positive" if positive else "negative",
                    predicted=bool(positive ^ error),
                    subgroups={"g": str(rng.integers(0, 3))},
                )
            )
        report = subset_metrics(Dataset(cases), "g", metrics=("recall",), seed=1)
        assert "permutation" in report.heterogeneity.test
        assert 0.0 < report.heterogeneity.p_value <= 1.0

    def test_detects_gross_heterogeneity(self):
        cases = []
        for i in range(200):
            group = "bad" if i < 100 else "good"
            error = (i % 2 == 0) if group == "bad" else False
            cases.append(
                make_case(f"c{i}", "positive", predicted=not error, subgroups={"g": group})
            )
        report = subset_metrics(Dataset(cases), "g", metrics=("recall",))
        assert report.heterogeneity.flagged
        assert report.heterogeneity.p_value < 0.001


def runs_dataset(label_rows, reference="negative"):
    return Dataset(
        [
            make_case(f"c{i}", reference, predicted=row[0], repeated_labels=tuple(row))
            for i, row in enumerate(label_rows)
        ]
    )


class TestStability:
    def test_deterministic_model(self):
        ds = runs_dataset([[True, True, True]] * 10)
        report = stability(ds)
        assert report.unanimity_rate == 1.0
        assert report.pairwise_agreement == 1.0
        assert report.flip_counts == {}

    def test_hand_enumerated_example(self):
        rows = [[True, True, True]] * 9 + [[True, True, False]]
        report = stability(runs_dataset(rows))
        assert report.unanimity_rate == pytest.approx(0.9)
        assert report.pairwise_agreement == pytest.approx(0.9 + 0.1 * (1 / 3))
        assert report.flip_counts == {"c9": 1}

    def test_coin_flip_unanimity_near_half(self):
        rng = np.random.default_rng(7)
        rows = rng.random((10_000, 2)) < 0.5
        report = stability(runs_dataset([list(map(bool, r)) for r in rows]))
        se = np.sqrt(0.25 / 10_000)
        assert abs(report.unanimity_rate - 0.5) <= 2 * se

    def test_unequal_run_counts_rejected(self):
        ds = Dataset(
            [
                make_case("a", "negative", predicted=True, repeated_labels=(True, True)),
                make_case("b", "negative", predicted=True, repeated_labels=(True, True, False)),
            ]
        )
        with pytest.raises(InputError, match="unequal run counts"):
            stability(ds)

    def test_missing_runs_rejected(self):
        ds = Dataset([make_case("a", "negative", predicted=True)])
        with pytest.raises(InputError, match="repeated_labels"):
            stability(ds)

    @given(st.lists(st.lists(st.booleans(), min_size=3, max_size=3), min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariant_in_run_order(self, rows):
        base = stability(runs_dataset(rows))
        permuted = stability(runs_dataset([[r[2], r[0], r[1]] for r in rows]))
        assert base.unanimity_rate == permuted.unanimity_rate
        assert base.pairwise_agreement == pytest.approx(permuted.pairwise_agreement)

    def test_unanimity_never_exceeds_pairwise(self):
        rng = np.random.default_rng(3)
        rows = rng.random((500, 4)) < 0.7
        report = stability(runs_dataset([list(map(bool, r)) for r in rows]))
        assert report.unanimity_rate <= report.pairwise_agreement


class TestResamplingVariability:
    @staticmethod
    def _threshold_dataset(seed=5, n=400, prevalence=0.25):
        from rareval.datamodel import apply_threshold

        result = generate(PopulationSpec(n=n, prevalence=prevalence, seed=seed))
        return apply_threshold(result.dataset, 0.5)

    def test_perfect_classifier_zero_std(self):
        from rareval.datamodel import apply_threshold

        result = generate(PopulationSpec(n=200, prevalence=0.5, separation=40.0, seed=6))
        ds = apply_threshold(result.dataset, 0.5)
        summary = resampling_variability(ds, "recall", scheme="bootstrap", n=50, seed=1)
        assert summary.std == 0.0
        assert summary.mean == 1.0

    def test_bootstrap_recall_matches_binomial_oracle(self):
        cases = [make_case(f"p{i}", "positive", predicted=i < 75) for i in range(100)]
        ds = Dataset(cases)
        summary = resampling_variability(ds, "recall", scheme="bootstrap", n=400, seed=2)
        se = np.sqrt(0.75 * 0.25 / 100)
        assert abs(summary.mean - 0.75) <= 2 * se / np.sqrt(400) * 20  # bootstrap mean is tight
        assert summary.std == pytest.approx(se, rel=0.25)

    def test_same_seed_identical(self):
        ds = self._threshold_dataset()
        a = resampling_variability(ds, "precision", n=100, seed=11)
        b = resampling_variability(ds, "precision", n=100, seed=11)
        assert a == b

    def test_kfold_requires_enough_cases(self):
        ds = self._threshold_dataset(n=40)
        with pytest.raises(InfeasibleError):
            resampling_variability(ds, "recall", scheme="k_fold", n=10_000)

    @pytest.mark.parametrize("n", [0, -1])
    def test_bootstrap_needs_a_resample(self, n):
        with pytest.raises(InputError, match="n >= 1"):
            resampling_variability(self._threshold_dataset(n=40), "recall", n=n)

    @pytest.mark.parametrize("scheme, n", [("bootstrap", 0), ("k_fold", 5), ("k_fold", 1)])
    def test_a_set_without_an_evaluable_case_is_refused_before_the_resample_count(self, scheme, n):
        ds = Dataset([make_case(f"a{i}", "ambiguous", predicted=True) for i in range(3)])
        with pytest.raises(InputError, match="dataset has no evaluable cases"):
            resampling_variability(ds, "recall", scheme=scheme, n=n)

    def test_kfold_runs_and_is_deterministic(self):
        ds = self._threshold_dataset()
        a = resampling_variability(ds, "recall", scheme="k_fold", n=5, seed=3)
        b = resampling_variability(ds, "recall", scheme="k_fold", n=5, seed=3)
        assert a == b
        assert len(a.values) == 5

    def test_bootstrap_interval_contains_point_estimate(self):
        from rareval.metrics import metric_from_counts

        ds = self._threshold_dataset()
        summary = resampling_variability(ds, "recall", n=300, seed=4)
        point = metric_from_counts(confusion(ds), "recall").value
        assert summary.percentile_low <= point <= summary.percentile_high
