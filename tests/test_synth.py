import tracemalloc

import numpy as np
import pytest

from rareval.datamodel import apply_threshold
from rareval.errors import InfeasibleError, InputError
from rareval.metrics import confusion, precision, recall, specificity
from rareval.synth import EnrichmentRule, PopulationSpec, TruthSidecar, generate


class TestGeneration:
    def test_bitwise_reproducible(self):
        spec = PopulationSpec(n=500, prevalence=0.1, seed=77)
        a = generate(spec)
        b = generate(spec)
        assert a.dataset == b.dataset
        assert np.array_equal(a.truth.scores, b.truth.scores)
        assert np.array_equal(a.truth.truth, b.truth.truth)

    def test_different_seeds_differ(self):
        a = generate(PopulationSpec(n=500, prevalence=0.1, seed=1))
        b = generate(PopulationSpec(n=500, prevalence=0.1, seed=2))
        assert a.dataset != b.dataset

    def test_fully_separated_population(self):
        result = generate(PopulationSpec(n=200, prevalence=0.5, separation=40.0, seed=3))
        assert result.truth.recall_at(0.5) == 1.0
        assert result.truth.precision_at(0.5) == 1.0

    def test_binomial_positive_count_within_3_sigma(self):
        n, prevalence = 263_451, 179 / 263_451
        result = generate(PopulationSpec(n=n, prevalence=prevalence, seed=5))
        sigma = np.sqrt(n * prevalence * (1 - prevalence))
        assert abs(result.truth.positive_count - 179) <= 3 * sigma

    def test_fixed_count_mode_exact(self):
        result = generate(
            PopulationSpec(n=263_451, prevalence=179 / 263_451, exact_positive_count=True, seed=5)
        )
        assert result.truth.positive_count == 179

    def test_scores_bounded(self):
        result = generate(PopulationSpec(n=1000, prevalence=0.3, separation=6.0, seed=9))
        assert np.all(result.truth.scores > 0.0)
        assert np.all(result.truth.scores < 1.0)

    def test_label_noise_changes_reference_not_truth(self):
        clean = generate(PopulationSpec(n=2000, prevalence=0.5, seed=11))
        noisy = generate(PopulationSpec(n=2000, prevalence=0.5, label_noise=0.2, seed=11))
        assert np.array_equal(clean.truth.truth, noisy.truth.truth)
        flips = sum(
            1
            for a, b in zip(clean.dataset.cases, noisy.dataset.cases)
            if a.reference is not b.reference
        )
        assert 0.15 * 2000 < flips < 0.25 * 2000

    def test_repeated_runs_generated(self):
        result = generate(
            PopulationSpec(n=50, prevalence=0.5, n_runs=4, flip_probability=0.5, seed=13)
        )
        for case in result.dataset.cases:
            assert len(case.repeated_labels) == 4

    def test_validation(self):
        with pytest.raises(InputError):
            PopulationSpec(n=0, prevalence=0.5)
        with pytest.raises(InputError):
            PopulationSpec(n=10, prevalence=1.5)


    def test_peak_memory_does_not_hold_population_temporaries(self):
        # 3e5 population rows, about 30,550 kept: the population's scores and
        # truth alone take 2.6 MiB, each float temporary another 2.3 MiB
        spec = PopulationSpec(n=300_000, prevalence=0.002, enrichment=(EnrichmentRule("negative", 0.1),), seed=1)
        tracemalloc.start()
        try:
            generate(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20


class TestTruthOracle:
    def test_matches_metrics_module_on_unenriched_population(self):
        result = generate(PopulationSpec(n=3000, prevalence=0.2, seed=21))
        for threshold in (0.3, 0.5, 0.7):
            ds = apply_threshold(result.dataset, threshold)
            counts = confusion(ds)
            assert recall(counts).value == pytest.approx(result.truth.recall_at(threshold), abs=1e-12)
            assert precision(counts).value == pytest.approx(result.truth.precision_at(threshold), abs=1e-12)
            assert specificity(counts).value == pytest.approx(
                result.truth.specificity_at(threshold), abs=1e-12
            )

    def test_sidecar_round_trip(self, tmp_path):
        result = generate(PopulationSpec(n=100, prevalence=0.25, seed=31))
        path = result.truth.write(tmp_path / "truth.json")
        restored = TruthSidecar.read(path)
        assert np.array_equal(restored.scores, result.truth.scores)
        assert np.array_equal(restored.truth, result.truth.truth)

    def test_sidecar_read_rejects_non_standard_json(self, tmp_path):
        path = tmp_path / "truth.json"
        path.write_text('{"kind": "truth_sidecar", "scores": [NaN], "truth": [true]}')
        with pytest.raises(ValueError, match="non-finite JSON number NaN"):
            TruthSidecar.read(path)

    def test_sidecar_not_a_dataset(self, tmp_path):
        from rareval.datamodel import ingest

        result = generate(PopulationSpec(n=10, prevalence=0.3, seed=1))
        path = result.truth.write(tmp_path / "truth.json")
        with pytest.raises(Exception, match="truth sidecar"):
            ingest(path, "jsonl")


class TestEnrichment:
    def test_enrichment_shifts_sample_prevalence(self):
        spec = PopulationSpec(
            n=20_000,
            prevalence=0.01,
            enrichment=(EnrichmentRule(select="negative", inclusion_probability=0.0101),),
            seed=41,
        )
        result = generate(spec)
        counts = result.dataset.label_counts()
        sample_prev = counts["positive"] / (counts["positive"] + counts["negative"])
        assert 0.4 < sample_prev < 0.6
        assert result.truth.prevalence == pytest.approx(0.01, abs=0.005)
        assert result.dataset.weighted

    def test_naive_biased_weighted_unbiased(self):
        spec = PopulationSpec(
            n=20_000,
            prevalence=0.01,
            enrichment=(EnrichmentRule(select="negative", inclusion_probability=0.0101),),
            seed=43,
        )
        result = generate(spec)
        ds = apply_threshold(result.dataset, 0.5)
        truth_precision = result.truth.precision_at(0.5)

        from dataclasses import replace

        from rareval.datamodel import Dataset

        naive = precision(confusion(Dataset(replace(c, stratum_id=None) for c in ds.cases))).value
        weighted = precision(confusion(ds)).value
        assert abs(naive - truth_precision) > 0.2
        assert abs(weighted - truth_precision) < 0.1

    def test_empty_stratum_rejected(self):
        spec = PopulationSpec(
            n=100,
            prevalence=0.5,
            enrichment=(
                EnrichmentRule(select="positive", inclusion_probability=1.0, stratum_id="pos"),
                EnrichmentRule(select="positive", inclusion_probability=0.5, stratum_id="dup"),
            ),
            seed=1,
        )
        with pytest.raises(InfeasibleError, match="empty"):
            generate(spec)

    def test_from_dict(self):
        spec = PopulationSpec.from_dict(
            {
                "n": 100,
                "prevalence": 0.2,
                "enrichment": [{"select": "negative", "inclusion_probability": 0.5}],
                "seed": 3,
            }
        )
        assert spec.enrichment[0].stratum_id == "enriched_negative"
        assert generate(spec).dataset.weighted
