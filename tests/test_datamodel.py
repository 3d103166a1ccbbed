import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rareval.datamodel import (
    Dataset,
    EvaluationCase,
    ReferenceLabel,
    StratumSpec,
    apply_threshold,
    emit,
    ingest,
)
from rareval.errors import IngestError, InputError
from rareval.metrics import confusion
from rareval.synth import PopulationSpec, generate

from conftest import make_case


class TestCaseInvariants:
    def test_needs_score_or_prediction(self):
        with pytest.raises(InputError, match="score or a predicted"):
            Dataset([EvaluationCase(case_id="x", reference=ReferenceLabel.POSITIVE)])

    def test_empty_repeated_labels_rejected(self):
        with pytest.raises(InputError, match="repeated_labels"):
            Dataset([make_case("x", "positive", predicted=True, repeated_labels=())])

    def test_reference_parse_case_insensitive(self):
        assert ReferenceLabel.parse("Positive") is ReferenceLabel.POSITIVE
        assert ReferenceLabel.parse("EXCLUDED") is ReferenceLabel.EXCLUDED
        with pytest.raises(InputError, match="unknown reference label"):
            ReferenceLabel.parse("maybe")


class TestDatasetInvariants:
    def test_duplicate_case_id_rejected(self):
        cases = [make_case("x", "positive", predicted=True), make_case("x", "negative", predicted=False)]
        with pytest.raises(InputError, match="duplicate case_id"):
            Dataset(cases)

    def test_mixed_design_rejected(self):
        cases = [
            make_case("a", "positive", predicted=True, stratum_id="s1"),
            make_case("b", "negative", predicted=False),
        ]
        with pytest.raises(InputError, match="mixed design"):
            Dataset(cases, design=[StratumSpec("s1", 0.5)])

    def test_unknown_stratum_rejected(self):
        cases = [make_case("a", "positive", predicted=True, stratum_id="nope")]
        with pytest.raises(InputError, match="unknown stratum_id"):
            Dataset(cases, design=[StratumSpec("s1", 0.5)])

    def test_rows_of_finds_rows_by_id_and_minus_one_for_unknown(self):
        ds = Dataset([make_case(c, "positive", predicted=True) for c in ("a", "b", "c")])
        assert ds.columns.rows_of(["c", "zz", "a", "c"]).tolist() == [2, -1, 0, 2]
        assert ds.columns.rows_of([]).tolist() == []

    def test_zero_probability_stratum_rejected(self):
        with pytest.raises(InputError, match="inclusion_probability"):
            StratumSpec("s1", 0.0)


class TestIngest:
    def test_three_row_csv(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "case_id,reference,score,predicted\n"
            "c1,positive,0.9,\n"
            "c2,Negative,0.1,\n"
            "c3,AMBIGUOUS,0.5,\n"
        )
        ds = ingest(path, "csv")
        counts = ds.label_counts()
        assert len(ds) == 3
        assert counts["positive"] == 1
        assert counts["negative"] == 1
        assert counts["ambiguous"] == 1

    def test_row_without_score_or_prediction_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("case_id,reference,score,predicted\nc1,positive,0.9,\nc2,negative,,\n")
        with pytest.raises(IngestError, match="row 3"):
            ingest(path, "csv")

    def test_duplicate_ids_name_both_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "case_id,reference,predicted\nc1,positive,1\nc2,negative,0\nc1,negative,0\n"
        )
        with pytest.raises(IngestError, match=r"rows 2 and 4"):
            ingest(path, "csv")

    def test_bad_label_names_row_and_field(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("case_id,reference,predicted\nc1,positive,1\nc2,negative,sometimes\n")
        with pytest.raises(IngestError, match=r"row 3.*'predicted'"):
            ingest(path, "csv")

    def test_all_problems_reported_in_one_pass(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "case_id,reference,predicted\nc1,wat,1\nc2,negative,perhaps\nc3,positive,1\n"
        )
        with pytest.raises(IngestError) as excinfo:
            ingest(path, "csv")
        assert len(excinfo.value.problems) == 2

    def test_run_columns_order_by_run_number(self, tmp_path):
        # header order and string order both put run_10 before run_2
        path = tmp_path / "d.csv"
        path.write_text(
            "case_id,reference,predicted,run_10,run_2,run_1,sg_site\n"
            "c1,positive,1,1,0,0,north\n"
            "c2,negative,0,0,,1,\n"
            "c3,negative,0,,bad,1,south\n"
        )
        with pytest.raises(IngestError) as excinfo:
            ingest(path, "csv")
        assert excinfo.value.problems == ["row 4: field 'run_2': expected a binary label, got 'bad'"]
        path.write_text(path.read_text().replace(",bad,", ",1,"))
        ds = ingest(path, "csv")
        assert [c.repeated_labels for c in ds.cases] == [(False, False, True), (True, False), (True, True)]
        assert [c.subgroups for c in ds.cases] == [{"site": "north"}, {}, {"site": "south"}]

    def test_run_column_without_number_is_input_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("case_id,reference,predicted,run_1,run_x\nc1,positive,1,1,0\n")
        with pytest.raises(IngestError, match="run_x"):
            ingest(path, "csv")

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_byte_order_mark_is_accepted(self, tmp_path, fmt):
        cases = [
            make_case("a", "positive", score=0.9, stratum_id="s1", subgroups={"site": "north"}),
            make_case("b", "negative", score=0.2, stratum_id="s2"),
        ]
        plain = tmp_path / f"plain.{fmt}"
        emit(Dataset(cases, design=[StratumSpec("s1", 0.5), StratumSpec("s2", 1.0)]), plain, fmt)
        marked = tmp_path / f"marked.{fmt}"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        Path(f"{marked}.design.json").write_bytes(Path(f"{plain}.design.json").read_bytes())
        assert ingest(marked, fmt) == ingest(plain, fmt)

    def test_truth_sidecar_rejected(self, tmp_path):
        path = tmp_path / "truth.jsonl"
        path.write_text(json.dumps({"kind": "truth_sidecar", "scores": []}) + "\n")
        with pytest.raises(InputError, match="truth sidecar"):
            ingest(path, "jsonl")

    def test_large_synthetic_jsonl_positive_count(self, tmp_path):
        # population sized like a fully annotated token corpus: 263,451 cases, 179 positives
        spec = PopulationSpec(
            n=263_451, prevalence=179 / 263_451, exact_positive_count=True, seed=11
        )
        result = generate(spec)
        path = tmp_path / "tokens.jsonl"
        emit(result.dataset, path, "jsonl")

        # independent oracle: raw line scan, no dataset machinery
        positives = 0
        lines = 0
        with open(path) as fh:
            for line in fh:
                lines += 1
                if '"reference": "positive"' in line:
                    positives += 1
        assert lines == 263_451
        assert positives == 179
        assert result.truth.positive_count == 179

        ds = ingest(path, "jsonl")
        assert ds.label_counts()["positive"] == 179
        assert len(ds) == 263_451


class TestRoundTrip:
    @staticmethod
    def _sample_dataset():
        cases = [
            make_case(
                "a",
                "positive",
                score=0.9123456789012345,
                predicted=True,
                benchmark_predicted=False,
                stratum_id="s1",
                subgroups={"region": "north", "era": "old"},
                repeated_labels=(True, False, True),
            ),
            make_case("b", "negative", score=0.25, stratum_id="s2"),
            make_case("c", "ambiguous", predicted=False, stratum_id="s2", subgroups={"region": "south"}),
            make_case("d", "excluded", score=0.5, stratum_id="s1"),
        ]
        design = [StratumSpec("s1", 0.25, "enriched"), StratumSpec("s2", 1.0)]
        return Dataset(cases, design, {"source": "unit-test"})

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_emit_ingest_identity(self, tmp_path, fmt):
        ds = self._sample_dataset()
        path = tmp_path / f"d.{fmt}"
        emit(ds, path, fmt)
        assert ingest(path, fmt) == ds

    def test_emit_writes_no_sidecar_it_cannot_read_back(self, tmp_path):
        ds = self._sample_dataset()
        ds = Dataset(ds.cases, ds.design, {"verdicts_applied": "3"})
        with pytest.raises(InputError, match="^field 'metadata.verdicts_applied': expected a count"):
            emit(ds, tmp_path / "d.csv")
        assert not list(tmp_path.iterdir())

    @given(
        scores=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=12
        ),
        labels=st.lists(st.sampled_from(["positive", "negative", "ambiguous", "excluded"]), min_size=1, max_size=12),
        fmt=st.sampled_from(["csv", "jsonl"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, scores, labels, fmt):
        n = min(len(scores), len(labels))
        cases = [make_case(f"c{i}", labels[i], score=scores[i]) for i in range(n)]
        ds = Dataset(cases)
        path = tmp_path_factory.mktemp("rt") / f"d.{fmt}"
        emit(ds, path, fmt)
        assert ingest(path, fmt) == ds


class TestApplyThreshold:
    def test_basic(self):
        ds = Dataset([make_case("a", "negative", score=0.2), make_case("b", "positive", score=0.7)])
        out = apply_threshold(ds, 0.5)
        assert [c.predicted for c in out.cases] == [False, True]
        assert [c.score for c in out.cases] == [0.2, 0.7]

    def test_tie_at_threshold_is_positive(self):
        ds = Dataset([make_case("a", "negative", score=0.5)])
        assert apply_threshold(ds, 0.5).cases[0].predicted is True

    def test_threshold_below_min_all_positive(self):
        ds = Dataset([make_case("a", "negative", score=0.2), make_case("b", "positive", score=0.7)])
        assert all(c.predicted for c in apply_threshold(ds, 0.0).cases)

    def test_missing_score_names_case(self):
        ds = Dataset([make_case("a", "positive", predicted=True)])
        with pytest.raises(InputError, match="'a'"):
            apply_threshold(ds, 0.5)

    def test_ambiguous_and_excluded_conserved(self):
        ds = Dataset(
            [
                make_case("a", "ambiguous", score=0.9),
                make_case("b", "excluded", score=0.1),
                make_case("c", "positive", score=0.6),
            ]
        )
        out = apply_threshold(ds, 0.5)
        assert out.label_counts() == ds.label_counts()

    def test_sweep_matches_per_case_loop(self):
        result = generate(PopulationSpec(n=100, prevalence=0.3, seed=5))
        ds = result.dataset
        thresholds = sorted({c.score for c in ds.cases}) + [0.0, 1.0]
        for t in thresholds:
            out = apply_threshold(ds, t)
            counts = confusion(out)
            # independent per-case comparison loop
            tp = fp = fn = tn = 0
            for case in ds.cases:
                predicted = case.score >= t
                positive = case.reference is ReferenceLabel.POSITIVE
                if predicted and positive:
                    tp += 1
                elif predicted:
                    fp += 1
                elif positive:
                    fn += 1
                else:
                    tn += 1
            assert (counts.tp, counts.fp, counts.fn, counts.tn) == (tp, fp, fn, tn)

    @given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_threshold(self, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        ds = Dataset([make_case(f"c{i}", "negative", score=i / 10) for i in range(11)])
        at_lo = [c.predicted for c in apply_threshold(ds, lo).cases]
        at_hi = [c.predicted for c in apply_threshold(ds, hi).cases]
        for low_pred, high_pred in zip(at_lo, at_hi):
            assert low_pred or not high_pred
