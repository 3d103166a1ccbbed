import csv
import io
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rareval.datamodel import Dataset, ReferenceLabel, apply_threshold, confusion_cells
from rareval.errors import InputError
from rareval.provenance import canonical_json
from rareval.scle import (
    DISAGREEMENT_CELLS,
    ScleAnnotation,
    ScleConfig,
    ScleSample,
    TagCategory,
    Triviality,
    aggregate,
    annotations_from_json_dict,
    annotations_to_json_dict,
    apply_verdicts,
    draw_sample,
    emit_review_sheet,
    ingest_annotations,
)
from rareval.scle import _largest_remainder
from rareval.synth import PopulationSpec, generate

import reference_loops as ref
from conftest import make_case


def labeled_dataset(n_fp=20, n_fn=15, n_tp=25, n_tn=40, subgroup_cycle=("x", "y"), scores=False):
    cases = []
    spec = [("fp", n_fp, "negative", True), ("fn", n_fn, "positive", False),
            ("tp", n_tp, "positive", True), ("tn", n_tn, "negative", False)]
    i = 0
    for tag, count, reference, predicted in spec:
        for j in range(count):
            cases.append(
                make_case(
                    f"{tag}-{j:03d}",
                    reference,
                    score=(0.3 + 0.4 * predicted + 0.0001 * i) if scores else None,
                    predicted=predicted,
                    subgroups={"region": subgroup_cycle[i % len(subgroup_cycle)]},
                )
            )
            i += 1
    return Dataset(cases)


class TestConfig:
    def test_needs_a_positive_cell(self):
        with pytest.raises(InputError):
            ScleConfig(n_fp=0, n_fn=0, n_tp=0, n_tn=5)

    def test_round_trip(self):
        config = ScleConfig(n_fp=3, n_fn=2, n_tp=4, substratify_by=("region",), seed=7)
        assert ScleConfig.from_dict(config.to_json_dict()) == config


class TestDrawSample:
    def test_exact_counts_and_weights(self):
        ds = labeled_dataset()
        config = ScleConfig(n_fp=3, n_fn=3, n_tp=3, seed=1)
        sample = draw_sample(ds, config)
        by_cell = Counter(r.cell for r in sample.rows)
        assert by_cell == {"FP": 3, "FN": 3, "TP": 3}
        for row in sample.rows:
            pop = sample.cell_population_sizes[row.cell]
            size = sample.cell_sample_sizes[row.cell]
            assert row.sampling_weight == pop / size
            assert row.sampling_weight * size == pop

    def test_shortfall_warns_not_errors(self):
        ds = labeled_dataset(n_fp=5)
        config = ScleConfig(n_fp=10, n_fn=0, n_tp=1, seed=1)
        with pytest.warns(UserWarning, match="5 of 10"):
            sample = draw_sample(ds, config)
        assert sample.shortfalls["FP"] == (10, 5)
        assert sample.cell_sample_sizes["FP"] == 5

    def test_deterministic_and_disjoint(self):
        ds = labeled_dataset()
        config = ScleConfig(n_fp=5, n_fn=5, n_tp=5, n_tn=2, seed=42)
        s1 = draw_sample(ds, config)
        s2 = draw_sample(ds, config)
        assert canonical_json(s1.to_json_dict()) == canonical_json(s2.to_json_dict())
        ids = [r.case_id for r in s1.rows]
        assert len(ids) == len(set(ids))
        s3 = draw_sample(ds, ScleConfig(n_fp=5, n_fn=5, n_tp=5, n_tn=2, seed=43))
        assert [r.case_id for r in s3.rows] != ids

    def test_missing_predictions_rejected(self):
        ds = Dataset([make_case("a", "positive", score=0.5)])
        with pytest.raises(InputError, match="predicted"):
            draw_sample(ds, ScleConfig(n_tp=1))

    def test_substratified_allocation_sums_exactly(self):
        ds = labeled_dataset(n_fp=30, subgroup_cycle=("x", "y", "z"))
        config = ScleConfig(n_fp=7, n_fn=1, n_tp=1, substratify_by=("region",), seed=3)
        sample = draw_sample(ds, config)
        fp_rows = [r for r in sample.rows if r.cell == "FP"]
        assert len(fp_rows) == 7
        by_region = Counter(r.strata["region"] for r in fp_rows)
        assert sum(by_region.values()) == 7
        # proportional to population shares
        pop_by_region = Counter(
            c.subgroups["region"] for c in ds.cases if c.reference is ReferenceLabel.NEGATIVE and c.predicted
        )
        for region, allocated in by_region.items():
            expected = 7 * pop_by_region[region] / 30
            assert abs(allocated - expected) < 1

    def test_boundary_top_bin_always_represented(self):
        ds = labeled_dataset(n_fp=40, scores=True)
        config = ScleConfig(n_fp=4, n_fn=1, n_tp=1, boundary_bins=4, seed=5)
        sample = draw_sample(ds, config)
        fp_rows = [r for r in sample.rows if r.cell == "FP"]
        bins = {r.strata["boundary_bin"] for r in fp_rows}
        assert "bin_3" in bins  # most boundary-distant bin

    def test_a_bin_count_beyond_int64_products_labels_each_case_as_integers_do(self):
        ds = labeled_dataset(n_fp=40, scores=True)
        config = ScleConfig(n_fp=40, n_fn=15, n_tp=3, boundary_bins=2**62, seed=5)  # FP and FN whole, TP drawn
        sample = draw_sample(ds, config)
        assert sample == ref.draw_sample(ds, config)  # rank * bins // cell size in Python integers
        for cell in ("FP", "FN", "TP"):
            bins = [int(r.strata["boundary_bin"].removeprefix("bin_")) for r in sample.rows if r.cell == cell]
            assert all(0 <= b < 2**62 for b in bins) and len(set(bins)) == len(bins)  # more bins than cases

    def test_the_farthest_bin_is_the_largest_number_past_six_digits(self):
        ds = apply_threshold(generate(PopulationSpec(n=3000, prevalence=0.05, seed=3)).dataset, 0.7)
        sample = draw_sample(ds, ScleConfig(n_fp=5, boundary_bins=2_000_000, seed=1))
        cols, fp = ds.columns, confusion_cells(ds) == 1  # codes order the cells TP, FP, FN, TN
        farthest = cols.case_id[fp][np.argmax(np.abs(cols.score[fp] - 0.7))]
        top = max((r for r in sample.rows if r.cell == "FP"), key=lambda r: int(r.strata["boundary_bin"][4:]))
        assert top.case_id == farthest and int(top.strata["boundary_bin"][4:]) >= 10**6
        assert sample == ref.draw_sample(ds, ScleConfig(n_fp=5, boundary_bins=2_000_000, seed=1))

    def test_boundary_bins_need_scores(self):
        ds = labeled_dataset(scores=False)
        with pytest.raises(InputError, match="score"):
            draw_sample(ds, ScleConfig(n_fp=2, boundary_bins=3, seed=1))


def benchmark_dataset(per_cell=60, seed=0):
    cases = []
    i = 0
    for model in (True, False):
        for bench in (True, False):
            for j in range(per_cell):
                cases.append(
                    make_case(
                        f"m{int(model)}b{int(bench)}-{j:03d}",
                        "positive" if (i + j) % 2 else "negative",
                        predicted=model,
                        benchmark_predicted=bench,
                    )
                )
            i += 1
    return Dataset(cases)


@settings(max_examples=300, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=12),
    fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_largest_remainder_stays_within_strata_below_population(sizes, fraction):
    # draw_sample allocates over strata only when the cell's population exceeds
    # the request, so no stratum can be asked for more cases than it holds
    total = int(fraction * sum(sizes))
    alloc = _largest_remainder(total, sizes, list(range(len(sizes))))
    assert sum(alloc) == total
    assert all(0 <= a <= s for a, s in zip(alloc, sizes))


class TestBenchmarkMode:
    def test_requires_benchmark_labels(self):
        ds = labeled_dataset()
        with pytest.raises(InputError, match="benchmark"):
            draw_sample(ds, ScleConfig(n_fp=1, n_fn=1, n_tp=1, benchmark_mode=True))

    def test_oversampling_allocation_formula(self):
        # factor 3 with equal cell sizes: disagreement cells get 3/(3+3+1+1) each
        ds = benchmark_dataset()
        factor = 3.0
        config = ScleConfig(
            n_fp=8, n_fn=8, n_tp=8, n_tn=8, benchmark_mode=True,
            disagreement_oversample_factor=factor, seed=1,
        )
        sample = draw_sample(ds, config)
        total = config.total_requested
        counts = Counter(r.benchmark_cell for r in sample.rows)
        assert sum(counts.values()) == total
        share = factor / (2 * factor + 2)
        for cell in DISAGREEMENT_CELLS:
            assert counts[cell] == pytest.approx(total * share, abs=1)

    def test_expected_share_over_many_seeds(self):
        ds = benchmark_dataset(per_cell=40)
        factor = 3.0
        totals = Counter()
        n_draws = 200
        for seed in range(n_draws):
            config = ScleConfig(
                n_fp=4, n_fn=4, n_tp=4, n_tn=4, benchmark_mode=True,
                disagreement_oversample_factor=factor, seed=seed,
            )
            sample = draw_sample(ds, config)
            totals.update(r.benchmark_cell for r in sample.rows)
        grand_total = sum(totals.values())
        share = factor / (2 * factor + 2)
        for cell in DISAGREEMENT_CELLS:
            assert totals[cell] / grand_total == pytest.approx(share, abs=0.02)


class TestSheetRoundTrip:
    @staticmethod
    def _sample_and_sheet(tmp_path, context=()):
        ds = labeled_dataset(n_fp=12, n_fn=9, n_tp=9, scores=True)
        config = ScleConfig(n_fp=3, n_fn=3, n_tp=3, seed=21)
        sample = draw_sample(ds, config)
        sheet = emit_review_sheet(sample, ds, context_fields=context, path=tmp_path / "sheet.csv")
        return ds, sample, sheet

    def test_untouched_sheet_yields_zero_annotations(self, tmp_path):
        _, sample, sheet = self._sample_and_sheet(tmp_path)
        text = sheet.read_text()
        assert text.startswith("# seed: 21\n")
        assert f"# config_hash: {sample.config_hash}" in text
        assert len(text.splitlines()) == 3 + 1 + 9  # header block, csv header, 9 rows
        assert ingest_annotations(sheet, sample) == []

    def test_sheet_ends_every_line_in_lf(self, tmp_path):
        _, sample, sheet = self._sample_and_sheet(tmp_path, context=("score",))
        data = sheet.read_bytes()
        assert b"\r" not in data
        assert data.count(b"\n") == 3 + 1 + 9
        assert ingest_annotations(sheet, sample) == []

        def annotate(rows):
            next(r for r in rows if r[1] == "TP")[-3] = "trivial"

        self._edit_rows(sheet, annotate)
        assert b"\r" not in sheet.read_bytes()
        assert [a.triviality for a in ingest_annotations(sheet, sample)] == [Triviality.TRIVIAL]

    def test_single_edit_returns_one_annotation(self, tmp_path):
        _, sample, sheet = self._sample_and_sheet(tmp_path)
        lines = sheet.read_text().splitlines()
        tp_index = next(i for i, l in enumerate(lines) if ",TP," in l)
        parts = lines[tp_index].split(",")
        parts[-3] = "trivial"  # triviality column
        lines[tp_index] = ",".join(parts)
        sheet.write_text("\n".join(lines) + "\n")
        annotations = ingest_annotations(sheet, sample)
        assert len(annotations) == 1
        assert annotations[0].triviality is Triviality.TRIVIAL

    def test_tampered_hash_rejected_naming_both(self, tmp_path):
        _, sample, sheet = self._sample_and_sheet(tmp_path)
        text = sheet.read_text().replace(sample.config_hash[:6], "deadbe", 1)
        sheet.write_text(text)
        with pytest.raises(InputError, match="does not match"):
            ingest_annotations(sheet, sample)

    def test_unknown_tag_value_names_row(self, tmp_path):
        _, sample, sheet = self._sample_and_sheet(tmp_path)
        lines = sheet.read_text().splitlines()
        parts = lines[5].split(",")
        parts[-6] = "sometimes"  # never_event column
        lines[5] = ",".join(parts)
        sheet.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match="row 6.*sometimes"):
            ingest_annotations(sheet, sample)

    def test_duplicate_case_rows_rejected(self, tmp_path):
        _, sample, sheet = self._sample_and_sheet(tmp_path)
        lines = sheet.read_text().splitlines()
        lines.append(lines[-1])
        sheet.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match="duplicate case_id"):
            ingest_annotations(sheet, sample)

    def test_annotated_tp_without_triviality_warns(self, tmp_path):
        _, sample, sheet = self._sample_and_sheet(tmp_path)
        lines = sheet.read_text().splitlines()
        tp_index = next(i for i, l in enumerate(lines) if ",TP," in l)
        parts = lines[tp_index].split(",")
        parts[-2] = "note without triviality"
        lines[tp_index] = ",".join(parts)
        sheet.write_text("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="triviality"):
            annotations = ingest_annotations(sheet, sample)
        assert len(annotations) == 1

    @staticmethod
    def _edit_rows(sheet, edit, encoding="utf-8", newline="\n"):
        """Rewrite the sheet's CSV rows through ``edit(rows)``, keeping the comment block."""
        *comments, body = sheet.read_text(encoding="utf-8").split("\n", 3)
        rows = list(csv.reader(io.StringIO(body, newline="")))
        edit(rows)
        buf = io.StringIO()
        csv.writer(buf, lineterminator=newline).writerows(rows)
        sheet.write_text(newline.join(comments) + newline + buf.getvalue(), encoding=encoding, newline="")

    def test_spreadsheet_saved_sheet_with_bom_and_crlf(self, tmp_path):
        _, sample, sheet = self._sample_and_sheet(tmp_path)

        def annotate(rows):
            tp = next(r for r in rows if r[1] == "TP")
            tp[-3] = "trivial"

        self._edit_rows(sheet, annotate, encoding="utf-8-sig", newline="\r\n")
        assert sheet.read_bytes().startswith(b"\xef\xbb\xbf# seed")
        annotations = ingest_annotations(sheet, sample)
        assert [a.triviality for a in annotations] == [Triviality.TRIVIAL]

    def test_multiline_note_keeps_newline_and_later_row_numbers(self, tmp_path):
        _, sample, sheet = self._sample_and_sheet(tmp_path)

        def note(rows):
            rows[1][-2] = "line one\nline two"  # file lines 5-6

        self._edit_rows(sheet, note)
        (annotation,) = ingest_annotations(sheet, sample)
        assert annotation.note == "line one\nline two"

        def bad_tag(rows):
            rows[2][-6] = "sometimes"  # file line 7, after the two-line note

        self._edit_rows(sheet, bad_tag)
        with pytest.raises(InputError, match="row 7: .*sometimes"):
            ingest_annotations(sheet, sample)

    def test_unknown_context_field_rejected(self, tmp_path):
        ds = labeled_dataset()
        sample = draw_sample(ds, ScleConfig(n_fp=1, n_fn=1, n_tp=1, seed=2))
        with pytest.raises(InputError, match="context field"):
            emit_review_sheet(sample, ds, context_fields=("nope",), path=tmp_path / "s.csv")

    def test_subgroup_and_metadata_context_columns(self, tmp_path):
        ds = labeled_dataset(n_fp=6, n_fn=6, n_tp=6, scores=True)
        ds = Dataset(ds.cases, metadata={"source": "batch-7"})
        sample = draw_sample(ds, ScleConfig(n_fp=2, n_fn=2, n_tp=2, seed=2))
        sheet = emit_review_sheet(
            sample, ds, context_fields=("region", "score", "source"), path=tmp_path / "s.csv"
        )
        lines = sheet.read_text().splitlines()
        assert lines[3].startswith("case_id,cell,benchmark_cell,region,score,source,")
        first = lines[4].split(",")
        assert first[3] in ("x", "y")
        assert first[5] == "batch-7"

    def test_full_round_trip_preserves_tag_multiset(self, tmp_path):
        ds = labeled_dataset(n_fp=40, n_fn=40, n_tp=40, scores=True)
        sample = draw_sample(ds, ScleConfig(n_fp=10, n_fn=10, n_tp=10, seed=31), )
        sheet = emit_review_sheet(sample, ds, path=tmp_path / "sheet.csv")

        rng = np.random.default_rng(5)
        lines = sheet.read_text().splitlines()
        tag_multiset = Counter()
        for i in range(4, len(lines)):  # skip comment block + header
            parts = lines[i].split(",")
            cell = parts[1]
            chosen = rng.choice(4, size=int(rng.integers(0, 3)), replace=False)
            for tag_idx in chosen:
                parts[-7 + tag_idx] = "1"
                tag_multiset[("never_event", "unexpected_error", "input_data_issue", "test_set_issue")[tag_idx]] += 1
            if cell == "TP":
                parts[-3] = "trivial" if rng.random() < 0.3 else "non_trivial"
            lines[i] = ",".join(parts)
        sheet.write_text("\n".join(lines) + "\n")

        annotations = ingest_annotations(sheet, sample)
        recovered = Counter()
        for a in annotations:
            for tag in a.categories:
                recovered[tag.value] += 1
        assert recovered == tag_multiset

        # serialization round trip too
        payload = annotations_to_json_dict(annotations)
        assert annotations_from_json_dict(json.loads(json.dumps(payload))) == annotations


class TestAggregate:
    @staticmethod
    def _sample(tmp_path=None):
        ds = labeled_dataset(n_fp=40, n_fn=40, n_tp=40)
        sample = draw_sample(ds, ScleConfig(n_fp=10, n_fn=10, n_tp=10, seed=8))
        return ds, sample

    def test_zero_annotations_explicit_empty_state(self):
        _, sample = self._sample()
        summary = aggregate([], sample)
        assert summary.no_findings is True
        assert summary.n_annotations == 0

    def test_triviality_rate_three_of_ten(self):
        _, sample = self._sample()
        tp_ids = [r.case_id for r in sample.rows if r.cell == "TP"]
        annotations = [
            ScleAnnotation(case_id=cid, reviewer="r1", triviality=Triviality.TRIVIAL)
            for cid in tp_ids[:3]
        ] + [
            ScleAnnotation(case_id=cid, reviewer="r1", triviality=Triviality.NON_TRIVIAL)
            for cid in tp_ids[3:]
        ]
        summary = aggregate(annotations, sample)
        assert summary.triviality_rate == pytest.approx(0.30)
        lo, hi = summary.triviality_ci
        assert lo <= 0.30 <= hi
        # bootstrap-style oracle for the proportion: resample 10 berns at p=0.3
        rng = np.random.default_rng(0)
        draws = rng.binomial(10, 0.3, size=4000) / 10
        assert lo == pytest.approx(np.quantile(draws, 0.025), abs=0.12)
        assert hi == pytest.approx(np.quantile(draws, 0.975), abs=0.12)

    def test_never_event_always_itemized(self):
        _, sample = self._sample()
        fn_id = next(r.case_id for r in sample.rows if r.cell == "FN")
        annotations = [
            ScleAnnotation(
                case_id=fn_id,
                reviewer="r2",
                categories=(TagCategory.NEVER_EVENT,),
                note="unacceptable miss",
            )
        ]
        summary = aggregate(annotations, sample)
        assert summary.never_events == [
            {"case_id": fn_id, "cell": "FN", "note": "unacceptable miss"}
        ]
        assert "escalate" in summary.remedial_actions

    def test_projection_scales_by_weight(self):
        _, sample = self._sample()
        fp_rows = [r for r in sample.rows if r.cell == "FP"]
        annotations = [
            ScleAnnotation(case_id=r.case_id, reviewer="r", categories=(TagCategory.INPUT_DATA_ISSUE,))
            for r in fp_rows[:4]
        ]
        summary = aggregate(annotations, sample)
        proj = summary.per_cell_tags["FP"]["input_data_issue"]
        assert proj.raw_count == 4
        assert proj.projected == pytest.approx(4 * (40 / 10))
        assert proj.ci_low <= proj.projected <= proj.ci_high

    def test_a_repeated_tag_counts_once_per_cell_and_per_subgroup(self):
        sample = draw_sample(labeled_dataset(), ScleConfig(n_fp=4, n_fn=1, substratify_by=("region",), seed=2))
        row = next(r for r in sample.rows if r.cell == "FP")
        tags = (TagCategory.NEVER_EVENT, TagCategory.NEVER_EVENT)
        summary = aggregate([ScleAnnotation(case_id=row.case_id, reviewer="r", categories=tags)], sample)
        assert summary.per_cell_tags["FP"]["never_event"].raw_count == 1
        assert summary.per_subgroup_tags == {"region": {row.strata["region"]: {"never_event": 1}}}
        assert len(summary.never_events) == 1

    def test_unknown_annotation_rejected(self):
        _, sample = self._sample()
        with pytest.raises(InputError, match="not part of the sample"):
            aggregate([ScleAnnotation(case_id="ghost", reviewer="r")], sample)

    def test_deterministic_per_seed(self):
        _, sample = self._sample()
        tp_ids = [r.case_id for r in sample.rows if r.cell == "TP"]
        annotations = [
            ScleAnnotation(case_id=tp_ids[0], reviewer="r", categories=(TagCategory.TEST_SET_ISSUE,))
        ]
        a = aggregate(annotations, sample, seed=4)
        b = aggregate(annotations, sample, seed=4)
        assert a.to_json_dict() == b.to_json_dict()


class TestApplyVerdicts:
    def test_new_version_only(self):
        ds = labeled_dataset(n_fp=3, n_fn=3, n_tp=3, n_tn=3)
        target = ds.cases[0].case_id
        annotations = [
            ScleAnnotation(case_id=target, reviewer="r", verdict=ReferenceLabel.POSITIVE)
        ]
        revised = apply_verdicts(ds, annotations)
        assert revised is not ds
        assert next(c for c in ds.cases if c.case_id == target).reference is ReferenceLabel.NEGATIVE
        assert next(c for c in revised.cases if c.case_id == target).reference is ReferenceLabel.POSITIVE
        assert revised.metadata["verdicts_applied"] == 1

    def test_unknown_target_rejected(self):
        ds = labeled_dataset(n_fp=1, n_fn=1, n_tp=1, n_tn=1)
        with pytest.raises(InputError, match="unknown case ids"):
            apply_verdicts(ds, [ScleAnnotation(case_id="zz", reviewer="r", verdict=ReferenceLabel.POSITIVE)])


class TestSampleSerialization:
    def test_sample_round_trip(self):
        ds = labeled_dataset()
        sample = draw_sample(ds, ScleConfig(n_fp=2, n_fn=2, n_tp=2, seed=99))
        payload = json.loads(json.dumps(sample.to_json_dict()))
        restored = ScleSample.from_json_dict(payload)
        assert restored == sample
        assert restored.config_hash == sample.config_hash
