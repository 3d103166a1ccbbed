"""Column ingest against the per-row oracle, and the column-backed Dataset.

Hypothesis writes CSV and JSONL text (quoted fields, embedded newlines,
padded and mixed-case flags and labels, every score spelling ``float()``
takes or refuses, empty fields, short rows, gapped ``run_`` columns,
``sg_`` columns, duplicate ids, mixed designs, unknown strata) and reads it
with ``datamodel.ingest`` and with the row-by-row reader in
``reference_loops``. Either both succeed with equal datasets and equal cases,
or both fail with the same problems in the same order.
"""

import csv
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_loops as ref
from rareval import cli, datamodel
from rareval.datamodel import (
    CaseColumns,
    Dataset,
    EvaluationCase,
    ReferenceLabel,
    StratumSpec,
    apply_threshold,
    emit,
    ingest,
)
from rareval.errors import IngestError, InputError
from rareval.provenance import canonical_json, slot_fields
from rareval.synth import EnrichmentRule, PopulationSpec, generate

from conftest import make_case

# Each pool lists valid texts first; a clean example draws from those only.
_POOLS = {
    "case_id": (["x1", "x2", " x3 ", "x,4", 'x"5', "x\n6"], ["", "  ", "\t"]),
    "reference": (
        ["positive", "negative", " Positive", "NEGATIVE ", "ambiguous", "Excluded", "\tnegative\n"],
        ["", "maybe", "pos itive"],
    ),
    "score": (
        ["0.5", "0.25", "1e-3", "2.5E+2", " 0.75 ", "7", "-0", ".5", "1_0", "", "0.25"],
        ["inf", "-Infinity", "nan", "NaN", "abc", "0x1", "1__0", " ", "1e"],
    ),
    "flag": (["", "", "1", "0", "true", "False", " TRUE ", "0 "], ["yes", " ", "2"]),
    "stratum_id": (["s1", "s2"], ["", "zz"]),
    "sg": (["", "north", "South", "a,b", "two\nlines", "north"], []),
    "note": (["", "anything, at all"], []),
}
_OPTIONAL = ["score", "predicted", "benchmark_predicted", "stratum_id", "note", "sg_site", "sg_era",
             "run_1", "run_2", "run_10"]


def _pool(column: str) -> str:
    if column in ("predicted", "benchmark_predicted") or column.startswith("run_"):
        return "flag"
    return "sg" if column.startswith("sg_") else column


@st.composite
def csv_files(draw):
    """(csv text, design sidecar payload or None).

    Clean rows hold valid fields only; "design" rows are clean except that
    their strata may be mixed or unknown and an id may repeat, so that the
    dataset-level checks run; dirty rows draw from every pool, and blank or
    whitespace-only lines come before, between and after them.
    """
    mode = draw(st.sampled_from(["clean", "design", "dirty"]))
    clean = mode != "dirty"
    header = ["case_id", "reference"] + draw(st.lists(st.sampled_from(_OPTIONAL), unique=True, max_size=8))
    if clean and "score" not in header and "predicted" not in header:
        header.append("score")
    header = draw(st.permutations(header))
    stratified = "stratum_id" in header and (not clean or draw(st.booleans()))
    rows = []
    for i in range(draw(st.integers(0, 12))):
        row = []
        for column in header:
            valid, invalid = _POOLS[_pool(column)]
            if column == "case_id" and clean:
                text = f"r{i}"
            elif column == "stratum_id" and mode == "clean":
                text = draw(st.sampled_from(valid)) if stratified else ""
            elif clean and (column == "score" or column == "predicted" and "score" not in header):
                text = draw(st.sampled_from([t for t in valid if t]))
            else:
                text = draw(st.sampled_from(valid + ([] if clean and column != "stratum_id" else invalid)))
            row.append(text)
        if mode == "dirty" and draw(st.integers(0, 9)) == 0:
            row = draw(st.sampled_from([row[:-1], row + ["extra"], []]))
        rows.append(row)
    if mode != "clean" and rows and draw(st.booleans()):  # repeat an id
        rows.append(list(draw(st.sampled_from(rows))))
    buf, end = io.StringIO(), draw(st.sampled_from(["\r\n", "\n"]))
    writer = csv.writer(buf, lineterminator=end, quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    for row in [header, *rows, None]:
        if mode == "dirty" and draw(st.integers(0, 4)) == 0:  # a blank line, or one of only whitespace, is no row
            buf.write(draw(st.sampled_from(["", " ", "\t", " \x0c "])) + end)
        if row is not None:
            writer.writerow(row)
    design = None
    if "stratum_id" in header and draw(st.booleans()):
        specs = [{"stratum_id": "s1", "inclusion_probability": 0.3, "description": ""},
                 {"stratum_id": "s2", "inclusion_probability": 1.0, "description": "rest"}]
        design = {"kind": "dataset_design", "design": specs, "metadata": {"seed": 3}}
    return buf.getvalue(), design


# (valid, invalid) values of each record key
_JSON_VALUES = {
    "case_id": (["j1", "j2", " j3", 2], ["", "  ", None, True, [1]]),
    "reference": (["positive", "negative", " Ambiguous", "EXCLUDED"], ["", "nope", True, None]),
    "score": (
        [0.1, 0.9, 0.5, 1e300, "0.5", " 1_0 ", None, True, False],
        [float("nan"), "abc", "inf", "nan", [1], {"x": 1}, 10**400, -(10**400)],
    ),
    "predicted": ([True, False, None], [1, "1"]),
    "benchmark_predicted": ([True, False, None], [0]),
    "stratum_id": (["s1", "s2"], ["zz", "", None, 3]),
    "subgroups": (
        [{"site": "north"}, {"site": ""}, {"a": 1, "b": "x"}, {"site": None, "b": 2.5}, {}, [], None],
        [["x"], "s", {"site": True}, {"a": "x", "site": [1]}, {"site": {"x": 1}}],
    ),
    "repeated_labels": ([[True, False], [True], None, [False, False, True]], [[], [1], "x"]),
}


@st.composite
def jsonl_files(draw):
    """(jsonl text, design sidecar payload or None); clean files hold valid records only.

    A dirty file's record may start from a valid id and reference, so that
    the checks after those fields are reached more often.
    """
    clean, stratified = draw(st.booleans()), draw(st.booleans())
    lines = []
    for i in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 19))
        if not clean and kind == 0:
            lines.append(draw(st.sampled_from(["", "not json", "[1, 2]", "   "])))
            continue
        keys = draw(st.lists(st.sampled_from(sorted(_JSON_VALUES)), unique=True))
        record = {"case_id": f"r{i}", "reference": "negative"} if not clean and draw(st.booleans()) else {}
        for key in keys:
            valid, invalid = _JSON_VALUES[key]
            record[key] = draw(st.sampled_from(valid if clean else valid + invalid))
        if clean:
            record["case_id"] = f"r{i}"
            record.setdefault("reference", "negative")
            if record.get("score") is None and record.get("predicted") is None:
                record["score"] = 0.5
            record.pop("stratum_id", None)
            if stratified:
                record["stratum_id"] = draw(st.sampled_from(["s1", "s2"]))
        if not clean and kind == 1:
            record["kind"] = "truth_sidecar"
        lines.append(json.dumps(record))
    design = None
    if stratified if clean else draw(st.booleans()):
        specs = [{"stratum_id": "s1", "inclusion_probability": 0.3, "description": ""},
                 {"stratum_id": "s2", "inclusion_probability": 1.0, "description": ""}]
        design = {"kind": "dataset_design", "design": specs, "metadata": {}}
    return "\n".join(lines) + "\n", design


def _assert_same_outcome(text: str, design: dict | None, fmt: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"d.{fmt}"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        if design is not None:
            Path(f"{path}.design.json").write_text(canonical_json(design), encoding="utf-8")
        try:
            cases, expected_design, metadata = ref.ingest(path, fmt)
        except InputError as exc:
            with pytest.raises(type(exc)) as excinfo:
                ingest(path, fmt)
            assert str(excinfo.value) == str(exc)
            assert getattr(excinfo.value, "problems", None) == getattr(exc, "problems", None)
            return
        ds = ingest(path, fmt)
    assert ds.cases == cases
    assert ds.design == expected_design and ds.metadata == metadata
    assert ds == Dataset(cases, expected_design, metadata)
    assert Dataset(ds.cases, ds.design, ds.metadata) == ds


class TestIngestMatchesRowOracle:
    @settings(max_examples=300, deadline=None)
    @given(csv_files(), st.sampled_from([1, 2, 3, 4096]))  # rows read per chunk
    @example((  # rows failing several checks at once: each reports the first a row-by-row reader meets
        "case_id,reference,score,predicted,run_2,run_1\n"
        "a,maybe,abc,,,\n"
        " ,maybe,abc,,,\n"
        "c,positive,inf,yes,2,x\n"
        "d,maybe,,,,1\n"
        "e,negative,nan,,x,\n"
        "f,negative,,,,\n",
        None,
    ), 4096)
    @example((  # a short row, bad fields and a repeated id on both sides of chunk boundaries
        "case_id,reference,score\n"
        "a,positive,0.5\n"
        "b,negative\n"
        "c,maybe,0.2\n"
        "a,negative,0.1\n"
        "d,negative,abc,extra\n"
        "e,negative,inf\n"
        "c,negative,0.3\n",
        None,
    ), 2)
    def test_csv(self, file, chunk_rows):
        with mock.patch.object(datamodel, "_CHUNK_ROWS", chunk_rows):
            _assert_same_outcome(*file, "csv")

    @settings(max_examples=200, deadline=None)
    @given(jsonl_files())
    @example((  # records failing several checks at once: each reports the first a record-by-record reader meets
        "".join(json.dumps(record) + "\n" for record in [
            {"case_id": True},
            {"reference": "positive", "score": 0.5},
            {"case_id": "a", "reference": "maybe", "score": "abc"},
            {"case_id": "b", "reference": "positive", "score": [1], "repeated_labels": [1]},
            {"case_id": "c", "reference": "positive", "repeated_labels": [1], "subgroups": "s"},
            {"case_id": "d", "reference": "positive", "subgroups": "s", "stratum_id": 3},
            {"case_id": "e", "reference": "positive", "subgroups": {"x": [1]}, "stratum_id": 3},
            {"case_id": "f", "reference": "positive", "stratum_id": 3, "predicted": 1},
            {"case_id": "g", "reference": "positive", "predicted": "1", "benchmark_predicted": 0},
            {"case_id": "h", "reference": "positive", "benchmark_predicted": 0, "repeated_labels": []},
            {"case_id": "i", "reference": "positive", "repeated_labels": []},
            {"case_id": "j", "reference": "positive", "score": float("nan"), "repeated_labels": []},
            {"case_id": "k", "reference": "positive", "score": 0.5, "repeated_labels": []},
            {"case_id": "a", "reference": "positive", "score": 0.5},
            {"case_id": 7, "reference": "positive", "score": 0.5},
            {"case_id": "7", "reference": "positive", "score": 0.5},
        ]) + "\n   \nnot json\n[1]\n",
        None,
    ))
    def test_jsonl(self, file):
        _assert_same_outcome(*file, "jsonl")

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d"]),
                st.sampled_from([None, "s1", "s2", "zz"]),
                st.sampled_from([0.5, None, float("inf"), float("nan")]),  # score
                st.sampled_from([True, None]),  # predicted
                st.sampled_from([None, (True, False), ()]),  # repeated_labels
            ),
            max_size=6,
        ),
        st.lists(st.sampled_from(["s1", "s2"]), max_size=3),
    )
    def test_dataset_checks(self, rows, strata):
        cases = [
            make_case(f"{cid}{i % 2}", "positive", score=score, predicted=predicted, stratum_id=s, repeated_labels=runs)
            for i, (cid, s, score, predicted, runs) in enumerate(rows)
        ]
        design = [StratumSpec(s, 0.5) for s in strata]
        try:
            ref.check_dataset(tuple(cases), tuple(design))
        except InputError as exc:
            with pytest.raises(InputError) as excinfo:
                Dataset(cases, design)
            assert str(excinfo.value) == str(exc)
            return
        assert Dataset(cases, design).cases == tuple(cases)

    def test_gapped_runs_and_subgroups(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "case_id,reference,score,run_3,sg_site,run_1,sg_era,run_2\n"
            "a,positive,0.9,1,north,,old,0\n"
            "b,negative,0.1,,,1,,\n"
            "c,Negative,0.2,,south,,,\n"
            "d,ambiguous,0.3,0,,0,new,1\n"
        )
        ds = ingest(path)
        cases, _, _ = ref.ingest(path)
        assert ds.cases == cases
        assert [c.repeated_labels for c in ds.cases] == [(False, True), (True,), None, (False, True, False)]
        assert [c.subgroups for c in ds.cases] == [
            {"site": "north", "era": "old"}, {}, {"site": "south"}, {"era": "new"},
        ]
        cols = ds.columns
        assert cols.subgroup_names == ("era", "site")
        assert cols.subgroup_categories == (("new", "old"), ("north", "south"))
        assert cols.subgroups.tolist() == [[1, 0], [-1, -1], [-1, 1], [0, -1]]
        assert cols.runs.tolist() == [[0, 1, -1], [1, -1, -1], [-1, -1, -1], [0, 1, 0]]


# _JSON_VALUES as Python values may hold them: finite floats only (NaN is no JSON number), ids drawn as numbers,
# text with an unpaired surrogate (written to a file as a JSON escape), and repeated labels as tuples too
_CASE_VALUES = {
    **_JSON_VALUES,
    "case_id": (_JSON_VALUES["case_id"][0], [*_JSON_VALUES["case_id"][1], "\ud800x"]),
    "score": (_JSON_VALUES["score"][0], [v for v in _JSON_VALUES["score"][1] if v == v]),
    "stratum_id": (_JSON_VALUES["stratum_id"][0], [*_JSON_VALUES["stratum_id"][1], "s\udfff"]),
    "subgroups": (_JSON_VALUES["subgroups"][0], [*_JSON_VALUES["subgroups"][1], {"site\ud800": "n"}, {"a": "\udc00"}]),
}
_NUMBERS = st.one_of(st.integers(-(10**20), 10**20), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def case_records(draw):
    """(records, design sidecar payload or None): JSON records that hold an id and a reference, so that they are
    at once JSONL lines and the keyword arguments of cases; an absent key is the field's default. Clean files
    hold valid values only, with a score or a prediction, unique ids and, with a design, a stratum each."""
    clean, stratified, records = draw(st.booleans()), draw(st.booleans()), []
    for i in range(draw(st.integers(0, 8))):
        record = {"case_id": f"r{i}", "reference": "negative"}
        for key in draw(st.lists(st.sampled_from(sorted(_CASE_VALUES)), unique=True)):
            valid, invalid = _CASE_VALUES[key]
            record[key] = draw(st.sampled_from(valid if clean else valid + invalid))
        if draw(st.integers(0, 3)) == 0:
            record["case_id"] = i + draw(st.sampled_from([0, 0.5])) if clean else draw(_NUMBERS)
        elif clean:
            record["case_id"] = f"r{i}"
        if type(record.get("repeated_labels")) is list and draw(st.booleans()):
            record["repeated_labels"] = tuple(record["repeated_labels"])
        if clean:
            if record.get("score") is None and record.get("predicted") is None:
                record["score"] = 0.5
            record.pop("stratum_id", None)
            if stratified:
                record["stratum_id"] = draw(st.sampled_from(["s1", "s2"]))
        records.append(record)
    design = None
    if stratified if clean else draw(st.booleans()):
        specs = [{"stratum_id": "s1", "inclusion_probability": 0.3, "description": ""},
                 {"stratum_id": "s2", "inclusion_probability": 1.0, "description": ""}]
        design = {"kind": "dataset_design", "design": specs, "metadata": {}}
    return records, design


_P, _N = ReferenceLabel.POSITIVE, ReferenceLabel.NEGATIVE


class TestDatasetOfCasesKeepsTheRecordRule:
    """``Dataset(cases)`` applies the JSONL record rule, types included, and its cases are the columns' view."""

    @settings(max_examples=300, deadline=None)
    @given(case_records())
    @example(([{"case_id": 7, "reference": "positive", "score": 0.5, "subgroups": {"site": 1}},
               {"case_id": "b", "reference": " Negative", "score": "0.25", "repeated_labels": (True, False)}], None))
    @example(([{"case_id": "a", "reference": "positive", "predicted": 1},
               {"case_id": 2.5, "reference": "positive", "score": 0.5, "repeated_labels": ()}], None))
    def test_cases_read_as_their_records_read_from_jsonl(self, file):
        records, design = file
        cases = [EvaluationCase(**record) for record in records]
        specs = tuple(StratumSpec(**spec) for spec in design["design"]) if design else ()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.jsonl"
            path.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
            if design is not None:
                Path(f"{path}.design.json").write_text(canonical_json(design), encoding="utf-8")
            try:
                expected = ingest(path, "jsonl")
            except IngestError as exc:
                with pytest.raises(InputError) as excinfo:
                    Dataset(cases, specs)
                assert str(excinfo.value) == exc.problems[0]
                return
        ds = Dataset(cases, specs)
        assert ds == expected and ds.cases == expected.cases

    @pytest.mark.parametrize("cases, problem", [
        # a positive whose prediction is 2 was counted in no cell: recall 1.0 from one of two positives
        ([EvaluationCase("a", _P, predicted=2), EvaluationCase("b", _N, predicted=False),
          EvaluationCase("c", _P, predicted=True)], "row 1: field 'predicted': expected a boolean"),
        ([EvaluationCase("a", _P, 0.5, predicted=np.True_)], "row 1: field 'predicted': expected a boolean"),
        ([EvaluationCase("a", _P, 0.5, subgroups={1: "x"}), EvaluationCase("b", _N, 0.5, subgroups={"s": "y"})],
         "row 1: field 'subgroups': expected a string name, got 1"),
        ([EvaluationCase("a", _P, "x")], "row 1: field 'score': not a real number: 'x'"),
        ([EvaluationCase(None, _P, 0.5)], "row 1: field 'case_id': missing"),
        ([EvaluationCase("a", _P, 0.5, repeated_labels=(True, 3))],
         "row 1: field 'repeated_labels': expected a list of booleans"),
        ([EvaluationCase("a", _P, 0.5, repeated_labels=np.array([True, False]))],
         "row 1: field 'repeated_labels': expected a list of booleans"),
        ([EvaluationCase("a", _P, 0.5), EvaluationCase("\ud800x", _N, 0.5)],
         "row 2: field 'case_id': not Unicode text (unpaired surrogate)"),
        ([EvaluationCase("a", np.True_, 0.5)], "row 1: field 'reference': unknown reference label np.True_ "
                                               "(expected one of: positive, negative, ambiguous, excluded)"),
    ], ids=["predicted-2", "numpy-bool", "number-subgroup-name", "text-score", "null-id", "number-run-label",
            "numpy-run-labels", "surrogate-id", "numpy-bool-label"])
    def test_a_value_no_record_may_hold_is_refused_naming_its_row_and_field(self, cases, problem):
        with pytest.raises(InputError) as excinfo:
            Dataset(cases)
        assert str(excinfo.value) == problem

    @pytest.mark.parametrize("field, problem", [
        ("score", "row 1: field 'score': not a real number: array([0.1, 0.2])"),
        ("predicted", "row 1: field 'predicted': expected a boolean"),
        ("benchmark_predicted", "row 1: field 'benchmark_predicted': expected a boolean"),
        ("subgroups", "row 1: field 'subgroups': expected an object"),
        ("stratum_id", "row 1: field 'stratum_id': expected a string"),
        ("case_id", "row 1: field 'case_id': expected a string or a number"),
    ])
    def test_an_array_in_a_field_is_refused_by_its_type_before_its_truth_is_asked(self, field, problem):
        # numpy raised "the truth value of an array ... is ambiguous" for an array in the first case
        array = np.array([0.1, 0.2]) if field == "score" else np.array([True, False])
        with pytest.raises(InputError) as excinfo:
            Dataset([EvaluationCase(**{"case_id": "a", "reference": _P, "score": 0.5, field: array})])
        assert str(excinfo.value) == problem

    def test_an_array_of_subgroups_in_a_later_case_is_refused(self):
        cases = [EvaluationCase("a", _P, 0.5, subgroups={"site": "x"}),
                 EvaluationCase("b", _N, 0.5, subgroups=np.array([1, 2]))]
        with pytest.raises(InputError) as excinfo:
            Dataset(cases)
        assert str(excinfo.value) == "row 2: field 'subgroups': expected an object"

    @pytest.mark.parametrize("case, read", [
        (EvaluationCase(7, _P, 0.5), EvaluationCase("7", _P, 0.5)),
        (EvaluationCase("a", "positive", 0.5), EvaluationCase("a", _P, 0.5)),
        (EvaluationCase("a", _P, 0.5, subgroups={"site": 1}), EvaluationCase("a", _P, 0.5, subgroups={"site": "1"})),
    ], ids=["number-id", "label-text", "number-subgroup-value"])
    def test_a_value_a_record_reads_as_text_or_as_a_label_reads_so_in_a_case(self, case, read, tmp_path):
        other = EvaluationCase("b", _N, 0.2, subgroups={"site": "x"})
        ds = Dataset([case, other])
        assert ds.cases == (read, other)
        emit(ds, tmp_path / "d.jsonl", "jsonl")
        assert ingest(tmp_path / "d.jsonl", "jsonl").cases == ds.cases


class TestDuplicateHeader:
    def test_repeated_column_rejected(self, tmp_path):
        # with the last column winning, positive a's 0.9 would silently become 0.1
        path = tmp_path / "d.csv"
        path.write_text("case_id,reference,score,score\na,positive,0.9,0.1\nb,negative,0.2,0.2\n")
        with pytest.raises(IngestError) as excinfo:
            ingest(path)
        assert excinfo.value.problems == [f"{path}: header repeats column(s): ['score', 'score']"]

    def test_same_run_number_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("case_id,reference,predicted,run_1,run_01\na,positive,1,1,0\n")
        with pytest.raises(IngestError) as excinfo:
            ingest(path)
        assert excinfo.value.problems == [f"{path}: header repeats column(s): ['run_1', 'run_01']"]


@pytest.fixture
def enriched_csv(tmp_path):
    spec = PopulationSpec(n=400, prevalence=0.1, enrichment=(EnrichmentRule("negative", 0.3),), n_runs=3, seed=4)
    path = tmp_path / "enriched.csv"
    emit(generate(spec).dataset, path)
    return path


class TestColumnsAreTheStorage:
    def test_apply_threshold_shares_every_column_but_predicted(self, enriched_csv):
        ds = ingest(enriched_csv)
        thresholded = apply_threshold(ds, 0.6)
        for name, column in slot_fields(thresholded.columns).items():
            if name == "predicted":
                assert column.tolist() == (ds.columns.score >= 0.6).astype(int).tolist()
            else:
                assert column is getattr(ds.columns, name), name
        assert thresholded.design == ds.design and thresholded.metadata == ds.metadata
        assert thresholded.cases == tuple(
            EvaluationCase(**{**slot_fields(c), "predicted": c.score >= 0.6}) for c in ds.cases
        )

    def test_apply_threshold_names_first_unscored_case(self):
        ds = Dataset([make_case("a", "positive", score=0.4), make_case("b", "excluded", predicted=True),
                      make_case("c", "negative", predicted=False)])
        with pytest.raises(InputError, match="case 'c' has no score; cannot apply a threshold"):
            apply_threshold(ds, 0.5)

    def test_apply_threshold_keeps_the_prediction_of_an_excluded_unscored_case(self):
        ds = Dataset([make_case("a", "positive", score=0.9), make_case("b", "negative", score=0.2),
                      make_case("x", "excluded", predicted=True), make_case("y", "excluded", predicted=False),
                      make_case("z", "excluded", score=0.7, predicted=False)])
        assert [c.predicted for c in apply_threshold(ds, 0.5).cases] == [True, False, True, False, True]

    def test_cases_round_trip_to_an_equal_dataset(self, enriched_csv):
        ds = ingest(enriched_csv)
        assert Dataset(ds.cases, ds.design, ds.metadata) == ds
        assert ds.cases is ds.cases
        assert ds != Dataset(ds.cases[1:], ds.design, ds.metadata)

    def test_column_equality_reads_every_field(self, enriched_csv):
        cols = ingest(enriched_csv).columns
        assert isinstance(cols, CaseColumns) and cols == cols
        flipped = np.array(cols.runs)
        flipped[0, 0] = 1 - flipped[0, 0]
        assert cols != type(cols)(**{**slot_fields(cols), "runs": flipped})

    def test_jsonl_ingest_builds_no_case(self, enriched_csv, tmp_path, monkeypatch):
        ds = ingest(enriched_csv)
        rich = ds.replace_cases(
            EvaluationCase(**{**slot_fields(c), "subgroups": {"site": f"s{i % 3}"}, "benchmark_predicted": i % 2 == 0})
            for i, c in enumerate(ds.cases)
        )
        path = tmp_path / "rich.jsonl"
        emit(rich, path, "jsonl")

        def refuse(*args, **kwargs):
            raise AssertionError("JSONL ingest built an EvaluationCase")

        monkeypatch.setattr(datamodel, "EvaluationCase", refuse)
        assert ingest(path, "jsonl") == rich

    def test_jsonl_value_rules(self, tmp_path):
        """Numbers read as text, a null subgroup value is no value, and other non-text values are row problems."""
        path = tmp_path / "d.jsonl"
        records = [
            {"case_id": 7, "reference": "positive", "score": 0.5, "subgroups": {"site": 3, "era": None}},
            {"case_id": "b", "reference": "negative", "score": 0.25, "subgroups": {"site": "north", "era": 1.5}},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        cols = ingest(path, "jsonl").columns
        assert cols.case_id.tolist() == ["7", "b"]
        assert cols.subgroup_names == ("era", "site") and cols.subgroup_categories == (("1.5",), ("3", "north"))
        assert cols.subgroups.tolist() == [[-1, 0], [0, 1]]
        records = [
            {"case_id": None, "reference": "positive", "score": 0.5},
            {"case_id": [1], "reference": "positive", "score": 0.5},
            {"case_id": "c", "reference": "positive", "score": 0.5, "subgroups": {"era": "x", "site": {"x": 1}}},
            {"case_id": "d", "reference": "positive", "score": 0.5, "subgroups": {"site": True}},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        with pytest.raises(IngestError) as excinfo:
            ingest(path, "jsonl")
        assert excinfo.value.problems == [
            "row 1: field 'case_id': missing",
            "row 2: field 'case_id': expected a string or a number",
            "row 3: field 'subgroups': expected a string, a number or null for 'site'",
            "row 4: field 'subgroups': expected a string, a number or null for 'site'",
        ]

    def test_evaluate_builds_no_case(self, tmp_path, monkeypatch):
        """No command builds an EvaluationCase from a CSV input, nor synth on its way to a file."""
        path = tmp_path / "scored.csv"
        emit(generate(PopulationSpec(n=600, prevalence=0.1, seed=9)).dataset, path)
        rich = str(tmp_path / "rich.csv")  # subgroups, repeated runs and benchmark labels
        runs = generate(PopulationSpec(n=600, prevalence=0.1, n_runs=3, flip_probability=0.2, seed=9)).dataset
        rng = np.random.default_rng(9)
        sites, benchmark = rng.choice(["north", "south", "rare"], len(runs)), rng.random(len(runs)) < 0.3
        emit(runs.replace_cases(
            EvaluationCase(**{**slot_fields(c), "subgroups": {"site": str(s)}, "benchmark_predicted": bool(b)})
            for c, s, b in zip(runs.cases, sites, benchmark)
        ), rich)
        verdicts = [{"case_id": f"case-00000{i}", "verdict": v} for i, v in enumerate(["positive", "excluded"])]
        annotations = tmp_path / "annotations.json"
        annotations.write_text(canonical_json({"kind": "scle_annotations", "annotations": verdicts}))
        built = []
        init = EvaluationCase.__init__
        monkeypatch.setattr(EvaluationCase, "__init__", lambda self, *a, **k: (built.append(1), init(self, *a, **k))[1])
        for i, flags in enumerate((
            ["--threshold", "0.5"],
            ["--k", "30"],
            ["--cost-fp", "1", "--cost-fn", "20", "--assumed-prevalence", "0.01"],
        )):
            assert cli.main(["evaluate", "--input", str(path), *flags, "--out-dir", str(tmp_path / f"o{i}")]) == 0
        t, sample = ["--threshold", "0.5"], ["scle", "sample", "--input", rich, "--threshold", "0.5", "--n-fp", "5",
                                               "--n-fn", "5", "--n-tp", "5", "--n-tn", "2"]
        for i, argv in enumerate((
            ["subsets", "--input", rich, "--attribute", "site", *t, "--out-dir", "{out}"],
            ["resample", "--input", rich, "--metric", "recall", "--scheme", "k_fold", "--n", "5", *t],
            ["resample", "--input", rich, "--metric", "precision", "--scheme", "bootstrap", "--n", "20", *t],
            ["stability", "--input", rich, "--out", "{out}/stability.json"],
            [*sample, "--out-dir", "{out}"],
            [*sample, "--boundary-bins", "3", "--substratify-by", "site", "--context-fields", "score,site,stratum_id",
             "--out-dir", "{out}"],
            [*sample, "--benchmark-mode", "--oversample-factor", "2", "--out-dir", "{out}"],
            ["scle", "apply", "--input", rich, "--annotations", str(annotations), "--out", "{out}/revised.csv"],
            ["scle", "apply", "--input", rich, "--annotations", str(annotations), "--out", "{out}/revised.jsonl",
             "--out-format", "jsonl"],
            ["synth", "--out", "{out}/s.csv", "--n", "400", "--prevalence", "0.1", "--n-runs", "2",
             "--enrich", "negative:0.5"],
            ["synth", "--out", "{out}/s.jsonl", "--format", "jsonl", "--n", "400", "--prevalence", "0.1"],
        )):
            out = tmp_path / f"c{i}"
            out.mkdir()
            assert cli.main([arg.format(out=out) for arg in argv]) == 0, argv
        assert built == []
        make_case("x", "positive", score=0.5)  # the counter does count
        assert built == [1]
