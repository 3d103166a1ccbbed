"""Hostile but legal input files through the commands that read them, in process.

Hypothesis writes CSV text with short and long rows, missing, repeated and
misnumbered ``sg_``/``run_`` columns, unscored and unpredicted rows, junk
labels, all-excluded files, a single category and an optional design
sidecar, or the same rows as JSONL records with junk lines. It runs
``subsets``, ``stability``, ``scle sample``, ``resample`` and ``evaluate``
(a threshold run and a cost run) on it through ``cli.main``. Every run must
end in exit 0 or in an input error (exit 2), never in an internal error
(exit 4) or an uncaught exception. ``resample`` may also answer exit 3:
k-fold with more folds than evaluable cases, or a metric undefined in every
resample, is an infeasible request, not a defect.

The review round trip and design sidecars are fuzzed the same way: edited
review sheets through ``scle ingest``, mutated sample and annotations JSON
through ``scle aggregate`` and ``scle apply``, mutated design sidecars
through ``evaluate`` and ``scle sample``, and an ``outputs.json`` whose
top-level fields, or the values the checklist reads inside them, are given
wrong types through ``checklist --outputs``, each exiting 0 or 2. JSON
literals that Python reads but a strict parser would not (integers beyond a
float or of too many digits, nesting deeper than the recursion limit) are
input errors in JSONL datasets and in every JSON file a user hands in.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rareval import cli
from rareval.provenance import canonical_json
from rareval.scle import SHEET_COLUMNS_FIXED, TAG_COLUMNS

_OPTIONAL = ["score", "predicted", "benchmark_predicted", "stratum_id", "sg_site", "sg_era", "run_1", "run_2",
             "run_3", "note"]
_REPEATS = ["sg_site", "run_1", "run_01", "run_x"]  # a repeated column or a run column without a number
# (valid, invalid) texts of each field; a clean file draws valid ones only
_FIELDS = {
    "reference": (["positive", "negative", "negative", "negative", "excluded", "ambiguous"], ["maybe", ""]),
    "score": (["0.9", "0.5", "0.1", "0.7", "0.5", ""], ["nan", "inf", "abc"]),
    "flag": (["1", "0", "true", ""], ["2", "yes"]),
    "run": (["1", "0", "1"], ["", "2"]),
    "stratum_id": (["s1", "s2"], ["", "zz"]),
    "sg_site": (["north", "north", "south", "", "unknown"], []),
    "sg_era": (["old", "", "new"], []),
    "note": (["x", ""], []),
}


def _pool(column: str) -> tuple[list[str], list[str]]:
    if column in ("predicted", "benchmark_predicted"):
        return _FIELDS["flag"]
    return _FIELDS["run" if column.startswith("run_") else column]


_FLAG_JSON = {"1": True, "true": True, "0": False}  # other texts stay strings, which JSONL rejects


def _jsonl_record(header: list[str], row: list[str]) -> dict:
    """A CSV row as the JSONL record carrying the same fields; empty fields are left out."""
    record: dict = {}
    for column, text in zip(header, row):
        if column.startswith("sg_"):
            if text:
                record.setdefault("subgroups", {})[column[3:]] = text
        elif column.startswith("run_"):
            record.setdefault("repeated_labels", []).append(_FLAG_JSON.get(text, text))
        elif column in ("predicted", "benchmark_predicted"):
            if text:
                record[column] = _FLAG_JSON.get(text, text)
        elif column == "score":
            if text:
                with contextlib.suppress(ValueError):
                    text = float(text)
                record[column] = text
        elif text or column in ("case_id", "reference"):
            record[column] = text
    return record


@st.composite
def hostile_files(draw):
    """(file text, its format, design sidecar payload or None).

    A clean file has a valid header and valid fields; it may still be
    unscored, unpredicted, all excluded or hold a single category, unless it
    is complete, when every row has a score and predictions. A dirty
    file adds repeated or misnumbered columns, junk fields and rows of the
    wrong length; as JSONL it may also hold lines that are not JSON objects.
    """
    clean = draw(st.booleans())
    complete = clean and draw(st.booleans())  # no empty score or flag: every command can run to the end
    header = ["case_id", "reference"] + draw(st.lists(st.sampled_from(_OPTIONAL), unique=True, max_size=7))
    if clean:
        header += [c for c in ("score", "sg_site") if c not in header]
    if not clean:
        header += draw(st.lists(st.sampled_from(_REPEATS), max_size=2))
    header = draw(st.permutations(header))
    all_excluded = draw(st.integers(0, 7)) == 0
    rows = []
    for i in range(draw(st.integers(0 if not clean else 1, 12))):
        row = []
        for column in header:
            if column == "case_id":
                row.append(f"r{i}" if clean else draw(st.sampled_from([f"r{i}", "r0", "", " "])))
                continue
            valid, invalid = _pool(column)
            if complete and column in ("score", "predicted", "benchmark_predicted"):
                valid = [text for text in valid if text]
            row.append(draw(st.sampled_from(valid + ([] if clean else invalid))))
        if all_excluded:
            row[header.index("reference")] = "excluded"
        if not clean and draw(st.integers(0, 7)) == 0:
            row = draw(st.sampled_from([row[:-1], row + ["extra"]]))
        rows.append(row)
    if draw(st.booleans()):
        lines = [json.dumps(_jsonl_record(header, row)) for row in rows]
        if not clean:
            lines += draw(st.lists(st.sampled_from(["{", "[1]", '"x"', "{}"]), max_size=2))
        text, format = "".join(line + "\n" for line in lines), "jsonl"
    else:
        buf = io.StringIO()
        csv.writer(buf).writerows([header, *rows])
        text, format = buf.getvalue(), "csv"
    design = None
    if "stratum_id" in header and (clean or draw(st.booleans())):
        specs = [{"stratum_id": "s1", "inclusion_probability": 0.3}, {"stratum_id": "s2", "inclusion_probability": 1.0}]
        design = {"kind": "dataset_design", "design": specs, "metadata": {}}
    return text, format, design


_THRESHOLD = st.sampled_from([[], ["--threshold", "0.5"]])
_COMMANDS = st.one_of(
    st.tuples(
        st.builds(lambda attribute: ["subsets", "--attribute", attribute, "--seed", "1"], st.sampled_from(["site", "era"])),
        _THRESHOLD,
    ),
    st.tuples(st.just(["stability"]), st.just([])),
    st.tuples(
        st.builds(
            lambda bins, by, bench: ["scle", "sample", "--n-fp", "2", "--n-fn", "2", "--n-tp", "2", *bins, *by, *bench],
            st.sampled_from([[], ["--boundary-bins", "2"]]),
            st.sampled_from([[], ["--substratify-by", "site,era"]]),
            st.sampled_from([[], ["--benchmark-mode", "--oversample-factor", "2"]]),
        ),
        _THRESHOLD,
    ),
    st.tuples(
        st.builds(
            lambda scheme: ["resample", "--metric", "recall", "--scheme", scheme, "--n", "3"],
            st.sampled_from(["k_fold", "bootstrap"]),
        ),
        _THRESHOLD,
    ),
    st.tuples(
        st.just(["evaluate", "--reproducible"]),
        st.sampled_from(
            [["--threshold", "0.5"], ["--cost-fp", "1", "--cost-fn", "20", "--assumed-prevalence", "0.01"]]
        ),
    ),
)


@pytest.mark.filterwarnings("ignore:cell .* requested cases available")
@settings(max_examples=400, deadline=None)
@given(hostile_files(), _COMMANDS)
def test_column_commands_answer_or_reject_hostile_csv(file, command):
    text, format, design = file
    argv, threshold = command
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"d.{format}"
        path.write_text(text, encoding="utf-8")
        if design is not None:
            Path(f"{path}.design.json").write_text(canonical_json(design), encoding="utf-8")
        dest = ["--out-dir", tmp] if argv[0] in ("scle", "evaluate") else []
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([*argv, "--input", str(path), "--format", format, *threshold, *dest])
            except SystemExit as exc:
                code = exc.code
    allowed = (0, 2, 3) if argv[0] == "resample" else (0, 2)
    assert code in allowed, (code, err.getvalue())


# --- review round trip and design sidecars ----------------------------------------
#
# One small scored dataset goes through ``scle sample``; hypothesis then
# mutates what a reviewer or a user hands back: the review sheet text for
# ``scle ingest``, the sample and annotations JSON for ``scle aggregate`` and
# ``scle apply``, and the design sidecar's bytes for ``evaluate`` and
# ``scle sample``. A mutation replaces or deletes a few values anywhere in a
# document (with wrong types, non-finite numbers as text or as bare JSON
# constants, unknown labels and ids), or damages the raw text.

_HOSTILE_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10**20),
    st.sampled_from([10**400, -(10**400)]),  # beyond a float
    st.floats(),
    st.sampled_from(["", "NaN", "inf", "-1", "x", "TP", "FP", "FN", "positive", "never_event", "trivial", "c1"]),
    st.lists(st.sampled_from(["a", 1, None]), max_size=2),
    st.dictionaries(st.sampled_from(["a", "site"]), st.sampled_from(["x", 1, None]), max_size=2),
)


def _slots(doc) -> list:
    """Every (container, key) of a JSON document, outermost first."""
    found = []
    for key in range(len(doc)) if isinstance(doc, list) else list(doc) if isinstance(doc, dict) else []:
        found.append((doc, key))
        found += _slots(doc[key])
    return found


@st.composite
def _mutated_json(draw, doc) -> str:
    doc = json.loads(json.dumps(doc))
    slots = _slots(doc)
    for _ in range(draw(st.integers(0, 3))):
        container, key = draw(st.sampled_from(slots))
        if isinstance(container, dict) and draw(st.integers(0, 4)) == 0:
            container.pop(key, None)
        else:
            container[key] = draw(_HOSTILE_VALUES)
    text = json.dumps(doc)  # non-finite floats become bare NaN/Infinity constants
    return draw(_damaged(text))


@st.composite
def _damaged(draw, text: str) -> str:
    """The text, sometimes cut short or behind a byte-order mark."""
    damage = draw(st.integers(0, 9))
    if damage == 0:
        return text[: draw(st.integers(0, len(text)))]
    if damage == 1:
        return "\ufeff" + text
    return text


@pytest.fixture(scope="module")
def review_run(tmp_path_factory):
    """(directory, dataset path, sample JSON, annotations JSON, sheet text) of one small review."""
    tmp = tmp_path_factory.mktemp("review")
    rows = ["case_id,reference,score,stratum_id,sg_site"]
    rows += [
        f"c{i},{'positive' if i % 3 == 0 else 'negative'},{(i * 37 % 41) / 41!r},{('s1', 's2')[i % 2]},"
        f"{('north', 'south', '')[i % 3]}"
        for i in range(40)
    ]
    data = tmp / "d.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    design = [{"stratum_id": "s1", "inclusion_probability": 0.5}, {"stratum_id": "s2", "inclusion_probability": 1.0}]
    Path(f"{data}.design.json").write_text(json.dumps({"kind": "dataset_design", "design": design, "metadata": {}}))
    argv = ["scle", "sample", "--input", str(data), "--threshold", "0.5", "--n-fp", "3", "--n-fn", "3", "--n-tp", "3",
            "--substratify-by", "site", "--reproducible", "--out-dir", str(tmp)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    sample = json.loads((tmp / "scle_sample.json").read_text(encoding="utf-8"))
    sheet = (tmp / "review_sheet.csv").read_text(encoding="utf-8")
    case_ids = [row["case_id"] for row in sample["rows"]]
    annotations = {
        "kind": "scle_annotations",
        "annotations": [
            {"case_id": case_ids[0], "reviewer": "r", "categories": ["never_event"], "triviality": None,
             "note": "n", "verdict": "negative"},
            {"case_id": case_ids[-1], "reviewer": "r", "categories": ["test_set_issue", "unexpected_error"],
             "triviality": "trivial", "note": "", "verdict": None},
        ],
    }
    return tmp, data, sample, annotations, sheet


def _exit_code(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


_ANNOTATION_COLUMNS = ("case_id", *SHEET_COLUMNS_FIXED)


@st.composite
def _hostile_sheets(draw, sheet: str) -> tuple[str, bool]:
    """(the review sheet with edited fields, rows, columns, comment lines and text damage; whether an
    annotation column was repeated or renamed)."""
    lines = sheet.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    header, *rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    cell = st.sampled_from(["", "1", "0", "true", "yes", "trivial", "non_trivial", "bogus", "negative", "c0", "TP",
                            "x" * 140_000, "a\nb", "\x00", " ", "TRUE", "Negative"])
    for _ in range(draw(st.integers(0, 4))):
        if rows:
            row = draw(st.sampled_from(rows))
            row[draw(st.integers(0, len(row) - 1))] = draw(cell)
    column_edited = draw(st.integers(0, 5)) == 0
    if column_edited:
        j = header.index(draw(st.sampled_from(_ANNOTATION_COLUMNS)))
        if draw(st.booleans()):  # a repeated column, as a spreadsheet's copied column leaves it
            header.append(header[j])
            for row in rows:
                row.append(draw(cell))
        else:
            header[j] = draw(st.sampled_from([header[j] + "s", header[j].upper(), f" {header[j]}", "notes"]))
    if rows and draw(st.integers(0, 4)) == 0:
        rows.append(list(draw(st.sampled_from(rows))))  # a repeated case
    if draw(st.integers(0, 4)) == 0:
        header = draw(st.permutations(header))[: draw(st.integers(1, len(header)))]
    if draw(st.integers(0, 5)) == 0:
        comments = draw(st.lists(st.sampled_from(comments + ["# config_hash: 0", "#"]), max_size=3))
    buf = io.StringIO()
    csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows([header, *rows])
    return draw(_damaged("".join(line + "\n" for line in comments) + buf.getvalue())), column_edited


def _annotations_by_dict_reader(text: str) -> list[dict]:
    """The annotations a sheet that passed ingest holds, as JSON, read on their own with ``csv.DictReader``."""
    body = text.removeprefix("\ufeff")
    while body.startswith("#"):
        body = body.partition("\n")[2]
    reader = csv.DictReader(io.StringIO(body, newline=""))
    rows, header = list(reader), reader.fieldnames or []
    assert set(_ANNOTATION_COLUMNS) <= set(header), header
    assert len(set(header)) == len(header), header  # no column read twice
    assert all(None not in row and None not in row.values() for row in rows)  # every row of the header's width
    annotations = []
    for row in rows:
        value = {column: row[column].strip() for column in _ANNOTATION_COLUMNS}
        annotation = {
            "case_id": value["case_id"],
            "reviewer": value["reviewer"],
            "categories": [tag for tag in TAG_COLUMNS if value[tag].lower() in ("1", "true")],
            "triviality": value["triviality"].lower() or None,
            "note": value["note"],
            "verdict": value["verdict"].lower() or None,
        }
        if any(annotation[key] for key in ("reviewer", "categories", "triviality", "note", "verdict")):
            annotations.append(annotation)
    return annotations


@pytest.mark.filterwarnings("ignore:row .* annotated without a triviality judgment")
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_scle_ingest_answers_or_rejects_hostile_sheets(review_run, data):
    tmp, _, _, _, sheet = review_run
    text, column_edited = data.draw(_hostile_sheets(sheet))
    with tempfile.TemporaryDirectory(dir=tmp) as work:
        path = Path(work) / "sheet.csv"
        path.write_text(text, encoding="utf-8", newline="")
        code, err = _exit_code(["scle", "ingest", "--sheet", path, "--sample", tmp / "scle_sample.json",
                                "--out", Path(work) / "a.json"])
        written = json.loads((Path(work) / "a.json").read_text(encoding="utf-8")) if code == 0 else None
    assert code in (0, 2), (code, err)
    if column_edited:
        assert code == 2, err
    if code == 0:
        assert written["annotations"] == _annotations_by_dict_reader(text)


def _sheet_losing_a_finding(sheet: str, edit: str) -> str:
    """The review sheet with a reviewer's finding on its first row (file line 5), edited as ``edit`` says."""
    comments, rows = sheet.splitlines()[:3], [line.split(",") for line in sheet.splitlines()[3:]]
    header, first = rows[0], rows[1]
    tag, verdict = header.index("never_event"), header.index("verdict")
    first[tag] = "1"
    if edit == "misspelt tag column":
        header[tag] = "never_events"
    elif edit == "deleted tag column":
        for row in rows:
            del row[tag]
    elif edit == "repeated verdict column":
        first[verdict] = "negative"
        for row in rows:
            row.append("verdict" if row is header else "")
    elif edit == "row with an extra field":
        first.append("x")
    elif edit == "no case_id column":
        header[0] = "id"
    elif edit == "no header line":
        rows = []
    return "\n".join(comments + [",".join(row) for row in rows]) + "\n"


@pytest.mark.parametrize("edit, named", [
    ("misspelt tag column", "header missing required column(s): ['never_event']"),
    ("deleted tag column", "header missing required column(s): ['never_event']"),
    ("repeated verdict column", "header repeats column(s): ['verdict', 'verdict']"),
    ("row with an extra field", "row 5: expected 11 fields, got 12"),
    ("no case_id column", "header missing required column(s): ['case_id']"),
    ("no header line", "sheet.csv: empty file"),
])
def test_a_sheet_that_would_lose_a_finding_exits_2_naming_the_column_or_row(review_run, tmp_path, edit, named):
    tmp, _, _, _, sheet = review_run
    path = tmp_path / "sheet.csv"
    path.write_text(_sheet_losing_a_finding(sheet, edit), encoding="utf-8")
    code, err = _exit_code(["scle", "ingest", "--sheet", path, "--sample", tmp / "scle_sample.json",
                            "--out", tmp_path / "a.json"])
    assert code == 2 and named in json.loads(err)["error"]["message"], err


@settings(max_examples=150, deadline=None)
@given(data=st.data(), mutate=st.sampled_from(["sample", "annotations", "both"]))
def test_scle_aggregate_and_apply_answer_or_reject_hostile_json(review_run, data, mutate):
    tmp, dataset, sample, annotations, _ = review_run
    with tempfile.TemporaryDirectory(dir=tmp) as work:
        work = Path(work)
        sample_text = data.draw(_mutated_json(sample)) if mutate != "annotations" else json.dumps(sample)
        annotations_text = data.draw(_mutated_json(annotations)) if mutate != "sample" else json.dumps(annotations)
        (work / "s.json").write_text(sample_text, encoding="utf-8")
        (work / "a.json").write_text(annotations_text, encoding="utf-8")
        codes = [
            _exit_code(["scle", "aggregate", "--annotations", work / "a.json", "--sample", work / "s.json",
                        "--out-dir", work]),
            _exit_code(["scle", "apply", "--input", dataset, "--annotations", work / "a.json",
                        "--out", work / "revised.csv"]),
        ]
    for code, err in codes:
        assert code in (0, 2), (code, err)


@pytest.mark.filterwarnings("ignore:cell .* requested cases available")
@settings(max_examples=100, deadline=None)
@given(data=st.data(), command=st.sampled_from(["evaluate", "scle"]))
def test_commands_answer_or_reject_hostile_design_sidecars(review_run, data, command):
    tmp, dataset, _, _, _ = review_run
    design = {
        "kind": "dataset_design",
        "design": [
            {"stratum_id": "s1", "inclusion_probability": 0.5, "description": "kept at random"},
            {"stratum_id": "s2", "inclusion_probability": 1.0, "description": ""},
        ],
        "metadata": {"site": "fallback", "x": 1},
    }
    with tempfile.TemporaryDirectory(dir=tmp) as work:
        work = Path(work)
        path = work / "d.csv"
        path.write_bytes(dataset.read_bytes())
        Path(f"{path}.design.json").write_text(data.draw(_mutated_json(design)), encoding="utf-8")
        if command == "evaluate":
            argv = ["evaluate", "--input", path, "--threshold", "0.5", "--reproducible", "--out-dir", work]
        else:
            argv = ["scle", "sample", "--input", path, "--threshold", "0.5", "--n-fp", "2", "--n-tp", "2",
                    "--context-fields", "site,x,stratum_id", "--reproducible", "--out-dir", work]
        code, err = _exit_code(argv)
    assert code in (0, 2), (code, err)


_READ_INSIDE = ["metrics.metric", "warnings.code", "scle_summary.never_events"]  # what the checklist reads in a field


@st.composite
def _mutated_fields(draw, doc: dict) -> str:
    """The document with a few top-level fields replaced, dropped or added, or a value the checklist reads
    inside a field replaced, as (damaged) text."""
    base, doc = doc, dict(doc)
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from([*doc, "unknown_field", *_READ_INSIDE]))
        if key in _READ_INSIDE:
            field, inner = key.split(".")
            if field == "scle_summary":
                doc[field] = {"no_findings": False, inner: draw(_HOSTILE_VALUES)}
            else:
                items = [dict(item) for item in base[field]] or [{}]
                items[draw(st.integers(0, len(items) - 1))][inner] = draw(_HOSTILE_VALUES)
                doc[field] = items
        elif draw(st.integers(0, 4)) == 0:
            doc.pop(key, None)
        else:
            doc[key] = draw(_HOSTILE_VALUES)
    return draw(_damaged(json.dumps(doc)))


@pytest.fixture(scope="module")
def evaluate_outputs(review_run) -> dict:
    tmp, dataset, _, _, _ = review_run
    code, err = _exit_code(["evaluate", "--input", dataset, "--threshold", "0.5", "--reproducible",
                            "--out-dir", tmp / "evaluate"])
    assert code == 0, err
    return json.loads((tmp / "evaluate" / "outputs.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("field, value", [("metrics", 5), ("scle_summary", [1]), ("warnings", [1])])
def test_checklist_names_a_wrong_typed_outputs_field(evaluate_outputs, tmp_path, field, value):
    path = tmp_path / "outputs.json"
    path.write_text(json.dumps({**evaluate_outputs, field: value}), encoding="utf-8")
    code, err = _exit_code(["checklist", "--outputs", path, "--out-dir", tmp_path])
    assert code == 2 and f"field {field!r}" in json.loads(err)["error"]["message"], err


@pytest.mark.parametrize("path, field, value", [
    ("metrics[0].metric", "metrics", [{"metric": [1]}]),
    ("warnings[0].code", "warnings", [{"code": [1], "message": "m"}]),
    ("scle_summary.never_events", "scle_summary", {"no_findings": False, "never_events": 5}),
])
def test_checklist_names_a_wrong_typed_value_inside_an_outputs_field(evaluate_outputs, tmp_path, path, field, value):
    doc = {**evaluate_outputs, field: value}
    if field == "metrics":
        doc["metrics"] = value + evaluate_outputs["metrics"][1:]
    file = tmp_path / "outputs.json"
    file.write_text(json.dumps(doc), encoding="utf-8")
    code, err = _exit_code(["checklist", "--outputs", file, "--out-dir", tmp_path])
    assert code == 2 and f"field {path!r}" in json.loads(err)["error"]["message"], err


@pytest.mark.parametrize("attestations, attest, message", [
    ({"anotation_process": "reviewed"}, [], "unknown checklist consideration 'anotation_process'"),
    ({}, ["--attest", "metrics="], "empty attestation for checklist consideration 'metrics'"),
], ids=["misspelt-row-in-outputs", "empty-attest-text"])
def test_checklist_rejects_an_attestation_it_would_drop(evaluate_outputs, tmp_path, attestations, attest, message):
    path = tmp_path / "outputs.json"
    path.write_text(json.dumps({**evaluate_outputs, "attestations": attestations}), encoding="utf-8")
    code, err = _exit_code(["checklist", "--outputs", path, *attest, "--out-dir", tmp_path])
    assert code == 2 and json.loads(err)["error"]["message"] == message, err


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_checklist_answers_or_rejects_hostile_outputs(review_run, evaluate_outputs, data):
    tmp = review_run[0]
    with tempfile.TemporaryDirectory(dir=tmp) as work:
        path = Path(work) / "outputs.json"
        path.write_text(data.draw(_mutated_fields(evaluate_outputs)), encoding="utf-8")
        code, err = _exit_code(["checklist", "--outputs", path, "--out-dir", work])
    assert code in (0, 2), (code, err)


# --- hostile JSON literals -----------------------------------------------------------
#
# Numbers and nesting that Python's json module reads differently from a
# strict parser: an integer beyond a float, an integer of more digits than
# ``int()`` converts, and arrays nested deeper than the recursion limit.

_BEYOND_FLOAT = "9" * 400
_TOO_MANY_DIGITS = "9" * 5000
_TOO_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("score, problem", [
    (_BEYOND_FLOAT, "row 1: case 'a': score must be finite"),
    ("-" + _BEYOND_FLOAT, "row 1: case 'a': score must be finite"),
    (_TOO_MANY_DIGITS, "row 1: invalid JSON: Exceeds the limit (4300 digits)"),
    (_TOO_DEEP, "row 1: invalid JSON: maximum recursion depth exceeded"),
], ids=["beyond-float", "negative-beyond-float", "too-many-digits", "too-deep"])
def test_jsonl_hostile_literals_are_row_problems(tmp_path, score, problem):
    path = tmp_path / "d.jsonl"
    path.write_text(f'{{"case_id": "a", "reference": "positive", "score": {score}}}\n', encoding="utf-8")
    argv = ["evaluate", "--input", path, "--format", "jsonl", "--threshold", "0.5", "--out-dir", tmp_path]
    code, err = _exit_code(argv)
    assert code == 2 and json.loads(err)["error"]["message"].startswith(problem), err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("field", ["case_id", "score"])
def test_a_jsonl_number_that_is_no_finite_float_is_invalid_json(tmp_path, field, literal):
    record = {"case_id": '"a"', "reference": '"positive"', "score": "0.5", field: literal}
    path = tmp_path / "d.jsonl"
    path.write_text("{" + ", ".join(f'"{key}": {value}' for key, value in record.items()) + "}\n", encoding="utf-8")
    code, err = _exit_code(["evaluate", "--input", path, "--format", "jsonl", "--threshold", "0.5",
                            "--out-dir", tmp_path / "out"])
    assert (code, json.loads(err)["error"]["message"]) == (2, f"row 1: invalid JSON: non-finite JSON number {literal}")
    assert not (tmp_path / "out").exists()


def test_csv_score_beyond_float_reads_as_jsonl_does(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(f"case_id,reference,score\na,positive,{_BEYOND_FLOAT}\n", encoding="utf-8")
    code, err = _exit_code(["evaluate", "--input", path, "--threshold", "0.5", "--out-dir", tmp_path])
    assert code == 2 and json.loads(err)["error"]["message"] == "row 2: case 'a': score must be finite", err


@pytest.mark.parametrize("where", ["outputs", "sidecar", "json config", "config line"])
def test_json_nested_too_deeply_exits_2(review_run, tmp_path, where):
    _, dataset, _, _, _ = review_run
    if where == "outputs":
        path = tmp_path / "outputs.json"
        path.write_text(f'{{"kind": "evaluation_outputs", "metrics": {_TOO_DEEP}}}', encoding="utf-8")
        argv = ["checklist", "--outputs", path, "--out-dir", tmp_path]
    elif where == "sidecar":
        path = tmp_path / "d.csv"
        path.write_bytes(dataset.read_bytes())
        Path(f"{path}.design.json").write_text(f'{{"kind": "dataset_design", "design": {_TOO_DEEP}}}')
        argv = ["evaluate", "--input", path, "--threshold", "0.5", "--out-dir", tmp_path]
    else:
        path = tmp_path / "spec.cfg"
        text = f'{{"n": {_TOO_DEEP}}}' if where == "json config" else f"n = {_TOO_DEEP}\nprevalence = x\n"
        path.write_text(text, encoding="utf-8")
        argv = ["synth", "--spec", path, "--out", tmp_path / "s.csv"]
    code, err = _exit_code(argv)
    assert code == 2, err


# --- one reader for every record a user hands back ------------------------------------
#
# Review samples, annotations documents, design sidecars, population specs,
# study configs and ``--outputs`` files are read by one typed reader. A value
# that Python would coerce into another meaning (a fraction or a boolean in a
# count, text in a flag, a misspelt key) is an input error that names the file
# and the field.

_STUDY = ["--flag-rate-a", "0.05", "--flag-rate-b", "0.06", "--overlap-rate", "0.5", "--precision-a", "0.7",
          "--precision-b", "0.85", "--sample-size", "100", "--replicates", "10"]


@pytest.mark.parametrize("command, text, field", [
    ("synth", "n = 1000.7\nprevalence = 0.1\n", "n"),
    ("synth", "n = 1000\nprevalence = 0.1\nexact_positive_count = no\n", "exact_positive_count"),
    ("synth", '{"n": 1000, "prevalence": 0.1, "seed": true}', "seed"),
    ("synth", "n = 1000\nprevalence = 0.1\nseperation = 9\n", "seperation"),
    ("size-study", "n_replicates = 20.9\n", "n_replicates"),
    ("size-study", "replicates = 50\n", "replicates"),
    ("checklist", {"annotation_process": True}, "attestations.annotation_process"),
], ids=["fractional-n", "text-flag", "boolean-seed", "misspelt-key", "fractional-replicates", "flag-name-as-key",
        "boolean-attestation"])
def test_a_value_that_would_change_what_a_run_means_exits_2(evaluate_outputs, tmp_path, command, text, field):
    path = tmp_path / "input.cfg"
    if command == "checklist":
        path.write_text(json.dumps({**evaluate_outputs, "attestations": text}), encoding="utf-8")
        argv = ["checklist", "--outputs", path, "--out-dir", tmp_path]
    else:
        path.write_text(text, encoding="utf-8")
        argv = ["synth", "--spec", path, "--out", tmp_path / "s.csv"] if command == "synth" else \
            ["size-study", *_STUDY, "--config", path]
    code, err = _exit_code(argv)
    assert code == 2 and json.loads(err)["error"]["message"].startswith(f"{path}: field {field!r}: "), err


@pytest.mark.parametrize("count", ["3", 1.5, -1, True])
def test_scle_apply_rejects_a_sidecar_verdict_count_that_is_no_count(review_run, tmp_path, count):
    _, dataset, _, annotations, _ = review_run
    path, sidecar = tmp_path / "d.csv", tmp_path / "d.csv.design.json"
    path.write_bytes(dataset.read_bytes())
    design = json.loads(Path(f"{dataset}.design.json").read_text(encoding="utf-8"))
    sidecar.write_text(json.dumps({**design, "metadata": {"verdicts_applied": count}}), encoding="utf-8")
    (tmp_path / "a.json").write_text(json.dumps(annotations), encoding="utf-8")
    code, err = _exit_code(["scle", "apply", "--input", path, "--annotations", tmp_path / "a.json",
                            "--out", tmp_path / "revised.csv"])
    expected = f"{sidecar}: malformed design sidecar: field 'metadata.verdicts_applied': expected a count"
    assert code == 2 and json.loads(err)["error"]["message"].startswith(expected), err


def _paths(doc, path=()) -> list[tuple]:
    """The path of every value inside a JSON document, outermost first."""
    items = enumerate(doc) if isinstance(doc, list) else doc.items() if isinstance(doc, dict) else ()
    return [p for key, value in items for p in [(*path, key), *_paths(value, (*path, key))]]


def _json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


def _named(path: tuple) -> str:
    """How the reader's messages name the value at ``path``: its field path, an array item by its number."""
    field, item = (path[:-1], f": item {path[-1]}") if type(path[-1]) is int else (path, "")
    return f"field {''.join(f'[{k}]' if type(k) is int else f'.{k}' for k in field)[1:]!r}{item}"


@st.composite
def _retyped(draw, doc: dict, values, open_paths) -> tuple[str, tuple | None]:
    """(the document with one to three values replaced, dropped or added anywhere, as text; the path of the one
    change when it was the only one and swapped a value for another JSON type at a path outside ``open_paths``)."""
    doc, swapped = json.loads(json.dumps(doc)), []
    changes = draw(st.integers(1, 3))
    for _ in range(changes):
        path = draw(st.sampled_from([*_paths(doc), ("unknown_field",)]))
        container = doc
        for key in path[:-1]:
            container = container[key]
        old = container.get(path[-1]) if isinstance(container, dict) else container[path[-1]]
        if isinstance(container, dict) and path in _paths(doc) and draw(st.integers(0, 4)) == 0:
            del container[path[-1]]
            continue
        container[path[-1]] = new = draw(values)
        strict = not isinstance(new, float) or math.isfinite(new)  # NaN and Infinity make the text no strict JSON
        if None not in (old, new) and strict and _json_type(old) != _json_type(new) and not open_paths(path):
            swapped.append(path)
    return json.dumps(doc), swapped[0] if changes == 1 and swapped else None


# a population holds as many cases and runs as its integers ask, so the spec's integers stay small
_SMALL_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 400), st.floats(),
    st.sampled_from(["", "x", "positive", "negative", "rest"]),
    st.lists(st.sampled_from(["a", 1, None]), max_size=2),
    st.dictionaries(st.sampled_from(["a", "select"]), st.sampled_from(["x", 1, None]), max_size=2),
)
_SPEC = {"n": 300, "prevalence": 0.1, "separation": 2.0, "spread": 1.0, "label_noise": 0.0, "n_runs": 2,
         "enrichment": [{"select": "negative", "inclusion_probability": 0.3, "stratum_id": "neg"}],
         "flip_probability": 0.1, "exact_positive_count": False, "seed": 1}
_SIDECAR = {
    "kind": "dataset_design",
    "design": [{"stratum_id": "s1", "inclusion_probability": 0.5, "description": "kept at random"},
               {"stratum_id": "s2", "inclusion_probability": 1.0, "description": ""}],
    "metadata": {"site": "fallback", "x": 1},
}


@pytest.mark.filterwarnings("ignore:cell .* requested cases available")
@settings(max_examples=200, deadline=None)
@given(data=st.data(), document=st.sampled_from(["sample", "annotations", "sidecar", "spec"]))
def test_user_records_answer_or_name_the_field_whose_type_was_swapped(review_run, data, document):
    tmp, dataset, sample, annotations, _ = review_run
    with tempfile.TemporaryDirectory(dir=tmp) as work:
        work = Path(work)
        if document in ("sample", "annotations"):
            base, open_paths = (sample, [("config_hash",)]) if document == "sample" else (annotations, [])
            text, swapped = data.draw(_retyped(base, _HOSTILE_VALUES, lambda path: path in open_paths))
            docs = {"sample": json.dumps(sample), "annotations": json.dumps(annotations), document: text}
            (work / "s.json").write_text(docs["sample"], encoding="utf-8")
            (work / "a.json").write_text(docs["annotations"], encoding="utf-8")
            argv = ["scle", "aggregate", "--annotations", work / "a.json", "--sample", work / "s.json", "--out-dir", work]
        elif document == "sidecar":
            text, swapped = data.draw(_retyped(_SIDECAR, _HOSTILE_VALUES, lambda path: path[:1] == ("metadata",)
                                               and len(path) > 1))
            path = work / "d.csv"
            path.write_bytes(dataset.read_bytes())
            Path(f"{path}.design.json").write_text(text, encoding="utf-8")
            argv = ["evaluate", "--input", path, "--threshold", "0.5", "--reproducible", "--out-dir", work]
        else:
            text, swapped = data.draw(_retyped(_SPEC, _SMALL_VALUES, lambda path: False))
            (work / "spec.json").write_text(text, encoding="utf-8")
            argv = ["synth", "--spec", work / "spec.json", "--out", work / "s.csv"]
        code, err = _exit_code(argv)
    assert code in ((0, 2, 3) if document == "spec" else (0, 2)), (code, err)  # 3: an enrichment stratum left empty
    if swapped is not None:
        assert code == 2 and f"{_named(swapped)}: expected" in json.loads(err)["error"]["message"], (swapped, err)
