"""Hostile but legal CSV and JSONL input through the dataset-reading commands, in process.

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
"""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rareval import cli
from rareval.provenance import canonical_json

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
