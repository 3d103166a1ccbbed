"""Rendered Markdown and JSON documents of a fixed review run, pinned byte for byte.

A seeded 400-row CSV with ``sg_site``/``sg_era`` subgroups and two repeated
runs goes through ``subsets``, ``scle sample --substratify-by site,era``,
``scle ingest`` of a sheet annotated with never events, every tag, triviality
judgments, notes and a verdict, ``scle aggregate`` (of those annotations
and of none), ``stability``, ``resample`` and ``checklist``. So the SCLE summary has never events, tag
projections in several cells, remedial actions and per-subgroup tag counts.
``tests/golden/rendered_sha256.json`` holds the digests of the files these
commands write. ``tests/golden/report_library.md`` is the ``report.md`` of
the same results filled in by a library caller, which is the only way the
report's case-level examination and robustness sections are filled; it
shows each result exactly as its own command renders it. Each command that
writes a result (``subsets``, ``stability``, ``resample`` and ``scle
aggregate``) writes the JSON document it prints, and its ``.md`` file is its
module's renderer applied to that document.

Regenerate both golden files with::

    PYTHONPATH=src python tests/test_rendered_documents.py
"""

import contextlib
import csv
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from rareval import cli, robustness, scle
from rareval.provenance import canonical_json
from rareval.report import EvaluationOutputs, prefill_checklist, render_report

GOLDEN_DIGESTS = Path(__file__).parent / "golden" / "rendered_sha256.json"
GOLDEN_REPORT = Path(__file__).parent / "golden" / "report_library.md"
PINNED = (
    "annotations.json",
    "subsets_site.json",
    "subsets_site.md",
    "scle_summary.json",
    "scle_summary.md",
    "checklist.json",
    "checklist.md",
    "empty/scle_summary.json",
    "empty/scle_summary.md",
)


def _write_dataset(path: Path) -> None:
    rng = np.random.default_rng(20261018)
    n = 400
    positive = rng.random(n) < 0.25
    score = 1.0 / (1.0 + np.exp(-(rng.normal(size=n) + np.where(positive, 1.2, -1.2))))
    sites = rng.choice(["north", "south", "east", ""], size=n, p=[0.5, 0.3, 0.15, 0.05])
    eras = rng.choice(["old", "new"], size=n)
    runs = (score[:, None] >= 0.5) ^ (rng.random((n, 2)) < 0.05)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case_id", "reference", "score", "sg_site", "sg_era", "run_1", "run_2"])
        for i in range(n):
            writer.writerow([
                f"c{i:03d}", "positive" if positive[i] else "negative", repr(float(score[i])),
                sites[i], eras[i], *(int(x) for x in runs[i]),
            ])


def _annotate(sheet: Path) -> None:
    """Fill the review sheet: every tag, never events with notes, triviality on TPs, one verdict."""
    lines = sheet.read_text(encoding="utf-8").splitlines(keepends=True)
    comments = [line for line in lines if line.startswith("#")]
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    tags = ("never_event", "unexpected_error", "input_data_issue", "test_set_issue")
    for i, row in enumerate(rows):
        row["reviewer"] = "r1"
        if row["cell"] == "TP":
            row["triviality"] = ("trivial", "non_trivial", "unclear")[i % 3]
        else:
            row[tags[i % 4]] = "1"
            if i % 4 == 0:
                row["note"] = f"review note {i}"
            if i % 5 == 1:
                row["unexpected_error"] = "true"
        if i == 2:
            row["verdict"] = "ambiguous"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    sheet.write_text("".join(comments) + buf.getvalue(), encoding="utf-8")


def _run(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([str(a) for a in argv]) == 0
    return out.getvalue().splitlines()[-1]


def run_review(tmp: Path) -> tuple[dict, str]:
    """(sha256 of every pinned file, report.md text of the library-filled report)."""
    data = tmp / "d.csv"
    _write_dataset(data)
    _run("subsets", "--input", data, "--attribute", "site", "--threshold", "0.5", "--seed", 1, "--out-dir", tmp)
    _run(
        "scle", "sample", "--input", data, "--threshold", "0.5", "--n-fp", 8, "--n-fn", 8, "--n-tp", 6,
        "--substratify-by", "site,era", "--context-fields", "score,site", "--seed", 2, "--reproducible",
        "--out-dir", tmp,
    )
    _annotate(tmp / "review_sheet.csv")
    _run("scle", "ingest", "--sheet", tmp / "review_sheet.csv", "--sample", tmp / "scle_sample.json",
         "--out", tmp / "annotations.json")
    _run("scle", "aggregate", "--annotations", tmp / "annotations.json", "--sample", tmp / "scle_sample.json",
         "--seed", 3, "--out-dir", tmp)
    (tmp / "no_annotations.json").write_text('{"kind": "scle_annotations", "annotations": []}', encoding="utf-8")
    _run("scle", "aggregate", "--annotations", tmp / "no_annotations.json", "--sample", tmp / "scle_sample.json",
         "--out-dir", tmp / "empty")
    stability = json.loads(_run("stability", "--input", data))
    resampling = json.loads(
        _run("resample", "--input", data, "--metric", "recall", "--scheme", "k_fold", "--n", 4, "--threshold", "0.5")
    )
    design = json.loads(_run(
        "size-study", "--sample-size", 400, "--flag-rate-a", 0.3, "--flag-rate-b", 0.3, "--overlap-rate", 0.2,
        "--precision-a", 0.8, "--precision-b", 0.7, "--replicates", 200, "--seed", 4,
    ))
    outputs = EvaluationOutputs(
        scle_summary=json.loads((tmp / "scle_summary.json").read_text(encoding="utf-8")),
        subset_reports=[json.loads((tmp / "subsets_site.json").read_text(encoding="utf-8"))],
        stability_report=stability,
        resampling_reports=[resampling],
        power_results=design,
        seed=5,
    )
    (tmp / "outputs.json").write_text(json.dumps(outputs.to_json_dict()), encoding="utf-8")
    _run("checklist", "--outputs", tmp / "outputs.json", "--out-dir", tmp)
    _, report_md = render_report(outputs, prefill_checklist(outputs), reproducible=True)
    digests = {name: hashlib.sha256((tmp / name).read_bytes()).hexdigest() for name in PINNED}
    return digests, report_md


@pytest.fixture(scope="module")
def review(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("review")
    return tmp, *run_review(tmp)


def test_the_run_exercises_every_summary_branch(review):
    tmp, _, _ = review
    summary = json.loads((tmp / "scle_summary.json").read_text(encoding="utf-8"))
    assert summary["never_events"] and summary["remedial_actions"] and summary["triviality_rate"] is not None
    assert set(summary["per_subgroup_tags"]) == {"site", "era"}
    assert len(summary["per_cell_tags"]) >= 2


def test_written_documents_are_pinned(review):
    _, digests, _ = review
    assert digests == json.loads(GOLDEN_DIGESTS.read_text(encoding="utf-8"))


def test_library_filled_report_is_pinned(review):
    _, _, report_md = review
    assert report_md == GOLDEN_REPORT.read_text(encoding="utf-8")


def test_the_report_embeds_each_document_as_its_command_writes_it(review):
    tmp, _, report_md = review
    for name in ("scle_summary.md", "subsets_site.md"):
        assert (tmp / name).read_text(encoding="utf-8") in report_md, name
    checklist_md = (tmp / "checklist.md").read_text(encoding="utf-8")
    table = checklist_md.removeprefix("# Evaluation checklist\n\n")
    assert table.startswith("| consideration | status | evidence | rationale |\n")
    assert report_md.endswith("## Checklist\n\n" + table)


# a command that writes its result: (its arguments, the JSON file it writes, the Markdown file and its renderer)
_RESAMPLE = ("resample", "--input", "d.csv", "--metric", "recall", "--threshold", 0.5)
ONE_DOCUMENT = {
    "subsets": (("subsets", "--input", "d.csv", "--attribute", "site", "--threshold", 0.5, "--seed", 1, "--out-dir",
                 "once"), "subsets_site.json", ("subsets_site.md", robustness.subsets_markdown)),
    "stability": (("stability", "--input", "d.csv", "--out", "once/stability.json"), "stability.json", None),
    "resample-bootstrap": ((*_RESAMPLE, "--n", 20, "--out", "once/bootstrap.json"), "bootstrap.json", None),
    "resample-k_fold": ((*_RESAMPLE, "--scheme", "k_fold", "--n", 4, "--out", "once/k_fold.json"), "k_fold.json", None),
    "scle-aggregate": (("scle", "aggregate", "--annotations", "annotations.json", "--sample", "scle_sample.json",
                        "--seed", 3, "--out-dir", "once"), "scle_summary.json",
                       ("scle_summary.md", scle.summary_markdown)),
}


@pytest.mark.parametrize("command", ONE_DOCUMENT)
def test_a_command_writes_prints_and_renders_one_document(command, review, monkeypatch):
    tmp, _, _ = review
    monkeypatch.chdir(tmp)
    argv, json_name, markdown = ONE_DOCUMENT[command]
    printed = json.loads(_run(*argv))
    assert (tmp / "once" / json_name).read_text(encoding="utf-8") == canonical_json(printed)
    if markdown:
        name, render = markdown
        assert (tmp / "once" / name).read_text(encoding="utf-8") == render(printed)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests, report_md = run_review(Path(tmp))
    GOLDEN_DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    GOLDEN_REPORT.write_text(report_md, encoding="utf-8")
    print(f"wrote {GOLDEN_DIGESTS} and {GOLDEN_REPORT}", file=sys.stderr)
