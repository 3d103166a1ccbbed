"""The bounded curve of ``evaluate``: one CSV holds the sweep, reports keep its hull.

Hypothesis datasets mix weighted and unweighted designs, tied scores, and
ambiguous and excluded cases; each runs ``evaluate`` in process and the
checks read only the written files. The hull is checked against a brute-force
upper envelope, independent of ``curves.hull_indices``.
"""

import csv
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_loops as ref
from rareval import datamodel
from rareval.cli import main
from rareval.curves import hull_indices, pr_curve, report_points
from rareval.datamodel import Dataset, ReferenceLabel, StratumSpec, emit
from rareval.synth import EnrichmentRule, PopulationSpec, generate

from conftest import make_case

TOL = 1e-12
_SCORES = (0.1, 0.25, 0.5, 0.5, 0.7, 0.9)
_REFERENCES = st.sampled_from(
    [ReferenceLabel.POSITIVE] * 3
    + [ReferenceLabel.NEGATIVE] * 4
    + [ReferenceLabel.AMBIGUOUS, ReferenceLabel.EXCLUDED]
)


@st.composite
def scored_datasets(draw):
    """Fully scored datasets with at least one positive and one negative control."""
    design = (StratumSpec("s0", 1.0), StratumSpec("s1", 0.3), StratumSpec("s2", 0.25))
    weighted = draw(st.booleans())
    references = [ReferenceLabel.POSITIVE, ReferenceLabel.NEGATIVE]
    references += draw(st.lists(_REFERENCES, max_size=28))
    cases = [
        make_case(
            f"c{i}",
            reference,
            score=draw(st.sampled_from(_SCORES)),
            stratum_id=draw(st.sampled_from(design)).stratum_id if weighted else None,
        )
        for i, reference in enumerate(references)
    ]
    return Dataset(cases, design if weighted else ())


# threshold runs (2.0 is reached by no score) and cost runs (cost_fp, cost_fn, prevalence);
# a false positive costing 1000 makes predicting nothing cheapest
_DRIVERS = st.one_of(
    st.sampled_from([0.05, 0.25, 0.3, 0.5, 0.95, 2.0]).map(lambda t: ("threshold", t)),
    st.sampled_from([(1.0, 10.0, 0.1), (1.0, 1.0, 0.5), (1000.0, 1.0, 0.001)]).map(lambda c: ("costs", c)),
)


def _run_evaluate(dataset: Dataset, driver, work: Path) -> Path:
    data, out = work / "data.csv", work / "out"
    emit(dataset, data, "csv")
    argv = ["evaluate", "--input", str(data), "--seed", "3", "--out-dir", str(out), "--reproducible"]
    kind, value = driver
    if kind == "threshold":
        argv += ["--threshold", repr(value)]
    else:
        cost_fp, cost_fn, prevalence = value
        argv += ["--cost-fp", repr(cost_fp), "--cost-fn", repr(cost_fn), "--assumed-prevalence", repr(prevalence)]
    assert main(argv) == 0
    return out


def _csv_row(point: dict) -> tuple:
    """A report point as the curve CSV writes it."""
    return (
        "inf" if point["threshold"] is None else repr(point["threshold"]),
        repr(point["recall"]),
        "" if point["precision"] is None else repr(point["precision"]),
        repr(point["specificity"]),
        repr(point["fpr"]),
        str(point["predicted_positive_count"]),
    )


def _envelope(points: list[tuple[float, float]], x: float) -> float:
    """Height at ``x`` of the upper convex envelope of ``points``, by brute force."""
    best = -math.inf
    for xa, ya in points:
        for xb, yb in points:
            if xa <= x <= xb:
                best = max(best, ya, yb) if xa == xb else max(best, ya + (yb - ya) * (x - xa) / (xb - xa))
    return best


def check_curve_artifacts(out: Path, dataset: Dataset, driver) -> list[dict]:
    """Every property of the bounded curve the written tree must have; returns the points."""
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    outputs = json.loads((out / "outputs.json").read_text(encoding="utf-8"))
    curves = report["curves"]
    raw = (out / "pr_curve.csv").read_bytes()
    assert not (out / "roc_curve.csv").exists()

    assert curves["file"] == {"path": "pr_curve.csv", "sha256": hashlib.sha256(raw).hexdigest()}
    rows = [tuple(r) for r in csv.reader(io.StringIO(raw.decode("utf-8")))][1:]
    assert curves["n_points"] == len(rows)
    assert (outputs["curve_file"], outputs["curve_n_points"], outputs["curve_points"]) == (
        curves["file"], curves["n_points"], curves["points"],
    )

    # every kept point is an observed sweep row, in sweep order
    index = {row: i for i, row in enumerate(rows)}
    kept = [index[_csv_row(p)] for p in curves["points"]]
    assert kept == sorted(set(kept))

    # the operating point is kept
    kind, value = driver
    if kind == "threshold":
        thresholds = [math.inf if r[0] == "inf" else float(r[0]) for r in rows]
        operating = max(i for i, t in enumerate(thresholds) if t >= value)
        assert curves["threshold"] == value
    else:
        operating = index[_csv_row(curves["operating_point"])]
    assert operating in kept

    # no sweep point lies above the hull of the kept points, and every kept
    # point is on that hull, apart from the operating point and the two ends
    # of the sweep (the origin lies below any points at fpr 0)
    coords = [(float(r[4]), float(r[1])) for r in rows]
    hull = [coords[i] for i in kept]
    for x, y in coords:
        assert y <= _envelope(hull, x) + TOL
    for i in kept:
        if i not in (operating, 0, len(rows) - 1):
            others = [coords[j] for j in kept if j != i]
            assert coords[i][1] >= _envelope(others, coords[i][0]) - TOL

    # size guard: origin, end point and operating point, plus one corner per positive score
    positive_scores = {c.score for c in dataset.cases if c.reference is ReferenceLabel.POSITIVE}
    assert len(curves["points"]) <= len(positive_scores) + 3
    return curves["points"]


@settings(max_examples=60, deadline=None)
@given(dataset=scored_datasets(), driver=_DRIVERS)
def test_bounded_curve_properties(dataset, driver):
    with tempfile.TemporaryDirectory() as work:
        out = _run_evaluate(dataset, driver, Path(work))
        check_curve_artifacts(out, dataset, driver)


@pytest.mark.parametrize(
    "driver", [("threshold", 2.0), ("costs", (1000.0, 1.0, 0.001))], ids=["threshold", "costs"]
)
def test_all_negative_operating_point_is_kept(driver, tmp_path):
    # the highest score is a negative: at 1000:1 costs every cut costs more than predicting nothing
    dataset = Dataset(
        [make_case(f"p{i}", "positive", score=0.4 + i / 10) for i in range(4)]
        + [make_case(f"n{i}", "negative", score=i / 10) for i in range(6)]
        + [make_case("top", "negative", score=0.99)]
    )
    out = _run_evaluate(dataset, driver, tmp_path)
    points = check_curve_artifacts(out, dataset, driver)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    if driver[0] == "costs":
        assert report["curves"]["operating_point"]["threshold"] is None
    assert points[0]["threshold"] is None and points[0]["predicted_positive_count"] == 0


def test_size_does_not_grow_with_rows(tmp_path):
    dataset = generate(PopulationSpec(n=5000, prevalence=0.02, seed=4)).dataset
    out = _run_evaluate(dataset, ("threshold", 0.8), tmp_path)
    points = check_curve_artifacts(out, dataset, ("threshold", 0.8))
    assert json.loads((out / "report.json").read_text())["curves"]["n_points"] == 5001
    assert len(points) < 5001 / 20


@pytest.mark.parametrize("weighted", [False, True])
def test_sweep_file_written_in_chunks_matches_its_digest_and_the_oracle(weighted, tmp_path):
    enrichment = (EnrichmentRule("negative", 0.3),) if weighted else ()
    dataset = generate(PopulationSpec(n=300, prevalence=0.1, enrichment=enrichment, seed=6)).dataset
    with mock.patch.object(datamodel, "_CHUNK_ROWS", 7):
        out = _run_evaluate(dataset, ("threshold", 0.5), tmp_path)
    check_curve_artifacts(out, dataset, ("threshold", 0.5))  # the recorded sha256 is that of the file
    assert (out / "pr_curve.csv").read_bytes() == ref.curve_to_csv(list(pr_curve(dataset))).encode("utf-8")


def test_unscored_run_writes_no_curve(tmp_path):
    data, out = tmp_path / "pred.csv", tmp_path / "out"
    data.write_text(
        "case_id,reference,predicted\n"
        + "".join(f"p{i},positive,{int(i < 3)}\n" for i in range(4))
        + "".join(f"n{i},negative,{int(i < 1)}\n" for i in range(6))
    )
    assert main(["evaluate", "--input", str(data), "--out-dir", str(out), "--reproducible"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["metrics.json", "outputs.json", "report.json", "report.md",
                                                     "warnings.json"]
    curves = json.loads((out / "report.json").read_text())["curves"]
    assert (curves["file"], curves["n_points"], curves["points"]) == (None, 0, [])
    outputs = json.loads((out / "outputs.json").read_text())
    assert (outputs["curve_file"], outputs["curve_n_points"], outputs["curve_points"]) == (None, 0, None)
    assert "Curve file" not in (out / "report.md").read_text()


class TestHullIndices:
    def test_staircase_with_ties_and_collinear_points(self):
        # origin, a vertical run, a horizontal step, a point collinear with its
        # neighbours, a horizontal run to the end point
        fpr = [0.0, 0.0, 0.0, 0.25, 0.25, 0.5, 0.75, 1.0]
        recall = [0.0, 0.25, 0.5, 0.5, 0.75, 1.0, 1.0, 1.0]
        assert hull_indices(np.array(fpr), np.array(recall)).tolist() == [0, 2, 5, 7]

    def test_report_points_match_hull_of_the_sweep(self):
        dataset = generate(PopulationSpec(n=400, prevalence=0.1, seed=7)).dataset
        sweep = pr_curve(dataset)
        points = report_points(sweep, None)
        assert points[0] == sweep[0] and points[-1] == sweep[-1]
        hull = [(p.fpr, p.recall) for p in points]
        for p in sweep:
            assert p.recall <= _envelope(hull, p.fpr) + TOL
        # a threshold no score reaches selects the all-negative point, already a vertex
        assert report_points(sweep, 2.0) == points
