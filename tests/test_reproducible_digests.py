"""Golden sha256 digests of every ``--reproducible`` output tree.

Two seeded synth inputs of about 2000 rows (one plain with a ``sg_site``
column, one enriched with negatives kept at p=0.3, so its weights are
inexact) go through the commands the benchmark runs: ``evaluate`` (threshold
and cost runs), ``subsets``, ``resample`` (k-fold and bootstrap) and
``scle sample``. A third input carries ``benchmark_predicted`` labels for
``scle sample --benchmark-mode``. Three inputs made from the plain one have
no curve, and ``evaluate`` appraises each: its cases with predictions and no
scores, its positive cases alone, and its cases all marked ambiguous.
``synth`` writes a CSV with repeated runs (read back by ``stability``) and
an enriched JSONL, and ``scle apply`` writes both formats from a fixed
annotations document. Every file written is hashed
and compared with ``tests/golden/reproducible_sha256.json``. A speed-up must
leave these bytes alone; a deliberate change to an output updates the golden
file and says why.

Regenerate the golden file with::

    PYTHONPATH=src python tests/test_reproducible_digests.py > tests/golden/reproducible_sha256.json
"""

import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from rareval import cli, datamodel, synth

GOLDEN = Path(__file__).parent / "golden" / "reproducible_sha256.json"
SITES = ("north", "south", "east", "rare")
SITE_SHARES = (0.6, 0.3, 0.095, 0.005)

COMMANDS = {
    "evaluate-plain-threshold": ["evaluate", "--input", "plain.csv", "--threshold", "0.8", "--reproducible"],
    "evaluate-plain-cost": [
        "evaluate", "--input", "plain.csv", "--cost-fp", "1", "--cost-fn", "20",
        "--assumed-prevalence", "0.01", "--reproducible",
    ],
    "evaluate-enriched-threshold": [
        "evaluate", "--input", "enriched.csv", "--threshold", "0.8", "--reproducible",
    ],
    "evaluate-enriched-cost": [
        "evaluate", "--input", "enriched.csv", "--cost-fp", "1", "--cost-fn", "100",
        "--assumed-prevalence", "0.002", "--reproducible",
    ],
    "evaluate-predictions-only": [
        "evaluate", "--input", "predicted.csv", "--assumed-prevalence", "0.001", "--reproducible",
    ],
    "evaluate-one-class": [
        "evaluate", "--input", "positives.csv", "--threshold", "0.8", "--assumed-prevalence", "0.001", "--reproducible",
    ],
    "evaluate-no-labelled-case": [
        "evaluate", "--input", "ambiguous.csv", "--threshold", "0.8", "--assumed-prevalence", "0.001", "--reproducible",
    ],
    "subsets": ["subsets", "--input", "plain.csv", "--attribute", "site", "--threshold", "0.8"],
    "resample-kfold": [
        "resample", "--input", "plain.csv", "--metric", "recall", "--scheme", "k_fold", "--n", "5",
        "--threshold", "0.8",
    ],
    "resample-bootstrap": [
        "resample", "--input", "enriched.csv", "--metric", "precision", "--scheme", "bootstrap",
        "--n", "20", "--threshold", "0.8",
    ],
    "scle-sample": [
        "scle", "sample", "--input", "plain.csv", "--threshold", "0.8", "--n-fp", "20", "--n-fn", "20",
        "--n-tp", "20", "--substratify-by", "site", "--boundary-bins", "5",
        "--context-fields", "score,site", "--reproducible",
    ],
    # the commands below name their own output files under {out}
    "synth-runs-csv": [
        "synth", "--out", "{out}/runs.csv", "--n", "2000", "--prevalence", "0.05", "--n-runs", "3",
        "--flip-probability", "0.2", "--seed", "5",
    ],
    "synth-enriched-jsonl": [
        "synth", "--out", "{out}/enriched.jsonl", "--format", "jsonl", "--n", "3000", "--prevalence", "0.05",
        "--enrich", "negative:0.3", "--seed", "5",
    ],
    "stability": ["stability", "--input", "out/synth-runs-csv/runs.csv", "--out", "{out}/stability.json"],
    "scle-sample-benchmark": [
        "scle", "sample", "--input", "bench.csv", "--threshold", "0.8", "--n-fp", "10", "--n-fn", "10",
        "--n-tp", "10", "--benchmark-mode", "--oversample-factor", "2", "--context-fields", "score",
        "--reproducible", "--seed", "5", "--out-dir", "{out}",
    ],
    "scle-apply-csv": [
        "scle", "apply", "--input", "plain.csv", "--annotations", "annotations.json", "--out", "{out}/revised.csv",
    ],
    "scle-apply-jsonl": [
        "scle", "apply", "--input", "plain.csv", "--annotations", "annotations.json",
        "--out", "{out}/revised.jsonl", "--out-format", "jsonl",
    ],
}
# reviewer verdicts on cases of plain.csv, for scle apply
VERDICTS = {"case-000003": "positive", "case-000010": "negative", "case-000042": "ambiguous", "case-001999": "excluded"}


def _write_inputs(work: Path) -> None:
    plain = synth.generate(synth.PopulationSpec(n=2000, prevalence=0.05, seed=11)).dataset
    rng = np.random.default_rng(11)
    site = np.asarray(SITES)[rng.choice(len(SITES), size=len(plain), p=SITE_SHARES)]
    plain = plain.replace_cases(
        datamodel.EvaluationCase(
            case_id=c.case_id, reference=c.reference, score=c.score, subgroups={"site": str(s)}
        )
        for c, s in zip(plain.cases, site)
    )
    datamodel.emit(plain, work / "plain.csv")
    EvaluationCase, ReferenceLabel = datamodel.EvaluationCase, datamodel.ReferenceLabel
    for name, cases in (
        ("predicted", (EvaluationCase(c.case_id, c.reference, predicted=c.score >= 0.8) for c in plain.cases)),
        ("positives", (c for c in plain.cases if c.reference is ReferenceLabel.POSITIVE)),
        ("ambiguous", (EvaluationCase(c.case_id, ReferenceLabel.AMBIGUOUS, c.score) for c in plain.cases)),
    ):
        datamodel.emit(datamodel.Dataset(cases), work / f"{name}.csv")
    spec = synth.PopulationSpec(
        n=6000, prevalence=0.05, enrichment=(synth.EnrichmentRule("negative", 0.3),), seed=12
    )
    datamodel.emit(synth.generate(spec).dataset, work / "enriched.csv")
    bench = synth.generate(synth.PopulationSpec(n=2000, prevalence=0.1, seed=13)).dataset
    benchmark = rng.random(len(bench)) < np.array([c.score for c in bench.cases])
    bench = bench.replace_cases(
        datamodel.EvaluationCase(
            case_id=c.case_id, reference=c.reference, score=c.score, benchmark_predicted=bool(b)
        )
        for c, b in zip(bench.cases, benchmark)
    )
    datamodel.emit(bench, work / "bench.csv")
    annotations = [
        {"case_id": case_id, "reviewer": "r1", "categories": [], "triviality": None, "note": "", "verdict": verdict}
        for case_id, verdict in VERDICTS.items()
    ]
    (work / "annotations.json").write_text(json.dumps({"kind": "scle_annotations", "annotations": annotations}))


def output_digests() -> dict[str, dict[str, str]]:
    """Run every command in a fresh directory; sha256 of each file it wrote, by relative path."""
    digests = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _write_inputs(work)
        try:
            os.chdir(work)
            for name, argv in COMMANDS.items():
                out = Path("out") / name
                out.mkdir(parents=True)
                if any("{out}" in arg for arg in argv):
                    args = [arg.format(out=out) for arg in argv]
                else:
                    dest = ["--out", str(out / "resample.json")] if argv[0] == "resample" else ["--out-dir", str(out)]
                    args = [*argv, "--seed", "5", *dest]
                assert cli.main(args) == 0, name
                digests[name] = {
                    path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in sorted(out.rglob("*"))
                    if path.is_file()
                }
        finally:
            os.chdir(cwd)
    return digests


def test_reproducible_outputs_match_golden_digests():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    with pytest.warns(UserWarning, match=r"cell model\+/benchmark-: only 9 of 10 requested cases available"):
        digests = output_digests()
    # every (command, file) whose digest is missing, extra or different, and every missing or extra command, so
    # that a deliberate change shows its whole footprint in one run
    moved = sorted(
        (name, path)
        for name in digests.keys() | golden.keys()
        for path in digests.get(name, {}).keys() | golden.get(name, {}).keys()
        if digests.get(name, {}).get(path) != golden.get(name, {}).get(path)
    )
    assert (moved, sorted(digests.keys() ^ golden.keys())) == ([], [])


if __name__ == "__main__":
    with contextlib.redirect_stdout(sys.stderr):  # the commands' own output
        digests = output_digests()
    sys.stdout.write(json.dumps(digests, indent=2, sort_keys=True) + "\n")
