"""Golden sha256 digests of every ``--reproducible`` output tree.

Two seeded synth inputs of about 2000 rows (one plain with a ``sg_site``
column, one enriched with negatives kept at p=0.3, so its weights are
inexact) go through the commands the benchmark runs: ``evaluate`` (threshold
and cost runs), ``subsets``, ``resample`` (k-fold and bootstrap) and
``scle sample``. Every file written is hashed and compared with
``tests/golden/reproducible_sha256.json``. A speed-up must leave these bytes
alone; a deliberate change to an output updates the golden file and says why.

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
}


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
    spec = synth.PopulationSpec(
        n=6000, prevalence=0.05, enrichment=(synth.EnrichmentRule("negative", 0.3),), seed=12
    )
    datamodel.emit(synth.generate(spec).dataset, work / "enriched.csv")


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
                dest = ["--out", str(out / "resample.json")] if argv[0] == "resample" else ["--out-dir", str(out)]
                out.mkdir(parents=True)
                assert cli.main([*argv, "--seed", "5", *dest]) == 0, name
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
    digests = output_digests()
    assert digests.keys() == golden.keys()
    for name in golden:
        assert digests[name] == golden[name], name


if __name__ == "__main__":
    with contextlib.redirect_stdout(sys.stderr):  # the commands' own output
        digests = output_digests()
    sys.stdout.write(json.dumps(digests, indent=2, sort_keys=True) + "\n")
