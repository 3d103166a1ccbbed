"""Seeded inputs and command sequences of the three benchmark workloads.

Every input file is built from ``rareval.synth`` with the workload seed; the
skewed ``sg_site`` column comes from its own RNG seeded from the same value.
The same seed therefore yields byte-identical files. Alongside the files,
:func:`build` returns the generated arrays (score, reference, weight, site)
that the output check recomputes against, so the check never reads back
anything the code under test produced from those files.

Sizes are chosen so that one run of ``--seconds`` holds several invocations:
on a 2-core Xeon a 2*10^5-row ``evaluate`` takes 16-19 s, which would leave
one or two samples per run and too wide a spread to hold any bound.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

PLAIN_ROWS = 30_000
PLAIN_PREVALENCE = 0.01
ENRICHED_POPULATION = 300_000  # negatives kept with p=0.1: ~3*10^4 rows
ENRICHED_PREVALENCE = 0.002
BOOTSTRAP_ROWS = 20_000
BOOTSTRAP_RESAMPLES = 20
KFOLD_FOLDS = 10
THRESHOLD = 0.8
COST_FP, COST_FN = 1.0, 100.0

# One site of about 0.05 % of rows keeps the expected error cells below 5, so
# the heterogeneity screen takes its permutation path.
SITES = ("north", "south", "east", "rare")
SITE_SHARES = (0.6, 0.3, 0.0995, 0.0005)

# Power simulation at a fixed size, not ``--target-power``: the sample-size
# search bisects on a fresh Monte Carlo stream per probe, so on about a third
# of seeds the power it prints for its own answer is below the target. At
# this size the power is near 0.8, where the output check is sharpest.
SIZE_STUDY = {
    "sample_size": 5000, "flag_rate_a": 0.05, "flag_rate_b": 0.06, "overlap_rate": 0.5,
    "precision_a": 0.7, "precision_b": 0.85, "alpha": 0.05, "replicates": 1000,
}

NAMES = ("evaluate-plain", "evaluate-enriched", "robustness-review")


@dataclasses.dataclass
class Population:
    """One generated input file and the arrays it was written from."""

    path: str  # relative to the work directory
    score: np.ndarray
    positive: np.ndarray
    weight: np.ndarray
    site: np.ndarray | None = None

    @property
    def rows(self) -> int:
        return int(self.score.size)


@dataclasses.dataclass
class Step:
    """One CLI invocation of a workload pass."""

    name: str  # metric stem, e.g. "subsets" -> subsets_s
    argv: list[str]
    population: Population | None  # input the command reads, if any
    out: str  # output directory, relative to the work directory


def _population(work: Path, name: str, spec, site_seed: int | None) -> Population:
    from rareval import datamodel, synth

    dataset = synth.generate(spec).dataset
    cases = dataset.cases
    site = None
    if site_seed is not None:
        rng = np.random.default_rng([site_seed, 0x517E])
        site = np.asarray(SITES)[rng.choice(len(SITES), size=len(cases), p=SITE_SHARES)]
        cases = [dataclasses.replace(c, subgroups={"site": str(s)}) for c, s in zip(cases, site)]
        dataset = dataset.replace_cases(cases)
    path = work / f"{name}.csv"
    datamodel.emit(dataset, path, "csv")
    weight_of = {s.stratum_id: 1.0 / s.inclusion_probability for s in dataset.design}
    return Population(
        path=path.name,
        score=np.array([c.score for c in cases], dtype=float),
        positive=np.array([c.reference.value == "positive" for c in cases], dtype=bool),
        weight=np.array([weight_of.get(c.stratum_id, 1.0) for c in cases], dtype=float),
        site=site,
    )


def build(workload: str, seed: int, work: Path) -> list[Step]:
    """Write the workload's inputs under ``work``; return one pass of steps."""
    from rareval import synth

    seed_arg = ["--seed", str(seed)]
    if workload == "evaluate-plain":
        pop = _population(
            work, "plain", synth.PopulationSpec(n=PLAIN_ROWS, prevalence=PLAIN_PREVALENCE, seed=seed), None
        )
        argv = ["evaluate", "--input", pop.path, "--threshold", str(THRESHOLD), "--reproducible"]
        return [Step("evaluate", argv + seed_arg + ["--out-dir", "out"], pop, "out")]
    if workload == "evaluate-enriched":
        spec = synth.PopulationSpec(
            n=ENRICHED_POPULATION,
            prevalence=ENRICHED_PREVALENCE,
            enrichment=(synth.EnrichmentRule("negative", 0.1),),
            seed=seed,
        )
        pop = _population(work, "enriched", spec, None)
        argv = [
            "evaluate", "--input", pop.path, "--cost-fp", str(COST_FP), "--cost-fn", str(COST_FN),
            "--assumed-prevalence", str(ENRICHED_PREVALENCE), "--reproducible",
        ]
        return [Step("evaluate", argv + seed_arg + ["--out-dir", "out"], pop, "out")]
    if workload == "robustness-review":
        sites = _population(
            work, "sites", synth.PopulationSpec(n=PLAIN_ROWS, prevalence=PLAIN_PREVALENCE, seed=seed), seed
        )
        boot = _population(
            work, "boot",
            synth.PopulationSpec(n=BOOTSTRAP_ROWS, prevalence=PLAIN_PREVALENCE, seed=seed + 1), None,
        )
        t = ["--threshold", str(THRESHOLD)]
        size_args = [a for k, v in SIZE_STUDY.items() for a in (f"--{k.replace('_', '-')}", str(v))]
        return [
            Step("subsets", ["subsets", "--input", sites.path, "--attribute", "site", *t,
                             *seed_arg, "--out-dir", "out/subsets"], sites, "out/subsets"),
            Step("resample_kfold", ["resample", "--input", sites.path, "--metric", "recall",
                                    "--scheme", "k_fold", "--n", str(KFOLD_FOLDS), *t, *seed_arg,
                                    "--out", "out/kfold/resample.json"], sites, "out/kfold"),
            Step("scle_sample", ["scle", "sample", "--input", sites.path, *t, "--n-fp", "40",
                                 "--n-fn", "40", "--n-tp", "40", "--substratify-by", "site",
                                 "--boundary-bins", "5", "--context-fields", "score,site",
                                 "--reproducible", *seed_arg, "--out-dir", "out/scle"], sites, "out/scle"),
            Step("resample_bootstrap", ["resample", "--input", boot.path, "--metric", "precision",
                                        "--scheme", "bootstrap", "--n", str(BOOTSTRAP_RESAMPLES), *t,
                                        *seed_arg, "--out", "out/boot/resample.json"], boot, "out/boot"),
            Step("size_study", ["size-study", *size_args, *seed_arg], None, "out/size"),
        ]
    raise ValueError(f"unknown workload {workload!r} (expected one of {', '.join(NAMES)})")
