"""Seeded synthetic populations with an exact ground-truth sidecar.

The generator draws a labeled population with class-conditional scores from
two location-shifted logit-normal distributions (bounded in (0, 1)), applies
optional label noise, repeated-run labels, and enrichment subsampling, and
returns both the resulting dataset and a :class:`TruthSidecar` that knows the
exact population-level metrics at any threshold by exhaustive counting. The
sidecar is oracle data for verification and is never a valid evaluation
input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datamodel import NEGATIVE, POSITIVE, Dataset, StratumSpec, _build_columns, _decode
from .errors import InfeasibleError, InputError
from .provenance import MOST_ARRAY_VALUES, _entropy, canonical_json, read_record, strict_json, write_file

REST_STRATUM_ID = "rest"


@dataclass(frozen=True, slots=True)
class EnrichmentRule:
    """Keep cases whose true class matches ``select`` with this probability."""

    select: str  # "positive" or "negative" (latent truth)
    inclusion_probability: float
    stratum_id: str = ""

    def __post_init__(self):
        if self.select not in ("positive", "negative"):
            raise InputError(f"enrichment selector must be 'positive' or 'negative', got {self.select!r}")
        if not (0.0 < self.inclusion_probability <= 1.0):
            raise InputError("enrichment inclusion_probability must be in (0, 1]")
        if not self.stratum_id:
            object.__setattr__(self, "stratum_id", f"enriched_{self.select}")


@dataclass(frozen=True, slots=True)
class PopulationSpec:
    """Parameters of one synthetic population."""

    n: int
    prevalence: float
    separation: float = 2.0
    spread: float = 1.0
    enrichment: tuple[EnrichmentRule, ...] = ()
    label_noise: float = 0.0
    n_runs: int | None = None
    flip_probability: float = 0.0
    exact_positive_count: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.n <= 0:
            raise InputError("population size must be positive")
        if self.n > MOST_ARRAY_VALUES:
            raise InputError(f"n must be at most {MOST_ARRAY_VALUES}, the most values an array can hold")
        if not (0.0 < self.prevalence < 1.0):
            raise InputError("prevalence must be in (0, 1)")
        if self.spread <= 0:
            raise InputError("spread must be positive")
        if not (0.0 <= self.label_noise < 1.0):
            raise InputError("label_noise must be in [0, 1)")
        if self.n_runs is not None and self.n_runs < 1:
            raise InputError("n_runs must be >= 1 when present")
        if self.n_runs is not None and self.n_runs > MOST_ARRAY_VALUES // self.n:
            raise InputError(f"n_runs must be at most {MOST_ARRAY_VALUES // self.n} for n = {self.n}")
        if not (0.0 <= self.flip_probability <= 1.0):
            raise InputError("flip_probability must be in [0, 1]")
        _entropy(self.seed)
        object.__setattr__(self, "enrichment", tuple(self.enrichment))

    from_dict = classmethod(read_record)


class TruthSidecar:
    """Exact population metrics at any threshold, by exhaustive counting.

    Holds the full population's true classes and scores; all metrics here are
    population truths, not sample estimates, and are computed independently
    of the metrics module.
    """

    def __init__(self, scores: np.ndarray, truth: np.ndarray):
        self.scores = np.asarray(scores, dtype=float)
        self.truth = np.asarray(truth, dtype=bool)

    @property
    def n(self) -> int:
        return int(self.scores.size)

    @property
    def positive_count(self) -> int:
        return int(np.count_nonzero(self.truth))

    @property
    def prevalence(self) -> float:
        return self.positive_count / self.n

    def confusion_at(self, threshold: float) -> tuple[int, int, int, int]:
        """(tp, fp, fn, tn) of the full population at ``score >= threshold``."""
        predicted = self.scores >= threshold
        tp = int(np.count_nonzero(predicted & self.truth))
        fp = int(np.count_nonzero(predicted & ~self.truth))
        fn = int(np.count_nonzero(~predicted & self.truth))
        tn = int(np.count_nonzero(~predicted & ~self.truth))
        return tp, fp, fn, tn

    def recall_at(self, threshold: float) -> float | None:
        tp, _, fn, _ = self.confusion_at(threshold)
        return tp / (tp + fn) if tp + fn else None

    def precision_at(self, threshold: float) -> float | None:
        tp, fp, _, _ = self.confusion_at(threshold)
        return tp / (tp + fp) if tp + fp else None

    def specificity_at(self, threshold: float) -> float | None:
        _, fp, _, tn = self.confusion_at(threshold)
        return tn / (tn + fp) if tn + fp else None

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        payload = {
            "kind": "truth_sidecar",
            "warning": "oracle data for verification only; not a valid evaluation input",
            "n": self.n,
            "positive_count": self.positive_count,
            "prevalence": self.prevalence,
            "scores": self.scores.tolist(),
            "truth": [bool(t) for t in self.truth.tolist()],
        }
        # sorted keys put "kind" first, inside the window ingest's leakage guard reads
        write_file(path, canonical_json(payload))
        return path

    @classmethod
    def read(cls, path: str | Path) -> "TruthSidecar":
        payload = strict_json(Path(path).read_text(encoding="utf-8"))
        if payload.get("kind") != "truth_sidecar":
            raise InputError(f"{path}: not a truth sidecar")
        return cls(np.array(payload["scores"], dtype=float), np.array(payload["truth"], dtype=bool))


@dataclass(slots=True)
class SynthResult:
    dataset: Dataset
    truth: TruthSidecar
    population_size: int = field(default=0)


def generate(spec: PopulationSpec) -> SynthResult:
    """Generate one population (optionally enriched) plus its truth sidecar.

    Draw order is fixed (truth, scores, label noise, repeated runs,
    enrichment), so output is bitwise reproducible per (spec, seed).
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n

    if spec.exact_positive_count:
        k = int(round(spec.prevalence * n))
        truth = np.zeros(n, dtype=bool)
        truth[rng.permutation(n)[:k]] = True
    else:
        truth = rng.random(n) < spec.prevalence

    # scores = sigmoid(latent +- separation / 2), computed in the one buffer of the draw
    scores = rng.normal(loc=0.0, scale=spec.spread, size=n)
    np.add(scores, spec.separation / 2.0, out=scores, where=truth)
    np.subtract(scores, spec.separation / 2.0, out=scores, where=~truth)
    with np.errstate(over="ignore"):  # exp(-x) beyond float range is inf, and the score is 0
        np.exp(np.negative(scores, out=scores), out=scores)
    scores += 1.0
    np.divide(1.0, scores, out=scores)

    reference = truth.copy()
    if spec.label_noise > 0:
        flips = rng.random(n) < spec.label_noise
        reference ^= flips

    runs: np.ndarray | None = None
    if spec.n_runs is not None:
        flips = rng.random((n, spec.n_runs)) < spec.flip_probability
        runs = truth[:, None] ^ flips

    sidecar = TruthSidecar(scores, truth)

    keep = np.ones(n, dtype=bool)
    strata: np.ndarray | None = None  # every case's stratum as an index into stratum_ids
    stratum_ids = [rule.stratum_id for rule in spec.enrichment] + [REST_STRATUM_ID]
    design: tuple[StratumSpec, ...] = ()
    if spec.enrichment:
        strata = np.full(n, len(spec.enrichment), dtype=np.min_scalar_type(len(spec.enrichment)))
        assigned = np.zeros(n, dtype=bool)
        specs = []
        for code, rule in enumerate(spec.enrichment):
            matches = (truth if rule.select == "positive" else ~truth) & ~assigned
            if not matches.any():
                raise InfeasibleError(
                    f"enrichment stratum {rule.stratum_id!r} is empty: no {rule.select} cases to select"
                )
            strata[matches] = code
            assigned |= matches
            specs.append(
                StratumSpec(
                    stratum_id=rule.stratum_id,
                    inclusion_probability=rule.inclusion_probability,
                    description=f"{rule.select} cases kept with probability {rule.inclusion_probability}",
                )
            )
            keep[matches] &= rng.random(int(matches.sum())) < rule.inclusion_probability
        if not assigned.all():
            specs.append(StratumSpec(REST_STRATUM_ID, 1.0, "all remaining cases"))
        design = tuple(specs)

    kept = np.flatnonzero(keep)
    width = max(6, len(str(n)))
    unpredicted = np.full(kept.size, -1, dtype=np.int8)
    columns = _build_columns(
        design,
        case_id=[f"case-{i:0{width}d}" for i in kept.tolist()],
        stratum_id=_decode(strata[kept], stratum_ids) if strata is not None else [None] * kept.size,
        subgroups={},
        runs=(runs[kept] if runs is not None else np.empty((kept.size, 0))).astype(np.int8),
        missing=None,
        score=scores[kept],
        reference=np.where(reference[kept], POSITIVE, NEGATIVE).astype(np.int8),
        predicted=unpredicted,
        benchmark_predicted=unpredicted,
    )
    dataset = Dataset._from_columns(columns, design, {"generator": "rareval.synth", "seed": spec.seed})
    return SynthResult(dataset=dataset, truth=sidecar, population_size=n)

