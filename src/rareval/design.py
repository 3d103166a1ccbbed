"""Test-set design support: power simulation, sizing, paired precision tests.

The power simulation models two classifiers flagging cases out of one random
sample, with each model's predicted positives annotated once. Shared flags
are annotated once and count identically toward both precisions, so they
carry no information about the precision *difference*; the significance test
is therefore restricted to the disagreement flags (cases flagged by exactly
one model) and is the conditional exact test of the resulting 2x2 table
(hypergeometric, mid-p, two-sided). Mid-p keeps the realized level close to
nominal where a plain exact test would be far too conservative.

Monte Carlo replicates follow a counter-based seeding contract: replicate
i's stream depends only on (seed, i), so results are independent of
scheduling or parallelism, and every sample size sees the same replicate
streams (common random numbers).
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import InfeasibleError, InputError
from .provenance import replicate_rng, slot_fields


@dataclass(frozen=True, slots=True)
class PrecisionStudyAssumptions:
    """Generative assumptions for a two-model precision comparison study.

    ``flag_rate_a``/``flag_rate_b`` are the probabilities that a sampled case
    is predicted positive by each model. ``overlap_rate`` is the shared-flag
    probability expressed as a fraction of the larger flag rate, so it must
    not exceed min(flag_rate)/max(flag_rate).
    """

    sample_size: int
    flag_rate_a: float
    flag_rate_b: float
    overlap_rate: float
    precision_a: float
    precision_b: float
    alpha: float = 0.05
    n_replicates: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.sample_size <= 0:
            raise InputError("sample_size must be positive")
        for name in ("flag_rate_a", "flag_rate_b", "precision_a", "precision_b", "alpha"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise InputError(f"{name} must be in (0, 1), got {v}")
        if not (0.0 <= self.overlap_rate <= 1.0):
            raise InputError("overlap_rate must be in [0, 1]")
        if self.n_replicates <= 0:
            raise InputError("n_replicates must be positive")

    @property
    def shared_flag_rate(self) -> float:
        return self.overlap_rate * max(self.flag_rate_a, self.flag_rate_b)

    def cell_probabilities(self) -> tuple[float, float, float, float]:
        """(both, a_only, b_only, neither) probabilities; checked for consistency."""
        p_both = self.shared_flag_rate
        if p_both > min(self.flag_rate_a, self.flag_rate_b) + 1e-12:
            bound = min(self.flag_rate_a, self.flag_rate_b) / max(self.flag_rate_a, self.flag_rate_b)
            raise InputError(
                f"overlap_rate {self.overlap_rate} is inconsistent with the flag rates "
                f"(must be <= {bound:.6g})"
            )
        a_only = self.flag_rate_a - p_both
        b_only = self.flag_rate_b - p_both
        neither = 1.0 - p_both - a_only - b_only
        if neither < 0:
            raise InputError("flag rates sum to more than 1 after accounting for overlap")
        return p_both, a_only, b_only, neither

    @classmethod
    def from_dict(cls, data: dict) -> "PrecisionStudyAssumptions":
        return cls(
            sample_size=int(data.get("sample_size", 1)),
            flag_rate_a=float(data["flag_rate_a"]),
            flag_rate_b=float(data["flag_rate_b"]),
            overlap_rate=float(data["overlap_rate"]),
            precision_a=float(data["precision_a"]),
            precision_b=float(data["precision_b"]),
            alpha=float(data.get("alpha", 0.05)),
            n_replicates=int(data.get("n_replicates", 2000)),
            seed=int(data.get("seed", 0)),
        )


@dataclass(frozen=True, slots=True)
class PowerResult:
    power: float
    mc_stderr: float
    n_replicates: int
    seed: int

    to_json_dict = slot_fields


def disagreement_test_pvalue(x_a: int, n_a: int, x_b: int, n_b: int) -> float:
    """Two-sided mid-p of the conditional exact test on disagreement flags.

    Conditions on the total number of true positives among the n_a + n_b
    disagreement flags; under equal precisions the split over the two arms is
    hypergeometric.
    """
    from scipy.stats import hypergeom  # here, so importing rareval does not load scipy

    t = x_a + x_b
    if t == 0 or n_a == 0 or n_b == 0:
        return 1.0
    rv = hypergeom(n_a + n_b, t, n_a)
    pmf = rv.pmf(x_a)
    lower = rv.cdf(x_a) - 0.5 * pmf
    upper = rv.sf(x_a) + 0.5 * pmf
    return float(min(1.0, 2.0 * min(lower, upper)))


def _pvalues_vectorized(xa: np.ndarray, na: np.ndarray, xb: np.ndarray, nb: np.ndarray) -> np.ndarray:
    from scipy.stats import hypergeom  # here, so importing rareval does not load scipy

    t = xa + xb
    m = na + nb
    with np.errstate(invalid="ignore"):
        pmf = hypergeom.pmf(xa, m, t, na)
        lower = hypergeom.cdf(xa, m, t, na) - 0.5 * pmf
        upper = hypergeom.sf(xa, m, t, na) + 0.5 * pmf
    p = np.minimum(1.0, 2.0 * np.minimum(lower, upper))
    degenerate = (t == 0) | (na == 0) | (nb == 0)
    return np.where(degenerate, 1.0, p)


def simulate_precision_power(assumptions: PrecisionStudyAssumptions) -> PowerResult:
    """Monte Carlo probability that the precision comparison rejects at alpha."""
    probs = np.array(assumptions.cell_probabilities())
    n = assumptions.sample_size
    reps = assumptions.n_replicates

    na = np.empty(reps, dtype=np.int64)
    nb = np.empty(reps, dtype=np.int64)
    xa = np.empty(reps, dtype=np.int64)
    xb = np.empty(reps, dtype=np.int64)
    for i in range(reps):
        rng = replicate_rng(assumptions.seed, 0, i)
        _, a_only, b_only, _ = rng.multinomial(n, probs)
        na[i] = a_only
        nb[i] = b_only
        xa[i] = rng.binomial(a_only, assumptions.precision_a) if a_only else 0
        xb[i] = rng.binomial(b_only, assumptions.precision_b) if b_only else 0

    pvals = _pvalues_vectorized(xa, na, xb, nb)
    power = float(np.mean(pvals <= assumptions.alpha))
    stderr = math.sqrt(max(power * (1.0 - power), 1e-12) / reps)
    return PowerResult(power=power, mc_stderr=stderr, n_replicates=reps, seed=assumptions.seed)


def solve_sample_size(
    assumptions: PrecisionStudyAssumptions,
    target_power: float,
    min_size: int = 100,
    max_size: int = 4_000_000,
) -> int:
    """Smallest sample size on a geometric-then-bisection grid reaching the target.

    Every probe reuses the replicate streams of :func:`simulate_precision_power`
    (common random numbers), so the search walks one fixed power curve, reruns
    return the same answer, and simulating at the answer reproduces the power
    the search accepted. ``assumptions.sample_size`` is ignored.
    """
    if not (assumptions.alpha < target_power < 1.0):
        raise InputError(f"target_power must be in (alpha, 1), got {target_power}")

    def power_at(size: int) -> float:
        return simulate_precision_power(replace(assumptions, sample_size=size)).power

    size = min_size
    if power_at(size) >= target_power:
        return size
    while True:
        if size >= max_size:
            raise InfeasibleError(
                f"target power {target_power} not reached by sample size {max_size} (max tried)"
            )
        size = min(size * 2, max_size)
        if power_at(size) >= target_power:
            break
    lo, hi = size // 2, size
    while hi - lo > max(1, hi // 50):
        mid = (lo + hi) // 2
        if power_at(mid) >= target_power:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True, slots=True)
class PairedPrecisionTest:
    """Two model-specific precision tests built along one random sequence."""

    sample_a: tuple
    sample_b: tuple
    shared: tuple
    complete: bool

    @property
    def annotation_burden(self) -> int:
        """Distinct cases needing annotation: |A| + |B| - |shared|."""
        return len(self.sample_a) + len(self.sample_b) - len(self.shared)


def build_paired_precision_test(
    universe: Sequence,
    model_a_flags: Callable[[object], bool],
    model_b_flags: Callable[[object], bool],
    target_flags: int,
    seed: int = 0,
) -> PairedPrecisionTest:
    """Walk one seeded random order of the universe, filling both tests.

    Each model's test is the first ``target_flags`` cases it flags along the
    shared sequence; a case flagged by both while both tests are open is
    annotated once and counts for both, which is what caps the annotation
    burden at |A u B|. Exhausting the universe early yields a partial result
    with a warning rather than an error.
    """
    if target_flags <= 0:
        raise InputError("target_flags must be positive")
    rng = replicate_rng(seed, 0)
    order = rng.permutation(len(universe))

    sample_a: list = []
    sample_b: list = []
    shared: list = []
    for idx in order:
        case = universe[int(idx)]
        need_a = len(sample_a) < target_flags
        need_b = len(sample_b) < target_flags
        if not need_a and not need_b:
            break
        took_a = took_b = False
        if need_a and model_a_flags(case):
            sample_a.append(case)
            took_a = True
        if need_b and model_b_flags(case):
            sample_b.append(case)
            took_b = True
        if took_a and took_b:
            shared.append(case)
    complete = len(sample_a) == target_flags and len(sample_b) == target_flags
    if not complete:
        _warnings.warn(
            f"universe exhausted before reaching {target_flags} flags per model "
            f"(got {len(sample_a)} for A, {len(sample_b)} for B)",
            stacklevel=2,
        )
    return PairedPrecisionTest(tuple(sample_a), tuple(sample_b), tuple(shared), complete)


@dataclass(frozen=True, slots=True)
class PairPrevalenceSpec:
    """Record-level duplication assumptions for pair-level prevalence."""

    n_records: int
    duplicate_fraction: float

    def __post_init__(self):
        if self.n_records < 2:
            raise InputError("n_records must be >= 2")
        if not (0.0 <= self.duplicate_fraction <= 1.0):
            raise InputError("duplicate_fraction must be in [0, 1]")


def pair_prevalence(spec: PairPrevalenceSpec) -> float:
    """Expected duplicate prevalence among all ordered pairs of records.

    Computed as duplicate_fraction * n / n^2: with each duplicated record
    having exactly one partner, duplicate_fraction * n is the number of
    ordered duplicate pairs, and the denominator deliberately keeps the n^2
    ordered-pair convention (self-pairs included) rather than n(n-1)/2.
    """
    dup_records = spec.duplicate_fraction * spec.n_records
    if (dup_records / 2.0) != int(dup_records / 2.0):
        _warnings.warn(
            f"duplicate_fraction * n_records = {dup_records:g} does not form a whole "
            "number of pairs",
            stacklevel=2,
        )
    return (spec.duplicate_fraction * spec.n_records) / (spec.n_records**2)
