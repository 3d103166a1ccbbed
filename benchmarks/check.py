"""Output check behind ``failed_ratio``, independent of the code under test.

Every expected value is recomputed with numpy from the arrays the inputs were
generated from (:class:`workloads.Population`), or for the size-study's
power from a reference simulation of the study; nothing here imports
``rareval``. Each ``check_*`` function takes the parsed artifacts of one
invocation and returns a list of problems, empty when the output is right,
so :func:`self_test` can corrupt parsed artifacts in memory and confirm that
the checker notices.
"""

from __future__ import annotations

import copy
import csv
import functools
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import workloads

METRIC_TOL = 1e-12  # unweighted proportions and curve coordinates
WEIGHTED_TOL = 1e-9  # Horvitz-Thompson sums accumulate in another order
AUC_TOL = 1e-9
POWER_REFERENCE_REPLICATES = 40_000
# A chance miss beyond 5 standard errors has probability about 6e-7 per check.
POWER_SIGMAS = 5.0


def tree_digest(paths: list[Path]) -> str:
    """sha256 over the relative names and bytes of every file under ``paths``."""
    h = hashlib.sha256()
    for base in paths:
        if not base.exists():
            continue
        files = sorted(p for p in base.rglob("*") if p.is_file()) if base.is_dir() else [base]
        for f in files:
            h.update(str(f.relative_to(base.parent)).encode())
            h.update(b"\0")
            h.update(f.read_bytes())
            h.update(b"\0")
    return h.hexdigest()


def tree_bytes(path: Path) -> int:
    if not path.exists():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# --- independent recomputation ------------------------------------------------


def _counts(pop: workloads.Population, threshold: float) -> dict[str, float]:
    pred = pop.score >= threshold
    w = pop.weight
    return {
        "tp": float(w[pred & pop.positive].sum()),
        "fp": float(w[pred & ~pop.positive].sum()),
        "fn": float(w[~pred & pop.positive].sum()),
        "tn": float(w[~pred & ~pop.positive].sum()),
    }


def _proportions(c: dict[str, float]) -> dict[str, tuple[float | None, float]]:
    """metric -> (value or None when undefined, denominator)."""
    pairs = {
        "recall": (c["tp"], c["tp"] + c["fn"]),
        "precision": (c["tp"], c["tp"] + c["fp"]),
        "specificity": (c["tn"], c["tn"] + c["fp"]),
        "npv": (c["tn"], c["tn"] + c["fn"]),
    }
    return {m: (num / den if den > 0 else None, den) for m, (num, den) in pairs.items()}


def _sweep(pop: workloads.Population) -> dict[str, np.ndarray]:
    """Curve at every distinct score (descending), plus the all-negative point."""
    order = np.argsort(-pop.score, kind="stable")
    s, pos, w = pop.score[order], pop.positive[order], pop.weight[order]
    cum_tp = np.cumsum(np.where(pos, w, 0.0))
    cum_fp = np.cumsum(np.where(pos, 0.0, w))
    last = np.flatnonzero(np.r_[s[1:] != s[:-1], True])
    total_pos, total_neg = cum_tp[-1], cum_fp[-1]
    tp, fp = np.r_[0.0, cum_tp[last]], np.r_[0.0, cum_fp[last]]
    return {
        "threshold": np.r_[np.inf, s[last]],
        "recall": tp / total_pos,
        "fpr": fp / total_neg,
        "count": np.r_[0, last + 1],
    }


def _expected_cost(recall, fpr) -> np.ndarray:
    p = workloads.ENRICHED_PREVALENCE
    return workloads.COST_FN * p * (1.0 - recall) + workloads.COST_FP * (1.0 - p) * fpr


def pairwise_auc(pop: workloads.Population) -> float:
    """P(score of a positive > score of a negative), ties counted half, weighted."""
    neg_s, neg_w = pop.score[~pop.positive], pop.weight[~pop.positive]
    order = np.argsort(neg_s, kind="stable")
    neg_s, cum = neg_s[order], np.r_[0.0, np.cumsum(neg_w[order])]
    pos_s, pos_w = pop.score[pop.positive], pop.weight[pop.positive]
    below = cum[np.searchsorted(neg_s, pos_s, side="left")]
    at_or_below = cum[np.searchsorted(neg_s, pos_s, side="right")]
    wins = below + 0.5 * (at_or_below - below)
    return float((pos_w * wins).sum() / (pos_w.sum() * neg_w.sum()))


def _close(a: float | None, b: float | None, tol: float, relative: bool = False) -> bool:
    if a is None or b is None:
        return a is None and b is None
    scale = max(1.0, abs(b)) if relative else 1.0
    return abs(a - b) <= tol * scale


# --- evaluate -------------------------------------------------------------------


def _curve_columns(body: list[list[str]]) -> dict[str, np.ndarray] | str:
    """Columns of a curve CSV (without header), or why they cannot be read."""
    try:
        return {
            "threshold": np.array([math.inf if r[0] == "inf" else float(r[0]) for r in body]),
            "recall": np.array([float(r[1]) for r in body]),
            "fpr": np.array([float(r[4]) for r in body]),
            "count": np.array([int(r[5]) for r in body]),
        }
    except (ValueError, IndexError) as exc:
        return f"unreadable row ({exc})"


def read_evaluate(out: Path) -> dict:
    """Parse the files ``check_evaluate`` needs from one output directory."""
    curves = {}
    for f in sorted(out.glob("*.csv")):
        with open(f, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if rows and rows[0][:1] == ["threshold"]:
            curves[f.name] = _curve_columns(rows[1:])
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    report.get("curves", {}).pop("points", None)  # checked from the CSV instead
    return {
        "metrics": json.loads((out / "metrics.json").read_text(encoding="utf-8")),
        "report": report,
        "curves": curves,
    }


def check_evaluate(art: dict, pop: workloads.Population, weighted: bool) -> list[str]:
    problems: list[str] = []
    tol = WEIGHTED_TOL if weighted else METRIC_TOL
    sweep = _sweep(pop)

    curves = art["report"].get("curves") or {}
    if weighted:
        cost = _expected_cost(sweep["recall"], sweep["fpr"])
        best = float(cost.min())
        reported = curves.get("threshold")
        t = math.inf if reported is None or reported == math.inf else float(reported)
        at = np.flatnonzero(sweep["threshold"] == t)
        if at.size != 1:
            problems.append(f"operating threshold {reported!r} is not an observed score")
            return problems
        if not cost[at[0]] <= best + 1e-12 * max(1.0, abs(best)):
            problems.append(f"threshold {t!r} costs {cost[at[0]]!r}, minimum is {best!r}")
    else:
        t = workloads.THRESHOLD

    expected = _proportions(_counts(pop, t))
    got = {m.get("metric"): m for m in art["metrics"]}
    for name, (value, den) in expected.items():
        entry = got.get(name)
        if entry is None:
            problems.append(f"metrics.json lacks {name}")
            continue
        if not _close(entry.get("value"), value, tol, relative=weighted):
            problems.append(f"{name} = {entry.get('value')!r}, expected {value!r}")
        if not _close(entry.get("n_effective"), den, tol, relative=True):
            problems.append(f"{name} n_effective = {entry.get('n_effective')!r}, expected {den!r}")

    auc = curves.get("auc")
    if not _close(auc, pairwise_auc(pop), AUC_TOL):
        problems.append(f"auc = {auc!r}, expected {pairwise_auc(pop)!r}")

    if not art["curves"]:
        problems.append("no curve CSV written")
    n_points = sweep["threshold"].size  # distinct evaluable scores + 1
    for name, cols in art["curves"].items():
        if isinstance(cols, str):
            problems.append(f"{name}: {cols}")
            continue
        if cols["threshold"].size != n_points:
            problems.append(f"{name}: {cols['threshold'].size} points, expected {n_points}")
            continue
        if not np.array_equal(cols["threshold"], sweep["threshold"]):
            problems.append(f"{name}: thresholds differ from the distinct scores")
        if not np.array_equal(cols["count"], sweep["count"]):
            problems.append(f"{name}: predicted_positive_count differs")
        for label in ("recall", "fpr"):
            err = float(np.abs(cols[label] - sweep[label]).max())
            if err > tol:
                problems.append(f"{name}: {label} off by {err!r}")
    return problems


# --- robustness-review ----------------------------------------------------------


def check_subsets(doc: dict, pop: workloads.Population) -> list[str]:
    problems: list[str] = []
    cats = doc.get("categories", {})
    total = doc.get("total_evaluable")
    if sum(c.get("n", 0) for c in cats.values()) != total:
        problems.append(f"category sizes do not sum to total_evaluable={total}")
    if total != pop.rows:
        problems.append(f"total_evaluable={total}, expected {pop.rows}")
    for site in np.unique(pop.site):
        mask = pop.site == site
        entry = cats.get(str(site))
        if entry is None or entry.get("n") != int(mask.sum()):
            problems.append(f"site {site}: size differs from the {int(mask.sum())} generated rows")
            continue
        sub = workloads.Population("", pop.score[mask], pop.positive[mask], pop.weight[mask])
        for name, (value, _) in _proportions(_counts(sub, workloads.THRESHOLD)).items():
            est = entry.get("metrics", {}).get(name)
            if est is not None and not _close(est.get("value"), value, METRIC_TOL):
                problems.append(f"site {site}: {name} = {est.get('value')!r}, expected {value!r}")
    return problems


def check_resample(doc: dict, scheme: str, n: int) -> list[str]:
    values = [v for v in doc.get("values", []) if v is not None and math.isfinite(v)]
    problems = []
    if doc.get("scheme") != scheme or doc.get("n") != n or len(doc.get("values", [])) != n:
        problems.append(f"expected {n} {scheme} values, got {doc.get('n')} {doc.get('scheme')}")
    if not values or not all(0.0 <= v <= 1.0 for v in values):
        problems.append("resample values missing or outside [0, 1]")
    elif not _close(doc.get("mean"), float(np.mean(values)), METRIC_TOL):
        problems.append(f"mean {doc.get('mean')!r} differs from the mean of its values")
    return problems


def check_scle(doc: dict, sheet_rows: int, pop: workloads.Population) -> list[str]:
    problems = []
    c = _counts(pop, workloads.THRESHOLD)
    expected_pop = {"TP": c["tp"], "FP": c["fp"], "FN": c["fn"], "TN": c["tn"]}
    for cell, size in doc.get("cell_population_sizes", {}).items():
        if size != expected_pop.get(cell):
            problems.append(f"cell {cell}: population {size}, expected {expected_pop.get(cell)}")
    rows = len(doc.get("rows", []))
    if rows != sum(doc.get("cell_sample_sizes", {}).values()):
        problems.append("sample rows do not match cell_sample_sizes")
    if rows != sheet_rows:
        problems.append(f"review sheet has {sheet_rows} rows, sample has {rows}")
    return problems


@functools.lru_cache(maxsize=None)
def reference_power() -> tuple[float, float]:
    """Monte Carlo power of the size-study's precision comparison, and its stderr.

    Written from the study's description, not its code: a multinomial draw of
    (both, a only, b only, neither) flags, binomial true positives among each
    model's disagreement flags, and the two-sided mid-p conditional exact test
    on those flags, rejecting at alpha. Its own RNG stream.
    """
    from scipy.stats import hypergeom

    a, replicates = workloads.SIZE_STUDY, POWER_REFERENCE_REPLICATES
    both = a["overlap_rate"] * max(a["flag_rate_a"], a["flag_rate_b"])
    a_only, b_only = a["flag_rate_a"] - both, a["flag_rate_b"] - both
    rng = np.random.default_rng([0x5A5E, replicates])
    cells = rng.multinomial(a["sample_size"], [both, a_only, b_only, 1.0 - both - a_only - b_only],
                            size=replicates)
    na, nb = cells[:, 1], cells[:, 2]
    xa, xb = rng.binomial(na, a["precision_a"]), rng.binomial(nb, a["precision_b"])
    t = xa + xb
    with np.errstate(invalid="ignore"):
        pmf = hypergeom.pmf(xa, na + nb, t, na)
        lower = hypergeom.cdf(xa, na + nb, t, na) - 0.5 * pmf
        upper = hypergeom.sf(xa, na + nb, t, na) + 0.5 * pmf
    pvalue = np.where((t == 0) | (na == 0) | (nb == 0), 1.0, np.minimum(1.0, 2.0 * np.minimum(lower, upper)))
    power = float(np.mean(pvalue <= a["alpha"]))
    return power, math.sqrt(power * (1.0 - power) / replicates)


def check_size_study(doc: dict, seed: int) -> list[str]:
    """The printed power is a Monte Carlo estimate, so it is held to the
    reference within POWER_SIGMAS combined standard errors; its bookkeeping
    (replicate count, seed, stderr formula, a whole number of rejections) is
    held exactly."""
    power, stderr, reps = doc.get("power"), doc.get("mc_stderr"), doc.get("n_replicates")
    if not all(isinstance(v, (int, float)) for v in (power, stderr, reps)):
        return ["size-study printed no power, mc_stderr or n_replicates"]
    expected_reps = workloads.SIZE_STUDY["replicates"]
    if reps != expected_reps or doc.get("seed") != seed:
        return [f"n_replicates {reps!r} / seed {doc.get('seed')!r}, expected {expected_reps} / {seed}"]
    problems = []
    if abs(power * reps - round(power * reps)) > 1e-9 * reps:
        problems.append(f"power {power!r} is not a whole number of rejections out of {reps}")
    if not _close(stderr, math.sqrt(max(power * (1.0 - power), 1e-12) / reps), METRIC_TOL):
        problems.append(f"mc_stderr {stderr!r} does not match power {power!r} over {reps} replicates")
    ref, ref_se = reference_power()
    allowed = POWER_SIGMAS * math.sqrt(ref * (1.0 - ref) / reps + ref_se**2)
    if abs(power - ref) > allowed:
        problems.append(f"power {power!r}, reference {ref:.4f} +- {allowed:.4f}")
    return problems


def read_step(step: workloads.Step, work: Path, stdout: str) -> dict:
    out = work / step.out
    if step.name == "evaluate":
        return read_evaluate(out)
    if step.name == "subsets":
        return {"doc": json.loads((out / "subsets_site.json").read_text(encoding="utf-8"))}
    if step.name.startswith("resample"):
        return {"doc": json.loads((out / "resample.json").read_text(encoding="utf-8"))}
    if step.name == "scle_sample":
        sheet = (out / "review_sheet.csv").read_text(encoding="utf-8").splitlines()
        data = [line for line in sheet if line and not line.startswith("#")]
        return {
            "doc": json.loads((out / "scle_sample.json").read_text(encoding="utf-8")),
            "sheet_rows": max(len(data) - 1, 0),
        }
    if step.name == "size_study":
        return {"doc": json.loads(stdout.strip().splitlines()[-1])}
    raise ValueError(step.name)


def check_step(step: workloads.Step, art: dict) -> list[str]:
    pop = step.population
    if step.name == "evaluate":
        return check_evaluate(art, pop, weighted=bool((pop.weight != 1.0).any()))
    if step.name == "subsets":
        return check_subsets(art["doc"], pop)
    if step.name == "resample_kfold":
        return check_resample(art["doc"], "k_fold", workloads.KFOLD_FOLDS)
    if step.name == "resample_bootstrap":
        return check_resample(art["doc"], "bootstrap", workloads.BOOTSTRAP_RESAMPLES)
    if step.name == "scle_sample":
        return check_scle(art["doc"], art["sheet_rows"], pop)
    if step.name == "size_study":
        return check_size_study(art["doc"], int(step.argv[step.argv.index("--seed") + 1]))
    raise ValueError(step.name)


# --- self-test ------------------------------------------------------------------


def _corruptions(step: workloads.Step, art: dict):
    """Yield (label, corrupted copy) pairs that a sound checker must reject."""
    if step.name == "evaluate":
        bad = dict(art, metrics=copy.deepcopy(art["metrics"]))
        for m in bad["metrics"]:
            if m.get("metric") == "precision" and m.get("value") is not None:
                m["value"] += 1e-6
        yield "metrics.json precision nudged by 1e-6", bad
        for name, cols in art["curves"].items():
            changed = dict(cols, recall=cols["recall"].copy())
            changed["recall"][changed["recall"].size // 2] += 1e-6
            yield f"{name} recall changed in one row", dict(art, curves={**art["curves"], name: changed})
            dropped = {k: v[:-1] for k, v in cols.items()}
            yield f"{name} last point dropped", dict(art, curves={**art["curves"], name: dropped})
        return
    bad = copy.deepcopy(art)
    doc = bad["doc"]
    if step.name == "subsets":
        next(iter(doc["categories"].values()))["n"] += 1
        yield "subsets category size off by one", bad
    elif step.name.startswith("resample"):
        doc["mean"] += 1e-6
        yield "resample mean nudged by 1e-6", bad
    elif step.name == "scle_sample":
        doc["cell_population_sizes"]["FP"] += 1
        yield "scle FP population off by one", bad
    elif step.name == "size_study":
        doc["power"] = round(doc["power"] - 0.1, 3)
        doc["mc_stderr"] = math.sqrt(doc["power"] * (1.0 - doc["power"]) / doc["n_replicates"])
        yield "size-study power 0.1 lower, stderr consistent", bad
        bad = copy.deepcopy(art)
        bad["doc"]["mc_stderr"] += 1e-6
        yield "size-study mc_stderr nudged by 1e-6", bad


def self_test(step: workloads.Step, art: dict) -> dict:
    """Corrupt a genuine output in memory; every corruption must be rejected.

    Returns the number of corruptions tried and the ones the checker passed.
    """
    if check_step(step, art):
        return {"tried": 0, "missed": []}  # the genuine output already failed
    tried, missed = 0, []
    for label, bad in _corruptions(step, art):
        tried += 1
        if not check_step(step, bad):
            missed.append(f"checker passed a corrupted output: {label}")
    return {"tried": tried, "missed": missed}
