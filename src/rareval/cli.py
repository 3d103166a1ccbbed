"""Command-line surface tying the modules into reproducible runs.

Every subcommand honors ``--seed`` (one run seed fans out to per-module
substreams via labeled derivation) and emits machine-parseable error JSON on
stderr with exit code 2 for input errors, 3 for infeasible requests, and 4
for internal failures. ``--reproducible`` omits timestamps so identical
inputs produce byte-identical output trees. The output directory defaults to
the ``RAREVAL_OUT_DIR`` environment variable, then the current directory.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

import numpy as np

# Each command imports the modules it runs, so a run loads only those. They are
# imported as modules, not names: calls go through module attributes, which a
# test or a tracer may replace.
from .errors import PARSE_ERRORS, EvaluationError, InfeasibleError, InputError
from .provenance import canonical_json, config_hash, derive_seed, strict_json


# The full threshold sweep; reports name it with its sha256 and embed a bounded part.
CURVE_FILE = "pr_curve.csv"


class _JsonErrorParser(argparse.ArgumentParser):
    """argparse that reports usage errors as JSON on stderr (exit 2)."""

    def error(self, message):
        _fail(2, "usage", f"{self.prog}: {message}")


def _fail(exit_code: int, error_type: str, message: str):
    payload = {"error": {"exit_code": exit_code, "type": error_type, "message": message}}
    print(json.dumps(payload), file=sys.stderr)
    raise SystemExit(exit_code)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _default_out_dir() -> str:
    return os.environ.get("RAREVAL_OUT_DIR", ".")


@contextlib.contextmanager
def _user_file(path, errors=PARSE_ERRORS):
    """Report a user-named file that cannot be read, parsed or written as bad input (exit 2).

    Only the statements that touch the file go inside.
    """
    try:
        yield
    except errors as exc:
        raise InputError(f"{path}: {type(exc).__name__}: {exc}") from None


def _write(path: Path, content: str | Iterable[bytes]) -> str:
    """Write text, or UTF-8 chunks as they come, untranslated; returns the sha256 of the bytes written."""
    digest = hashlib.sha256()
    with _user_file(path, OSError):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            for chunk in [content.encode("utf-8")] if isinstance(content, str) else content:
                digest.update(chunk)
                fh.write(chunk)
    return digest.hexdigest()


def _write_json(path: Path, obj) -> str:
    return _write(path, canonical_json(obj))


def _print_json(obj) -> None:
    """One strict-JSON line on stdout (the last line is the machine-read result)."""
    print(json.dumps(obj, sort_keys=True, allow_nan=False))


def _finite_float(text: str) -> float:
    """argparse type of real-valued flags: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _read_json(path: str, parse):
    """A user-named JSON file, passed through ``parse`` (e.g. a ``from_json_dict``)."""
    with _user_file(path):
        return parse(strict_json(Path(path).read_text(encoding="utf-8")))


def _load_config_file(path: str) -> dict:
    """JSON config, or simple ``key = value`` lines with JSON-typed values."""
    with _user_file(path):
        text = Path(path).read_text(encoding="utf-8")
        if text.lstrip().startswith("{"):
            return strict_json(text)
    config: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        value = value.strip()
        try:
            config[key.strip()] = json.loads(value)
        except (ValueError, RecursionError):  # also an over-long integer or too deep a nesting
            config[key.strip()] = value.strip("\"'")
    return config


def _parse_attestations(pairs: list[str] | None) -> dict:
    from . import report
    attestations = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise InputError(f"--attest expects consideration=text, got {pair!r}")
        key, _, value = pair.partition("=")
        if key not in report.CONSIDERATIONS:
            raise InputError(f"unknown checklist consideration {key!r}")
        attestations[key] = value
    return attestations


def _metrics_table(entries: list[dict]) -> str:
    header = f"{'metric':<16} {'value':>12} {'ci_low':>12} {'ci_high':>12} {'n_eff':>12}"
    lines = [header, "-" * len(header)]
    for m in entries:
        def cell(v):
            return "undefined" if v is None else (f"{v:.6g}" if isinstance(v, float) else str(v))

        lines.append(
            f"{m['metric']:<16} {cell(m['value']):>12} {cell(m['ci_low']):>12} "
            f"{cell(m['ci_high']):>12} {cell(m['n_effective']):>12}"
        )
    return "\n".join(lines)


# --- evaluate ----------------------------------------------------------------


def _cmd_evaluate(args) -> int:
    from . import curves, datamodel, metrics, report
    if args.assumed_prevalence is not None and not 0.0 < args.assumed_prevalence < 1.0:
        raise InputError(f"--assumed-prevalence must be in (0, 1), got {args.assumed_prevalence}")
    ds = datamodel.ingest(args.input, args.format)
    seed = args.seed
    costs_given = args.cost_fp is not None or args.cost_fn is not None
    given = {"threshold": args.threshold is not None, "k": args.k is not None, "costs": costs_given}
    drivers = [name for name, is_given in given.items() if is_given]
    cols = ds.columns
    scored = not np.isnan(cols.score[cols.evaluable]).any()
    if scored and len(drivers) > 1:
        raise InputError(f"exactly one of threshold/k/cost selection may be given, got {drivers}")

    run_config = {key: getattr(args, key) for key in ("format", "threshold", "k", "cost_fp", "cost_fn",
                                                      "assumed_prevalence", "seed")}
    run_config.update(input=str(args.input), reproducible=bool(args.reproducible))

    outputs = report.EvaluationOutputs(seed=seed, config_hash=config_hash(run_config))
    outputs.attestations = _parse_attestations(args.attest)
    outputs.enrichment_justification = args.enrichment_justification
    outputs.assumed_deployment_prevalence = args.assumed_prevalence

    pak_entry = None
    sweep = None
    operating_point = None
    decision_threshold = None  # None when the predictions came with the data
    if scored:
        if args.threshold is not None:
            decision_threshold = args.threshold
            ds = datamodel.apply_threshold(ds, args.threshold)
            outputs.threshold = args.threshold
        elif args.k is not None:
            pak = metrics.precision_at_k(ds, args.k)
            decision_threshold = pak.threshold
            ds = datamodel.apply_threshold(ds, pak.threshold)
            outputs.threshold = pak.threshold
            pak_entry = pak.estimate.to_json_dict(f"precision_at_{args.k}")
            pak_entry["operation"] = "metrics.precision_at_k"
            pak_entry["seed"] = None
        elif costs_given:
            if args.cost_fp is None or args.cost_fn is None:
                raise InputError("cost-based selection needs both --cost-fp and --cost-fn")
            if args.assumed_prevalence is None:
                raise InputError("cost-based selection needs --assumed-prevalence")
            costs = curves.CostSpec(cost_fp=args.cost_fp, cost_fn=args.cost_fn)
            sweep = curves.pr_curve(ds)
            point = curves.select_operating_point(sweep, costs, args.assumed_prevalence)
            decision_threshold = point.threshold
            operating_point = point.to_json_dict()
            outputs.costs = {"cost_fp": args.cost_fp, "cost_fn": args.cost_fn}
            outputs.threshold = operating_point["threshold"]  # null when nothing is predicted positive
            ds = datamodel.apply_threshold(ds, point.threshold)
        elif (cols.predicted[cols.evaluable] < 0).any():
            raise InputError("scored dataset without predictions: give --threshold, --k, or costs")

    outputs.dataset_summary = report.summarize_dataset(ds)
    outputs.test_set_prevalence = outputs.dataset_summary["prevalence"]
    outputs.enrichment_accounted = ds.weighted
    outputs.benchmark_present = bool((ds.columns.benchmark_predicted >= 0).any())
    outputs.operating_point = operating_point

    metric_entries = []
    for name in metrics.PROPORTION_METRICS:
        est = metrics.estimate_metric(ds, name, seed=derive_seed(seed, f"metrics:{name}"))
        entry = est.to_json_dict(name)
        entry["operation"] = f"metrics.{name}"
        entry["seed"] = derive_seed(seed, f"metrics:{name}") if ds.weighted else None
        metric_entries.append(entry)
    if pak_entry is not None:
        metric_entries.append(pak_entry)
    outputs.metrics = metric_entries

    by_name = {m["metric"]: m for m in metric_entries}
    p_value = by_name["precision"]["value"]
    r_value = by_name["recall"]["value"]
    if p_value is not None and r_value is not None:
        outputs.f1_value = metrics.f_beta(p_value, r_value, 1.0)

    out_dir = Path(args.out_dir)
    if scored:
        sweep = sweep if sweep is not None else curves.pr_curve(ds)
        outputs.curve_n_points = len(sweep)
        sha256 = _write(out_dir / CURVE_FILE, curves.curve_csv_chunks(sweep))
        outputs.curve_file = {"path": CURVE_FILE, "sha256": sha256}
        outputs.curve_points = [p.to_json_dict() for p in curves.report_points(sweep, decision_threshold)]
        outputs.auc_value = curves.auc(sweep)
        warning_list = curves.rare_event_warnings(
            sweep,
            args.assumed_prevalence,
            auc_requested=True,
            f1_requested=outputs.f1_value is not None,
            costs_provided=outputs.costs is not None,
        )
        outputs.warnings = [w.to_json_dict() for w in warning_list]

    checklist = report.prefill_checklist(outputs)
    json_text, md_text = report.render_report(
        outputs,
        checklist,
        reproducible=args.reproducible,
        generated_at=None if args.reproducible else _now(),
    )

    _write(out_dir / "report.json", json_text)
    _write(out_dir / "report.md", md_text)
    _write_json(out_dir / "metrics.json", metric_entries)
    _write_json(out_dir / "outputs.json", outputs.to_json_dict())
    if scored:
        _write_json(out_dir / "warnings.json", outputs.warnings)

    print(_metrics_table(metric_entries))
    for w in outputs.warnings:
        print(f"warning[{w['code']}]: {w['message']}")
    print(f"report written to {out_dir / 'report.json'}")
    return 0


# --- small subcommands ---------------------------------------------------------


def _cmd_adjust_precision(args) -> int:
    from . import metrics
    value = metrics.bayes_adjusted_precision(args.sensitivity, args.specificity, args.prevalence)
    _print_json(
        {
            "adjusted_precision": value,
            "sensitivity": args.sensitivity,
            "specificity": args.specificity,
            "prevalence": args.prevalence,
        }
    )
    return 0


def _cmd_pair_prevalence(args) -> int:
    from . import design
    spec = design.PairPrevalenceSpec(n_records=args.n, duplicate_fraction=args.duplicate_fraction)
    _print_json(
        {
            "pair_prevalence": design.pair_prevalence(spec),
            "n_records": args.n,
            "duplicate_fraction": args.duplicate_fraction,
        }
    )
    return 0


def _cmd_size_study(args) -> int:
    from . import design
    values = {
        "sample_size": args.sample_size,
        "flag_rate_a": args.flag_rate_a,
        "flag_rate_b": args.flag_rate_b,
        "overlap_rate": args.overlap_rate,
        "precision_a": args.precision_a,
        "precision_b": args.precision_b,
        "alpha": args.alpha,
        "n_replicates": args.replicates,
        "seed": args.seed,
    }
    if args.config:
        values.update(_load_config_file(args.config))
    missing = [k for k, v in values.items() if v is None and k != "sample_size"]
    if missing:
        raise InputError(f"missing study assumptions: {missing}")
    if args.target_power is None and values.get("sample_size") is None:
        raise InputError("give --sample-size to simulate power, or --target-power to solve")
    with _user_file(args.config or "size-study"):  # config values are still untyped here
        # the sample-size search ignores sample_size
        assumptions = design.PrecisionStudyAssumptions.from_dict(
            values if args.target_power is None else {**values, "sample_size": 1}
        )
    if args.target_power is not None:
        size = design.solve_sample_size(assumptions, args.target_power)
        result = design.simulate_precision_power(dataclasses.replace(assumptions, sample_size=size))
        _print_json({"required_sample_size": size, **result.to_json_dict()})
    else:
        _print_json(design.simulate_precision_power(assumptions).to_json_dict())
    return 0


def _load_dataset(args):
    """The ``--input`` dataset, with ``--threshold`` applied for the commands that take one."""
    from . import datamodel
    dataset = datamodel.ingest(args.input, args.format)
    if getattr(args, "threshold", None) is not None:
        dataset = datamodel.apply_threshold(dataset, args.threshold)
    return dataset


# --- scle subcommands ----------------------------------------------------------


def _cmd_scle_sample(args) -> int:
    from . import scle
    ds = _load_dataset(args)
    config = scle.ScleConfig(
        n_fp=args.n_fp,
        n_fn=args.n_fn,
        n_tp=args.n_tp,
        n_tn=args.n_tn,
        substratify_by=tuple((args.substratify_by or "").split(",")) if args.substratify_by else (),
        boundary_bins=args.boundary_bins,
        benchmark_mode=args.benchmark_mode,
        disagreement_oversample_factor=args.oversample_factor,
        seed=args.seed,
    )
    sample = scle.draw_sample(ds, config)
    out_dir = Path(args.out_dir)
    _write_json(out_dir / "scle_sample.json", sample.to_json_dict())
    context = tuple(args.context_fields.split(",")) if args.context_fields else ()
    with _user_file(out_dir / "review_sheet.csv", OSError):
        sheet_path = scle.emit_review_sheet(
            sample,
            ds,
            context_fields=context,
            path=out_dir / "review_sheet.csv",
            generated_at="reproducible" if args.reproducible else _now(),
        )
    _print_json(
        {
            "sample": str(out_dir / "scle_sample.json"),
            "sheet": str(sheet_path),
            "cell_sample_sizes": dict(sample.cell_sample_sizes),
            "shortfalls": {k: list(v) for k, v in sample.shortfalls.items()},
            "seed": args.seed,
            "config_hash": sample.config_hash,
        }
    )
    return 0


def _cmd_scle_ingest(args) -> int:
    from . import scle
    sample = _read_json(args.sample, scle.ScleSample.from_json_dict)
    with _user_file(args.sheet):
        annotations = scle.ingest_annotations(args.sheet, sample)
    payload = scle.annotations_to_json_dict(annotations)
    _write_json(Path(args.out), payload)
    _print_json({"annotations": len(annotations), "out": str(args.out)})
    return 0


def _cmd_scle_aggregate(args) -> int:
    from . import scle
    sample = _read_json(args.sample, scle.ScleSample.from_json_dict)
    annotations = _read_json(args.annotations, scle.annotations_from_json_dict)
    summary = scle.aggregate(annotations, sample, seed=args.seed)
    out_dir = Path(args.out_dir)
    _write_json(out_dir / "scle_summary.json", summary.to_json_dict())
    _write(out_dir / "scle_summary.md", summary.to_markdown())
    _print_json(summary.to_json_dict())
    return 0


def _cmd_scle_apply(args) -> int:
    from . import datamodel, scle
    ds = _load_dataset(args)
    annotations = _read_json(args.annotations, scle.annotations_from_json_dict)
    revised = scle.apply_verdicts(ds, annotations)
    with _user_file(args.out, OSError):
        written = datamodel.emit(revised, args.out, args.out_format)
    _print_json({"written": [str(p) for p in written], "verdicts": revised.metadata["verdicts_applied"]})
    return 0


# --- robustness subcommands ------------------------------------------------------


def _cmd_subsets(args) -> int:
    from . import robustness
    ds = _load_dataset(args)
    names = tuple(args.metrics.split(",")) if args.metrics else ("recall", "precision", "specificity")
    result = robustness.subset_metrics(ds, args.attribute, metrics=names, seed=args.seed)
    if args.out_dir:
        out_dir = Path(args.out_dir)
        _write_json(out_dir / f"subsets_{args.attribute}.json", result.to_json_dict())
        _write(out_dir / f"subsets_{args.attribute}.md", result.to_markdown())
    _print_json(result.to_json_dict())
    return 0


def _cmd_stability(args) -> int:
    from . import robustness
    ds = _load_dataset(args)
    result = robustness.stability(ds)
    if args.out:
        _write_json(Path(args.out), result.to_json_dict())
    _print_json(result.to_json_dict())
    return 0


def _cmd_resample(args) -> int:
    from . import robustness
    ds = _load_dataset(args)
    result = robustness.resampling_variability(
        ds, args.metric, scheme=args.scheme, n=args.n, seed=args.seed
    )
    if args.out:
        _write_json(Path(args.out), result.to_json_dict())
    _print_json(result.to_json_dict())
    return 0


# --- synth / checklist -----------------------------------------------------------


def _cmd_synth(args) -> int:
    from . import datamodel, synth
    if args.spec:
        spec_dict = _load_config_file(args.spec)
        with _user_file(args.spec):
            spec_dict.setdefault("seed", args.seed)
            spec = synth.PopulationSpec.from_dict(spec_dict)
    else:
        if args.n is None or args.prevalence is None:
            raise InputError("give --spec FILE or both --n and --prevalence")
        rules = []
        for rule in args.enrich or []:
            select, _, prob = rule.partition(":")
            try:
                probability = float(prob)
            except ValueError:
                raise InputError(f"--enrich expects select:probability, got {rule!r}") from None
            rules.append(synth.EnrichmentRule(select=select, inclusion_probability=probability))
        spec = synth.PopulationSpec(
            n=args.n,
            prevalence=args.prevalence,
            separation=args.separation,
            spread=args.spread,
            enrichment=tuple(rules),
            label_noise=args.label_noise,
            n_runs=args.n_runs,
            flip_probability=args.flip_probability,
            exact_positive_count=args.exact_positive_count,
            seed=args.seed,
        )
    result = synth.generate(spec)
    truth_path = args.truth_out or f"{args.out}.truth.json"
    with _user_file(args.out, OSError):
        written = [str(p) for p in datamodel.emit(result.dataset, args.out, args.format)]
    with _user_file(truth_path, OSError):
        result.truth.write(truth_path)
    _print_json(
        {
            "written": written,
            "truth_sidecar": str(truth_path),
            "n_population": result.population_size,
            "n_sampled": len(result.dataset),
            "positive_count": result.truth.positive_count,
            "seed": spec.seed,
        }
    )
    return 0


def _cmd_checklist(args) -> int:
    from . import report
    if args.outputs:
        outputs = _read_json(args.outputs, report.EvaluationOutputs.from_json_dict)
    else:
        outputs = report.EvaluationOutputs()
    outputs.attestations = {**outputs.attestations, **_parse_attestations(args.attest)}
    checklist = report.prefill_checklist(outputs)
    payload = [item.to_json_dict() for item in checklist]
    out_dir = Path(args.out_dir)
    _write_json(out_dir / "checklist.json", payload)
    _write(out_dir / "checklist.md", "# Evaluation checklist\n\n" + report.checklist_markdown(payload))
    _print_json({"rows": len(payload), "out": str(out_dir / "checklist.json")})
    return 0


# --- parser -----------------------------------------------------------------------


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="dataset file (CSV or JSONL)")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv", help="dataset file format")


def build_parser() -> argparse.ArgumentParser:
    parser = _JsonErrorParser(
        prog="rareval",
        description="Prevalence-aware statistical evaluation of rare-event classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_JsonErrorParser)

    p = sub.add_parser("evaluate", help="full evaluation run: metrics, curves, warnings, report")
    _add_dataset_args(p)
    p.add_argument("--threshold", type=_finite_float, help="decision threshold (predicted = score >= threshold)")
    p.add_argument("--k", type=int, help="review budget: predict positive for the top-k scores")
    p.add_argument("--cost-fp", type=_finite_float, help="relative cost of a false positive")
    p.add_argument("--cost-fn", type=_finite_float, help="relative cost of a false negative")
    p.add_argument("--assumed-prevalence", type=_finite_float, help="assumed deployment prevalence")
    p.add_argument("--seed", type=int, default=0, help="run seed; fans out to module substreams")
    p.add_argument("--out-dir", default=_default_out_dir(), help="output directory")
    p.add_argument("--reproducible", action="store_true", help="omit timestamps for byte-identical output")
    p.add_argument("--attest", action="append", metavar="CONSIDERATION=TEXT", help="human attestation for a checklist row")
    p.add_argument("--enrichment-justification", help="why unweighted estimates are acceptable")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("adjust-precision", help="project precision to an assumed prevalence")
    p.add_argument("--sensitivity", type=_finite_float, required=True)
    p.add_argument("--specificity", type=_finite_float, required=True)
    p.add_argument("--prevalence", type=_finite_float, required=True)
    p.set_defaults(func=_cmd_adjust_precision)

    p = sub.add_parser("size-study", help="power simulation / sample-size solving")
    p.add_argument("--sample-size", type=int)
    p.add_argument("--flag-rate-a", type=_finite_float)
    p.add_argument("--flag-rate-b", type=_finite_float)
    p.add_argument("--overlap-rate", type=_finite_float)
    p.add_argument("--precision-a", type=_finite_float)
    p.add_argument("--precision-b", type=_finite_float)
    p.add_argument("--alpha", type=_finite_float, default=0.05)
    p.add_argument("--replicates", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target-power", type=_finite_float, help="solve for the smallest adequate sample size")
    p.add_argument("--config", help="JSON or key=value assumptions file; overrides flags")
    p.set_defaults(func=_cmd_size_study)

    p = sub.add_parser("pair-prevalence", help="duplicate prevalence among ordered record pairs")
    p.add_argument("--n", type=int, required=True, help="number of records")
    p.add_argument("--duplicate-fraction", type=_finite_float, required=True)
    p.set_defaults(func=_cmd_pair_prevalence)

    p_scle = sub.add_parser("scle", help="structured case-level examination")
    scle_sub = p_scle.add_subparsers(dest="scle_command", required=True, parser_class=_JsonErrorParser)

    p = scle_sub.add_parser("sample", help="draw a review sample and emit the annotation sheet")
    _add_dataset_args(p)
    p.add_argument("--threshold", type=_finite_float, help="apply this threshold before sampling")
    p.add_argument("--n-fp", type=int, default=0)
    p.add_argument("--n-fn", type=int, default=0)
    p.add_argument("--n-tp", type=int, default=0)
    p.add_argument("--n-tn", type=int, default=0)
    p.add_argument("--substratify-by", help="comma-separated subgroup attributes")
    p.add_argument("--boundary-bins", type=int)
    p.add_argument("--benchmark-mode", action="store_true")
    p.add_argument("--oversample-factor", type=_finite_float, default=1.0)
    p.add_argument("--context-fields", help="comma-separated sheet context columns")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=_default_out_dir())
    p.add_argument("--reproducible", action="store_true")
    p.set_defaults(func=_cmd_scle_sample)

    p = scle_sub.add_parser("ingest", help="parse an annotated review sheet")
    p.add_argument("--sheet", required=True)
    p.add_argument("--sample", required=True, help="scle_sample.json from the draw")
    p.add_argument("--out", required=True, help="annotations JSON to write")
    p.set_defaults(func=_cmd_scle_ingest)

    p = scle_sub.add_parser("aggregate", help="aggregate annotations into a summary")
    p.add_argument("--annotations", required=True)
    p.add_argument("--sample", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=_default_out_dir())
    p.set_defaults(func=_cmd_scle_aggregate)

    p = scle_sub.add_parser("apply", help="apply reviewer verdicts as a new dataset version")
    _add_dataset_args(p)
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--out-format", choices=("csv", "jsonl"), default="csv")
    p.set_defaults(func=_cmd_scle_apply)

    p = sub.add_parser("subsets", help="per-subgroup metric breakdown with heterogeneity screen")
    _add_dataset_args(p)
    p.add_argument("--attribute", required=True)
    p.add_argument("--metrics", help="comma-separated metric names")
    p.add_argument("--threshold", type=_finite_float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_subsets)

    p = sub.add_parser("stability", help="repeated-run label agreement")
    _add_dataset_args(p)
    p.add_argument("--out", help="also write the report JSON here")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("resample", help="metric variability over evaluation-set resamples")
    _add_dataset_args(p)
    p.add_argument("--metric", required=True)
    p.add_argument("--scheme", choices=("bootstrap", "k_fold"), default="bootstrap")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--threshold", type=_finite_float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="also write the summary JSON here")
    p.set_defaults(func=_cmd_resample)

    p = sub.add_parser("synth", help="generate a synthetic population with a truth sidecar")
    p.add_argument("--out", required=True, help="dataset file to write")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--spec", help="population spec file (JSON or key=value)")
    p.add_argument("--n", type=int)
    p.add_argument("--prevalence", type=_finite_float)
    p.add_argument("--separation", type=_finite_float, default=2.0)
    p.add_argument("--spread", type=_finite_float, default=1.0)
    p.add_argument("--label-noise", type=_finite_float, default=0.0)
    p.add_argument("--n-runs", type=int)
    p.add_argument("--flip-probability", type=_finite_float, default=0.0)
    p.add_argument("--exact-positive-count", action="store_true")
    p.add_argument("--enrich", action="append", metavar="SELECT:PROB", help="e.g. negative:0.01")
    p.add_argument("--truth-out", help="truth sidecar path (default <out>.truth.json)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("checklist", help="prefill and render the evaluation checklist")
    p.add_argument("--outputs", help="outputs.json from a previous evaluate run")
    p.add_argument("--attest", action="append", metavar="CONSIDERATION=TEXT")
    p.add_argument("--out-dir", default=_default_out_dir())
    p.set_defaults(func=_cmd_checklist)

    return parser


def iter_flags() -> dict[str, list[str]]:
    """Every option string per subcommand; used by the golden help test."""
    parser = build_parser()
    result: dict[str, list[str]] = {"rareval": sorted(o for a in parser._actions for o in a.option_strings)}

    def walk(p: argparse.ArgumentParser, prefix: str) -> None:
        for action in p._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, subparser in action.choices.items():
                    key = f"{prefix} {name}"
                    result[key] = sorted(
                        o for a in subparser._actions for o in a.option_strings
                    )
                    walk(subparser, key)

    walk(parser, "rareval")
    return result


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns its exit code.

    Called without ``argv`` (``python -m rareval.cli``, the ``rareval``
    script), ``main`` owns the process and freezes the start-up heap, so the
    collections a command triggers skip the objects imports made (numpy's
    included). In-process callers pass ``argv`` and keep their heap.
    """
    if argv is None:
        gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        _fail(3, "infeasible", str(exc))
    except InputError as exc:
        _fail(2, "input", str(exc))
    except EvaluationError as exc:
        _fail(4, "internal", str(exc))
    except Exception as exc:  # anything not converted at a parse site is a defect
        _fail(4, "internal", f"{type(exc).__name__}: {exc}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
