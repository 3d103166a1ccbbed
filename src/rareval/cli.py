"""Command-line surface tying the modules into reproducible runs.

Every subcommand emits machine-parseable error JSON on stderr with exit code
2 for input errors, 3 for infeasible requests, and 4 for internal failures.
A seeded command fans ``--seed`` out to per-module substreams by labeled
derivation; ``--reproducible`` (``evaluate``, ``scle sample``) omits their
timestamps so identical inputs produce byte-identical output trees. The
output directory defaults to ``RAREVAL_OUT_DIR``, then the current directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

# Each command imports the modules it runs, so a run loads only those. They are
# imported as modules, not names: calls go through module attributes, which a
# test or a tracer may replace.
from .errors import EvaluationError, InfeasibleError, InputError
from .provenance import (canonical_json, config_hash, derive_seed, read_file, run_files, strict_json, unicode_text,
                         write_file, write_record)


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


def _read_user_file(path: str, parse, data=None):
    """``parse`` of the JSON in user file ``path``, or of ``data`` read from it; its input errors name the file."""
    if data is None:
        with read_file(path) as fh:
            data = strict_json(fh.read())
    try:
        return parse(data)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _record(cls, args, values: dict, source: str | None = None):
    """``cls.from_dict`` of the flags named as the record's fields (a None flag is not given), overridden by ``values``.

    With ``source``, its input errors name that source, as :func:`_read_user_file` names a file.
    """
    names = [f.name for f in dataclasses.fields(cls)]
    data = {**{key: getattr(args, key) for key in names if getattr(args, key, None) is not None}, **values}
    return _read_user_file(source, cls.from_dict, data) if source else cls.from_dict(data)


def _load_config_file(path: str) -> dict:
    """JSON config, or simple ``key = value`` lines with JSON-typed values; a ``#`` outside a value starts a comment."""
    with read_file(path) as fh:
        text = fh.read()
        if text.lstrip().startswith("{"):
            return strict_json(text)
    config, decoder = {}, json.JSONDecoder()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        key, equals, value = raw_line.partition("=")
        if "#" in key or not equals:  # a comment or a blank line, else no setting
            if raw_line.split("#", 1)[0].strip():
                raise InputError(f"{path}:{lineno}: expected 'key = value'")
            continue
        key, value = key.strip(), value.strip()
        try:  # a JSON value, then at most a comment: a "#" inside the value is part of it
            config[key], end = decoder.raw_decode(value)
            if value[end:].strip()[:1] in ("", "#"):
                continue
        except (ValueError, RecursionError):  # also an over-long integer or too deep a nesting
            pass
        config[key] = value.split("#", 1)[0].strip().strip("\"'")  # anything else is text
    return config


def _parse_attestations(pairs: list[str] | None) -> dict:
    """The ``--attest`` pairs as attestations, checked at once so that a run with a bad one does no work."""
    from . import report
    attestations = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise InputError(f"--attest expects consideration=text, got {pair!r}")
        key, _, value = pair.partition("=")
        attestations[key] = value
    report.check_attestations(attestations)
    return attestations


def _metrics_table(entries: list[dict]) -> str:
    def cell(v):
        return "undefined" if v is None else (f"{v:.6g}" if isinstance(v, float) else str(v))

    header = f"{'metric':<16} {'value':>12} {'ci_low':>12} {'ci_high':>12} {'n_eff':>12}"
    columns = ("value", "ci_low", "ci_high", "n_effective")
    rows = [f"{m['metric']:<16} " + " ".join(f"{cell(m[key]):>12}" for key in columns) for m in entries]
    return "\n".join([header, "-" * len(header), *rows])


# --- evaluate ----------------------------------------------------------------


def _cmd_evaluate(args) -> int:
    import numpy as np
    from . import curves, datamodel, metrics, report
    # every check that needs only the flags runs before the input is read
    if args.assumed_prevalence is not None and not 0.0 < args.assumed_prevalence < 1.0:
        raise InputError(f"--assumed-prevalence must be in (0, 1), got {args.assumed_prevalence}")
    costs_given = args.cost_fp is not None or args.cost_fn is not None
    given = {"threshold": args.threshold is not None, "k": args.k is not None, "costs": costs_given}
    drivers = [name for name, is_given in given.items() if is_given]
    if len(drivers) > 1:
        raise InputError(f"exactly one of threshold/k/cost selection may be given, got {drivers}")
    if costs_given:
        if args.cost_fp is None or args.cost_fn is None:
            raise InputError("cost-based selection needs both --cost-fp and --cost-fn")
        if args.assumed_prevalence is None:
            raise InputError("cost-based selection needs --assumed-prevalence")
        costs = curves.CostSpec(cost_fp=args.cost_fp, cost_fn=args.cost_fn)
    seeds = {name: derive_seed(args.seed, f"metrics:{name}") for name in metrics.PROPORTION_METRICS}

    run_config = {key: getattr(args, key) for key in ("format", "threshold", "k", "cost_fp", "cost_fn",
                                                      "assumed_prevalence", "seed")}
    run_config.update(input=str(args.input), reproducible=bool(args.reproducible))

    outputs = report.EvaluationOutputs(seed=args.seed, config_hash=config_hash(run_config))
    outputs.attestations = _parse_attestations(args.attest)
    outputs.enrichment_justification = args.enrichment_justification and unicode_text(
        args.enrichment_justification, "--enrichment-justification")
    outputs.assumed_deployment_prevalence = args.assumed_prevalence

    ds = datamodel.ingest(args.input, args.format)
    cols = ds.columns
    sweep = pak = None
    threshold = args.threshold  # stays None when the predictions came with the data
    if args.k is not None:
        pak = metrics.precision_at_k(ds, args.k)
        threshold = pak.threshold
    elif costs_given:
        sweep = curves.pr_curve(ds)
        point = curves.select_operating_point(sweep, costs, args.assumed_prevalence)
        threshold = point.threshold
        outputs.operating_point = point.to_json_dict()
        outputs.costs = {"cost_fp": args.cost_fp, "cost_fn": args.cost_fn}
    elif threshold is None and (cols.predicted[cols.evaluable] < 0).any():
        raise InputError("scored dataset without predictions: give --threshold, --k, or costs")
    if threshold is not None:
        ds = datamodel.apply_threshold(ds, threshold)
        outputs.threshold = None if threshold == math.inf else threshold  # inf: nothing is predicted positive

    outputs.dataset_summary = report.summarize_dataset(ds)
    outputs.test_set_prevalence = outputs.dataset_summary["prevalence"]
    outputs.enrichment_accounted = ds.weighted
    outputs.benchmark_present = bool((ds.columns.benchmark_predicted >= 0).any())

    outputs.metrics = [metrics.estimate_metric(ds, name, seed=seeds[name]).to_json_dict(name)
                       | {"operation": f"metrics.{name}", "seed": seeds[name] if ds.weighted else None}
                       for name in metrics.PROPORTION_METRICS]
    if pak is not None:
        tie_fields = {key: getattr(pak, key) for key in ("k", "ties_straddle_cut", "n_unlabeled_in_top_k")}
        outputs.metrics.append(pak.estimate.to_json_dict(f"precision_at_{pak.k}")
                               | {"operation": "metrics.precision_at_k", "seed": None, **tie_fields})

    value = {entry["metric"]: entry["value"] for entry in outputs.metrics}
    if value["precision"] is not None and value["recall"] is not None:
        outputs.f1_value = metrics.f_beta(value["precision"], value["recall"], 1.0)

    out_dir = Path(args.out_dir)
    scored = not np.isnan(cols.score[cols.evaluable]).any()  # a fully scored dataset gets a sweep
    if scored:
        sweep = sweep if sweep is not None else curves.pr_curve(ds)
        outputs.curve_n_points = len(sweep)
        sha256 = write_file(out_dir / CURVE_FILE, curves.curve_csv_chunks(sweep))
        outputs.curve_file = {"path": CURVE_FILE, "sha256": sha256}
        outputs.curve_points = [p.to_json_dict() for p in curves.report_points(sweep, threshold)]
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

    write_file(out_dir / "report.json", json_text)
    write_file(out_dir / "report.md", md_text)
    write_file(out_dir / "metrics.json", canonical_json(outputs.metrics))
    write_file(out_dir / "outputs.json", canonical_json(outputs.to_json_dict()))
    if scored:
        write_file(out_dir / "warnings.json", canonical_json(outputs.warnings))

    print(_metrics_table(outputs.metrics))
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
    values = _load_config_file(args.config) if args.config else {}
    if args.target_power is not None:
        values["sample_size"] = 1  # the sample-size search ignores it
    elif values.get("sample_size", args.sample_size) is None:
        raise InputError("give --sample-size to simulate power, or --target-power to solve")
    assumptions = _record(design.PrecisionStudyAssumptions, args, values, args.config or "size-study")
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
    strata = args.substratify_by.split(",") if args.substratify_by else []
    config = _record(scle.ScleConfig, args, {"substratify_by": strata})
    ds = _load_dataset(args)
    sample = scle.draw_sample(ds, config)
    out_dir = Path(args.out_dir)
    document = sample.to_json_dict()
    context = tuple(args.context_fields.split(",")) if args.context_fields else ()
    sheet = out_dir / "review_sheet.csv"  # written first, so that a refused sheet leaves no sample
    sheet_path = scle.emit_review_sheet(sample, ds, context, sheet, "reproducible" if args.reproducible else _now())
    write_file(out_dir / "scle_sample.json", canonical_json(document))
    _print_json(
        {
            "sample": str(out_dir / "scle_sample.json"),
            "sheet": str(sheet_path),
            **{key: document[key] for key in ("cell_sample_sizes", "shortfalls", "seed", "config_hash")},
        }
    )
    return 0


def _cmd_scle_ingest(args) -> int:
    from . import scle
    sample = _read_user_file(args.sample, scle.ScleSample.from_json_dict)
    annotations = scle.ingest_annotations(args.sheet, sample)
    payload = scle.annotations_to_json_dict(annotations)
    write_file(args.out, canonical_json(payload))
    _print_json({"annotations": len(annotations), "out": str(args.out)})
    return 0


def _cmd_scle_aggregate(args) -> int:
    from . import scle
    sample = _read_user_file(args.sample, scle.ScleSample.from_json_dict)
    annotations = _read_user_file(args.annotations, scle.annotations_from_json_dict)
    summary = scle.aggregate(annotations, sample, seed=args.seed).to_json_dict()
    out_dir = Path(args.out_dir)
    write_file(out_dir / "scle_summary.json", canonical_json(summary))
    write_file(out_dir / "scle_summary.md", scle.summary_markdown(summary))
    _print_json(summary)
    return 0


def _cmd_scle_apply(args) -> int:
    from . import datamodel, scle
    ds = _load_dataset(args)
    annotations = _read_user_file(args.annotations, scle.annotations_from_json_dict)
    revised = scle.apply_verdicts(ds, annotations)
    written = datamodel.emit(revised, args.out, args.out_format)
    _print_json({"written": [str(p) for p in written], "verdicts": revised.metadata["verdicts_applied"]})
    return 0


# --- robustness subcommands ------------------------------------------------------


def _cmd_subsets(args) -> int:
    from . import robustness
    stem = f"subsets_{args.attribute}"  # <stem>.json and <stem>.md go to --out-dir, so it must be a file name
    if args.out_dir and Path(stem).name != stem:
        raise InputError(f"--attribute {args.attribute!r} makes no file name: {stem}.json")
    ds = _load_dataset(args)
    names = tuple(args.metrics.split(",")) if args.metrics else ("recall", "precision", "specificity")
    result = robustness.subset_metrics(ds, args.attribute, metrics=names, seed=args.seed).to_json_dict()
    if args.out_dir:
        write_file(Path(args.out_dir) / f"{stem}.json", canonical_json(result))
        write_file(Path(args.out_dir) / f"{stem}.md", robustness.subsets_markdown(result))
    _print_json(result)
    return 0


def _cmd_stability(args) -> int:
    from . import robustness
    ds = _load_dataset(args)
    result = robustness.stability(ds).to_json_dict()
    if args.out:
        write_file(args.out, canonical_json(result))
    _print_json(result)
    return 0


def _cmd_resample(args) -> int:
    from . import robustness
    ds = _load_dataset(args)
    result = robustness.resampling_variability(ds, args.metric, args.scheme, args.n, args.seed).to_json_dict()
    if args.out:
        write_file(args.out, canonical_json(result))
    _print_json(result)
    return 0


# --- synth / checklist -----------------------------------------------------------


def _cmd_synth(args) -> int:
    from . import datamodel, synth
    truth_path = args.truth_out or f"{args.out}.truth.json"
    for out in (args.out, f"{args.out}{datamodel.DESIGN_SIDECAR_SUFFIX}"):  # the one clash of two outputs of a run
        if Path(out).resolve() == Path(truth_path).resolve():
            raise InputError(f"--truth-out {truth_path} would overwrite {out}, which this run writes")
    rules = []
    for rule in args.enrich or []:
        select, _, prob = rule.partition(":")
        try:
            rules.append(synth.EnrichmentRule(select=select, inclusion_probability=float(prob)))
        except ValueError:
            raise InputError(f"--enrich expects select:probability, got {rule!r}") from None
    values = {"enrichment": write_record(rules), **(_load_config_file(args.spec) if args.spec else {})}
    spec = _record(synth.PopulationSpec, args, values, args.spec)
    result = synth.generate(spec)
    written = [str(p) for p in datamodel.emit(result.dataset, args.out, args.format)]
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
        outputs = _read_user_file(args.outputs, report.EvaluationOutputs.from_json_dict)
    else:
        outputs = report.EvaluationOutputs()
    outputs.attestations = {**outputs.attestations, **_parse_attestations(args.attest)}
    checklist = report.prefill_checklist(outputs)
    payload = [item.to_json_dict() for item in checklist]
    out_dir = Path(args.out_dir)
    write_file(out_dir / "checklist.json", canonical_json(payload))
    write_file(out_dir / "checklist.md", "# Evaluation checklist\n\n" + report.checklist_markdown(payload))
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
    p.add_argument("--replicates", dest="n_replicates", type=int, default=2000)
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
    p.add_argument("--oversample-factor", dest="disagreement_oversample_factor", type=_finite_float, default=1.0)
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


def iter_flags(parser: argparse.ArgumentParser | None = None, key: str = "rareval") -> dict[str, list[str]]:
    """Every option string of ``parser`` (the CLI's by default) and of each subcommand; used by the golden help test."""
    parser = parser or build_parser()
    result = {key: sorted(o for a in parser._actions for o in a.option_strings)}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                result.update(iter_flags(subparser, f"{key} {name}"))
    return result


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns its exit code.

    Called without ``argv`` (``python -m rareval.cli``, the ``rareval``
    script), ``main`` owns the process and freezes the start-up heap, so the
    collections a command triggers skip the objects imports made (numpy's
    included). In-process callers pass ``argv`` and keep their heap.
    """
    args = build_parser().parse_args(argv)  # --help and a flag error exit here, before numpy loads
    if argv is None:
        import numpy  # loaded before the freeze, so the frozen heap holds its objects
        gc.freeze()
    try:
        with run_files():  # a run writes over no file it read
            return args.func(args)
    except InfeasibleError as exc:
        _fail(3, "infeasible", str(exc))
    except MemoryError as exc:  # a size that passed every check but does not fit this machine
        _fail(3, "infeasible", f"out of memory: {exc}")
    except InputError as exc:
        _fail(2, "input", str(exc))
    except EvaluationError as exc:
        _fail(4, "internal", str(exc))
    except Exception as exc:  # anything not converted at a parse site is a defect
        _fail(4, "internal", f"{type(exc).__name__}: {exc}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
