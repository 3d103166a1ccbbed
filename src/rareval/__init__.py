"""rareval: prevalence-aware statistical evaluation of rare-event classifiers.

Core workflow: ingest an evaluation dataset (``datamodel``), estimate
prevalence-corrected metrics with intervals (``metrics``), sweep thresholds
(``curves``), size comparison studies (``design``), sample cases for human
review (``scle``), probe robustness (``robustness``), and compile everything
into a checklist-driven report (``report``). ``synth`` generates seeded
populations with exact ground truth for verification.

``import rareval`` loads none of these modules: each public name imports its
home module on first use (PEP 562), so a program pays only for what it uses.
Since the order in which modules load varies, a module calls another's public
functions through that module (``datamodel.confusion_cells``), never through
a name bound at import, so a replaced attribute is seen by every caller.
"""

import importlib

__version__ = "0.1.0"

# Home module of every public name, in ``__all__`` order.
_EXPORTS = {
    "curves": ("CostSpec", "CurvePoint", "auc", "pr_curve", "rare_event_warnings", "roc_curve",
               "select_operating_point"),
    "datamodel": ("Dataset", "EvaluationCase", "ReferenceLabel", "StratumSpec", "apply_threshold", "emit", "ingest"),
    "design": ("PairPrevalenceSpec", "PrecisionStudyAssumptions", "build_paired_precision_test", "pair_prevalence",
               "simulate_precision_power", "solve_sample_size"),
    "errors": ("EvaluationError", "InfeasibleError", "IngestError", "InputError"),
    "metrics": ("ConfusionCounts", "MetricEstimate", "bayes_adjusted_precision", "bootstrap_metric",
                "concordance_and_override", "confusion", "estimate_metric", "f_beta", "npv", "precision",
                "precision_at_k", "recall", "specificity", "wilson_interval"),
    "report": ("ChecklistItem", "EvaluationOutputs", "prefill_checklist", "render_report"),
    "robustness": ("resampling_variability", "stability", "subset_metrics"),
    "scle": ("ScleAnnotation", "ScleConfig", "ScleSample", "aggregate", "draw_sample", "emit_review_sheet",
             "ingest_annotations"),
    "synth": ("EnrichmentRule", "PopulationSpec", "TruthSidecar", "generate"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
