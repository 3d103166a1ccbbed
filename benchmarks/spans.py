"""In-process span tracer for the traced benchmark run.

:meth:`Tracer.install` replaces every public function reachable by name from
the layer modules with a wrapper that records one span per call: name,
start, end, parent span and invocation id. Functions a module imported from
another (``robustness.confusion`` is ``metrics.confusion``) are wrapped too
and named after their home module, so a call is attributed to the layer that
does the work whichever module calls it. Nothing under ``src/`` changes; the
originals are restored by :meth:`Tracer.uninstall`.

Spans and counts stay in memory; :meth:`Tracer.layer_metrics` folds them
into the per-layer metrics and :meth:`Tracer.to_json` into the result file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import resource
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "datamodel", "metrics", "curves", "report", "robustness", "scle", "design")

# Spans whose resident-set growth is reported.
_RSS_SPANS = {"datamodel.ingest", "report.render_report"}

# (per-layer metric, span name) pairs reported as inclusive time in seconds.
TIMED = (
    ("datamodel.ingest_s", "datamodel.ingest"),
    ("datamodel.apply_threshold_s", "datamodel.apply_threshold"),
    ("metrics.estimate_metric_s", "metrics.estimate_metric"),
    ("metrics.confusion_s", "metrics.confusion"),
    ("curves.pr_curve_s", "curves.pr_curve"),
    ("curves.select_operating_point_s", "curves.select_operating_point"),
    ("curves.curve_to_csv_s", "curves.curve_to_csv"),
    ("curves.auc_s", "curves.auc"),
    ("report.render_report_s", "report.render_report"),
    ("report.summarize_dataset_s", "report.summarize_dataset"),
    ("report.prefill_checklist_s", "report.prefill_checklist"),
    ("robustness.subset_metrics_s", "robustness.subset_metrics"),
    ("robustness.resampling_variability_s", "robustness.resampling_variability"),
    ("scle.draw_sample_s", "scle.draw_sample"),
    ("scle.emit_review_sheet_s", "scle.emit_review_sheet"),
    ("design.simulate_precision_power_s", "design.simulate_precision_power"),
)

_PAGE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def _rss_bytes() -> int:
    """Current resident set of this process (peak RSS where /proc is absent)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * _PAGE
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _bound(fn, args, kwargs) -> dict:
    sig = inspect.signature(fn)
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        # span: [name, start, end, parent index, invocation id, raised, rss delta]
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.invocation = 0
        self.own_s = [0.0]  # time spent in the wrappers themselves, outside the wrapped calls
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"rareval.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("rareval."):
                    continue
                wrapper = wrappers.get(id(obj))
                if wrapper is None:
                    wrapper = wrappers[id(obj)] = self._wrap(obj)
                setattr(module, attr, wrapper)
                self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        spans, stack, own = self.spans, self._stack, self.own_s
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        track_rss = name in _RSS_SPANS
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.invocation, False, 0]
            spans.append(span)
            stack.append(index)
            rss0 = _rss_bytes() if track_rss else 0
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except SystemExit as exc:
                span[5] = exc.code not in (0, None)
                raise
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if track_rss:
                    span[6] = _rss_bytes() - rss0
            if observe is not None:
                observe(fn, args, kwargs, result)
            own[0] += clock() - entered - (span[2] - span[1])
            return result

        return wrapper

    # -- counts taken at layer boundaries -----------------------------------------

    def _observe_datamodel_ingest(self, fn, args, kwargs, result):
        self.counts["datamodel.rows"] += len(result)

    def _observe_metrics_bootstrap_metric(self, fn, args, kwargs, result):
        self.counts["metrics.bootstrap_resamples"] += _bound(fn, args, kwargs)["n_resamples"]

    def _observe_curves_pr_curve(self, fn, args, kwargs, result):
        self.counts["curves.points"] += len(result)

    def _observe_curves_curve_to_csv(self, fn, args, kwargs, result):
        self.counts["curves.csv_bytes"] += len(result.encode("utf-8"))

    def _observe_report_render_report(self, fn, args, kwargs, result):
        self.counts["report.json_bytes"] += len(result[0].encode("utf-8"))

    def _observe_robustness_subset_metrics(self, fn, args, kwargs, result):
        if result.heterogeneity.test_name.startswith("permutation"):
            self.counts["robustness.permutations"] += _bound(fn, args, kwargs)["n_permutations"]

    def _observe_robustness_resampling_variability(self, fn, args, kwargs, result):
        self.counts["robustness.resamples"] += result.n

    def _observe_scle_draw_sample(self, fn, args, kwargs, result):
        self.counts["scle.rows_sampled"] += len(result.rows)

    # -- folding spans into metrics ---------------------------------------------

    def _has_ancestor_in(self, index: int, layer: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0].startswith(layer + "."):
                return True
            parent = self.spans[parent][3]
        return False

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per traced pass (totals divided by ``passes``)."""
        inclusive: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        rss: defaultdict[str, int] = defaultdict(int)
        errors = {layer: 0 for layer in LAYERS}
        child_time = [0.0] * len(self.spans)
        replicates = 0
        for i, (name, start, end, parent, _, raised, rss_delta) in enumerate(self.spans):
            duration = end - start
            inclusive[name] += duration
            calls[name] += 1
            rss[name] += rss_delta
            if parent >= 0:
                child_time[parent] += duration
            layer = name.split(".", 1)[0]
            if raised and layer in errors:
                errors[layer] += 1
            if name == "provenance.replicate_rng" and self._has_ancestor_in(i, "design"):
                replicates += 1
        cli_self = sum(
            (span[2] - span[1]) - child_time[i]
            for i, span in enumerate(self.spans)
            if span[0] == "cli.main"
        )
        ingest_rows = self.counts["datamodel.rows"]
        out = {
            "cli.self_s": cli_self,
            "datamodel.ingest_us_per_row": (
                inclusive["datamodel.ingest"] / ingest_rows * 1e6 if ingest_rows else 0.0
            ),
            "datamodel.ingest_rss_delta_mb": rss["datamodel.ingest"] / 1e6,
            "report.render_rss_delta_mb": rss["report.render_report"] / 1e6,
            "metrics.confusion_calls": calls["metrics.confusion"],
            "design.replicates": replicates,
        }
        for metric, span_name in TIMED:
            out[metric] = inclusive[span_name]
        for key in (
            "datamodel.rows", "metrics.bootstrap_resamples", "curves.points", "curves.csv_bytes",
            "report.json_bytes", "robustness.permutations", "robustness.resamples", "scle.rows_sampled",
        ):
            out[key] = self.counts[key]
        for layer, n in errors.items():
            out[f"{layer}.errors"] = n
        passes = max(passes, 1)
        return {
            k: v / passes if k != "datamodel.ingest_us_per_row" else v for k, v in out.items()
        }

    def to_json(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "invocation", "raised", "rss_delta_bytes"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }


def import_cli_timed() -> float:
    """Import ``rareval.cli`` into this interpreter and return the seconds taken.

    Must run before anything else imports ``rareval``.
    """
    if "rareval" in sys.modules:
        raise RuntimeError("rareval is already imported; cli.import_s would read low")
    t0 = time.perf_counter()
    importlib.import_module("rareval.cli")
    return time.perf_counter() - t0
