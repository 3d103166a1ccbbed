"""Subsets, stability, SCLE, synth and emit against their per-case loops.

Hypothesis datasets mix designs, all four reference labels, missing scores,
predictions and benchmark labels, score ties, ids and subgroup values that
CSV must quote (a real category named "unknown" and the empty string among
them) and repeated runs of unequal length. Each column-reading function must give what the case loop
in ``reference_loops`` gives, or raise the same error, on the dataset built
from cases and on the same dataset read back from a file. The one deliberate
difference is stability's mean pairwise agreement, which the oracle sums as
an exact fraction.
"""

import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

import reference_loops as ref
from rareval import cli, robustness, scle, synth
from rareval.datamodel import Dataset, ReferenceLabel, StratumSpec, apply_threshold, emit, ingest
from rareval.scle import ScleAnnotation, ScleConfig

from conftest import make_case

_DESIGN = (StratumSpec("s1", 0.3), StratumSpec("s2", 1.0, "rest"))
_REFERENCES = [ReferenceLabel.POSITIVE] * 3 + [ReferenceLabel.NEGATIVE] * 4 + [
    ReferenceLabel.AMBIGUOUS,
    ReferenceLabel.EXCLUDED,
]
_ID_PREFIXES = ["c", "c,", 'c"']  # the last two need CSV quoting
_SITES = [None, None, "north", "south", "unknown", "", "a,b", "two\nlines"]
_RUNS = [None, (True, False, True), (False, False, False), (True, True, True), (True, False), (True,)]


@st.composite
def datasets(draw, runs=_RUNS):
    """A dataset built from cases, sometimes written as CSV and read back, sometimes thresholded."""
    n = draw(st.integers(0, 25))
    design = _DESIGN if draw(st.booleans()) else ()
    scored = draw(st.booleans())  # every case scored, so a threshold applies
    cases = []
    for i in range(n):
        score = draw(st.sampled_from([0.1, 0.5, 0.5, 0.7, 0.9] + ([] if scored else [None])))
        predicted = draw(st.sampled_from([True, False] if score is None else [None, True, False]))
        drawn = {"site": draw(st.sampled_from(_SITES)), "era": draw(st.sampled_from([None, "old", "new"]))}
        subgroups = {name: value for name, value in drawn.items() if value is not None}
        cases.append(
            make_case(
                f"{draw(st.sampled_from(_ID_PREFIXES))}{draw(st.integers(0, 30))}-{i}",  # not in row order
                draw(st.sampled_from(_REFERENCES)),
                score=score,
                predicted=predicted,
                benchmark_predicted=draw(st.sampled_from([None, True, False, True])),
                stratum_id=draw(st.sampled_from(design)).stratum_id if design else None,
                subgroups=subgroups,
                repeated_labels=draw(st.sampled_from(runs)),
            )
        )
    ds = Dataset(cases, design if cases else (), {"generator": "test", "batch": 3})
    if draw(st.booleans()):
        with tempfile.TemporaryDirectory() as tmp:
            ref.emit(ds, Path(tmp) / "d.csv")
            ds = ingest(Path(tmp) / "d.csv")
    if scored and draw(st.booleans()):
        ds = apply_threshold(ds, draw(st.sampled_from([0.5, 0.6, 0.95])))
    return ds


def outcome(fn, *args, **kwargs):
    """(result or error, warnings raised), so that errors and warnings compare too."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = "ok", fn(*args, **kwargs)
        except Exception as exc:  # compared against the reference's error
            result = type(exc).__name__, str(exc)
    return result, [str(w.message) for w in caught]


def _report(result):
    (status, value), caught = result
    return ((status, value.to_json_dict() if status == "ok" else value), caught)


class TestSubsetsAndStability:
    @settings(max_examples=150, deadline=None)
    @given(datasets(), st.sampled_from(["site", "era", "nosuch"]), st.integers(0, 3))
    def test_subset_metrics_exact(self, ds, attribute, seed):
        names, kwargs = ("recall", "precision", "npv"), dict(n_permutations=40, seed=seed)
        got = outcome(robustness.subset_metrics, ds, attribute, names, **kwargs)
        want = outcome(ref.subset_metrics, ds, attribute, names, **kwargs)
        assert _report(got) == _report(want)
        if got[0][0] == "ok":
            for category, entry in got[0][1].categories.items():
                assert entry["counts"] == want[0][1].categories[category]["counts"]

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(datasets(), datasets(runs=_RUNS[1:4])))
    def test_stability_exact(self, ds):
        assert outcome(robustness.stability, ds) == outcome(ref.stability, ds)

    def test_pairwise_agreement_is_an_exact_ratio(self, tmp_path, capsys):
        path = tmp_path / "runs.csv"
        synth_args = ["--n", "50", "--prevalence", "0.1", "--n-runs", "3", "--flip-probability", "0.2"]
        assert cli.main(["synth", "--out", str(path), *synth_args]) == 0
        capsys.readouterr()
        assert cli.main(["stability", "--input", str(path)]) == 0
        printed = capsys.readouterr().out
        report = robustness.stability(ingest(path))
        runs = ingest(path).columns.runs
        agreeing = sum(k * (k - 1) // 2 for ones in (runs == 1).sum(axis=1).tolist() for k in (ones, 3 - ones))
        assert report.pairwise_agreement == agreeing / (3 * 50) == 100 / 150
        assert '"pairwise_agreement": 0.6666666666666666,' in printed


_CONFIGS = st.builds(
    ScleConfig,
    n_fp=st.integers(0, 4),
    n_fn=st.integers(0, 4),
    n_tp=st.integers(1, 4),
    n_tn=st.integers(0, 3),
    substratify_by=st.lists(st.sampled_from(["site", "era", "nosuch"]), max_size=2),
    boundary_bins=st.sampled_from([None, None, 2, 3]),
    benchmark_mode=st.booleans(),
    disagreement_oversample_factor=st.sampled_from([1.0, 2.0, 3.5]),
    seed=st.integers(0, 5),
)


class TestScle:
    @settings(max_examples=150, deadline=None)
    @given(datasets(), _CONFIGS)
    def test_draw_sample_exact(self, ds, config):
        assert _report(outcome(scle.draw_sample, ds, config)) == _report(outcome(ref.draw_sample, ds, config))

    @settings(max_examples=100, deadline=None)
    @given(
        datasets(),
        st.lists(st.sampled_from(["score", "stratum_id", "site", "era", "generator", "nosuch"]), max_size=3),
        st.booleans(),
    )
    def test_review_sheet_bytes_exact(self, ds, context, foreign_row):
        (status, sample), _ = outcome(scle.draw_sample, ds, ScleConfig(n_fp=3, n_fn=3, n_tp=3, n_tn=2, seed=1))
        if status != "ok":
            return
        if foreign_row:  # a sampled id the dataset does not hold
            sample = scle.ScleSample(
                sample.rows + (scle.ScleRow(case_id="zz-9", cell="FP", sampling_weight=1.0),), sample.config, sample.seed,
                sample.cell_population_sizes, sample.cell_sample_sizes, sample.shortfalls,
            )
        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp) / "new.csv", Path(tmp) / "old.csv"]
            results = [
                outcome(fn, sample, ds, context, path, "t0")
                for fn, path in ((scle.emit_review_sheet, paths[0]), (ref.emit_review_sheet, paths[1]))
            ]
            assert (results[0][0][0], results[0][1]) == (results[1][0][0], results[1][1])
            if results[1][0][0] == "ok":
                assert paths[0].read_bytes() == paths[1].read_bytes()
            else:
                assert results[0][0] == results[1][0]

    @settings(max_examples=100, deadline=None)
    @given(
        datasets(),
        st.lists(
            st.tuples(st.integers(0, 30), st.sampled_from([None, *ReferenceLabel])), max_size=6
        ),
        st.booleans(),
    )
    def test_apply_verdicts_exact(self, ds, picks, foreign):
        ids = [c for c in ds.columns.case_id.tolist()]
        annotations = [
            ScleAnnotation(ids[k % len(ids)] if ids else "none", "r", verdict=verdict) for k, verdict in picks
        ]
        if foreign:
            annotations.append(ScleAnnotation("zz-9", "r", verdict=ReferenceLabel.NEGATIVE))
        (status, got), _ = outcome(scle.apply_verdicts, ds, annotations)
        (want_status, want), _ = outcome(ref.apply_verdicts, ds, annotations)
        assert status == want_status
        if status == "ok":
            assert got == want and got.cases == want.cases
            assert got.metadata["verdicts_applied"] == ds.metadata.get("verdicts_applied", 0) + len(
                {a.case_id for a in annotations if a.verdict is not None}
            )
        else:
            assert got == want


class TestSynthAndEmit:
    @settings(max_examples=60, deadline=None)
    @given(
        st.builds(
            synth.PopulationSpec,
            n=st.integers(1, 300),
            prevalence=st.sampled_from([0.01, 0.1, 0.5]),
            enrichment=st.sampled_from([
                (),
                (synth.EnrichmentRule("negative", 0.3),),
                (synth.EnrichmentRule("positive", 0.5), synth.EnrichmentRule("negative", 0.1)),
            ]),
            label_noise=st.sampled_from([0.0, 0.1]),
            n_runs=st.sampled_from([None, 1, 3]),
            flip_probability=st.sampled_from([0.0, 0.2]),
            exact_positive_count=st.booleans(),
            seed=st.integers(0, 50),
        )
    )
    def test_generate_exact(self, spec):
        (status, got), _ = outcome(synth.generate, spec)
        (want_status, want), _ = outcome(ref.generate, spec)
        assert status == want_status
        if status != "ok":
            assert got == want
            return
        assert got.dataset == want.dataset and got.dataset.cases == want.dataset.cases
        assert got.population_size == want.population_size
        assert got.truth.scores.tobytes() == want.truth.scores.tobytes()
        assert got.truth.truth.tobytes() == want.truth.truth.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(datasets(), st.sampled_from(["csv", "jsonl"]))
    def test_emit_bytes_exact(self, ds, fmt):
        with tempfile.TemporaryDirectory() as tmp:
            new, old = emit(ds, Path(tmp) / f"new.{fmt}", fmt), ref.emit(ds, Path(tmp) / f"old.{fmt}", fmt)
            assert [p.name.replace("new", "") for p in new] == [p.name.replace("old", "") for p in old]
            for a, b in zip(new, old):
                assert a.read_bytes() == b.read_bytes()
            assert ingest(new[0], fmt) == ingest(old[0], fmt)

    def test_emit_writes_in_bounded_chunks(self, tmp_path, monkeypatch):
        from rareval import datamodel

        monkeypatch.setattr(datamodel, "_CHUNK_ROWS", 7)
        ds = synth.generate(synth.PopulationSpec(n=50, prevalence=0.2, n_runs=2, seed=3)).dataset
        for fmt in ("csv", "jsonl"):
            emit(ds, tmp_path / f"new.{fmt}", fmt)
            ref.emit(ds, tmp_path / f"old.{fmt}", fmt)
            assert (tmp_path / f"new.{fmt}").read_bytes() == (tmp_path / f"old.{fmt}").read_bytes()
        assert ds.cases == ref.generate(synth.PopulationSpec(n=50, prevalence=0.2, n_runs=2, seed=3)).dataset.cases
