"""The column view of a Dataset against the per-case reference loops.

Hypothesis datasets mix weighted and unweighted designs, ambiguous and
excluded cases, missing scores and predictions, and single categories. Where
the arithmetic is unchanged the results must be equal; the two streams that
changed (the resample bootstrap and the permutation screen) are compared in
distribution, within Monte Carlo error.
"""

import dataclasses
import math
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import reference_loops as ref
from rareval import datamodel, robustness
from rareval.curves import (
    CostSpec, _reprs, auc, curve_csv_chunks, expected_cost, pr_curve, select_operating_point,
)
from rareval.errors import InfeasibleError, InputError
from rareval.datamodel import CELLS, Dataset, ReferenceLabel, StratumSpec, confusion_cells
from rareval.metrics import (
    PROPORTION_METRICS, _class_table, _proportion, bootstrap_metric, confusion, estimate_metric, metric_from_counts,
    precision_at_k,
)
from rareval.provenance import derive_seed
from rareval.report import summarize_dataset
from rareval.robustness import _heterogeneity_screen, resampling_variability, subset_metrics
from rareval.scle import ScleConfig, draw_sample

from conftest import dataset_from_counts, make_case

# 0.3 and 0.7 have inexact inverses; two strata share 0.25, so their cases
# fall into one bootstrap class.
_PROBABILITIES = (1.0, 0.3, 0.7, 0.25, 0.25)
_REFERENCES = st.sampled_from(
    [ReferenceLabel.POSITIVE] * 3
    + [ReferenceLabel.NEGATIVE] * 4
    + [ReferenceLabel.AMBIGUOUS, ReferenceLabel.EXCLUDED]
)


@st.composite
def datasets(draw, scored=False, predicted=False):
    """Small datasets; ``scored``/``predicted`` force every case to carry one."""
    n = draw(st.integers(0, 30))
    weighted = draw(st.booleans())
    design = (
        tuple(StratumSpec(f"s{i}", p) for i, p in enumerate(_PROBABILITIES[: draw(st.integers(1, 5))]))
        if weighted
        else ()
    )
    cases = []
    for i in range(n):
        score = draw(st.sampled_from([0.1, 0.5, 0.5, 0.9, 0.25]) if scored else st.sampled_from([None, 0.2, 0.7]))
        pred = draw(st.booleans() if predicted or score is None else st.sampled_from([None, True, False]))
        cases.append(
            make_case(
                f"c{draw(st.integers(0, 9))}-{i}",
                draw(_REFERENCES),
                score=score,
                predicted=pred,
                stratum_id=draw(st.sampled_from(design)).stratum_id if design else None,
                subgroups=draw(st.sampled_from([{}, {"g": "a"}, {"g": "b"}, {"g": "a"}])),
            )
        )
    return Dataset(cases, design if cases else ())


def outcome(fn, *args):
    """A result or the error it raised, so that errors compare too."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compared against the reference's error
        return type(exc).__name__, str(exc)


class TestColumnView:
    def test_columns_are_cached_and_read_only(self):
        ds = dataset_from_counts(tp=1, fn=1)
        assert ds.columns is ds.columns
        with pytest.raises(ValueError):
            ds.columns.weight[0] = 2.0

    @settings(max_examples=150, deadline=None)
    @given(datasets())
    def test_confusion_and_label_counts_exact(self, ds):
        expected = outcome(ref.confusion, ds)
        got = outcome(lambda d: {c: getattr(confusion(d), c) for c in CELLS}, ds)
        assert got == expected
        if got[0] == "ok":
            assert all(type(v) is float for v in got[1].values())
        assert ds.label_counts() == ref.label_counts(ds)

    @settings(max_examples=150, deadline=None)
    @given(datasets())
    def test_class_table_classes_and_order(self, ds):
        def classes(d):
            counts, weights, cells = _class_table(d)
            return [(CELLS[c], float(w), int(k)) for c, w, k in zip(cells, weights, counts)]

        assert outcome(classes, ds) == outcome(ref.class_table, ds)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(datasets(), datasets(scored=True)))
    def test_pr_curve_points_exact(self, ds):
        assert outcome(lambda d: list(pr_curve(d)), ds) == outcome(ref.pr_curve, ds)

    @settings(max_examples=150, deadline=None)
    @given(datasets(predicted=True))
    def test_every_estimate_has_confusions_point_bit_for_bit(self, ds):
        # the bootstrap chooses only the interval: its point and n_effective are confusion's on every design
        def point(estimate):
            return repr((estimate.value, estimate.n_effective, estimate.weighted))

        for metric in PROPORTION_METRICS:
            expected = outcome(lambda d: point(metric_from_counts(confusion(d), metric)), ds)
            assert outcome(lambda d: point(estimate_metric(d, metric)), ds) == expected
            got = outcome(lambda d: point(bootstrap_metric(d, metric, n_resamples=50)), ds)
            assert got == (expected if ds.columns.evaluable.any() else ("InputError", "dataset has no evaluable cases"))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(datasets(), datasets(scored=True)), st.integers(1, 12))
    def test_precision_at_k_exact(self, ds, k):
        def expected(d):
            tp, fp, unlabeled, straddle, cut, top = ref.precision_at_k_tally(d, k)
            if not d.weighted:
                return _proportion(tp, tp + fp, 0.95, False), unlabeled, straddle, cut
            # a design's interval is its bootstrap over the k cases, each predicted positive
            top_k = Dataset([dataclasses.replace(c, predicted=True) for c in top], d.design)
            return estimate_metric(top_k, "precision"), unlabeled, straddle, cut

        def got(d):
            r = precision_at_k(d, k)
            assert type(r.ties_straddle_cut) is bool
            return r.estimate, r.n_unlabeled_in_top_k, r.ties_straddle_cut, r.threshold

        assert outcome(got, ds) == outcome(expected, ds)

    @settings(max_examples=60, deadline=None)
    @given(datasets(predicted=True))
    def test_subset_counts_and_n_exact(self, ds):
        if not any("g" in c.subgroups for c in ds.cases if c.evaluable):
            return
        tables = []
        real_screen = robustness._heterogeneity_screen

        def spy(table, *args):
            tables.append(table.copy())
            return real_screen(table, *args)

        with mock.patch.object(robustness, "_heterogeneity_screen", spy):
            report = subset_metrics(ds, "g", n_permutations=50)
        expected = ref.subset_tallies(ds, "g")
        assert sorted(report.categories) == sorted(expected)
        for j, category in enumerate(sorted(expected)):
            n, errors = expected[category]
            entry = report.categories[category]
            assert entry["n"] == n
            sub = ds.replace_cases(
                c for c in ds.cases if c.evaluable and c.subgroups.get("g", "unknown") == category
            )
            assert {c: getattr(entry["counts"], c) for c in CELLS} == ref.confusion(sub)
            assert (tables[0][1, j], tables[0][0, j]) == (errors, n - errors)

    @settings(max_examples=100, deadline=None)
    @given(datasets(predicted=True), st.integers(2, 6), st.integers(0, 3))
    def test_k_fold_values_exact(self, ds, k, seed):
        if sum(1 for c in ds.cases if c.evaluable) < k:
            return
        expected = ref.k_fold_values(ds, "recall", k, derive_seed(seed, "resample-kfold"))
        try:
            got = resampling_variability(ds, "recall", scheme="k_fold", n=k, seed=seed).values
        except InfeasibleError:  # undefined in every fold
            assert all(math.isnan(v) for v in expected)
            return
        np.testing.assert_array_equal(got, expected)

    @settings(max_examples=100, deadline=None)
    @given(datasets())
    def test_summarize_dataset_stratum_counts_exact(self, ds):
        strata = summarize_dataset(ds)["strata"]
        assert [s["n_cases"] for s in strata] == ref.stratum_counts(ds)
        assert all(type(s["n_cases"]) is int for s in strata)

    @pytest.mark.filterwarnings("ignore:cell .* requested cases available")
    @settings(max_examples=100, deadline=None)
    @given(datasets())
    def test_missing_prediction_error_is_unchanged(self, ds):
        def cells(d):
            return [CELLS[c] for c in confusion_cells(d) if c >= 0]

        def expected(d):
            return [ref.confusion_cell(c) for c in d.cases if c.evaluable]

        want = outcome(expected, ds)
        assert outcome(cells, ds) == want
        sampled = outcome(draw_sample, ds, ScleConfig(n_fp=1, n_fn=1, n_tp=1, seed=0))
        if "InputError" in (sampled[0], want[0]):
            assert sampled == want


# Ties, and scores below 1e-4 where repr switches to exponent form. A stratum
# with p = 1e-17 has weight 1e17, which absorbs a later weight-1 case: two
# sweep points then share recall and fpr, so their costs tie exactly.
_SWEEP_SCORES = st.sampled_from([0.9, 0.5, 0.5, 0.25, 0.1, 5e-05, 5e-05, 1.2345e-07, 3e-300])
_SWEEP_PROBABILITIES = (1.0, 0.3, 1e-17, 0.7, 0.25)
_COSTS = st.sampled_from([CostSpec(1.0, 1.0), CostSpec(1.0, 100.0), CostSpec(100.0, 1.0), CostSpec(3, 7)])
_PREVALENCES = st.sampled_from([0.5, 0.002, 0.1, 0.9])


@st.composite
def sweeps(draw):
    """The sweep of a scored dataset that holds both classes."""
    design = ()
    if draw(st.booleans()):
        design = tuple(
            StratumSpec(f"s{i}", p) for i, p in enumerate(_SWEEP_PROBABILITIES[: draw(st.integers(1, 5))])
        )
    cases = [
        make_case(
            f"c{i}",
            draw(_REFERENCES),
            score=draw(_SWEEP_SCORES),
            stratum_id=draw(st.sampled_from(design)).stratum_id if design else None,
        )
        for i in range(draw(st.integers(2, 40)))
    ]
    try:
        return pr_curve(Dataset(cases, design))
    except InputError:
        assume(False)


class TestSweepColumns:
    """The column readers of a sweep against the point-by-point oracles."""

    @settings(max_examples=200, deadline=None)
    @given(sweeps(), st.sampled_from([1, 2, 3, 5, 4096]))  # points per chunk
    def test_csv_bytes_exact(self, curve, chunk_rows):
        with mock.patch.object(datamodel, "_CHUNK_ROWS", chunk_rows):
            assert b"".join(curve_csv_chunks(curve)) == ref.curve_to_csv(list(curve)).encode("utf-8")

    @pytest.mark.parametrize("weighted", [False, True])
    def test_run_of_equal_recall_across_chunks(self, weighted):
        # one positive on top, six negatives at distinct scores, one positive last:
        # recall is 0.5 on sweep points 1-7, across the boundaries after points 2 and 5
        design = (StratumSpec("s", 0.3),) if weighted else ()
        stratum = {"stratum_id": "s"} if weighted else {}
        cases = [make_case("p0", "positive", score=0.99, **stratum), make_case("p1", "positive", score=0.05, **stratum)]
        cases += [make_case(f"n{i}", "negative", score=0.9 - i / 10, **stratum) for i in range(6)]
        curve = pr_curve(Dataset(cases, design))
        assert np.unique(curve.recall[1:8]).size == 1
        with mock.patch.object(datamodel, "_CHUNK_ROWS", 3):
            chunks = list(curve_csv_chunks(curve))
        assert len(chunks) == 1 + 3  # the header, then 9 points 3 at a time
        assert b"".join(chunks).decode("utf-8") == ref.curve_to_csv(list(curve))

    def test_reprs_compare_values_by_bit_pattern(self):
        values = np.array([0.0, -0.0, -0.0, np.nan, np.nan, 1.0, 1.0, np.inf])
        assert _reprs(values).tolist() == ["0.0", "-0.0", "-0.0", "nan", "nan", "1.0", "1.0", "inf"]

    @settings(max_examples=200, deadline=None)
    @given(sweeps())
    def test_auc_exact(self, curve):
        got = auc(curve)
        assert type(got) is float
        assert got == ref.auc(list(curve))

    @settings(max_examples=200, deadline=None)
    @given(sweeps(), _COSTS, _PREVALENCES)
    def test_operating_point_exact(self, curve, costs, prevalence):
        points = list(curve)
        assert expected_cost(curve, costs, prevalence).tolist() == [
            ref.expected_cost(p, costs, prevalence) for p in points
        ]
        assert select_operating_point(curve, costs, prevalence) == ref.select_operating_point(
            points, costs, prevalence
        )

    def test_cost_tie_resolves_to_lower_fpr(self):
        cases = [("a", "positive", 0.9), ("b", "negative", 0.8), ("c", "positive", 0.7), ("d", "negative", 0.6)]
        curve = pr_curve(Dataset(make_case(i, r, score=s) for i, r, s in cases))
        costs = expected_cost(curve, CostSpec(1.0, 1.0), 0.5)
        assert costs[1] == costs[3] == costs.min() and curve.fpr[1] < curve.fpr[3]
        point = select_operating_point(curve, CostSpec(1.0, 1.0), 0.5)
        assert point == curve[1] == ref.select_operating_point(list(curve), CostSpec(1.0, 1.0), 0.5)

    def test_cost_tie_at_equal_fpr_resolves_to_earlier_point(self):
        cases = [("a", "positive", 0.9, "heavy"), ("b", "positive", 0.8, "light"), ("c", "negative", 0.1, "light")]
        design = (StratumSpec("heavy", 1e-17), StratumSpec("light", 1.0))
        curve = pr_curve(Dataset((make_case(i, r, score=s, stratum_id=d) for i, r, s, d in cases), design))
        assert (curve.recall[1], curve.fpr[1]) == (curve.recall[2], curve.fpr[2])
        point = select_operating_point(curve, CostSpec(1.0, 1.0), 0.5)
        assert point == curve[1] == ref.select_operating_point(list(curve), CostSpec(1.0, 1.0), 0.5)

    def test_rows_are_points(self):
        curve = pr_curve(Dataset([make_case("p", "positive", score=5e-05), make_case("n", "negative", score=0.1)]))
        assert len(curve) == 3 and curve[0].precision is None and curve[-1] == curve[2]
        assert curve[1].threshold == 0.1 and type(curve[1].predicted_positive_count) is int
        with pytest.raises(IndexError):
            curve[3]
        with pytest.raises(ValueError):
            curve.recall[0] = 1.0


class TestChangedStreams:
    def test_bootstrap_matches_index_bootstrap_in_distribution(self):
        ds = dataset_from_counts(tp=150, fp=350, fn=50, tn=19_450)
        resamples = 1000
        new = np.array(resampling_variability(ds, "precision", n=resamples, seed=3).values)
        old = ref.index_bootstrap(ds, "precision", resamples, derive_seed(3, "resample-bootstrap"))
        sd = old.std(ddof=1)
        assert abs(new.mean() - old.mean()) < 4 * sd * math.sqrt(2 / resamples)
        assert abs(new.std(ddof=1) - sd) < 4 * sd / math.sqrt(resamples)

    # (not-error, error) x category; the small categories keep expected errors below 5
    @pytest.mark.parametrize(
        "table",
        [[[490.0, 296.0, 17.0, 4.0], [10.0, 4.0, 3.0, 1.0]], [[494.0, 297.0, 19.0, 5.0], [6.0, 3.0, 1.0, 0.0]]],
    )
    def test_screen_p_value_matches_full_permutation(self, table):
        table = np.array(table)
        permutations = 4000
        new = _heterogeneity_screen(table, 0.05, permutations, seed=5)
        old = ref.permutation_p_value(table, permutations, seed=11)
        assert new.test == "permutation (Monte Carlo)"
        assert abs(new.p_value - old) < 4 * math.sqrt(2 * old * (1 - old) / permutations)

    def test_chi_squared_branch_matches_scipy(self):
        from scipy.stats import chi2_contingency

        table = np.array([[900.0, 800.0, 700.0], [60.0, 90.0, 40.0]])
        result = _heterogeneity_screen(table, 0.05, 10, seed=0)
        _, p_value, _, _ = chi2_contingency(table, correction=False)
        assert result.test == "chi-squared"
        assert result.p_value == pytest.approx(p_value, rel=1e-12)


def assert_chi2_tail_matches_scipy(x, df):
    got = np.array([robustness._chi2_sf(float(v), df) for v in x])
    want = ref.chi2_sf(x, df)
    normal = want >= 1e-250
    np.testing.assert_allclose(got[normal], want[normal], rtol=1e-12, atol=0)
    assert not np.any((got == 0.0) & (want >= sys.float_info.min))


class TestChiSquaredTail:
    """The closed-form chi-squared tail against scipy's, for 1 to 100 degrees of freedom."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 100), st.lists(st.floats(0.0, 4000.0), min_size=1, max_size=20))
    def test_random_statistics(self, df, x):
        assert_chi2_tail_matches_scipy(np.array(x), df)

    @pytest.mark.parametrize("df", [1, 2, 3, 4, 7, 10, 33, 64, 99, 100])
    def test_deep_tail_down_to_underflow(self, df):
        # the grid ends past the point where each tail leaves double range
        assert_chi2_tail_matches_scipy(np.geomspace(1e-8, 1500.0 + 25 * df, 600), df)


def test_subset_screen_does_not_load_scipy():
    code = (
        "import sys\n"
        "from rareval.robustness import subset_metrics\n"
        "from rareval.datamodel import Dataset, EvaluationCase, ReferenceLabel\n"
        "cases = [EvaluationCase(f'c{i}', ReferenceLabel.POSITIVE if i % 7 else ReferenceLabel.NEGATIVE,\n"
        "                        predicted=i % 5 != 0, subgroups={'g': 'rare' if i < 6 else 'common'})\n"
        "         for i in range(200)]\n"
        "report = subset_metrics(Dataset(cases), 'g', n_permutations=200)\n"
        "assert report.heterogeneity.test.startswith('permutation'), report.heterogeneity\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
