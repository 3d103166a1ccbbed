import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_loops as ref
from rareval import design
from rareval.design import (
    PairPrevalenceSpec,
    PrecisionStudyAssumptions,
    build_paired_precision_test,
    disagreement_test_pvalue,
    pair_prevalence,
    simulate_precision_power,
    solve_sample_size,
)
from rareval.errors import InfeasibleError, InputError
from rareval.provenance import replicate_rng


def base_assumptions(**overrides):
    values = dict(
        sample_size=30_000,
        flag_rate_a=0.00995,
        flag_rate_b=0.00995,
        overlap_rate=0.5,
        precision_a=0.95,
        precision_b=0.855,
        alpha=0.05,
        n_replicates=400,
        seed=1234,
    )
    values.update(overrides)
    return PrecisionStudyAssumptions(**values)


class TestAssumptions:
    def test_overlap_consistency_checked(self):
        bad = base_assumptions(flag_rate_a=0.02, flag_rate_b=0.005, overlap_rate=0.9)
        with pytest.raises(InputError, match="inconsistent"):
            bad.cell_probabilities()

    def test_degenerate_flag_rate_rejected(self):
        with pytest.raises(InputError):
            base_assumptions(flag_rate_a=0.0)

    def test_from_dict_round_trip(self):
        a = base_assumptions()
        d = {
            "sample_size": a.sample_size,
            "flag_rate_a": a.flag_rate_a,
            "flag_rate_b": a.flag_rate_b,
            "overlap_rate": a.overlap_rate,
            "precision_a": a.precision_a,
            "precision_b": a.precision_b,
            "alpha": a.alpha,
            "n_replicates": a.n_replicates,
            "seed": a.seed,
        }
        assert PrecisionStudyAssumptions.from_dict(d) == a


class TestDisagreementTest:
    def test_degenerate_inputs_give_p_one(self):
        assert disagreement_test_pvalue(0, 0, 0, 0) == 1.0
        assert disagreement_test_pvalue(0, 10, 0, 0) == 1.0
        assert disagreement_test_pvalue(0, 10, 0, 10) == 1.0

    def test_extreme_difference_is_significant(self):
        assert disagreement_test_pvalue(100, 100, 10, 100) < 1e-6

    def test_symmetry(self):
        assert disagreement_test_pvalue(40, 50, 20, 50) == pytest.approx(
            disagreement_test_pvalue(20, 50, 40, 50)
        )


@st.composite
def disagreement_tables(draw):
    na, nb = draw(st.integers(0, 2000)), draw(st.integers(0, 2000))
    return draw(st.integers(0, na)), na, draw(st.integers(0, nb)), nb


def assert_matches_scipy(tables, alpha=0.05):
    xa, na, xb, nb = np.array(tables, dtype=np.int64).reshape(-1, 4).T
    got, want = design._pvalues_vectorized(xa, na, xb, nb), ref.disagreement_midp(xa, na, xb, nb)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    normal = want >= 1e-250
    np.testing.assert_allclose(got[normal], want[normal], rtol=1e-10, atol=0)
    decided = np.abs(want - alpha) > 1e-12 * alpha
    assert np.array_equal((got <= alpha * (1 + 1e-12))[decided], (want <= alpha)[decided])


class TestMidPAgainstScipy:
    """The numpy mid-p against scipy's hypergeometric pmf/cdf/sf formula."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(disagreement_tables(), min_size=1, max_size=40), st.sampled_from([0.01, 0.05]))
    def test_random_tables(self, tables, alpha):
        assert_matches_scipy(tables, alpha)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(disagreement_tables(), min_size=1, max_size=40))
    def test_chunking_does_not_change_p_values(self, tables):
        # a chunk this small holds one row, so every row is its own grid
        whole = design._pvalues_vectorized(*np.array(tables, dtype=np.int64).T)
        with mock.patch.object(design, "_CHUNK_CELLS", 64):
            np.testing.assert_allclose(
                design._pvalues_vectorized(*np.array(tables, dtype=np.int64).T), whole, rtol=1e-14, atol=1e-300
            )

    @pytest.mark.parametrize(
        "table",
        [
            (50_000, 100_000, 50_500, 100_000),  # support 10^5, p about 0.025
            (48_000, 100_000, 50_000, 100_000),  # p about 4e-19
            (44_000, 100_000, 50_000, 100_000),  # p about 3e-159
            (42_500, 100_000, 50_000, 100_000),  # p about 3e-248
            (42_000, 100_000, 50_000, 100_000),  # p about 2e-282, below the relative-error range
            (0, 100_000, 1_700, 100_000),  # beyond double range: 0 on both sides
            (10, 200_000, 100, 200_000),
            (3_000, 400_000, 3_500, 400_000),
            (120_000, 200_000, 0, 200_000),
        ],
    )
    def test_large_supports_and_extreme_tails(self, table):
        got = disagreement_test_pvalue(*table)
        assert got == pytest.approx(ref.exact_disagreement_midp(*table), rel=1e-12, abs=1e-300)
        want = float(ref.disagreement_midp(*table))
        if want >= 1e-250:
            assert got == pytest.approx(want, rel=1e-10)
        else:
            assert got <= 1e-250

    def test_p_value_equal_to_alpha_rejects(self):
        # (0, 3, 3, 3) has weights 1, 9, 9, 1 and mid-p exactly 1/20; computed
        # sums land either side of 0.05 by an ulp, so the decision allows for it
        assert disagreement_test_pvalue(0, 3, 3, 3) == pytest.approx(0.05, rel=1e-15)
        for p in (0.05, np.nextafter(0.05, 1.0), np.nextafter(0.05, 0.0)):
            with mock.patch.object(design, "_pvalues_vectorized", lambda *cols, p=p: np.full(cols[0].shape, p)):
                assert simulate_precision_power(base_assumptions(n_replicates=5)).power == 1.0
        with mock.patch.object(design, "_pvalues_vectorized", lambda *cols: np.full(cols[0].shape, 0.0501)):
            assert simulate_precision_power(base_assumptions(n_replicates=5)).power == 0.0

    def test_memory_is_bounded_at_large_sample_size(self):
        # 1000 replicates of the benchmark's study at sample size 4e5: about
        # 2500 support points a row, held one chunk at a time
        rng = np.random.default_rng(0)
        cells = rng.multinomial(400_000, [0.03, 0.02, 0.03, 0.92], size=1000)
        na, nb = cells[:, 1], cells[:, 2]
        xa, xb = rng.binomial(na, 0.7), rng.binomial(nb, 0.85)
        tracemalloc.start()
        try:
            design._pvalues_vectorized(xa, na, xb, nb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20


class TestPowerSimulation:
    def test_null_calibration(self):
        for alpha in (0.01, 0.05):
            result = simulate_precision_power(
                base_assumptions(precision_b=0.95, alpha=alpha, n_replicates=2000)
            )
            assert abs(result.power - alpha) <= 3 * max(result.mc_stderr, 1e-4)

    def test_large_sample_large_effect_power_near_one(self):
        result = simulate_precision_power(
            base_assumptions(sample_size=1_000_000, precision_a=0.9, precision_b=0.81, n_replicates=200)
        )
        assert result.power > 0.99

    def test_deterministic_per_seed(self):
        a = simulate_precision_power(base_assumptions())
        b = simulate_precision_power(base_assumptions())
        c = simulate_precision_power(base_assumptions(seed=999))
        assert a == b
        assert a.power != c.power

    def test_monotone_in_sample_size(self):
        powers = [
            simulate_precision_power(base_assumptions(sample_size=n, n_replicates=600)).power
            for n in (10_000, 30_000, 90_000)
        ]
        slack = 3 * np.sqrt(0.25 / 600)
        assert powers[0] <= powers[1] + slack
        assert powers[1] <= powers[2] + slack

    def test_monotone_in_effect_size(self):
        powers = [
            simulate_precision_power(base_assumptions(precision_b=pb, n_replicates=600)).power
            for pb in (0.9025, 0.855, 0.76)
        ]
        slack = 3 * np.sqrt(0.25 / 600)
        assert powers[0] <= powers[1] + slack
        assert powers[1] <= powers[2] + slack

    def test_documented_study_scenario_is_seed_stable(self):
        # ~448 annotated flags at n=30,000 with a 10% relative precision
        # difference from baseline 0.95: power lands in the vicinity of 0.8
        result = simulate_precision_power(base_assumptions(n_replicates=1000))
        again = simulate_precision_power(base_assumptions(n_replicates=1000))
        assert result == again
        assert 0.7 < result.power < 0.9


class TestSolveSampleSize:
    def test_returns_min_grid_size_for_easy_target(self):
        assumptions = base_assumptions(
            flag_rate_a=0.2, flag_rate_b=0.2, precision_a=0.9, precision_b=0.3, n_replicates=200
        )
        assert solve_sample_size(assumptions, 0.2, min_size=100) == 100

    def test_halving_effect_needs_strictly_more(self):
        small_effect = base_assumptions(precision_b=0.95 * 0.95, n_replicates=300)
        large_effect = base_assumptions(precision_b=0.95 * 0.90, n_replicates=300)
        n_small = solve_sample_size(small_effect, 0.8)
        n_large = solve_sample_size(large_effect, 0.8)
        assert n_small > n_large

    def test_deterministic(self):
        assumptions = base_assumptions(n_replicates=200)
        assert solve_sample_size(assumptions, 0.6) == solve_sample_size(assumptions, 0.6)

    def test_unreachable_target_names_max(self):
        assumptions = base_assumptions(precision_b=0.9495, n_replicates=100)
        with pytest.raises(InfeasibleError, match="2000 \\(max tried\\)"):
            solve_sample_size(assumptions, 0.99, min_size=500, max_size=2000)

    def test_target_power_validation(self):
        with pytest.raises(InputError):
            solve_sample_size(base_assumptions(), 0.01)

    @pytest.mark.parametrize("seed", range(10))
    def test_printed_power_is_the_accepted_power(self, seed, capsys):
        # every probe shares the replicate streams of the final simulation,
        # so the power printed for the answer is the one the search accepted
        from rareval.cli import main

        argv = [
            "size-study", "--flag-rate-a", "0.05", "--flag-rate-b", "0.06", "--overlap-rate", "0.5",
            "--precision-a", "0.7", "--precision-b", "0.85", "--replicates", "200",
            "--target-power", "0.8", "--seed", str(seed),
        ]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(json.loads(capsys.readouterr().out))
        first, rerun = outputs
        assert first["power"] >= 0.8
        assert rerun == first

    def test_solver_output_is_pinned(self, capsys):
        # the solver rewinds one set of replicate streams per probe instead of
        # seeding them anew; the answers and printed powers stay those of the
        # seeded version, byte for byte
        from rareval.cli import main

        study = [
            "size-study", "--flag-rate-a", "0.05", "--flag-rate-b", "0.06", "--overlap-rate", "0.5",
            "--precision-a", "0.7", "--precision-b", "0.85", "--replicates", "1000", "--target-power", "0.8",
        ]
        printed = []
        for seed in range(1, 6):
            assert main([*study, "--seed", str(seed)]) == 0
            printed.append(capsys.readouterr().out.rstrip("\n"))
        assert printed == [
        '{"mc_stderr": 0.012528966437819202, "n_replicates": 1000, "power": 0.805, "required_sample_size": 4900, "seed": 1}',
        '{"mc_stderr": 0.01255324659201754, "n_replicates": 1000, "power": 0.804, "required_sample_size": 4900, "seed": 2}',
        '{"mc_stderr": 0.01235540367612487, "n_replicates": 1000, "power": 0.812, "required_sample_size": 4900, "seed": 3}',
        '{"mc_stderr": 0.01255324659201754, "n_replicates": 1000, "power": 0.804, "required_sample_size": 5200, "seed": 4}',
        '{"mc_stderr": 0.012625331678811452, "n_replicates": 1000, "power": 0.801, "required_sample_size": 5100, "seed": 5}',
        ]

    def test_solver_seeds_each_replicate_stream_once(self):
        assumptions = base_assumptions(n_replicates=50)
        with mock.patch.object(design, "replicate_rng", wraps=replicate_rng) as seeded:
            solve_sample_size(assumptions, 0.6)
        assert seeded.call_count == 50


class UniverseCase:
    __slots__ = ("idx", "a", "b")

    def __init__(self, idx, a, b):
        self.idx, self.a, self.b = idx, a, b


def random_universe(n, p_a, p_b, p_both, seed):
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n):
        u = rng.random()
        if u < p_both:
            a = b = True
        elif u < p_both + p_a:
            a, b = True, False
        elif u < p_both + p_a + p_b:
            a, b = False, True
        else:
            a = b = False
        cases.append(UniverseCase(i, a, b))
    return cases


class TestPairedPrecisionTest:
    def test_identical_models_maximal_overlap(self):
        universe = random_universe(5000, 0.0, 0.0, 0.3, seed=2)
        result = build_paired_precision_test(universe, lambda c: c.a, lambda c: c.b, 100, seed=3)
        assert result.complete
        assert result.sample_a == result.sample_b == result.shared
        assert result.annotation_burden == 100

    def test_disjoint_models_double_burden(self):
        universe = random_universe(5000, 0.3, 0.3, 0.0, seed=4)
        result = build_paired_precision_test(universe, lambda c: c.a, lambda c: c.b, 100, seed=5)
        assert result.complete
        assert not result.shared
        assert result.annotation_burden == 200

    def test_exhaustion_warns_and_returns_partial(self):
        universe = random_universe(50, 0.1, 0.1, 0.0, seed=6)
        with pytest.warns(UserWarning, match="exhausted"):
            result = build_paired_precision_test(universe, lambda c: c.a, lambda c: c.b, 100, seed=7)
        assert not result.complete
        assert len(result.sample_a) < 100

    def test_matches_brute_force_replay(self):
        # replay the same seeded walk independently and compare everything
        rng = np.random.default_rng(98765)
        for scenario in range(50):
            n = int(rng.integers(500, 3000))
            p_both = float(rng.uniform(0.0, 0.1))
            p_a = float(rng.uniform(0.0, 0.1))
            p_b = float(rng.uniform(0.0, 0.1))
            target = int(rng.integers(5, 60))
            seed = int(rng.integers(0, 2**31))
            universe = random_universe(n, p_a, p_b, p_both, seed=scenario)

            result = build_paired_precision_test(
                universe, lambda c: c.a, lambda c: c.b, target, seed=seed
            )

            order = replicate_rng(seed, 0).permutation(len(universe))
            exp_a, exp_b, exp_shared = [], [], []
            for raw in order:
                case = universe[int(raw)]
                need_a = len(exp_a) < target
                need_b = len(exp_b) < target
                if not need_a and not need_b:
                    break
                got_a = got_b = False
                if need_a and case.a:
                    exp_a.append(case)
                    got_a = True
                if need_b and case.b:
                    exp_b.append(case)
                    got_b = True
                if got_a and got_b:
                    exp_shared.append(case)
            assert list(result.sample_a) == exp_a
            assert list(result.sample_b) == exp_b
            assert list(result.shared) == exp_shared
            burden = len({c.idx for c in result.sample_a} | {c.idx for c in result.sample_b})
            assert result.annotation_burden == burden

    def test_same_model_never_increases_burden(self):
        # a paired test against the model itself costs no more than one
        # single-model test of the same size
        universe = random_universe(4000, 0.05, 0.05, 0.05, seed=11)
        paired = build_paired_precision_test(universe, lambda c: c.a, lambda c: c.a, 80, seed=12)
        assert paired.annotation_burden == 80


class TestPairPrevalence:
    def test_reproduces_one_in_two_hundred_million(self):
        spec = PairPrevalenceSpec(n_records=40_000_000, duplicate_fraction=0.2)
        assert pair_prevalence(spec) == 5e-9
        assert pair_prevalence(spec) == 1 / 200_000_000

    def test_zero_fraction(self):
        assert pair_prevalence(PairPrevalenceSpec(n_records=100, duplicate_fraction=0.0)) == 0.0

    def test_exhaustive_enumeration_cross_check(self):
        # 1,000 records, 200 of them in 100 mutual duplicate pairs
        n = 1000
        partner = {}
        for pair_index in range(100):
            a, b = 2 * pair_index, 2 * pair_index + 1
            partner[a] = b
            partner[b] = a
        duplicate_pairs = sum(
            1 for i in range(n) for j in range(n) if i != j and partner.get(i) == j
        )
        enumerated = duplicate_pairs / n**2
        spec = PairPrevalenceSpec(n_records=n, duplicate_fraction=0.2)
        assert pair_prevalence(spec) == pytest.approx(enumerated, abs=0)
        assert pair_prevalence(spec) == pytest.approx(2e-4, abs=0)

    def test_scales_inverse_in_n(self):
        p1 = pair_prevalence(PairPrevalenceSpec(n_records=1000, duplicate_fraction=0.2))
        p2 = pair_prevalence(PairPrevalenceSpec(n_records=2000, duplicate_fraction=0.2))
        assert p1 == pytest.approx(2 * p2)

    def test_fractional_pair_count_warns(self):
        with pytest.warns(UserWarning, match="whole"):
            pair_prevalence(PairPrevalenceSpec(n_records=10, duplicate_fraction=0.3))

    def test_n_records_validation(self):
        with pytest.raises(InputError):
            PairPrevalenceSpec(n_records=1, duplicate_fraction=0.2)
