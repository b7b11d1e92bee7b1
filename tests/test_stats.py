"""Tests for the statistical primitives, cross-checked against scipy and
small exact-enumeration oracles."""

import dataclasses
import inspect
import math
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
import stats_reference as ref
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from hapaxchain import stats
from hapaxchain.stats import (
    check_levels,
    chi_square_gof,
    chi_square_threshold,
    descriptive_stats,
    derived_indicators,
    ks_threshold,
    ks_two_sample,
    pass_fractions,
    shannon_entropy,
    wmw_test,
)

# ------------------------------------------------------------- descriptive


def test_descriptive_simple():
    d = descriptive_stats([1.0, 2.0, 3.0])
    assert d.mean == 2.0
    assert d.variance == 1.0
    assert d.std_dev == 1.0
    assert d.median == 2.0
    assert d.max == 3.0 and d.min == 1.0


def test_descriptive_degenerate_sample_flags_nan():
    d = descriptive_stats([5.0, 5.0, 5.0, 5.0])
    assert d.variance == 0.0
    assert math.isnan(d.skewness)
    assert math.isnan(d.kurtosis)
    assert math.isnan(d.mean_over_sd)


@pytest.mark.parametrize(
    "values, skewness, kurtosis",
    [
        ([0.0, 4.2612682273689035e-158], 0.0, 1.0),
        ([6553.943, 6553.943, float(np.nextafter(6553.943, np.inf))], math.sqrt(0.5), 1.5),
    ],
)
def test_descriptive_moments_of_tiny_spreads(values, skewness, kurtosis):
    d = descriptive_stats(values)
    assert d.skewness == pytest.approx(skewness, rel=1e-12, abs=1e-12)
    assert d.kurtosis == pytest.approx(kurtosis, rel=1e-12)


def test_descriptive_constant_sample_whose_mean_rounds():
    values = [5461.602684874075] * 3
    assert float(np.mean(values)) != values[0]
    d = descriptive_stats(values)
    assert d.variance == 0.0
    assert math.isnan(d.skewness) and math.isnan(d.kurtosis)


def test_descriptive_requires_two_values():
    with pytest.raises(ValueError):
        descriptive_stats([1.0])


def test_descriptive_matches_scipy_moments():
    rng = np.random.default_rng(7)
    x = rng.gamma(2.0, 3.0, size=500)
    d = descriptive_stats(x)
    assert d.mean == pytest.approx(float(np.mean(x)))
    assert d.variance == pytest.approx(float(np.var(x, ddof=1)))
    assert d.skewness == pytest.approx(float(sps.skew(x, bias=True)))
    assert d.kurtosis == pytest.approx(float(sps.kurtosis(x, fisher=False, bias=True)))


def test_derived_indicators_reproduce_reference_summary():
    # Identity check on the derived fields from a recorded mean/sd/median/n.
    mean_over_sd, pearson, se = derived_indicators(16.3850, 32.1605, 3.0, 31074)
    assert mean_over_sd == pytest.approx(0.5095, abs=5e-4)
    assert pearson == pytest.approx(1.2486, abs=5e-4)
    assert se == pytest.approx(0.1824, abs=5e-4)


@settings(max_examples=60)
@given(
    st.lists(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False), min_size=2, max_size=80)
)
@example([0.0, 4.2612682273689035e-158])  # subnormal variance
@example([6553.943, 6553.943, float(np.nextafter(6553.943, np.inf))])  # the mean rounds
@example([5461.602684874075] * 3)  # constant, but the mean rounds up
def test_descriptive_identities(values):
    d = descriptive_stats(values)
    rms_sq = (d.n - 1) / d.n * d.variance + d.mean**2
    assert d.rms**2 == pytest.approx(rms_sq, rel=1e-9, abs=1e-12)
    assert d.std_error * math.sqrt(d.n) == pytest.approx(d.std_dev, rel=1e-9, abs=1e-15)
    if d.variance > 0:
        # raw kurtosis lower bound
        assert d.kurtosis >= d.skewness**2 + 1 - 1e-9


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-300, 300), min_size=2, max_size=200))
@example(list(np.random.default_rng(31).integers(1, 301, size=100_000)))
def test_descriptive_matches_sort_based_reference(values):
    got, want = dataclasses.asdict(descriptive_stats(values)), dataclasses.asdict(ref.descriptive_stats(values))
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert got[name] == pytest.approx(value, rel=1e-9, abs=1e-12, nan_ok=True), name


# ---------------------------------------------------------------------- KS


def test_ks_identical_samples():
    assert ks_two_sample([1, 2, 3], [1, 2, 3]) == 0.0


def test_ks_disjoint_supports():
    assert ks_two_sample([1, 1], [2, 2]) == 1.0


def test_ks_hand_ecdf():
    # pooled values 1,2,3: ECDF_a = (.5, 1, 1), ECDF_b = (.5, .5, 1)
    assert ks_two_sample([1, 2], [1, 3]) == pytest.approx(0.5)


def test_ks_empty_sample_rejected():
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


def test_ks_matches_scipy_with_ties():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.integers(1, 10, size=rng.integers(2, 60))
        b = rng.integers(1, 12, size=rng.integers(2, 60))
        expected = sps.ks_2samp(a, b, method="asymp").statistic
        assert ks_two_sample(a, b) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=40)
@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=40),
    st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=40),
)
def test_ks_bounds_symmetry_and_monotone_invariance(a, b):
    stat = ks_two_sample(a, b)
    assert 0.0 <= stat <= 1.0
    assert ks_two_sample(b, a) == pytest.approx(stat)
    fa = [math.exp(0.1 * x) for x in a]
    fb = [math.exp(0.1 * x) for x in b]
    assert ks_two_sample(fa, fb) == pytest.approx(stat)


def test_ks_threshold_reference_values():
    assert ks_threshold(0.05, 509138, 100000, halve_alpha=True) == pytest.approx(0.004697, abs=1e-6)
    assert ks_threshold(0.01, 509138, 100000, halve_alpha=True) == pytest.approx(0.005629, abs=1e-6)
    assert ks_threshold(0.001, 509138, 100000, halve_alpha=True) == pytest.approx(0.006743, abs=1e-6)


def test_ks_threshold_literal_parameterization():
    assert ks_threshold(0.05, 100000, 31074, halve_alpha=False) == pytest.approx(0.0079486, abs=1e-6)


def test_ks_threshold_equal_sizes_reduction():
    n = 4321
    alpha = 0.05
    expected = math.sqrt(-math.log(alpha / 2) / n)
    assert ks_threshold(alpha, n, n, halve_alpha=True) == pytest.approx(expected, rel=1e-12)


def test_ks_threshold_monotonicity():
    base = ks_threshold(0.05, 1000, 2000, True)
    assert ks_threshold(0.01, 1000, 2000, True) > base
    assert ks_threshold(0.05, 5000, 2000, True) < base
    assert ks_threshold(0.05, 1000, 9000, True) < base


def test_ks_threshold_domain():
    with pytest.raises(ValueError):
        ks_threshold(0.0, 10, 10, True)
    with pytest.raises(ValueError):
        ks_threshold(0.05, 0, 10, True)


@pytest.mark.parametrize(
    "values, thresholds, p_values, expected",
    [
        ([0.1, 0.2, 0.3, 0.4], {0.05: 0.2, 0.01: 0.3}, False, {0.05: 0.5, 0.01: 0.75}),
        ([0.2], {0.05: 0.2}, False, {0.05: 1.0}),  # a statistic at its threshold passes
        ([0.05], {0.05: 0.05}, True, {0.05: 0.0}),  # a p-value at its level fails
        ([0.001, 0.01, 0.5, 0.9], {0.05: 0.05, 0.01: 0.01, 0.001: 0.001}, True,
         {0.05: 0.5, 0.01: 0.5, 0.001: 0.75}),
    ],
)
def test_pass_fractions_boundaries(values, thresholds, p_values, expected):
    fractions = pass_fractions(values, thresholds, p_values=p_values)
    assert fractions == expected
    assert list(fractions) == list(thresholds)


def test_check_levels_returns_a_tuple():
    assert check_levels([0.05, 0.01]) == (0.05, 0.01)


@pytest.mark.parametrize("levels", [(), (0.05, 0.05), (0.01, 0.010), (0.05, 1.0), (0.0,), (float("nan"),)])
def test_check_levels_rejects_empty_repeated_or_out_of_range(levels):
    with pytest.raises(ValueError, match=r"non-empty, distinct and lie in \(0, 1\)"):
        check_levels(levels)


def test_check_levels_rejects_levels_that_print_alike():
    with pytest.raises(ValueError, match=r"^levels 0\.05 and 0\.05000001 both print as 0\.05;"):
        check_levels((0.05, 0.05000001))
    assert check_levels((0.05, 0.0500001)) == (0.05, 0.0500001)  # 0.05 and 0.0500001 print apart


# -------------------------------------------------------------- chi-square


def test_chi_square_exact_proportionality():
    stat, df = chi_square_gof([30, 20, 10], [0.5, 1 / 3, 1 / 6])
    assert stat == pytest.approx(0.0, abs=1e-12)
    assert df == 2


def test_chi_square_hand_value():
    stat, df = chi_square_gof([10, 0], [0.5, 0.5])
    assert stat == pytest.approx(10.0)
    assert df == 1


def test_chi_square_df_for_227_states():
    counts = np.ones(227, dtype=int)
    probs = np.full(227, 1 / 227)
    _, df = chi_square_gof(counts, probs)
    assert df == 226


def test_chi_square_zero_expected_with_mass_rejected():
    with pytest.raises(ValueError):
        chi_square_gof([5, 5], [1.0, 0.0])


def test_chi_square_rescaling_invariance():
    obs = [7, 11, 2]
    probs = np.array([0.2, 0.5, 0.3])
    stat1, _ = chi_square_gof(obs, probs)
    stat2, _ = chi_square_gof(obs, probs * 4.0)
    assert stat1 == pytest.approx(stat2, rel=1e-12)


def test_chi_square_matches_scipy():
    rng = np.random.default_rng(3)
    obs = rng.integers(1, 100, size=8)
    probs = rng.dirichlet(np.ones(8))
    stat, _ = chi_square_gof(obs, probs)
    expected = sps.chisquare(obs, f_exp=probs * obs.sum()).statistic
    assert stat == pytest.approx(float(expected), rel=1e-12)


def test_chi_square_threshold_quantile():
    assert chi_square_threshold(0.05, 226) == pytest.approx(float(sps.chi2.ppf(0.95, 226)))
    assert chi_square_threshold(0.05, 0) == 0.0


# --------------------------------------------------------------------- WMW


def _wmw_exact_two_sided_p(a, b):
    """Exact conditional permutation p-value for tiny samples."""
    pooled = list(a) + list(b)
    n1 = len(a)
    ranks = sps.rankdata(pooled)
    mu = n1 * len(b) / 2.0

    def u_of(idx):
        return sum(ranks[i] for i in idx) - n1 * (n1 + 1) / 2.0

    u_obs = u_of(range(n1))
    hits = total = 0
    for idx in combinations(range(len(pooled)), n1):
        total += 1
        if abs(u_of(idx) - mu) >= abs(u_obs - mu) - 1e-12:
            hits += 1
    return hits / total


def test_wmw_identical_samples():
    z, p = wmw_test([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
    assert z == 0.0
    assert p >= 0.99


def test_wmw_fully_separated_small_samples():
    z, p = wmw_test([1, 1, 1, 1, 1], [2, 2, 2, 2, 2])
    # U of the first sample counts pairs a > b: zero here.
    assert p < 0.05
    exact = _wmw_exact_two_sided_p([1, 1, 1, 1, 1], [2, 2, 2, 2, 2])
    assert exact == pytest.approx(2 / 252)
    assert z < 0


def test_wmw_swap_symmetry():
    rng = np.random.default_rng(19)
    a = rng.integers(1, 8, size=25)
    b = rng.integers(2, 9, size=30)
    z_ab, p_ab = wmw_test(a, b)
    z_ba, p_ba = wmw_test(b, a)
    assert z_ab == pytest.approx(-z_ba)
    assert p_ab == pytest.approx(p_ba)


def test_wmw_degenerate_pool():
    z, p = wmw_test([3, 3], [3, 3, 3])
    assert (z, p) == (0.0, 1.0)


def test_wmw_matches_scipy_asymptotic():
    rng = np.random.default_rng(23)
    for _ in range(20):
        a = rng.integers(1, 15, size=rng.integers(5, 50))
        b = rng.integers(1, 15, size=rng.integers(5, 50))
        _, p = wmw_test(a, b)
        ref = sps.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic")
        assert p == pytest.approx(ref.pvalue, rel=1e-9, abs=1e-12)


_SAMPLE_VALUES = st.one_of(
    st.integers(-5, 5),
    st.sampled_from([0.25, 0.5, 1.5, 2.75]),
    st.floats(-1e6, 1e6, allow_nan=False),
)
_PAPER_LIKE = np.random.default_rng(29).integers(1, 301, size=(2, 100_000))


@settings(max_examples=300, deadline=None)
@given(st.lists(_SAMPLE_VALUES, min_size=1, max_size=80), st.lists(_SAMPLE_VALUES, min_size=1, max_size=80))
@example(_PAPER_LIKE[0], _PAPER_LIKE[1, :31_074])
def test_wmw_equals_sort_based_reference(a, b):
    assert wmw_test(a, b) == ref.wmw_test(a, b)


@settings(max_examples=300, deadline=None)
@given(st.lists(_SAMPLE_VALUES, min_size=1, max_size=80), st.lists(_SAMPLE_VALUES, min_size=1, max_size=80))
@example(_PAPER_LIKE[0], _PAPER_LIKE[1, :31_074])
def test_ks_equals_sort_based_reference(a, b):
    assert ks_two_sample(a, b) == ref.ks_two_sample(a, b)


@pytest.mark.parametrize("a, b", [
    (np.array([True, False, True, True]), np.array([False, False, True])),
    ([2**53, 2**53 + 1, 3], [3, 2**53, 5]),  # 2**53 + 1 rounds to the float 2**53
])
def test_statistics_of_samples_that_are_not_floats_equal_the_references(a, b):
    # Each sample is sorted in its own dtype; its values meet as floats.
    assert ks_two_sample(a, b) == ref.ks_two_sample(a, b)
    assert wmw_test(a, b) == ref.wmw_test(a, b)
    got, want = dataclasses.asdict(descriptive_stats(a)), dataclasses.asdict(ref.descriptive_stats(a))
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)  # as the sort-based reference does


@pytest.mark.parametrize("fn", [ks_two_sample, wmw_test])
def test_two_sample_statistics_take_samples_a_and_b(fn):
    # Callers and instrumentation pass (and read) the two samples by these names.
    assert list(inspect.signature(fn).parameters) == ["a", "b"]
    assert fn(a=[1, 2, 3], b=[2, 3, 4]) == fn([1, 2, 3], [2, 3, 4])


def test_wmw_null_calibration():
    # Both samples i.i.d. from one distribution: p-values ~ uniform.
    rng = np.random.default_rng(101)
    below = 0
    reps = 1000
    for _ in range(reps):
        a = rng.integers(1, 30, size=500)
        b = rng.integers(1, 30, size=500)
        _, p = wmw_test(a, b)
        below += p < 0.05
    assert 0.03 <= below / reps <= 0.07


# ---------------------------------------------------------------- distinct


def assert_distinct_equals_unique(a):
    got, want = stats._distinct(a), np.unique(a, return_inverse=True, return_counts=True)
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype
        assert g.tolist() == w.tolist()


def distinct_sorts(a) -> bool:
    """Whether ``stats._distinct(a)`` takes the sort rather than the bincount."""
    with mock.patch.object(np, "unique", wraps=np.unique) as unique:
        stats._distinct(a)
    return unique.called


@settings(max_examples=200)
@given(st.data())
def test_distinct_equals_unique(data):
    # Dense spans, spans about the bound, the array's size (a bincount at or below it, the sort
    # above), and spans up to the whole int64 range, anywhere in it.
    free = data.draw(st.integers(0, 30))
    exact = data.draw(st.booleans())  # the span is exactly ``span``
    size = free + 2 * exact
    span = data.draw(st.one_of(st.integers(0, 40), st.integers(max(size - 2, 0), size + 2), st.integers(0, 2**64 - 1)))
    lo = data.draw(st.integers(-(2**63), 2**63 - 1 - span))
    offsets = data.draw(st.lists(st.integers(0, span), min_size=free, max_size=free)) + [0, span] * exact
    assert_distinct_equals_unique(np.array(data.draw(st.permutations([lo + o for o in offsets])), dtype=np.int64))


@pytest.mark.parametrize(("values", "sorts"), [
    ([-(2**63), 2**63 - 1], True),
    ([-(2**63), -(2**63) + 3, -(2**63)], False),
    ([2**63 - 1], False),
    ([-5], False),
    ([], True),
    ([-3, 0, 0], False),  # a span of 3 over 3 values, the bound
    ([-3, 1, 0], True),
])
def test_distinct_equals_unique_on_edges(values, sorts):
    a = np.array(values, dtype=np.int64)
    assert distinct_sorts(a) == sorts
    assert_distinct_equals_unique(a)


@pytest.mark.parametrize("span", [69_999, 70_000, 70_001])
def test_distinct_bound_grows_with_the_size(span):
    # 70 000 values: spans up to their number take the bincount, longer ones the sort.
    values = np.random.default_rng(span).integers(0, span + 1, size=70_000)
    values[:2] = 0, span
    assert distinct_sorts(values) == (span > 70_000)
    assert_distinct_equals_unique(values)


# ----------------------------------------------------------------- entropy


def test_entropy_uniform():
    assert shannon_entropy([5, 5, 5, 5]) == pytest.approx(math.log(4))


def test_entropy_point_mass():
    # 0.0, not -0.0, which a table prints as -0.
    for counts in ([0, 9, 0], [5]):
        assert math.copysign(1.0, shannon_entropy(counts)) == 1.0 and shannon_entropy(counts) == 0.0


def test_entropy_hand_value():
    assert shannon_entropy([3, 1]) == pytest.approx(0.562335, abs=1e-6)


def test_entropy_requires_mass():
    with pytest.raises(ValueError):
        shannon_entropy([0, 0])


# ------------------------------------------------------------ input checks


@pytest.mark.parametrize("call, message", [
    (lambda: chi_square_gof([1, 2], [1.0]), r"^state count mismatch: 2 observed vs 1 expected$"),
    (lambda: chi_square_gof([0, 0], [0.5, 0.5]), r"^chi_square_gof requires a positive total observed count$"),
    (lambda: chi_square_gof([1, 2], [-0.5, 1.5]), r"^expected probabilities must be non-negative$"),
    (lambda: chi_square_gof([1, 2], [0.0, 0.0]), r"^expected probabilities must have a positive sum$"),
    (lambda: chi_square_threshold(0.0, 3), r"^alpha must be in \(0, 1\), got 0\.0$"),
    (lambda: chi_square_threshold(1.0, 3), r"^alpha must be in \(0, 1\), got 1\.0$"),
    (lambda: chi_square_threshold(0.05, -1), r"^df must be >= 0, got -1$"),
    (lambda: wmw_test([], [1, 2]), r"^wmw_test requires two non-empty samples$"),
    (lambda: wmw_test([1, 2], []), r"^wmw_test requires two non-empty samples$"),
    (lambda: shannon_entropy([1, -1, 2]), r"^counts must be non-negative$"),
])
def test_statistics_reject_invalid_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
