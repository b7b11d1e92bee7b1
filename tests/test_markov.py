"""Transition estimation, chain simulation and order-test battery tests."""

import dataclasses
import tracemalloc

import markov_reference as ref
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hapaxchain import markov
from hapaxchain.markov import (
    estimate_order1,
    estimate_order2,
    order_test,
    simulate_order1,
    simulate_order2,
)


def seq(values):
    return np.asarray(values, dtype=np.int64)


def densify(tm, field="probs"):
    """``tm.probs`` (or ``tm.counts``) as a dense table: one row per CSR
    row, one column per state."""
    n_rows = tm.indptr.size - 1
    rows = np.repeat(np.arange(n_rows), np.diff(tm.indptr))
    dense = np.zeros((n_rows, tm.n_states), dtype=getattr(tm, field).dtype)
    dense[rows, tm.indices] = getattr(tm, field)
    return dense


def index(tm, state):
    """Index of ``state``, one of ``tm.states``."""
    i = int(np.searchsorted(tm.states, state))
    assert tm.states[i] == state
    return i


def row(tm, i, j):
    return densify(tm)[index(tm, i), index(tm, j)]


def pair_row(tm, i, j):
    """Row of the order-2 matrix for the observed state pair (i, j), or None."""
    code = index(tm, i) * tm.n_states + index(tm, j)
    r = int(np.searchsorted(tm.pair_codes, code))
    return r if r < tm.pair_codes.size and tm.pair_codes[r] == code else None


def one_hot(size, at):
    law = np.zeros(size)
    law[at] = 1.0
    return law


def start_at(tm, state):
    """Order-1 ``tm`` (CSR or dense) whose first state is always ``state``."""
    return dataclasses.replace(tm, marginal=one_hot(tm.n_states, index(tm, state)))


def start_at_pair(tm, i, j):
    """Order-2 ``tm`` whose first pair is always the observed pair (i, j)."""
    return dataclasses.replace(tm, pair_marginal=one_hot(tm.pair_codes.size, pair_row(tm, i, j)))


def dense_row(tm, r, field="probs"):
    """Row ``r`` of the order-2 ``probs`` (or ``counts``) over all states."""
    return densify(tm, field)[r]


# -------------------------------------------------------------- estimation


def test_estimate_order1_alternating():
    tm = estimate_order1(seq([1, 2, 1, 2, 1]))
    assert row(tm, 1, 2) == 1.0
    assert row(tm, 2, 1) == 1.0


def test_estimate_order1_mixed():
    tm = estimate_order1(seq([1, 1, 2, 1]))
    assert row(tm, 1, 1) == pytest.approx(0.5)
    assert row(tm, 1, 2) == pytest.approx(0.5)
    assert row(tm, 2, 1) == 1.0


def test_estimate_order1_single_state():
    tm = estimate_order1(seq([1, 1, 1]))
    assert densify(tm).tolist() == [[1.0]]


def test_estimate_order1_too_short():
    with pytest.raises(ValueError):
        estimate_order1(seq([1]))


def test_estimate_order1_terminal_state_gets_self_loop():
    tm = estimate_order1(seq([1, 1, 2]))
    assert row(tm, 2, 2) == 1.0  # state 2 never observed leaving


def test_estimate_order2_alternating():
    tm = estimate_order2(seq([1, 2, 1, 2, 1]))
    r12 = pair_row(tm, 1, 2)
    r21 = pair_row(tm, 2, 1)
    i1 = int(np.searchsorted(tm.states, 1))
    i2 = int(np.searchsorted(tm.states, 2))
    assert dense_row(tm, r12)[i1] == 1.0
    assert dense_row(tm, r21)[i2] == 1.0


def test_estimate_order2_constant():
    tm = estimate_order2(seq([1, 1, 1, 1]))
    assert dense_row(tm, pair_row(tm, 1, 1))[0] == 1.0


def test_estimate_order2_single_triple():
    tm = estimate_order2(seq([1, 2, 3]))
    r12 = pair_row(tm, 1, 2)
    i3 = int(np.searchsorted(tm.states, 3))
    assert dense_row(tm, r12)[i3] == 1.0
    # the final pair (2, 3) is observed but has no continuation
    assert dense_row(tm, pair_row(tm, 2, 3), "counts").sum() == 0


def test_estimate_order2_too_short():
    with pytest.raises(ValueError):
        estimate_order2(seq([1, 2]))


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=1, max_value=5), min_size=3, max_size=200))
def test_estimated_rows_are_stochastic(values):
    tm1 = estimate_order1(seq(values))
    np.testing.assert_allclose(densify(tm1).sum(axis=1), 1.0, atol=1e-12)
    tm2 = estimate_order2(seq(values))
    rows = range(tm2.pair_codes.size)
    sums = np.array([dense_row(tm2, r).sum() for r in rows])
    mass = np.array([dense_row(tm2, r, "counts").sum() > 0 for r in rows])
    np.testing.assert_allclose(sums[mass], 1.0, atol=1e-12)


# -------------------------------------------------------------- simulation


def test_simulate_order1_deterministic_chain():
    tm = estimate_order1(seq([1, 2, 1, 2, 1]))
    assert simulate_order1(start_at(tm, 1), 4, seed=0).tolist() == [1, 2, 1, 2]


def test_simulate_order1_reproducible():
    tm = estimate_order1(seq([1, 1, 2, 1, 2, 2, 1]))
    a = simulate_order1(tm, 50, seed=123)
    b = simulate_order1(tm, 50, seed=123)
    assert a.tolist() == b.tolist()


def test_simulate_order1_iid_uniform_frequencies():
    rng = np.random.default_rng(42)
    source = seq(rng.integers(1, 4, size=30000))
    tm = estimate_order1(source)
    out = simulate_order1(tm, 30000, seed=7)
    freqs = np.bincount(out, minlength=4)[1:] / 30000
    assert np.all(np.abs(freqs - 1 / 3) < 0.02)


def test_estimate_of_simulation_recovers_matrix():
    probs = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.4, 0.1, 0.5]])
    tm = ref.from_dense(np.array([1, 2, 3]), probs)
    sim = simulate_order1(tm, 100_000, seed=99)
    est = estimate_order1(sim)
    assert np.abs(densify(est) - probs).max() < 0.02


def test_simulate_order2_deterministic():
    tm = estimate_order2(seq([1, 2, 1, 2, 1]))
    assert simulate_order2(start_at_pair(tm, 1, 2), 5, seed=0).tolist() == [1, 2, 1, 2, 1]


def test_simulate_order2_reproducible():
    rng = np.random.default_rng(1)
    tm = estimate_order2(seq(rng.integers(1, 4, size=500)))
    a = simulate_order2(tm, 80, seed=5)
    b = simulate_order2(tm, 80, seed=5)
    assert a.tolist() == b.tolist()


def test_simulate_order2_collapses_to_order1():
    # When P(k | i, j) depends only on j the chain is first order.
    rng = np.random.default_rng(8)
    base = np.array([[0.7, 0.3], [0.4, 0.6]])
    tm1 = ref.from_dense(np.array([1, 2]), base)
    source = simulate_order1(tm1, 60_000, seed=3)
    tm2 = estimate_order2(source)
    sim2 = simulate_order2(tm2, 60_000, seed=4)
    sim1 = simulate_order1(estimate_order1(source), 60_000, seed=6)
    f2 = np.bincount(sim2, minlength=3)[1:] / 60_000
    f1 = np.bincount(sim1, minlength=3)[1:] / 60_000
    assert np.abs(f1 - f2).max() < 0.02


def test_simulate_order2_unseen_pair_falls_back():
    # (3, 3) never occurs in the source, but the walk reaches it: the final
    # pair (1, 3) has no continuation, so the fallback row of state 3, seen
    # only at the end, takes its self-loop.  On the unseen pair (3, 3) the
    # fallback row of state 3 again forces 3.
    tm = estimate_order2(seq([2, 1, 1, 3]))
    assert pair_row(tm, 3, 3) is None
    assert dense_row(tm, pair_row(tm, 1, 3), "counts").sum() == 0
    out = simulate_order2(start_at_pair(tm, 2, 1), 6, seed=0)
    assert out.tolist() == [2, 1, 1, 3, 3, 3]


# ------------------------------------- cross-check against the dense reference


def assert_order2_matches(tm, dense, length, seed, start=None):
    """``start``, an observed pair, is then the first pair of both kernels."""
    if start is not None:
        tm = start_at_pair(tm, *start)
        dense = dataclasses.replace(dense, pair_marginal=one_hot(len(dense.pair_index), dense.pair_index[start]))
    got = simulate_order2(tm, length, seed)
    want = ref.simulate_order2(dense, length, seed)
    assert got.tolist() == want.tolist()
    return got.tolist()


def assert_simulations_match(values, length, seed, start=None):
    """Both orders against the reference; with ``start``, order 2 starts
    from that pair and order 1 from its second state."""
    tm, dense = estimate_order2(values), ref.estimate_order2(values)
    assert_order2_matches(tm, dense, length, seed, start)
    tm1, dense1 = tm.fallback, dense.fallback
    if start is not None:
        tm1, dense1 = start_at(tm1, start[1]), start_at(dense1, start[1])
    got = simulate_order1(tm1, length, seed)
    want = ref.simulate_order1(dense1, length, seed)
    assert got.tolist() == want.tolist()


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=3, max_size=120), st.integers(0, 2**32 - 1))
def test_estimates_equal_dense_reference(values, seed):
    tm, dense = estimate_order2(values), ref.estimate_order2(values)
    tm1, dense1 = estimate_order1(values), ref.estimate_order1(values)
    for a, b in ((tm1, dense1), (tm.fallback, dense1)):
        assert densify(a).tolist() == b.probs.tolist()
        assert densify(a, "counts").tolist() == b.counts.tolist()
        assert a.marginal.tolist() == b.marginal.tolist()
    assert tm.pair_marginal.tolist() == dense.pair_marginal.tolist()
    for (i, j), r in dense.pair_index.items():
        assert dense_row(tm, pair_row(tm, i, j)).tolist() == dense.probs[r].tolist()
        assert dense_row(tm, pair_row(tm, i, j), "counts").tolist() == dense.counts[r].tolist()
    assert len(dense.pair_index) == tm.pair_codes.size
    assert_simulations_match(values, 60, seed)


def test_simulations_equal_dense_reference_with_drawn_initial_pair():
    values = np.random.default_rng(0).integers(1, 30, size=5000)
    assert_simulations_match(values, 20_000, 17)


def test_simulations_equal_dense_reference_with_supplied_initial_pair():
    values = np.random.default_rng(1).integers(1, 30, size=5000)
    assert_simulations_match(values, 20_000, 18, start=(int(values[7]), int(values[8])))


def test_simulations_equal_dense_reference_when_most_pairs_are_unseen():
    # 400 observations over 200 states, and a fallback that reaches every
    # state: once the chain leaves the observed pairs, it mostly lands on
    # pairs that were never observed, and hundreds of steps use the fallback.
    values = np.random.default_rng(2).integers(1, 201, size=400)
    tm, dense = estimate_order2(values), ref.estimate_order2(values)
    n = tm.n_states
    uniform = np.full((n, n), 1.0 / n)
    tm = dataclasses.replace(tm, fallback=ref.from_dense(tm.states, uniform))
    dense = dataclasses.replace(dense, fallback=ref.DenseTransitionMatrix1(tm.states, None, uniform))
    out = assert_order2_matches(tm, dense, 5_000, 19)
    unseen = sum(pair_row(tm, i, j) is None for i, j in zip(out[:-2], out[1:-1]))
    assert unseen > 0.1 * len(out)
    assert_simulations_match(values, 5_000, 20)


def test_simulations_equal_dense_reference_from_continuation_free_final_pair():
    values = [1, 2, 3, 1, 2, 1, 3, 3, 2, 4]
    tm = estimate_order2(values)
    assert dense_row(tm, pair_row(tm, 2, 4), "counts").sum() == 0
    assert_simulations_match(values, 500, 21, start=(2, 4))


def test_simulations_equal_dense_reference_on_single_state():
    assert_simulations_match([4] * 10, 100, 22)
    assert simulate_order2(estimate_order2([4] * 10), 5, 0).tolist() == [4] * 5


def test_simulations_equal_dense_reference_when_rows_sum_below_one():
    # Rows whose cumulative sum ends below 1.0: a uniform above it takes
    # the last state, in the reference and in the CSR kernel alike.
    probs = np.array([[0.2, 0.3, 0.0], [0.0, 0.25, 0.0], [0.1, 0.0, 0.3]])
    short = ref.from_dense(np.array([1, 2, 3]), probs)
    dense_short = ref.DenseTransitionMatrix1(np.array([1, 2, 3]), None, probs)
    got = simulate_order1(short, 3_000, seed=23)
    assert got.tolist() == ref.simulate_order1(dense_short, 3_000, seed=23).tolist()
    assert np.mean(got == 3) > 0.5

    values = np.random.default_rng(3).integers(1, 4, size=30)
    tm, dense = estimate_order2(values), ref.estimate_order2(values)
    tm = dataclasses.replace(tm, probs=tm.probs / 2, fallback=short)
    dense = dataclasses.replace(dense, probs=dense.probs / 2, fallback=dense_short)
    for start in (None, (3, 3)):
        assert_order2_matches(tm, dense, 3_000, 24, start)


def test_order2_on_thousands_of_states_stays_small():
    # A dense (observed pairs x states) table would need about 5 GB here.
    values = np.random.default_rng(4).integers(1, 2_101, size=150_000)
    tracemalloc.start()
    try:
        tm = estimate_order2(values)
        out = simulate_order2(tm, 100_000, seed=25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tm.n_states > 2_000
    assert len(out) == 100_000
    assert peak < 200e6


def test_both_orders_on_five_thousand_states_stay_small():
    # A dense first-order table alone would take 400 MB here (16 bytes per
    # state pair); the CSR rows of both orders grow with the observations.
    values = np.random.default_rng(26).integers(1, 5_201, size=150_000)
    tracemalloc.start()
    try:
        tm1 = estimate_order1(values)
        out1 = simulate_order1(tm1, 100_000, seed=27)
        tm2 = estimate_order2(values)
        out2 = simulate_order2(tm2, 100_000, seed=28)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tm1.n_states >= 5_000
    assert len(out1) == len(out2) == 100_000
    assert peak < 100e6


# -------------------------------------------------------------- order test


def order1_source(n=6000, seed=2):
    probs = np.array([[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.25, 0.25, 0.5]])
    tm = ref.from_dense(np.array([1, 2, 3]), probs)
    return simulate_order1(tm, n, seed=seed)


def test_order_test_report_shapes():
    report = order_test(order1_source(), replicates=5, len1=2000, len2=2000, seed=0)
    assert len(report.ks_stats_first_vs_second) == 5
    assert len(report.wmw_p_values) == 5
    assert len(report.chi_square_stats) == 5
    assert len(report.ks_stats_vs_empirical) == 5
    assert all(len(v) == 5 for v in report.indicators.values())
    assert report.df == 2
    assert set(report.pass_fractions) == {
        "ks_first_vs_second", "wmw", "chi_square", "ks_vs_empirical",
    }


def test_order_test_estimates_order1_once(monkeypatch):
    calls = []
    count_pairs = markov._count_pairs

    def counted(values):
        calls.append(1)
        return count_pairs(values)

    monkeypatch.setattr(markov, "_count_pairs", counted)
    order_test(order1_source(n=500), replicates=2, seed=0)
    assert len(calls) == 1


def test_order_test_reproducible():
    source = order1_source()
    cfg = dict(replicates=4, len1=1500, len2=1500, seed=11)
    r1 = order_test(source, **cfg)
    r2 = order_test(source, **cfg)
    assert r1 == r2


def test_order_test_default_lengths():
    source = order1_source(n=4000)
    report = order_test(source, replicates=2, seed=0)
    assert report.len1 == 4000
    assert report.len2 == 4000  # min(100000, input length)


def test_order_test_single_state_trivially_passes():
    report = order_test(seq([1] * 50), replicates=3, seed=0)
    assert report.ks_stats_first_vs_second == [0.0] * 3
    assert report.chi_square_stats == [0.0] * 3
    assert report.ks_stats_vs_empirical == [0.0] * 3
    assert report.wmw_p_values == [1.0] * 3
    for battery in ("ks_first_vs_second", "chi_square", "ks_vs_empirical", "wmw"):
        assert all(frac == 1.0 for frac in report.pass_fractions[battery].values())


def test_order_test_thresholds_follow_lengths():
    from hapaxchain.stats import ks_threshold

    source = order1_source(n=3000)
    report = order_test(source, replicates=2, len1=2500, len2=1000, seed=0)
    assert report.thresholds["ks_first_vs_second"][0.05] == pytest.approx(
        ks_threshold(0.05, 2500, 1000, True)
    )
    assert report.thresholds["ks_vs_empirical"][0.05] == pytest.approx(
        ks_threshold(0.05, 2500, 3000, True)
    )


def test_order_test_takes_a_seed_sequence_as_master_seed():
    source = order1_source(n=1500)
    report = order_test(source, replicates=3, len1=800, len2=600, seed=np.random.SeedSequence(7))
    assert report == order_test(source, replicates=3, len1=800, len2=600, seed=7)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=3, max_size=60), st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_order_test_ks_vs_empirical_is_ks_two_sample(values, len1, seed):
    # The KS against the input comes from per-state counts; short replicates
    # miss states, which must leave it equal to the statistic on the samples.
    from hapaxchain.stats import child_seed, ks_two_sample

    values = seq(values)
    report = order_test(values, replicates=3, len1=len1, len2=2, seed=seed)
    tm1 = estimate_order2(values).fallback
    assert report.ks_stats_vs_empirical == [
        ks_two_sample(simulate_order1(tm1, len1, child_seed(seed, 1, k)), values) for k in range(3)]


def test_state_zero_is_a_state_like_any_other():
    values = seq(np.random.default_rng(5).integers(0, 3, size=600))
    tm2 = estimate_order2(values)
    assert tm2.states.tolist() == [0, 1, 2]
    assert simulate_order1(tm2.fallback, 300, seed=1).tolist() == (simulate_order1(
        estimate_order1(values + 1), 300, seed=1) - 1).tolist()
    assert simulate_order2(tm2, 300, seed=2).tolist() == (simulate_order2(
        estimate_order2(values + 1), 300, seed=2) - 1).tolist()
    # Shifting every state by one leaves every statistic but the mean as it was.
    report, shifted = order_test(values, replicates=3, seed=4), order_test(values + 1, replicates=3, seed=4)
    for series in ("ks_stats_first_vs_second", "wmw_p_values", "chi_square_stats", "ks_stats_vs_empirical"):
        assert getattr(report, series) == getattr(shifted, series)
    assert report.indicators_observed["mean"] + 1 == pytest.approx(shifted.indicators_observed["mean"])
    assert report.indicators["entropy"] == shifted.indicators["entropy"]


@pytest.mark.parametrize("length", [1, 2, 1000])
def test_simulations_are_one_int64_state_per_step(length):
    tm2 = estimate_order2(order1_source(n=500))
    for out in (simulate_order1(tm2.fallback, length, seed=1), simulate_order2(tm2, length, seed=2)):
        assert out.dtype == np.int64 and out.ndim == 1
        assert len(out) == length


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("length", [0, -3])
def test_simulations_reject_a_length_below_one(order, length):
    tm2 = estimate_order2(order1_source(n=500))
    with pytest.raises(ValueError, match=rf"^length must be >= 1, got {length}$"):
        simulate_order1(tm2.fallback, length, seed=1) if order == 1 else simulate_order2(tm2, length, seed=2)


@pytest.mark.parametrize(
    "kwargs",
    [{"replicates": 0}, {"len1": 0}, {"len2": 0}, {"levels": ()}, {"levels": (0.05, 1.0)}, {"levels": (0.0,)},
     {"levels": (0.05, 0.05)}],
)
def test_order_test_config_rejects_invalid_settings(kwargs):
    with pytest.raises(ValueError):
        order_test(seq([1, 2, 1]), **kwargs)


def test_order_test_len1_needs_two_values():
    # Each first-order replicate's indicators need at least two values.
    with pytest.raises(ValueError, match=r"^len1 must be >= 2, got 1$"):
        order_test(seq([1, 2, 1, 2]), replicates=1, len1=1)
    assert order_test(seq([1, 2, 1, 2]), replicates=1, len1=2, seed=0).len1 == 2
