"""Transition estimation, chain simulation and order-test battery tests."""

import dataclasses
import os
import re
import tracemalloc
from bisect import bisect_right

import markov_reference as ref
import numpy as np
import pytest
from hypothesis import example, given, settings
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


@pytest.mark.parametrize("estimate", [
    estimate_order1,
    estimate_order2,
    lambda values: order_test(values, replicates=1),
], ids=["estimate_order1", "estimate_order2", "order_test"])
def test_states_that_are_not_integers_are_rejected(estimate):
    # They used to be truncated: this order test estimated the states 1 and 2, with an observed mean of 1.5.
    with pytest.raises(ValueError, match=r"^states must be integers, got 1\.5 at position 0$"):
        estimate([1.5, 2.7, 1.2, 2.9, 1.5, 2.2] * 5)
    with pytest.raises(ValueError, match=r"^states must be integers, got nan at position 3$"):
        estimate(np.array([1.0, 2.0, 1.0, np.nan, 2.0, 1.0]))
    # Ints int64 cannot hold, text and None: they used to end in OverflowError, "invalid literal" or TypeError.
    for values, bad in (([1, 2, 2**70, 1], "1180591620717411303424 at position 2"), (["a", "b", "c"], "'a' at position 0"),
                        (["1", "2", "3"], "'1' at position 0"), ([1, None, 2], "None at position 1"),
                        (np.array([1, 2, 2**63, 1], dtype=np.uint64), "9223372036854775808 at position 2")):
        with pytest.raises(ValueError, match=rf"^states must be integers, got {re.escape(bad)}$"):
            estimate(values)
    # Integer-valued floats and bools are the integers they equal.
    as_ints = [1, 2, 1, 1, 2, 2, 1, 2] * 4
    for values in ([float(v) for v in as_ints], [v == 2 for v in as_ints]):
        want = estimate(np.asarray(values, dtype=np.int64))
        got = estimate(values)
        for field in dataclasses.fields(got):
            assert repr(getattr(got, field.name)) == repr(getattr(want, field.name))


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


# A few ranks spread up to 2**62 span more than stats._distinct's bincount bound, so their states take its sort.
SPREAD_RANKS = st.lists(st.integers(1, 2**62), min_size=1, max_size=6, unique=True)


@settings(max_examples=120)
@given(st.one_of(st.lists(st.integers(min_value=1, max_value=6), min_size=3, max_size=120),
                 SPREAD_RANKS.flatmap(lambda ranks: st.lists(st.sampled_from(ranks), min_size=3, max_size=120))),
       st.integers(0, 2**32 - 1))
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


def test_count_pairs_equals_sort_based_counting():
    # 300 states over 20 000 steps: the states take the bincount, and their pair codes, which span
    # about 90 000 > 19 999 pairs, the sort.
    values = np.random.default_rng(29).integers(1, 301, size=20_000)
    got, want = markov._count_pairs(values), ref.count_pairs(values)
    assert got[0].size == 300 and got[2].max() - got[2].min() > values.size - 1
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype
        assert g.tolist() == w.tolist()


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


def assert_walk_sums_equal_reference(tm, dense):
    """The running sums that both walk tables bisect equal the dense reference's cumulative rows at
    each row's columns, bit for bit: order 1 on ``tm.fallback``, order 2 on ``tm`` then the fallback.
    Each row of both tables closes with ``inf`` beside the last state."""
    n = tm.n_states
    for table, probs in ((tm.fallback._walk[:3], dense.fallback.probs),
                         (tm._walk[1:], np.vstack((dense.probs, dense.fallback.probs)))):
        starts, sums, columns = map(np.asarray, table)
        ends = starts[1:] - 1
        assert ends.size == len(probs) and columns.dtype == np.min_scalar_type(n - 1)
        assert sums[ends].tolist() == [np.inf] * ends.size and columns[ends].tolist() == [n - 1] * ends.size
        cells = np.ones(sums.size, bool)
        cells[ends] = False
        want = ref._cumulative_rows(probs)
        rows = np.repeat(np.arange(ends.size), np.diff(starts) - 1).tolist()
        assert [x.hex() for x in sums[cells].tolist()] == [want[r][j].hex() for r, j in zip(rows, columns[cells])]


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=1, max_value=12), min_size=3, max_size=300))
@example([1, 2, 1, 3])  # 3 ends the sequence: a self-loop row, and an empty order-2 row for (1, 3)
def test_walk_sums_equal_dense_cumulative_rows(values):
    assert_walk_sums_equal_reference(estimate_order2(values), ref.estimate_order2(values))


def test_walk_sums_equal_dense_cumulative_rows_that_end_below_one():
    values = [v for k in range(2, 12) for v in (1, k)]  # 1 moves to ten states once each; 11 ends the sequence
    tm, dense = estimate_order2(values), ref.estimate_order2(values)
    starts, sums, columns, _ = tm.fallback._walk
    assert sums[starts[1] - 2] < 1.0  # ten additions of 0.1 fall short of 1
    assert sums[starts[-2]:].tolist() == [1.0, np.inf]  # the terminal self-loop, then the row's close
    assert columns[starts[-2]:].tolist() == [tm.n_states - 1] * 2
    assert_walk_sums_equal_reference(tm, dense)

    # Rows scaled to end well below 1, over a fallback given by a dense table.
    probs = np.array([[0.2, 0.3, 0.0], [0.0, 0.25, 0.0], [0.1, 0.0, 0.3]])
    values = np.random.default_rng(3).integers(1, 4, size=30)
    tm, dense = estimate_order2(values), ref.estimate_order2(values)
    tm = dataclasses.replace(tm, probs=tm.probs / 2, fallback=ref.from_dense(np.array([1, 2, 3]), probs))
    dense = dataclasses.replace(dense, probs=dense.probs / 2,
                                fallback=ref.DenseTransitionMatrix1(np.array([1, 2, 3]), None, probs))
    assert_walk_sums_equal_reference(tm, dense)


def csr(rows):
    """``(probs, indptr)`` of rows given as lists of floats."""
    return np.array([x for row in rows for x in row], dtype=float), np.cumsum([0, *map(len, rows)])


@settings(max_examples=150)
@given(st.lists(st.lists(st.floats(0.0, 1.0), max_size=40), max_size=30))
@example([])  # no rows at all
@example([[], [], []])  # only empty rows
@example([[0.5] * 30, [], [], [0.25] * 7, [], [0.125] * 40])  # empty rows between long ones
@example([[1 / 300] * 300])  # one 300-cell row
@example([[0.1] * 9, [0.3, 0.3], [1e-300, 0.2]])  # rows that sum to less than 1
def test_running_sums_equal_the_row_by_row_loop(rows):
    # CSR inputs that no estimate makes; each sum is compared bit for bit with the accumulate loop.
    probs, indptr = csr(rows)
    starts, sums, _ = markov._closed_rows(indptr, np.zeros(probs.size, np.int64), probs, 0)
    cells = np.ones(sums.size, bool)
    cells[starts[1:] - 1] = False
    assert sums.dtype == np.float64 and sums.size == probs.size + len(rows)
    assert sums[~cells].tolist() == [np.inf] * len(rows)
    assert [x.hex() for x in sums[cells].tolist()] == [x.hex() for x in ref.running_sums(probs, indptr)]


def walk_table(rows):
    """A first-order matrix with ``rows`` (lists of floats, each cell in column 0) as its CSR rows."""
    probs, indptr = csr(rows)
    n = max(len(rows), 1)
    return markov.TransitionMatrix1(np.arange(n), indptr, np.zeros(probs.size, np.int64), np.zeros(probs.size),
                                    probs, np.full(n, 1.0 / n))


@settings(max_examples=100)
@given(st.lists(st.lists(st.floats(0.0, 1.0), max_size=40), min_size=1, max_size=20))
@example([[]])  # an empty row: its one bucket holds only the close
@example([[0.5, 0.5], [0.25] * 4, [1 / 3] * 3])  # sums that end at 1 fall in the last bucket
@example([[0.1] * 9, [1e-300, 0.2]])  # rows that end below 1
@example([[1 / 300] * 300])  # one 300-cell row
def test_walk_guide_points_at_each_buckets_first_entry(rows):
    starts, sums, _, guide = walk_table(rows)._walk
    want = []
    for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist()):
        width = hi - lo
        buckets = [min(int(x * width), width - 1) for x in sums[lo:hi - 1].tolist()]
        want += [lo + sum(b < bucket for b in buckets) for bucket in range(width)]
    assert guide.tolist() == [*want, sums.size]


def test_a_draw_just_below_one_takes_the_last_bucket():
    # The largest draw falls in a row's last bucket by itself; a running sum of exactly 1.0 only by the clamp,
    # and unclamped its guide entry would be the next row's first.
    u, buckets = 1 - 2**-53, np.arange(1, 100_001)
    assert markov._bucket(np.full(buckets.size, u), buckets).tolist() == (buckets - 1).tolist()
    assert (np.floor(u * buckets) == buckets - 1).all() and (np.floor(1.0 * buckets) == buckets).all()
    assert markov._bucket(np.ones(buckets.size), buckets).tolist() == (buckets - 1).tolist()
    probs = np.array([[0.5, 0.5, 0.0], [0.0, 0.25, 0.25], [1 / 3, 1 / 3, 1 / 3]])  # the middle row ends at 0.5
    lanes = np.empty((2, 4), np.intp)
    markov._lockstep(ref.from_dense(np.array([1, 2, 3]), probs)._walk, np.full((2, 4), u), lanes)
    cum, state, want = ref._cumulative_rows(probs), 0, []
    for _ in range(4):
        state = min(bisect_right(cum[state], u), 2)
        want.append(state)
    assert want == [1, 2, 2, 2] and lanes.tolist() == [want, want]


def zm_rows(n, alpha, beta, gamma):
    """``n`` equal rows of the ZM(alpha, beta, gamma) law over ``n`` ranks."""
    f = alpha / (beta + np.arange(1, n + 1)) ** gamma
    return np.tile(f / f.sum(), (n, 1))


# Chains whose pieces are slow to meet, or whose draws crowd a bucket.
LOCKSTEP_CHAINS = {
    "periodic": np.roll(np.eye(3), 1, axis=1),  # state i moves to i + 1 (mod 3): pieces in the wrong phase never meet
    "sticky": 0.9 * np.eye(40) + 0.1 / 40,  # stays put with probability 0.9, else moves to any state
    "steep": zm_rows(300, 1.0, 0.0, 2.0),  # ZM(1, 0, 2): 187 of a row's 300 sums share its last bucket
    "short": np.array([[0.2, 0.3, 0.0], [0.0, 0.25, 0.0], [0.1, 0.0, 0.3]]),  # rows that sum below one
}
PIECE_LENGTHS = [1, 2, 1024, 1025, 2049]  # no step, one, a whole piece, and one step into a second and a third


def walk_in_lockstep(tm, length, seed):
    """``simulate_order1`` with the lockstep pass taken from one piece on."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(markov, "_LOCKSTEP_PIECES", 1)
        return simulate_order1(tm, length, seed)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(LOCKSTEP_CHAINS)), st.sampled_from(PIECE_LENGTHS), st.integers(0, 2**32 - 1))
def test_lockstep_walk_equals_the_reference_loop(chain, length, seed):
    probs = LOCKSTEP_CHAINS[chain]
    states = np.arange(1, len(probs) + 1) * 7
    got = walk_in_lockstep(ref.from_dense(states, probs), length, seed)
    assert got.tolist() == ref.simulate_order1(ref.DenseTransitionMatrix1(states, None, probs), length, seed).tolist()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=8), min_size=2, max_size=200), st.sampled_from(PIECE_LENGTHS),
       st.integers(0, 2**32 - 1))
def test_lockstep_walk_of_an_estimate_equals_the_reference_loop(values, length, seed):
    got = walk_in_lockstep(estimate_order1(values), length, seed)
    assert got.tolist() == ref.simulate_order1(ref.estimate_order1(values), length, seed).tolist()


def test_walk_of_lockstep_length_equals_the_reference_loop():
    # The fewest pieces that step in lockstep with the module's own constants.
    values = np.random.default_rng(30).integers(1, 301, size=20_000)
    length = markov._LOCKSTEP_PIECES * markov._PIECE + 1
    got = simulate_order1(estimate_order1(values), length, seed=31)
    assert got.tolist() == ref.simulate_order1(ref.estimate_order1(values), length, seed=31).tolist()


@pytest.mark.parametrize("n", [255, 256, 257])
@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_walks_equal_the_reference_loops_where_the_table_dtypes_change(n, scale):
    # The columns move from uint8 to uint16 at n - 1 = 256, the order-1 path at n = 256.  Each state moves
    # 0, 1 or 2 states on (mod n), so the dense order-2 reference stays small; rows scaled to sum to
    # one half send half the draws to the last state through each row's close.
    values = np.cumsum(np.random.default_rng(n).integers(0, 3, size=20_000)) % n + 1
    tm, dense = estimate_order2(values), ref.estimate_order2(values)
    tm1 = dataclasses.replace(tm.fallback, probs=tm.fallback.probs * scale)
    dense1 = dataclasses.replace(dense.fallback, probs=dense.fallback.probs * scale)
    tm = dataclasses.replace(tm, probs=tm.probs * scale, fallback=tm1)
    dense = dataclasses.replace(dense, probs=dense.probs * scale, fallback=dense1)
    assert tm.n_states == n
    want = np.uint8 if n <= 256 else np.uint16
    assert tm1._walk[2].dtype == want and np.asarray(tm._walk[3]).dtype == want
    length = markov._LOCKSTEP_PIECES * markov._PIECE + 1
    assert simulate_order1(tm1, length, seed=n).tolist() == ref.simulate_order1(dense1, length, seed=n).tolist()
    assert simulate_order2(tm, 5_000, seed=n).tolist() == ref.simulate_order2(dense, 5_000, seed=n).tolist()


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


def test_order_test_estimates_order1_once_on_one_cpu(monkeypatch):
    # In-process, the order-2 matrix is built once, on the one first-order matrix.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    calls = []
    for name in ("_count_pairs", "_order1", "_order2"):
        def counted(*args, _name=name, _built=getattr(markov, name)):
            calls.append(_name)
            return _built(*args)

        monkeypatch.setattr(markov, name, counted)
    order_test(order1_source(n=500), replicates=2, seed=0)
    assert sorted(calls) == ["_count_pairs", "_order1", "_order2"]


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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 300), min_size=3, max_size=60), st.integers(2, 12), st.integers(1, 12),
       st.integers(0, 2**32 - 1))
@example([7] * 57 + [1, 2, 300], 6, 4, 5)  # mostly one state
@example([1, 2**53, 2, 2**53 + 1, 2**53, 1, 2**53 + 1, 2] * 8, 30, 20, 1)  # 2**53 + 1 rounds to the float 2**53
def test_order_test_ks_vs_empirical_is_ks_two_sample(values, len1, len2, seed):
    # Each replicate's row comes from one tally of its simulations over the
    # input's states; short replicates over many states leave most of them
    # unseen, which must leave every statistic equal to the loop that hands
    # each one its samples.  assert_equal is == with NaN equal to NaN.  The
    # statistics compare samples as floats, so ranks that round to one float
    # are one state, for the chi-square and its df too.
    report = order_test(seq(values), replicates=3, len1=len1, len2=len2, seed=seed)
    np.testing.assert_equal(dataclasses.asdict(report),
                            dataclasses.asdict(ref.order_test(seq(values), 3, len1, len2, seed)))


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
