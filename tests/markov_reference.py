"""Dense reference implementation of order-1/order-2 estimation and simulation.

This is the straightforward kernel the package's CSR rows replace: dense
``states x states`` and ``(observed pairs x states)`` count and
probability tables, cumulative rows rebuilt as Python lists on every
simulation, and a per-row loop for the first-order probabilities.  The tests compare the package's seeded
outputs against it with exact equality.  ``from_dense`` builds the
package's first-order matrix from such a table.

``order_test`` is the replicate loop the package's one-tally rows
replace: it hands each replicate's samples to ``ks_two_sample``,
``wmw_test`` and ``descriptive_stats``, which each sort them again.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, pairwise

import numpy as np

from hapaxchain.markov import (
    INDICATOR_NAMES,
    OrderTestReport,
    TransitionMatrix1,
    estimate_order2,
    simulate_order1,
    simulate_order2,
)
from hapaxchain.stats import (
    DEFAULT_LEVELS,
    _tally,
    child_seed,
    chi_square_gof,
    chi_square_threshold,
    descriptive_stats,
    ks_threshold,
    ks_two_sample,
    pass_fractions,
    shannon_entropy,
    wmw_test,
)


def from_dense(states, probs) -> TransitionMatrix1:
    """Kernel given by a dense ``n x n`` probability table; its non-zero
    entries become the rows, each with count 0 as no transition was
    observed, and the first state is drawn uniformly."""
    probs = np.asarray(probs, dtype=float)
    n = len(probs)
    rows, indices = np.nonzero(probs)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return TransitionMatrix1(np.asarray(states), indptr, indices, np.zeros(rows.size, dtype=np.int64),
                             probs[rows, indices], np.full(n, 1.0 / n))


@dataclass(frozen=True)
class DenseTransitionMatrix1:
    states: np.ndarray
    counts: np.ndarray | None
    probs: np.ndarray
    marginal: np.ndarray | None = None

    @property
    def n_states(self) -> int:
        return int(self.states.size)


@dataclass(frozen=True)
class DenseTransitionMatrix2:
    states: np.ndarray
    pair_index: dict[tuple[int, int], int]
    counts: np.ndarray
    probs: np.ndarray
    pair_marginal: np.ndarray
    fallback: DenseTransitionMatrix1

    @property
    def n_states(self) -> int:
        return int(self.states.size)


def count_pairs(values: np.ndarray):
    """States, each observation's state index, and the observed pair codes ``i * n + j`` with each step's
    row among them and their counts, by two sorts."""
    states, idx = np.unique(values, return_inverse=True)
    return states, idx, *np.unique(idx[:-1] * states.size + idx[1:], return_inverse=True, return_counts=True)


def estimate_order1(seq) -> DenseTransitionMatrix1:
    values = np.asarray(seq, dtype=np.int64)
    if values.size < 2:
        raise ValueError(f"need a sequence of length >= 2, got {values.size}")
    states, idx = np.unique(values, return_inverse=True)
    n = states.size
    counts = np.zeros((n, n), dtype=np.int64)
    np.add.at(counts, (idx[:-1], idx[1:]), 1)
    probs = np.zeros((n, n), dtype=float)
    row_sums = counts.sum(axis=1)
    for i in range(n):
        if row_sums[i] > 0:
            probs[i] = counts[i] / row_sums[i]
        else:
            probs[i, i] = 1.0
    marginal = np.bincount(idx, minlength=n) / values.size
    return DenseTransitionMatrix1(states=states, counts=counts, probs=probs, marginal=marginal)


def estimate_order2(seq) -> DenseTransitionMatrix2:
    values = np.asarray(seq, dtype=np.int64)
    if values.size < 3:
        raise ValueError(f"need a sequence of length >= 3, got {values.size}")
    states, idx, observed_pairs, pair_rows, pair_counts = count_pairs(values)
    n = states.size
    counts = np.zeros((observed_pairs.size, n), dtype=np.int64)
    np.add.at(counts, (pair_rows[:-1], idx[2:]), 1)
    probs = np.zeros_like(counts, dtype=float)
    row_sums = counts.sum(axis=1)
    nz = row_sums > 0
    probs[nz] = counts[nz] / row_sums[nz, None]
    pair_index = {
        (int(states[code // n]), int(states[code % n])): row
        for row, code in enumerate(observed_pairs)
    }
    return DenseTransitionMatrix2(
        states=states,
        pair_index=pair_index,
        counts=counts,
        probs=probs,
        pair_marginal=pair_counts / pair_rows.size,
        fallback=estimate_order1(values),
    )


def _cumulative_rows(probs: np.ndarray) -> list[list[float]]:
    return [row.cumsum().tolist() for row in probs]


def running_sums(probs: np.ndarray, indptr: np.ndarray) -> list[float]:
    """Each CSR row's running sum, one row at a time by ``itertools.accumulate``: the loop that
    ``markov._closed_rows``'s column-at-a-time build replaces."""
    values = memoryview(np.asarray(probs, dtype=float))
    return list(chain.from_iterable(accumulate(values[lo:hi]) for lo, hi in pairwise(np.asarray(indptr).tolist())))


def simulate_order1(tm: DenseTransitionMatrix1, length: int, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = tm.n_states
    weights = tm.marginal if tm.marginal is not None else np.full(n, 1.0 / n)
    current = int(rng.choice(n, p=weights))
    out = np.empty(length, dtype=np.int64)
    out[0] = current
    if length > 1:
        cum = _cumulative_rows(tm.probs)
        us = rng.random(length - 1).tolist()
        for t, u in enumerate(us, start=1):
            current = bisect_right(cum[current], u)
            if current >= n:
                current = n - 1
            out[t] = current
    return tm.states[out]


def simulate_order2(tm: DenseTransitionMatrix2, length: int, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = tm.n_states
    state_pos = {int(s): i for i, s in enumerate(tm.states)}
    pairs = list(tm.pair_index.keys())
    pick = pairs[int(rng.choice(len(pairs), p=tm.pair_marginal))]
    prev, current = state_pos[pick[0]], state_pos[pick[1]]

    out = np.empty(length, dtype=np.int64)
    out[0] = prev
    if length > 1:
        out[1] = current
        cum2 = _cumulative_rows(tm.probs)
        cum1 = _cumulative_rows(tm.fallback.probs)
        row_has_mass = tm.counts.sum(axis=1) > 0
        pair_row = {
            (state_pos[i], state_pos[j]): row for (i, j), row in tm.pair_index.items()
        }
        us = rng.random(length - 2).tolist()
        for t, u in enumerate(us, start=2):
            row = pair_row.get((prev, current))
            if row is not None and row_has_mass[row]:
                nxt = bisect_right(cum2[row], u)
            else:
                nxt = bisect_right(cum1[current], u)
            if nxt >= n:
                nxt = n - 1
            out[t] = nxt
            prev, current = current, nxt
    return tm.states[out[:length]]


def _indicators(sample: np.ndarray) -> dict[str, float]:
    d = descriptive_stats(sample)
    return {"mean": d.mean, "std_dev": d.std_dev, "kurtosis": d.kurtosis, "skewness": d.skewness,
            "entropy": shannon_entropy(np.unique(sample.astype(float), return_counts=True)[1])}


def order_test(seq, replicates: int, len1: int, len2: int, seed, levels=DEFAULT_LEVELS,
               halve_alpha: bool = True) -> OrderTestReport:
    """The package's battery, one statistic call on the samples at a time."""
    values = np.asarray(seq, dtype=np.int64)
    tm2 = estimate_order2(values)
    tm1 = tm2.fallback
    # The statistics compare samples as floats, so ranks that round to one float are one state.
    states, state_counts = np.unique(values.astype(float), return_counts=True)
    df = states.size - 1
    ks_pairs, wmw_ps, chi_stats, ks_emp = [], [], [], []
    indicator_lists: dict[str, list[float]] = {name: [] for name in INDICATOR_NAMES}
    for k in range(replicates):
        sim1 = simulate_order1(tm1, len1, child_seed(seed, 1, k))
        sim2 = simulate_order2(tm2, len2, child_seed(seed, 2, k))
        ks_pairs.append(ks_two_sample(sim1, sim2))
        wmw_ps.append(wmw_test(sim1, sim2)[1])
        chi_stats.append(chi_square_gof(_tally(states, sim1)[1][1], state_counts / values.size)[0])
        ks_emp.append(ks_two_sample(sim1, values))
        for name, val in _indicators(sim1).items():
            indicator_lists[name].append(val)

    thresholds = {
        "ks_first_vs_second": {lv: ks_threshold(lv, len1, len2, halve_alpha) for lv in levels},
        "wmw": {lv: lv for lv in levels},
        "chi_square": {lv: chi_square_threshold(lv, df) for lv in levels},
        "ks_vs_empirical": {lv: ks_threshold(lv, len1, int(values.size), halve_alpha) for lv in levels},
    }
    return OrderTestReport(
        ks_stats_first_vs_second=ks_pairs,
        wmw_p_values=wmw_ps,
        chi_square_stats=chi_stats,
        ks_stats_vs_empirical=ks_emp,
        indicators=indicator_lists,
        indicators_observed=_indicators(values),
        thresholds=thresholds,
        pass_fractions={
            "ks_first_vs_second": pass_fractions(ks_pairs, thresholds["ks_first_vs_second"]),
            "wmw": pass_fractions(wmw_ps, thresholds["wmw"], p_values=True),
            "chi_square": pass_fractions(chi_stats, thresholds["chi_square"]),
            "ks_vs_empirical": pass_fractions(ks_emp, thresholds["ks_vs_empirical"]),
        },
        df=df,
        len1=len1,
        len2=len2,
    )
