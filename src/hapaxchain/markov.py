"""First- and second-order Markov structure of a rank sequence.

Transition matrices are estimated over the states actually observed in
the input sequence.  Simulation is seeded and reproducible; replicate
batteries compare first- against second-order simulations (KS statistic
and Wilcoxon-Mann-Whitney p-value per pair) and first-order simulations
against the empirical sequence (chi-square, KS, and five descriptive
indicators), yielding pass fractions against the configured thresholds.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import pairwise

import numpy as np

from .stats import (DEFAULT_LEVELS, _as_ints, _describe, _distinct, _ks_from_counts, _map_on_cpus, _tally,
                    _wmw_from_counts, check_levels, child_seed, chi_square_gof, chi_square_threshold, ks_threshold,
                    pass_fractions, shannon_entropy)

__all__ = [
    "TransitionMatrix1",
    "TransitionMatrix2",
    "OrderTestReport",
    "estimate_order1",
    "estimate_order2",
    "simulate_order1",
    "simulate_order2",
    "order_test",
]

INDICATOR_NAMES = ("mean", "std_dev", "kurtosis", "skewness", "entropy")


def _running_sums(probs: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Each CSR row's running sum, added left to right as a dense ``row.cumsum()`` adds (its zero cells add
    exactly ``+0.0``), so every value equals the dense cumulative value at its column.  Step k adds the sum
    at column k - 1 into column k of every row longer than k at once."""
    lengths = np.diff(indptr)
    longest_first = np.argsort(-lengths)  # so the rows longer than k are a prefix
    starts, cum = indptr[:-1][longest_first], np.array(probs, dtype=float)
    for k, longer in enumerate(np.searchsorted(-lengths[longest_first], -np.arange(1, lengths.max(initial=0))), 1):
        at = starts[:longer] + k
        cum[at] += cum[at - 1]
    return cum


@dataclass(frozen=True)
class _TransitionRows:
    """Transition counts and probabilities as CSR rows over observed states.

    Row ``r`` keeps its non-zero entries at ``indptr[r]:indptr[r + 1]`` of
    ``indices`` (next-state index), ``counts`` and ``probs`` (non-negative).
    """

    states: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    counts: np.ndarray
    probs: np.ndarray

    @property
    def n_states(self) -> int:
        return int(self.states.size)


@dataclass(frozen=True)
class TransitionMatrix1(_TransitionRows):
    """Row-stochastic first-order matrix; row ``i`` belongs to state index
    ``i``.  ``marginal`` draws the first state."""

    marginal: np.ndarray

    @cached_property
    def _walk(self) -> tuple[list[list[float]], list[list[int]]]:
        """Each row's running sums (:func:`_running_sums`) and columns as
        Python lists; the column list ends in the last state, taken by a
        draw at or above the row's sum."""
        indptr = self.indptr.tolist()
        cum, indices, last = _running_sums(self.probs, self.indptr).tolist(), self.indices.tolist(), [self.n_states - 1]
        return [cum[lo:hi] for lo, hi in pairwise(indptr)], [indices[lo:hi] + last for lo, hi in pairwise(indptr)]


@dataclass(frozen=True)
class TransitionMatrix2(_TransitionRows):
    """Second-order matrix; row ``r`` belongs to the observed ordered pair
    of state indices ``(i, j)`` with ``pair_codes[r] == i * n_states + j``
    (sorted), drawn from the empirical pair distribution ``pair_marginal``.
    A pair seen only at the end of the sequence has an empty row.
    ``fallback`` is the first-order matrix of the same sequence; simulation
    uses its row for the current state whenever a pair has no continuation.
    """

    pair_codes: np.ndarray
    pair_marginal: np.ndarray
    fallback: TransitionMatrix1

    @cached_property
    def _walk(self) -> tuple[dict[int, int], memoryview, memoryview, memoryview]:
        """Row lookup, and ``(indptr, indices, cum)`` of the order-2 rows
        followed by the fallback rows, as views of numpy arrays: a step
        indexes them as it would lists, and they take no Python object a cell.

        The lookup maps the code of each pair with an observed
        continuation to its row; the fallback row of state ``j`` is
        ``pair_codes.size + j``.
        """
        rows = np.flatnonzero(np.diff(self.indptr))
        indptr = np.concatenate((self.indptr, self.fallback.indptr[1:] + self.indptr[-1]))
        return (
            dict(zip(self.pair_codes[rows].tolist(), rows.tolist())),
            memoryview(indptr),
            memoryview(np.concatenate((self.indices, self.fallback.indices))),
            memoryview(_running_sums(np.concatenate((self.probs, self.fallback.probs)), indptr)),
        )


def _count_pairs(values: np.ndarray):
    """The one counting pass over a sequence: its sorted distinct
    ``states``, the state index ``idx`` of each observation, the sorted
    codes ``i * n + j`` of the observed transitions ``pair_codes``, the
    row in ``pair_codes`` of each step, and the ``pair_counts``.  Both
    counts are ``stats._distinct``'s, so temporaries are O(length): a
    bincount for dense ranks, and for their pair codes while states² stays
    within the length, a sort for sparse or huge ids."""
    states, idx, _ = _distinct(values)
    return states, idx, *_distinct(idx[:-1] * states.size + idx[1:])


def _count_rows(codes: np.ndarray, counts: np.ndarray, n_rows: int, n_states: int):
    """CSR ``(indptr, indices, counts, probs)`` of the transitions with the
    sorted codes ``row * n_states + next``, seen ``counts`` times each; a
    row with no transition is empty."""
    rows, indices = np.divmod(codes, n_states)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows))))
    return indptr, indices, counts, counts / np.bincount(rows, weights=counts, minlength=n_rows)[rows]


def _order1(counted) -> TransitionMatrix1:
    """First-order matrix of a sequence counted by :func:`_count_pairs`."""
    states, idx, pair_codes, _, pair_counts = counted
    n = states.size
    indptr, indices, counts, probs = _count_rows(pair_codes, pair_counts, n, n)
    empty = np.diff(indptr) == 0
    terminal, at = np.flatnonzero(empty), indptr[:-1][empty]
    return TransitionMatrix1(
        states=states,
        indptr=indptr + np.concatenate(([0], np.cumsum(empty))),
        indices=np.insert(indices, at, terminal),
        counts=np.insert(counts, at, 0),
        probs=np.insert(probs, at, 1.0),
        marginal=np.bincount(idx, minlength=n) / idx.size,
    )


def estimate_order1(seq) -> TransitionMatrix1:
    """Estimate transition probabilities from consecutive observations.

    A state with no observed outgoing transition (seen only at the end
    of the sequence) gets a self-loop of count 0 and probability 1 so
    the matrix stays stochastic.
    """
    values = _as_ints(seq, "states must be integers")
    if values.size < 2:
        raise ValueError(f"need a sequence of length >= 2, got {values.size}")
    return _order1(_count_pairs(values))


def estimate_order2(seq) -> TransitionMatrix2:
    """Estimate next-state probabilities conditioned on the last two states.

    Storage is O(observed pairs + observed triples); no table spans all
    pairs of states.  Temporaries are O(length): states and pairs
    are counted as in :func:`_count_pairs`, and the triples, whose codes
    span pairs × states, by one sort.  ``fallback`` is the sequence's
    first-order matrix.
    """
    counted = _count_pairs(_order2_states(seq))
    return _order2(counted, _order1(counted))


def _order2_states(seq) -> np.ndarray:
    """``seq`` as int64 states, refused when shorter than an order-2 matrix needs."""
    values = _as_ints(seq, "states must be integers")
    if values.size < 3:
        raise ValueError(f"need a sequence of length >= 3, got {values.size}")
    return values


def _order2(counted, fallback: TransitionMatrix1) -> TransitionMatrix2:
    """Second-order matrix of a sequence counted by :func:`_count_pairs`, over its first-order ``fallback``."""
    states, idx, pair_codes, pair_rows, pair_counts = counted
    n = states.size
    codes, counts = np.unique(pair_rows[:-1] * n + idx[2:], return_counts=True)
    return TransitionMatrix2(
        states,
        *_count_rows(codes, counts, pair_codes.size, n),
        pair_codes=pair_codes,
        pair_marginal=pair_counts / pair_rows.size,
        fallback=fallback,
    )


def simulate_order1(tm: TransitionMatrix1, length: int, seed) -> np.ndarray:
    """Sample a seeded realization of the chain: ``length`` states.

    The first state is drawn from ``tm.marginal``.  Each step takes the
    first non-zero column whose cumulative probability exceeds a uniform
    draw (the last state if the row's sum falls short of it).
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    rng = np.random.default_rng(seed)
    current = int(rng.choice(tm.n_states, p=tm.marginal))
    path = [current]
    if length > 1:
        cum, columns = tm._walk
        for u in memoryview(rng.random(length - 1)):
            current = columns[current][bisect_right(cum[current], u)]
            path.append(current)
    return tm.states[np.fromiter(path, np.intp, length)]


def simulate_order2(tm: TransitionMatrix2, length: int, seed) -> np.ndarray:
    """Sample a seeded realization driven by the last two states: ``length`` states.

    The first pair is drawn from the empirical pair distribution
    ``tm.pair_marginal``.  Unobserved (or continuation-free) pairs fall
    back to the first-order row of the current state.  Steps draw as in
    :func:`simulate_order1`.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    rng = np.random.default_rng(seed)
    n = tm.n_states
    prev, current = divmod(int(tm.pair_codes[rng.choice(tm.pair_codes.size, p=tm.pair_marginal)]), n)
    path = [prev, current]
    if length > 2:
        row_of, indptr, indices, cum = tm._walk
        fallback_row = tm.pair_codes.size
        last = n - 1
        for u in memoryview(rng.random(length - 2)):
            r = row_of.get(prev * n + current, fallback_row + current)
            hi = indptr[r + 1]
            k = bisect_right(cum, u, indptr[r], hi)
            prev, current = current, (indices[k] if k < hi else last)
            path.append(current)
    return tm.states[np.fromiter(path, np.intp, length)]


@dataclass(frozen=True)
class OrderTestReport:
    """The battery's statistics, thresholds and pass fractions, its chi-square df and replicate lengths."""

    ks_stats_first_vs_second: list[float]
    wmw_p_values: list[float]
    chi_square_stats: list[float]
    ks_stats_vs_empirical: list[float]
    indicators: dict[str, list[float]]
    indicators_observed: dict[str, float]
    thresholds: dict[str, dict[float, float]]
    pass_fractions: dict[str, dict[float, float]]
    df: int
    len1: int
    len2: int


def _indicators(x: np.ndarray, c: np.ndarray) -> tuple[float, ...]:
    """The ``INDICATOR_NAMES`` of a sequence given as counts ``c`` of the states ``x``."""
    d = _describe(x, c)
    return d.mean, d.std_dev, d.kurtosis, d.skewness, shannon_entropy(c)


def _replicate(c1: np.ndarray, c2: np.ndarray, x: np.ndarray, observed: np.ndarray,
               marginal: np.ndarray) -> tuple[float, ...]:
    """A replicate's row from the counts ``c1`` and ``c2`` of its order-1 and order-2
    simulations over the states ``x``: the order-1 simulation's KS and WMW p-value against
    the order-2 one, then its chi-square against ``marginal``, its KS against the input's
    state counts ``observed``, and its indicators."""
    return (_ks_from_counts(c1, c2), _wmw_from_counts(c1, c2)[1], chi_square_gof(c1, marginal)[0],
            _ks_from_counts(c1, observed), *_indicators(x, c1))


def order_test(seq, replicates: int = 100, len1: int | None = None, len2: int | None = None, seed=0,
               levels=DEFAULT_LEVELS, halve_alpha: bool = True) -> OrderTestReport:
    """Run the two-step first-order Markovianity battery on a sequence.

    First step: ``replicates`` paired simulations from the estimated
    first- and second-order matrices, of lengths ``len1`` (default: the
    input length) and ``len2`` (default: min(100000, input length)),
    compared pairwise (KS statistic, WMW p-value).  Second step: each
    first-order replicate against the empirical sequence (chi-square over
    the observed states, KS, descriptive indicators).  Replicate k draws
    from children (1, k) and (2, k) of the master seed ``seed`` (an
    integer, a sequence of them, or a ``SeedSequence``), so the
    simulations run on every usable CPU (``stats._map_on_cpus``) with
    the same results as one by one.  This process counts the sequence and
    builds the first-order matrix before the walks start; each process
    that runs an order-2 walk (a forked worker, or this one when the walks
    run here) builds the second-order matrix from those counts, once.
    ``halve_alpha`` selects the KS threshold parameterization.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    for name, length, least in (("len1", len1, 2), ("len2", len2, 1)):  # indicators need two values
        if length is not None and length < least:
            raise ValueError(f"{name} must be >= {least}, got {length}")
    levels = check_levels(levels)
    values = _order2_states(seq)
    counted = _count_pairs(values)
    tm1 = _order1(counted)
    len1 = len1 if len1 is not None else int(values.size)
    len2 = len2 if len2 is not None else min(100_000, int(values.size))
    # The chi-square's states are the tally's: ranks that round to one float (ints beyond 2**53) are one.
    x, (_, observed) = _tally(tm1.states, values)
    df = x.size - 1
    tm2 = cache(partial(_order2, counted, tm1))  # built by the first order-2 walk of the process that runs it
    simulations = {1: (simulate_order1, lambda: tm1, len1), 2: (simulate_order2, tm2, len2)}

    def counts(task: tuple[int, int]) -> np.ndarray:
        order, k = task
        simulate, matrix, length = simulations[order]
        return _tally(tm1.states, simulate(matrix(), length, child_seed(seed, order, k)))[1][1]

    c = _map_on_cpus(counts, [(order, k) for k in range(replicates) for order in (1, 2)])
    rows = [_replicate(c1, c2, x, observed, observed / values.size) for c1, c2 in zip(c[0::2], c[1::2])]
    ks_pairs, wmw_ps, chi_stats, ks_emp, *indicators = map(list, zip(*rows))

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
        indicators=dict(zip(INDICATOR_NAMES, indicators)),
        indicators_observed=dict(zip(INDICATOR_NAMES, _indicators(x, observed))),
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
