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

_PIECE = 1024  # steps of one piece of an order-1 walk
_LOCKSTEP_PIECES = 64  # from this many pieces on, numpy steps them together first


def _closed_rows(indptr: np.ndarray, indices: np.ndarray, probs: np.ndarray, last: int):
    """``(starts, sums, columns)``: the walk table of the CSR rows ``indptr``, ``indices``, ``probs``.

    Row ``r`` holds its running sums at ``sums[starts[r]:starts[r + 1]]``, closed by ``inf``, and beside
    them in ``columns`` (the smallest unsigned ints that hold ``last``) its columns, closed by ``last``,
    which a draw at or above the row's sum takes: a draw ``u`` steps to ``columns[bisect_right(sums, u,
    starts[r], starts[r + 1])]``.  The sums are added left to right as a dense ``row.cumsum()`` adds (its
    zero cells add exactly ``+0.0``), so every value equals the dense cumulative value at its column: step
    k adds the sum at column k - 1 into column k of every row longer than k at once.
    """
    lengths = np.diff(indptr)
    starts = indptr + np.arange(indptr.size)
    cells = np.ones(starts[-1], bool)
    cells[starts[1:] - 1] = False
    sums = np.full(starts[-1], np.inf)
    sums[cells] = probs
    columns = np.full(starts[-1], last, np.min_scalar_type(last))
    columns[cells] = indices
    longest_first = np.argsort(-lengths)  # so the rows longer than k are a prefix
    firsts = starts[:-1][longest_first]
    for k, longer in enumerate(np.searchsorted(-lengths[longest_first], -np.arange(1, lengths.max(initial=0))), 1):
        at = firsts[:longer] + k
        sums[at] += sums[at - 1]
    return starts, sums, columns


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
    def _walk(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, sums, columns, guide)``, one flat table for both passes of :func:`simulate_order1`:
        :func:`_closed_rows` over the rows, and a guide.  A row of ``G`` entries (the close too) has ``G``
        buckets, ``_bucket(x, G)``; ``guide[starts[r] + b]`` is its first entry in bucket ``b`` or above,
        and one last entry closes the table.
        """
        starts, sums, columns = _closed_rows(self.indptr, self.indices, self.probs, self.n_states - 1)
        widths = np.diff(starts)
        row = np.repeat(np.arange(self.n_states), widths)
        guide = np.searchsorted(starts[row] + _bucket(sums, widths[row]), np.arange(sums.size + 1))
        return starts, sums, columns, guide


def _bucket(x: np.ndarray, buckets: np.ndarray) -> np.ndarray:
    """``min(floor(x · buckets), buckets − 1)`` for ``x ≥ 0``, ``inf`` too: monotone in ``x``, so the entries
    of a row in lower buckets than a draw's are below it, and those in higher buckets above it."""
    return np.minimum(x * buckets, buckets - 1).astype(np.intp)


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
        """Row lookup, and :func:`_closed_rows` of the order-2 rows followed by the fallback rows as
        ``memoryview``s, which a step indexes as it would lists.  The lookup maps the code of each pair
        with an observed continuation to its row; the fallback row of state ``j`` is ``pair_codes.size + j``.
        """
        rows = np.flatnonzero(np.diff(self.indptr))
        table = _closed_rows(np.concatenate((self.indptr, self.fallback.indptr[1:] + self.indptr[-1])),
                             np.concatenate((self.indices, self.fallback.indices)),
                             np.concatenate((self.probs, self.fallback.probs)), self.n_states - 1)
        return dict(zip(self.pair_codes[rows].tolist(), rows.tolist())), *map(memoryview, table)


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


def _states(seq, least: int) -> np.ndarray:
    """``seq`` as int64 states, refused when shorter than ``least``."""
    values = _as_ints(seq, "states must be integers")
    if values.size < least:
        raise ValueError(f"need a sequence of length >= {least}, got {values.size}")
    return values


def estimate_order1(seq) -> TransitionMatrix1:
    """Estimate transition probabilities from consecutive observations.

    A state with no observed outgoing transition (seen only at the end
    of the sequence) gets a self-loop of count 0 and probability 1 so
    the matrix stays stochastic.
    """
    return _order1(_count_pairs(_states(seq, 2)))


def estimate_order2(seq) -> TransitionMatrix2:
    """Estimate next-state probabilities conditioned on the last two states.

    Storage is O(observed pairs + observed triples); no table spans all
    pairs of states.  Temporaries are O(length): states and pairs
    are counted as in :func:`_count_pairs`, and the triples, whose codes
    span pairs × states, by one sort.  ``fallback`` is the sequence's
    first-order matrix.
    """
    counted = _count_pairs(_states(seq, 3))
    return _order2(counted, _order1(counted))


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

    The steps are cut into pieces of ``_PIECE``.  With at least
    ``_LOCKSTEP_PIECES`` of them, numpy first steps all pieces together,
    each from state 0 (:func:`_lockstep`).  Then each piece in turn is
    walked again one step at a time, from the true end of the piece
    before it, until it meets its lockstep path: two walks fed the same
    draws stay together once they meet, so from there on that path is
    the true one.  With fewer pieces that walk is the whole walk.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    rng = np.random.default_rng(seed)
    n = tm.n_states
    current = int(rng.choice(n, p=tm.marginal))
    pieces = -(-(length - 1) // _PIECE)
    path = np.empty(1 + pieces * _PIECE, np.min_scalar_type(n))
    path[0] = current
    if pieces:
        uniforms = rng.random(pieces * _PIECE)
        if pieces >= _LOCKSTEP_PIECES:
            begin = 0
            _lockstep(tm._walk, uniforms.reshape(pieces, _PIECE), path[1:].reshape(pieces, _PIECE))
        else:
            begin = path[1:] = n  # no state, so every piece is walked whole
        starts, sums, columns = map(memoryview, tm._walk[:3])
        draws, walked = memoryview(uniforms), memoryview(path)
        for lo in range(1, length, _PIECE):
            hi = min(lo + _PIECE, length)
            if current != begin:
                for t, u in zip(range(lo, hi), draws[lo - 1:hi - 1]):
                    current = columns[bisect_right(sums, u, starts[current], starts[current + 1])]
                    if current == walked[t]:
                        break
                    walked[t] = current
            current = walked[hi - 1]
    return tm.states[path[:length]]


def _lockstep(walk, uniforms: np.ndarray, lanes: np.ndarray) -> None:
    """Write into each row of ``lanes`` the walk from state 0 that the same row of ``uniforms`` drives,
    one step of every row at a time.  A step starts at the guide entry of its draw's bucket and takes
    one step of the scan over its row's sums; the few lanes still short of their column then bisect
    within the bucket, one at a time."""
    starts, sums, columns, guide = walk
    widths, row_sums = np.diff(starts), memoryview(sums)
    current = np.zeros(len(lanes), np.intp)
    for u, out in zip(uniforms.T, lanes.T):
        bucket = starts[current] + _bucket(u, widths[current])
        entry = guide[bucket]
        entry += sums[entry] <= u
        if (short := np.flatnonzero(sums[entry] <= u)).size:
            entry[short] = [bisect_right(row_sums, *lane) for lane in
                            zip(u[short].tolist(), entry[short].tolist(), guide[bucket[short] + 1].tolist())]
        current = columns[entry]
        out[:] = current


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
        row_of, starts, sums, columns = tm._walk
        fallback_row = tm.pair_codes.size
        for u in memoryview(rng.random(length - 2)):
            r = row_of.get(prev * n + current, fallback_row + current)
            prev, current = current, columns[bisect_right(sums, u, starts[r], starts[r + 1])]
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
    values = _states(seq, 3)
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
