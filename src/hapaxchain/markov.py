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

import numpy as np

from .corpus import RankSequence
from .stats import (
    DEFAULT_LEVELS,
    chi_square_gof,
    chi_square_threshold,
    descriptive_stats,
    ks_threshold,
    ks_two_sample,
    shannon_entropy,
    wmw_test,
)

__all__ = [
    "TransitionMatrix1",
    "TransitionMatrix2",
    "OrderTestConfig",
    "OrderTestReport",
    "estimate_order1",
    "estimate_order2",
    "simulate_order1",
    "simulate_order2",
    "order_test",
]

INDICATOR_NAMES = ("mean", "std_dev", "kurtosis", "skewness", "entropy")


@dataclass(frozen=True)
class TransitionMatrix1:
    """Row-stochastic first-order transition matrix over observed states.

    ``counts`` is None for exact (non-estimated) kernels.  ``marginal``
    is the state distribution used to draw unsupplied initial states.
    """

    states: np.ndarray
    counts: np.ndarray | None
    probs: np.ndarray
    marginal: np.ndarray | None = None

    @property
    def n_states(self) -> int:
        return int(self.states.size)

    def state_index(self, state: int) -> int:
        idx = int(np.searchsorted(self.states, state))
        if idx >= self.states.size or self.states[idx] != state:
            raise ValueError(f"state {state} not in transition matrix")
        return idx


@dataclass(frozen=True)
class TransitionMatrix2:
    """Second-order transition counts/probabilities.

    Rows are indexed by observed ordered state pairs via ``pair_index``.
    ``fallback`` holds the first-order matrix estimated from the same
    sequence; simulation uses its row for the current state whenever a
    pair has no observed continuation.
    """

    states: np.ndarray
    pair_index: dict[tuple[int, int], int]
    counts: np.ndarray
    probs: np.ndarray
    pair_marginal: np.ndarray
    fallback: TransitionMatrix1

    @property
    def n_states(self) -> int:
        return int(self.states.size)


def _as_values(seq) -> np.ndarray:
    if isinstance(seq, RankSequence):
        return np.asarray(seq.values, dtype=np.int64)
    return np.asarray(seq, dtype=np.int64)


def estimate_order1(seq) -> TransitionMatrix1:
    """Estimate transition probabilities from consecutive observations.

    Rows with no observed outgoing transition (a state seen only at the
    end of the sequence) get a self-loop so the matrix stays stochastic.
    """
    values = _as_values(seq)
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
    return TransitionMatrix1(states=states, counts=counts, probs=probs, marginal=marginal)


def estimate_order2(seq) -> TransitionMatrix2:
    """Estimate next-state probabilities conditioned on the last two states."""
    values = _as_values(seq)
    if values.size < 3:
        raise ValueError(f"need a sequence of length >= 3, got {values.size}")
    states, idx = np.unique(values, return_inverse=True)
    n = states.size
    pair_codes = idx[:-1] * n + idx[1:]
    observed_pairs, pair_rows, pair_counts = np.unique(
        pair_codes, return_inverse=True, return_counts=True
    )
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
    return TransitionMatrix2(
        states=states,
        pair_index=pair_index,
        counts=counts,
        probs=probs,
        pair_marginal=pair_counts / pair_codes.size,
        fallback=estimate_order1(values),
    )


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _cumulative_rows(probs: np.ndarray) -> list[list[float]]:
    return [row.cumsum().tolist() for row in probs]


def simulate_order1(tm: TransitionMatrix1, length: int, seed, initial: int | None = None) -> RankSequence:
    """Sample a seeded realization of the chain.

    The initial state is drawn from ``tm.marginal`` (uniform over states
    when no marginal is attached) unless supplied explicitly.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    rng = _rng(seed)
    n = tm.n_states
    if initial is not None:
        current = tm.state_index(initial)
    else:
        weights = tm.marginal if tm.marginal is not None else np.full(n, 1.0 / n)
        current = int(rng.choice(n, p=weights))
    out = np.empty(length, dtype=np.int64)
    out[0] = current
    if length > 1:
        cum = _cumulative_rows(tm.probs)
        us = rng.random(length - 1).tolist()
        for t, u in enumerate(us, start=1):
            current = bisect_right(cum[current], u)
            if current >= n:  # guard against cumulative rounding at 1.0
                current = n - 1
            out[t] = current
    return RankSequence(values=tm.states[out], alphabet_size=int(tm.states.max()))


def simulate_order2(
    tm: TransitionMatrix2, length: int, seed, initial_pair: tuple[int, int] | None = None
) -> RankSequence:
    """Sample a seeded realization driven by the last two states.

    The initial pair is drawn from the empirical pair distribution when
    not supplied.  Unobserved (or continuation-free) pairs fall back to
    the first-order row of the current state.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    rng = _rng(seed)
    n = tm.n_states
    state_pos = {int(s): i for i, s in enumerate(tm.states)}
    if initial_pair is not None:
        try:
            prev, current = (state_pos[int(s)] for s in initial_pair)
        except KeyError:
            raise ValueError(f"initial pair {initial_pair} contains an unknown state") from None
    else:
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
    return RankSequence(values=tm.states[out[:length]], alphabet_size=int(tm.states.max()))


@dataclass(frozen=True)
class OrderTestConfig:
    """Replicate battery settings.

    ``len1``/``len2`` default to the input length and min(100000, input
    length).  ``halve_alpha`` selects the KS threshold parameterization.
    """

    replicates: int = 100
    len1: int | None = None
    len2: int | None = None
    seed: int = 0
    levels: tuple[float, ...] = DEFAULT_LEVELS
    halve_alpha: bool = True

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        for name in ("len1", "len2"):
            length = getattr(self, name)
            if length is not None and length < 1:
                raise ValueError(f"{name} must be >= 1, got {length}")
        if not self.levels or any(not 0 < lv < 1 for lv in self.levels):
            raise ValueError(f"levels must be non-empty and lie in (0, 1), got {self.levels}")


@dataclass(frozen=True)
class OrderTestReport:
    ks_stats_first_vs_second: list[float]
    wmw_p_values: list[float]
    chi_square_stats: list[float]
    ks_stats_vs_empirical: list[float]
    indicators: dict[str, list[float]]
    indicators_observed: dict[str, float]
    thresholds: dict[str, dict[float, float]]
    pass_fractions: dict[str, dict[float, float]]
    df: int
    replicates: int
    len1: int
    len2: int
    seed: int
    levels: tuple[float, ...]
    halve_alpha: bool


def _indicators_of(values: np.ndarray, n_states: int, index_of: np.ndarray) -> dict[str, float]:
    d = descriptive_stats(values)
    counts = np.bincount(index_of, minlength=n_states)
    return {
        "mean": d.mean,
        "std_dev": d.std_dev,
        "kurtosis": d.kurtosis,
        "skewness": d.skewness,
        "entropy": shannon_entropy(counts),
    }


def order_test(seq, config: OrderTestConfig | None = None) -> OrderTestReport:
    """Run the two-step first-order Markovianity battery on a sequence.

    First step: ``replicates`` paired simulations from the estimated
    first- and second-order matrices, compared pairwise (KS statistic,
    WMW p-value).  Second step: each first-order replicate of the
    original length against the empirical sequence (chi-square over the
    observed states, KS, descriptive indicators).
    """
    if config is None:
        config = OrderTestConfig()
    values = _as_values(seq)
    tm1 = estimate_order1(values)
    tm2 = estimate_order2(values)
    len1 = config.len1 if config.len1 is not None else int(values.size)
    len2 = config.len2 if config.len2 is not None else min(100_000, int(values.size))
    n_states = tm1.n_states
    empirical_probs = tm1.marginal
    df = n_states - 1

    ks_pairs: list[float] = []
    wmw_ps: list[float] = []
    chi_stats: list[float] = []
    ks_emp: list[float] = []
    indicator_lists: dict[str, list[float]] = {name: [] for name in INDICATOR_NAMES}

    for k in range(config.replicates):
        sim1 = simulate_order1(
            tm1, len1, np.random.SeedSequence(entropy=config.seed, spawn_key=(1, k))
        ).values
        sim2 = simulate_order2(
            tm2, len2, np.random.SeedSequence(entropy=config.seed, spawn_key=(2, k))
        ).values

        ks_pairs.append(ks_two_sample(sim1, sim2))
        wmw_ps.append(wmw_test(sim1, sim2)[1])

        sim1_idx = np.searchsorted(tm1.states, sim1)
        sim1_counts = np.bincount(sim1_idx, minlength=n_states)
        stat, _ = chi_square_gof(sim1_counts, empirical_probs)
        chi_stats.append(stat)
        ks_emp.append(ks_two_sample(sim1, values))
        for name, val in _indicators_of(sim1, n_states, sim1_idx).items():
            indicator_lists[name].append(val)

    observed = _indicators_of(values, n_states, np.searchsorted(tm1.states, values))

    thresholds = {
        "ks_first_vs_second": {
            lv: ks_threshold(lv, len1, len2, config.halve_alpha) for lv in config.levels
        },
        "wmw": {lv: lv for lv in config.levels},
        "chi_square": {lv: chi_square_threshold(lv, df) for lv in config.levels},
        "ks_vs_empirical": {
            lv: ks_threshold(lv, len1, int(values.size), config.halve_alpha)
            for lv in config.levels
        },
    }
    batteries = {
        "ks_first_vs_second": (ks_pairs, "stat_below"),
        "wmw": (wmw_ps, "p_above"),
        "chi_square": (chi_stats, "stat_below"),
        "ks_vs_empirical": (ks_emp, "stat_below"),
    }
    pass_fractions: dict[str, dict[float, float]] = {}
    for name, (stats_list, mode) in batteries.items():
        arr = np.asarray(stats_list)
        per_level = {}
        for lv in config.levels:
            thr = thresholds[name][lv]
            passed = (arr > thr) if mode == "p_above" else (arr <= thr)
            per_level[lv] = float(passed.mean())
        pass_fractions[name] = per_level

    return OrderTestReport(
        ks_stats_first_vs_second=ks_pairs,
        wmw_p_values=wmw_ps,
        chi_square_stats=chi_stats,
        ks_stats_vs_empirical=ks_emp,
        indicators=indicator_lists,
        indicators_observed=observed,
        thresholds=thresholds,
        pass_fractions=pass_fractions,
        df=df,
        replicates=config.replicates,
        len1=len1,
        len2=len2,
        seed=config.seed,
        levels=tuple(config.levels),
        halve_alpha=config.halve_alpha,
    )
