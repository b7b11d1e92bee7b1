"""Metropolis-Hastings generation of rank sequences.

The chain lives on {1, ..., r_bar} with a uniform proposal, so a move
from i to j is accepted with probability min(1, F_j / F_i) where F is
the target distribution, which is then the chain's stationary
distribution.  A convergence study runs many seeded chains and compares
each to a reference sample with the KS statistic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ranksize import TargetDistribution
from .stats import DEFAULT_LEVELS, _ks_from_counts, _map_on_cpus, check_levels, child_seed, ks_threshold, pass_fractions

__all__ = [
    "MHRunResult",
    "ConvergenceReport",
    "run_chain",
    "iid_sample",
    "convergence_study",
]


@dataclass(frozen=True)
class MHRunResult:
    """One chain: its ranks (int64, one per step) and accepted moves."""

    samples: np.ndarray
    accepted: int


def run_chain(f: TargetDistribution, n_steps: int, seed=0) -> MHRunResult:
    """Generate ``n_steps`` states of the chain.

    The start is a seeded uniform draw over the rank set; each step
    proposes j uniformly, draws u on [0, 1) and accepts when
    u <= min(1, F_j / F_x).  No burn-in is discarded.

    The start and all proposals are drawn as ranks, then all uniforms in
    one call.  Since rounding is monotone, u * F_x <= u * max(F) for every
    state x, so a step with u * max(F) <= F_j is accepted whatever state
    it leaves and keeps its proposal.  Of the undecided rest, a head
    follows a final state (a sure step or the start), so all heads take
    the scalar test u * F_x <= F_j at once, as one vector of the same
    IEEE products and comparisons.  Only a tail, which follows another
    undecided step, runs through the scalar loop, in order, reading a
    head's settled state or the loop's own last state.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    rng = np.random.default_rng(seed)
    out = np.empty(n_steps, dtype=np.int64)  # the chain's ranks
    out[0] = rng.integers(1, f.r_bar + 1)
    out[1:] = rng.integers(1, f.r_bar + 1, size=n_steps - 1)
    us = rng.random(n_steps - 1)  # us[t - 1] decides the step to state t
    p = np.concatenate(([0.0], f.probs))  # p[r] = F_r; rank 0 is no state
    undecided = np.flatnonzero(us * p.max() > p[out[1:]]) + 1
    chained = np.diff(undecided, prepend=-1) == 1  # the state before is undecided too
    heads, tails = undecided[~chained], undecided[chained]
    held, moved = out[heads - 1], out[heads]
    # u <= min(1, F_j/F_x) without the min: u < 1 always holds.
    taken = us[heads - 1] * p[held] <= p[moved]
    out[heads] = np.where(taken, moved, held)
    proposals, before = out[tails], out[tails - 1]
    before[1:][np.diff(tails) == 1] = 0  # a tail after a tail: the loop carries its own state
    probs, settled = p.tolist(), []
    for u, j, b in zip(memoryview(us[tails - 1]), memoryview(proposals), memoryview(before)):
        if b:
            x = b
        if u * probs[x] <= probs[j]:
            x = j
        settled.append(x)
    states = np.fromiter(settled, dtype=np.int64, count=tails.size)
    out[tails] = states
    # A rejected step never stays on its proposal: proposing the current
    # state is always accepted, as u * F_x <= F_x.
    rejected = heads.size - np.count_nonzero(taken) + np.count_nonzero(states != proposals)
    return MHRunResult(samples=out, accepted=n_steps - 1 - int(rejected))


def iid_sample(f: TargetDistribution, size: int, seed) -> np.ndarray:
    """Independent draws of ranks distributed according to F."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    rng = np.random.default_rng(seed)
    return rng.choice(np.arange(1, f.r_bar + 1), size=size, p=f.probs)


@dataclass(frozen=True)
class ConvergenceReport:
    """KS statistics of many chains against a reference sample, and their thresholds and pass fractions."""

    ks_statistics: list[float]
    thresholds: dict[float, float]
    pass_fraction: dict[float, float]


def convergence_study(f: TargetDistribution, runs: int, n_steps: int, reference, seed=0, levels=DEFAULT_LEVELS,
                      halve_alpha: bool = True, on_run: Callable[[int, MHRunResult], None] | None = None
                      ) -> ConvergenceReport:
    """Run independent seeded chains and KS-compare each to ``reference``.

    Run k uses child k of the master seed ``seed`` (an integer, a
    sequence of them, or a ``SeedSequence``), spawn key (..., k), so the
    study is reproducible as a whole and each chain individually, and the
    chains run on every usable CPU (``stats._map_on_cpus``) with the same
    results as one by one.  ``on_run``, when given, is called in this
    process with k and each chain's result, in k order, once all chains
    have run; no chain is kept otherwise.  ``reference`` must hold ranks,
    integers in 1..r_bar: KS is taken from per-rank counts.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    levels = check_levels(levels)
    reference = np.asarray(reference).ravel()
    if reference.size == 0:
        raise ValueError("reference sample must be non-empty")
    is_rank = np.isin(reference, np.arange(1, f.r_bar + 1))
    if not is_rank.all():
        bad = reference[np.argmin(is_rank)].item()
        raise ValueError(f"reference ranks must be integers in 1..{f.r_bar}, got {bad!r}")
    ref_counts = np.bincount(reference.astype(np.int64), minlength=f.r_bar + 1)

    def run(k: int) -> tuple[float, MHRunResult | None]:
        result = run_chain(f, n_steps, child_seed(seed, k))
        ks = _ks_from_counts(np.bincount(result.samples, minlength=f.r_bar + 1), ref_counts)
        return ks, result if on_run is not None else None

    outcomes = _map_on_cpus(run, range(runs))
    if on_run is not None:
        for k, (_, result) in enumerate(outcomes):
            on_run(k, result)
    ks_stats = [ks for ks, _ in outcomes]

    thresholds = {lv: ks_threshold(lv, n_steps, reference.size, halve_alpha) for lv in levels}
    return ConvergenceReport(ks_statistics=ks_stats, thresholds=thresholds,
                             pass_fraction=pass_fractions(ks_stats, thresholds))
