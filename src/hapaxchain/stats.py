"""Statistical primitives shared by the pipeline stages.

Everything in this module is a pure function of its inputs: descriptive
indicators, the two-sample Kolmogorov-Smirnov statistic with its
closed-form threshold family, a chi-square goodness-of-fit statistic,
the Wilcoxon-Mann-Whitney rank-sum test (normal approximation with tie
correction), Shannon entropy, the check on significance levels, per-level
pass fractions, the check that values are integers, the distinct values
of an integer array, the child seeds that replicates and runs draw from,
and the map that spreads those independent draws, and the corpus's
documents, over the usable CPUs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2 as _chi2_dist

__all__ = [
    "DescriptiveStats",
    "descriptive_stats",
    "derived_indicators",
    "ks_two_sample",
    "ks_threshold",
    "pass_fractions",
    "chi_square_gof",
    "chi_square_threshold",
    "wmw_test",
    "shannon_entropy",
]

DEFAULT_LEVELS = (0.05, 0.01, 0.001)


@dataclass(frozen=True)
class DescriptiveStats:
    """Descriptive indicators of a real-valued sample.

    ``variance`` uses the n-1 divisor; ``skewness`` and ``kurtosis`` are
    the population-moment versions (kurtosis is raw, not excess).  On a
    constant sample the moment ratios are undefined and reported as NaN.
    """

    n: int
    mean: float
    variance: float
    std_dev: float
    skewness: float
    kurtosis: float
    median: float
    max: float
    min: float
    rms: float
    std_error: float
    mean_over_sd: float
    pearson_skew: float


def _tally(*samples) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values of the pooled samples, and one row per sample of
    its count of each (as floats): the one place this module sorts pooled
    samples (``_distinct`` sorts only spans beyond its bincount bound).
    Each is sorted in its own dtype; the counts of its values that round to
    one float (ints beyond 2**53) are added up."""
    tallies = [np.unique(np.asarray(s).ravel(), return_counts=True) for s in samples]
    tallies = [(seen.astype(float), c) for seen, c in tallies]
    values = np.unique(np.concatenate([seen for seen, _ in tallies]))
    counts = [np.bincount(np.searchsorted(values, seen), weights=c, minlength=values.size) for seen, c in tallies]
    return values, np.array(counts)


def _as_ints(seq, what: str, least: int = -2**63) -> np.ndarray:
    """``seq`` as int64; a ``ValueError`` that starts with ``what`` names its first value that is not an integer
    int64 holds (integer-valued floats and bools are taken as they are; text is not) or is below ``least``."""
    given = np.asarray(seq)
    if given.dtype.kind in "OSU":  # ints beyond int64, text or None: each value on its own
        flat = given.ravel().tolist()
        if (at := next((k for k, v in enumerate(flat) if not _fits_int64(v)), None)) is not None:
            raise ValueError(f"{what}, got {flat[at]!r} at position {at}")
    with np.errstate(invalid="ignore"):  # NaN and infinities are named below
        values = np.asarray(given, dtype=np.int64)
    bad = values < least
    if given.dtype.kind in "fcu":  # uint64 beyond int64 wraps
        bad |= values != given
    if (at := np.flatnonzero(bad)).size:
        raise ValueError(f"{what}, got {given[at[0]]} at position {at[0]}")
    return values


def _fits_int64(value) -> bool:
    """Whether ``value`` equals the int64 it converts to."""
    try:
        with np.errstate(invalid="ignore"):
            return bool(np.asarray(value, dtype=np.int64) == value)
    except (OverflowError, TypeError, ValueError):
        return False


def _distinct(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(a, return_inverse=True, return_counts=True)`` of a 1-d integer array, with the same values and
    dtypes: one ``bincount`` when the values span at most ``a.size``, as dense ranks do, else the sort.
    Temporaries are O(``a.size``)."""
    lo, hi = (int(a.min()), int(a.max())) if a.size else (0, 0)
    if not a.size or hi - lo > a.size:  # in Python ints: the span may pass 2**63
        return np.unique(a, return_inverse=True, return_counts=True)
    shifted = a - lo
    counts = np.bincount(shifted)
    seen = np.flatnonzero(counts)
    index = np.zeros(counts.size, np.intp)
    index[seen] = np.arange(seen.size)
    return (seen + lo).astype(a.dtype), index[shifted], counts[seen]


def derived_indicators(mean: float, std_dev: float, median: float, n: int) -> tuple[float, float, float]:
    """Return (mean/sd, Pearson skew 3*(mean-median)/sd, standard error).

    NaN for the first two when ``std_dev`` is zero.
    """
    if std_dev > 0.0:
        mean_over_sd = mean / std_dev
        pearson = 3.0 * (mean - median) / std_dev
    else:
        mean_over_sd = math.nan
        pearson = math.nan
    return mean_over_sd, pearson, std_dev / math.sqrt(n)


def descriptive_stats(values) -> DescriptiveStats:
    """Compute the full indicator set for a sample of size >= 2."""
    x, (c,) = _tally(values)
    return _describe(x, c)


def _describe(x, c) -> DescriptiveStats:
    """:func:`descriptive_stats` of a sample given as counts ``c`` of the
    ascending values ``x``; values it does not hold are dropped first."""
    x, c = x[c > 0], c[c > 0]
    n = int(c.sum())
    if n < 2:
        raise ValueError(f"descriptive_stats requires at least 2 values, got {n}")

    mean = float(c @ x) / n
    # Residuals corrected for the rounding of the mean: a constant sample
    # gets exact zeros, and the moments are not skewed by a rounded mean.
    centered = x - mean
    centered -= float(c @ centered) / n
    variance = float(c @ centered**2) / (n - 1)
    std_dev = math.sqrt(variance)
    # Scaled by their largest magnitude so that no power underflows.
    scale = float(np.abs(centered).max())
    if scale > 0.0:
        z = centered / scale
        m2 = float(c @ z**2) / n
        skewness = float(c @ z**3) / n / m2**1.5
        kurtosis = float(c @ z**4) / n / m2**2
    else:
        skewness = kurtosis = math.nan
    # The sorted sample's middle one or two observations.
    median = float(x[np.searchsorted(np.cumsum(c), [(n - 1) // 2, n // 2], side="right")].mean())
    rms = math.sqrt(float(c @ x**2) / n)
    mean_over_sd, pearson, std_error = derived_indicators(mean, std_dev, median, n)
    return DescriptiveStats(
        n=n,
        mean=mean,
        variance=variance,
        std_dev=std_dev,
        skewness=skewness,
        kurtosis=kurtosis,
        median=median,
        max=float(x[-1]),
        min=float(x[0]),
        rms=rms,
        std_error=std_error,
        mean_over_sd=mean_over_sd,
        pearson_skew=pearson,
    )


def ks_two_sample(a, b) -> float:
    """Two-sample KS statistic: sup |ECDF_a - ECDF_b| over pooled values.

    Ties and discrete data are handled exactly by evaluating both ECDFs
    at every distinct pooled value.
    """
    _, (ca, cb) = _tally(a, b)
    return _ks_from_counts(ca, cb)


def _ks_from_counts(ca, cb) -> float:
    """KS statistic of two samples given as counts over the same ascending
    values: the largest gap between their cumulative counts, each divided
    by its total.  Values neither sample holds leave the gap unchanged."""
    na, nb = ca.sum(), cb.sum()
    if na == 0 or nb == 0:
        raise ValueError("ks_two_sample requires two non-empty samples")
    return float(np.abs(np.cumsum(ca) / na - np.cumsum(cb) / nb).max())


def ks_threshold(alpha: float, n: int, m: int, halve_alpha: bool = True) -> float:
    """Critical value sqrt(-0.5 * ln(a) * (n+m)/(n*m)) for the KS statistic.

    With ``halve_alpha`` the significance level is divided by two before
    taking the logarithm, which is the classical two-sided Smirnov
    approximation; without it the formula is applied to ``alpha`` as is.
    Both parameterizations are deliberately exposed.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if n < 1 or m < 1:
        raise ValueError(f"sample sizes must be >= 1, got n={n}, m={m}")
    a = alpha / 2.0 if halve_alpha else alpha
    return math.sqrt(-0.5 * math.log(a) * (n + m) / (n * m))


def pass_fractions(values, thresholds: dict[float, float], p_values: bool = False) -> dict[float, float]:
    """Share of ``values`` that pass at each level of ``thresholds``.

    A statistic passes when it is at or below its threshold; with
    ``p_values`` a value passes when it is above its threshold, the level.
    """
    arr = np.asarray(values)
    return {lv: float(((arr > thr) if p_values else (arr <= thr)).mean()) for lv, thr in thresholds.items()}


def check_levels(levels) -> tuple[float, ...]:
    """``levels`` as a tuple; a ``ValueError`` unless they are non-empty, distinct and each in (0, 1),
    and no two print alike under ``format(lv, "g")``, the key the output files name a level by."""
    levels = tuple(levels)
    if not levels or len(set(levels)) < len(levels) or any(not 0 < lv < 1 for lv in levels):
        raise ValueError(f"levels must be non-empty, distinct and lie in (0, 1), got {levels}")
    keys: dict[str, float] = {}
    for lv in levels:
        other = keys.setdefault(format(lv, "g"), lv)
        if other != lv:
            raise ValueError(f"levels {other!r} and {lv!r} both print as {format(lv, 'g')}; "
                             "output files could not tell them apart")
    return levels


def child_seed(seed, *key: int) -> np.random.SeedSequence:
    """The child ``key`` of a master seed (an integer, a sequence of them, or
    a ``SeedSequence``): its spawn key extended by ``key``."""
    m = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.random.SeedSequence(m.entropy, spawn_key=(*m.spawn_key, *key), pool_size=m.pool_size)


_task = None  # set only in a forked worker, which serves one _map_on_cpus call


def _set_task(fn, cpus: list[int], block: int) -> None:
    global _task
    _task = fn, cpus, block


def _run_task(index: int, item):
    """``fn(item)``; the first item of block ``b`` first moves this worker onto
    ``cpus[b]`` and hands the full set back, so the kernel may still migrate it."""
    fn, cpus, block = _task
    if index % block == 0 and hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {cpus[index // block]})
            os.sched_setaffinity(0, cpus)
        except OSError:  # a CPU this process may not take
            pass
    return fn(item)


def _usable_cpus() -> list[int]:
    """The sorted ids of the CPUs this process may run on."""
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else list(range(os.cpu_count() or 1))


def _map_on_cpus(fn, items) -> list:
    """``[fn(x) for x in items]``, in item order, over blocks of ⌈items /
    usable CPUs⌉ items, each sent as one pool task to a forked worker of
    its own, which starts the block on a CPU of its own: forked workers
    otherwise start, and stay, on this process's CPU.  Each worker inherits
    ``fn`` at the fork, so it may close over arrays; only items and results
    are pickled.  Runs in this process when fewer than two blocks would be
    cut or ``fork`` is missing.  The earliest item's exception reaches the
    caller as ``fn`` raised it, and a worker that dies raises
    ``BrokenProcessPool``; every worker has exited when this returns."""
    # Imported here: only the stages that map over CPUs pay the 4 ms and 0.6 MB they cost.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    items, cpus = list(items), _usable_cpus()
    block = -(-len(items) // len(cpus)) or 1
    workers = -(-len(items) // block)  # one per block, so no worker is forked idle
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(x) for x in items]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_set_task, initargs=(fn, cpus, block)) as pool:
        return list(pool.map(_run_task, range(len(items)), items, chunksize=block))


def chi_square_gof(observed_counts, expected_probs) -> tuple[float, int]:
    """Chi-square goodness-of-fit statistic and degrees of freedom.

    ``expected_probs`` must sum to one (it is renormalized internally, so
    a jointly rescaled vector gives the identical statistic).  States are
    not pooled; df = number of states - 1.
    """
    obs = np.asarray(observed_counts, dtype=float).ravel()
    probs = np.asarray(expected_probs, dtype=float).ravel()
    if obs.size != probs.size:
        raise ValueError(f"state count mismatch: {obs.size} observed vs {probs.size} expected")
    total = obs.sum()
    if total <= 0:
        raise ValueError("chi_square_gof requires a positive total observed count")
    if np.any(probs < 0):
        raise ValueError("expected probabilities must be non-negative")
    psum = probs.sum()
    if psum <= 0:
        raise ValueError("expected probabilities must have a positive sum")
    probs = probs / psum
    zero_expected = probs == 0.0
    if np.any(zero_expected & (obs > 0)):
        raise ValueError("observed count in a state with zero expected probability")
    expected = probs * total
    mask = ~zero_expected
    statistic = float(((obs[mask] - expected[mask]) ** 2 / expected[mask]).sum())
    return statistic, int(obs.size - 1)


def chi_square_threshold(alpha: float, df: int) -> float:
    """Upper critical value of the chi-square distribution with ``df`` dof."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if df < 0:
        raise ValueError(f"df must be >= 0, got {df}")
    if df == 0:
        return 0.0
    return float(_chi2_dist.ppf(1.0 - alpha, df))


def wmw_test(a, b) -> tuple[float, float]:
    """Wilcoxon-Mann-Whitney test, two-sided.

    Uses the rank-sum U of the first sample (midrank ties), the normal
    approximation with tie-corrected variance, and a 0.5 continuity
    correction.  Returns ``(z, p)``.  When every pooled value is equal
    the variance is zero and the degenerate convention (0.0, 1.0) is
    returned.
    """
    _, (ca, cb) = _tally(a, b)
    return _wmw_from_counts(ca, cb)


def _wmw_from_counts(ca, cb) -> tuple[float, float]:
    """:func:`wmw_test` of two samples given as counts over the same
    ascending values; values neither sample holds are dropped first."""
    ca, cb = ca[ca + cb > 0], cb[ca + cb > 0]
    n1, n2 = int(ca.sum()), int(cb.sum())
    if n1 == 0 or n2 == 0:
        raise ValueError("wmw_test requires two non-empty samples")
    n = n1 + n2
    tie_counts = ca + cb
    # Midranks: each tie group takes the mean of the ranks 1..n it spans.
    r1 = float(ca @ (np.cumsum(tie_counts) - (tie_counts - 1) / 2.0))
    u = r1 - n1 * (n1 + 1) / 2.0
    mu = n1 * n2 / 2.0

    tie_term = float((tie_counts**3 - tie_counts).sum())
    variance = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0.0:
        return 0.0, 1.0

    sd = math.sqrt(variance)
    diff = u - mu
    if diff > 0:
        z = (diff - 0.5) / sd
    elif diff < 0:
        z = (diff + 0.5) / sd
    else:
        z = 0.0
    p = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
    return z, p


def shannon_entropy(counts) -> float:
    """Shannon entropy (natural log) of a discrete count vector."""
    c = np.asarray(counts, dtype=float).ravel()
    if np.any(c < 0):
        raise ValueError("counts must be non-negative")
    total = c.sum()
    if total <= 0:
        raise ValueError("shannon_entropy requires a positive total count")
    p = c[c > 0] / total
    return 0.0 - float((p * np.log(p)).sum())  # not -x, which is -0.0 for a single state
