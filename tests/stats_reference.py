"""Sort-based reference implementations of the sample statistics.

These are the versions ``stats`` replaced with formulas over each
sample's distinct values and counts:

- ``wmw_test``: midranks from a stable argsort of the pooled sample, then
  tie counts from a second sort inside ``np.unique``;
- ``ks_two_sample``: both ECDFs evaluated by ``searchsorted`` on the
  sorted samples at every pooled observation;
- ``descriptive_stats``: per-observation powers and ``np.median``, and
  the derived mean/sd, Pearson skew and standard error computed here.

The tests compare the package's KS and WMW results against them with
exact equality, and its indicators within a relative 1e-9.
"""

from __future__ import annotations

import math

import numpy as np

from hapaxchain.stats import DescriptiveStats


def midranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties assigned the mean rank of their group."""
    order = np.argsort(x, kind="stable")
    sx = x[order]
    new_group = np.r_[True, sx[1:] != sx[:-1]]
    group = np.cumsum(new_group) - 1
    counts = np.bincount(group)
    ends = np.cumsum(counts)
    mid = ends - (counts - 1) / 2.0
    ranks = np.empty(x.size, dtype=float)
    ranks[order] = mid[group]
    return ranks


def wmw_test(a, b) -> tuple[float, float]:
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    n1, n2 = a.size, b.size
    n = n1 + n2
    pooled = np.concatenate([a, b])
    ranks = midranks(pooled)
    r1 = float(ranks[:n1].sum())
    u = r1 - n1 * (n1 + 1) / 2.0
    mu = n1 * n2 / 2.0

    _, tie_counts = np.unique(pooled, return_counts=True)
    tie_counts = tie_counts.astype(float)
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


def ks_two_sample(a, b) -> float:
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def descriptive_stats(values) -> DescriptiveStats:
    x = np.asarray(values, dtype=float).ravel()
    n = x.size
    mean = float(x.mean())
    centered = x - mean
    centered -= centered.mean()
    variance = float(np.sum(centered**2)) / (n - 1)
    std_dev = math.sqrt(variance)
    scale = float(np.abs(centered).max())
    if scale > 0.0:
        z = centered / scale
        m2 = float(np.mean(z**2))
        skewness = float(np.mean(z**3)) / m2**1.5
        kurtosis = float(np.mean(z**4)) / m2**2
    else:
        skewness = kurtosis = math.nan
    median = float(np.median(x))
    mean_over_sd = mean / std_dev if std_dev > 0.0 else math.nan
    pearson = 3.0 * (mean - median) / std_dev if std_dev > 0.0 else math.nan
    std_error = std_dev / math.sqrt(n)
    return DescriptiveStats(
        n=n, mean=mean, variance=variance, std_dev=std_dev, skewness=skewness, kurtosis=kurtosis,
        median=median, max=float(x.max()), min=float(x.min()), rms=math.sqrt(float(np.mean(x**2))),
        std_error=std_error, mean_over_sd=mean_over_sd, pearson_skew=pearson,
    )
