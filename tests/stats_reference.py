"""Sort-based reference implementation of the Wilcoxon-Mann-Whitney test.

This is the version ``stats.wmw_test`` replaced: midranks from a stable
argsort of the pooled sample, then tie counts from a second sort inside
``np.unique``.  The tests compare the package's ``(z, p)`` against it
with exact equality.
"""

from __future__ import annotations

import math

import numpy as np


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
