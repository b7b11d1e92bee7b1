"""Scalar reference implementation of the Metropolis-Hastings chain.

This is the straightforward loop the package's sure-accept stepping
replaces: the same draws (the start, then all proposals in one call,
then all uniforms in one), and one acceptance test per step against the
state the chain is in.  The tests compare the package's seeded chains
against it with exact equality.
"""

from __future__ import annotations

import numpy as np

from hapaxchain.mh_sampler import MHRunResult


def run_chain(f, n_steps: int, seed=0, initial_state: int | None = None) -> MHRunResult:
    r_bar = f.r_bar
    rng = np.random.default_rng(seed)
    if initial_state is not None:
        if not 1 <= initial_state <= r_bar:
            raise ValueError(f"initial state {initial_state} outside 1..{r_bar}")
        current = initial_state - 1
    else:
        current = int(rng.integers(0, r_bar))

    n = n_steps
    out = np.empty(n, dtype=np.int64)
    out[0] = current
    accepted = 0
    if n > 1:
        proposals = rng.integers(0, r_bar, size=n - 1).tolist()
        us = rng.random(n - 1).tolist()
        probs = f.probs.tolist()
        for t in range(1, n):
            j = proposals[t - 1]
            if us[t - 1] * probs[current] <= probs[j]:
                current = j
                accepted += 1
            out[t] = current
    rate = accepted / (n - 1) if n > 1 else 1.0
    return MHRunResult(samples=out + 1, accepted=accepted, acceptance_rate=rate)
