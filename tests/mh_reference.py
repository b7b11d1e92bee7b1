"""Scalar reference implementation of the Metropolis-Hastings chain.

This is the straightforward loop the package's sure-accept stepping
replaces: the same draws (the start, then all proposals in one call,
then all uniforms in one), and one acceptance test per step against the
state the chain is in.  The tests compare the package's seeded chains
against it with exact equality.
"""

from __future__ import annotations

import numpy as np

from hapaxchain.corpus import RankSequence
from hapaxchain.mh_sampler import MHConfig, MHRunResult


def run_chain(f, config: MHConfig) -> MHRunResult:
    r_bar = f.r_bar
    rng = np.random.default_rng(config.seed)
    if config.initial_state is not None:
        if not 1 <= config.initial_state <= r_bar:
            raise ValueError(f"initial state {config.initial_state} outside 1..{r_bar}")
        current = config.initial_state - 1
    else:
        current = int(rng.integers(0, r_bar))

    n = config.n_steps
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
    return MHRunResult(
        samples=RankSequence(values=out + 1, alphabet_size=r_bar),
        accepted=accepted,
        acceptance_rate=rate,
    )
