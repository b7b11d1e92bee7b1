"""Reference implementations of the Metropolis-Hastings chain and its kernel.

``run_chain`` is the straightforward loop the package's sure-accept
stepping replaces: the same draws (the start, then all proposals in one
call, then all uniforms in one), and one acceptance test per step against
the state the chain is in.  The tests compare the package's seeded chains
against it with exact equality.

The exact kernel of the chain is available in closed form, which gives
two independent checks of the sampler's target: detailed balance holds
entrywise, and power iteration on the kernel recovers F.

``convergence_study`` keeps no chain in memory, so a test that compares
its chains with this loop passes ``sample_paths`` and reads the files
back with ``persist.read_rank_sequence``.
"""

from __future__ import annotations

import numpy as np

from hapaxchain.mh_sampler import MHRunResult


def run_chain(f, n_steps: int, seed=0) -> MHRunResult:
    r_bar = f.r_bar
    rng = np.random.default_rng(seed)
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
    return MHRunResult(samples=out + 1, accepted=accepted)


def acceptance_prob(f, i: int, j: int) -> float:
    """min(1, F_j / F_i); moves toward lower rank are always accepted."""
    for r in (i, j):
        if not 1 <= r <= f.r_bar:
            raise ValueError(f"rank {r} outside 1..{f.r_bar}")
    return min(1.0, float(f.probs[j - 1]) / float(f.probs[i - 1]))


def mh_transition_matrix(f) -> np.ndarray:
    """Exact kernel of the chain as a dense ``r_bar x r_bar`` array:
    off-diagonal (1/r_bar) * min(1, F_j/F_i), diagonal absorbing the
    rejected mass.  Satisfies detailed balance."""
    p = np.asarray(f.probs, dtype=float)
    r_bar = f.r_bar
    accept = np.minimum(1.0, p[None, :] / p[:, None])
    kernel = accept / r_bar
    off_diag_sums = kernel.sum(axis=1) - np.diag(kernel)
    np.fill_diagonal(kernel, 1.0 - off_diag_sums)
    return kernel


def stationary_oracle(p: np.ndarray, tol: float = 1e-13, max_iter: int = 1_000_000) -> np.ndarray:
    """Fixed point of v -> v P of a dense row-stochastic array ``p``, by
    power iteration from the uniform vector.

    Stops when successive iterates differ by less than ``tol`` in max
    norm; raises if the iteration cap is hit first.
    """
    v = np.full(p.shape[0], 1.0 / p.shape[0])
    for _ in range(max_iter):
        v_next = v @ p
        v_next /= v_next.sum()
        if np.abs(v_next - v).max() < tol:
            return v_next
        v = v_next
    raise RuntimeError(f"power iteration did not converge within {max_iter} iterations")


def mean_acceptance_exact(f) -> float:
    """Stationary mean acceptance probability, sum_i F_i (1/r_bar) sum_j a(i,j)."""
    p = np.asarray(f.probs, dtype=float)
    accept = np.minimum(1.0, p[None, :] / p[:, None])
    return float(p @ accept.mean(axis=1))

