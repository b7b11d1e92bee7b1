"""Metropolis-Hastings sampler, exact-kernel oracles and convergence study."""

import functools
import itertools
from types import SimpleNamespace

import mh_reference as ref
import numpy as np
import pytest
import stats_reference
from hypothesis import given, settings
from hypothesis import strategies as st
from mh_reference import acceptance_prob, mean_acceptance_exact, mh_transition_matrix, stationary_oracle

from hapaxchain.mh_sampler import (
    convergence_study,
    iid_sample,
    run_chain,
)
from hapaxchain.ranksize import TargetDistribution, ZMParams, target_distribution

REFERENCE_PARAMS = ZMParams(alpha=6.029e8, beta=2540.0, gamma=1.896)


def target(*probs):
    return TargetDistribution(probs=np.asarray(probs, dtype=float))


def random_target(rng, size):
    # bounded away from zero so the probabilities stay comparable
    raw = np.sort(rng.uniform(0.1, 1.0, size=size))[::-1]
    raw = raw * np.linspace(1.1, 1.0, size)  # enforce strict decrease
    raw = np.sort(raw)[::-1]
    if np.any(np.diff(raw) >= 0):  # nudge exact ties apart
        raw = raw + np.linspace(size * 1e-9, 0.0, size)
    return TargetDistribution(probs=raw / raw.sum())


# --------------------------------------------------------------- acceptance


def test_acceptance_identity():
    f = target(0.5, 0.3, 0.2)
    assert acceptance_prob(f, 2, 2) == 1.0


def test_acceptance_downhill_always_accepted():
    f = target(0.5, 0.3, 0.2)
    assert acceptance_prob(f, 3, 1) == 1.0
    assert acceptance_prob(f, 2, 1) == 1.0


def test_acceptance_hand_ratios():
    f = target(0.5, 0.3, 0.2)
    assert acceptance_prob(f, 1, 2) == pytest.approx(0.6)
    assert acceptance_prob(f, 2, 3) == pytest.approx(2 / 3)
    assert acceptance_prob(f, 3, 1) == 1.0


def test_acceptance_out_of_range():
    f = target(0.5, 0.3, 0.2)
    with pytest.raises(ValueError):
        acceptance_prob(f, 0, 1)
    with pytest.raises(ValueError):
        acceptance_prob(f, 1, 4)


# -------------------------------------------------------------------- chain


@pytest.mark.parametrize("n_steps", [1, 2, 3, 100])
def test_chain_single_state(n_steps):
    # r_bar = 1: each step proposes the one rank and is sure, so no step is a head or a tail.
    f = target(1.0)
    for seed in range(3):
        result = run_chain(f, n_steps=n_steps, seed=seed)
        assert result.samples.tolist() == [1] * n_steps
        assert result.accepted == n_steps - 1
        assert_same_chain(f, n_steps=n_steps, seed=seed)


def test_chain_seed_determinism():
    f = target(0.5, 0.3, 0.2)
    cfg = dict(n_steps=5000, seed=314)
    a = run_chain(f, **cfg)
    b = run_chain(f, **cfg)
    assert np.array_equal(a.samples, b.samples)
    assert a.accepted == b.accepted


def test_chain_different_seeds_differ():
    f = target(0.5, 0.3, 0.2)
    a = run_chain(f, n_steps=1000, seed=1)
    b = run_chain(f, n_steps=1000, seed=2)
    assert not np.array_equal(a.samples, b.samples)


def test_chain_frequencies_match_target():
    f = target(0.5, 0.3, 0.2)
    result = run_chain(f, n_steps=200_000, seed=77)
    freqs = np.bincount(result.samples, minlength=4)[1:] / 200_000
    assert np.abs(freqs - f.probs).max() < 0.01


def test_chain_acceptance_rate_matches_exact_mean():
    f = target_distribution(REFERENCE_PARAMS, 300)
    result = run_chain(f, n_steps=100_000, seed=5)
    assert result.accepted / (100_000 - 1) == pytest.approx(mean_acceptance_exact(f), abs=0.01)


@pytest.mark.parametrize("n_steps", [1, 2, 1000])
def test_chain_samples_are_one_int64_rank_per_step(n_steps):
    samples = run_chain(target(0.5, 0.3, 0.2), n_steps, seed=3).samples
    assert samples.dtype == np.int64 and samples.ndim == 1
    assert len(samples) == n_steps


def test_chain_rejects_fewer_than_one_step():
    with pytest.raises(ValueError, match="n_steps must be >= 1"):
        run_chain(target(0.5, 0.3, 0.2), 0)


@pytest.mark.parametrize("size", [0, -2])
def test_iid_sample_rejects_a_size_below_one(size):
    with pytest.raises(ValueError, match=rf"^size must be >= 1, got {size}$"):
        iid_sample(target(0.5, 0.3, 0.2), size, seed=0)


def test_target_rejects_nan_probabilities():
    with pytest.raises(ValueError):
        TargetDistribution(probs=np.array([0.6, 0.4, np.nan]))


# ------------------------------------- sure-accept stepping vs the scalar loop


def assert_same_chain(f, **chain):
    fast, slow = run_chain(f, **chain), ref.run_chain(f, **chain)
    assert np.array_equal(fast.samples, slow.samples)
    assert fast.samples.dtype == slow.samples.dtype
    assert fast.accepted == slow.accepted


chain_configs = st.fixed_dictionaries(
    {"n_steps": st.integers(min_value=1, max_value=3000), "seed": st.integers(min_value=0, max_value=2**63)}
)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=300), st.floats(min_value=10.0, max_value=1e5),
       st.floats(min_value=0.5, max_value=3.0), chain_configs)
def test_chain_equals_scalar_loop_on_flat_targets(r_bar, beta_per_rank, gamma, config):
    # beta far above r_bar: nearly every proposal is settled as sure
    assert_same_chain(target_distribution(ZMParams(1.0, beta_per_rank * r_bar, gamma), r_bar), **config)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=300), st.floats(min_value=1.5, max_value=4.0), chain_configs)
def test_chain_equals_scalar_loop_on_steep_targets(r_bar, gamma, config):
    # beta = 0: nearly every proposal goes through the scalar test
    assert_same_chain(target_distribution(ZMParams(1.0, 0.0, gamma), r_bar), **config)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=300), chain_configs)
def test_chain_equals_scalar_loop_on_uniform_target(r_bar, config):
    # Every step is sure.  TargetDistribution requires a strict decrease,
    # so the uniform law is a plain namespace with the fields run_chain reads.
    assert_same_chain(SimpleNamespace(probs=np.full(r_bar, 1.0 / r_bar), r_bar=r_bar), **config)


@functools.cache
def seeds_starting_at(start, r_bar=300, count=3):
    """The first ``count`` seeds whose chain starts at rank ``start``: its
    first draw, uniform over 1..r_bar, lands on ``start``."""
    seeds = itertools.count() if start is None else (
        seed for seed in itertools.count() if np.random.default_rng(seed).integers(1, r_bar + 1) == start)
    return list(itertools.islice(seeds, count))


@pytest.mark.parametrize("params", [REFERENCE_PARAMS, ZMParams(1.0, 0.0, 1.5), ZMParams(1.0, 10.0, 1.0)])
@pytest.mark.parametrize("n_steps", [1, 2, 3, 5000])
@pytest.mark.parametrize("start", [None, 1, 150, 300])
def test_chain_equals_scalar_loop_on_short_chains_and_fixed_starts(params, n_steps, start):
    f = target_distribution(params, 300)
    for seed in seeds_starting_at(start):
        assert_same_chain(f, n_steps=n_steps, seed=seed)
        assert start is None or run_chain(f, n_steps, seed).samples[0] == start


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=99),
       st.integers(min_value=1, max_value=2000))
def test_chain_equals_scalar_loop_under_seed_sequences(entropy, k, n_steps):
    # the seeds convergence_study hands its runs
    f = target_distribution(REFERENCE_PARAMS, 300)
    assert_same_chain(f, n_steps=n_steps, seed=np.random.SeedSequence(entropy, spawn_key=(k,)))


# From all sure (one rank) to nearly all undecided (beta = 0): a proposal of
# rank 1 is always sure, so no law leaves every step undecided.
CROSS_CHECK_LAWS = {
    "paper": (REFERENCE_PARAMS, 300),
    "beta10-gamma1": (ZMParams(1.0, 10.0, 1.0), 300),
    "beta0-gamma1.5": (ZMParams(1.0, 0.0, 1.5), 300),
    "one-rank": (REFERENCE_PARAMS, 1),
}


def replay(f, n_steps, seed):
    """The uniforms and proposals of steps 1..n_steps-1 of the seeded chain,
    entry t - 1 for step t, from the chain's own draws replayed."""
    rng = np.random.default_rng(seed)
    rng.integers(1, f.r_bar + 1)
    proposals = rng.integers(1, f.r_bar + 1, size=n_steps - 1)
    return rng.random(n_steps - 1), proposals


def undecided_steps(f, n_steps, seed):
    """Steps 1..n_steps-1 of the seeded chain that are not sure accepts,
    u * max(F) > F_j."""
    us, proposals = replay(f, n_steps, seed)
    return us * f.probs.max() > f.probs[proposals - 1]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CROSS_CHECK_LAWS)), st.one_of(st.integers(1, 3), st.integers(4, 5000)),
       st.integers(min_value=0, max_value=2**63))
def test_chain_equals_scalar_loop_across_laws(law, n_steps, seed):
    assert_same_chain(target_distribution(*CROSS_CHECK_LAWS[law]), n_steps=n_steps, seed=seed)


@pytest.mark.parametrize("law", ["paper", "beta10-gamma1", "beta0-gamma1.5"])
@pytest.mark.parametrize("n_steps", [5, 2000])
def test_chain_equals_scalar_loop_with_undecided_runs_at_both_ends(law, n_steps):
    # The first two and the last two steps are undecided: the loop starts
    # from the start state and carries its own state into the chain's end.
    f = target_distribution(*CROSS_CHECK_LAWS[law])
    seeds = (s for s in itertools.count() if undecided_steps(f, n_steps, s)[[0, 1, -2, -1]].all())
    for seed in itertools.islice(seeds, 3):
        assert_same_chain(f, n_steps=n_steps, seed=seed)


def after(mask):
    """For each step t of ``mask`` (steps 1..n-1), whether step t - 1 is set: never for step 1, after the start."""
    return np.append(False, mask[:-1])


def lone_undecided_step_rejected_after_a_sure_step(f, us, j, undecided, rejected, before):
    next_undecided = np.append(undecided[1:], True)  # the last step has no sure step after it
    return (undecided & ~after(undecided) & ~next_undecided & rejected)[1:].any()


def tail_after_a_rejected_head(f, us, j, undecided, rejected, before):
    # The tail reads the head's settled state, which is the state before the
    # head; reading the head's proposal instead would decide it the other way.
    p = np.append(0.0, f.probs)
    head = (undecided & ~after(undecided) & rejected)[:-1] & undecided[1:]
    tail_takes = us[1:] * p[before[1:]] <= p[j[1:]]
    return (head & (tail_takes != (us[1:] * p[j[:-1]] <= p[j[1:]]))).any()


def step_one_undecided_and_rejected(f, us, j, undecided, rejected, before):
    return undecided[0] and rejected[0]


def last_step_undecided_as_a_head(f, us, j, undecided, rejected, before):
    return undecided[-1] and rejected[-1] and not undecided[-2]


def last_step_undecided_as_a_tail(f, us, j, undecided, rejected, before):
    return undecided[-1] and rejected[-1] and undecided[-2]


@functools.cache
def seeds_where(case, law, n_steps, count=2):
    """The first ``count`` seeds whose chain of ``n_steps`` has ``case``, from its draws replayed."""
    f = target_distribution(*CROSS_CHECK_LAWS[law])

    def has_case(seed):
        us, proposals = replay(f, n_steps, seed)
        chain = ref.run_chain(f, n_steps, seed).samples
        undecided = us * f.probs.max() > f.probs[proposals - 1]
        return case(f, us, proposals, undecided, chain[1:] != proposals, chain[:-1])

    return list(itertools.islice(filter(has_case, itertools.count()), count))


@pytest.mark.parametrize("law", ["paper", "beta10-gamma1", "beta0-gamma1.5"])
@pytest.mark.parametrize("case, n_steps", [
    (lone_undecided_step_rejected_after_a_sure_step, 2000), (tail_after_a_rejected_head, 2000),
    (step_one_undecided_and_rejected, 6), (last_step_undecided_as_a_head, 6), (last_step_undecided_as_a_tail, 6)],
    ids=lambda case: getattr(case, "__name__", None))
def test_chain_equals_scalar_loop_at_each_kind_of_undecided_step(case, n_steps, law):
    # A head follows a final state and is decided in the vector pass; a tail
    # follows an undecided step and is decided in the scalar loop.
    f = target_distribution(*CROSS_CHECK_LAWS[law])
    for seed in seeds_where(case, law, n_steps):
        assert_same_chain(f, n_steps=n_steps, seed=seed)


# ------------------------------------------------------------ exact kernel


def test_kernel_hand_rows():
    f = target(0.5, 0.3, 0.2)
    kernel = mh_transition_matrix(f)
    np.testing.assert_allclose(kernel[0], [2 / 3, 0.2, 2 / 15], atol=1e-15)
    np.testing.assert_allclose(kernel[1], [1 / 3, 4 / 9, 2 / 9], atol=1e-15)
    np.testing.assert_allclose(kernel[2], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_kernel_near_uniform_target_is_near_uniform():
    # in the flat-target limit every acceptance is ~1 and the kernel
    # approaches the proposal itself, 1/r_bar everywhere
    eps = 1e-9
    raw = 1.0 + eps * np.arange(4, 0, -1)
    f = TargetDistribution(probs=raw / raw.sum())
    kernel = mh_transition_matrix(f)
    np.testing.assert_allclose(kernel, 0.25, atol=1e-8)
    np.testing.assert_allclose(kernel.sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=300), st.integers(min_value=0, max_value=10_000))
def test_kernel_detailed_balance(size, seed):
    f = random_target(np.random.default_rng(seed), size)
    kernel = mh_transition_matrix(f)
    p = f.probs
    flux = p[:, None] * kernel
    np.testing.assert_allclose(kernel.sum(axis=1), 1.0, atol=1e-12)
    off = ~np.eye(size, dtype=bool)
    assert np.abs(flux - flux.T)[off].max() < 1e-14


def test_kernel_stationarity_direct():
    f = target_distribution(REFERENCE_PARAMS, 300)
    kernel = mh_transition_matrix(f)
    assert np.abs(f.probs @ kernel - f.probs).max() < 1e-12


# ----------------------------------------------------------------- oracle


def test_oracle_one_state():
    np.testing.assert_allclose(stationary_oracle(np.array([[1.0]])), [1.0])


def test_oracle_doubly_stochastic_uniform():
    probs = np.array([[0.2, 0.5, 0.3], [0.5, 0.3, 0.2], [0.3, 0.2, 0.5]])
    np.testing.assert_allclose(stationary_oracle(probs), np.full(3, 1 / 3), atol=1e-10)


def test_oracle_recovers_mh_target():
    f = target(0.5, 0.3, 0.2)
    pi = stationary_oracle(mh_transition_matrix(f))
    assert np.abs(pi - f.probs).max() < 1e-10


def test_oracle_iteration_cap():
    # nearly-absorbing asymmetric chain mixes far too slowly for the cap
    a, b = 1e-7, 2e-7
    probs = np.array([[1 - a, a], [b, 1 - b]])
    with pytest.raises(RuntimeError):
        stationary_oracle(probs, tol=1e-13, max_iter=500)


# ------------------------------------------------------------------- study


def test_study_with_own_samples_gives_zero_ks():
    f = target(0.5, 0.3, 0.2)
    chain = run_chain(f, n_steps=2000, seed=np.random.SeedSequence(entropy=9, spawn_key=(0,)))
    report = convergence_study(f, 1, 2000, chain.samples, seed=9)
    assert report.ks_statistics == [0.0]
    assert all(frac == 1.0 for frac in report.pass_fraction.values())


def test_study_deterministic():
    f = target(0.5, 0.3, 0.2)
    ref = iid_sample(f, 1000, seed=1234)
    r1 = convergence_study(f, 5, 3000, ref, seed=21)
    r2 = convergence_study(f, 5, 3000, ref, seed=21)
    assert r1 == r2


def test_study_accepts_matching_reference():
    f = target_distribution(REFERENCE_PARAMS, 50)
    ref = iid_sample(f, 8000, seed=55)
    report = convergence_study(f, 20, 20_000, ref, seed=556)
    assert report.pass_fraction[0.05] >= 0.9


def test_study_flags_wrong_reference():
    # steep target vs uniform reference: rejected at every level
    steep = target_distribution(ZMParams(alpha=1.0, beta=0.0, gamma=1.896), 50)
    uniform_ref = np.repeat(np.arange(1, 51), 200)
    report = convergence_study(steep, 10, 20_000, uniform_ref, seed=7)
    assert all(frac == 0.0 for frac in report.pass_fraction.values())

    # near-flat target: the same uniform reference is essentially right
    flat = target_distribution(REFERENCE_PARAMS, 50)
    report_flat = convergence_study(flat, 10, 20_000, uniform_ref, seed=7)
    assert np.mean(report_flat.ks_statistics) < np.mean(report.ks_statistics) / 5


def test_study_hands_each_run_to_callback():
    f = target(0.5, 0.3, 0.2)
    seen = []
    report = convergence_study(f, 3, 400, [1, 2, 3], seed=4, on_run=lambda k, r: seen.append((k, r)))
    assert [k for k, _ in seen] == [0, 1, 2]
    for k, result in seen:
        alone = run_chain(f, n_steps=400, seed=np.random.SeedSequence(entropy=4, spawn_key=(k,)))
        assert np.array_equal(result.samples, alone.samples)
    assert report == convergence_study(f, 3, 400, [1, 2, 3], seed=4)


def test_study_records_integral_seeds():
    f = target(0.5, 0.3, 0.2)
    report = convergence_study(f, 2, 500, [1, 2, 3], seed=np.int64(7))
    assert report == convergence_study(f, 2, 500, [1, 2, 3], seed=7)
    # A sequence of integers is a master seed too: run k draws from its child k.
    seen = []
    convergence_study(f, 2, 500, [1, 2, 3], seed=[7, 8], on_run=lambda k, r: seen.append(r))
    for k, result in enumerate(seen):
        alone = run_chain(f, n_steps=500, seed=np.random.SeedSequence([7, 8], spawn_key=(k,)))
        assert np.array_equal(result.samples, alone.samples)


def test_study_takes_a_seed_sequence_as_master_seed():
    f = target(0.5, 0.3, 0.2)
    report = convergence_study(f, 2, 500, [1, 2, 3], seed=np.random.SeedSequence(7))
    assert report.ks_statistics == convergence_study(f, 2, 500, [1, 2, 3], seed=7).ks_statistics
    # A spawned sequence hands run k the stream of its child k.
    master = np.random.SeedSequence(7).spawn(3)[2]
    seen = []
    convergence_study(f, 2, 500, [1, 2, 3], seed=master, on_run=lambda k, r: seen.append(r))
    for k, result in enumerate(seen):
        alone = run_chain(f, n_steps=500, seed=np.random.SeedSequence(7, spawn_key=(2, k)))
        assert np.array_equal(result.samples, alone.samples)
    assert master.n_children_spawned == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.floats(min_value=0.5, max_value=3.0),
       st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=2000), st.data())
def test_study_ks_equals_the_sort_based_statistic(r_bar, gamma, runs, n_steps, data):
    # The reference may miss ranks, and chains may miss ranks the reference holds.
    f = target_distribution(ZMParams(1.0, 0.0, gamma), r_bar)
    reference = data.draw(st.lists(st.integers(min_value=1, max_value=r_bar), min_size=1, max_size=300))
    chains = []
    report = convergence_study(f, runs, n_steps, reference, seed=data.draw(st.integers(0, 2**32)),
                               on_run=lambda k, r: chains.append(r.samples))
    assert report.ks_statistics == [stats_reference.ks_two_sample(s, reference) for s in chains]


def test_study_ks_equals_the_sort_based_statistic_at_paper_law():
    f = target_distribution(REFERENCE_PARAMS, 300)
    reference = iid_sample(f, 3000, seed=5)
    chains = []
    report = convergence_study(f, 4, 20_000, reference, seed=3, on_run=lambda k, r: chains.append(r.samples))
    assert report.ks_statistics == [stats_reference.ks_two_sample(s, reference) for s in chains]


@pytest.mark.parametrize("reference, bad", [
    ([1, 2, 0], "0"), ([3, -1], "-1"), ([1, 301, 302], "301"), ([1, 2.5], "2.5"), ([1.0, float("nan")], "nan")])
def test_study_rejects_references_that_are_not_ranks(reference, bad):
    ran = []
    with pytest.raises(ValueError, match=rf"^reference ranks must be integers in 1\.\.300, got {bad}$"):
        convergence_study(target_distribution(REFERENCE_PARAMS, 300), 1, 10, reference,
                          on_run=lambda k, r: ran.append(k))
    assert ran == []


def test_study_takes_integral_float_ranks_as_ranks():
    f = target(0.5, 0.3, 0.2)
    assert convergence_study(f, 2, 500, [1.0, 2.0, 3.0], seed=4) == convergence_study(f, 2, 500, [1, 2, 3], seed=4)


def test_study_validates_inputs():
    f = target(0.6, 0.4)
    with pytest.raises(ValueError):
        convergence_study(f, 0, 10, [1, 2], seed=0)
    with pytest.raises(ValueError):
        convergence_study(f, 1, 10, [], seed=0)


@pytest.mark.parametrize("levels", [(), (0.05, 0.05)])
def test_study_rejects_empty_or_repeated_levels(levels):
    ran = []
    with pytest.raises(ValueError, match="non-empty, distinct"):
        convergence_study(target(0.6, 0.4), 2, 100, [1, 2, 3], levels=levels, on_run=lambda k, r: ran.append(k))
    assert ran == []  # rejected before any chain runs


# -------------------------------------------------------------- iid sample


def test_iid_sample_distribution():
    f = target(0.5, 0.3, 0.2)
    draws = iid_sample(f, 100_000, seed=3)
    freqs = np.bincount(draws, minlength=4)[1:] / 100_000
    assert np.abs(freqs - f.probs).max() < 0.01


def test_iid_sample_deterministic():
    f = target(0.5, 0.3, 0.2)
    assert np.array_equal(iid_sample(f, 100, seed=8), iid_sample(f, 100, seed=8))
