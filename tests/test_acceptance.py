"""Acceptance suite: one test per exit criterion, each at its stated
tolerance, printing a PASS/FAIL line (visible with ``pytest -s`` or in
captured output on failure).

Every expected value here is either a hand-derived constant, an
independently computed oracle (enumeration, regression, power
iteration), or a reference constant checked beforehand with
high-precision arithmetic.
"""

import numpy as np
from click.testing import CliRunner
from markov_reference import from_dense
from mh_reference import mh_transition_matrix, stationary_oracle

from hapaxchain.cli import main as cli_main
from hapaxchain.markov import (
    order_test,
    simulate_order1,
)
from hapaxchain.mh_sampler import (
    convergence_study,
    iid_sample,
    run_chain,
)
from hapaxchain.ranksize import TargetDistribution, ZMParams, fit_zm, target_distribution, zm_eval
from hapaxchain.stats import derived_indicators, descriptive_stats, ks_threshold

REFERENCE_PARAMS = ZMParams(alpha=6.029e8, beta=2540.0, gamma=1.896)


def check(num: int, description: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_c1_threshold_table_reproduction():
    reference = {0.05: 0.004697, 0.01: 0.005629, 0.001: 0.006743}
    ok = all(
        abs(ks_threshold(alpha, 509138, 100000, halve_alpha=True) - expected) < 1e-6
        for alpha, expected in reference.items()
    )
    check(1, "halved-alpha thresholds at n=509138, m=100000 match the reference triple within 1e-6", ok)


def test_c2_literal_threshold_and_discrepancy():
    literal = ks_threshold(0.05, 100000, 31074, halve_alpha=False)
    table_value = ks_threshold(0.05, 509138, 100000, halve_alpha=True)
    ok = abs(literal - 0.0079486) < 1e-6 and abs(literal - table_value) > 1e-4
    check(2, "literal formula at n=100000, m=31074 gives 0.0079486 and differs from the tabled value", ok)


def _random_target(rng, size: int) -> TargetDistribution:
    raw = np.sort(rng.uniform(0.1, 1.0, size=size))[::-1]
    raw = raw + np.linspace(size * 1e-9, 0.0, size)  # break exact ties
    return TargetDistribution(probs=raw / raw.sum())


def test_c3_mh_exactness_oracle():
    rng = np.random.default_rng(2026)
    targets = [_random_target(rng, int(s)) for s in rng.integers(2, 301, size=49)]
    targets.append(target_distribution(REFERENCE_PARAMS, 300))

    worst_stationary = 0.0
    worst_balance = 0.0
    for f in targets:
        kernel = mh_transition_matrix(f)
        pi = stationary_oracle(kernel, tol=1e-13)
        worst_stationary = max(worst_stationary, float(np.abs(pi - f.probs).max()))
        flux = f.probs[:, None] * kernel
        off = ~np.eye(f.r_bar, dtype=bool)
        worst_balance = max(worst_balance, float(np.abs(flux - flux.T)[off].max()))
    ok = worst_stationary < 1e-10 and worst_balance < 1e-14
    check(3, f"50 targets: power iteration recovers F (max err {worst_stationary:.2e}) "
             f"and detailed balance holds (max {worst_balance:.2e})", ok)


def test_c4_convergence_study_desk_scale():
    f = target_distribution(REFERENCE_PARAMS, 300)
    reference = iid_sample(f, 31074, seed=2024)
    report = convergence_study(f, 100, 100_000, reference, seed=99)
    frac = report.pass_fraction[0.05]
    check(4, f"100 chains of 100000 steps vs 31074 i.i.d. reference draws: "
             f"{frac:.0%} of KS statistics below the 95% threshold (need >= 90%)", frac >= 0.9)


def test_c5_ergodic_frequency():
    f = target_distribution(ZMParams(1.0, 0.0, 1.0), 10)
    result = run_chain(f, 200_000, seed=2025)
    freqs = np.bincount(result.samples, minlength=11)[1:] / 200_000
    err = float(np.abs(freqs - f.probs).max())
    check(5, f"10-state target, 200000 steps: empirical frequencies within 0.01 of F (max err {err:.4f})",
          err < 0.01)


def _copy_two_back_sequence(n: int, seed: int, p_copy: float = 0.995) -> np.ndarray:
    """Strongly second-order process on {1, 2}: with probability p_copy the
    next state repeats the state two steps back, otherwise it flips."""
    rng = np.random.default_rng(seed)
    x = np.empty(n, dtype=np.int64)
    x[0], x[1] = 1, 2
    u = rng.random(n - 2)
    for t in range(2, n):
        x[t] = x[t - 2] if u[t - 2] < p_copy else 3 - x[t - 2]
    return x


def test_c6_order_test_calibration_and_violation():
    # calibration: data genuinely of order one
    probs = np.array([[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.25, 0.25, 0.5]])
    tm = from_dense(np.array([1, 2, 3]), probs)
    source = simulate_order1(tm, 500_000, seed=999)
    report = order_test(source, replicates=100, len1=10_000, len2=10_000, seed=555)
    wmw_above = float(np.mean(np.asarray(report.wmw_p_values) > 0.05))
    ks_below = report.pass_fractions["ks_first_vs_second"][0.05]
    ok_null = wmw_above >= 0.85 and ks_below >= 0.85
    check(6, f"order-1 calibration: {wmw_above:.0%} of WMW p-values above 0.05 and "
             f"{ks_below:.0%} of KS statistics below the 95% threshold (need >= 85% each)", ok_null)

    # violation: strongly second-order data must be flagged
    violator = _copy_two_back_sequence(30_000, seed=4242)
    vreport = order_test(violator, replicates=100, len1=20_000, len2=20_000, seed=888)
    ks = np.asarray(vreport.ks_stats_first_vs_second)
    above = float(np.mean(ks > vreport.thresholds["ks_first_vs_second"][0.05]))
    check(6, f"order-2 violation: {above:.0%} of KS statistics above the 95% threshold (need majority)",
          above > 0.5)


def test_c7_fit_recovery():
    true = ZMParams(alpha=100.0, beta=5.0, gamma=1.5)
    points = [(r, zm_eval(true, r)) for r in range(1, 201)]
    result = fit_zm(points)
    rel = max(
        abs(result.params.alpha - true.alpha) / true.alpha,
        abs(result.params.beta - true.beta) / true.beta,
        abs(result.params.gamma - true.gamma) / true.gamma,
    )
    ok = rel < 1e-3 and result.rss < 1e-8
    check(7, f"noiseless fit recovery: max relative error {rel:.2e} (< 1e-3), rss {result.rss:.2e} (< 1e-8)", ok)


def test_c8_descriptive_identities():
    rng = np.random.default_rng(11)
    ok_identity = True
    for _ in range(20):
        x = rng.gamma(1.5, 10.0, size=int(rng.integers(5, 2000)))
        d = descriptive_stats(x)
        rms_sq = (d.n - 1) / d.n * d.variance + d.mean**2
        ok_identity &= abs(d.rms**2 - rms_sq) <= 1e-9 * abs(rms_sq)
        ok_identity &= abs(d.std_error * np.sqrt(d.n) - d.std_dev) <= 1e-9 * d.std_dev

    mean_over_sd, pearson, se = derived_indicators(16.3850, 32.1605, 3.0, 31074)
    ok_reference = (
        abs(mean_over_sd - 0.5095) < 5e-4
        and abs(pearson - 1.2486) < 5e-4
        and abs(se - 0.1824) < 5e-4
    )
    check(8, "moment identities hold to 1e-9 and reference derived indicators reproduce within 5e-4",
          ok_identity and ok_reference)


def test_c9_corpus_determinism(toy_corpus_dir, tmp_path):
    runner = CliRunner()
    out = tmp_path / "out"
    result = runner.invoke(cli_main, ["extract", str(toy_corpus_dir), "--output-dir", str(out)])
    assert result.exit_code == 0, result.output

    table_bytes = (out / "hapax_table.csv").read_bytes()
    seq_bytes = (out / "rank_sequence.txt").read_bytes()
    expected_table = b"word,frequency,dense_rank,ordinal_rank\na,2,1,1\nc,1,2,2\nd,1,2,3\n"
    expected_seq = b"1\n2\n1\n2\n"

    result2 = runner.invoke(cli_main, ["extract", str(toy_corpus_dir), "--output-dir", str(out)])
    assert result2.exit_code == 0, result2.output
    identical = (
        (out / "hapax_table.csv").read_bytes() == table_bytes
        and (out / "rank_sequence.txt").read_bytes() == seq_bytes
    )
    ok = table_bytes == expected_table and seq_bytes == expected_seq and identical
    check(9, "toy corpus yields the hand-derived table and sequence [1,2,1,2], byte-identical on rerun", ok)
