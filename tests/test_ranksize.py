"""Rank-size law evaluation, fitting and target discretization tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from hapaxchain.ranksize import (
    ParameterDomainError,
    TargetDistribution,
    UnidentifiableParameterError,
    ZMParams,
    confidence_intervals,
    fit_zm,
    target_distribution,
    zm_eval,
)

REFERENCE_PARAMS = ZMParams(alpha=6.029e8, beta=2540.0, gamma=1.896)

valid_params = st.builds(
    ZMParams,
    alpha=st.floats(min_value=1e-3, max_value=1e9),
    beta=st.floats(min_value=-0.99, max_value=1e4),
    gamma=st.floats(min_value=1e-2, max_value=5.0),
)


# ----------------------------------------------------------------- zm_eval


def test_zm_eval_simple():
    assert zm_eval(ZMParams(5.0, 0.0, 1.0), 5) == pytest.approx(1.0)


def test_zm_eval_reference_point():
    # 6.029e8 / 2541^1.896, checked against high-precision arithmetic
    assert zm_eval(REFERENCE_PARAMS, 1) == pytest.approx(211.03594767, rel=1e-9)


def test_zm_eval_rejects_bad_rank():
    with pytest.raises(ParameterDomainError):
        zm_eval(REFERENCE_PARAMS, 0)


def test_zm_params_domain():
    with pytest.raises(ParameterDomainError):
        ZMParams(alpha=-1.0, beta=0.0, gamma=1.0)
    with pytest.raises(ParameterDomainError):
        ZMParams(alpha=1.0, beta=0.0, gamma=0.0)
    with pytest.raises(ParameterDomainError):
        ZMParams(alpha=1.0, beta=-1.0, gamma=1.0)


@settings(max_examples=80)
@given(valid_params, st.integers(min_value=1, max_value=10**6))
def test_zm_eval_strictly_decreasing(params, r):
    assert zm_eval(params, r) > zm_eval(params, r + 1)


# ------------------------------------------------------------------ target


def test_target_single_rank():
    t = target_distribution(ZMParams(2.0, 1.0, 1.0), 1)
    assert t.probs.tolist() == [1.0]


def test_target_reference_ratios():
    t = target_distribution(REFERENCE_PARAMS, 300)
    assert t.probs[0] / t.probs[1] == pytest.approx(1.000746, abs=1e-6)
    assert t.probs[0] / t.probs[299] == pytest.approx(1.2348, abs=1e-4)


@settings(max_examples=60)
@given(valid_params, st.integers(min_value=1, max_value=400))
def test_target_invariants(params, r_bar):
    t = target_distribution(params, r_bar)
    assert abs(t.probs.sum() - 1.0) <= 1e-12
    assert np.all(t.probs > 0)
    assert np.all(np.diff(t.probs) < 0) or r_bar == 1


def test_target_rejects_bad_rbar():
    with pytest.raises(ValueError):
        target_distribution(REFERENCE_PARAMS, 0)


def test_target_r_bar_is_the_number_of_probabilities():
    assert TargetDistribution(probs=np.array([0.5, 0.3, 0.2])).r_bar == 3
    assert target_distribution(REFERENCE_PARAMS, 300).r_bar == 300


def test_target_probabilities_must_sum_to_one():
    with pytest.raises(ValueError, match=r"^target probabilities sum to 0\.9, not 1$"):
        TargetDistribution(probs=np.array([0.5, 0.4]))


@pytest.mark.parametrize("params, problem", [
    (ZMParams(alpha=1e-300, beta=1e3, gamma=10.0), "underflowed"),  # every f(r) is 0
    (ZMParams(alpha=1e308, beta=0.0, gamma=1e-3), "overflowed"),  # each f(r) is finite, their sum is not
])
def test_target_normalizer_out_of_range_is_an_error(params, problem):
    with pytest.raises(ValueError, match=rf"^normalizer of the target distribution {problem}$"):
        target_distribution(params, 300)


@pytest.mark.parametrize("probs", [[0.4, 0.6], [0.25, 0.25, 0.5], [0.5, 0.25, 0.25]])
def test_target_probabilities_must_decrease(probs):
    with pytest.raises(ValueError, match=r"^target probabilities must be strictly decreasing in rank$"):
        TargetDistribution(probs=np.array(probs))


# --------------------------------------------------------------------- fit


def synthetic_points(params, ranks):
    return [(int(r), zm_eval(params, int(r))) for r in ranks]


def test_fit_recovers_noiseless_params():
    true = ZMParams(alpha=100.0, beta=5.0, gamma=1.5)
    result = fit_zm(synthetic_points(true, range(1, 201)))
    assert result.params.alpha == pytest.approx(true.alpha, rel=1e-3)
    assert result.params.beta == pytest.approx(true.beta, rel=1e-3)
    assert result.params.gamma == pytest.approx(true.gamma, rel=1e-3)
    assert result.rss < 1e-8


def test_fit_pure_zipf_slope():
    true = ZMParams(alpha=1.0, beta=0.0, gamma=1.0)
    points = synthetic_points(true, range(1, 51))
    ranks = np.array([p[0] for p in points], dtype=float)
    sizes = np.array([p[1] for p in points], dtype=float)
    # independent slope oracle: log-log linear regression
    slope = sps.linregress(np.log(ranks), np.log(sizes)).slope
    assert slope == pytest.approx(-1.0, abs=1e-12)
    result = fit_zm(points)
    assert result.params.gamma == pytest.approx(1.0, abs=1e-3)


def test_fit_recovers_reference_scale():
    # Synthetic data at the calibrated-magnitude scale exercises the
    # conditioning of the solver far from its pure-Zipf start.
    ranks = np.unique(np.geomspace(1, 31074, 400).astype(int))
    result = fit_zm(synthetic_points(REFERENCE_PARAMS, ranks))
    assert result.params.alpha == pytest.approx(REFERENCE_PARAMS.alpha, rel=1e-3)
    assert result.params.beta == pytest.approx(REFERENCE_PARAMS.beta, rel=1e-3)
    assert result.params.gamma == pytest.approx(REFERENCE_PARAMS.gamma, rel=1e-3)


def test_fit_noisy_data_reasonable():
    rng = np.random.default_rng(17)
    true = ZMParams(alpha=500.0, beta=20.0, gamma=1.3)
    ranks = range(1, 301)
    sizes = [zm_eval(true, r) * (1 + 0.01 * rng.standard_normal()) for r in ranks]
    result = fit_zm(list(zip(ranks, sizes)))
    assert result.params.gamma == pytest.approx(true.gamma, rel=0.05)
    assert result.r_squared > 0.99


def test_fit_scaling_property():
    true = ZMParams(alpha=80.0, beta=3.0, gamma=1.2)
    points = synthetic_points(true, range(1, 101))
    scaled = [(r, 4.0 * s) for r, s in points]
    base = fit_zm(points)
    refit = fit_zm(scaled)
    assert refit.params.alpha == pytest.approx(4.0 * base.params.alpha, rel=1e-5)
    assert refit.params.beta == pytest.approx(base.params.beta, rel=1e-5, abs=1e-5)
    assert refit.params.gamma == pytest.approx(base.params.gamma, rel=1e-5)


def test_fit_validates_input():
    with pytest.raises(ValueError):
        fit_zm([(1, 2.0), (2, 1.0), (3, 0.5)])  # too few
    with pytest.raises(ValueError):
        fit_zm([(1, 2.0), (2, 1.0), (2, 0.7), (3, 0.5)])  # non-increasing ranks
    with pytest.raises(ValueError):
        fit_zm([(1, 2.0), (2, 1.0), (3, -0.5), (4, 0.2)])  # negative size
    for points in ([1.0, 2.0, 3.0, 4.0], [(1, 2.0, 0), (2, 1.0, 0), (3, 0.5, 0), (4, 0.2, 0)]):
        with pytest.raises(ValueError, match=r"^points must be \(rank, size\) pairs$"):
            fit_zm(points)
    for ranks in ((0, 1, 2, 3), (1, 1.5, 2, 3)):
        with pytest.raises(ValueError, match=r"^ranks must be positive integers$"):
            fit_zm(zip(ranks, (4.0, 3.0, 2.0, 1.0)))


@pytest.mark.parametrize("at, bad", [(1, math.nan), (1, math.inf), (0, math.inf), (0, math.nan)])
def test_fit_rejects_non_finite_points(at, bad):
    # A nan or infinite size used to pass every check and end the fit in an error about gamma.
    points = [list(p) for p in synthetic_points(ZMParams(alpha=100.0, beta=5.0, gamma=1.5), range(1, 11))]
    points[-1][at] = bad
    with pytest.raises(ValueError, match=r"^ranks and sizes must be finite, not nan or infinite$"):
        fit_zm(points)


@pytest.mark.parametrize("level", [0.0, 1.0, -0.5, 95.0])
def test_fit_level_must_lie_in_the_unit_interval(level):
    points = synthetic_points(ZMParams(alpha=100.0, beta=5.0, gamma=1.5), range(1, 11))
    with pytest.raises(ValueError, match=rf"^confidence level must be in \(0, 1\), got {level}$"):
        fit_zm(points, level=level)


def test_fit_constant_sizes_flagged():
    points = [(r, 3.0) for r in range(1, 21)]
    result = fit_zm(points)
    assert result.ill_conditioned
    assert all(math.isnan(lo) and math.isnan(hi) for lo, hi in result.ci.values())


def test_fit_is_deterministic():
    true = ZMParams(alpha=100.0, beta=5.0, gamma=1.5)
    points = synthetic_points(true, range(1, 101))
    r1 = fit_zm(points)
    r2 = fit_zm(points)
    assert r1.params == r2.params
    assert r1.rss == r2.rss


# ---------------------------------------------------- confidence intervals


def test_ci_nearly_zero_width_on_noiseless_fit():
    true = ZMParams(alpha=100.0, beta=5.0, gamma=1.5)
    result = fit_zm(synthetic_points(true, range(1, 201)))
    for lo, hi in result.ci.values():
        assert hi - lo < 1e-6


def test_ci_contains_point_estimate():
    rng = np.random.default_rng(29)
    true = ZMParams(alpha=200.0, beta=10.0, gamma=1.4)
    sizes = [zm_eval(true, r) * (1 + 0.02 * rng.standard_normal()) for r in range(1, 201)]
    result = fit_zm(list(zip(range(1, 201), sizes)))
    for name, (lo, hi) in result.ci.items():
        point = getattr(result.params, name)
        assert lo <= point <= hi


def test_fit_intervals_use_the_law_jacobian():
    # fit_zm derives d f / d(alpha, beta, gamma) from its log-space Jacobian by
    # the chain rule; the derivatives written out by hand give the same intervals.
    rng = np.random.default_rng(37)
    true = ZMParams(alpha=300.0, beta=4.0, gamma=1.3)
    ranks = np.arange(1.0, 201.0)
    sizes = zm_eval(true, ranks) * (1 + 0.05 * rng.standard_normal(ranks.size))
    result = fit_zm(zip(ranks, sizes), level=0.95)
    p = result.params
    f = zm_eval(p, ranks)
    jac = np.column_stack([f / p.alpha, -p.gamma * f / (p.beta + ranks), -f * np.log(p.beta + ranks)])
    by_hand = confidence_intervals(p, jac, sizes - f, 0.95)
    for name, interval in result.ci.items():
        assert interval == pytest.approx(by_hand[name], rel=1e-12)


def test_ci_level_nesting():
    rng = np.random.default_rng(31)
    true = ZMParams(alpha=200.0, beta=10.0, gamma=1.4)
    sizes = [zm_eval(true, r) * (1 + 0.02 * rng.standard_normal()) for r in range(1, 201)]
    points = list(zip(range(1, 201), sizes))
    fit95 = fit_zm(points, level=0.95)
    fit99 = fit_zm(points, level=0.99)
    for name in fit95.ci:
        lo95, hi95 = fit95.ci[name]
        lo99, hi99 = fit99.ci[name]
        assert lo99 < lo95 and hi99 > hi95


@pytest.mark.parametrize("level", [0.0, 1.0])
def test_ci_level_must_lie_in_the_unit_interval(level):
    with pytest.raises(ValueError, match=rf"^confidence level must be in \(0, 1\), got {level}$"):
        confidence_intervals(REFERENCE_PARAMS, np.eye(5, 3), np.ones(5), level)


def test_ci_singular_covariance_raises():
    true = ZMParams(alpha=100.0, beta=5.0, gamma=1.5)
    residuals = np.linspace(-1.0, 1.0, 50)
    collinear = np.ones((50, 3))  # perfectly collinear columns
    with pytest.raises(UnidentifiableParameterError):
        confidence_intervals(true, collinear, residuals, 0.95)


@pytest.mark.parametrize("jacobian, problem", [
    (np.ones((3, 3)), r"3 points cannot identify 3 parameters"),
    (np.column_stack((np.ones(10), np.arange(10.0), np.zeros(10))),
     r"unidentifiable parameter: degenerate Jacobian column"),
])
def test_ci_unidentifiable_jacobian_raises(jacobian, problem):
    with pytest.raises(UnidentifiableParameterError, match=rf"^{problem}$"):
        confidence_intervals(REFERENCE_PARAMS, jacobian, np.ones(len(jacobian)), 0.95)


# ------------------------------------------------------------ fit outcomes


def test_fit_whose_trial_step_overflows_the_rss_converges_without_a_warning():
    # A rejected trial step's residuals square beyond the float range; the rss
    # reads as inf and the step is rejected, with no RuntimeWarning.
    rng = np.random.default_rng(15)
    r = np.arange(1, 133)
    s = 1e4 / (34.1 + r) ** 2.66 * (1 + rng.normal(0, 0.05, 132))
    result = fit_zm(np.column_stack((r, s)))
    assert result.r_squared > 0.99 and not result.ill_conditioned


def test_fit_retries_a_solve_that_fails_once(monkeypatch):
    points = synthetic_points(ZMParams(alpha=100.0, beta=5.0, gamma=1.5), range(1, 201))
    expected = fit_zm(points)
    solve, failed = np.linalg.solve, []

    def fail_once(*args):
        if not failed:
            failed.append(1)
            raise np.linalg.LinAlgError("singular matrix")
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", fail_once)
    result = fit_zm(points)
    assert failed
    for name in ("alpha", "beta", "gamma"):
        assert getattr(result.params, name) == pytest.approx(getattr(expected.params, name), rel=1e-6)


def test_fit_without_a_downhill_step_returns_its_start(monkeypatch):
    # Every trial step raises the rss, at each of the 60 dampings: the start is a local minimum.
    from hapaxchain import ranksize

    points = np.array(synthetic_points(ZMParams(alpha=100.0, beta=5.0, gamma=1.5), range(1, 51)), dtype=float)
    start = ranksize._initial_theta(points[:, 0], points[:, 1])
    model, calls = ranksize._model_and_jacobian_log, []

    def uphill(theta, r):
        calls.append(1)
        f, jac = model(theta, r)
        return (f if len(calls) == 1 else f + 1e6), jac

    monkeypatch.setattr(ranksize, "_model_and_jacobian_log", uphill)
    result = fit_zm(points)
    assert result.params == ranksize._theta_to_params(start)
    assert result.n_iter == 1 and len(calls) == 1 + 60
    f, _ = model(start, points[:, 0])
    assert result.rss == float((points[:, 1] - f) @ (points[:, 1] - f))


def test_fit_with_singular_normal_equations_is_flagged_ill_conditioned(monkeypatch):
    points = synthetic_points(ZMParams(alpha=100.0, beta=5.0, gamma=1.5), range(1, 101))
    expected = fit_zm(points)
    monkeypatch.setattr(np.linalg, "cond", lambda a: math.inf)
    result = fit_zm(points)
    assert result.ill_conditioned
    assert all(math.isnan(lo) and math.isnan(hi) for lo, hi in result.ci.values())
    assert (result.params, result.rss, result.n_iter) == (expected.params, expected.rss, expected.n_iter)


def test_fit_nonconvergence_carries_diagnostics(monkeypatch):
    from hapaxchain import ranksize
    from hapaxchain.ranksize import FitConvergenceError

    true = ZMParams(alpha=6.029e8, beta=2540.0, gamma=1.896)
    points = synthetic_points(true, np.unique(np.geomspace(1, 31074, 300).astype(int)))
    monkeypatch.setattr(ranksize, "MAX_ITER", 3)
    with pytest.raises(FitConvergenceError, match=r"^no convergence within 3 iterations \(rss=\S+\)$"):
        fit_zm(points)


@pytest.mark.parametrize("seed", [0, 1])
def test_fit_of_few_long_documents_ends_on_the_beta_boundary(long_document_points, seed):
    # log(1 + beta) runs below about -37, where exp(log(1 + beta)) - 1 rounds
    # to -1.  Seed 2 fails alike, through the CLI (tests/test_cli.py).
    points = long_document_points(seed)
    with pytest.raises(ParameterDomainError,
                       match=rf"^the fit reached the beta = -1 boundary: 1 \+ beta = \S+ on {len(points)} points$"):
        fit_zm(points)


def test_fit_stops_as_soon_as_it_leaves_through_the_beta_boundary(long_document_points, monkeypatch):
    # Crept on along the overflow guard in subnormal arithmetic, the fit on
    # seed 0 used to evaluate the model 45 times before raising.
    from hapaxchain import ranksize

    calls = []
    model = ranksize._model_and_jacobian_log
    monkeypatch.setattr(ranksize, "_model_and_jacobian_log", lambda *args: calls.append(1) or model(*args))
    with pytest.raises(ParameterDomainError, match="beta = -1 boundary"):
        fit_zm(long_document_points(0))
    assert len(calls) < 30


def test_fit_of_few_long_documents_may_converge_inside_the_domain(long_document_points):
    result = fit_zm(long_document_points(3))
    assert result.params.beta == pytest.approx(376, rel=0.01)
    assert result.n_iter == 14
