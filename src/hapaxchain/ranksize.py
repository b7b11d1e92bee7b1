"""Zipf-Mandelbrot rank-size law: evaluation, least-squares fitting, and
discretization into a probability vector over a bounded rank set.

The law is s = f(r) = alpha / (beta + r)^gamma with alpha > 0, gamma > 0
and beta > -1, so f is defined, positive and strictly decreasing on
r >= 1.  Fitting minimizes the untransformed residual sum of squares
with a damped Gauss-Newton (Levenberg-Marquardt) iteration; the free
parameters live in an internal log space (log alpha, log(1+beta),
log gamma) which keeps every iterate inside the valid domain, up to
rounding: a fit whose 1 + beta becomes too small to give beta > -1 has
reached the beta = -1 boundary; it stops there, and is an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import t as _t_dist

__all__ = [
    "ZMParams",
    "FitResult",
    "TargetDistribution",
    "ParameterDomainError",
    "FitConvergenceError",
    "UnidentifiableParameterError",
    "zm_eval",
    "fit_zm",
    "confidence_intervals",
    "target_distribution",
]

PARAM_NAMES = ("alpha", "beta", "gamma")

# Fit settings: iteration cap, relative rss improvement that stops the
# iteration, starting damping, and the factor damping grows or shrinks by.
MAX_ITER = 500
REL_TOL = 1e-10
DAMPING_INIT = 1e-3
DAMPING_STEP = 10.0


class ParameterDomainError(ValueError):
    """Raised when rank-size parameters leave their valid domain."""


class FitConvergenceError(RuntimeError):
    """Raised when the fit iteration cap is reached before convergence."""


class UnidentifiableParameterError(RuntimeError):
    """Raised when the normal equations are singular and no confidence
    interval can be attached to the point estimates."""


@dataclass(frozen=True)
class ZMParams:
    """Parameters of the law s = alpha / (beta + r)^gamma."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ParameterDomainError(f"alpha must be positive, got {self.alpha}")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ParameterDomainError(f"gamma must be positive, got {self.gamma}")
        if not (math.isfinite(self.beta) and self.beta + 1 > 0):
            raise ParameterDomainError(f"beta must exceed -1, got {self.beta}")


def zm_eval(params: ZMParams, r) -> float:
    """Evaluate the law at rank ``r`` (scalar or array, every entry >= 1)."""
    r_arr = np.asarray(r, dtype=float)
    if not np.all(r_arr >= 1):  # NaN fails this too
        raise ParameterDomainError(f"rank must be >= 1, got {r}")
    with np.errstate(over="ignore"):  # a power beyond the float range reads as inf
        out = params.alpha / (params.beta + r_arr) ** params.gamma
    if np.isscalar(r) or r_arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class TargetDistribution:
    """Discrete probability vector over ranks 1..r_bar, r_bar = len(probs), decreasing in rank."""

    probs: np.ndarray

    @property
    def r_bar(self) -> int:
        return len(self.probs)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if not np.all(p > 0):  # NaN fails too
            raise ValueError("target probabilities must all be positive")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"target probabilities sum to {float(p.sum())!r}, not 1")
        if p.size > 1 and np.any(np.diff(p) >= 0):
            raise ValueError("target probabilities must be strictly decreasing in rank")


def target_distribution(params: ZMParams, r_bar: int) -> TargetDistribution:
    """Normalize f over ranks 1..r_bar: probs[r] = f(r) / sum_h f(h)."""
    if r_bar < 1:
        raise ValueError(f"r_bar must be >= 1, got {r_bar}")
    f = zm_eval(params, np.arange(1, r_bar + 1))
    with np.errstate(over="ignore"):  # a sum beyond the float range reads as inf
        total = f.sum()
    if not math.isfinite(total) or total <= 0:
        raise ValueError(f"normalizer of the target distribution {'underflowed' if total == 0 else 'overflowed'}")
    return TargetDistribution(probs=f / total)


@dataclass(frozen=True)
class FitResult:
    params: ZMParams
    ci: dict[str, tuple[float, float]]
    rss: float
    r_squared: float
    n_points: int
    n_iter: int
    ill_conditioned: bool = False


def _model_and_jacobian_log(theta: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Model values and Jacobian wrt (log alpha, log(1+beta), log gamma)."""
    a, b, g = theta
    alpha = math.exp(a)
    beta_p1 = math.exp(b)  # beta + 1, positive by construction
    gamma = math.exp(g)
    denom = beta_p1 + (r - 1.0)  # = beta + r, always > 0
    with np.errstate(over="ignore"):
        f = alpha * denom ** (-gamma)
    jac = np.empty((r.size, 3))
    jac[:, 0] = f
    jac[:, 1] = -gamma * f * beta_p1 / denom
    jac[:, 2] = -gamma * f * np.log(denom)
    return f, jac


def _theta_to_params(theta: np.ndarray) -> ZMParams:
    return ZMParams(
        alpha=math.exp(theta[0]),
        beta=math.exp(theta[1]) - 1.0,
        gamma=math.exp(theta[2]),
    )


def _initial_theta(ranks: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    # Pure-Zipf starting point: gamma from the log-log slope, beta = 0,
    # alpha matched to the first data point.
    slope = np.polyfit(np.log(ranks), np.log(sizes), 1)[0]
    gamma0 = max(-slope, 1e-3)
    alpha0 = sizes[0] * ranks[0] ** gamma0
    return np.array([math.log(alpha0), 0.0, math.log(gamma0)])


def fit_zm(points, level: float = 0.95) -> FitResult:
    """Least-squares fit of the rank-size law to (rank, size) points.

    Needs at least 4 points with strictly increasing positive integer
    ranks and positive sizes whose squares sum to a finite float.
    Returns a :class:`FitResult` whose confidence intervals are
    Student-t based at ``level``.  Degenerate
    data that leaves parameters unidentifiable yields a result flagged
    ``ill_conditioned`` with NaN intervals; reaching the beta = -1
    boundary, where the iteration stops at once, raises
    :class:`ParameterDomainError`, and exhausting the
    iteration cap :class:`FitConvergenceError`.
    """
    pts = np.asarray(points if isinstance(points, np.ndarray) else list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be (rank, size) pairs")
    if not np.isfinite(pts).all():
        raise ValueError("ranks and sizes must be finite, not nan or infinite")
    ranks = pts[:, 0]
    sizes = pts[:, 1]
    if ranks.size < 4:
        raise ValueError(f"need at least 4 points, got {ranks.size}")
    if np.any(ranks < 1) or np.any(ranks != np.round(ranks)):
        raise ValueError("ranks must be positive integers")
    if np.any(np.diff(ranks) <= 0):
        raise ValueError("ranks must be strictly increasing")
    if np.any(sizes <= 0):
        raise ValueError("sizes must be positive")
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    with np.errstate(over="ignore"):  # the normal equations would overflow
        if not math.isfinite(float(sizes @ sizes)):
            raise ValueError(f"sizes too large to fit: their sum of squares overflows, largest size {sizes.max():g}")

    theta = _initial_theta(ranks, sizes)
    f, jac = _model_and_jacobian_log(theta, ranks)
    residuals = sizes - f
    rss = float(residuals @ residuals)
    damping = DAMPING_INIT

    for n_iter in range(1, MAX_ITER + 1):
        jtj = jac.T @ jac
        jtr = jac.T @ residuals
        # Inner damping search: raise damping until a step reduces the rss.
        for _ in range(60):
            lhs = jtj + damping * np.diag(np.diag(jtj))
            try:
                delta = np.linalg.solve(lhs, jtr)
            except np.linalg.LinAlgError:
                damping *= DAMPING_STEP
                continue
            theta_new = theta + delta
            if np.any(np.abs(theta_new) > 700):  # exp overflow guard
                damping *= DAMPING_STEP
                continue
            f_new, jac_new = _model_and_jacobian_log(theta_new, ranks)
            residuals_new = sizes - f_new
            with np.errstate(over="ignore"):  # an rss beyond the float range reads as inf
                rss_new = float(residuals_new @ residuals_new)
            if math.isfinite(rss_new) and rss_new <= rss:
                break
            damping *= DAMPING_STEP
        else:
            break  # no downhill direction at any damping: a local minimum
        theta, jac, residuals = theta_new, jac_new, residuals_new
        if math.exp(theta[1]) - 1.0 <= -1.0:  # 1 + beta underflowed: the fit has left through beta = -1
            raise ParameterDomainError(f"the fit reached the beta = -1 boundary: 1 + beta = {math.exp(theta[1]):.3g} "
                                       f"on {ranks.size} points")
        rss_prev, rss = rss, rss_new
        damping = max(damping / DAMPING_STEP, 1e-15)
        if rss == 0.0 or rss_prev - rss <= REL_TOL * max(rss_prev, 1e-300):
            break
    else:
        raise FitConvergenceError(f"no convergence within {MAX_ITER} iterations (rss={rss:.6g})")
    params = _theta_to_params(theta)

    # Chain rule: d/d(alpha, beta, gamma) = d/d(log alpha, log(1+beta), log gamma) / (alpha, 1+beta, gamma).
    jac_orig = jac / np.array([params.alpha, math.exp(theta[1]), params.gamma])

    tss = float(((sizes - sizes.mean()) ** 2).sum())
    ill = tss == 0.0  # constant sizes pin the fit to the gamma -> 0 boundary
    r_squared = 1.0 - rss / tss if tss > 0 else math.nan
    if not ill:
        try:
            ci = confidence_intervals(params, jac_orig, residuals, level)
        except UnidentifiableParameterError:
            ill = True
    if ill:
        ci = {name: (math.nan, math.nan) for name in PARAM_NAMES}

    return FitResult(
        params=params,
        ci=ci,
        rss=rss,
        r_squared=r_squared,
        n_points=int(ranks.size),
        n_iter=n_iter,
        ill_conditioned=ill,
    )


def confidence_intervals(
    params: ZMParams, jacobian: np.ndarray, residuals: np.ndarray, level: float
) -> dict[str, tuple[float, float]]:
    """Symmetric t-based intervals around the point estimates ``params``.

    ``jacobian`` is d f / d (alpha, beta, gamma) at the solution, one row
    per point, and ``residuals`` the sizes minus the fitted values.  The
    covariance is s^2 (J'J)^-1 with s^2 = rss / (n - 3).  Columns are rescaled before inversion so the
    singularity check reflects genuine collinearity rather than the very
    different natural scales of the three parameters.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    n, p = jacobian.shape
    if n <= p:
        raise UnidentifiableParameterError(f"{n} points cannot identify {p} parameters")
    col_scale = np.linalg.norm(jacobian, axis=0)
    if np.any(col_scale == 0) or not np.all(np.isfinite(col_scale)):
        raise UnidentifiableParameterError("unidentifiable parameter: degenerate Jacobian column")
    jac_scaled = jacobian / col_scale
    jtj = jac_scaled.T @ jac_scaled
    if np.linalg.cond(jtj) > 1e12:
        raise UnidentifiableParameterError("unidentifiable parameter: singular normal equations")
    cov_scaled = np.linalg.inv(jtj)
    rss = float(residuals @ residuals)
    s2 = rss / (n - p)
    half = _t_dist.ppf(1.0 - (1.0 - level) / 2.0, n - p) * np.sqrt(s2 * np.diag(cov_scaled)) / col_scale
    estimates = (params.alpha, params.beta, params.gamma)
    return {name: (est - h, est + h) for name, est, h in zip(PARAM_NAMES, estimates, half)}
