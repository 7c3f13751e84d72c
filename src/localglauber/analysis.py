"""Closed-form contraction bounds for the coupled dynamics, and their optimizer.

For maximum degree D, q colors and marking probability gamma, one coupled
round from an adjacent pair satisfies:

  * expected number of differing nodes other than v0
        <= (gamma*D/q) / (1 - 2*gamma*D/q)            [geometric series over
          flip/almost-flip path lengths, valid while 2*gamma*D/q < 1]
  * probability that the chains still differ at v0
        <= 1 - gamma*(1 - D/q) * (1 - 3*gamma/q)**D

Writing alpha = q/D and relaxing (1 - 3*gamma/q)**D >= exp(-6*gamma/alpha)
(valid for 3*gamma/q <= 1/2) gives the degree-free contraction margin

    delta(alpha, gamma) = gamma * exp(-6*gamma/alpha)
        * (1 - (1/alpha) * (1 + exp(6*gamma/alpha) / (1 - 2*gamma/alpha)))

with expected distance <= 1 - delta. delta is positive for suitable gamma
exactly when alpha > 2, and path coupling turns a positive margin into a
mixing bound of ceil(ln(n/eps)/delta) rounds (the O(.) instantiated with
constant 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# optimize_gamma's coarse grid step and its golden-section tolerance.
_GRID_STEP = 1e-3
_TOL = 1e-9


def path_bound(max_degree: int, q: int, gamma: float) -> float:
    """Closed form of the expected differing nodes beyond v0; needs 2*gamma*D/q < 1."""
    _validate_dqg(max_degree, q, gamma)
    ratio = 2.0 * gamma * max_degree / q
    if ratio >= 1.0:
        raise ParameterError(f"path series diverges: 2*gamma*D/q = {ratio} >= 1")
    return (gamma * max_degree / q) / (1.0 - ratio)


def path_bound_partial_sums(max_degree: int, q: int, gamma: float, terms: int) -> np.ndarray:
    """Partial sums of sum_l D^l (2g/q)^(l-1) (g/q), for validating the closed form."""
    _validate_dqg(max_degree, q, gamma)
    if terms < 1:
        raise ParameterError("need at least one term")
    l = np.arange(1, terms + 1, dtype=np.float64)
    term = (gamma * max_degree / q) * (2.0 * gamma * max_degree / q) ** (l - 1)
    return np.cumsum(term)


def v0_bound(max_degree: int, q: int, gamma: float) -> float:
    """Upper bound on P(chains still differ at v0) after one coupled round."""
    _validate_dqg(max_degree, q, gamma)
    return 1.0 - gamma * (1.0 - max_degree / q) * (1.0 - 3.0 * gamma / q) ** max_degree


def delta_wrapup(alpha: float, gamma: float) -> float:
    """Degree-free contraction margin delta(alpha, gamma); may be <= 0."""
    if alpha <= 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if not 0.0 <= gamma:
        raise ParameterError(f"gamma must be >= 0, got {gamma}")
    if 2.0 * gamma / alpha >= 1.0:
        raise ParameterError(f"2*gamma/alpha = {2 * gamma / alpha} >= 1: outside the bound's domain")
    e = math.exp(6.0 * gamma / alpha)
    return gamma / e * (1.0 - (1.0 / alpha) * (1.0 + e / (1.0 - 2.0 * gamma / alpha)))


@dataclass(frozen=True)
class GammaOptimum:
    alpha: float
    gamma: float
    delta: float
    feasible: bool


def optimize_gamma(alpha: float) -> GammaOptimum:
    """Maximize delta(alpha, .) over gamma in (0, min(1, alpha/2)).

    gamma is a marking probability, so the search stays inside (0, 1) even
    when the bound's formal domain extends further. A coarse grid brackets
    the maximum and golden-section search refines it to |interval| <= 1e-9.
    Infeasibility (no positive margin, i.e. alpha <= 2) is reported via
    feasible=False with the best grid point found.
    """
    if alpha <= 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    hi = min(1.0, alpha / 2.0) * (1.0 - 1e-12)
    grid = np.arange(_GRID_STEP, hi, _GRID_STEP)
    if len(grid) == 0:
        raise ParameterError(f"empty search interval for alpha={alpha}")
    values = [delta_wrapup(alpha, g) for g in grid]
    best = int(np.argmax(values))
    lo_b = grid[best - 1] if best > 0 else grid[0] / 2.0
    hi_b = grid[best + 1] if best + 1 < len(grid) else hi
    gamma_star, delta_star = _golden_section(lambda g: delta_wrapup(alpha, g), lo_b, hi_b, _TOL)
    if values[best] > delta_star:
        gamma_star, delta_star = grid[best], values[best]
    return GammaOptimum(
        alpha=float(alpha),
        gamma=float(gamma_star),
        delta=float(delta_star),
        feasible=bool(delta_star > 0.0),
    )


def _golden_section(f, lo: float, hi: float, tol: float):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    g = (a + b) / 2.0
    return g, f(g)


@dataclass(frozen=True)
class ContractionReport:
    """Bound components for one (max_degree, q, gamma) triple."""

    max_degree: int
    q: int
    gamma: float
    alpha: float
    path_bound: float
    v0_bound: float
    combined: float             # v0_bound + path_bound
    delta: float                # degree-free wrap-up margin at (q/D, gamma)
    feasible: bool              # delta > 0
    relaxation_valid: bool      # 3*gamma/q <= 1/2, where combined <= 1 - delta is guaranteed


def combined_bound(max_degree: int, q: int, gamma: float) -> ContractionReport:
    """Both bounds, their sum, and the degree-free margin they are compared with."""
    if max_degree < 1:
        raise ParameterError(f"combined_bound needs max_degree >= 1 (alpha = q/D), got {max_degree}")
    pb = path_bound(max_degree, q, gamma)
    vb = v0_bound(max_degree, q, gamma)
    alpha = q / max_degree
    delta = delta_wrapup(alpha, gamma)
    return ContractionReport(
        max_degree=max_degree,
        q=q,
        gamma=gamma,
        alpha=alpha,
        path_bound=pb,
        v0_bound=vb,
        combined=vb + pb,
        delta=delta,
        feasible=delta > 0.0,
        relaxation_valid=3.0 * gamma / q <= 0.5,
    )


def mixing_bound(delta: float, n: int, eps: float) -> int:
    """Path-coupling mixing bound ceil(ln(n/eps)/delta), the O(.) taken with constant 1."""
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must lie in (0,1), got {delta}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"eps must lie in (0,1), got {eps}")
    return math.ceil(math.log(n / eps) / delta)


def _validate_dqg(max_degree: int, q: int, gamma: float) -> None:
    if max_degree < 0:
        raise ParameterError(f"max_degree must be >= 0, got {max_degree}")
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    if not 0.0 <= gamma <= 1.0:
        raise ParameterError(f"gamma must lie in [0,1], got {gamma}")
