"""Dissipative evolution of covariance matrices in uncorrelated Gaussian baths.

The exact channel map is entrywise linear in k = exp(-Gamma t):

    sigma(t) = sigma_inf (1 - k) + sigma(0) k

A fixed-step classical RK4 integrator of the equivalent covariance flow
d sigma/dt = -Gamma (sigma - sigma_inf) is provided as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelSpec, asymptotic_covariance
from .errors import DomainError
from .states import (
    EPS_CLAMP,
    EPS_PHYS,
    CovarianceMatrix,
    StandardForm,
    block_invariants,
    entropy_f,
    log_negativity,
    mutual_information,
    purity,
    require_bona_fide,
    symplectic_pair,
    symplectic_spectrum,
    von_neumann_entropy,
)


def evolve(sigma0: CovarianceMatrix, sigma_inf: CovarianceMatrix,
           gamma: float, t: float) -> CovarianceMatrix:
    """Closed-form channel map at time t."""
    require_bona_fide(sigma0)
    require_bona_fide(sigma_inf)
    if not 0.0 < gamma < math.inf:
        raise DomainError(f"gamma must be finite and > 0, got {gamma:.6g}")
    if not t >= 0.0:
        raise DomainError(f"t must be >= 0, got {t:.6g}")
    k = math.exp(-gamma * t)
    return CovarianceMatrix(sigma_inf.entries * (1.0 - k) + sigma0.entries * k)


def evolve_ode_oracle(sigma0: CovarianceMatrix, sigma_inf: CovarianceMatrix,
                      gamma: float, t: float, steps: int = 1000) -> CovarianceMatrix:
    """RK4 integration of d sigma/dt = -Gamma (sigma - sigma_inf)."""
    if steps < 1:
        raise DomainError("steps must be >= 1")
    s = sigma0.entries.copy()
    target = sigma_inf.entries
    h = t / steps
    rhs = lambda m: -gamma * (m - target)
    for _ in range(steps):
        k1 = rhs(s)
        k2 = rhs(s + 0.5 * h * k1)
        k3 = rhs(s + 0.5 * h * k2)
        k4 = rhs(s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return CovarianceMatrix(s)


@dataclass(frozen=True)
class EvolutionProblem:
    """Initial standard form, channel, and the sampling grid in t."""

    initial: StandardForm
    channel: ChannelSpec
    time_grid: tuple[float, ...]

    def __post_init__(self):
        grid = tuple(float(t) for t in self.time_grid)
        if not grid:
            raise DomainError("time grid must be nonempty")
        if not all(math.isfinite(t) for t in grid):
            raise DomainError("times must be finite")
        if any(t2 <= t1 for t1, t2 in zip(grid, grid[1:])):
            raise DomainError("time grid must be strictly increasing")
        if grid[0] < 0.0:
            raise DomainError("times must be >= 0")
        object.__setattr__(self, "time_grid", grid)
        require_bona_fide(self.initial.to_matrix())


@dataclass(frozen=True)
class MetricsRow:
    """All sampled scalar diagnostics of the evolved state at one time."""

    t: float
    purity: float
    von_neumann_entropy: float
    mutual_information: float
    log_negativity: float
    nt_minus: float
    n_minus: float
    n_plus: float
    separable: bool


def metrics_at(sigma: CovarianceMatrix, t: float) -> MetricsRow:
    spec = symplectic_spectrum(sigma)
    neg = log_negativity(sigma)
    return MetricsRow(
        t=t,
        purity=purity(sigma),
        von_neumann_entropy=von_neumann_entropy(sigma),
        mutual_information=mutual_information(sigma),
        log_negativity=neg.log_negativity,
        nt_minus=neg.nt_minus,
        n_minus=spec.n_minus,
        n_plus=spec.n_plus,
        separable=neg.separable,
    )


def time_series(problem: EvolutionProblem) -> list[MetricsRow]:
    """One MetricsRow per grid point, via the closed-form map.

    sigma(0) is validated once by EvolutionProblem and sigma_inf once here;
    no row is validated again.  The bona fide set {sigma : sigma + i Omega/2
    >= 0} is convex (a linear matrix inequality), and each sigma(t) is a
    convex combination of sigma(0) and sigma_inf, so the two checks cover
    every row (up to rounding in the entries).

    All rows are evaluated at once on the stacked (n, 4, 4) matrices, with
    the formulas and operation order of `metrics_at`, so each row equals
    metrics_at(evolve(sigma(0), sigma_inf, gamma, t), t) bit for bit.  Rows
    that fail one of the scalar path's checks on sigma(t), or are not
    finite, are handed to that scalar path, which raises the first error.
    """
    sigma0 = problem.initial.to_matrix()
    sigma_inf = asymptotic_covariance(problem.channel)
    require_bona_fide(sigma_inf)
    gamma = problem.channel.gamma
    times = problem.time_grid
    # math.exp as in `evolve`: np.exp may round differently in the last bit
    k = np.array([math.exp(-gamma * t) for t in times])[:, None, None]
    s = sigma_inf.entries * (1.0 - k) + sigma0.entries * k
    values, bad = _evaluate(s)
    rows = [MetricsRow(t, *row) for t, row in zip(times, values)]
    for i in np.flatnonzero(bad).tolist():
        rows[i] = metrics_at(evolve(sigma0, sigma_inf, gamma, times[i]), times[i])
    return rows


# The batched core repeats the arithmetic of the scalar functionals in
# `states` elementwise: the invariants, the spectrum and f(x) come from the
# same kernels (`block_invariants`, `symplectic_pair`, `entropy_f`), both take
# logs with np.log, and Python's max(x, 0.0), max(0.0, x) and min(x, 1.0)
# become np.where with the same comparison, so ties and signed zeros match.

def _evaluate(s: np.ndarray):
    """MetricsRow fields after t for each (4, 4) matrix of s, as rows of
    Python scalars, and the mask of rows the scalar path must take."""
    det_a, det_b, det_g, det_s = block_invariants(s)
    (n_minus, nt_minus), (n_plus, _), rad, lower_sq = symplectic_pair(
        np.stack([det_a + det_b + 2.0 * det_g, det_a + det_b - 2.0 * det_g]), det_s)
    with np.errstate(invalid="ignore", divide="ignore"):
        neg_log = -np.log(2.0 * nt_minus)
        e_n = np.where(nt_minus > 0.0, np.where(neg_log > 0.0, neg_log, 0.0), math.inf)

        mu = 1.0 / (4 * np.sqrt(det_s))
        pur = np.where(1.0 < mu, 1.0, mu)

        a = np.sqrt(det_a)
        b = np.sqrt(det_b)
        f_minus = entropy_f(np.where(0.5 > n_minus, 0.5, n_minus))
        f_plus = entropy_f(n_plus)
        entropy = f_minus + f_plus
        mi = entropy_f(a) + entropy_f(b) - f_minus - f_plus
        mi = np.where(0.0 > mi, 0.0, mi)

    # the checks of `metrics_at` on sigma(t); the entropy kernel needs >= 1/2
    edge = 0.5 - EPS_PHYS
    bad = (~np.isfinite(rad) | (rad < -EPS_CLAMP) | (lower_sq < -EPS_CLAMP)).any(axis=0)
    bad |= ((mu > 1.0 + EPS_PHYS) | (n_plus < edge) | (a < edge) | (b < edge)
            | ~np.isfinite(s).all(axis=(1, 2)))
    values = zip(pur.tolist(), entropy.tolist(), mi.tolist(), e_n.tolist(),
                 nt_minus.tolist(), n_minus.tolist(), n_plus.tolist(),
                 (nt_minus >= 0.5).tolist())
    return values, bad
