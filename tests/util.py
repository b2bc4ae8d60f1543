"""Shared helpers for the test suite: random physical states and channels,
random local symplectic transformations, and brute-force spectral oracles.

All randomness flows through numpy Generators seeded in conftest.py (override
with the GCLAB_SEED environment variable); the library itself is deterministic.
"""

import math

import numpy as np

from gclab import (
    ChannelSpec,
    CovarianceMatrix,
    GclabError,
    StandardForm,
    asymptotic_covariance,
    evolve,
    log_negativity,
    metrics_at,
    validate_covariance,
)

OMEGA4 = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])

# partial transpose of mode 2 = phase-space mirror p2 -> -p2
PT2 = np.diag([1.0, 1.0, 1.0, -1.0])


def brute_symplectic_eigs(entries: np.ndarray) -> np.ndarray:
    """Moduli of eig(Omega sigma), sorted ascending (each doubled)."""
    return np.sort(np.abs(np.linalg.eigvals(OMEGA4 @ entries)))


def brute_nt_minus(entries: np.ndarray) -> float:
    """Smallest PPT symplectic eigenvalue via explicit mirror reflection."""
    mirrored = PT2 @ entries @ PT2
    return float(brute_symplectic_eigs(mirrored)[0])


def random_standard_form(rng, entangled=None, a_max=3.0):
    """Rejection-sample a bona fide standard form; optionally force
    entangled=True/False at t = 0."""
    while True:
        a = rng.uniform(0.5, a_max)
        b = rng.uniform(0.5, a_max)
        cmax = math.sqrt(a * b) - 1e-3
        c1 = rng.uniform(-cmax, cmax)
        c2 = rng.uniform(-cmax, cmax)
        sf = StandardForm(a, b, c1, c2)
        try:
            report = validate_covariance(sf.to_matrix())
        except GclabError:
            continue
        if not report.bona_fide:
            continue
        if entangled is None:
            return sf
        if entangled != log_negativity(sf.to_matrix()).separable:
            return sf


def random_invalid_standard_form(rng, a_max=3.0):
    """A standard form violating the uncertainty bound (n_minus < 1/2)."""
    while True:
        a = rng.uniform(0.5, a_max)
        b = rng.uniform(0.5, a_max)
        cmax = math.sqrt(a * b) - 1e-6
        c1 = rng.uniform(-cmax, cmax)
        c2 = rng.uniform(-cmax, cmax)
        sf = StandardForm(a, b, c1, c2)
        try:
            report = validate_covariance(sf.to_matrix())
        except GclabError:
            continue
        e = sf.to_matrix().entries
        if (not report.bona_fide and np.linalg.eigvalsh(e)[0] > 0.0
                and brute_symplectic_eigs(e)[0] > 1e-6):
            return sf


def random_channel(rng, squeezed=True, mu_min=0.3, r_max=1.2, gamma=1.0):
    """Random valid channel from the phenomenological triple per bath."""
    mu1 = rng.uniform(mu_min, 1.0)
    mu2 = rng.uniform(mu_min, 1.0)
    if squeezed:
        r1 = rng.uniform(0.0, r_max)
        r2 = rng.uniform(0.0, r_max)
        phi2 = rng.uniform(-math.pi / 4 + 1e-6, math.pi / 4)
    else:
        r1 = r2 = phi2 = 0.0
    return ChannelSpec.from_phenomenological(mu1, r1, mu2, r2, phi2, gamma)


def random_sp2(rng) -> np.ndarray:
    """Random single-mode symplectic matrix (rotation-squeeze-rotation)."""
    def rot(theta):
        c, s = math.cos(theta), math.sin(theta)
        return np.array([[c, s], [-s, c]])
    z = rng.uniform(-0.8, 0.8)
    return rot(rng.uniform(0, 2 * math.pi)) @ np.diag([math.exp(z), math.exp(-z)]) \
        @ rot(rng.uniform(0, 2 * math.pi))


def random_local_symplectic(rng) -> np.ndarray:
    s = np.zeros((4, 4))
    s[:2, :2] = random_sp2(rng)
    s[2:, 2:] = random_sp2(rng)
    return s


def transformed(m: CovarianceMatrix, s: np.ndarray) -> CovarianceMatrix:
    sym = s @ m.entries @ s.T
    return CovarianceMatrix((sym + sym.T) / 2.0)


def scalar_time_series(problem):
    """The row-by-row reference for `time_series`: evolve, then metrics_at."""
    sigma0 = problem.initial.to_matrix()
    sigma_inf = asymptotic_covariance(problem.channel)
    gamma = problem.channel.gamma
    return [metrics_at(evolve(sigma0, sigma_inf, gamma, t), t)
            for t in problem.time_grid]
