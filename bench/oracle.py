"""Independent output oracle for the benchmark.

Nothing here imports gclab.  Every quantity is recomputed from the
symplectic spectrum of sigma(t) and of its mirrored partial transpose, taken
from Hermitian eigenvalue problems, with sigma(t) = sigma_inf (1 - k) +
sigma(0) k built from the conventions the README documents: hbar = 1,
vacuum variance 1/2, mode order (x1, p1, x2, p2), bath blocks
[[1/2 + N + Re M, Im M], [Im M, 1/2 + N - Re M]] with
N + 1/2 = cosh(2r)/(2 mu) and M = sinh(2r)/(2 mu) exp(-2 i phi).

This module only computes expected values; parsing gclab's output and
comparing it with them is check.py's job.
"""

from __future__ import annotations

import math

import numpy as np

T_HORIZON = 60.0          # Gamma t beyond which gclab reports "never"
SCAN_STEP = 0.1           # Gamma t step of the first-crossing scan
SCAN_CHUNK = 20           # scan points evaluated per batch
REFINE_POINTS = 17        # points per refinement pass of a crossing bracket
REFINE_PASSES = 9         # bracket shrinks 16x per pass: 0.1 / 16**9 ~ 1.5e-12
NOISE = 1e-12             # nt_minus - 1/2 must clear this to count as a crossing

_OMEGA1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
_OMEGA = np.kron(np.eye(2), _OMEGA1)
_MIRROR = np.diag([1.0, 1.0, 1.0, -1.0])


# ---------------------------------------------------------------------------
# states and baths from their documented parametrizations
# ---------------------------------------------------------------------------

def state_matrix(state) -> np.ndarray:
    """("sf", a, b, c1, c2) or ("st", mu, r) to a 4x4 covariance matrix."""
    if state[0] == "st":
        mu, r = state[1], state[2]
        s = 2.0 * math.sqrt(mu)
        a, b, c1, c2 = math.cosh(2 * r) / s, math.cosh(2 * r) / s, \
            math.sinh(2 * r) / s, -math.sinh(2 * r) / s
    else:
        a, b, c1, c2 = state[1:]
    return np.array([[a, 0, c1, 0], [0, a, 0, c2],
                     [c1, 0, b, 0], [0, c2, 0, b]], dtype=float)


def bath_nm(bath) -> tuple[float, complex]:
    """("thermal", N) | ("ph", mu, r, phi) | ("nm", N, ReM, ImM) to (N, M)."""
    if bath[0] == "thermal":
        return bath[1], 0j
    if bath[0] == "ph":
        mu, r, phi = bath[1], bath[2], bath[3]
        return ((math.cosh(2 * r) / mu - 1.0) / 2.0,
                math.sinh(2 * r) / (2 * mu) * complex(math.cos(2 * phi),
                                                       -math.sin(2 * phi)))
    return bath[1], complex(bath[2], bath[3])


def sigma_inf(bath1, bath2) -> np.ndarray:
    out = np.zeros((4, 4))
    for i, bath in enumerate((bath1, bath2)):
        N, M = bath_nm(bath)
        out[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [
            [0.5 + N + M.real, M.imag], [M.imag, 0.5 + N - M.real]]
    return out


# ---------------------------------------------------------------------------
# spectra on stacks of matrices
# ---------------------------------------------------------------------------

def evolved(s0: np.ndarray, sinf: np.ndarray, k: np.ndarray) -> np.ndarray:
    k = np.asarray(k, dtype=float)[:, None, None]
    return sinf[None] * (1.0 - k) + s0[None] * k


def _pairs(stack: np.ndarray, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symplectic eigenvalues (lower, upper half) of a stack of positive
    definite matrices.

    With sigma = L L^T, the Hermitian L^T i Omega L is similar to
    i Omega sigma, whose eigenvalues are +-n.  Its spectrum is real by
    construction, so degenerate spectra (vacuum, n- = n+) stay accurate where
    eigvals(Omega sigma) can fail to converge.
    """
    low = np.linalg.cholesky(stack)
    ev = np.abs(np.linalg.eigvalsh(np.swapaxes(low, -1, -2) @ (1j * omega) @ low))
    ev.sort(axis=-1)
    half = ev.shape[-1] // 2
    return ev[..., :half].mean(axis=-1), ev[..., half:].mean(axis=-1)


def uncertainty_margin(sigma: np.ndarray) -> float:
    """min eig(sigma + i Omega / 2): >= 0 iff sigma is bona fide."""
    return float(np.linalg.eigvalsh(sigma + 0.5j * _OMEGA).min())


def spectrum(stack: np.ndarray):
    """(n_minus, n_plus, nt_minus) for a (n, 4, 4) stack."""
    n_minus, n_plus = _pairs(stack, _OMEGA)
    nt_minus, _ = _pairs(_MIRROR @ stack @ _MIRROR, _OMEGA)
    return n_minus, n_plus, nt_minus


def nt_minus_at(s0, sinf, k) -> np.ndarray:
    return _pairs(_MIRROR @ evolved(s0, sinf, k) @ _MIRROR, _OMEGA)[0]


def crossing_tau(s0: np.ndarray, sinf: np.ndarray) -> float | None:
    """First Gamma t in (0, T_HORIZON] where nt_minus reaches 1/2, or None.

    A scan in steps of SCAN_STEP finds the first point with
    nt_minus - 1/2 >= NOISE; the bracket before it is then narrowed to ~1e-12.
    """
    steps = int(round(T_HORIZON / SCAN_STEP))
    lo = 0.0
    for first in range(1, steps + 1, SCAN_CHUNK):
        taus = SCAN_STEP * np.arange(first, min(first + SCAN_CHUNK, steps + 1))
        hit = np.flatnonzero(nt_minus_at(s0, sinf, np.exp(-taus)) - 0.5 >= NOISE)
        if hit.size:
            hi = taus[hit[0]]
            lo = taus[hit[0] - 1] if hit[0] else lo
            break
        lo = taus[-1]
    else:
        return None
    for _ in range(REFINE_PASSES):
        sub = np.linspace(lo, hi, REFINE_POINTS)
        j = int(np.argmax(nt_minus_at(s0, sinf, np.exp(-sub)) >= 0.5))
        if j == 0:
            return float(lo)
        lo, hi = sub[j - 1], sub[j]
    return float(0.5 * (lo + hi))


def _entropy_f(x: np.ndarray) -> np.ndarray:
    x = np.maximum(x, 0.5)
    xm = x - 0.5
    out = (x + 0.5) * np.log(x + 0.5)
    return out - np.where(xm > 0.0, xm * np.log(np.where(xm > 0.0, xm, 1.0)), 0.0)


def metric_rows(sig: np.ndarray, times) -> np.ndarray:
    """Expected values of the (n, 4, 4) stack `sig` sampled at `times`,
    shape (n, 9): t, purity, S_V, I, E_N, nt_minus, n_minus, n_plus and the
    separable flag (1.0 or 0.0), the column order of gclab's metric CSV."""
    times = np.asarray(times, dtype=float)
    n_minus, n_plus, nt_minus = spectrum(sig)
    local_a, _ = _pairs(sig[:, :2, :2], _OMEGA1)
    local_b, _ = _pairs(sig[:, 2:, 2:], _OMEGA1)
    entropy = _entropy_f(n_minus) + _entropy_f(n_plus)
    mutual = np.maximum(_entropy_f(local_a) + _entropy_f(local_b) - entropy, 0.0)
    return np.column_stack([
        times,
        np.minimum(1.0 / (4.0 * n_minus * n_plus), 1.0),
        entropy,
        mutual,
        np.maximum(0.0, -np.log(2.0 * nt_minus)),
        nt_minus,
        n_minus,
        n_plus,
        (nt_minus >= 0.5).astype(float),
    ])
