"""Separability analysis along the channel: invariant polynomials in
k = exp(-Gamma t), the quartic separability equation, entanglement time with
an independent bisection cross-check, and closed-form special cases.

The local symplectic invariants of the evolved state are exact polynomials
in k.  Writing n_i = N_i + 1/2, m1 = Re M1 (bath 1 squeezing is taken real,
the phi1 = 0 reference choice), p2 = Re M2, and D_i = Det(sigma_i_inf):

    Det sigma(t) = sum_j Sigma_j k^j      (degree 4)
    Det alpha(t) = sum_j alpha_j k^j      (degree 2)
    Det beta(t)  = sum_j beta_j k^j       (degree 2)
    Det gamma(t) = gamma_2 k^2

The PPT boundary nt_minus = 1/2 is equivalent to

    4 Det sigma(t) + 1/4 - Det alpha(t) - Det beta(t) + 2 Det gamma(t) = 0

which is quartic in k; its solution closest to (and not exceeding) one gives
the entanglement time t_ent = -(1/Gamma) ln k_ent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelSpec, asymptotic_covariance
from .errors import (
    DomainError,
    MethodDisagreementError,
    NotEntangledAtStartError,
    UnphysicalChannelError,
)
from .evolution import _invariants
from .states import StandardForm, log_negativity

# Gamma*t horizon beyond which the state is numerically asymptotic
T_HORIZON = 60.0
K_MIN = math.exp(-T_HORIZON)
# quartic-vs-bisection agreement tolerance, absolute in k
K_AGREE = 1e-7

NEVER = math.inf


@dataclass(frozen=True)
class InvariantPolynomials:
    """Coefficients (ascending powers of k) of the four evolved invariants."""

    sigma_coeffs: tuple[float, float, float, float, float]
    alpha_coeffs: tuple[float, float, float]
    beta_coeffs: tuple[float, float, float]
    gamma2: float

    def det_sigma_at(self, k: float) -> float:
        return _horner(self.sigma_coeffs, k)

    def det_alpha_at(self, k: float) -> float:
        return _horner(self.alpha_coeffs, k)

    def det_beta_at(self, k: float) -> float:
        return _horner(self.beta_coeffs, k)

    def det_gamma_at(self, k: float) -> float:
        return self.gamma2 * k * k


@dataclass(frozen=True)
class SeparabilityQuartic:
    """u k^4 + v k^3 + w k^2 + y k + z = 0 marks the PPT boundary."""

    u: float
    v: float
    w: float
    y: float
    z: float

    def evaluate(self, k: float) -> float:
        return (((self.u * k + self.v) * k + self.w) * k + self.y) * k + self.z

    def coefficients(self) -> tuple[float, float, float, float, float]:
        return (self.u, self.v, self.w, self.y, self.z)


@dataclass(frozen=True)
class EntanglementTimeResult:
    t_ent: float                 # math.inf means "never separable"
    k_ent: float                 # 0.0 when never
    method: str                  # "quartic", "bisection" or "closed_form"
    residual: float              # |nt_minus(t_ent) - 1/2|
    tangent: bool = False        # nt_minus touches 1/2 without crossing

    @property
    def never(self) -> bool:
        return math.isinf(self.t_ent)


def _horner(coeffs_ascending, k: float) -> float:
    out = 0.0
    for c in reversed(coeffs_ascending):
        out = out * k + c
    return out


def invariant_polynomials(sf: StandardForm, channel: ChannelSpec) -> InvariantPolynomials:
    """Exact coefficient sets for a standard-form state in uncorrelated baths."""
    b1, b2 = channel.bath1, channel.bath2
    if abs(b1.M.imag) > 1e-12:
        raise UnphysicalChannelError(
            "bath 1 squeezing must be real (phi1 = 0 reference choice); "
            f"got Im M1 = {b1.M.imag:.3e}")
    a, b, c1, c2 = sf.a, sf.b, sf.c1, sf.c2
    n1 = b1.N + 0.5
    n2 = b2.N + 0.5
    m1 = b1.M.real
    p2 = b2.M.real
    d1 = n1 * n1 - m1 * m1           # Det of bath-1 block = 1/(4 mu1^2)
    d2 = n2 * n2 - abs(b2.M) ** 2    # Det of bath-2 block = 1/(4 mu2^2)
    cp = c1 * c1 + c2 * c2
    cm = c1 * c1 - c2 * c2

    s4 = (a * a * b * b + a * a * d2 + b * b * d1
          - 2.0 * a * a * b * n2 - 2.0 * a * b * b * n1 + 4.0 * a * b * n1 * n2
          - 2.0 * a * n1 * d2 - 2.0 * b * n2 * d1
          + cp * (a * n2 + b * n1 - n1 * n2 - m1 * p2 - a * b)
          - cm * (a * p2 + b * m1 - m1 * n2 - n1 * p2)
          + c1 * c1 * c2 * c2 + d1 * d2)
    s3 = (-2.0 * a * a * d2 - 2.0 * b * b * d1
          + 2.0 * a * a * b * n2 + 2.0 * a * b * b * n1 - 8.0 * a * b * n1 * n2
          + 6.0 * a * n1 * d2 + 6.0 * b * n2 * d1
          + cm * (a * p2 + b * m1 - 2.0 * m1 * n2 - 2.0 * n1 * p2)
          - cp * (a * n2 + b * n1 - 2.0 * n1 * n2 - 2.0 * m1 * p2)
          - 4.0 * d1 * d2)
    s2 = (a * a * d2 + b * b * d1 + 4.0 * a * b * n1 * n2
          - 6.0 * a * n1 * d2 - 6.0 * b * n2 * d1
          - cp * (n1 * n2 + m1 * p2) + cm * (m1 * n2 + n1 * p2)
          + 6.0 * d1 * d2)
    s1 = 2.0 * a * n1 * d2 + 2.0 * b * n2 * d1 - 4.0 * d1 * d2
    s0 = d1 * d2

    al2 = a * a - 2.0 * a * n1 + d1
    al1 = 2.0 * a * n1 - 2.0 * d1
    al0 = d1
    be2 = b * b - 2.0 * b * n2 + d2
    be1 = 2.0 * b * n2 - 2.0 * d2
    be0 = d2

    return InvariantPolynomials(
        sigma_coeffs=(s0, s1, s2, s3, s4),
        alpha_coeffs=(al0, al1, al2),
        beta_coeffs=(be0, be1, be2),
        gamma2=c1 * c2,
    )


def separability_quartic(p: InvariantPolynomials) -> SeparabilityQuartic:
    """PPT-boundary quartic 4 Det sigma + 1/4 - Det alpha - Det beta + 2 Det gamma."""
    s0, s1, s2, s3, s4 = p.sigma_coeffs
    a0, a1, a2 = p.alpha_coeffs
    b0, b1, b2 = p.beta_coeffs
    return SeparabilityQuartic(
        u=4.0 * s4,
        v=4.0 * s3,
        w=4.0 * s2 - a2 - b2 + 2.0 * p.gamma2,
        y=4.0 * s1 - a1 - b1,
        z=4.0 * s0 - a0 - b0 + 0.25,
    )


# ---------------------------------------------------------------------------
# real-root extraction for the separability quartic (eigenvalues + Newton polish)
# ---------------------------------------------------------------------------

def _polish(coeffs, x: float, iters: int = 8) -> float:
    """Newton refinement on the full polynomial (descending coefficients)."""
    for _ in range(iters):
        val = 0.0
        der = 0.0
        for c in coeffs:
            der = der * x + val
            val = val * x + c
        if der == 0.0:
            break
        step = val / der
        x -= step
        if abs(step) < 1e-16 * max(abs(x), 1.0):
            break
    return x


def real_quartic_roots(u: float, v: float, w: float, y: float, z: float) -> list[float]:
    """All real roots of u k^4 + v k^3 + w k^2 + y k + z.

    Leading coefficients below 1e-14 of the coefficient scale are dropped.
    The roots are companion-matrix eigenvalues (np.roots).  A multiple root
    comes back split, into nearby real eigenvalues or into a near-real
    complex cluster (|Im| ~ 1e-8 for a double root), so |Im| <= 1e-6
    max(1, |root|) counts as real; callers re-check roots.  Only eigenvalues
    with Im exactly 0 are Newton-polished: at a complex cluster the
    polynomial and its derivative are both rounding noise, so Newton can move
    the root by 1e-4 (0.3 of (k-0.3)^2 (k-0.7)^2), and the cluster's real
    part is kept instead.  Real halves of a split double root stay about
    3e-9 apart after Newton, so roots within 1e-7 max(1, |root|) are merged
    into their mean.
    """
    # Python floats throughout: Newton on numpy scalars is about 2.5x slower
    coeffs = [float(c) for c in (u, v, w, y, z)]
    scale = max(abs(c) for c in coeffs)
    if scale == 0.0:
        return []
    tiny = 1e-14 * scale
    while len(coeffs) > 1 and abs(coeffs[0]) <= tiny:
        coeffs = coeffs[1:]

    out = []
    for x in sorted(_polish(coeffs, root.real) if root.imag == 0.0 else root.real
                    for root in np.roots(coeffs).tolist()
                    if abs(root.imag) <= 1e-6 * max(1.0, abs(root))):
        if out and x - out[-1] <= 1e-7 * max(1.0, abs(x)):
            out[-1] = 0.5 * (out[-1] + x)
        else:
            out.append(x)
    return out


# ---------------------------------------------------------------------------
# entanglement time
# ---------------------------------------------------------------------------

def _nt_minus_fn(sf: StandardForm, channel: ChannelSpec):
    """Batched nt_minus(k) evaluator on raw entries (no per-call validation);
    each value is bitwise the one a single 4x4 `det` gives."""
    s0 = sf.to_matrix().entries
    sinf = asymptotic_covariance(channel).entries

    def nt_minus(k: np.ndarray) -> np.ndarray:
        s = sinf * (1.0 - k[:, None, None]) + s0 * k[:, None, None]
        det_a, det_b, det_g, det_s = _invariants(s)
        delta_t = det_a + det_b - 2.0 * det_g
        rad = np.maximum(delta_t * delta_t - 4.0 * det_s, 0.0)
        return np.sqrt(np.maximum((delta_t - np.sqrt(rad)) / 2.0, 0.0))

    return nt_minus


# nt_minus evaluations near a degenerate PPT spectrum carry sqrt-cancellation
# noise of order 1e-8; a sign change must clear this to count as a crossing
G_NOISE = 1e-7
# scan grid from k = 1 down, Gamma t_i = T_HORIZON i / 3000, scanned in chunks
# of 32, 64, 128, ... points: an early crossing costs one or two batches
SCAN_K = np.array([math.exp(-T_HORIZON * i / 3000) for i in range(3001)])
# a batch of 32 costs under twice a batch of one and narrows a bracket 33-fold
REFINE_POINTS = 32


def _bisect_crossing(g) -> float | None:
    """First k (descending from 1) where g = nt_minus - 1/2 (a batched
    evaluator) turns >= 0; None if g never reaches G_NOISE on the scan grid.

    The bracket runs from the first scan point with g >= G_NOISE up to the
    nearest earlier one with g <= -G_NOISE (else k = 1).  Local channels cannot
    create entanglement, so g >= 0 up to rounding past the first crossing, and
    the bisection on the sign of g cannot leave it.
    """
    hi = 1.0
    start, size = 0, 32
    while start < SCAN_K.size:
        ks = SCAN_K[start:start + size]
        gs = g(ks)
        if start == 0 and gs[0] >= 0.0:
            return 1.0
        hits = np.flatnonzero(gs >= G_NOISE)
        end = hits[0] if hits.size else ks.size
        below = np.flatnonzero(gs[:end] <= -G_NOISE)
        hi = ks[below[-1]] if below.size else hi
        if hits.size:
            lo = ks[end]
            break
        start, size = start + size, 2 * size
    else:
        return None
    while hi - lo >= 1e-13:
        pts = np.linspace(hi, lo, REFINE_POINTS + 2)
        i = int(np.argmax(np.append(g(pts[1:-1]) >= 0.0, True))) + 1
        lo, hi = pts[i], pts[i - 1]
    return float(0.5 * (lo + hi))


def entanglement_time(sf: StandardForm, channel: ChannelSpec) -> EntanglementTimeResult:
    """Time at which an initially entangled state becomes separable.

    The quartic root closest to one is cross-checked against an independent
    bisection on nt_minus(t) - 1/2; disagreement beyond tolerance raises.
    """
    neg0 = log_negativity(sf.to_matrix())
    if neg0.separable:
        raise NotEntangledAtStartError(
            f"state is separable at t = 0 (nt_minus = {neg0.nt_minus:.6g}, E_N = 0)")

    nt = _nt_minus_fn(sf, channel)
    g = lambda k: nt(k) - 0.5
    quartic = separability_quartic(invariant_polynomials(sf, channel))
    candidates = [k for k in real_quartic_roots(*quartic.coefficients())
                  if K_MIN < k <= 1.0 + 1e-12]
    # every candidate re-checked in one batch; the largest k that passes wins
    ks = np.minimum(np.sort(candidates)[::-1], 1.0)
    passing = [(k, r) for k, r in zip(ks.tolist(), np.abs(g(ks)).tolist()) if r <= 1e-6]
    k_quartic, res_quartic = passing[0] if passing else (None, None)

    k_bisect = _bisect_crossing(g)

    if k_quartic is None and k_bisect is None:
        return EntanglementTimeResult(NEVER, 0.0, "bisection", math.nan)
    if k_quartic is None:
        k, method, residual = k_bisect, "bisection", float(abs(g(np.array([k_bisect]))[0]))
    else:
        if k_bisect is not None and abs(k_quartic - k_bisect) > K_AGREE:
            raise MethodDisagreementError(
                f"quartic root k = {k_quartic:.12g} vs bisection k = {k_bisect:.12g}")
        k, method, residual = k_quartic, "quartic", res_quartic
    t_ent = -math.log(k) / channel.gamma
    if math.isinf(t_ent):
        # a finite k: "never" is reserved for no crossing at all
        raise DomainError(f"entanglement time -ln(k)/gamma overflows at k = {k:.12g}, "
                          f"gamma = {channel.gamma:.6g}")
    # without a sign change, nt_minus touches 1/2 at the quartic root
    return EntanglementTimeResult(t_ent, k, method, residual, tangent=k_bisect is None)


def symmetric_tent_bounds(a: float, c1: float, c2: float, N_B: float,
                          gamma: float = 1.0) -> tuple[float, float]:
    """Entanglement-time bounds for symmetric states in equal thermal baths.

    Requires |c1| <= |c2|; the lower bound is clamped to 0 when already loose.
    """
    if abs(c1) > abs(c2) + 1e-12:
        raise DomainError("bounds require |c1| <= |c2|")
    if N_B < 0.0:
        raise DomainError(f"N_B must be >= 0, got {N_B:.6g}")
    if N_B == 0.0:
        return NEVER, NEVER
    arg_lo = 1.0 + (abs(c1) - a + 0.5) / N_B
    arg_hi = 1.0 + (abs(c2) - a + 0.5) / N_B
    lower = math.log(arg_lo) / gamma if arg_lo > 1.0 else 0.0
    upper = math.log(arg_hi) / gamma if arg_hi > 1.0 else 0.0
    return lower, upper


def squeezed_thermal_tent(mu_state: float, r: float, N_B: float,
                          gamma: float = 1.0) -> float:
    """Closed-form entanglement time of a squeezed thermal state in equal
    thermal baths; math.inf for vacuum baths (N_B = 0).

    For this family the partially transposed eigenvalue is linear in
    k = exp(-gamma t):  nt_minus(t) = exp(-2r)/(2 sqrt(mu)) * k
    + (N_B + 1/2)(1 - k), so the crossing nt_minus = 1/2 happens at
    1/k = 1 + (sqrt(mu) - exp(-2r)) / (2 sqrt(mu) N_B).  This is the
    degenerate (|c1| = |c2|) limit of the symmetric-state bounds and
    agrees with entanglement_time() on the same configuration.
    """
    if not 0.0 < mu_state <= 1.0:
        raise DomainError(f"purity must lie in (0, 1], got {mu_state:.6g}")
    if r <= 0.0:
        raise DomainError(f"squeezing must be > 0, got {r:.6g}")
    if N_B < 0.0:
        raise DomainError(f"N_B must be >= 0, got {N_B:.6g}")
    root_mu = math.sqrt(mu_state)
    if root_mu <= math.exp(-2.0 * r):
        raise NotEntangledAtStartError(
            f"state with purity {mu_state:.6g} and squeezing {r:.6g} "
            "is separable at t = 0")
    if N_B == 0.0:
        return NEVER
    return math.log(1.0 + (root_mu - math.exp(-2.0 * r))
                    / (2.0 * root_mu * N_B)) / gamma
