"""Separability analysis along the channel: the invariant polynomials and the
separability quartic in k = exp(-Gamma t), the entanglement time with an
independent bisection cross-check, and closed-form special cases.

sigma(k) = sigma_inf (1 - k) + sigma(0) k, for a standard form sigma(0) in
uncorrelated baths (bath 1 squeezing real: the phi1 = 0 reference choice), has
seven entries that can be non-zero, each affine in k: alpha = diag(al1, al2),
gamma = diag(g1, g2) and beta with be11, be22 and be12 (bath 2's angle).  So
Det alpha = al1 al2, Det beta = be11 be22 - be12^2, Det gamma = g1 g2 and

    Det sigma = (al1 be11 - g1^2)(al2 be22 - g2^2) - al1 al2 be12^2.

The PPT boundary nt_minus = 1/2 is the quartic in k
4 Det sigma + 1/4 - Det alpha - Det beta + 2 Det gamma = 0, and its root
closest to (and not above) one gives t_ent = -(1/Gamma) ln k_ent.  The float
entries of sigma(0) and sigma_inf are integers over one power of two, so the
polynomials are formed exactly and each coefficient is rounded once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .channels import ChannelSpec, asymptotic_covariance
from .errors import (
    DomainError,
    MethodDisagreementError,
    NotEntangledAtStartError,
    UnphysicalChannelError,
)
from .states import (CovarianceMatrix, StandardForm, block_invariants, log_negativity,
                     require_bona_fide, symplectic_pair)

# Gamma*t horizon beyond which the state is numerically asymptotic
T_HORIZON = 60.0
K_MIN = math.exp(-T_HORIZON)
# quartic-vs-bisection agreement tolerance, absolute in k
K_AGREE = 1e-7

NEVER = math.inf

# al1, al2, be11, be22, be12, g1, g2 from the 16 entries of a 4x4 matrix
SEVEN = operator.itemgetter(0, 5, 10, 15, 11, 2, 7)
OUT_OF_RANGE = "sigma(0) or sigma_inf is outside the numerical range of the quartic"


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
class EntanglementTimeResult:
    t_ent: float                 # math.inf means "never separable"
    k_ent: float                 # 0.0 when never
    method: str                  # "quartic" or "bisection"
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


def _exact_invariants(sigma0: CovarianceMatrix, sigma_inf: CovarianceMatrix):
    """The invariants of sigma(k), exact: (e, Det alpha, Det beta, Det gamma,
    Det sigma) as ascending integer coefficients in k over 4**e (Det sigma:
    16**e), where 2**e is the common denominator of the seven entries."""
    sinf, s0 = sigma_inf.entries.ravel().tolist(), sigma0.entries.ravel().tolist()
    if abs(sinf[1]) > 1e-12:
        raise UnphysicalChannelError("bath 1 squeezing must be real (phi1 = 0 reference "
                                     f"choice); got Im M1 = {sinf[1]:.3e}")
    try:
        ratios = [x.as_integer_ratio() for x in SEVEN(sinf) + SEVEN(s0)]
    except (OverflowError, ValueError):
        raise DomainError(OUT_OF_RANGE) from None
    e = max(d for _, d in ratios).bit_length() - 1
    ints = [n << (e + 1 - d.bit_length()) for n, d in ratios]
    al1, al2, be11, be22, be12, g1, g2 = zip(ints[:7], map(operator.sub, ints[7:], ints[:7]))
    det_a = _mul(al1, al2)
    be12_sq = _mul(be12, be12)
    det_b = _sub(_mul(be11, be22), be12_sq)
    left = _sub(_mul(al1, be11), _mul(g1, g1))
    right = _sub(_mul(al2, be22), _mul(g2, g2))
    det_s = _sub(_mul2(left, right), _mul2(det_a, be12_sq))
    return e, det_a, det_b, _mul(g1, g2), det_s


def _mul(p, q):
    """Product of two affine integer polynomials (ascending coefficients)."""
    (p0, p1), (q0, q1) = p, q
    return (p0 * q0, p0 * q1 + p1 * q0, p1 * q1)


def _mul2(p, q):
    """Product of two quadratic integer polynomials (ascending coefficients)."""
    (p0, p1, p2), (q0, q1, q2) = p, q
    return (p0 * q0, p0 * q1 + p1 * q0, p0 * q2 + p1 * q1 + p2 * q0,
            p1 * q2 + p2 * q1, p2 * q2)


def _sub(p, q):
    return tuple(map(operator.sub, p, q))


def _rounded(ints, e: int) -> tuple[float, ...]:
    """Each integer over 2**e, rounded once (int / int rounds correctly)."""
    try:
        return tuple(n / (1 << e) for n in ints)
    except OverflowError:
        raise DomainError(OUT_OF_RANGE) from None


def invariant_polynomials(sf: StandardForm, channel: ChannelSpec) -> InvariantPolynomials:
    """The four invariants' coefficients in k, exact and each rounded once."""
    e, det_a, det_b, det_g, det_s = _exact_invariants(
        sf.to_matrix(), asymptotic_covariance(channel))
    return InvariantPolynomials(_rounded(det_s, 4 * e), _rounded(det_a, 2 * e),
                                _rounded(det_b, 2 * e), _rounded(det_g, 2 * e)[2])


def separability_quartic(sigma0: CovarianceMatrix,
                         sigma_inf: CovarianceMatrix) -> tuple[float, ...]:
    """Descending coefficients (u, v, w, y, z) in k of 4 Det sigma + 1/4 -
    Det alpha - Det beta + 2 Det gamma along the channel from a standard form
    sigma0 to sigma_inf, assembled in integers and each rounded once."""
    e, det_a, det_b, det_g, det_s = _exact_invariants(sigma0, sigma_inf)
    # 4 P 16**e = 16 Det sigma + 16**e - 4**(e+1) (Det alpha + Det beta - 2 Det gamma)
    p = [16 * s for s in det_s]
    for j in range(3):
        p[j] -= (det_a[j] + det_b[j] - 2 * det_g[j]) << (2 * e + 2)
    p[0] += 1 << (4 * e)
    return _rounded(reversed(p), 4 * e + 2)


def _polish(coeffs, x: float, iters: int = 8) -> float:
    """Newton refinement on the full polynomial (descending coefficients)."""
    for _ in range(iters):
        val = der = 0.0
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
    """All real roots of u k^4 + v k^3 + w k^2 + y k + z, ascending.

    Leading coefficients below 1e-14 of the coefficient scale are dropped, and
    the roots are companion-matrix eigenvalues (np.roots).  A multiple root
    comes back split (a double root into a complex pair with |Im| ~ 1e-8), so
    |Im| <= 1e-6 max(1, |root|) counts as real; callers re-check roots.  Only
    eigenvalues with Im exactly 0 are Newton-polished: at a complex cluster
    Newton can move the root by 1e-4, so its real part is kept.  Roots within
    1e-7 max(1, |root|) are merged into their mean.
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


def _nt_minus_fn(s0: np.ndarray, sinf: np.ndarray):
    """Batched nt_minus(k) evaluator on the raw entries of sigma(0) and
    sigma_inf (no per-call validation), by the kernels `symplectic_spectrum`
    uses, so each value is bitwise the one it gives on sigma(k)."""

    def nt_minus(k: np.ndarray) -> np.ndarray:
        kk = k[:, None, None]
        s = sinf * (1.0 - kk) + s0 * kk
        det_a, det_b, det_g, det_s = block_invariants(s)
        return symplectic_pair(det_a + det_b - 2.0 * det_g, det_s)[0]

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
    g(1) < 0: g(1) is bitwise the nt_minus of sigma(0), checked by the caller.

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

    sigma_inf is validated before sigma(0), so a bad bath is reported before
    a bad state.  The quartic root closest to one is cross-checked against an
    independent bisection on nt_minus(t) - 1/2; disagreement beyond tolerance
    raises.
    """
    sigma0, sigma_inf = sf.to_matrix(), asymptotic_covariance(channel)
    require_bona_fide(sigma_inf)
    neg0 = log_negativity(sigma0)
    if neg0.separable:
        raise NotEntangledAtStartError(
            f"state is separable at t = 0 (nt_minus = {neg0.nt_minus:.6g}, E_N = 0)")

    nt = _nt_minus_fn(sigma0.entries, sigma_inf.entries)
    g = lambda k: nt(k) - 0.5
    candidates = [k for k in real_quartic_roots(*separability_quartic(sigma0, sigma_inf))
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
