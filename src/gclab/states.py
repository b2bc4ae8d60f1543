"""Covariance-matrix value types and scalar functionals of Gaussian states.

Conventions: hbar = 1, vacuum quadrature variance 1/2.  Two-mode matrices are
4x4 with mode ordering (x1, p1, x2, p2); single-mode matrices are 2x2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ComplexSpectrumError,
    DomainError,
    InvalidStateError,
    NonSymmetricMatrixError,
    NotSymmetricStateError,
    NumericalDegeneracyError,
)

EPS_SYM = 1e-12     # entrywise symmetry tolerance
EPS_PHYS = 1e-9     # physicality slack on eigenvalue thresholds
EPS_CLAMP = 1e-12   # radicands/discriminants above -EPS_CLAMP are clamped to 0


@dataclass(frozen=True)
class CovarianceMatrix:
    """Real symmetric matrix of second moments; the Gaussian state itself.

    First moments are not represented: they are irrelevant to purity,
    entropy and entanglement, and damp to zero in the channels we model.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.shape not in ((2, 2), (4, 4)):
            raise NonSymmetricMatrixError(
                f"covariance matrix must be 2x2 or 4x4, got {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def mode_count(self) -> int:
        return self.entries.shape[0] // 2

    @property
    def symmetry_residual(self) -> float:
        return float(np.max(np.abs(self.entries - self.entries.T)))

    def block(self, i: int, j: int) -> np.ndarray:
        return self.entries[2 * i:2 * i + 2, 2 * j:2 * j + 2]


@dataclass(frozen=True)
class SymplecticInvariants:
    """The four local symplectic invariants plus the two Delta combinations."""

    det_alpha: float
    det_beta: float
    det_gamma: float
    det_sigma: float

    @property
    def delta(self) -> float:
        return self.det_alpha + self.det_beta + 2.0 * self.det_gamma

    @property
    def delta_tilde(self) -> float:
        return self.det_alpha + self.det_beta - 2.0 * self.det_gamma


@dataclass(frozen=True)
class StandardForm:
    """Canonical quadruple (a, b, c1, c2) of a two-mode covariance matrix."""

    a: float
    b: float
    c1: float
    c2: float

    def to_matrix(self) -> CovarianceMatrix:
        a, b, c1, c2 = self.a, self.b, self.c1, self.c2
        return CovarianceMatrix(np.array([
            [a, 0.0, c1, 0.0],
            [0.0, a, 0.0, c2],
            [c1, 0.0, b, 0.0],
            [0.0, c2, 0.0, b],
        ]))


@dataclass(frozen=True)
class SymplecticSpectrum:
    """Ordinary and partial-transpose symplectic eigenvalue pairs."""

    n_minus: float
    n_plus: float
    nt_minus: float
    nt_plus: float


@dataclass(frozen=True)
class ValidationReport:
    symmetry_residual: float
    margin: float          # min eigvalsh(sigma + i Omega / 2); nan if Det sigma is not finite
    det_sigma: float
    bona_fide: bool


@dataclass(frozen=True)
class NegativityResult:
    log_negativity: float
    negativity: float
    nt_minus: float
    separable: bool


def _check_symmetric(m: CovarianceMatrix) -> float:
    res = m.symmetry_residual
    if res > EPS_SYM:
        raise NonSymmetricMatrixError(
            f"symmetry residual {res:.3e} exceeds {EPS_SYM:.0e}")
    return res


# flat 4x4 indices of x00, x11, x01 and x10 of the blocks alpha, beta, gamma
_BLOCK_ENTRIES = np.array([[0, 10, 2], [5, 15, 7], [1, 11, 3], [4, 14, 6]])


def block_invariants(stack: np.ndarray):
    """Det alpha, Det beta, Det gamma and Det sigma of each 4x4 matrix of an
    (n, 4, 4) stack, as four arrays of length n."""
    x00, x11, x01, x10 = stack.reshape(-1, 16).T[_BLOCK_ENTRIES]
    det_a, det_b, det_g = x00 * x11 - x01 * x10
    return det_a, det_b, det_g, np.linalg.det(stack)


def local_invariants(m: CovarianceMatrix) -> SymplecticInvariants:
    """Block determinants Det(alpha), Det(beta), Det(gamma), Det(sigma)."""
    _check_symmetric(m)
    if m.mode_count != 2:
        raise NonSymmetricMatrixError("local_invariants requires a 4x4 matrix")
    return SymplecticInvariants(*(float(x[0]) for x in block_invariants(m.entries[None])))


@np.errstate(over="ignore", invalid="ignore")
def symplectic_pair(delta, det_sigma):
    """The pair of square roots of the roots of q^2 - delta q + Det sigma, on
    floats or arrays: n-+ for delta = Delta, nt-+ for delta = Delta tilde.

    Returns (lower, upper, radicand, lower squared before clamping).  The
    radicand and the squares are clamped at 0; a caller rejects a pair whose
    radicand is not finite or whose radicand or lower square is below
    -EPS_CLAMP (the upper square is never below the lower one).
    """
    rad = delta * delta - 4.0 * det_sigma
    root = np.sqrt(np.maximum(rad, 0.0))
    lower_sq = (delta - root) / 2.0
    upper_sq = (delta + root) / 2.0
    return np.sqrt(np.maximum(lower_sq, 0.0)), np.sqrt(np.maximum(upper_sq, 0.0)), rad, lower_sq


@np.errstate(divide="ignore", invalid="ignore")
def entropy_f(x):
    """f(x) = (x+1/2)ln(x+1/2) - (x-1/2)ln(x-1/2), with 0 ln 0 = 0, on floats
    or arrays.  np.log gives the same bits on a float and at every position of
    an array, so the scalar functionals and the series core agree bit for bit."""
    xm = x - 0.5
    return (x + 0.5) * np.log(x + 0.5) - np.where(xm > 0.0, xm * np.log(xm), 0.0)


_OMEGA2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
_HALF_I_OMEGA = {
    2: 0.5j * _OMEGA2,
    4: 0.5j * np.kron(np.eye(2), _OMEGA2),
}


def validate_covariance(m: CovarianceMatrix) -> ValidationReport:
    """Symmetry + uncertainty-principle check; reports, never raises on a
    symmetric 2x2 or 4x4 matrix.

    sigma is bona fide iff sigma + i Omega / 2 >= 0 (Simon, Mukunda & Dutta,
    PRA 49, 1567 (1994)), decided by the margin min eigvalsh(sigma + i Omega
    / 2) >= -EPS_PHYS.  The matrix is Hermitian, so the margin is real even
    where sigma is singular or indefinite; for positive definite sigma its
    sign is the sign of n_minus - 1/2.

    A matrix whose Det sigma is not finite (overflowing or non-finite
    entries) is not bona fide, with margin nan.  Nor is one whose Det sigma
    is <= 0: the uncertainty principle forces Det sigma >= 1/16 (one mode:
    1/4), and a Det sigma of 0.0 is what rounding leaves of matrices with
    huge entries, whose margin may still pass.
    """
    res = _check_symmetric(m)
    e = m.entries
    with np.errstate(over="ignore"):
        det = float(np.linalg.det(e))
    if not math.isfinite(det):
        return ValidationReport(res, math.nan, det, False)
    margin = float(np.linalg.eigvalsh(e + _HALF_I_OMEGA[len(e)])[0])
    return ValidationReport(res, margin, det, det > 0.0 and margin >= -EPS_PHYS)


def require_bona_fide(m: CovarianceMatrix) -> ValidationReport:
    report = validate_covariance(m)
    if not report.bona_fide:
        # a margin that passes (nan where Det sigma is not finite) leaves a
        # Det sigma that rounding or overflow in the entries made <= 0
        out_of_range = "" if report.margin < -EPS_PHYS else ", outside the numerical range"
        raise InvalidStateError(
            "matrix is not a bona fide covariance matrix (min eig(sigma + i Omega/2)"
            f" = {report.margin:.6g}, Det sigma = {report.det_sigma:.6g}){out_of_range}")
    return report


def symplectic_spectrum(m: CovarianceMatrix) -> SymplecticSpectrum:
    """Ordinary and partial-transpose symplectic eigenvalues of a 4x4 matrix."""
    return _spectrum_of(local_invariants(m))


def _spectrum_of(inv: SymplecticInvariants) -> SymplecticSpectrum:
    """n+- and nt+- from the invariants, by `symplectic_pair`."""
    lower, upper, rad, lower_sq = symplectic_pair(
        np.array([inv.delta, inv.delta_tilde]), inv.det_sigma)
    for r, sq in zip(rad.tolist(), lower_sq.tolist()):
        if not math.isfinite(r):
            raise DomainError("spectrum radicand is outside the numerical range")
        if r < -EPS_CLAMP:
            raise ComplexSpectrumError(f"spectrum radicand {r:.3e} < 0")
        if sq < -EPS_CLAMP:
            raise ComplexSpectrumError("negative squared symplectic eigenvalue")
    (n_minus, nt_minus), (n_plus, nt_plus) = lower.tolist(), upper.tolist()
    return SymplecticSpectrum(n_minus, n_plus, nt_minus, nt_plus)


def purity(m: CovarianceMatrix) -> float:
    """mu = 1 / (2^n sqrt(Det sigma))."""
    det = require_bona_fide(m).det_sigma
    mu = 1.0 / (2 ** m.mode_count * math.sqrt(det))
    if mu > 1.0 + EPS_PHYS:
        raise InvalidStateError(f"purity {mu:.6g} exceeds 1")
    return min(mu, 1.0)


def entropy_kernel(x: float) -> float:
    """f(x) = (x+1/2)ln(x+1/2) - (x-1/2)ln(x-1/2), with 0 ln 0 = 0."""
    if x < 0.5 - EPS_PHYS:
        raise DomainError(f"entropy kernel needs x >= 1/2, got {x:.6g}")
    return float(entropy_f(x))


def von_neumann_entropy(m: CovarianceMatrix) -> float:
    """Two-mode: f(n-) + f(n+).  One-mode: closed form in the purity."""
    require_bona_fide(m)
    if m.mode_count == 1:
        mu = purity(m)
        if mu >= 1.0:
            return 0.0
        return float((1.0 - mu) / (2.0 * mu) * np.log((1.0 + mu) / (1.0 - mu))
                     - np.log(2.0 * mu / (1.0 + mu)))
    spec = symplectic_spectrum(m)
    return entropy_kernel(max(spec.n_minus, 0.5)) + entropy_kernel(spec.n_plus)


def mutual_information(m: CovarianceMatrix) -> float:
    """I = f(a) + f(b) - f(n-) - f(n+) with a, b from the block determinants."""
    require_bona_fide(m)
    inv = local_invariants(m)
    spec = _spectrum_of(inv)
    a = math.sqrt(inv.det_alpha)
    b = math.sqrt(inv.det_beta)
    val = (entropy_kernel(a) + entropy_kernel(b)
           - entropy_kernel(max(spec.n_minus, 0.5)) - entropy_kernel(spec.n_plus))
    return max(val, 0.0)


def log_negativity(m: CovarianceMatrix) -> NegativityResult:
    """PPT test and the negativity measures built on nt_minus."""
    require_bona_fide(m)
    nt = symplectic_spectrum(m).nt_minus
    en = max(0.0, -float(np.log(2.0 * nt))) if nt > 0.0 else math.inf
    neg = max(0.0, (1.0 / (2.0 * nt) - 1.0) / 2.0) if nt > 0.0 else math.inf
    return NegativityResult(
        log_negativity=en,
        negativity=neg,
        nt_minus=nt,
        separable=nt >= 0.5,
    )


def standard_form_from_invariants(m: CovarianceMatrix) -> StandardForm:
    """Unique standard form (a, b, c1, c2) of any bona fide 4x4 matrix.

    Sign convention: c1 >= |c2| >= 0 and sign(c2) = sign(Det gamma).
    """
    require_bona_fide(m)
    inv = local_invariants(m)
    a = math.sqrt(inv.det_alpha)
    b = math.sqrt(inv.det_beta)
    # c1^2, c2^2 solve q^2 - S q + P = 0
    P = inv.det_gamma ** 2
    S = (inv.det_alpha * inv.det_beta + P - inv.det_sigma) / (a * b)
    disc = S * S / 4.0 - P
    if disc < -1e-10:
        raise NumericalDegeneracyError(
            f"negative discriminant {disc:.3e} in standard-form reconstruction")
    root = math.sqrt(max(disc, 0.0))
    q1 = max(S / 2.0 + root, 0.0)
    q2 = max(S / 2.0 - root, 0.0)
    c1 = math.sqrt(q1)
    c2 = math.copysign(math.sqrt(q2), inv.det_gamma) if q2 > 0.0 else 0.0
    return StandardForm(a=a, b=b, c1=c1, c2=c2)


def squeezed_thermal_state(mu_state: float, r: float) -> StandardForm:
    """Two-mode squeezed thermal state; mu_state = 1 gives the twin beam."""
    if not 0.0 < mu_state <= 1.0:
        raise DomainError(f"purity must lie in (0, 1], got {mu_state:.6g}")
    s = 2.0 * math.sqrt(mu_state)
    a = math.cosh(2.0 * r) / s
    c = math.sinh(2.0 * r) / s
    return StandardForm(a=a, b=a, c1=c, c2=-c)


def symmetric_ppt_eigenvalue(sf: StandardForm) -> float:
    """nt_minus = sqrt((a-|c1|)(a-|c2|)) for symmetric standard forms."""
    if abs(sf.a - sf.b) > 1e-9:
        raise NotSymmetricStateError(f"a = {sf.a:.6g} != b = {sf.b:.6g}")
    prod = (sf.a - abs(sf.c1)) * (sf.a - abs(sf.c2))
    if prod < -EPS_CLAMP:
        raise InvalidStateError(f"(a-|c1|)(a-|c2|) = {prod:.3e} < 0")
    return math.sqrt(max(prod, 0.0))
