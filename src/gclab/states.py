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


def _clamp_nonneg(x, tol=EPS_CLAMP):
    if x < -tol:
        return None
    return max(x, 0.0)


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
    n_minus: float
    bona_fide: bool


@dataclass(frozen=True)
class NegativityResult:
    log_negativity: float
    negativity: float
    nt_minus: float
    separable: bool


def _check_symmetric(m: CovarianceMatrix) -> None:
    res = m.symmetry_residual
    if res > EPS_SYM:
        raise NonSymmetricMatrixError(
            f"symmetry residual {res:.3e} exceeds {EPS_SYM:.0e}")


def local_invariants(m: CovarianceMatrix) -> SymplecticInvariants:
    """Block determinants Det(alpha), Det(beta), Det(gamma), Det(sigma)."""
    _check_symmetric(m)
    if m.mode_count != 2:
        raise NonSymmetricMatrixError("local_invariants requires a 4x4 matrix")
    e = m.entries
    det2 = lambda b: b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
    return SymplecticInvariants(
        det_alpha=float(det2(m.block(0, 0))),
        det_beta=float(det2(m.block(1, 1))),
        det_gamma=float(det2(m.block(0, 1))),
        det_sigma=float(np.linalg.det(e)),
    )


_OMEGA2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
_HALF_I_OMEGA = {
    2: 0.5j * _OMEGA2,
    4: 0.5j * np.kron(np.eye(2), _OMEGA2),
}


def _positive_definite(e: list, det: float) -> bool:
    """Sylvester's criterion: every leading principal minor is positive."""
    minors = [e[0][0], det]
    if len(e) == 4:
        minors.append(e[0][0] * e[1][1] - e[0][1] * e[1][0])
        minors.append(e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
                      - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
                      + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0]))
    return all(x > 0.0 for x in minors)


def _n_minus_of(e: list, det: float) -> float:
    """Smallest ordinary symplectic eigenvalue from the invariants.

    One mode: sqrt(Det sigma).  Two modes: n_minus^2 is the smaller root of
    q^2 - Delta q + Det sigma = 0, written as 2 Det / (Delta + sqrt(radicand))
    so a small Det sigma loses no digits.  Near a degenerate pair
    (n_minus ~ n_plus) the radicand cancels and half the working precision
    goes; the report is diagnostic, the printed n_minus comes from
    `symplectic_spectrum`.  Requires positive definite sigma (Delta, Det > 0).
    """
    if len(e) == 2:
        return math.sqrt(max(det, 0.0))
    det2 = lambda i, j: e[i][j] * e[i + 1][j + 1] - e[i][j + 1] * e[i + 1][j]
    delta = det2(0, 0) + det2(2, 2) + 2.0 * det2(0, 2)
    root = math.sqrt(max(delta * delta - 4.0 * det, 0.0))
    return math.sqrt(2.0 * det / (delta + root))


def validate_covariance(m: CovarianceMatrix) -> ValidationReport:
    """Symmetry + uncertainty-principle check; reports, never raises on a
    symmetric 2x2 or 4x4 matrix.

    sigma is bona fide iff sigma + i Omega / 2 >= 0 (Simon, Mukunda & Dutta,
    PRA 49, 1567 (1994)), decided as min eigvalsh(sigma + i Omega / 2) >=
    -EPS_PHYS.  The matrix is Hermitian, so its spectrum is real even where
    sigma is singular or indefinite.  For positive definite sigma the
    criterion is the same as n_minus >= 1/2.

    `n_minus` is the smallest symplectic eigenvalue, taken from the
    invariants Delta and Det sigma (no further decomposition).  Where sigma
    is not positive definite the symplectic spectrum is zero (singular) or
    not real (indefinite), and `n_minus` is reported as 0.0.  A matrix whose
    Det sigma is not finite (overflowing or non-finite entries) is not bona
    fide, with `n_minus` reported as nan.  Nor is one whose finite Det sigma
    is <= 0, with `n_minus` 0.0: the uncertainty principle forces Det sigma
    >= 1/16 (one mode: 1/4), and a Det sigma of 0.0 is what rounding leaves
    of matrices with huge entries, whose margin may still pass.
    """
    _check_symmetric(m)
    e = m.entries
    det = float(np.linalg.det(e))
    if not math.isfinite(det):
        return ValidationReport(m.symmetry_residual, math.nan, False)
    if det <= 0.0:
        return ValidationReport(m.symmetry_residual, 0.0, False)
    margin = float(np.linalg.eigvalsh(e + _HALF_I_OMEGA[len(e)])[0])
    bona_fide = margin >= -EPS_PHYS
    rows = e.tolist()
    if bona_fide or _positive_definite(rows, det):
        n_minus = _n_minus_of(rows, det)
    else:
        n_minus = 0.0
    return ValidationReport(
        symmetry_residual=m.symmetry_residual,
        n_minus=n_minus,
        bona_fide=bona_fide,
    )


def require_bona_fide(m: CovarianceMatrix) -> ValidationReport:
    report = validate_covariance(m)
    if not report.bona_fide:
        raise InvalidStateError(
            f"matrix is not a bona fide covariance matrix (n_minus = {report.n_minus:.6g})")
    return report


def symplectic_spectrum(m: CovarianceMatrix) -> SymplecticSpectrum:
    """Ordinary and partial-transpose symplectic eigenvalues of a 4x4 matrix."""
    return _spectrum_of(local_invariants(m))


def _spectrum_of(inv: SymplecticInvariants) -> SymplecticSpectrum:
    """n+- and nt+- from the invariants: roots of q^2 - Delta q + Det sigma."""

    def pair(delta: float) -> tuple[float, float]:
        rad = _clamp_nonneg(delta ** 2 - 4.0 * inv.det_sigma)
        if rad is None:
            raise ComplexSpectrumError(
                f"spectrum radicand {delta ** 2 - 4.0 * inv.det_sigma:.3e} < 0")
        root = math.sqrt(rad)
        lo = _clamp_nonneg((delta - root) / 2.0)
        hi = _clamp_nonneg((delta + root) / 2.0)
        if lo is None or hi is None:
            raise ComplexSpectrumError("negative squared symplectic eigenvalue")
        return math.sqrt(lo), math.sqrt(hi)

    n_minus, n_plus = pair(inv.delta)
    nt_minus, nt_plus = pair(inv.delta_tilde)
    return SymplecticSpectrum(n_minus, n_plus, nt_minus, nt_plus)


def purity(m: CovarianceMatrix) -> float:
    """mu = 1 / (2^n sqrt(Det sigma))."""
    require_bona_fide(m)
    det = float(np.linalg.det(m.entries))
    mu = 1.0 / (2 ** m.mode_count * math.sqrt(det))
    if mu > 1.0 + EPS_PHYS:
        raise InvalidStateError(f"purity {mu:.6g} exceeds 1")
    return min(mu, 1.0)


def entropy_kernel(x: float) -> float:
    """f(x) = (x+1/2)ln(x+1/2) - (x-1/2)ln(x-1/2), with 0 ln 0 = 0."""
    if x < 0.5 - EPS_PHYS:
        raise DomainError(f"entropy kernel needs x >= 1/2, got {x:.6g}")
    xm = x - 0.5
    out = (x + 0.5) * math.log(x + 0.5)
    if xm > 0.0:
        out -= xm * math.log(xm)
    return out


def von_neumann_entropy(m: CovarianceMatrix) -> float:
    """Two-mode: f(n-) + f(n+).  One-mode: closed form in the purity."""
    require_bona_fide(m)
    if m.mode_count == 1:
        mu = purity(m)
        if mu >= 1.0:
            return 0.0
        return ((1.0 - mu) / (2.0 * mu) * math.log((1.0 + mu) / (1.0 - mu))
                - math.log(2.0 * mu / (1.0 + mu)))
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
    en = max(0.0, -math.log(2.0 * nt)) if nt > 0.0 else math.inf
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
    clamped = _clamp_nonneg(prod)
    if clamped is None:
        raise InvalidStateError(f"(a-|c1|)(a-|c2|) = {prod:.3e} < 0")
    return math.sqrt(clamped)
