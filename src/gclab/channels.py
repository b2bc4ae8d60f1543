"""Gaussian environments: per-mode bath descriptions and the asymptotic state.

Each bath is described either by the master-equation pair (N, M) or by the
phenomenological triple (mu, r, phi) of its asymptotic squeezed thermal state.
The dictionary between the two is

    mu = 1 / sqrt((2N+1)^2 - 4|M|^2)
    cosh 2r = sqrt(1 + 4 mu^2 |M|^2)
    2phi = -Arg M,  phi in [-pi/2, pi/2]

equivalently N + 1/2 = cosh(2r)/(2 mu) and M = sinh(2r)/(2 mu) e^{-2i phi}.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnphysicalChannelError
from .states import EPS_PHYS, CovarianceMatrix

# two baths are "equal" when all their scalars agree to this tolerance
EPS_EQUAL = 1e-12


def phenomenological_from_nm(N: float, M: complex) -> tuple[float, float, float]:
    """Map (N, M) to the asymptotic-state triple (mu, r, phi)."""
    return BathSpec(N, M).phenomenological()


def _cosh_sinh_2r(r: float) -> tuple[float, float]:
    """cosh 2r and sinh 2r; DomainError where they overflow a float."""
    try:
        return math.cosh(2.0 * r), math.sinh(2.0 * r)
    except OverflowError:
        raise DomainError(f"bath squeezing r = {r:.6g} is outside the numerical range") from None


def nm_from_phenomenological(mu: float, r: float, phi: float = 0.0) -> tuple[float, complex]:
    """Inverse map: (mu, r, phi) to (N, M)."""
    if not 0.0 < mu <= 1.0 + EPS_PHYS:
        raise DomainError(f"bath purity must lie in (0, 1], got {mu:.6g}")
    if r < 0.0:
        raise DomainError(f"bath squeezing must be >= 0, got {r:.6g}")
    cosh, sinh = _cosh_sinh_2r(r)
    N = (cosh / mu - 1.0) / 2.0
    abs_m = sinh / (2.0 * mu)
    if not math.isfinite(N) or not math.isfinite(abs_m * abs_m):
        raise DomainError(
            f"bath mu = {mu:.6g}, r = {r:.6g} is outside the numerical range")
    return N, abs_m * cmath.exp(-2.0j * phi)


def thermal_purity(N: float, r: float = 0.0) -> float:
    """Purity mu = cosh 2r / (2N+1) of the bath with squeezing r and N
    thermal photons; inf at N = -1/2, a purity the channel rejects."""
    d = 2.0 * N + 1.0
    return _cosh_sinh_2r(r)[0] / d if d != 0.0 else math.inf


@dataclass(frozen=True)
class BathSpec:
    """Single-mode Gaussian environment, master-equation parametrization."""

    N: float
    M: complex = 0.0

    def __post_init__(self):
        if self.N < -EPS_PHYS:
            raise UnphysicalChannelError(f"N must be >= 0, got {self.N:.6g}")
        try:
            abs_m2 = abs(self.M) ** 2
        except OverflowError:
            raise DomainError(f"|M| = {abs(self.M):.6g} is outside the numerical range") from None
        if abs_m2 > self.N * (self.N + 1.0) + EPS_PHYS:
            raise UnphysicalChannelError(
                f"|M|^2 = {abs_m2:.6g} exceeds N(N+1) = {self.N * (self.N + 1.0):.6g}")

    @classmethod
    def thermal(cls, N: float) -> "BathSpec":
        return cls(N=N, M=0.0)

    @classmethod
    def from_phenomenological(cls, mu: float, r: float, phi: float = 0.0) -> "BathSpec":
        N, M = nm_from_phenomenological(mu, r, phi)
        return cls(N=N, M=M)

    def phenomenological(self) -> tuple[float, float, float]:
        """The asymptotic-state triple (mu, r, phi); N and M are checked."""
        abs_m2 = abs(self.M) ** 2
        try:
            mu = 1.0 / math.sqrt(max((2.0 * self.N + 1.0) ** 2 - 4.0 * abs_m2, EPS_PHYS ** 2))
        except OverflowError:
            raise DomainError(f"N = {self.N:.6g} is outside the numerical range") from None
        r = 0.5 * math.acosh(math.sqrt(1.0 + 4.0 * mu * mu * abs_m2))
        phi = 0.0 if self.M == 0 else -cmath.phase(self.M) / 2.0
        return mu, r, phi

    def block(self) -> np.ndarray:
        """Asymptotic 2x2 covariance block of this bath."""
        return np.array([
            [0.5 + self.N + self.M.real, self.M.imag],
            [self.M.imag, 0.5 + self.N - self.M.real],
        ])

    def equals(self, other: "BathSpec") -> bool:
        return (abs(self.N - other.N) <= EPS_EQUAL
                and abs(self.M - other.M) <= EPS_EQUAL)


@dataclass(frozen=True)
class ChannelSpec:
    """Two uncorrelated baths plus the common damping rate Gamma."""

    bath1: BathSpec
    bath2: BathSpec
    gamma: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.gamma < math.inf:
            raise DomainError(f"gamma must be finite and > 0, got {self.gamma:.6g}")

    @classmethod
    def thermal(cls, N1: float, N2: float, gamma: float = 1.0) -> "ChannelSpec":
        return cls(BathSpec.thermal(N1), BathSpec.thermal(N2), gamma)

    @classmethod
    def from_phenomenological(cls, mu1: float, r1: float, mu2: float, r2: float,
                              phi2: float = 0.0, gamma: float = 1.0) -> "ChannelSpec":
        # phi1 = 0 is the phase-space reference choice
        return cls(BathSpec.from_phenomenological(mu1, r1, 0.0),
                   BathSpec.from_phenomenological(mu2, r2, phi2), gamma)

    @property
    def equal_baths(self) -> bool:
        return self.bath1.equals(self.bath2)


def asymptotic_covariance(spec: ChannelSpec) -> CovarianceMatrix:
    """Block-diagonal 4x4 asymptotic state of the two uncorrelated baths."""
    out = np.zeros((4, 4))
    out[:2, :2] = spec.bath1.block()
    out[2:, 2:] = spec.bath2.block()
    return CovarianceMatrix(out)
