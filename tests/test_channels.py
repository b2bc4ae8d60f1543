"""Bath parametrizations, their round trips, and the asymptotic state."""

import cmath
import math

import numpy as np
import pytest

from gclab import (
    BathSpec,
    ChannelSpec,
    CovarianceMatrix,
    DomainError,
    UnphysicalChannelError,
    asymptotic_covariance,
    evolve,
    nm_from_phenomenological,
    phenomenological_from_nm,
    purity,
    validate_covariance,
)
from util import random_channel


def test_thermal_bath_triple():
    mu, r, phi = phenomenological_from_nm(1.0, 0.0)
    assert mu == pytest.approx(1 / 3, rel=1e-12)
    assert r == 0.0
    assert phi == 0.0


def test_vacuum_bath_triple():
    mu, r, phi = phenomenological_from_nm(0.0, 0.0)
    assert mu == pytest.approx(1.0, rel=1e-6)
    assert r == 0.0


def test_pure_squeezed_bath():
    # |M|^2 = N(N+1) saturation gives a pure (mu = 1) squeezed bath
    mu, r, phi = phenomenological_from_nm(1.0, math.sqrt(2.0))
    assert mu == pytest.approx(1.0, rel=1e-9)
    assert math.cosh(2 * r) == pytest.approx(3.0, rel=1e-9)
    assert r == pytest.approx(math.log(3 + 2 * math.sqrt(2)) / 2, rel=1e-9)
    assert phi == 0.0


def test_inverse_map_values():
    N, M = nm_from_phenomenological(1 / 3, 0.0, 0.0)
    assert N == pytest.approx(1.0, rel=1e-12)
    assert M == 0.0

    N, M = nm_from_phenomenological(0.5, 1.0, 0.0)
    assert 2 * N + 1 == pytest.approx(2 * math.cosh(2), rel=1e-12)
    assert M.real == pytest.approx(math.sinh(2), rel=1e-12)

    # mu = 1 saturates the positivity constraint
    N, M = nm_from_phenomenological(1.0, 0.7, 0.0)
    assert abs(M) ** 2 == pytest.approx(N * (N + 1), rel=1e-9)


def test_roundtrip_nm_to_ph(rng):
    for _ in range(200):
        mu = rng.uniform(0.2, 1.0)
        r = rng.uniform(0.0, 1.5)
        phi = rng.uniform(-math.pi / 4 + 1e-3, math.pi / 4)
        N, M = nm_from_phenomenological(mu, r, phi)
        mu2, r2, phi2 = phenomenological_from_nm(N, M)
        assert mu2 == pytest.approx(mu, rel=1e-9)
        assert r2 == pytest.approx(r, rel=1e-9, abs=1e-9)
        if r > 1e-9:
            assert phi2 == pytest.approx(phi, rel=1e-9, abs=1e-9)


def test_unphysical_bath_rejected():
    with pytest.raises(UnphysicalChannelError):
        phenomenological_from_nm(1.0, 1.5)
    with pytest.raises(UnphysicalChannelError):
        BathSpec(N=0.5, M=1.0)
    with pytest.raises(UnphysicalChannelError):
        phenomenological_from_nm(-0.5, 0.0)
    with pytest.raises(DomainError):
        nm_from_phenomenological(1.5, 0.0)
    with pytest.raises(DomainError):
        nm_from_phenomenological(0.5, -0.2)


def test_vacuum_asymptotic_state():
    spec = ChannelSpec.thermal(0.0, 0.0)
    sigma = asymptotic_covariance(spec)
    assert np.allclose(sigma.entries, 0.5 * np.eye(4), atol=1e-15)


def test_asymptotic_block_layout():
    bath2 = BathSpec.from_phenomenological(0.5, 1.0, math.pi / 4)
    spec = ChannelSpec(BathSpec.thermal(0.0), bath2)
    sigma = asymptotic_covariance(spec)
    # Im M sits on the block off-diagonal, matrix stays symmetric
    assert sigma.entries[2, 3] == pytest.approx(bath2.M.imag, rel=1e-12)
    assert sigma.symmetry_residual <= 1e-12
    # phi2 = pi/4 makes M purely imaginary
    assert abs(bath2.M.real) <= 1e-12


def test_squeezed_block_diagonal():
    bath = BathSpec.from_phenomenological(0.5, 1.0, 0.0)
    block = bath.block()
    assert block[0, 0] == pytest.approx(math.cosh(2) + math.sinh(2), rel=1e-12)
    assert block[1, 1] == pytest.approx(math.cosh(2) - math.sinh(2), rel=1e-12)
    # determinant check: the block's one-mode purity must equal the bath's mu
    assert block[0, 0] * block[1, 1] == pytest.approx(1.0, rel=1e-12)


def test_asymptotic_state_always_valid(rng):
    for _ in range(100):
        spec = random_channel(rng)
        sigma = asymptotic_covariance(spec)
        assert validate_covariance(sigma).bona_fide
        for bath, sl in ((spec.bath1, slice(0, 2)), (spec.bath2, slice(2, 4))):
            block = CovarianceMatrix(sigma.entries[sl, sl])
            assert purity(block) == pytest.approx(bath.phenomenological()[0], rel=1e-9)


def test_asymptotic_state_is_fixed_point(rng):
    spec = random_channel(rng)
    sigma = asymptotic_covariance(spec)
    for t in (0.0, 0.3, 2.0, 17.0):
        out = evolve(sigma, sigma, spec.gamma, t)
        assert np.allclose(out.entries, sigma.entries, atol=1e-14)


def test_equal_baths_flag():
    assert ChannelSpec.thermal(0.5, 0.5).equal_baths
    assert not ChannelSpec.thermal(0.5, 0.6).equal_baths
    phase = cmath.exp(-0.2j)
    b = BathSpec(N=1.0, M=0.5 * phase)
    assert ChannelSpec(b, BathSpec(N=1.0, M=0.5 * phase)).equal_baths


def test_gamma_must_be_positive():
    with pytest.raises(DomainError):
        ChannelSpec.thermal(0.0, 0.0, gamma=0.0)


@pytest.mark.parametrize("gamma", [math.nan, math.inf])
def test_gamma_must_be_a_positive_number(gamma):
    with pytest.raises(DomainError):
        ChannelSpec.thermal(0.5, 0.5, gamma=gamma)


@pytest.mark.parametrize("M", [-0.3, 0.3j, -0.3j, -0.2 + 0.1j, -0.2 - 0.1j])
def test_nm_angle_keeps_the_sign_of_M(M):
    # M = sinh(2r)/(2 mu) e^{-2i phi} with 2 phi = -Arg M, for every quadrant
    mu, r, phi = phenomenological_from_nm(0.5, M)
    assert -math.pi / 2 <= phi <= math.pi / 2
    N, M2 = nm_from_phenomenological(mu, r, phi)
    assert N == pytest.approx(0.5, rel=1e-12)
    assert M2 == pytest.approx(M, rel=1e-12, abs=1e-15)
