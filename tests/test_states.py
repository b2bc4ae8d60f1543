"""Covariance-matrix functionals: validation, invariants, spectra, mixedness
and entanglement measures, checked against brute-force spectral oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gclab import (
    ComplexSpectrumError,
    CovarianceMatrix,
    DomainError,
    GclabError,
    InvalidStateError,
    NonSymmetricMatrixError,
    NotSymmetricStateError,
    StandardForm,
    entropy_kernel,
    local_invariants,
    log_negativity,
    mutual_information,
    purity,
    require_bona_fide,
    squeezed_thermal_state,
    standard_form_from_invariants,
    symmetric_ppt_eigenvalue,
    symplectic_spectrum,
    validate_covariance,
    von_neumann_entropy,
)
from util import (
    brute_nt_minus,
    brute_symplectic_eigs,
    random_invalid_standard_form,
    random_local_symplectic,
    random_standard_form,
    transformed,
)

VACUUM = CovarianceMatrix(0.5 * np.eye(4))
POINT = StandardForm(2.0, 1.0, 1.0, -1.0)          # reference mixed state
FIG2 = StandardForm(1.5, 1.5, 1.2, -1.4)           # symmetric entangled state


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_vacuum_is_bona_fide():
    report = validate_covariance(VACUUM)
    assert report.bona_fide
    assert report.n_minus == pytest.approx(0.5, abs=1e-12)


def test_point_state_validation():
    report = validate_covariance(POINT.to_matrix())
    assert report.bona_fide
    assert report.n_minus == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-12)


def test_boundary_violating_state_rejected():
    # a=1, b=c1=-c2=1 sits outside the uncertainty bound (n_minus = 0)
    report = validate_covariance(StandardForm(1, 1, 1, -1).to_matrix())
    assert not report.bona_fide
    assert report.n_minus == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(InvalidStateError):
        require_bona_fide(StandardForm(1, 1, 1, -1).to_matrix())


def test_indefinite_matrix_rejected():
    # two negative eigenvalues of sigma but Det sigma > 0: |eig(Omega sigma)|
    # alone reads n_minus ~ 0.6 here, yet no state has this covariance matrix
    m = StandardForm(2.67755, 0.815255, 1.57278, -1.95488).to_matrix()
    assert np.sum(np.linalg.eigvalsh(m.entries) < 0) == 2
    assert np.linalg.det(m.entries) > 0.4
    report = validate_covariance(m)
    assert not report.bona_fide
    assert report.n_minus == 0.0


@pytest.mark.parametrize("sf", [
    StandardForm(1, 1, 1.2, -1.2),   # indefinite, Det sigma > 0
    StandardForm(1, 1, 1.2, 0.5),    # Det sigma < 0
])
def test_not_positive_definite_reported_then_rejected(sf):
    report = validate_covariance(sf.to_matrix())
    assert not report.bona_fide
    assert report.n_minus == 0.0
    with pytest.raises(InvalidStateError):
        require_bona_fide(sf.to_matrix())


def test_validation_never_raises_on_symmetric_input(rng):
    # singular, indefinite and definite matrices of both sizes are reported
    for size in (2, 4):
        for _ in range(300):
            a = rng.normal(size=(size, size))
            sym = (a + a.T) / 2.0
            if rng.random() < 0.3:
                w, v = np.linalg.eigh(sym)
                w[rng.integers(size)] = 0.0
                sym = (v * w) @ v.T
                sym = (sym + sym.T) / 2.0
            report = validate_covariance(CovarianceMatrix(sym))
            if np.linalg.eigvalsh(sym)[0] < -1e-12:
                assert not report.bona_fide
                assert report.n_minus == 0.0


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
@pytest.mark.parametrize("sf", [
    StandardForm(1e200, 1e200, 0.0, 0.0),        # Det sigma overflows to inf
    StandardForm(math.nan, 1.0, 0.0, 0.0),
])
def test_non_finite_determinant_is_not_bona_fide(sf):
    report = validate_covariance(sf.to_matrix())
    assert not report.bona_fide
    with pytest.raises(InvalidStateError):
        require_bona_fide(sf.to_matrix())


def test_zero_determinant_is_not_bona_fide():
    # the twin beam's entries are ~2e8: its Det sigma = 1/16 rounds to 0.0
    m = squeezed_thermal_state(1.0, 10.0).to_matrix()
    assert float(np.linalg.det(m.entries)) == 0.0
    report = validate_covariance(m)
    assert not report.bona_fide
    assert report.n_minus == 0.0
    with pytest.raises(InvalidStateError):
        require_bona_fide(m)


def test_validation_matches_brute_force(rng):
    # positive definite input: bona fide iff n_minus >= 1/2, n_minus as eig
    samples = [random_standard_form(rng) for _ in range(200)]
    samples += [random_invalid_standard_form(rng) for _ in range(200)]
    for sf in samples:
        m = transformed(sf.to_matrix(), random_local_symplectic(rng))
        report = validate_covariance(m)
        n_minus = brute_symplectic_eigs(m.entries)[0]
        assert report.n_minus == pytest.approx(n_minus, rel=1e-7, abs=1e-9)
        if abs(n_minus - 0.5) > 1e-7:
            assert report.bona_fide == (n_minus > 0.5)


def test_asymmetric_matrix_rejected():
    m = 0.5 * np.eye(4)
    m[0, 1] = 1e-6
    with pytest.raises(NonSymmetricMatrixError):
        validate_covariance(CovarianceMatrix(m))


def test_bad_shape_rejected():
    with pytest.raises(NonSymmetricMatrixError):
        CovarianceMatrix(np.eye(3))


# ---------------------------------------------------------------------------
# invariants and spectra
# ---------------------------------------------------------------------------

def test_point_state_invariants():
    inv = local_invariants(POINT.to_matrix())
    assert inv.det_alpha == pytest.approx(4.0, abs=1e-12)
    assert inv.det_beta == pytest.approx(1.0, abs=1e-12)
    assert inv.det_gamma == pytest.approx(-1.0, abs=1e-12)
    assert inv.det_sigma == pytest.approx(1.0, abs=1e-12)
    assert inv.delta == pytest.approx(3.0, abs=1e-12)
    assert inv.delta_tilde == pytest.approx(7.0, abs=1e-12)


def test_vacuum_invariants():
    inv = local_invariants(VACUUM)
    assert inv.det_alpha == inv.det_beta == pytest.approx(0.25)
    assert inv.det_gamma == 0.0
    assert inv.det_sigma == pytest.approx(1 / 16)
    assert inv.delta == pytest.approx(0.5)


def test_fig2_invariants():
    inv = local_invariants(FIG2.to_matrix())
    assert inv.det_gamma == pytest.approx(-1.68, abs=1e-12)
    assert inv.det_sigma == pytest.approx(0.2349, abs=1e-12)
    assert inv.delta == pytest.approx(1.14, abs=1e-12)
    assert inv.delta_tilde == pytest.approx(7.86, abs=1e-12)


def test_point_state_spectrum():
    spec = symplectic_spectrum(POINT.to_matrix())
    golden = (math.sqrt(5) - 1) / 2
    assert spec.n_minus == pytest.approx(golden, abs=1e-12)
    assert spec.n_plus == pytest.approx(golden + 1, abs=1e-12)
    assert spec.nt_minus == pytest.approx(math.sqrt((7 - math.sqrt(45)) / 2), abs=1e-12)
    assert spec.nt_minus * spec.nt_plus == pytest.approx(1.0, rel=1e-12)


def test_fig2_ppt_eigenvalue():
    spec = symplectic_spectrum(FIG2.to_matrix())
    assert spec.nt_minus == pytest.approx(math.sqrt(0.03), abs=1e-12)


def test_spectrum_matches_brute_force(rng):
    for _ in range(200):
        sf = random_standard_form(rng)
        m = sf.to_matrix()
        spec = symplectic_spectrum(m)
        eigs = brute_symplectic_eigs(m.entries)
        assert spec.n_minus == pytest.approx(eigs[0], rel=1e-9, abs=1e-9)
        assert spec.n_plus == pytest.approx(eigs[-1], rel=1e-9, abs=1e-9)
        assert spec.nt_minus == pytest.approx(brute_nt_minus(m.entries),
                                              rel=1e-9, abs=1e-9)


def test_determinant_factorization(rng):
    for _ in range(300):
        m = random_standard_form(rng).to_matrix()
        inv = local_invariants(m)
        spec = symplectic_spectrum(m)
        root = math.sqrt(inv.det_sigma)
        assert spec.n_minus * spec.n_plus == pytest.approx(root, rel=1e-9)
        assert spec.nt_minus * spec.nt_plus == pytest.approx(root, rel=1e-9)


def test_heisenberg_ppt_coupling(rng):
    # Delta <= 1/4 + 4 Det sigma holds exactly when n_minus >= 1/2
    samples = [random_standard_form(rng) for _ in range(500)]
    samples += [random_invalid_standard_form(rng) for _ in range(500)]
    for sf in samples:
        m = sf.to_matrix()
        inv = local_invariants(m)
        eigs = brute_symplectic_eigs(m.entries)
        n_minus = eigs[0]
        if abs(n_minus - 0.5) < 1e-7 or inv.det_sigma <= 0:
            continue  # undecidable at the boundary / degenerate sample
        if eigs[-1] < 0.5 + 1e-7:
            continue  # both eigenvalues below 1/2: the compact form is blind here
        compact = inv.delta <= 0.25 + 4.0 * inv.det_sigma
        assert compact == (n_minus >= 0.5)


def test_complex_spectrum_detected():
    # indefinite mode-1 block: Det alpha < 0, squared eigenvalue negative
    m = np.eye(4)
    m[0, 1] = m[1, 0] = 2.0
    with pytest.raises(ComplexSpectrumError):
        symplectic_spectrum(CovarianceMatrix(m))


# ---------------------------------------------------------------------------
# purity and entropies
# ---------------------------------------------------------------------------

def test_purity_values():
    assert purity(VACUUM) == pytest.approx(1.0, abs=1e-12)
    assert purity(POINT.to_matrix()) == pytest.approx(0.25, abs=1e-12)


def test_squeezed_thermal_purity_roundtrip():
    for mu, r in [(1.0, 1.0), (1 / 9, 1.0), (0.5, 0.3), (1.0, 0.0)]:
        sf = squeezed_thermal_state(mu, r)
        assert purity(sf.to_matrix()) == pytest.approx(mu, rel=1e-9)


def test_entropy_kernel_values():
    assert entropy_kernel(0.5) == 0.0
    assert entropy_kernel(1.0) == pytest.approx(1.5 * math.log(1.5) + 0.5 * math.log(2),
                                                abs=1e-12)
    assert entropy_kernel(2.0) == pytest.approx(2.5 * math.log(2.5) - 1.5 * math.log(1.5),
                                                abs=1e-12)
    with pytest.raises(DomainError):
        entropy_kernel(0.4)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=0.5, max_value=50.0),
       st.floats(min_value=1e-6, max_value=1.0))
def test_entropy_kernel_strictly_increasing(x, dx):
    assert entropy_kernel(x + dx) > entropy_kernel(x)


def test_entropy_values():
    assert von_neumann_entropy(squeezed_thermal_state(1.0, 1.3).to_matrix()) == \
        pytest.approx(0.0, abs=1e-5)
    expected = entropy_kernel((math.sqrt(5) - 1) / 2) + entropy_kernel((math.sqrt(5) + 1) / 2)
    assert von_neumann_entropy(POINT.to_matrix()) == pytest.approx(expected, abs=1e-9)


def test_one_mode_entropy_consistency():
    # the closed form in the purity equals f(sqrt(Det sigma)) for one mode
    for variance in [0.5, 0.75, 1.5, 4.0]:
        m = CovarianceMatrix(np.diag([variance, variance]))
        assert von_neumann_entropy(m) == pytest.approx(entropy_kernel(variance), rel=1e-9)


def test_one_mode_thermal_entropy_value():
    m = CovarianceMatrix(np.diag([1.5, 1.5]))
    assert purity(m) == pytest.approx(1 / 3, rel=1e-12)
    assert von_neumann_entropy(m) == pytest.approx(entropy_kernel(1.5), rel=1e-9)


def test_mutual_information_values():
    assert mutual_information(POINT.to_matrix()) == pytest.approx(0.795529, abs=1e-5)
    # product state carries no correlations
    product = StandardForm(1.3, 0.8, 0.0, 0.0)
    assert mutual_information(product.to_matrix()) == pytest.approx(0.0, abs=1e-9)
    # pure two-mode squeezed vacuum: I = 2 f(a)
    # pure state: S_V contributes only rounding, so compare a touch looser
    tb = squeezed_thermal_state(1.0, 1.0)
    assert mutual_information(tb.to_matrix()) == pytest.approx(
        2.0 * entropy_kernel(math.cosh(2.0) / 2.0), abs=1e-5)


def test_local_invariance(rng):
    for _ in range(60):
        sf = random_standard_form(rng)
        m = sf.to_matrix()
        t = transformed(m, random_local_symplectic(rng))
        assert purity(t) == pytest.approx(purity(m), rel=1e-9)
        assert von_neumann_entropy(t) == pytest.approx(von_neumann_entropy(m),
                                                       rel=1e-9, abs=1e-9)
        assert mutual_information(t) == pytest.approx(mutual_information(m),
                                                      rel=1e-9, abs=1e-9)
        assert log_negativity(t).log_negativity == pytest.approx(
            log_negativity(m).log_negativity, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# negativity and separability
# ---------------------------------------------------------------------------

def test_log_negativity_point_state():
    neg = log_negativity(POINT.to_matrix())
    assert neg.nt_minus == pytest.approx(0.381966, abs=1e-6)
    assert neg.log_negativity == pytest.approx(0.269280, abs=1e-5)
    assert not neg.separable
    assert neg.negativity == pytest.approx((1 / (2 * neg.nt_minus) - 1) / 2, rel=1e-12)


def test_log_negativity_fig2_state():
    neg = log_negativity(FIG2.to_matrix())
    assert neg.log_negativity == pytest.approx(-math.log(2.0 * math.sqrt(0.03)),
                                               rel=1e-9)


def test_same_sign_correlations_are_separable(rng):
    for _ in range(100):
        sf = random_standard_form(rng)
        if sf.c1 * sf.c2 < 0:
            sf = StandardForm(sf.a, sf.b, sf.c1, -sf.c2)
        try:
            neg = log_negativity(sf.to_matrix())
        except GclabError:
            continue  # the sign flip can push the sample outside physicality
        assert neg.separable
        assert neg.log_negativity == 0.0


def test_entanglement_needs_opposite_correlations(rng):
    for _ in range(100):
        sf = random_standard_form(rng, entangled=True)
        derived = standard_form_from_invariants(sf.to_matrix())
        assert derived.c1 * derived.c2 < 0


# ---------------------------------------------------------------------------
# standard form
# ---------------------------------------------------------------------------

def test_standard_form_fixed_point():
    out = standard_form_from_invariants(POINT.to_matrix())
    assert out.a == pytest.approx(2.0, rel=1e-12)
    assert out.b == pytest.approx(1.0, rel=1e-12)
    assert out.c1 == pytest.approx(1.0, rel=1e-9)
    assert out.c2 == pytest.approx(-1.0, rel=1e-9)


def test_standard_form_rotation_invariant():
    theta = math.pi / 7
    c, s = math.cos(theta), math.sin(theta)
    rot = np.eye(4)
    rot[:2, :2] = [[c, s], [-s, c]]
    out = standard_form_from_invariants(transformed(POINT.to_matrix(), rot))
    assert out.a == pytest.approx(2.0, rel=1e-9)
    assert out.b == pytest.approx(1.0, rel=1e-9)
    assert out.c1 == pytest.approx(1.0, rel=1e-9)
    assert out.c2 == pytest.approx(-1.0, rel=1e-9)


def test_standard_form_product_state():
    out = standard_form_from_invariants(StandardForm(1.2, 0.9, 0, 0).to_matrix())
    assert out.c1 == pytest.approx(0.0, abs=1e-6)
    assert out.c2 == pytest.approx(0.0, abs=1e-6)


def test_standard_form_roundtrip_random(rng):
    for _ in range(100):
        sf = random_standard_form(rng)
        m = transformed(sf.to_matrix(), random_local_symplectic(rng))
        try:
            out = standard_form_from_invariants(m)
        except InvalidStateError:
            continue  # transformation rounding can nudge a boundary state out
        inv0 = local_invariants(sf.to_matrix())
        inv1 = local_invariants(out.to_matrix())
        assert inv1.det_alpha == pytest.approx(inv0.det_alpha, rel=1e-9)
        assert inv1.det_beta == pytest.approx(inv0.det_beta, rel=1e-9)
        assert inv1.det_gamma == pytest.approx(inv0.det_gamma, rel=1e-9, abs=1e-9)
        assert inv1.det_sigma == pytest.approx(inv0.det_sigma, rel=1e-9, abs=1e-9)


def test_pure_states_have_twin_beam_form(rng):
    for r in [0.2, 0.7, 1.4]:
        out = standard_form_from_invariants(squeezed_thermal_state(1.0, r).to_matrix())
        assert out.a == pytest.approx(out.b, rel=1e-9)
        assert out.c1 == pytest.approx(math.sqrt(out.a ** 2 - 0.25), rel=1e-7)
        assert out.c2 == pytest.approx(-out.c1, rel=1e-7)


# ---------------------------------------------------------------------------
# squeezed thermal family and the symmetric shortcut
# ---------------------------------------------------------------------------

def test_squeezed_thermal_values():
    vac = squeezed_thermal_state(1.0, 0.0)
    assert (vac.a, vac.c1) == (0.5, 0.0)
    tb = squeezed_thermal_state(1.0, 1.0)
    assert tb.a == pytest.approx(math.cosh(2) / 2, rel=1e-12)
    assert tb.c1 == pytest.approx(math.sinh(2) / 2, rel=1e-12)
    neg = log_negativity(tb.to_matrix())
    assert neg.nt_minus == pytest.approx(math.exp(-2) / 2, rel=1e-9)
    assert neg.log_negativity == pytest.approx(2.0, rel=1e-9)
    with pytest.raises(DomainError):
        squeezed_thermal_state(0.0, 1.0)
    with pytest.raises(DomainError):
        squeezed_thermal_state(1.2, 1.0)


def test_symmetric_ppt_eigenvalue():
    assert symmetric_ppt_eigenvalue(FIG2) == pytest.approx(math.sqrt(0.03), rel=1e-12)
    assert symmetric_ppt_eigenvalue(StandardForm(0.8, 0.8, 0, 0)) == pytest.approx(0.8)
    with pytest.raises(NotSymmetricStateError):
        symmetric_ppt_eigenvalue(POINT)


def test_symmetric_ppt_matches_general(rng):
    count = 0
    while count < 200:
        sf = random_standard_form(rng, entangled=True)
        sym = StandardForm(sf.a, sf.a, sf.c1, sf.c2)
        try:
            require_bona_fide(sym.to_matrix())
        except GclabError:
            continue  # symmetrizing b -> a can leave the physical region
        spec = symplectic_spectrum(sym.to_matrix())
        assert symmetric_ppt_eigenvalue(sym) == pytest.approx(spec.nt_minus,
                                                              rel=1e-9, abs=1e-9)
        count += 1
