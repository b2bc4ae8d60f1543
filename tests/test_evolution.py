"""Channel map, ODE oracle, and metric time series."""

import math
import sys

import numpy as np
import pytest

import gclab.states
from gclab import (
    ChannelSpec,
    ComplexSpectrumError,
    DomainError,
    EvolutionProblem,
    asymptotic_covariance,
    entropy_kernel,
    evolve,
    evolve_ode_oracle,
    local_invariants,
    log_negativity,
    metrics_at,
    mutual_information,
    purity,
    squeezed_thermal_state,
    standard_form_from_invariants,
    symplectic_spectrum,
    time_series,
    validate_covariance,
    von_neumann_entropy,
)
from gclab.cli import metrics_line
from util import random_channel, random_standard_form, scalar_time_series


def test_evolve_at_zero_is_identity(rng):
    sf = random_standard_form(rng)
    spec = random_channel(rng)
    out = evolve(sf.to_matrix(), asymptotic_covariance(spec), spec.gamma, 0.0)
    assert np.array_equal(out.entries, sf.to_matrix().entries)


def test_evolve_large_time_reaches_asymptote(rng):
    sf = random_standard_form(rng)
    spec = random_channel(rng)
    sigma_inf = asymptotic_covariance(spec)
    out = evolve(sf.to_matrix(), sigma_inf, spec.gamma, 800.0)
    assert np.max(np.abs(out.entries - sigma_inf.entries)) <= 1e-15


def test_evolve_midpoint_is_arithmetic_mean():
    sf = squeezed_thermal_state(1.0, 1.0)
    spec = ChannelSpec.thermal(0.5, 0.5)
    sigma_inf = asymptotic_covariance(spec)
    assert np.allclose(sigma_inf.entries, np.eye(4))
    out = evolve(sf.to_matrix(), sigma_inf, 1.0, math.log(2.0))
    expected = (sf.to_matrix().entries + np.eye(4)) / 2.0
    assert np.max(np.abs(out.entries - expected)) <= 1e-14


def test_evolve_argument_validation(rng):
    sf = random_standard_form(rng)
    sigma_inf = asymptotic_covariance(ChannelSpec.thermal(0.5, 0.5))
    with pytest.raises(DomainError):
        evolve(sf.to_matrix(), sigma_inf, 0.0, 1.0)
    with pytest.raises(DomainError):
        evolve(sf.to_matrix(), sigma_inf, 1.0, -0.1)
    for gamma, t in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(DomainError):
            evolve(sf.to_matrix(), sigma_inf, gamma, t)


def test_semigroup_property(rng):
    for _ in range(30):
        sf = random_standard_form(rng)
        spec = random_channel(rng)
        sigma_inf = asymptotic_covariance(spec)
        t1, t2 = rng.uniform(0.0, 3.0, size=2)
        once = evolve(evolve(sf.to_matrix(), sigma_inf, spec.gamma, t1),
                      sigma_inf, spec.gamma, t2)
        direct = evolve(sf.to_matrix(), sigma_inf, spec.gamma, t1 + t2)
        assert np.max(np.abs(once.entries - direct.entries)) <= \
            1e-12 * max(1.0, np.max(np.abs(direct.entries)))


def test_bona_fide_preserved(rng):
    for _ in range(200):
        sf = random_standard_form(rng)
        spec = random_channel(rng)
        t = rng.uniform(0.0, 6.0)
        out = evolve(sf.to_matrix(), asymptotic_covariance(spec), spec.gamma, t)
        assert validate_covariance(out).bona_fide


def test_correlation_block_decays_exactly(rng):
    for _ in range(30):
        sf = random_standard_form(rng)
        spec = random_channel(rng)
        t = rng.uniform(0.0, 4.0)
        out = evolve(sf.to_matrix(), asymptotic_covariance(spec), spec.gamma, t)
        k = math.exp(-spec.gamma * t)
        expected = np.diag([sf.c1 * k, sf.c2 * k])
        assert np.max(np.abs(out.block(0, 1) - expected)) <= 1e-12


def test_asymptotic_purity_is_product_of_bath_purities(rng):
    for _ in range(30):
        sf = random_standard_form(rng)
        spec = random_channel(rng)
        out = evolve(sf.to_matrix(), asymptotic_covariance(spec), spec.gamma, 80.0)
        mu1 = spec.bath1.phenomenological()[0]
        mu2 = spec.bath2.phenomenological()[0]
        assert purity(out) == pytest.approx(mu1 * mu2, rel=1e-9)


def test_ode_oracle_matches_closed_form(rng):
    for _ in range(10):
        sf = random_standard_form(rng)
        spec = random_channel(rng)
        sigma_inf = asymptotic_covariance(spec)
        t = rng.uniform(0.1, 5.0)
        exact = evolve(sf.to_matrix(), sigma_inf, spec.gamma, t)
        rk4 = evolve_ode_oracle(sf.to_matrix(), sigma_inf, spec.gamma, t, steps=1000)
        assert np.max(np.abs(exact.entries - rk4.entries)) <= 1e-10


def test_ode_oracle_degenerate_cases(rng):
    sf = random_standard_form(rng)
    spec = random_channel(rng)
    sigma_inf = asymptotic_covariance(spec)
    out = evolve_ode_oracle(sf.to_matrix(), sigma_inf, spec.gamma, 0.0, steps=5)
    assert np.array_equal(out.entries, sf.to_matrix().entries)
    fixed = evolve_ode_oracle(sigma_inf, sigma_inf, spec.gamma, 3.0, steps=50)
    assert np.allclose(fixed.entries, sigma_inf.entries, atol=1e-13)
    with pytest.raises(DomainError):
        evolve_ode_oracle(sf.to_matrix(), sigma_inf, spec.gamma, 1.0, steps=0)


def test_ode_oracle_convergence_order(rng):
    sf = random_standard_form(rng)
    spec = random_channel(rng)
    sigma_inf = asymptotic_covariance(spec)
    exact = evolve(sf.to_matrix(), sigma_inf, spec.gamma, 2.0)
    errs = []
    for steps in (8, 16):
        approx = evolve_ode_oracle(sf.to_matrix(), sigma_inf, spec.gamma, 2.0, steps)
        errs.append(np.max(np.abs(approx.entries - exact.entries)))
    # classical fourth order: halving h divides the error by ~16
    assert errs[1] <= errs[0] / 10.0


def test_time_series_initial_values():
    problem = EvolutionProblem(
        squeezed_thermal_state(1.0, 1.0),
        ChannelSpec.from_phenomenological(0.5, 0.0, 0.5, 0.0),
        (0.0,))
    row = time_series(problem)[0]
    assert row.log_negativity == pytest.approx(2.0, rel=1e-9)
    assert row.purity == pytest.approx(1.0, abs=1e-9)
    assert row.mutual_information == pytest.approx(
        2.0 * entropy_kernel(math.cosh(2.0) / 2.0), rel=1e-7)
    assert not row.separable


def test_time_series_asymptotic_values():
    problem = EvolutionProblem(
        squeezed_thermal_state(1.0, 1.0),
        ChannelSpec.from_phenomenological(0.5, 0.0, 0.5, 0.0),
        (10.0,))
    row = time_series(problem)[0]
    assert row.log_negativity == 0.0
    assert row.separable
    assert row.purity == pytest.approx(0.25, abs=1e-4)


def test_time_series_rows_match_direct_recomputation(rng):
    sf = random_standard_form(rng)
    spec = random_channel(rng)
    grid = (0.0, 0.4, 1.1, 2.5)
    rows = time_series(EvolutionProblem(sf, spec, grid))
    sigma_inf = asymptotic_covariance(spec)
    for t, row in zip(grid, rows):
        sigma = evolve(sf.to_matrix(), sigma_inf, spec.gamma, t)
        assert row.t == t
        assert row.purity == purity(sigma)
        assert row.von_neumann_entropy == von_neumann_entropy(sigma)
        assert row.mutual_information == mutual_information(sigma)
        neg = log_negativity(sigma)
        assert row.log_negativity == neg.log_negativity
        assert row.nt_minus == neg.nt_minus
        assert row.separable == neg.separable
        spect = symplectic_spectrum(sigma)
        assert row.n_minus == spect.n_minus
        assert row.n_plus == spect.n_plus


def test_metrics_at_consistency():
    sf = squeezed_thermal_state(0.5, 0.8)
    row = metrics_at(sf.to_matrix(), 0.0)
    assert row.purity == pytest.approx(0.5, rel=1e-9)


def test_time_grid_validation(rng):
    sf = random_standard_form(rng)
    spec = random_channel(rng)
    with pytest.raises(DomainError):
        EvolutionProblem(sf, spec, ())
    with pytest.raises(DomainError):
        EvolutionProblem(sf, spec, (0.0, 1.0, 1.0))
    with pytest.raises(DomainError):
        EvolutionProblem(sf, spec, (-1.0, 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_time_grid_must_be_finite(bad):
    spec = ChannelSpec.thermal(0.5, 0.5)
    with pytest.raises(DomainError, match="finite"):
        EvolutionProblem(squeezed_thermal_state(1.0, 1.0), spec, (0.0, bad))


def test_standard_form_of_evolved_state_retrievable(rng):
    # evolution leaves the matrix in standard-form-like shape only for
    # thermal baths; generally the derived standard form stays consistent
    sf = random_standard_form(rng)
    spec = random_channel(rng)
    out = evolve(sf.to_matrix(), asymptotic_covariance(spec), spec.gamma, 0.7)
    derived = standard_form_from_invariants(out)
    inv_direct = local_invariants(out)
    inv_derived = local_invariants(derived.to_matrix())
    assert inv_derived.det_sigma == pytest.approx(inv_direct.det_sigma, rel=1e-9)


def _outcome(series, problem):
    """CSV lines of a series, or the type and message of what it raised."""
    try:
        return [metrics_line(row) for row in series(problem)]
    except Exception as exc:
        return type(exc), str(exc)


def _problem_families(rng):
    """Random sf states in random squeezed channels, pure twin beams,
    symmetric states in equal thermal baths (degenerate n+-), and ph baths
    with an angle on bath 2."""
    N = rng.uniform(0.0, 2.0)
    return [
        (random_standard_form(rng), random_channel(rng)),
        (squeezed_thermal_state(1.0, rng.uniform(0.1, 2.0)), random_channel(rng)),
        (squeezed_thermal_state(rng.uniform(0.1, 1.0), rng.uniform(0.0, 1.5)),
         ChannelSpec.thermal(N, N, rng.uniform(0.2, 3.0))),
        (random_standard_form(rng), ChannelSpec.from_phenomenological(
            rng.uniform(0.2, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.2, 1.0),
            rng.uniform(0.0, 1.0), rng.uniform(-1.5, 1.5), rng.uniform(0.2, 3.0))),
    ]


def test_time_series_bytes_match_scalar_path(rng):
    compared = 0
    for _ in range(3):
        for sf, spec in _problem_families(rng):
            tmax = rng.uniform(0.5, 8.0)
            for grid in ((0.0,), (0.0, tmax), tuple(np.linspace(0.0, tmax, 301))):
                problem = EvolutionProblem(sf, spec, grid)
                batched = _outcome(time_series, problem)
                assert batched == _outcome(scalar_time_series, problem)
                if isinstance(batched, list):
                    compared += len(batched)
    assert compared >= 3000


def test_time_series_raises_like_scalar_path():
    # degenerate n+- in vacuum-like baths: a radicand of -3e-12 at some row
    problem = EvolutionProblem(squeezed_thermal_state(1.0, 2.5),
                               ChannelSpec.thermal(0.5, 0.5),
                               tuple(np.linspace(0.0, 3.0, 301)))
    with pytest.raises(ComplexSpectrumError) as batched:
        time_series(problem)
    with pytest.raises(ComplexSpectrumError) as scalar:
        scalar_time_series(problem)
    assert str(batched.value) == str(scalar.value)
    assert str(batched.value) == "spectrum radicand -3.197e-12 < 0"


def test_time_series_validation_count_is_independent_of_grid(monkeypatch):
    original = gclab.states.validate_covariance
    calls = []

    def counting(m):
        calls.append(m)
        return original(m)

    for name, module in list(sys.modules.items()):
        if name == "gclab" or name.startswith("gclab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)

    counts = []
    for grid in ((0.0,), tuple(np.linspace(0.0, 5.0, 1500))):
        problem = EvolutionProblem(squeezed_thermal_state(0.8, 1.0),
                                   ChannelSpec.thermal(0.3, 0.7), grid)
        calls.clear()
        time_series(problem)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2
