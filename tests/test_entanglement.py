"""Invariant polynomials, the separability quartic, entanglement time and its
closed-form special cases."""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from gclab import (
    NEVER,
    ChannelSpec,
    DomainError,
    EvolutionProblem,
    NotEntangledAtStartError,
    StandardForm,
    UnphysicalChannelError,
    asymptotic_covariance,
    entanglement_time,
    evolve,
    invariant_polynomials,
    local_invariants,
    log_negativity,
    real_quartic_roots,
    separability_quartic,
    squeezed_thermal_state,
    squeezed_thermal_tent,
    symmetric_tent_bounds,
    time_series,
)
from gclab import entanglement
from gclab.channels import BathSpec
from gclab.cli import RunConfig, main
from util import random_channel, random_standard_form

POINT = StandardForm(2.0, 1.0, 1.0, -1.0)
FIG2 = StandardForm(1.5, 1.5, 1.2, -1.4)


# ---------------------------------------------------------------------------
# invariant polynomials
# ---------------------------------------------------------------------------

def test_alpha_coefficients_thermal_point_state():
    # both baths mu = 1/2 thermal (N = 1/2): alpha = (1, 2, 1) for a = 2
    spec = ChannelSpec.from_phenomenological(0.5, 0.0, 0.5, 0.0)
    p = invariant_polynomials(POINT, spec)
    assert p.alpha_coeffs == pytest.approx((1.0, 2.0, 1.0), abs=1e-12)
    assert p.sigma_coeffs[0] == pytest.approx(1.0, abs=1e-12)
    assert p.gamma2 == pytest.approx(-1.0, abs=1e-12)


def test_sigma0_is_product_of_bath_determinants(rng):
    for _ in range(20):
        spec = random_channel(rng)
        p = invariant_polynomials(random_standard_form(rng), spec)
        mu1 = spec.bath1.phenomenological()[0]
        mu2 = spec.bath2.phenomenological()[0]
        assert p.sigma_coeffs[0] == pytest.approx(1 / (16 * mu1 ** 2 * mu2 ** 2),
                                                  rel=1e-9)


def test_polynomials_at_endpoints(rng):
    for _ in range(30):
        sf = random_standard_form(rng)
        spec = random_channel(rng)
        p = invariant_polynomials(sf, spec)
        inv0 = local_invariants(sf.to_matrix())
        assert p.det_sigma_at(1.0) == pytest.approx(inv0.det_sigma, rel=1e-9, abs=1e-12)
        assert p.det_alpha_at(1.0) == pytest.approx(sf.a ** 2, rel=1e-9)
        assert p.det_beta_at(1.0) == pytest.approx(sf.b ** 2, rel=1e-9)
        inv_inf = local_invariants(asymptotic_covariance(spec))
        assert p.det_sigma_at(0.0) == pytest.approx(inv_inf.det_sigma, rel=1e-9)
        assert p.det_alpha_at(0.0) == pytest.approx(inv_inf.det_alpha, rel=1e-9)


def test_polynomials_match_direct_determinants(rng):
    # smaller copy of the master equivalence (full version in acceptance)
    for _ in range(60):
        sf = random_standard_form(rng)
        spec = random_channel(rng)
        p = invariant_polynomials(sf, spec)
        sigma_inf = asymptotic_covariance(spec)
        for t in rng.uniform(0.0, 5.0, size=4):
            k = math.exp(-spec.gamma * t)
            inv = local_invariants(evolve(sf.to_matrix(), sigma_inf, spec.gamma, t))
            assert p.det_sigma_at(k) == pytest.approx(inv.det_sigma, rel=1e-9, abs=1e-11)
            assert p.det_alpha_at(k) == pytest.approx(inv.det_alpha, rel=1e-9)
            assert p.det_beta_at(k) == pytest.approx(inv.det_beta, rel=1e-9)
            assert p.det_gamma_at(k) == pytest.approx(inv.det_gamma, rel=1e-9, abs=1e-11)


def test_imaginary_bath1_squeezing_rejected():
    spec = ChannelSpec(BathSpec(N=1.0, M=0.5j), BathSpec.thermal(0.0))
    with pytest.raises(UnphysicalChannelError):
        invariant_polynomials(POINT, spec)


# ---------------------------------------------------------------------------
# the separability quartic
# ---------------------------------------------------------------------------

def test_quartic_tracks_ppt_boundary_functional(rng):
    # quartic(k) = 4 Det sigma + 1/4 - Det alpha - Det beta + 2 Det gamma
    for _ in range(30):
        sf = random_standard_form(rng)
        spec = random_channel(rng)
        sigma_inf = asymptotic_covariance(spec)
        q = separability_quartic(sf.to_matrix(), sigma_inf)
        for t in rng.uniform(0.0, 4.0, size=3):
            k = math.exp(-spec.gamma * t)
            inv = local_invariants(evolve(sf.to_matrix(), sigma_inf, spec.gamma, t))
            direct = (4.0 * inv.det_sigma + 0.25 - inv.det_alpha - inv.det_beta
                      + 2.0 * inv.det_gamma)
            assert np.polyval(q, k) == pytest.approx(
                direct, rel=1e-8, abs=1e-9)


def test_quartic_root_is_ppt_crossing():
    spec = ChannelSpec.thermal(0.5, 0.5)
    sf = squeezed_thermal_state(1.0, 1.0)
    result = entanglement_time(sf, spec)
    sigma = evolve(sf.to_matrix(), asymptotic_covariance(spec), 1.0, result.t_ent)
    assert log_negativity(sigma).nt_minus == pytest.approx(0.5, abs=1e-7)


# ---------------------------------------------------------------------------
# the quartic is exact on the float entries of sigma(0) and sigma_inf
# ---------------------------------------------------------------------------

def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _poly_det(m, rows, cols):
    """Leibniz determinant of the submatrix (rows, cols) of a matrix of
    polynomials in k, with Fraction coefficients, padded to degree 4."""
    total = [Fraction(0)] * 5
    for perm in itertools.permutations(cols):
        sign = (-1) ** sum(x > y for x, y in itertools.combinations(perm, 2))
        entries = [m[i][j] for i, j in zip(rows, perm)]
        if not all(any(p) for p in entries):
            continue
        term = [Fraction(sign)]
        for p in entries:
            term = _poly_mul(term, p)
        total = [x + y for x, y in zip(total, term + [Fraction(0)] * 5)]
    return total


def _fraction_reference(sf, spec):
    """(Det alpha, Det beta, Det gamma, Det sigma, quartic) coefficients,
    ascending in k, from all sixteen entries of sigma(k) in Fractions."""
    s0 = sf.to_matrix().entries.tolist()
    si = asymptotic_covariance(spec).entries.tolist()
    m = [[[Fraction(si[i][j]), Fraction(s0[i][j]) - Fraction(si[i][j])] for j in range(4)]
         for i in range(4)]
    det_a = _poly_det(m, (0, 1), (0, 1))
    det_b = _poly_det(m, (2, 3), (2, 3))
    det_g = _poly_det(m, (0, 1), (2, 3))
    det_s = _poly_det(m, range(4), range(4))
    quartic = [4 * s - a - b + 2 * g for s, a, b, g in zip(det_s, det_a, det_b, det_g)]
    quartic[0] += Fraction(1, 4)
    return det_a, det_b, det_g, det_s, quartic


def test_quartic_equals_fraction_reference_bit_for_bit():
    # float(Fraction) rounds correctly, so the coefficients must match exactly
    rng = np.random.default_rng(28)
    for i in range(300):
        sf = random_standard_form(rng, a_max=3.0 if i % 2 else 30.0)
        spec = random_channel(rng, mu_min=0.05, r_max=0.6 if i % 3 else 2.5)
        det_a, det_b, det_g, det_s, quartic = _fraction_reference(sf, spec)
        got = separability_quartic(sf.to_matrix(), asymptotic_covariance(spec))
        assert got == tuple(float(c) for c in reversed(quartic))
        p = invariant_polynomials(sf, spec)
        assert p.sigma_coeffs == tuple(float(c) for c in det_s)
        assert p.alpha_coeffs == tuple(float(c) for c in det_a[:3])
        assert p.beta_coeffs == tuple(float(c) for c in det_b[:3])
        assert det_g[:2] == [0, 0] and p.gamma2 == float(det_g[2])


def test_vacuum_repro_never_separates(capsys):
    # its old quartic had y = 2.2e-16 where the exact value is 0: a spurious
    # root near 1e-16 gave t_ent = 36.93 with tangent=1
    code = main(["tent", "--state", "sf", "0.8628081972177435", "2.4101393235373685",
                 "0.9619704362489083", "-1.0355043175741971",
                 "--bath1", "thermal", "0", "--bath2", "thermal", "0"])
    assert code == 0
    assert capsys.readouterr().out == "t_ent=never method=bisection residual=nan\n"


def test_vacuum_baths_give_no_tangent_answer():
    # about 15 % of these queries printed a tangent=1 time with the float
    # expansion of the coefficients
    rng = np.random.default_rng(11)
    spec = ChannelSpec.thermal(0.0, 0.0)
    for _ in range(200):
        result = entanglement_time(random_standard_form(rng, entangled=True), spec)
        assert not result.tangent


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_twin_beam_time_matches_closed_form_on_its_float_entries(r):
    # in equal thermal baths nt_minus = n + (a - |c| - n) k is linear in k, so
    # the crossing is k = (n - 1/2) / (n + |c| - a) on the float entries
    cfg = (RunConfig().set_state(["st", "1", str(r)], "--state")
           .set_bath("bath1", ["thermal", "0.5"], "--bath1")
           .set_bath("bath2", ["thermal", "0.5"], "--bath2"))
    sf, spec = cfg.standard_form(), cfg.channel()
    n = Fraction(asymptotic_covariance(spec).entries[0, 0])
    k = (n - Fraction(1, 2)) / (n + abs(Fraction(sf.c1)) - Fraction(sf.a))
    with mpmath.workdps(50):
        exact = -mpmath.log(mpmath.mpf(k.numerator) / k.denominator)
        result = entanglement_time(sf, spec)
        assert abs(result.t_ent - exact) <= 1e-15 * exact


# ---------------------------------------------------------------------------
# real quartic roots
# ---------------------------------------------------------------------------

def test_quartic_roots_factored_polynomial():
    # (k-1)(k-2)(k-3)(k-4) = k^4 - 10k^3 + 35k^2 - 50k + 24
    roots = real_quartic_roots(1.0, -10.0, 35.0, -50.0, 24.0)
    assert roots == pytest.approx([1.0, 2.0, 3.0, 4.0], abs=1e-9)


def test_quartic_roots_complex_pair():
    # (k^2+1)(k-1)(k+2) = k^4 + k^3 - k^2 + k - 2
    roots = real_quartic_roots(1.0, 1.0, -1.0, 1.0, -2.0)
    assert roots == pytest.approx([-2.0, 1.0], abs=1e-9)


def test_quartic_roots_biquadratic():
    # k^4 - 5k^2 + 4 = (k^2-1)(k^2-4)
    roots = real_quartic_roots(1.0, 0.0, -5.0, 0.0, 4.0)
    assert roots == pytest.approx([-2.0, -1.0, 1.0, 2.0], abs=1e-9)


def test_quartic_roots_degenerate_degrees():
    assert real_quartic_roots(0.0, 0.0, 1.0, -3.0, 2.0) == pytest.approx([1.0, 2.0])
    assert real_quartic_roots(0.0, 0.0, 0.0, 2.0, -1.0) == pytest.approx([0.5])
    assert real_quartic_roots(0.0, 0.0, 0.0, 0.0, 3.0) == []
    assert real_quartic_roots(0.0, 0.0, 0.0, 0.0, 0.0) == []
    # cubic with one real root
    roots = real_quartic_roots(0.0, 1.0, 0.0, 0.0, -8.0)
    assert roots == pytest.approx([2.0], abs=1e-9)


def test_quartic_roots_double_root():
    # (k-0.5)^2 (k^2+1): the double root splits into a near-real pair about
    # 3e-9 apart; the halves come back merged into one root
    coeffs = np.polymul(np.poly([0.5, 0.5]), [1.0, 0.0, 1.0])
    roots = real_quartic_roots(*coeffs)
    assert len(roots) == 1 and abs(roots[0] - 0.5) <= 1e-7


def test_quartic_roots_two_double_roots_are_not_polished_away():
    # np.roots returns each double root as a near-real complex pair; Newton
    # on such a pair walked 0.3 to 0.300113 and 0.7 to 0.699638
    roots = real_quartic_roots(*np.poly([0.3, 0.3, 0.7, 0.7]))
    assert len(roots) == 2
    assert abs(roots[0] - 0.3) <= 1e-12 and abs(roots[1] - 0.7) <= 1e-12


def test_quartic_roots_quadruple_root():
    roots = real_quartic_roots(*np.poly([0.4] * 4))
    assert roots and min(abs(x - 0.4) for x in roots) <= 1e-3


def test_quartic_roots_random_cross_check(rng):
    # reference: mpmath's Durand-Kerner at extra precision, independent of
    # the companion-matrix eigenvalues the solver uses
    checked = 0
    while checked < 100:
        coeffs = rng.uniform(-3.0, 3.0, size=5)
        if abs(coeffs[0]) < 1e-2:
            continue
        ref_all = [complex(r) for r in mpmath.polyroots(
            coeffs.tolist(), maxsteps=200, extraprec=60)]
        gaps = [abs(x - y) for i, x in enumerate(ref_all) for y in ref_all[i + 1:]]
        if gaps and min(gaps) < 1e-2:
            continue  # near-double roots are legitimately ambiguous
        ref = sorted(r.real for r in ref_all if abs(r.imag) < 1e-8)
        mine = real_quartic_roots(*coeffs)
        assert len(mine) == len(ref)
        assert mine == pytest.approx(ref, rel=1e-6, abs=1e-6)
        checked += 1


# ---------------------------------------------------------------------------
# entanglement time
# ---------------------------------------------------------------------------

def test_benchmark_entanglement_time():
    result = entanglement_time(squeezed_thermal_state(1.0, 1.0),
                               ChannelSpec.thermal(0.5, 0.5))
    expected = math.log(1.0 + (1.0 - math.exp(-2.0)))
    assert result.t_ent == pytest.approx(expected, abs=1e-9)
    assert result.method == "quartic"
    assert result.residual <= 1e-8
    assert not result.tangent


def test_vacuum_baths_never_separate():
    result = entanglement_time(squeezed_thermal_state(1.0, 1.0),
                               ChannelSpec.thermal(0.0, 0.0))
    assert result.never
    assert result.t_ent == NEVER


def test_separable_start_rejected():
    with pytest.raises(NotEntangledAtStartError):
        entanglement_time(StandardForm(2.0, 2.0, 1.5, -1.5),
                          ChannelSpec.thermal(0.5, 0.5))


def test_fig2_state_within_bounds():
    result = entanglement_time(FIG2, ChannelSpec.thermal(0.5, 0.5))
    lower, upper = symmetric_tent_bounds(1.5, 1.2, -1.4, 0.5)
    assert lower == pytest.approx(math.log(1.4), rel=1e-12)
    assert upper == pytest.approx(math.log(1.8), rel=1e-12)
    assert lower - 1e-9 <= result.t_ent <= upper + 1e-9


def test_entanglement_time_scales_with_gamma():
    r1 = entanglement_time(squeezed_thermal_state(1.0, 1.0),
                           ChannelSpec.thermal(0.5, 0.5, gamma=1.0))
    r2 = entanglement_time(squeezed_thermal_state(1.0, 1.0),
                           ChannelSpec.thermal(0.5, 0.5, gamma=2.0))
    assert r2.t_ent == pytest.approx(r1.t_ent / 2.0, rel=1e-9)
    assert r2.k_ent == pytest.approx(r1.k_ent, rel=1e-9)


def test_random_configurations_cross_validate(rng):
    finite = 0
    for _ in range(60):
        sf = random_standard_form(rng, entangled=True)
        spec = random_channel(rng, mu_min=0.35)
        result = entanglement_time(sf, spec)  # raises MethodDisagreement on bug
        if result.never:
            continue
        finite += 1
        sigma = evolve(sf.to_matrix(), asymptotic_covariance(spec),
                       spec.gamma, result.t_ent)
        assert log_negativity(sigma).nt_minus == pytest.approx(0.5, abs=1e-6)
    assert finite >= 30


def test_scan_grid_matches_scalar_exp():
    assert entanglement.SCAN_K.shape == (3001,)
    for i, k in enumerate(entanglement.SCAN_K.tolist()):
        assert k == math.exp(-60.0 * i / 3000)


def test_bracket_miss_repro_exits_zero(capsys):
    # the scan point before this crossing reads g in (0, G_NOISE): a bracket
    # taken from neighbouring scan points missed the crossing
    code = main(["tent", "--state", "st", "0.987353", "0.370801",
                 "--bath1", "thermal", "1.49575", "--bath2", "thermal", "0.180733",
                 "--gamma", "1.7728"])
    out = capsys.readouterr().out
    assert code == 0
    assert "method=quartic" in out


def test_near_pure_thermal_baths_methods_agree():
    # crossings late in nearly pure baths: several of these queries used to
    # raise MethodDisagreementError
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 300:
        mu, r = rng.uniform(0.3, 1.0), rng.uniform(0.1, 1.5)
        if math.sqrt(mu) <= math.exp(-2.0 * r):
            continue  # separable at t = 0
        checked += 1
        sf = squeezed_thermal_state(mu, r)
        n1, n2 = 10.0 ** rng.uniform(-5.0, -3.0, size=2)
        spec = ChannelSpec.thermal(n1, n2, gamma=rng.uniform(0.5, 2.0))
        result = entanglement_time(sf, spec)
        assert not result.never and result.method == "quartic"
        assert result.residual <= 1e-6


def test_never_query_scans_every_grid_point_once(monkeypatch):
    seen = []
    make = entanglement._nt_minus_fn

    def recording_fn(sf, channel):
        nt = make(sf, channel)

        def record(k):
            seen.append(k.copy())
            return nt(k)
        return record

    monkeypatch.setattr(entanglement, "_nt_minus_fn", recording_fn)
    result = entanglement_time(squeezed_thermal_state(1.0, 1.0),
                               ChannelSpec.thermal(0.0, 0.0))
    assert result.never
    # one candidate re-check, then the scan chunks through k = exp(-60)
    scanned = np.concatenate(seen[1:])
    assert np.array_equal(scanned, entanglement.SCAN_K)
    assert [len(k) for k in seen[1:]] == [32, 64, 128, 256, 512, 1024, 985]


@pytest.mark.parametrize("index", [1, 31, 32, 95, 96, 223, 224, 2015, 2016, 3000])
def test_scan_finds_a_crossing_at_each_chunk_edge(index):
    # synthetic g with its first sign change just above scan point `index`
    k_cross = entanglement.SCAN_K[index]
    g = lambda k: np.where(k > k_cross, -1.0, 1.0)
    k = entanglement._bisect_crossing(g)
    assert k is not None and abs(k - k_cross) <= 1e-13


def test_scan_bracket_skips_points_inside_the_noise_gate():
    # g just past the crossing at scan point 40 stays below G_NOISE until
    # point 42: the bracket must open at point 39, where g <= -G_NOISE
    k_cross = 0.5 * (entanglement.SCAN_K[39] + entanglement.SCAN_K[40])
    edge = entanglement.SCAN_K[42]
    g = lambda k: np.where(k > k_cross, -1.0, np.where(k > edge, 1e-9, 1.0))
    assert abs(entanglement._bisect_crossing(g) - k_cross) <= 1e-13


# standard forms whose scan nt_minus at k = 1 once differed in the last bit
# from the scalar one (the scan squared Delta tilde by a multiply, the scalar
# path by libm pow), in thermal baths N = 0.3 and 0.2
LAST_BIT_STATES = [
    StandardForm(1.2373878225509212, 2.3080305659781213, 0.09224337953894947,
                 -0.20961472690706245),
    StandardForm(2.679988673652481, 1.6979583615839258, 0.05900271714089067,
                 1.4826194993837563),
    StandardForm(0.5346681634633761, 2.1880167738802996, 0.0780981796175666,
                 0.2817409168129039),
    StandardForm(2.815122654636928, 2.045170303687219, 0.32391762038182215,
                 -2.1707306057067357),
    StandardForm(0.9280232841075513, 2.9134694085502466, 0.563064480246249,
                 0.8542686539014139),
]


def test_one_nt_minus_for_scan_scalar_and_series(rng):
    # the scan at k = 1, the scalar functional and the batched series core
    # at t = 0 all read sigma(0): the same bits
    spec = ChannelSpec.thermal(0.3, 0.2)
    sigma_inf = asymptotic_covariance(spec).entries
    for sf in LAST_BIT_STATES + [random_standard_form(rng) for _ in range(300)]:
        scan = entanglement._nt_minus_fn(sf.to_matrix().entries, sigma_inf)(np.ones(1))[0]
        scalar = log_negativity(sf.to_matrix()).nt_minus
        series = time_series(EvolutionProblem(sf, spec, (0.0,)))[0].nt_minus
        assert scan == scalar == series, sf


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_symmetric_bounds_validation():
    with pytest.raises(DomainError):
        symmetric_tent_bounds(1.5, 1.4, -1.2, 0.5)
    with pytest.raises(DomainError):
        symmetric_tent_bounds(1.5, 1.2, -1.4, -0.1)
    assert symmetric_tent_bounds(1.5, 1.2, -1.4, 0.0) == (NEVER, NEVER)
    # loose lower bound clamps at zero
    lower, upper = symmetric_tent_bounds(2.0, 0.2, -1.4, 0.5)
    assert lower == 0.0


def test_bounds_collapse_to_closed_form():
    for mu, r in [(1.0, 1.0), (1 / 9, 1.0), (0.5, 0.6)]:
        sf = squeezed_thermal_state(mu, r)
        lower, upper = symmetric_tent_bounds(sf.a, sf.c1, sf.c2, 0.5)
        closed = squeezed_thermal_tent(mu, r, 0.5)
        assert lower == pytest.approx(closed, rel=1e-12)
        assert upper == pytest.approx(closed, rel=1e-12)


def test_closed_form_agrees_with_dynamics():
    for mu, r, nb in [(1.0, 1.0, 0.5), (1 / 9, 1.0, 0.5), (0.6, 0.8, 1.0),
                      (1.0, 0.4, 0.25)]:
        closed = squeezed_thermal_tent(mu, r, nb)
        result = entanglement_time(squeezed_thermal_state(mu, r),
                                   ChannelSpec.thermal(nb, nb))
        assert result.t_ent == pytest.approx(closed, abs=1e-7)


def test_closed_form_values():
    assert squeezed_thermal_tent(1.0, 1.0, 0.5) == pytest.approx(
        math.log(2.0 - math.exp(-2.0)), rel=1e-12)
    assert squeezed_thermal_tent(1.0, 1.0, 0.0) == NEVER
    with pytest.raises(DomainError):
        squeezed_thermal_tent(0.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        squeezed_thermal_tent(1.0, -0.5, 0.5)
    with pytest.raises(DomainError):
        squeezed_thermal_tent(1.0, 1.0, -0.5)
    with pytest.raises(NotEntangledAtStartError):
        # sqrt(mu) <= e^{-2r}: no entanglement to lose
        squeezed_thermal_tent(0.01, 0.5, 0.5)


def test_closed_form_monotone_in_bath_photons():
    values = [squeezed_thermal_tent(1.0, 1.0, nb) for nb in (0.25, 0.5, 1.0, 2.0)]
    assert all(x > y for x, y in zip(values, values[1:]))


def test_closed_form_small_squeezing_limit():
    assert squeezed_thermal_tent(1.0, 1e-9, 0.5) == pytest.approx(0.0, abs=1e-8)


# ---------------------------------------------------------------------------
# monotonicity along the channel (spot checks; full grids in acceptance)
# ---------------------------------------------------------------------------

def _nt_minus_at(sf, spec, t):
    sigma = evolve(sf.to_matrix(), asymptotic_covariance(spec), spec.gamma, t)
    return log_negativity(sigma).nt_minus


def test_phi2_leaves_delta_tilde_invariant():
    sf = squeezed_thermal_state(1.0, 1.0)
    ref = None
    for phi2 in np.linspace(0.0, math.pi / 4, 5):
        spec = ChannelSpec.from_phenomenological(0.5, 1.0, 0.5, 1.0, phi2)
        sigma = evolve(sf.to_matrix(), asymptotic_covariance(spec), 1.0, 0.7)
        dt = local_invariants(sigma).delta_tilde
        if ref is None:
            ref = dt
        assert dt == pytest.approx(ref, abs=1e-10)


def test_phi2_zero_is_optimal():
    sf = squeezed_thermal_state(1.0, 1.0)
    prev = None
    for phi2 in np.linspace(0.0, math.pi / 4, 5):
        spec = ChannelSpec.from_phenomenological(0.5, 1.0, 0.5, 1.0, phi2)
        nt = _nt_minus_at(sf, spec, 0.7)
        if prev is not None:
            assert nt >= prev - 1e-10
        prev = nt


def test_thermal_photons_degrade_entanglement():
    sf = squeezed_thermal_state(1.0, 1.0)
    values = [_nt_minus_at(sf, ChannelSpec.thermal(n, n), 0.5)
              for n in (0.0, 0.25, 0.5, 1.0)]
    assert all(y >= x - 1e-10 for x, y in zip(values, values[1:]))
