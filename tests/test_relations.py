"""Relations that entanglement times obey without any oracle: a phase
rotation of both modes, a swap of the two modes, the damping rate as the unit
of time, and the semigroup property of the channel.

The corpus is 300 seeded crossing queries: random entangled standard forms in
thermal baths, in squeezed baths with phi2 = 0, and in squeezed baths with a
bath-2 angle, in turn.  The `time_series` rows obey the same Gamma scaling
and mode swap, on random standard forms over 50-point grids.
"""

import dataclasses
import math

import numpy as np
import pytest

from gclab import (
    BathSpec,
    ChannelSpec,
    EvolutionProblem,
    StandardForm,
    asymptotic_covariance,
    entanglement_time,
    evolve,
    time_series,
)
from util import random_channel, random_standard_form

# Gamma scaling: t_ent and its scaled twin carry four roundings between them,
# 4.4e-16; the worst case seen on this corpus is 3.4e-16
GAMMA_REL = 4.4e-16
# semigroup: the worst relative error seen on this corpus is 3.6e-13 with the
# float-expanded quartic coefficients and 1.5e-13 with the exact ones
SEMIGROUP_REL = 1e-12
# mode swap on time_series rows, relative above 1 and absolute below; the
# worst difference seen on this corpus is 5.5e-15
SWAP_TOL = 1e-12


def _channel(rng, kind: int) -> ChannelSpec:
    gamma = rng.uniform(0.5, 2.0)
    if kind == 0:
        return random_channel(rng, squeezed=False, mu_min=0.35, gamma=gamma)
    if kind == 1:
        mu1, mu2 = rng.uniform(0.35, 1.0, size=2)
        r1, r2 = rng.uniform(0.0, 1.2, size=2)
        return ChannelSpec.from_phenomenological(mu1, r1, mu2, r2, 0.0, gamma)
    return random_channel(rng, mu_min=0.35, gamma=gamma)


@pytest.fixture(scope="module")
def corpus():
    """(kind, state, channel, result) for 300 queries that separate."""
    rng = np.random.default_rng(99)
    out = []
    while len(out) < 300:
        kind = len(out) % 3
        sf = random_standard_form(rng, entangled=True)
        spec = _channel(rng, kind)
        result = entanglement_time(sf, spec)
        if not result.never:
            out.append((kind, sf, spec, result))
    return out


def test_phase_rotation_leaves_the_time_unchanged(corpus):
    # x -> p, p -> -x on both modes: (c1, c2) -> (c2, c1) and M -> -M
    for _, sf, spec, result in corpus:
        rotated = entanglement_time(
            StandardForm(sf.a, sf.b, sf.c2, sf.c1),
            ChannelSpec(BathSpec(spec.bath1.N, -spec.bath1.M),
                        BathSpec(spec.bath2.N, -spec.bath2.M), spec.gamma))
        assert (rotated.t_ent, rotated.method) == (result.t_ent, result.method)


def test_mode_swap_leaves_the_time_unchanged(corpus):
    # with both baths squeezed along x (phi2 = 0) the two modes trade places
    swapped = 0
    for kind, sf, spec, result in corpus:
        if kind == 2:
            continue
        other = entanglement_time(StandardForm(sf.b, sf.a, sf.c1, sf.c2),
                                  ChannelSpec(spec.bath2, spec.bath1, spec.gamma))
        assert (other.t_ent, other.method) == (result.t_ent, result.method)
        swapped += 1
    assert swapped == 200


def test_gamma_is_the_unit_of_time(corpus):
    for _, sf, spec, result in corpus:
        faster = entanglement_time(sf, ChannelSpec(spec.bath1, spec.bath2, 2.5 * spec.gamma))
        assert faster.t_ent * 2.5 == pytest.approx(result.t_ent, rel=GAMMA_REL, abs=0.0)


def test_semigroup_in_thermal_baths(corpus):
    # in thermal baths sigma(t1) is again a standard form, and the time left
    # from it is what remains of the time from sigma(0)
    rng = np.random.default_rng(100)
    for kind, sf, spec, result in corpus:
        if kind != 0:
            continue
        t1 = rng.uniform(0.2, 0.8) * result.t_ent
        e = evolve(sf.to_matrix(), asymptotic_covariance(spec), spec.gamma, t1).entries
        assert e[0, 0] == e[1, 1] and e[2, 2] == e[3, 3]
        later = entanglement_time(StandardForm(e[0, 0], e[2, 2], e[0, 2], e[1, 3]), spec)
        assert math.isclose(later.t_ent + t1, result.t_ent, rel_tol=SEMIGROUP_REL)


def _series_problems(seed: int, kinds) -> list:
    rng = np.random.default_rng(seed)
    return [EvolutionProblem(random_standard_form(rng), _channel(rng, kind),
                             tuple(np.linspace(0.0, rng.uniform(1.0, 6.0), 50)))
            for _ in range(20) for kind in kinds]


def test_gamma_is_the_unit_of_time_in_series_rows():
    # (Gamma, t) -> (2 Gamma, t / 2) keeps every Gamma t, so every row
    for problem in _series_problems(101, (0, 1, 2)):
        spec = problem.channel
        rows = time_series(problem)
        faster = time_series(EvolutionProblem(
            problem.initial, ChannelSpec(spec.bath1, spec.bath2, 2.0 * spec.gamma),
            tuple(t / 2.0 for t in problem.time_grid)))
        assert [dataclasses.replace(row, t=2.0 * row.t) for row in faster] == rows


def test_mode_swap_leaves_series_rows_unchanged():
    # with both baths squeezed along x (phi2 = 0) the two modes trade places
    for problem in _series_problems(102, (0, 1)):
        sf, spec = problem.initial, problem.channel
        rows = time_series(problem)
        swapped = time_series(EvolutionProblem(StandardForm(sf.b, sf.a, sf.c1, sf.c2),
                                               ChannelSpec(spec.bath2, spec.bath1, spec.gamma),
                                               problem.time_grid))
        for row, other in zip(rows, swapped):
            for name in ("purity", "von_neumann_entropy", "mutual_information",
                         "log_negativity", "nt_minus", "n_minus", "n_plus"):
                assert math.isclose(getattr(other, name), getattr(row, name),
                                    rel_tol=SWAP_TOL, abs_tol=SWAP_TOL), (problem, row.t, name)
            if abs(row.nt_minus - 0.5) > SWAP_TOL:
                assert other.separable == row.separable
