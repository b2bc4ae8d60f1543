"""Every `metrics` column against the 60-digit reference of tests/reference.py.

The corpus is 300 seeded rows: 100 random standard forms in random squeezed
channels (with a bath-2 angle), each at t = 0 and at two random later times.
A value passes when it is within 1e-13 of the reference, relative above 1 and
absolute below.  The worst error on this corpus is 7.3e-15.

Known defects are kept as a ledger of strict xfails: each entry names the
ROADMAP item that fixes it, and fails the suite once it passes, until its
mark is removed.
"""

import numpy as np
import pytest

import reference
from gclab import (
    ChannelSpec,
    EvolutionProblem,
    asymptotic_covariance,
    squeezed_thermal_state,
    time_series,
)
from util import random_channel, random_standard_form

TOL = 1e-13


def _mismatches(sf, spec, times) -> list:
    """(t, column, value, error) of each field of the series that the
    reference does not confirm."""
    sigma0 = sf.to_matrix().entries
    sigma_inf = asymptotic_covariance(spec).entries
    out = []
    for row in time_series(EvolutionProblem(sf, spec, times)):
        ref = reference.metrics(reference.sigma_t(sigma0, sigma_inf, spec.gamma, row.t))
        for column in reference.COLUMNS:
            value = getattr(row, column)
            err = reference.error(value, ref[column])
            if not err <= TOL:
                out.append((row.t, column, value, err))
        if abs(ref["nt_minus"] - 0.5) > TOL and row.separable != ref["separable"]:
            out.append((row.t, "separable", row.separable, None))
    return out


def test_random_rows_match_the_reference():
    rng = np.random.default_rng(31)
    for _ in range(100):
        sf, spec = random_standard_form(rng), random_channel(rng)
        times = (0.0, rng.uniform(0.05, 1.0), rng.uniform(1.0, 5.0))
        assert _mismatches(sf, spec, times) == [], (sf, spec)


@pytest.mark.parametrize("r", [
    # S_V = 1.25e-5 for a pure state, E_N = 6.00000006854
    pytest.param(3.0, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 4")),
    # E_N = inf
    pytest.param(5.0, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 4")),
])
def test_twin_beam_at_t0_matches_the_reference(r):
    # `metrics --state st 1 r --times 0`
    assert _mismatches(squeezed_thermal_state(1.0, r), ChannelSpec.thermal(0.0, 0.0),
                       (0.0,)) == []
