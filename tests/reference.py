"""A 60-digit reference for every column of `gclab metrics`.

It starts where the CLI's numbers start: the float entries of sigma(t),
built from sigma(0), sigma_inf, Gamma and t with k = math.exp(-Gamma t),
exactly as `evolve` and `time_series` build them.  Everything after that is
taken with mpmath at 60 digits.  So it judges the functionals on the matrix
that gclab evaluates; the rounding of the channel map itself is not judged.

The columns follow the definitions of `gclab.states` (Serafini, Illuminati
& De Siena, J. Phys. B 37, L21 (2004)), clamps included:
purity = min(1, 1/(4 sqrt(Det sigma))), S_V = f(max(n-, 1/2)) + f(n+),
I = max(0, f(a) + f(b) - f(max(n-, 1/2)) - f(n+)) with a^2 = Det alpha and
b^2 = Det beta, and E_N = max(0, -ln(2 nt-)), where
f(x) = (x+1/2)ln(x+1/2) - (x-1/2)ln(x-1/2) and 0 ln 0 = 0.
"""

import math

import mpmath
import numpy as np

DIGITS = 60

# MetricsRow fields after t that hold a number
COLUMNS = ("purity", "von_neumann_entropy", "mutual_information",
           "log_negativity", "nt_minus", "n_minus", "n_plus")


def sigma_t(sigma0: np.ndarray, sigma_inf: np.ndarray, gamma: float, t: float) -> np.ndarray:
    """The float entries of sigma(t), as the CLI computes them."""
    k = math.exp(-gamma * t)
    return sigma_inf * (1.0 - k) + sigma0 * k


def _f(x):
    xm = x - 0.5
    out = (x + 0.5) * mpmath.log(x + 0.5)
    return out - xm * mpmath.log(xm) if xm > 0 else out


def _det4(m) -> mpmath.mpf:
    """Laplace expansion along the first two rows: sum of 2x2 minors times
    their complementary minors."""
    def minor(r0, r1, c0, c1):
        return m[r0][c0] * m[r1][c1] - m[r0][c1] * m[r1][c0]
    return (minor(0, 1, 0, 1) * minor(2, 3, 2, 3) - minor(0, 1, 0, 2) * minor(2, 3, 1, 3)
            + minor(0, 1, 0, 3) * minor(2, 3, 1, 2) + minor(0, 1, 1, 2) * minor(2, 3, 0, 3)
            - minor(0, 1, 1, 3) * minor(2, 3, 0, 2) + minor(0, 1, 2, 3) * minor(2, 3, 0, 1))


def _pair(delta, det_sigma):
    """(lower, upper) square roots of the roots of q^2 - delta q + Det sigma;
    the lower one as Det sigma / upper^2, which does not cancel."""
    upper_sq = (delta + mpmath.sqrt(max(delta * delta - 4 * det_sigma, 0))) / 2
    return mpmath.sqrt(det_sigma / upper_sq), mpmath.sqrt(upper_sq)


def metrics(entries: np.ndarray) -> dict:
    """Every numeric `metrics` column of the 4x4 float matrix `entries`, as
    mpf at DIGITS digits, and `separable`."""
    with mpmath.workdps(DIGITS):
        m = [[mpmath.mpf(x) for x in row] for row in np.asarray(entries, dtype=float).tolist()]
        det_a = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        det_b = m[2][2] * m[3][3] - m[2][3] * m[3][2]
        det_g = m[0][2] * m[1][3] - m[0][3] * m[1][2]
        det_s = _det4(m)
        n_minus, n_plus = _pair(det_a + det_b + 2 * det_g, det_s)
        nt_minus, _ = _pair(det_a + det_b - 2 * det_g, det_s)
        f_ab = _f(mpmath.sqrt(det_a)) + _f(mpmath.sqrt(det_b))
        entropy = _f(max(n_minus, mpmath.mpf(0.5))) + _f(n_plus)
        return {
            "purity": min(1 / (4 * mpmath.sqrt(det_s)), mpmath.mpf(1)),
            "von_neumann_entropy": entropy,
            "mutual_information": max(f_ab - entropy, mpmath.mpf(0)),
            "log_negativity": max(-mpmath.log(2 * nt_minus), mpmath.mpf(0)),
            "nt_minus": nt_minus,
            "n_minus": n_minus,
            "n_plus": n_plus,
            "separable": nt_minus >= 0.5,
        }


def error(value: float, exact) -> float:
    """Relative-or-absolute error |value - exact| / max(1, |exact|)."""
    if math.isinf(value):
        return math.inf
    with mpmath.workdps(DIGITS):
        return float(abs(mpmath.mpf(value) - exact) / max(1, abs(exact)))
