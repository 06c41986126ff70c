"""The variance-discount function phi(u) = 2 * int_0^1 u^(2t) / (1+t)^2 dt.

phi is continuous and nondecreasing on [0, 1] with phi(0) = 0 and phi(1) = 1,
and behaves like -1/log(u) near 0; it multiplies each squared gradient norm
in the modified variance bound, which is where the logarithmic gain over the
plain Poincare bound comes from.

With a = -2 log u, substituting s = 1 + t gives the closed form

    phi(u) = 2 * [e^a E_2(a) - u^2 e^(2a) E_2(2a) / 2],

where E_n is the exponential integral (Abramowitz & Stegun ch. 5).  Its
derivative follows the same way from t/(1+t)^2 = 1/(1+t) - 1/(1+t)^2, with
E_1 in place of E_2.
"""

from __future__ import annotations

import math

from scipy.special import expn

# e^x overflows just above x = 709; from here on e^x E_n(x) comes from its
# asymptotic series, whose twelfth term is below 1e-24 of the sum.
_SERIES_FROM = 700.0
_SERIES_TERMS = 12


def _scaled_expn(n: int, x: float) -> float:
    """e^x E_n(x) for x >= 0."""
    if x < _SERIES_FROM:
        return math.exp(x) * float(expn(n, x))
    term = total = 1.0
    for k in range(1, _SERIES_TERMS):
        term *= -(n + k - 1) / x
        total += term
    return total / x


def phi(u: float) -> float:
    """Evaluate phi on [0, 1] from the closed form in E_2."""
    u = float(u)
    if math.isnan(u) or u < 0.0 or u > 1.0:
        raise ValueError("u must lie in [0, 1]")
    if u == 0.0:
        return 0.0
    if u == 1.0:
        return 1.0
    a = -2.0 * math.log(u)
    return 2.0 * _scaled_expn(2, a) - u * u * _scaled_expn(2, 2.0 * a)


def phi_derivative(u: float) -> float:
    """phi'(u) = (4/u) int_0^1 t u^(2t) / (1+t)^2 dt on (0, 1]; phi'(1) = 4 log 2 - 2.

    It grows without bound as u -> 0, so 0 is outside the domain.
    """
    u = float(u)
    if not (0.0 < u <= 1.0):
        raise ValueError("u must lie in (0, 1]")
    if u == 1.0:
        return 4.0 * math.log(2.0) - 2.0
    a = -2.0 * math.log(u)
    return (4.0 * (_scaled_expn(1, a) - u * u * _scaled_expn(1, 2.0 * a)) - 2.0 * phi(u)) / u


def phi_asymptotic(u: float) -> float:
    """Small-u equivalent -1/log(u); endpoints are outside the domain."""
    u = float(u)
    if not (0.0 < u < 1.0):
        raise ValueError("u must lie strictly inside (0, 1)")
    return -1.0 / math.log(u)
