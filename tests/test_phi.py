import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from fppvar.phi import phi, phi_asymptotic, phi_derivative

# frozen from mpmath.quad at dps=50
PHI_HALF = 0.62765356117570678
PHI_EXP_MINUS_1 = 0.53105363710650622


def phi_oracle(u: float) -> float:
    """Independent adaptive quadrature (QUADPACK), not the module's Simpson."""
    val, err = quad(lambda t: u ** (2 * t) / (1 + t) ** 2, 0.0, 1.0,
                    epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-10
    return 2.0 * val


def phi_mpmath(u: float) -> float:
    """The E_2 closed form at 40 digits; a = -2 log u."""
    with mpmath.workdps(40):
        a = -2 * mpmath.log(mpmath.mpf(u))
        return float(2 * mpmath.exp(a) * (mpmath.expint(2, a) - mpmath.expint(2, 2 * a) / 2))


def phi_derivative_mpmath(u: float) -> float:
    """(4/u) int_0^1 t u^(2t) / (1+t)^2 dt by mpmath quadrature at 40 digits."""
    with mpmath.workdps(40):
        u = mpmath.mpf(u)
        a = -2 * mpmath.log(u)
        cut = 1 / a if a > 2 else mpmath.mpf(1) / 2  # the integrand's scale
        integral = mpmath.quad(lambda t: t * u ** (2 * t) / (1 + t) ** 2, [0, cut, 1])
        return float(4 * integral / u)


def test_endpoints():
    assert phi(0.0) == 0.0
    assert phi(1.0) == pytest.approx(1.0, abs=1e-10)


def test_golden_half():
    assert phi(0.5) == pytest.approx(PHI_HALF, abs=1e-10)
    assert phi(0.5) == pytest.approx(phi_oracle(0.5), abs=1e-9)


def test_exp_minus_one_asymptotic_anchor():
    assert phi_asymptotic(math.exp(-1.0)) == pytest.approx(1.0, abs=1e-15)
    assert phi(math.exp(-1.0)) == pytest.approx(PHI_EXP_MINUS_1, abs=1e-10)


@pytest.mark.parametrize("u", [0.9, 0.3, 0.05, 1e-2, 1e-4])
def test_against_independent_quadrature(u):
    assert phi(u) == pytest.approx(phi_oracle(u), abs=1e-9)


def test_asymptotic_ratio_band():
    r6 = phi(1e-6) / phi_asymptotic(1e-6)
    r12 = phi(1e-12) / phi_asymptotic(1e-12)
    assert 0.8 <= r6 <= 1.1
    assert abs(r12 - 1.0) < abs(r6 - 1.0)


def test_asymptotic_ratio_monotone():
    ratios = [phi(u) * (-math.log(u)) for u in (1e-3, 1e-6, 1e-9, 1e-12)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert abs(ratios[-1] - 1.0) < 0.05


def test_monotone_and_bounded():
    grid = np.linspace(0.0, 1.0, 1000)
    vals = [phi(float(u)) for u in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert min(vals) >= 0.0
    assert max(vals) <= 1.0 + 1e-12


def test_tiny_u_uses_asymptote():
    u = 1e-305
    assert phi(u) == pytest.approx(phi_mpmath(u), rel=1e-12)


def test_monotone_across_1e_300():
    grid = np.linspace(0.9e-300, 1.1e-300, 201)
    vals = [phi(float(u)) for u in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_closed_form_against_mpmath():
    rng = np.random.default_rng(20060602)
    us = np.concatenate([10.0 ** rng.uniform(-320.0, 0.0, 60), rng.uniform(0.0, 1.0, 30),
                         np.exp(-np.array([349.0, 351.0, 699.0, 701.0]) / 2.0)])
    for u in us[(us > 0.0) & (us < 1.0)]:
        assert abs(phi(float(u)) - phi_mpmath(float(u))) <= 1e-14, u


@pytest.mark.parametrize("u", [1e-300, 1e-122, 1e-20, 1e-4, 0.05, 0.5, 0.9, 1.0 - 1e-9, 1.0])
def test_derivative_against_mpmath(u):
    assert phi_derivative(u) == pytest.approx(phi_derivative_mpmath(u), rel=1e-12)


def test_domain_rejection():
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError):
            phi(bad)
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError):
            phi_asymptotic(bad)
    for bad in (0.0, -0.1, 1.1, math.nan):
        with pytest.raises(ValueError):
            phi_derivative(bad)
