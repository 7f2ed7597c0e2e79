import numpy as np
import pytest

from oracles import stability_constant

from bqcf.potential import Morse, MorseParams


def central_diff(f, r, h=1e-6):
    return (f(r + h) - f(r - h)) / (2 * h)


def test_well_minimum():
    pot = Morse(MorseParams(2.5, 4.0, 1.0))
    assert pot.phi(1.0) == 0.0
    assert pot.phi_x(1.0) == 0.0


def test_curvature_at_minimum_closed_form():
    p = MorseParams(3.0, 3.0, 1.0)
    pot = Morse(p)
    assert pot.phi_xx(1.0) == pytest.approx(2 * p.D_e * p.alpha**2, rel=1e-14)
    assert pot.phi_xx(1.0) == pytest.approx(54.0, rel=1e-14)


def test_second_derivative_fd_oracle(morse):
    fd = central_diff(lambda r: float(morse.phi_x(r)), 1.0)
    assert float(morse.phi_xx(1.0)) == pytest.approx(fd, rel=1e-6)


def test_derivatives_match_fd_on_grid(morse):
    for r in np.linspace(0.5, 5.0, 19):
        fd1 = central_diff(lambda s: float(morse.phi(s)), r)
        fd2 = central_diff(lambda s: float(morse.phi_x(s)), r)
        assert float(morse.phi_x(r)) == pytest.approx(fd1, rel=1e-5, abs=1e-9)
        assert float(morse.phi_xx(r)) == pytest.approx(fd2, rel=1e-5, abs=1e-9)


def test_rejects_nonpositive_r(morse):
    # a negative r is the even (odd for phi_x) extension; r = 0 is undefined,
    # and a NaN is no zero: it passes the guard and comes out NaN
    for f in (morse.phi, morse.phi_x, morse.phi_xx):
        for r in (0.0, -0.0, np.array([1.0, 0.0]), np.array([np.nan, 0.0])):
            with pytest.raises(ValueError):
                f(r)
        assert np.isnan(f(np.nan)) and np.isnan(f(np.array([1.0, np.nan]))[1])


def test_params_validation():
    with pytest.raises(ValueError):
        MorseParams(D_e=-1.0)
    with pytest.raises(ValueError):
        MorseParams(alpha=0.0)


@pytest.mark.parametrize("field", ["D_e", "alpha", "r_e"])
@pytest.mark.parametrize("bad", [float("inf"), float("nan"), -float("inf")])
def test_params_reject_non_finite(field, bad):
    with pytest.raises(ValueError, match="finite"):
        MorseParams(**{field: bad})


def test_overflowing_curvature_rejected():
    # alpha^2 overflows a float: phi_xx(1) is not finite, a ValueError
    for alpha in (1e200, 1e154):
        with pytest.raises(ValueError, match="phi_xx"):
            Morse(MorseParams(alpha=alpha))


def test_even_odd_extension(morse):
    rng = np.random.default_rng(2)
    r = rng.uniform(0.5, 4.0, size=10)
    np.testing.assert_allclose(morse.phi(-r), morse.phi(r))
    np.testing.assert_allclose(morse.phi_x(-r), -morse.phi_x(r))
    np.testing.assert_allclose(morse.phi_xx(-r), morse.phi_xx(r))
    with pytest.raises(ValueError):
        morse.phi(0.0)


def test_assumptions_hold_for_experiment_parameters():
    for alpha in (3.0, 4.0, 5.0):
        pot = Morse(MorseParams(3.0, alpha, 1.0))  # construction runs the check
        assert pot.phi_xx(1.0) > 0
        assert pot.phi_xx(2.0) <= 0
        assert pot.phi_xx(3.0) <= 0


def test_soft_potential_rejected():
    # wide well: second-neighbor curvature is positive, violating the tail
    with pytest.raises(ValueError):
        Morse(MorseParams(3.0, 0.3, 1.0))


def test_stability_constant_closed_forms(morse):
    assert stability_constant(morse, 1, 1.0) == pytest.approx(54.0, rel=1e-14)
    a2 = stability_constant(morse, 2, 1.0)
    fd = central_diff(lambda r: float(morse.phi_x(r)), 2.0)
    assert a2 == pytest.approx(54.0 + 4 * fd, rel=1e-5)
    assert a2 > 0  # stability assumption for the next-nearest-neighbor chain


def test_stability_constant_decreasing_near_one(morse):
    gammas = np.linspace(1.0, 1.15, 16)
    vals = [stability_constant(morse, 2, g) for g in gammas]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_stability_constant_validation(morse):
    with pytest.raises(ValueError):
        stability_constant(morse, 0, 1.0)
    for gamma in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="gamma"):
            stability_constant(morse, 2, gamma)
