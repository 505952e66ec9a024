import numpy as np
import pytest

from mirrorflow.dynamics import SystemParams
from mirrorflow.errors import ParameterError
from mirrorflow.numerics import SeededRng
from mirrorflow.smoothing import (
    L1Objective,
    smooth_abs,
    smooth_abs_grad,
    smooth_max_zero,
)


def test_max_zero_pointwise_values():
    assert smooth_max_zero(2.0, 1.0) == 2.0
    assert smooth_max_zero(0.0, 1.0) == 0.25
    assert smooth_max_zero(-2.0, 1.0) == 0.0
    # continuity at both band edges
    for s in (1.0, -1.0):
        inner = (s + 1.0) ** 2 / 4.0
        assert abs(inner - max(0.0, s)) <= 1e-12


def test_abs_pointwise_values():
    assert smooth_abs(1.0, 1.0) == 1.0
    assert smooth_abs(0.0, 1.0) == 0.25
    assert abs(smooth_abs(0.5, 1.0) - 0.5) <= 1e-15
    assert abs(smooth_abs(-0.5, 1.0) - 0.5) <= 1e-15


def test_parameter_validation():
    with pytest.raises(ParameterError):
        smooth_max_zero(1.0, 0.0)
    with pytest.raises(ParameterError):
        smooth_abs(1.0, -1.0)


@pytest.mark.parametrize("mu", [1.0, 0.1, 0.01])
def test_sandwich_bounds_on_grid(mu):
    s = np.linspace(-3.0, 3.0, 4001)
    g = smooth_max_zero(s, mu) - np.maximum(s, 0.0)
    t = smooth_abs(s, mu) - np.abs(s)
    assert np.all(g >= -1e-14) and np.all(g <= mu / 4 + 1e-14)
    assert np.all(t >= -1e-14) and np.all(t <= mu / 4 + 1e-14)


def test_mu_monotonicity():
    s = np.linspace(-2.0, 2.0, 801)
    mus = [2.0, 1.0, 0.5, 0.1, 0.01]
    for big, small in zip(mus, mus[1:]):
        assert np.all(smooth_max_zero(s, big) >= smooth_max_zero(s, small) - 1e-14)
        assert np.all(smooth_abs(s, big) >= smooth_abs(s, small) - 1e-14)


def test_gradient_consistency_as_mu_vanishes():
    for s in (0.7, -0.3, 2.0):
        g = smooth_abs_grad(s, 1e-9)
        assert abs(g - np.sign(s)) <= 1e-12
    assert smooth_abs_grad(0.0, 1e-9) == 0.0


def test_abs_grad_bitwise_equals_piecewise_form():
    def piecewise(s, mu):
        return np.where(np.abs(s) > 0.5 * mu, np.sign(s), 2.0 * s / mu)

    rng = SeededRng(17)
    for mu in (1.0, 0.3, 1e-9, 1e3):
        edge = 0.5 * mu
        s = np.concatenate([
            mu * rng.normal(2000),
            [edge, -edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf),
             np.nextafter(-edge, 0.0), np.nextafter(-edge, -np.inf),
             0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308],
        ])
        with np.errstate(over="ignore"):  # 2 s overflows at +-1e308, as intended
            got, want = smooth_abs_grad(s, mu), piecewise(s, mu)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        # same bits, sign of zero included
        assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))
    assert smooth_abs_grad(0.5, 1.0) == 1.0 and smooth_abs_grad(-0.5, 1.0) == -1.0
    assert np.signbit(smooth_abs_grad(-0.0, 1.0)) and not np.signbit(smooth_abs_grad(0.0, 1.0))
    assert smooth_abs_grad(np.inf, 1.0) == 1.0 and smooth_abs_grad(-np.inf, 1.0) == -1.0
    assert np.isnan(smooth_abs_grad(np.nan, 1.0))
    for scalar in (0.25, -3.0, -0.0, np.float64(0.1), np.array(0.2)):
        assert type(smooth_abs_grad(scalar, 1.0)) is float


def test_gradients_match_finite_differences():
    rng = SeededRng(5)
    eps = 1e-7
    for _ in range(300):
        s = float(3.0 * rng.normal())
        mu = float(0.5 + rng.uniform())
        fd_abs = (smooth_abs(s + eps, mu) - smooth_abs(s - eps, mu)) / (2 * eps)
        assert abs(fd_abs - smooth_abs_grad(s, mu)) <= 1e-6


def test_mu_lipschitz_in_mu():
    rng = SeededRng(9)
    for _ in range(2000):
        s = float(3.0 * rng.normal())
        mu1, mu2 = float(rng.uniform() + 1e-3), float(rng.uniform() + 1e-3)
        diff = abs(smooth_abs(s, mu1) - smooth_abs(s, mu2))
        assert diff <= 0.25 * abs(mu1 - mu2) + 1e-14


def test_convexity_midpoint():
    rng = SeededRng(13)
    for _ in range(2000):
        a, b = float(3.0 * rng.normal()), float(3.0 * rng.normal())
        mu = float(rng.uniform() + 1e-2)
        mid = 0.5 * (a + b)
        assert smooth_abs(mid, mu) <= 0.5 * (smooth_abs(a, mu) + smooth_abs(b, mu)) + 1e-12
        assert smooth_max_zero(mid, mu) <= 0.5 * (smooth_max_zero(a, mu) + smooth_max_zero(b, mu)) + 1e-12


def test_smoothed_objective_kappa_bound():
    obj = L1Objective()
    rng = SeededRng(2)
    for _ in range(200):
        x = rng.normal(6)
        mu = float(rng.uniform() + 1e-3)
        assert abs(obj.value(x, mu) - obj.exact(x)) <= x.size / 4 * mu + 1e-12


def test_l1_objective_is_the_summed_surrogate():
    # value and grad give the bits of the entrywise surrogate
    rng = SeededRng(3)
    obj = L1Objective()
    for dim in (1, 6, 60):
        for mu in (1e-6, 0.3, 5.0):
            x = 2.0 * rng.normal(dim)
            x[0] = 0.5 * mu
            assert obj.value(x, mu) == float(np.sum(smooth_abs(x, mu)))
            assert obj.grad(x, mu).tobytes() == smooth_abs_grad(x, mu).tobytes()
            assert obj.exact(x) == float(np.sum(np.abs(x)))
            assert obj.exact(list(x)) == obj.exact(x)  # any array-like x


def test_mu_schedule():
    # mu(t) = mu0 t^(-2 alpha), stated by SystemParams
    params = SystemParams(alpha=2.0, mu0=1.0)
    assert params.mu_at(1.0) == 1.0
    assert params.mu_at(2.0) == 0.0625
    ts = np.linspace(1.0, 30.0, 100)
    vals = [params.mu_at(t) for t in ts]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert SystemParams(alpha=3.0, mu0=1000.0).mu_at(86.0) == 1000.0 * 86.0 ** -6.0
    with pytest.raises(ParameterError, match="t = 0.5 < t0 = 1.0"):
        params.mu_at(0.5)
    with pytest.raises(ParameterError, match="t = 1.5 < t0 = 2.0"):
        SystemParams(alpha=2.0, t0=2.0, mu0=1.0).mu_at(1.5)
    with pytest.raises(ParameterError):
        SystemParams(alpha=1.0, mu0=1.0)


def test_mu_is_zero_without_mu0():
    # a smooth run is the mu = 0 case, at any t > 0, before t0 included
    params = SystemParams(alpha=2.0, t0=2.0)
    assert [params.mu_at(t) for t in (0.5, 2.0, 1e6)] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("mu0", [0.0, -1.0, float("inf"), float("nan")])
def test_mu0_must_be_finite_and_positive(mu0):
    with pytest.raises(ParameterError, match="mu0 must be finite and positive"):
        SystemParams(alpha=2.0, mu0=mu0)
