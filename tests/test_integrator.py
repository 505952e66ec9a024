import warnings

import numpy as np
import pytest

from mirrorflow.errors import DomainError, IntegrationError, ParameterError
from mirrorflow.integrator import IntegratorConfig, geometric_grid, integrate
from mirrorflow.mirror_maps import EuclideanMap


def test_exponential_decay():
    traj = integrate(lambda t, y: -y, np.array([1.0]), 0.0, 1.0)
    assert abs(traj.times[-1] - 1.0) <= 1e-14
    assert abs(traj.states[-1, 0] - np.exp(-1.0)) <= 1e-6


def test_polynomial_exact():
    traj = integrate(lambda t, y: np.array([2.0 * t]), np.array([1.0]), 1.0, 2.0)
    assert abs(traj.states[-1, 0] - 4.0) <= 1e-12


def test_harmonic_oscillator_energy_drift():
    def f(t, y):
        return np.array([y[1], -y[0]])

    traj = integrate(f, np.array([1.0, 0.0]), 0.0, 20.0)
    energy = 0.5 * np.sum(traj.states**2, axis=1)
    assert np.max(np.abs(energy - 0.5)) <= 1e-5


def test_tolerance_halving_monotone_convergence():
    errors = []
    rel = 1e-4
    samples = np.array([0.0, 10.0])
    for _ in range(5):
        cfg = IntegratorConfig(rel_tol=rel, abs_tol=1e-14)
        traj = integrate(lambda t, y: -y, np.array([1.0]), 0.0, 10.0, cfg, sample_times=samples)
        errors.append(abs(traj.states[-1, 0] - np.exp(-10.0)))
        rel /= 2.0
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_determinism():
    def f(t, y):
        return np.array([np.sin(t) * y[0], -0.3 * y[1] + y[0]])

    t1 = integrate(f, np.array([1.0, 0.0]), 0.5, 10.0)
    t2 = integrate(f, np.array([1.0, 0.0]), 0.5, 10.0)
    assert np.array_equal(t1.states, t2.states)
    assert t1.steps_accepted == t2.steps_accepted


def test_interpolation_matches_direct_integration():
    def f(t, y):
        return np.array([y[1], -y[0]])

    cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
    samples = np.array([1.0, 2.7, 5.3, 9.9])
    traj = integrate(f, np.array([1.0, 0.0]), 1.0, 9.9, cfg, sample_times=samples)
    for i, ts in enumerate(samples[1:], start=1):
        direct = integrate(f, np.array([1.0, 0.0]), 1.0, ts, cfg, sample_times=np.array([1.0, ts]))
        assert np.max(np.abs(traj.states[i] - direct.states[-1])) <= 10 * 1e-6


def test_geometric_grid():
    grid = geometric_grid(1.0, 100.0, 40)
    assert grid[0] == 1.0 and grid[-1] == 100.0
    assert grid.size == 81
    ratios = grid[1:] / grid[:-1]
    assert np.max(ratios) - np.min(ratios) <= 1e-8
    with pytest.raises(ParameterError):
        geometric_grid(0.0, 10.0)


def test_max_steps_exceeded_gives_partial_trajectory():
    cfg = IntegratorConfig(max_steps=10, rel_tol=1e-12, abs_tol=1e-14)
    with pytest.raises(IntegrationError) as exc:
        integrate(lambda t, y: np.array([np.cos(10 * t)]), np.array([0.0]), 0.0, 50.0, cfg)
    assert exc.value.partial is not None
    assert exc.value.t is not None


def test_domain_error_shrinks_step_then_fails_cleanly():
    # field blows up at t = 1; the solver should stop with a clear error
    def f(t, y):
        if t >= 1.0:
            raise DomainError("outside domain")
        return np.array([1.0 / (1.0 - t)])

    with pytest.raises(IntegrationError):
        integrate(f, np.array([0.0]), 0.0, 2.0)


@pytest.mark.parametrize("bad", ["nan", "inf", "shape", "zero_division", "numeric_error"])
def test_bad_stage_is_rejected_and_retried_with_smaller_step(bad):
    # dy/dt = -y, but a stage whose input strays from exp(-t) (as it does on an
    # overlong step) returns garbage; the step must be rejected and retried
    calls = []

    def f(t, y):
        ok = abs(y[0] - np.exp(-t)) <= 1e-2
        calls.append((t, ok))
        if ok:
            return -y
        if bad == "nan":
            return np.array([np.nan])
        if bad == "inf":
            return np.array([-np.inf])
        if bad == "shape":
            return np.zeros(2)
        if bad == "numeric_error":  # a map's check of a non-finite dual point
            return EuclideanMap(1).grad_conjugate(np.array([np.inf]))
        return np.array([1.0 / (t - t)])  # float division by zero

    cfg = IntegratorConfig(initial_step=1.0)
    traj = integrate(f, np.array([1.0]), 0.0, 2.0, cfg, sample_times=np.array([0.0, 2.0]))
    first_bad = next(i for i, (_, ok) in enumerate(calls) if not ok)
    assert traj.steps_rejected >= 1
    # the next stage after the rejected one starts a shorter step from the same t
    assert calls[first_bad + 1][0] < calls[first_bad][0]
    assert abs(traj.states[-1, 0] - np.exp(-2.0)) <= 1e-6


def test_huge_finite_stage_is_accepted():
    # entries whose squares overflow are still finite and must not be rejected,
    # and the overflow of the finiteness pre-check must not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(lambda t, y: np.full(2, 1e200), np.zeros(2), 0.0, 1.0)
    assert traj.steps_rejected == 0
    assert np.allclose(traj.states[-1], 1e200, rtol=1e-12)


def test_band_crossing_with_shrinking_band_is_survivable():
    # l1-surrogate-like gradient whose quadratic band shrinks over time,
    # so trajectories cross kinks but never settle inside a stiff band
    def f(t, y):
        mu = 0.1 / (1.0 + t) ** 4
        g = np.where(np.abs(y) > mu / 2, np.sign(y), 2 * y / mu)
        return -g - 0.5 * y

    traj = integrate(f, np.array([1.0, -0.7]), 0.0, 3.0)
    assert np.max(np.abs(traj.states[-1])) <= 1e-2
    assert traj.steps_accepted + traj.steps_rejected < 100_000
