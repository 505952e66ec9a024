"""Adaptive embedded Runge-Kutta 5(4) integrator (Dormand-Prince pair).

Seven stages, fifth order propagating solution with an embedded fourth-order
error estimate and the FSAL property. Step acceptance uses a componentwise
test err_i <= abs_tol + rel_tol * |y_i| combined in the max norm, and the
step controller is a standard PI law. Output at requested sample times comes
from cubic Hermite interpolation on each accepted step (locally fourth-order
accurate), so sampling never perturbs the step sequence and re-running with
identical inputs reproduces the trajectory bit for bit.

Stage evaluations that raise a domain or arithmetic error (division by zero
included) or return non-finite values are treated as an infinitely large
error estimate: the step is rejected and retried with a smaller h. Only if h
underflows ``_MIN_STEP`` does integration abort, naming the failure time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, IntegrationError, NumericError, ParameterError

# Butcher tableau (Dormand & Prince 1980), rows of stage coefficients.
# The nodes are plain floats: they only ever scale the scalar step size.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# b5 - b4: weights of the embedded error estimate
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0
_MIN_STEP = 1e-12  # a step below this aborts the integration


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-6
    abs_tol: float = 1e-8
    initial_step: float | None = None
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ParameterError("tolerances must be finite and positive")
        if self.max_steps < 1:
            raise ParameterError("max_steps must be >= 1")


@dataclass
class Trajectory:
    times: np.ndarray          # strictly increasing sample times
    states: np.ndarray         # len(times) x dim
    steps_accepted: int = 0
    steps_rejected: int = 0
    warnings: list = field(default_factory=list)


def geometric_grid(t0: float, tf: float, points_per_decade: int = 40) -> np.ndarray:
    """Log-uniform grid over [t0, tf] with both endpoints included."""
    if not (tf > t0 > 0):
        raise ParameterError("geometric grid needs tf > t0 > 0")
    decades = np.log10(tf / t0)
    count = max(2, int(np.ceil(decades * points_per_decade)) + 1)
    grid = np.geomspace(t0, tf, count)
    grid[0], grid[-1] = t0, tf
    return grid


def _hermite(theta, h, y0, y1, f0, f1):
    t2 = theta * theta
    t3 = t2 * theta
    h00 = 2 * t3 - 3 * t2 + 1
    h10 = t3 - 2 * t2 + theta
    h01 = -2 * t3 + 3 * t2
    h11 = t3 - t2
    return h00 * y0 + (h10 * h) * f0 + h01 * y1 + (h11 * h) * f1


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of a is finite.

    a.a is a sum of squares: any inf or NaN entry makes it non-finite, so a
    finite a.a settles the question with one BLAS call. Only a non-finite
    a.a (a bad entry, or overflow of entries beyond about 1e154) needs the
    entrywise test.
    """
    return math.isfinite(np.dot(a, a)) or bool(np.isfinite(a).all())


def _initial_step(t0, y0, f0, rel_tol, abs_tol, tf):
    scale = abs_tol + rel_tol * np.abs(y0)
    d0 = np.max(np.abs(y0) / scale)
    d1 = np.max(np.abs(f0) / scale)
    h = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    return min(h, 0.1 * (tf - t0))


# Overflow warnings are off: an overflow to inf, in the field or in
# _all_finite's a.a, only makes a stage non-finite, and such a stage is
# rejected. One errstate per call, as a per-check one costs more than the check.
@np.errstate(over="ignore")
def integrate(f, y0, t0: float, tf: float, config: IntegratorConfig | None = None,
              sample_times=None) -> Trajectory:
    """Integrate dy/dt = f(t, y) from t0 to tf, sampling at sample_times.

    When sample_times is None a geometric grid is used for t0 > 0 and a
    uniform grid otherwise. Raises IntegrationError (carrying the partial
    trajectory) when max_steps is exhausted or the step size underflows.
    """
    config = config or IntegratorConfig()
    y0 = np.asarray(y0, dtype=float)
    if not np.all(np.isfinite(y0)):
        raise NumericError("initial state contains non-finite entries")
    if not -math.inf < t0 < tf < math.inf:
        raise ParameterError(f"need finite t0 < tf, got [{t0}, {tf}]")

    if sample_times is None:
        if t0 > 0:
            sample_times = geometric_grid(t0, tf)
        else:
            sample_times = np.linspace(t0, tf, 201)
    sample_times = np.asarray(sample_times, dtype=float)
    if sample_times.size == 0 or np.any(np.diff(sample_times) <= 0):
        raise ParameterError("sample times must be nonempty and strictly increasing")
    if sample_times[0] < t0 - 1e-12 or sample_times[-1] > tf + 1e-12:
        raise ParameterError("sample times must lie inside [t0, tf]")

    def eval_stage(t, y):
        try:
            k = np.asarray(f(t, y), dtype=float)
        except (DomainError, ArithmeticError):  # NumericError and ZeroDivisionError included
            return None
        if k.shape != y.shape or not _all_finite(k):
            return None
        return k

    k0 = eval_stage(t0, y0)
    if k0 is None:
        raise NumericError(f"vector field is not evaluable at the initial time t = {t0}")

    h = config.initial_step or _initial_step(t0, y0, k0, config.rel_tol, config.abs_tol, tf)
    h = float(np.clip(h, _MIN_STEP, tf - t0))

    out_states = np.empty((sample_times.size, y0.size))
    out_idx = 0
    if abs(sample_times[0] - t0) <= 1e-12 * max(1.0, abs(t0)):
        out_states[0] = y0
        out_idx = 1

    t, y, fk = t0, y0.copy(), k0
    accepted = rejected = 0
    err_prev = 1e-4
    warnings: list[str] = []
    k = np.empty((7, y0.size))
    # per-step work buffers; every product and sum keeps the order of the
    # textbook expressions y + h * (a @ k) and |h * (e @ k)| / scale
    y_stage = np.empty(y0.size)
    err_vec = np.empty(y0.size)
    scale = np.empty(y0.size)

    def fail(msg, at_t):
        partial = Trajectory(sample_times[:out_idx].copy(), out_states[:out_idx].copy(),
                             accepted, rejected, warnings)
        raise IntegrationError(msg, t=at_t, partial=partial)

    while t < tf:
        if accepted + rejected >= config.max_steps:
            fail(f"exceeded max_steps = {config.max_steps} at t = {t:.6g}", t)
        h = min(h, tf - t)

        k[0] = fk
        bad = False
        for i, a_row in enumerate(_A):
            np.dot(a_row, k[: i + 1], out=y_stage)
            y_stage *= h
            y_stage += y
            ki = eval_stage(t + _C[i + 1] * h, y_stage)
            if ki is None:
                bad = True
                break
            k[i + 1] = ki

        if not bad:
            y_new = np.dot(_B5, k)
            y_new *= h
            y_new += y
            np.dot(_E, k, out=err_vec)
            err_vec *= h
            np.abs(err_vec, out=err_vec)
            np.abs(y, out=scale)
            np.maximum(scale, np.abs(y_new), out=scale)
            scale *= config.rel_tol
            scale += config.abs_tol
            err_vec /= scale
            err = float(err_vec.max())
        else:
            err = np.inf

        if err <= 1.0 and _all_finite(y_new):
            t_new = t + h
            f_new = k[6]  # FSAL: last stage is f(t_new, y_new)
            # emit interpolated samples covered by this step
            while out_idx < sample_times.size and sample_times[out_idx] <= t_new + 1e-14 * max(1.0, t_new):
                ts = min(sample_times[out_idx], t_new)
                theta = (ts - t) / h
                out_states[out_idx] = _hermite(theta, h, y, y_new, k[0], f_new)
                out_idx += 1
            accepted += 1
            err = max(err, 1e-10)
            factor = _SAFETY * err ** (-_PI_ALPHA) * err_prev**_PI_BETA
            h *= min(max(factor, _MIN_FACTOR), _MAX_FACTOR)
            err_prev = err
            t, y, fk = t_new, y_new, f_new
        else:
            rejected += 1
            shrink = 0.25 if not np.isfinite(err) else max(0.1, min(0.9, _SAFETY * err ** (-0.2)))
            h *= shrink
            if h < _MIN_STEP:
                fail(f"step size underflow (h = {h:.3e}) at t = {t:.6g}; "
                     "the field may be non-finite or outside its domain here", t)

    if out_idx < sample_times.size:
        # floating point left the last sample marginally past tf
        out_states[out_idx:] = y
        out_idx = sample_times.size
    return Trajectory(sample_times.copy(), out_states, accepted, rejected, warnings)
