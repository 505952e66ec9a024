"""The smooth surrogate for |s| and the l1 objective that the smoothed
dynamics minimize; they take mu(t) from ``SystemParams.mu_at``.

The surrogate matches |s| outside a band of width mu and replaces it by a
quadratic inside, so

    0 <= surrogate(s, mu) - |s| <= mu / 4

everywhere, i.e. the approximation constant kappa is 1/4 per term and adds
up under nonnegative combinations (n/4 for the l1 norm in R^n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


def _check_mu(mu: float) -> float:
    if not mu > 0:
        raise ParameterError(f"smoothing parameter must be positive, got {mu}")
    return float(mu)


def smooth_abs(s, mu: float):
    """|s| outside |s| > mu/2, s^2/mu + mu/4 inside."""
    mu = _check_mu(mu)
    s = np.asarray(s, dtype=float)
    inner = s * s / mu + 0.25 * mu
    out = np.where(np.abs(s) > 0.5 * mu, np.abs(s), inner)
    return float(out) if out.ndim == 0 else out


def smooth_abs_grad(s, mu: float):
    """sign(s) outside |s| > mu/2, 2 s / mu inside.

    Computed as 2 s / mu clamped to [-1, 1]. Unless mu / 2 is subnormal,
    this gives the same bits as the piecewise form, at the band edges
    +-mu/2, at +-0.0, +-inf and NaN included.
    """
    mu = _check_mu(mu)
    out = np.asarray(2.0 * np.asarray(s, dtype=float))
    out /= mu
    np.maximum(out, -1.0, out=out)
    np.minimum(out, 1.0, out=out)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class L1Objective:
    """The l1 norm, the one nonsmooth objective, with its surrogate.

    ``value(x, mu)`` and ``grad(x, mu)`` evaluate the surrogate, the sum of
    ``smooth_abs`` over the entries; ``exact(x)`` evaluates the norm itself
    (used for reporting), and 0 <= value(x, mu) - exact(x) <= len(x) / 4 * mu.
    It holds no data: the problem's ``kappa`` is its dimension over 4.
    """

    def exact(self, x) -> float:
        return float(np.sum(np.abs(x)))

    def value(self, x, mu: float) -> float:
        return float(np.sum(smooth_abs(np.asarray(x, dtype=float), mu)))

    def grad(self, x, mu: float) -> np.ndarray:
        return smooth_abs_grad(np.asarray(x, dtype=float), mu)
