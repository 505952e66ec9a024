"""Convergence diagnostics: Lagrangian gaps, Lyapunov energies, rate bounds.

Every flow is certified by one argument. The energy
V(t) = (t^2/alpha^2) core + Bregman terms + ||v - lam*||^2 / 2 is
nonincreasing, where core = f_mu(x) - f_mu(x*) + lam*.rho + penalty
+ 4 kappa mu(t) (a smooth f has f_mu = f and kappa = mu = 0), so
core t^2 <= alpha^2 V(t0). It also proves dV/dt <= -((alpha - 2) t/alpha^2) core,
so ``dissipation`` checks V(t) + int_t0^t ((alpha - 2) s/alpha^2) core ds <= V(t0),
the integral by trapezoid over the samples (Krichene, Bayen and Bartlett,
NeurIPS 2015); at alpha = 2 that is V(t) <= V(t0). It replaced two checks that
the last decade of t add at most 5% to an integral: no theorem states those,
and they failed on correct runs. A per-family descriptor (``_Family``, keyed by the
system's problem class) supplies what differs: the residual rho (Ax - b, L x,
or Abar x - d - L y*) and its penalty, the feasibility measure (bounded by
2 alpha^2 V0/(beta t^2), with beta = 1 on the monotropic flows) and its check's
name, the extra energy term ||z - y*||^2 / 2 of the monotropic flows, and the
window and lower checks. ``evaluate_run`` walks the samples
once. The centralized lower checks follow from the saddle inequality
f - f* >= -lam*.r >= -||lam*|| ||r|| and the feasibility bound
||r|| <= alpha sqrt(2 V0/beta) / t. A bound against an infinite V(t0) (an
optimum on the boundary of a Burg-entropy domain) holds trivially, with a
warning; a NaN or -inf fails, naming the first such t, and so does a +inf
energy after a finite V(t0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dynamics import SYSTEMS, VectorField
from .errors import ParameterError
from .integrator import Trajectory
from .problems import ConsensusProblem, ConstrainedProblem, MonotropicProblem, ReferenceSolution

DEFAULT_SLACK = 1.05
LYAPUNOV_REL_SLACK = 1e-6
LYAPUNOV_ABS_SLACK = 1e-10
GAP_FLOOR = 1e-16


@dataclass
class BoundCheck:
    name: str
    max_ratio: float
    ok: bool
    note: str = ""


@dataclass
class RunReport:
    times: np.ndarray
    primal_gap: np.ndarray
    lagrangian_gap: np.ndarray
    feasibility: np.ndarray
    set_violation: np.ndarray
    lyapunov: np.ndarray
    mu: np.ndarray
    x_norm: np.ndarray
    lambda_norm: np.ndarray
    v0: float
    slope_gap: float
    slope_feasibility: float
    bound_checks: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def feasibility_max_violation(self) -> float:
        return float(np.max(self.set_violation))

    def check(self, name: str) -> BoundCheck:
        for c in self.bound_checks:
            if c.name == name:
                return c
        raise KeyError(name)


def rate_fit(times, values) -> float:
    """Least-squares slope of log(value) against log(t).

    The fit window drops the transient: samples in the first 20% of the
    log-time range are excluded. Nonpositive values are clipped at 1e-16.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < 10:
        raise ParameterError("rate_fit needs at least 10 samples")
    lo, hi = np.log(times[0]), np.log(times[-1])
    mask = np.log(times) >= lo + 0.2 * (hi - lo)
    t = np.log(times[mask])
    v = np.log(np.maximum(values[mask], GAP_FLOOR))
    t_c = t - t.mean()
    return float((t_c @ (v - v.mean())) / (t_c @ t_c))


def _safe_rate_fit(times, values) -> float:
    """rate_fit, or NaN when the trajectory has too few samples to fit."""
    try:
        return rate_fit(times, values)
    except ParameterError:
        return float("nan")


def _invalid(name, times, *series, finite=False) -> BoundCheck | None:
    """A failing check naming the first sample where a series is NaN or -inf (any
    non-finite value with finite=True)."""
    bad = np.any([~np.isfinite(v) if finite else np.isnan(v) | np.isneginf(v) for v in series],
                 axis=0)
    if bad.any():
        return BoundCheck(name, float("nan"), False, ("not finite" if finite else "NaN or -inf")
                          + f" at t = {times[np.argmax(bad)]:.6g}")
    return None


def _ratio_check(name, times, quantity, bound, slack, warnings, note="") -> BoundCheck:
    """max over samples of quantity/bound <= slack."""
    if failed := _invalid(name, times, quantity, bound):
        return failed
    infinite = np.isposinf(bound)
    if infinite.any():
        warnings.append(f"{name}: certificate is infinite, bound holds trivially")
        if infinite.all():
            return BoundCheck(name, 0.0, True, "infinite certificate")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(bound > 0, quantity / np.where(bound > 0, bound, 1.0), np.inf)
        ratios = np.where((quantity <= 0) & (bound <= 0), 0.0, ratios)
    ratio = float(np.max(ratios))
    return BoundCheck(name, ratio, bool(ratio <= slack), note)


def _lyapunov_monotone(times, lyap, warnings) -> BoundCheck:
    if failed := _invalid("lyapunov_monotone", times, lyap):
        return failed
    if np.isposinf(lyap[0]):
        warnings.append("lyapunov_monotone: energy is infinite, check skipped")
        return BoundCheck("lyapunov_monotone", 0.0, True, "infinite energy")
    if failed := _invalid("lyapunov_monotone", times, lyap, finite=True):
        return failed
    allowed = lyap[:-1] * (1.0 + LYAPUNOV_REL_SLACK) + LYAPUNOV_ABS_SLACK
    excess = lyap[1:] - allowed
    worst = float(np.max(excess / np.maximum(lyap[:-1], 1e-30)))
    return BoundCheck("lyapunov_monotone", max(worst, 0.0), bool(np.all(excess <= 0)),
                      "max relative increase")


def _positivity(name, times, values) -> BoundCheck:
    if failed := _invalid(name, times, values):
        return failed
    worst = float(np.min(values))
    return BoundCheck(name, worst, bool(worst >= -1e-8), "min over samples")


def _dissipation(times, lyap, core, alpha, slack, warnings) -> BoundCheck:
    """max over t > t0 of (V(t) + int_t0^t ((alpha-2) s/alpha^2) core(s) ds) / V(t0) <= slack."""
    if failed := _invalid("dissipation", times, lyap, core):
        return failed
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is reported below
        rate = (alpha - 2.0) / alpha**2 * times * core
        dissipated = lyap + np.concatenate([[0.0], np.cumsum(
            0.5 * (rate[1:] + rate[:-1]) * np.diff(times))])
    if np.isfinite(lyap[0]) and (failed := _invalid("dissipation", times, dissipated, finite=True)):
        return failed
    return _ratio_check("dissipation", times[1:], dissipated[1:], np.full(times.size - 1, lyap[0]),
                        slack, warnings, "energy plus dissipated integral over V(t0)")


@dataclass(frozen=True)
class _Family:
    # (problem, ref, beta, smoothed, state, obj_gap) -> (rho, penalty, feasibility,
    # extra energy, window), window = (upper value, unit multiplier lam~) or None
    sample: Callable
    feasibility: str     # name of the feasibility rate check
    squared: bool        # it bounds feasibility**2 (a norm), else feasibility
    # lower checks: from the saddle inequality ("saddle") or from the window's
    # V0 ("window"); None drops them and the objective_window check
    lower: str | None = None
    reference: Callable | None = None  # (problem, ref) -> warnings; may raise


def _central(problem, ref, beta, smoothed, s, gap):
    r = problem.a @ s["x"] - problem.b
    rn = float(np.linalg.norm(r))
    upper = gap + rn if smoothed else gap + rn + 0.5 * beta * rn**2
    return r, 0.5 * beta * (r @ r), rn, 0.0, (upper, r / rn if rn > 0 else np.zeros_like(r))


def _consensus(problem, ref, beta, smoothed, s, gap):
    x = s["x"]
    lx = problem.lifted.matrix @ x
    q = float(x @ lx)
    if smoothed:
        lxn = float(np.linalg.norm(lx))
        window = gap + lxn, (lx / lxn if lxn > 0 else np.zeros_like(lx))
    else:
        window = gap + np.sqrt(max(q, 0.0)), (x / np.sqrt(q) if q > 1e-300 else np.zeros_like(x))
    return lx, 0.5 * beta * q, max(q, 0.0), 0.0, window


def _demo(problem, ref, beta, smoothed, s, gap):
    lap, lam = problem.lifted.matrix, s["lam"]
    p = float(lam @ (lap @ lam))
    return (problem.a_bar @ s["x"] - problem.d - lap @ ref.y_star, 0.5 * p, max(p, 0.0),
            0.5 * float(np.sum((s["z"] - ref.y_star) ** 2)), None)


def _demo_reference(problem, ref) -> list:
    if ref.y_star is None:
        raise ParameterError("monotropic diagnostics need y* from the reference solution")
    # the certificate requires a consensus multiplier
    if float(np.max(np.abs(problem.lifted.matrix @ ref.lam_star))) > 1e-6:
        return ["reference multiplier is not consensual; energy may be loose"]
    return []


_CENTRAL = _Family(_central, "feasibility_rate", True, "saddle")
_CONSENSUS = _Family(_consensus, "consensus_rate", False, "window")
_DEMO = _Family(_demo, "multiplier_consensus_rate", False, reference=_demo_reference)
_FAMILIES = {ConstrainedProblem: _CENTRAL, ConsensusProblem: _CONSENSUS, MonotropicProblem: _DEMO}


def evaluate_run(fieldspec: VectorField, traj: Trajectory, ref: ReferenceSolution,
                 slack: float = DEFAULT_SLACK) -> RunReport:
    kind = fieldspec.kind
    if kind not in SYSTEMS:
        raise ParameterError(f"no diagnostics for system kind {kind!r}")
    spec, problem, params = SYSTEMS[kind], fieldspec.problem, fieldspec.params
    fam, alpha, beta, smoothed = _FAMILIES[spec.problem], params.alpha, params.beta, spec.smoothed
    kappa, times = problem.kappa, traj.times
    mu = np.array([params.mu_at(t) for t in times])
    warnings = list(traj.warnings) + (fam.reference(problem, ref) if fam.reference else [])
    x_star, lam_star, f_star = ref.x_star, ref.lam_star, ref.f_star
    mirrors, blocks = problem.mirrors, problem.blocks
    star_blocks = blocks(x_star)

    obj_gap, lag_gap, feas, setviol, lyap, x_norm, lam_norm, upper, window_bound, window_v0 = \
        np.empty((10, times.size))
    for i, t in enumerate(times):
        s = fieldspec.layout.split(traj.states[i])
        x, u, v = s["x"], s["u"], s["v"]
        obj_gap[i] = problem.f_exact(x) - f_star
        rho, penalty, feas[i], extra, window = fam.sample(problem, ref, beta, smoothed, s,
                                                          obj_gap[i])
        setviol[i] = problem.set_violation(x)
        x_norm[i] = float(np.linalg.norm(x))
        lam_norm[i] = float(np.linalg.norm(s["lam"]))
        gap = problem.f_smooth(x, mu[i]) - problem.f_smooth(x_star, mu[i]) if smoothed \
            else obj_gap[i]
        lag_gap[i] = gap + lam_star @ rho + penalty
        core = lag_gap[i] + 4.0 * kappa * mu[i]
        breg = sum(m.bregman_to_point(xs, ui) for m, ui, xs in zip(mirrors, blocks(u), star_blocks))
        lyap[i] = (t ** 2 / alpha**2) * core + breg + 0.5 * float(np.sum((v - lam_star) ** 2)) \
            + extra
        if i == 0:  # the pieces of V(t0) that do not depend on the multiplier
            f0_gap = gap + 4.0 * kappa * mu[0]
            t0, rho0, penalty0, breg0, v_0 = t, rho, penalty, breg, v
        if window:  # V(t0) with the window's multiplier lam~ in place of lam*
            upper[i], unit = window
            window_v0[i] = (t0**2 / alpha**2) * (f0_gap + unit @ rho0 + penalty0) + breg0 \
                + 0.5 * float(np.sum((v_0 - unit) ** 2))
            window_bound[i] = alpha**2 * window_v0[i] / t ** 2

    v0 = float(lyap[0])
    core = lag_gap + 4.0 * kappa * mu
    # a monotropic flow has beta = 1 (check_params), and 1.0 * t^2 is t^2 exactly
    feas_bound = 2.0 * alpha**2 * v0 / (beta * times**2)
    checks = [
        _ratio_check("lagrangian_gap_rate", times, core, alpha**2 * v0 / times**2, slack, warnings),
        _ratio_check(fam.feasibility, times, feas**2 if fam.squared else feas, feas_bound,
                     slack, warnings),
        _positivity("saddle_positivity", times, core),
    ]
    if fam.lower:
        checks.append(_ratio_check("objective_window", times, upper, window_bound, slack,
                                   warnings, "residual-direction multiplier"))
        if fam.lower == "saddle":
            lam_star_norm = float(np.linalg.norm(lam_star))
            checks.append(_positivity("objective_window_lower", times,
                                      obj_gap + lam_star_norm * feas))
            lower = -lam_star_norm * alpha * np.sqrt(2.0 * v0 / beta) / times
        else:
            lower = -alpha * np.sqrt(np.maximum(2.0 * window_v0, 0.0)) / (times * np.sqrt(beta))
        floor = lower * slack - 1e-10
        checks.append(BoundCheck("objective_lower", float(np.max(floor - obj_gap)),
                                 bool(np.all(obj_gap >= floor)), "signed slack margin"))
    checks += [_lyapunov_monotone(times, lyap, warnings),
               _dissipation(times, lyap, core, alpha, slack, warnings)]
    if any(getattr(m, "clamp_triggered", False) for m in mirrors):
        warnings.append("neg_entropy exponent clamp was triggered during this run")

    return RunReport(
        times=times, primal_gap=np.abs(obj_gap), lagrangian_gap=lag_gap,
        feasibility=feas, set_violation=setviol, lyapunov=lyap, mu=mu, x_norm=x_norm,
        lambda_norm=lam_norm, v0=v0, slope_gap=_safe_rate_fit(times, np.abs(obj_gap)),
        slope_feasibility=_safe_rate_fit(times, feas), bound_checks=checks, warnings=warnings,
    )

