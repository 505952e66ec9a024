import warnings

import numpy as np
import pytest

from mirrorflow.diagnostics import (
    _dissipation,
    _lyapunov_monotone,
    _positivity,
    _ratio_check,
    evaluate_run,
    lagrangian_gap,
    rate_fit,
)
from mirrorflow.dynamics import SystemParams, apdmd_second_order_field, build_field
from mirrorflow.errors import ParameterError
from mirrorflow.integrator import IntegratorConfig, integrate
from mirrorflow.problems import (
    build_consensus_quadratic,
    build_dbp_col,
    build_dbp_row,
    build_dist_qp,
    build_logistic_centralized,
    build_nbp,
    build_scalar,
    problem_from_spec,
    reference_solution,
)


# Per-sample energies written out from the formulas, independently of the
# evaluator: the oracle that test_standalone_lyapunov_functions_match_report
# checks the report's V(t) against.

def lyapunov_apdmd(t: float, state: dict, mirror, problem, ref, params) -> float:
    """Energy of the centralized flow at one state.

    (t^2/a^2) * gap + D(u against the dual point of x*) + ||v - lam*||^2 / 2,
    where gap is the augmented-Lagrangian gap, with the surrogate value and
    the 4 kappa mu(t) term replacing the exact objective for smoothed runs.
    The dual Bregman term is evaluated through its primal-side limit, which
    stays finite for boundary optima of the entropy maps.
    """
    x, u, v = state["x"], state["u"], state["v"]
    r = problem.a @ x - problem.b
    if problem.is_smoothed:
        mu = params.mu_at(t)
        core = problem.objective.value(x, mu) - problem.objective.value(ref.x_star, mu) \
            + ref.lam_star @ r + 0.5 * params.beta * (r @ r) \
            + 4.0 * problem.kappa * mu
    else:
        core = lagrangian_gap(problem, x, ref, params.beta)
    return float((t**2 / params.alpha**2) * core
                 + mirror.bregman_to_point(ref.x_star, u)
                 + 0.5 * np.sum((v - ref.lam_star) ** 2))


def lyapunov_adpdmd(t: float, state: dict, problem, ref, params) -> float:
    """Energy of the consensus flow; blockwise Bregman terms per agent."""
    x, u, v = state["x"], state["u"], state["v"]
    lap = problem.lifted.matrix
    lx = lap @ x
    q = float(x @ lx)
    if problem.is_smoothed:
        mu = params.mu_at(t)
        core = problem.f_smooth(x, mu) - problem.f_smooth(ref.x_star, mu) \
            + ref.lam_star @ lx + 0.5 * params.beta * q + 4.0 * problem.kappa * mu
    else:
        core = problem.f_exact(x) - ref.f_star + ref.lam_star @ lx + 0.5 * params.beta * q
    breg = sum(m.bregman_to_point(xs, ui) for m, ui, xs in
               zip(problem.mirrors, problem.blocks(u), problem.blocks(ref.x_star)))
    return float((t**2 / params.alpha**2) * core + breg
                 + 0.5 * np.sum((v - ref.lam_star) ** 2))


def lyapunov_admd(t: float, state: dict, problem, ref, params) -> float:
    """Energy of the monotropic flow, including the auxiliary-block term."""
    x, u, v, z = state["x"], state["u"], state["v"], state["z"]
    lam = state["lam"]
    lap = problem.lifted.matrix
    p = float(lam @ (lap @ lam))
    resid_star = problem.a_bar @ x - problem.d - lap @ ref.y_star
    if problem.is_smoothed:
        mu = params.mu_at(t)
        core = problem.f_smooth(x, mu) - problem.f_smooth(ref.x_star, mu) \
            + ref.lam_star @ resid_star + 0.5 * p + 4.0 * problem.kappa * mu
    else:
        core = problem.f_exact(x) - ref.f_star + ref.lam_star @ resid_star + 0.5 * p
    breg = sum(m.bregman_to_point(xs, ui) for m, ui, xs in
               zip(problem.mirrors, problem.blocks(u), problem.blocks(ref.x_star)))
    return float((t**2 / params.alpha**2) * core + breg
                 + 0.5 * np.sum((v - ref.lam_star) ** 2)
                 + 0.5 * np.sum((z - ref.y_star) ** 2))


def scalar_run(alpha=2.0, tf=100.0):
    problem = build_scalar()
    ref = reference_solution(problem, 1e-10)
    field = build_field("apdmd", problem, SystemParams(alpha=alpha, beta=1.0))
    traj = integrate(field.rhs, field.initial_state, 1.0, tf)
    return problem, ref, field, traj


def test_rate_fit_exact_power_law():
    t = np.geomspace(1.0, 100.0, 200)
    assert abs(rate_fit(t, 3.7 / t**2) + 2.0) <= 1e-9
    assert abs(rate_fit(t, np.full_like(t, 2.5))) <= 1e-12


def test_rate_fit_requires_samples():
    with pytest.raises(ParameterError):
        rate_fit(np.array([1.0, 2.0]), np.array([1.0, 0.5]))


def test_lagrangian_gap_identities():
    problem = build_scalar()
    ref = reference_solution(problem, 1e-10)
    # at x = x* every term collapses
    assert abs(lagrangian_gap(problem, ref.x_star, ref, beta=1.0)) <= 1e-9
    # beta = 0 reduces to f(x) - f* + lam*.(Ax - b)
    x = np.array([0.3])
    expected = 0.5 * 0.3**2 - 0.5 + ref.lam_star[0] * (0.3 - 1.0)
    assert abs(lagrangian_gap(problem, x, ref, beta=0.0) - expected) <= 1e-9


def test_lagrangian_gap_matches_inline_formula_mid_trajectory():
    problem = build_logistic_centralized()
    ref = reference_solution(problem, 1e-9)
    field = build_field("apdmd", problem, SystemParams(alpha=2.0, beta=1.0))
    traj = integrate(field.rhs, field.initial_state, 1.0, 10.0)
    rep = evaluate_run(field, traj, ref)
    i = len(traj.times) // 2
    x = field.layout.split(traj.states[i])["x"]
    r = problem.a @ x - problem.b
    direct = problem.f_exact(x) - ref.f_star + ref.lam_star @ r + 0.5 * float(r @ r)
    assert abs(rep.lagrangian_gap[i] - direct) <= 1e-12


def test_scalar_run_hand_certificate_and_bounds():
    problem, ref, field, traj = scalar_run()
    rep = evaluate_run(field, traj, ref)
    # V(t0) computed by hand: 1/4 * 1.0 + 0.5 + 0.5
    assert abs(rep.v0 - 1.25) <= 1e-6
    assert rep.check("lagrangian_gap_rate").ok
    assert rep.check("feasibility_rate").ok
    assert rep.check("lyapunov_monotone").ok
    assert rep.check("objective_window").ok
    assert rep.check("objective_lower").ok
    assert rep.check("saddle_positivity").ok
    assert rate_fit(traj.times, rep.lagrangian_gap) <= -1.8


def test_lyapunov_vanishes_at_optimum():
    problem, ref, field, _ = scalar_run(tf=5.0)
    y = field.layout.pack(x=ref.x_star, u=ref.x_star, lam=ref.lam_star, v=ref.lam_star)
    from mirrorflow.integrator import Trajectory

    traj = Trajectory(times=np.geomspace(1.0, 5.0, 30), states=np.tile(y, (30, 1)))
    rep = evaluate_run(field, traj, ref)
    assert np.max(np.abs(rep.lyapunov)) <= 1e-8


def test_euclidean_lyapunov_dual_term_is_half_square_distance():
    problem, ref, field, traj = scalar_run(tf=5.0)
    rep = evaluate_run(field, traj, ref)
    i = 10
    s = field.layout.split(traj.states[i])
    t = traj.times[i]
    expected = (t**2 / 4.0) * rep.lagrangian_gap[i] \
        + 0.5 * float(np.sum((s["u"] - ref.x_star) ** 2)) \
        + 0.5 * float(np.sum((s["v"] - ref.lam_star) ** 2))
    assert abs(rep.lyapunov[i] - expected) <= 1e-12


def test_tampered_slack_fails_the_tight_consensus_check():
    # heavy edge weight plus a displaced start makes the consensus bound
    # genuinely tight, so halving the slack must flip the check to failing
    problem = build_consensus_quadratic(edge_weight=10.0)
    ref = reference_solution(problem, 1e-9)
    field = build_field("adpdmd", problem, SystemParams(alpha=2.0, beta=1.0))
    d = np.array([3.0, 0.0, -3.0, 0.0])
    y0 = field.layout.pack(x=ref.x_star + d, u=ref.x_star + d,
                           lam=np.zeros(4), v=np.zeros(4))
    traj = integrate(field.rhs, y0, 1.0, 10.0)
    rep = evaluate_run(field, traj, ref)
    assert rep.check("consensus_rate").ok
    assert rep.check("consensus_rate").max_ratio > 0.5
    tampered = evaluate_run(field, traj, ref, slack=0.5)
    assert not tampered.check("consensus_rate").ok
    # only the slack moved: the certificate and the ratio are the honest report's
    assert tampered.v0 == rep.v0
    assert tampered.check("consensus_rate").max_ratio == rep.check("consensus_rate").max_ratio


def test_infinite_certificate_reported_with_warning():
    # V(t0) is +inf when the optimum sits on a Burg-entropy boundary
    times, gap = np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 0.5, 0.3, 0.2])
    warnings = []
    check = _ratio_check("lagrangian_gap_rate", times, gap, np.full(4, np.inf), 1.05, warnings)
    assert (check.max_ratio, check.ok, check.note) == (0.0, True, "infinite certificate")
    assert warnings == ["lagrangian_gap_rate: certificate is infinite, bound holds trivially"]
    # an infinite sample among finite ones is skipped; the finite ones still bind
    warnings = []
    check = _ratio_check("lagrangian_gap_rate", times, gap, np.array([np.inf, 1.0, 0.2, 0.1]),
                         1.05, warnings)
    assert (check.max_ratio, check.ok) == (2.0, False)
    assert len(warnings) == 1
    # an infinite V(t0) skips the monotone check and makes the dissipation bound trivial
    warnings, lyap = [], np.array([np.inf, 1.0, 0.5, 0.25])
    assert _lyapunov_monotone(times, lyap, warnings).ok
    assert _dissipation(times, lyap, gap, 3.0, 1.05, warnings).ok
    assert warnings == ["lyapunov_monotone: energy is infinite, check skipped",
                        "dissipation: certificate is infinite, bound holds trivially"]


# (problem, system, alpha, beta, mu0, t_f, integrator rel_tol, abs_tol) for every
# first-order system; apdpd needs a projection map, hence the inline box problem
_BOX_SPEC = {"a": [[1.0, 1.0]], "b": [2.0],
             "objective": {"kind": "quadratic", "q": [[0.5, 0.0], [0.0, 0.5]]},
             "set": {"kind": "box", "lo": [-5.0, -5.0], "hi": [5.0, 5.0]}}
_ORACLE_RUNS = [
    (build_logistic_centralized, "apdmd", 2.0, 1.0, None, 5.0, 1e-6, 1e-8),
    (lambda: problem_from_spec(_BOX_SPEC), "apdpd", 3.0, 1.0, None, 5.0, 1e-6, 1e-8),
    (lambda: build_nbp(1), "sapdmd", 2.0, 1.0, 0.1, 5.0, 1e-6, 1e-8),
    (build_consensus_quadratic, "adpdmd", 3.0, 1.0, None, 5.0, 1e-6, 1e-8),
    (lambda: build_dbp_row(1), "sadpdmd", 3.0, 1.0, 10.0, 3.0, 1e-4, 1e-6),
    (lambda: build_dist_qp(1), "admd", 3.0, 1.0, None, 3.0, 1e-6, 1e-8),
    (lambda: build_dbp_col(54), "sadmd", 3.0, 1.0, 1000.0, 3.0, 1e-4, 1e-6),
]


def test_standalone_lyapunov_functions_match_report():
    for build, system, alpha, beta, mu0, tf, rel, abs_tol in _ORACLE_RUNS:
        problem = build()
        ref = reference_solution(problem, 1e-8)
        params = SystemParams(alpha=alpha, beta=beta, mu0=mu0)
        field = build_field(system, problem, params)
        traj = integrate(field.rhs, field.initial_state, 1.0, tf,
                         IntegratorConfig(rel_tol=rel, abs_tol=abs_tol))
        rep = evaluate_run(field, traj, ref)
        assert rep.check("dissipation").ok, system
        for i in (0, len(traj.times) // 2, -1):
            s = field.layout.split(traj.states[i])
            t = traj.times[i]
            if system in ("apdmd", "apdpd", "sapdmd"):
                val, tol = lyapunov_apdmd(t, s, problem.mirror, problem, ref, params), 1e-10
            elif system in ("adpdmd", "sadpdmd"):
                val, tol = lyapunov_adpdmd(t, s, problem, ref, params), 1e-10
            else:
                val, tol = lyapunov_admd(t, s, problem, ref, params), 1e-8
            assert abs(val - rep.lyapunov[i]) <= tol * max(1.0, abs(val)), (system, i)


def test_dissipation_adds_the_trapezoid_integral_by_hand():
    times, lyap, core = np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 0.5, 0.25, 0.1]), np.ones(4)
    # alpha 4: the integrand is t/8, so the running integral is 0.1875, 0.5, 0.9375
    check = _dissipation(times, lyap, core, 4.0, 1.05, [])
    assert abs(check.max_ratio - 1.0375) <= 1e-15 and check.ok
    assert not _dissipation(times, lyap, core, 4.0, 1.0, []).ok
    # alpha 2: V(t) <= V(t0), and t0 itself is not a sample of the maximum
    assert _dissipation(times, lyap, core, 2.0, 1.05, []).max_ratio == 0.5


def flipped_du_run(problem, system, alpha, tf):
    """A run of the field with the sign of its du block flipped: a faulty flow."""
    ref = reference_solution(problem, 1e-8)
    field = build_field(system, problem, SystemParams(alpha=alpha))

    def rhs(t, y):
        dy = field.rhs(t, y).copy()
        field.layout.split(dy)["u"] *= -1.0
        return dy

    return evaluate_run(field, integrate(rhs, field.initial_state, 1.0, tf), ref)


def test_dissipation_catches_a_flipped_field_the_rate_check_misses():
    rep = flipped_du_run(build_dist_qp(1), "admd", 3.0, 10.0)
    assert rep.check("lagrangian_gap_rate").ok
    assert not rep.check("dissipation").ok
    assert rep.check("dissipation").max_ratio > 2.0


def test_energy_that_diverges_from_a_finite_start_fails_without_numpy_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = flipped_du_run(build_logistic_centralized(), "apdmd", 3.0, 20.0)
    assert np.isfinite(rep.v0) and np.isposinf(rep.lyapunov[-1])
    first_inf = rep.times[np.argmax(np.isposinf(rep.lyapunov))]
    for name in ("lyapunov_monotone", "dissipation"):
        check = rep.check(name)
        assert not check.ok and check.note.endswith(f"at t = {first_inf:.6g}")


def test_second_order_field_has_no_diagnostics():
    problem = build_scalar()
    ref = reference_solution(problem, 1e-10)
    field = apdmd_second_order_field(problem, SystemParams(alpha=2.0))
    traj = integrate(field.rhs, field.initial_state, 1.0, 2.0)
    with pytest.raises(ParameterError, match="no diagnostics for system kind 'apdmd2'"):
        evaluate_run(field, traj, ref)


def test_centralized_lower_checks_hold_when_multiplier_norm_exceeds_one():
    # on nbp ||lam*|| = 3.27; the lower checks follow from the saddle
    # inequality f - f* >= -||lam*|| ||Ax - b||, so they must hold wherever
    # the saddle quantity is nonnegative
    problem = build_nbp(1)
    ref = reference_solution(problem, 1e-8)
    assert np.linalg.norm(ref.lam_star) > 3.0
    field = build_field("sapdmd", problem,
                        SystemParams(alpha=2.0, beta=10.0, mu0=0.1))
    traj = integrate(field.rhs, field.initial_state, 1.0, 20.0)
    rep = evaluate_run(field, traj, ref)
    assert rep.check("saddle_positivity").ok
    assert rep.check("objective_window_lower").ok
    assert rep.check("objective_lower").ok


def test_clamp_flag_of_an_earlier_run_does_not_warn():
    problem = build_nbp(1)
    ref = reference_solution(problem, 1e-8)
    problem.mirror.clamp_triggered = True  # as an earlier run on this problem left it
    field = build_field("sapdmd", problem,
                        SystemParams(alpha=2.0, beta=10.0, mu0=0.1))
    rep = evaluate_run(field, integrate(field.rhs, field.initial_state, 1.0, 5.0), ref)
    assert not problem.mirror.clamp_triggered
    assert not any("clamp" in w for w in rep.warnings)


_TIMES = np.array([1.0, 2.0, 3.0, 4.0])
_ONE_NAN = np.array([1.0, 0.5, np.nan, 0.25])
_NAN_AT_3 = "NaN or -inf at t = 3"
_NOT_FINITE_AT = "not finite at t = "


@pytest.mark.parametrize("check, note", [
    (lambda s: _ratio_check("r", _TIMES, s, np.ones(4), 1.05, []), _NAN_AT_3),
    (lambda s: _ratio_check("r", _TIMES, np.zeros(4), s, 1.05, []), _NAN_AT_3),
    (lambda s: _ratio_check("r", _TIMES, np.zeros(4), np.full(4, np.nan), 1.05, []),
     "NaN or -inf at t = 1"),
    (lambda s: _ratio_check("r", _TIMES, np.zeros(4), np.where(np.isnan(s), -np.inf, 1.0),
                            1.05, []), _NAN_AT_3),
    (lambda s: _lyapunov_monotone(_TIMES, s, []), _NAN_AT_3),
    (lambda s: _lyapunov_monotone(_TIMES, np.array([np.inf, 1.0, 0.5, 0.25]), []), None),
    (lambda s: _lyapunov_monotone(_TIMES, np.where(np.isnan(s), np.inf, s), []),
     _NOT_FINITE_AT + "3"),
    (lambda s: _positivity("p", _TIMES, s), _NAN_AT_3),
    (lambda s: _positivity("p", _TIMES, np.full(4, np.nan)), "NaN or -inf at t = 1"),
    (lambda s: _dissipation(_TIMES, np.ones(4), s, 3.0, 1.05, []), _NAN_AT_3),
    (lambda s: _dissipation(_TIMES, s, np.ones(4), 3.0, 1.05, []), _NAN_AT_3),
    (lambda s: _dissipation(_TIMES, np.where(np.isnan(s), np.inf, s), np.ones(4), 3.0, 1.05, []),
     _NOT_FINITE_AT + "3"),
    # every rate sample is finite; the trapezoid over [2, 10] overflows
    (lambda s: _dissipation(np.array([1.0, 2.0, 10.0, 11.0]), np.ones(4),
                            np.array([1.0, 1e308, 1e308, 1.0]), 3.0, 1.05, []),
     _NOT_FINITE_AT + "10"),
], ids=["ratio-quantity", "ratio-bound", "ratio-all-nan-bound", "ratio-neg-inf-bound",
        "lyapunov", "lyapunov-pos-inf-passes", "lyapunov-late-pos-inf",
        "positivity", "positivity-all-nan", "dissipation-nan-core", "dissipation-nan-lyap",
        "dissipation-pos-inf", "dissipation-overflow"])
def test_checks_fail_on_nan_and_name_the_first_bad_sample(check, note):
    result = check(_ONE_NAN.copy())
    if note is None:  # +inf at t0 is the infinite certificate: it passes trivially
        assert result.ok
        return
    assert not result.ok
    assert result.note == note
