import numpy as np
import pytest

from mirrorflow.dynamics import SystemParams, apdmd_second_order_field, build_field, check_params
from mirrorflow.errors import ParameterError
from mirrorflow.graph import from_edges
from mirrorflow.integrator import IntegratorConfig, integrate
from mirrorflow.mirror_maps import EuclideanMap, NegEntropyMap, ProjectionMap
from mirrorflow.problems import (
    ConstrainedProblem,
    MonotropicProblem,
    SmoothObjective,
    build_dbp_col,
    build_dbp_row,
    build_dis_logistic,
    build_dist_qp,
    build_logistic_centralized,
    build_nbp,
    build_scalar,
    quadratic_objective,
    reference_solution,
)
from mirrorflow.projections import Box


def test_params_validation():
    with pytest.raises(ParameterError):
        SystemParams(alpha=1.5)
    with pytest.raises(ParameterError):
        SystemParams(alpha=2.0, beta=0.0)
    with pytest.raises(ParameterError):
        SystemParams(alpha=2.0, t0=0.0)


def test_apdmd_scalar_rhs_frozen_value():
    # min x^2/2 s.t. x = 1, euclidean map, alpha=2, beta=1, t=2, state 0:
    # hand evaluation of the right-hand side gives (0, 1, 0, -1)
    field = build_field("apdmd", build_scalar(), SystemParams(alpha=2.0, beta=1.0))
    dy = field.rhs(2.0, np.zeros(4))
    assert np.allclose(dy, [0.0, 1.0, 0.0, -1.0])


def test_apdmd_stationary_at_saddle():
    problem = build_scalar()
    field = build_field("apdmd", problem, SystemParams(alpha=2.0, beta=1.0))
    ref = reference_solution(problem, 1e-10)
    y = field.layout.pack(x=ref.x_star, u=ref.x_star, lam=ref.lam_star, v=ref.lam_star)
    assert np.max(np.abs(field.rhs(3.7, y))) <= 1e-8


def test_apdmd_simplex_uniform_fixed_direction():
    problem = build_logistic_centralized()
    field = build_field("apdmd", problem, SystemParams(alpha=2.0))
    y0 = field.initial_state
    s = field.layout.split(y0)
    assert np.allclose(s["x"], 0.25)
    dy = field.layout.split(field.rhs(1.0, y0))
    assert np.max(np.abs(dy["x"])) <= 1e-14  # x0 = grad_conj(u0) already


def test_time_domain_guard():
    field = build_field("apdmd", build_scalar(), SystemParams(alpha=2.0))
    from mirrorflow.errors import DomainError

    with pytest.raises(DomainError):
        field.rhs(0.0, np.zeros(4))


def test_apdpd_matches_euclidean_inside_box():
    obj = SmoothObjective(lambda x: float(0.5 * x @ x), lambda x: x.copy(), 1.0)
    a = np.array([[1.0, 1.0]])
    b = np.array([1.0])
    boxed = ConstrainedProblem(obj, a, b, ProjectionMap(Box(lo=-10 * np.ones(2), hi=10 * np.ones(2))))
    free = ConstrainedProblem(obj, a, b, EuclideanMap(2))
    params = SystemParams(alpha=2.0)
    f1 = build_field("apdpd", boxed, params)
    f2 = build_field("apdmd", free, params)
    y = np.array([0.3, -0.2, 0.5, 0.1, 0.7, -0.4])
    assert np.allclose(f1.rhs(2.0, y), f2.rhs(2.0, y))


def test_apdpd_requires_projection_map():
    with pytest.raises(ParameterError):
        build_field("apdpd", build_scalar(), SystemParams(alpha=2.0))


def test_adpdmd_blockwise_matches_edge_formula():
    problem = build_dis_logistic()
    params = SystemParams(alpha=3.0, beta=1.0)
    field = build_field("adpdmd", problem, params)
    rng = np.random.default_rng(5)
    u = rng.normal(size=16)
    u[4:8] = -np.abs(u[4:8]) - 0.1  # burg-entropy block needs u < 0
    y = field.layout.pack(x=rng.normal(size=16), u=u, lam=rng.normal(size=16), v=rng.normal(size=16))
    t = 2.5
    dy = field.layout.split(field.rhs(t, y))
    s = field.layout.split(y)

    # independent per-agent evaluation with explicit neighbor sums
    adj = problem.graph.adjacency
    xb = s["x"].reshape(4, 4)
    vb = s["v"].reshape(4, 4)
    gb = np.stack([problem.mirrors[i].grad_conjugate(s["u"].reshape(4, 4)[i]) for i in range(4)])
    for i in range(4):
        lap_x = sum(adj[i, j] * (xb[i] - xb[j]) for j in range(4))
        lap_v = sum(adj[i, j] * (vb[i] - vb[j]) for j in range(4))
        du_i = -(t / params.alpha) * (problem.objectives[i].grad(xb[i]) + params.beta * lap_x + lap_v)
        assert np.allclose(dy["u"].reshape(4, 4)[i], du_i, atol=1e-12)
        dv_i = (t / params.alpha) * sum(adj[i, j] * (gb[i] - gb[j]) for j in range(4))
        assert np.allclose(dy["v"].reshape(4, 4)[i], dv_i, atol=1e-12)


def test_adpdmd_laplacian_kernel_directions():
    problem = build_dis_logistic()
    field = build_field("adpdmd", problem, SystemParams(alpha=3.0))
    s = field.layout.split(field.initial_state.copy())
    # equal map outputs across agents make dv vanish
    u = np.tile(np.log(np.full(4, 0.25)), 4)  # not valid for agent 2 domain; use agent-wise
    # instead: pick duals so that every agent maps to the same point
    x_common = np.full(4, 0.25)
    us = [problem.mirrors[i].grad_psi(x_common) for i in range(4)]
    y = field.layout.pack(x=np.tile(x_common, 4), u=np.concatenate(us),
                          lam=np.zeros(16), v=np.zeros(16))
    dy = field.layout.split(field.rhs(1.7, y))
    assert np.max(np.abs(dy["v"])) <= 1e-12
    assert np.max(np.abs(dy["x"])) <= 1e-12


def test_admd_reduces_to_centralized_when_graph_is_trivial():
    # single agent, empty graph: L = 0, so the flow solves min f s.t. A x = d
    rng = np.random.default_rng(2)
    q = np.eye(3)
    obj = quadratic_objective(q)
    a1 = rng.normal(size=(2, 3))
    d1 = rng.normal(size=2)
    mono = MonotropicProblem((obj,), (a1,), (d1,), (EuclideanMap(3),),
                             from_edges(1, []), m=2)
    params = SystemParams(alpha=3.0, beta=1.0)
    field = build_field("admd", mono, params)
    cen = ConstrainedProblem(obj, a1, d1, EuclideanMap(3))
    cfield = build_field("apdmd", cen, SystemParams(alpha=3.0, beta=1.0))

    y = rng.normal(size=field.layout.size)
    dy = field.layout.split(field.rhs(2.0, y))
    s = field.layout.split(y)
    # compare with beta = 0 centralized flow plus the explicit A^T v coupling
    x, u, lam, v = s["x"], s["u"], s["lam"], s["v"]
    assert np.allclose(dy["x"], (3.0 / 2.0) * (u - x) * 0 + (params.alpha / 2.0) * (u - x))
    assert np.allclose(dy["u"], -(2.0 / 3.0) * (obj.grad(x) + a1.T @ v))
    assert np.allclose(dy["v"], (2.0 / 3.0) * (a1 @ u - d1))
    assert np.allclose(dy["z"], 0.0)


def test_admd_cancellation_structure():
    problem = build_dist_qp(seed=1)
    params = SystemParams(alpha=3.0, beta=1.0)
    field = build_field("admd", problem, params)
    rng = np.random.default_rng(4)
    # consensus multipliers and a v-stationary configuration: v-dot = 0
    lam_c = np.tile(rng.normal(size=5), 10)
    u = rng.normal(size=50)
    gx = problem.map_stacked(u)
    z = rng.normal(size=100)
    lap = problem.lifted.matrix
    # choose z so that A gx - d - L lam + L z = 0: solve L z = d + L lam - A gx
    rhs = problem.d + lap @ lam_c - problem.a_bar @ gx
    # rhs may have a consensus component; project it out (it must be zero for solvability)
    z, *_ = np.linalg.lstsq(lap, rhs, rcond=None)
    resid = lap @ z - rhs
    y = field.layout.pack(x=gx, u=u, lam=lam_c, v=lam_c, y=z, z=z)
    dy = field.layout.split(field.rhs(2.0, y))
    assert np.max(np.abs(dy["v"] - resid * (2.0 / 3.0))) <= 1e-8
    assert np.max(np.abs(dy["lam"])) <= 1e-12  # v = lam
    assert np.max(np.abs(dy["y"])) <= 1e-12    # z = y


def test_admd_rejects_beta_not_one():
    with pytest.raises(ParameterError):
        build_field("admd", build_dist_qp(1), SystemParams(alpha=3.0, beta=2.0))


def test_smoothed_field_validation_and_band_behavior():
    problem = build_nbp(seed=1)
    with pytest.raises(ParameterError):
        build_field("sapdmd", problem, SystemParams(alpha=2.0))  # no schedule
    params = SystemParams(alpha=2.0, mu0=0.1)
    field = build_field("sapdmd", problem, params)
    # coordinates outside the band see the exact subgradient sign(x)
    n, m = problem.dim, problem.n_constraints
    y = field.layout.pack(x=np.ones(n), u=np.ones(n), lam=np.zeros(m), v=np.zeros(m))
    s = field.layout.split(y)
    t = 1.0
    dy = field.layout.split(field.rhs(t, y))
    grad_exact = np.sign(s["x"])
    r = problem.a @ s["x"] - problem.b
    du_expect = -(t / params.alpha) * (grad_exact + params.beta * (problem.a.T @ r)
                                       + problem.a.T @ s["v"])
    assert np.allclose(dy["u"], du_expect, atol=1e-12)


def test_sapdmd_matches_independent_formula_on_random_state():
    problem = build_nbp(seed=2)
    params = SystemParams(alpha=2.0, beta=1.0, mu0=0.1)
    field = build_field("sapdmd", problem, params)
    rng = np.random.default_rng(11)
    y = rng.normal(size=field.layout.size) * 0.5
    t = 3.3
    mu_t = params.mu_at(t)
    s = field.layout.split(y)
    from mirrorflow.smoothing import smooth_abs_grad

    gx = np.exp(np.minimum(s["u"] - 1.0, 500.0))
    r = problem.a @ s["x"] - problem.b
    expected = np.concatenate([
        (params.alpha / t) * (gx - s["x"]),
        -(t / params.alpha) * (smooth_abs_grad(s["x"], mu_t) + problem.a.T @ r
                               + problem.a.T @ s["v"]),
        (params.alpha / t) * (s["v"] - s["lam"]),
        (t / params.alpha) * (problem.a @ gx - problem.b),
    ])
    assert np.allclose(field.rhs(t, y), expected, atol=1e-12)


@pytest.mark.parametrize("problem, system", [
    (build_scalar(), "apdmd"),
    (build_logistic_centralized(), "apdmd"),
    (build_nbp(seed=1), "sapdmd"),
])
def test_apdmd_rhs_is_bit_exact_to_formula(problem, system):
    # the in-place rhs keeps the operation order of the blockwise expression,
    # so a run's trajectory does not move by one bit
    params = SystemParams(alpha=3.0, beta=2.5, mu0=0.1 if system == "sapdmd" else None)
    field = build_field(system, problem, params)
    a, b, mirror = problem.a, problem.b, problem.mirror
    rng = np.random.default_rng(13)
    for t in (1.0, 2.7, 40.0):
        y = rng.normal(size=field.layout.size)
        s = field.layout.split(y)
        x, u, lam, v = s["x"], s["u"], s["lam"], s["v"]
        gx = mirror.grad_conjugate(u)
        grad = problem.grad(x, params.mu_at(t)) if params.mu0 else problem.grad(x)
        expected = field.layout.pack(
            x=(params.alpha / t) * (gx - x),
            u=-(t / params.alpha) * (grad + params.beta * (a.T @ (a @ x - b)) + a.T @ v),
            lam=(params.alpha / t) * (v - lam),
            v=(t / params.alpha) * (a @ gx - b))
        assert np.array_equal(field.rhs(t, y), expected)


def _laplacian_blockwise(l_n, w):
    return (l_n @ w.reshape(l_n.shape[0], -1)).ravel()


def _abs_grad_piecewise(x, mu):
    return np.where(np.abs(x) > 0.5 * mu, np.sign(x), 2.0 * x / mu)


def _state_straddling_band(field, n, mu_t, rng):
    # every third primal coordinate inside the surrogate band, the rest outside
    y = rng.normal(size=field.layout.size)
    y[:n:3] *= 0.4 * mu_t
    return y


def test_sadpdmd_row_rhs_is_bit_exact_to_formula():
    # the in-place rhs must give the bits of the plain expressions below, in
    # their operation order, so trajectories stay byte-identical
    problem = build_dbp_row(1)
    params = SystemParams(alpha=3.0, beta=1.0, mu0=10.0)
    field = build_field("sadpdmd", problem, params)
    l_n, n = problem.lifted.l_n, problem.dim
    rng = np.random.default_rng(31)
    for t in (1.0, 2.7, 13.3, 61.0):
        mu_t = params.mu_at(t)
        y = _state_straddling_band(field, n, mu_t, rng)
        x, u, lam, v = y[:n], y[n:2 * n], y[2 * n:3 * n], y[3 * n:]
        # map_stacked is the batched affine projection the field calls itself
        gx = problem.map_stacked(u)
        alpha, beta = params.alpha, params.beta
        expected = np.concatenate([
            (alpha / t) * (gx - x),
            -(t / alpha) * (_abs_grad_piecewise(x, mu_t) + _laplacian_blockwise(l_n, beta * x + v)),
            (alpha / t) * (v - lam),
            (t / alpha) * _laplacian_blockwise(l_n, gx),
        ])
        assert np.array_equal(field.rhs(t, y), expected), t


def test_sadmd_col_rhs_is_bit_exact_to_formula():
    problem = build_dbp_col(54)
    params = SystemParams(alpha=3.0, beta=1.0, mu0=1000.0)
    field = build_field("sadmd", problem, params)
    a_bar, d, l_n = problem.a_bar, problem.d, problem.lifted.l_n
    n, q = problem.dim, problem.multiplier_dim
    rng = np.random.default_rng(32)
    for t in (1.0, 2.7, 13.3, 80.0):
        mu_t = params.mu_at(t)
        y = _state_straddling_band(field, n, mu_t, rng)
        x, u = y[:n], y[n:2 * n]
        lam, v, yv, z = (y[2 * n + i * q:2 * n + (i + 1) * q] for i in range(4))
        gx = u  # Euclidean maps
        alpha = params.alpha
        expected = np.concatenate([
            (alpha / t) * (gx - x),
            -(t / alpha) * (_abs_grad_piecewise(x, mu_t) + a_bar.T @ v),
            (alpha / t) * (v - lam),
            (t / alpha) * (a_bar @ gx - d + _laplacian_blockwise(l_n, z - lam)),
            (alpha / t) * (z - yv),
            -(t / alpha) * _laplacian_blockwise(l_n, v),
        ])
        assert np.array_equal(field.rhs(t, y), expected), t


def test_second_order_form_case_reductions():
    # euclidean: the Hessian factor is the identity
    problem = build_scalar()
    params = SystemParams(alpha=2.0, beta=1.0)
    f2 = apdmd_second_order_field(problem, params)
    y = np.array([0.5, 0.1, 0.2, -0.3])
    s = dict(zip(["x", "dx", "lam", "dlam"], y))
    t = 2.0
    w = s["x"] + (t / 2.0) * s["dx"]
    g = s["x"] + 1.0 * (s["x"] - 1.0) + (s["lam"] + (t / 2.0) * s["dlam"])
    expected = np.array([
        s["dx"],
        -(3.0 / t) * s["dx"] - g,
        s["dlam"],
        -(3.0 / t) * s["dlam"] + w - 1.0,
    ])
    assert np.allclose(f2.rhs(t, y), expected)


def test_second_order_neg_entropy_hessian_term_is_diag_w():
    # the conjugate Hessian at grad_psi(w) equals diag(w) for the entropy map
    n = 3
    obj = SmoothObjective(lambda x: float(0.5 * x @ x), lambda x: x.copy(), 1.0)
    problem = ConstrainedProblem(obj, np.ones((1, 3)), np.array([2.0]), NegEntropyMap(3))
    params = SystemParams(alpha=2.0, beta=1.0)
    f2 = apdmd_second_order_field(problem, params)
    x = np.array([0.5, 1.0, 1.5])
    dx = np.array([0.1, -0.05, 0.2])
    lam = np.array([0.3])
    dlam = np.array([-0.1])
    t = 2.0
    y = np.concatenate([x, dx, lam, dlam])
    w = x + (t / 2.0) * dx
    g = x + problem.a.T @ (problem.a @ x - problem.b).ravel() * 1.0 + problem.a.T @ (lam + (t / 2.0) * dlam)
    expected_ddx = -(3.0 / t) * dx - w * g
    got = f2.rhs(t, y)[3:6]
    assert np.allclose(got, expected_ddx, atol=1e-12)


def test_first_vs_second_order_trajectories_agree():
    # 3-dim problem, euclidean and entropy maps, over [1, 20]
    rng = np.random.default_rng(3)
    a = np.array([[1.0, 1.0, 1.0]])
    b = np.array([2.0])
    c = np.array([0.3, 1.2, 0.7])
    obj = SmoothObjective(
        lambda x: float(0.5 * np.sum((x - c) ** 2)),
        lambda x: x - c,
        1.0,
    )
    cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
    samples = np.linspace(1.0, 20.0, 40)
    for mirror in (EuclideanMap(3), NegEntropyMap(3)):
        problem = ConstrainedProblem(obj, a, b, mirror)
        params = SystemParams(alpha=2.0, beta=1.0)
        f1 = build_field("apdmd", problem, params)
        f2 = apdmd_second_order_field(problem, params)
        t1 = integrate(f1.rhs, f1.initial_state, 1.0, 20.0, cfg, sample_times=samples)
        t2 = integrate(f2.rhs, f2.initial_state, 1.0, 20.0, cfg, sample_times=samples)
        x1 = t1.states[:, :3]
        x2 = t2.states[:, :3]
        lam1 = t1.states[:, 6:7]
        lam2 = t2.states[:, 6:7]
        assert np.max(np.abs(x1 - x2)) <= 10 * 1e-6
        assert np.max(np.abs(lam1 - lam2)) <= 10 * 1e-6


def test_build_field_dispatch_and_validation():
    with pytest.raises(ParameterError):
        build_field("nope", build_scalar(), SystemParams(alpha=2.0))
    with pytest.raises(ParameterError):
        build_field("adpdmd", build_scalar(), SystemParams(alpha=2.0))
    f = build_field("apdmd", build_scalar(), SystemParams(alpha=2.0))
    assert f.kind == "apdmd"


def test_adpdmd_stationary_at_consensus_saddle():
    from mirrorflow.problems import build_consensus_quadratic

    problem = build_consensus_quadratic()
    ref = reference_solution(problem, 1e-10)
    field = build_field("adpdmd", problem, SystemParams(alpha=3.0, beta=1.0))
    y = field.layout.pack(x=ref.x_star, u=ref.x_star,
                          lam=ref.lam_star, v=ref.lam_star)
    assert np.max(np.abs(field.rhs(2.3, y))) <= 1e-7


def test_beta_to_zero_removes_augmented_term():
    problem = build_scalar()
    tiny = build_field("apdmd", problem, SystemParams(alpha=2.0, beta=1e-14))
    y = np.array([0.3, 0.1, -0.2, 0.4])
    t = 2.0
    x, u, lam, v = y
    du_no_aug = -(t / 2.0) * (x + v)
    dy = tiny.rhs(t, y)
    assert abs(dy[1] - du_no_aug) <= 1e-12


def test_trajectory_feasibility_all_systems():
    # every integrated system keeps x(t) in its set at all samples
    from mirrorflow.problems import build_dbp_col, build_dbp_row, build_dis_logistic, build_nbp
    from mirrorflow.dynamics import build_field
    from mirrorflow.diagnostics import evaluate_run
    from mirrorflow.problems import reference_solution as ref_of

    cases = [
        (build_logistic_centralized(), "apdmd", 2.0, None, 10.0),
        (build_dis_logistic(), "adpdmd", 3.0, None, 5.0),
        (build_dist_qp(1), "admd", 3.0, None, 5.0),
        (build_nbp(1), "sapdmd", 2.0, 0.1, 5.0),
        (build_dbp_row(1), "sadpdmd", 3.0, 1.0, 3.0),
        (build_dbp_col(1), "sadmd", 3.0, 1.0, 3.0),
    ]
    for problem, system, alpha, mu0, tf in cases:
        field = build_field(system, problem, SystemParams(alpha=alpha, beta=1.0, mu0=mu0))
        traj = integrate(field.rhs, field.initial_state, 1.0, tf,
                         IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8))
        ref = ref_of(problem, 1e-8)
        rep = evaluate_run(field, traj, ref)
        assert rep.feasibility_max_violation <= 1e-6, (system, rep.feasibility_max_violation)


@pytest.mark.parametrize("system, problem", [
    ("apdmd", build_scalar()), ("adpdmd", build_dis_logistic()), ("admd", build_dist_qp(1)),
])
def test_smooth_system_rejects_mu0(system, problem):
    # a smooth run is the mu = 0 case; a mu0 there would only reach the report
    with pytest.raises(ParameterError, match=f"{system} has a smooth objective; mu0 must be None"):
        build_field(system, problem, SystemParams(alpha=3.0, mu0=0.1))


@pytest.mark.parametrize("system, problem", [
    ("sapdmd", build_nbp(1)), ("sadpdmd", build_dbp_row(1)), ("sadmd", build_dbp_col(1)),
])
def test_smoothed_system_needs_mu0(system, problem):
    with pytest.raises(ParameterError, match=f"{system} needs mu0 in SystemParams"):
        build_field(system, problem, SystemParams(alpha=3.0))


@pytest.mark.parametrize("system, problem", [
    ("apdmd", build_scalar()), ("adpdmd", build_dis_logistic()), ("admd", build_dist_qp(1)),
])
def test_smooth_system_rejects_mu_power(system, problem):
    message = f"{system} has a smooth objective; mu_power must be None"
    with pytest.raises(ParameterError, match=message):
        build_field(system, problem, SystemParams(alpha=3.0, mu_power=4.0))


def test_default_mu_schedule_keeps_its_bits():
    # mu_power None is 2 alpha: the schedule every run had before mu_power
    params = SystemParams(alpha=3.0, mu0=10.0)
    ts = [1.0, 1.5, 2.0, 7.3, 25.0, 70.0, 86.0, 1e3]
    assert np.array_equal([params.mu_at(t) for t in ts], [10.0 * t ** -6.0 for t in ts])
    slower = SystemParams(alpha=3.0, mu0=10.0, mu_power=4.0)
    assert np.array_equal([slower.mu_at(t) for t in ts], [10.0 * t ** -4.0 for t in ts])


@pytest.mark.parametrize("system", ["sapdmd", "sadpdmd", "sadmd"])
@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
def test_mu_power_below_four_alpha_thirds_is_refused(system, alpha):
    bound = 4 * alpha / 3
    check_params(system, SystemParams(alpha=alpha, mu0=1.0, mu_power=bound))
    check_params(system, SystemParams(alpha=alpha, mu0=1.0))  # 2 alpha
    for bad in (np.nextafter(bound, 0), 0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ParameterError, match="needs a finite mu_power >= 4 alpha / 3"):
            check_params(system, SystemParams(alpha=alpha, mu0=1.0, mu_power=bad))


def test_smooth_field_evaluates_before_t0():
    # mu(t) is 0 for a smooth run at any t > 0; only a smoothed run guards t0
    problem = build_scalar()
    field = build_field("apdmd", problem, SystemParams(alpha=2.0, t0=2.0))
    assert np.all(np.isfinite(field.rhs(0.5, field.initial_state)))
    smoothed = build_field("sapdmd", build_nbp(1), SystemParams(alpha=2.0, t0=2.0, mu0=0.1))
    with pytest.raises(ParameterError, match="t = 0.5 < t0 = 2.0"):
        smoothed.rhs(0.5, smoothed.initial_state)
