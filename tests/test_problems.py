import numpy as np
import pytest

from mirrorflow._oracle import _block_projector
from mirrorflow.errors import NumericError, ParameterError
from mirrorflow.problems import (
    PROBLEMS,
    build_consensus_quadratic,
    build_dbp_col,
    build_dbp_row,
    build_dis_logistic,
    build_dist_qp,
    build_logistic_centralized,
    build_nbp,
    build_scalar,
    reference_solution,
)


def test_logistic_centralized_data():
    p = build_logistic_centralized()
    assert np.array_equal(p.a, [[0.2, 1.0, 1.0, 2.0], [0.0, 1.0, 0.5, 1.0]])
    assert np.array_equal(p.b, [1.0, 1.0])
    x = np.array([1.0, 0.0, 0.0, 0.0])
    assert abs(p.f_exact(x) - np.log(1 + np.exp(-1))) <= 1e-12


def test_dis_logistic_structure():
    p = build_dis_logistic()
    assert p.n_agents == 4 and p.block_dim == 4
    # agent 2 gradient at the origin is -(1, 1, 2, 3)/2
    g = p.objectives[1].grad(np.zeros(4))
    assert np.allclose(g, -0.5 * np.array([1.0, 1.0, 2.0, 3.0]))
    # a common point exists in all four local sets
    ref = reference_solution(p, tol=1e-8)
    xb = p.blocks(ref.x_star)[0]
    for m in p.mirrors:
        assert m.set_violation(xb) <= 1e-7


def test_dist_qp_structure():
    p = build_dist_qp(seed=3)
    assert p.n_agents == 10 and p.m == 5
    # gradient of x.Qx is 2Qx for symmetric Q
    q = np.asarray(p.objectives[0].grad(np.ones(5)))
    # recover Q from the builder determinism
    p2 = build_dist_qp(seed=3)
    q2 = np.asarray(p2.objectives[0].grad(np.ones(5)))
    assert np.array_equal(q, q2)
    # projected init lands inside every agent box
    for k, mir in enumerate(p.mirrors):
        x = mir.grad_conjugate(np.zeros(5))
        assert np.all(x >= k + 2 - 1e-12) and np.all(x <= k + 3 + 1e-12)
    # feasibility of the coupled constraint: box sums bracket the supply
    lo = sum(k + 2.0 for k in range(10))
    hi = sum(k + 3.0 for k in range(10))
    assert lo <= 70.0 <= hi


def test_nbp_construction():
    p = build_nbp(seed=1)
    assert p.a.shape == (10, 40)
    assert np.max(np.abs(p.a @ p.a.T - np.eye(10))) <= 1e-10
    ref = reference_solution(p, tol=1e-8)
    # b was defined as A x0, so the planted point is feasible and optimal
    assert np.max(np.abs(p.a @ ref.x_star - p.b)) <= 1e-9
    assert abs(p.f_exact(ref.x_star) - ref.f_star) <= 1e-12
    assert np.all(ref.x_star >= 0)
    assert np.count_nonzero(ref.x_star) == 2


def test_dbp_row_agent_maps_satisfy_their_systems():
    p = build_dbp_row(seed=1)
    assert p.n_agents == 5 and p.block_dim == 60
    rng = np.random.default_rng(0)
    for mir in p.mirrors:
        proj = mir.projector
        x = mir.grad_conjugate(rng.normal(size=60))
        assert np.max(np.abs(proj.a @ x - proj.b)) <= 1e-10


def test_dbp_col_dimensions():
    p = build_dbp_col(seed=1)
    assert p.a_bar.shape == (100, 60)
    assert p.d.shape == (100,)
    assert p.multiplier_dim == 100
    ref = reference_solution(p, tol=1e-8)
    assert np.count_nonzero(ref.x_star) == 2


def test_builders_are_pure_functions_of_seed():
    a1 = build_nbp(seed=7)
    a2 = build_nbp(seed=7)
    assert np.array_equal(a1.a, a2.a) and np.array_equal(a1.b, a2.b)
    b1 = build_dbp_row(seed=9)
    b2 = build_dbp_row(seed=9)
    assert np.array_equal(b1.mirrors[0].projector.b, b2.mirrors[0].projector.b)


def test_reference_scalar_kkt_by_hand():
    ref = reference_solution(build_scalar(), tol=1e-8)
    assert abs(ref.x_star[0] - 1.0) <= 1e-7
    assert abs(ref.lam_star[0] + 1.0) <= 1e-7
    assert abs(ref.f_star - 0.5) <= 1e-7


def test_reference_solutions_recheck_feasibility():
    for name in ("logregress", "nbp", "d_bp_c"):
        p = PROBLEMS[name](1)
        ref = reference_solution(p, tol=1e-8)
        assert ref.kkt_residual <= 1e-8


def test_consensus_quadratic_optimum():
    p = build_consensus_quadratic()
    ref = reference_solution(p, tol=1e-9)
    for block in p.blocks(ref.x_star):
        assert np.allclose(block, [0.5, 0.5], atol=1e-7)


def test_mixed_smoothness_rejected():
    p = build_dis_logistic()
    from mirrorflow.problems import ConsensusProblem
    from mirrorflow.smoothing import smoothed_l1_objective

    objs = (smoothed_l1_objective(4),) + p.objectives[1:]
    with pytest.raises(ParameterError):
        ConsensusProblem(objs, p.mirrors, p.graph, 4, p.lifted)


def test_stacked_box_projection_is_bitwise_the_per_agent_projection():
    problem = build_dist_qp(1)
    boxes = [m.projector for m in problem.mirrors]
    lo = np.concatenate([b.lo for b in boxes])
    hi = np.concatenate([b.hi for b in boxes])
    proj = _block_projector(problem)
    rng = np.random.default_rng(7)
    for z in [*rng.uniform(lo, hi, (20, lo.size)),               # inside every box
              *rng.uniform(lo - 3.0, hi + 3.0, (200, lo.size)),  # inside and outside
              rng.normal(0.0, 1e6, lo.size)]:
        want = np.concatenate([b.project(zi) for b, zi in zip(boxes, problem.blocks(z))])
        assert np.array_equal(proj(z), want)
    with pytest.raises(NumericError):  # the stacked path still validates its input
        proj(np.full(lo.size, np.nan))

