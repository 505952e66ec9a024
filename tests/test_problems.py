import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorflow import _oracle
from mirrorflow._oracle import _block_projector, _l1_residual, _min_l1
from mirrorflow.errors import NumericError, OracleError, ParameterError
from mirrorflow.graph import ring
from mirrorflow.mirror_maps import (
    EuclideanMap,
    NegEntropyMap,
    ProjectionMap,
    SimplexEntropyMap,
)
from mirrorflow.numerics import SeededRng
from mirrorflow.problems import (
    PROBLEMS,
    ConsensusProblem,
    ConstrainedProblem,
    MonotropicProblem,
    SmoothObjective,
    build_consensus_quadratic,
    build_dbp_col,
    build_dbp_row,
    build_dis_logistic,
    build_dist_qp,
    build_logistic_centralized,
    build_nbp,
    build_scalar,
    problem_from_spec,
    reference_solution,
)
from mirrorflow.projections import AffineSet, Box, HalfSpace, Sphere
from mirrorflow.smoothing import L1Objective


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


def _consensus_stationarity(problem, x_bar, lam):
    """Worst violation over the agents of 0 in d||x_bar||_1 + (L lam)_i + A_i^T w_i.

    w_i is fitted by least squares on the support rows; returns the support
    residual |g_S - sign x_S| and the off-support excess |g| - 1 of
    g = -(L lam)_i - A_i^T w_i.
    """
    on = x_bar != 0
    support, excess = 0.0, -np.inf
    for mirror, l_lam in zip(problem.mirrors, problem.blocks(problem.lifted.matrix @ lam)):
        a_i = mirror.projector.a
        w, *_ = np.linalg.lstsq(a_i[:, on].T, -l_lam[on] - np.sign(x_bar[on]), rcond=None)
        g = -l_lam - a_i.T @ w
        support = max(support, float(np.max(np.abs(g[on] - np.sign(x_bar[on])))))
        excess = max(excess, float(np.max(np.abs(g[~on]))) - 1.0)
    return support, excess


def _l1_subgradient_excess(g, x):
    on = x != 0
    return max(float(np.max(np.abs(g))) - 1.0, float(np.max(np.abs(g[on] - np.sign(x[on])))))


def test_reference_solutions_recheck_feasibility():
    for name, seed in (("logregress", 1), ("nbp", 1), ("nbp", 54), ("d_bp_c", 1), ("d_bp_c", 54),
                       ("d_bp_r", 1), ("d_bp_r", 2), ("d_bp_r", 3), ("d_bp_r", 54)):
        _recheck_reference(name, seed)


def _recheck_reference(name, seed):
    p = PROBLEMS[name](seed)
    ref = reference_solution(p, tol=1e-8)
    assert ref.kkt_residual <= 1e-8
    x, lam = ref.x_star, ref.lam_star
    if isinstance(p, ConstrainedProblem):
        assert np.max(np.abs(p.a @ x - p.b)) <= 1e-8
    if name == "nbp":  # s = 1 + A^T lam >= 0, zero on the support of x >= 0
        s = 1.0 + p.a.T @ lam
        assert np.min(x) >= 0 and np.min(s) >= -1e-8 and np.max(np.abs(s[x > 0])) <= 1e-8
    if name == "d_bp_c":  # lam is one eta per agent, certifying the summed LP
        eta = lam[:p.m]
        assert np.array_equal(lam, np.tile(eta, p.n_agents))
        assert np.max(np.abs(sum(a @ xi for a, xi in zip(p.a_blocks, p.blocks(x)))
                             - sum(p.d_blocks))) <= 1e-8
        assert np.max(np.abs(p.a_bar @ x - p.d + p.lifted.matrix @ ref.y_star)) <= 1e-8
        assert _l1_subgradient_excess(-np.hstack(p.a_blocks).T @ eta, x) <= 1e-8
    if name == "d_bp_r":  # every agent holds x_bar and is stationary on its own
        x_bar = p.blocks(x)[0]
        assert np.array_equal(p.blocks(x), np.tile(x_bar, (p.n_agents, 1)))
        for mirror in p.mirrors:
            assert np.max(np.abs(mirror.projector.a @ x_bar - mirror.projector.b)) <= 1e-8
        support, excess = _consensus_stationarity(p, x_bar, lam)
        assert support <= 1e-8 and excess <= 1e-8


def test_non_consensus_shift_of_the_multiplier_fails_the_recheck():
    p = build_dbp_row(1)
    ref = reference_solution(p, tol=1e-8)
    x_bar = p.blocks(ref.x_star)[0]
    delta = np.random.default_rng(5).normal(size=ref.lam_star.size)
    mean = np.tile(p.blocks(delta).mean(axis=0), p.n_agents)
    # a consensus shift is in the kernel of L and still certifies
    assert max(_consensus_stationarity(p, x_bar, ref.lam_star + mean)) <= 1e-8
    assert max(_consensus_stationarity(p, x_bar, ref.lam_star + (delta - mean))) > 0.1


def test_demo_graph_variable_is_the_dense_minimum_norm_solution():
    # y* comes from L_n alone; L = L_n (x) I gives the dense lstsq solution
    p = build_dbp_col(54)
    ref = reference_solution(p, tol=1e-8)
    y_dense = np.linalg.lstsq(p.lifted.matrix, p.d - p.a_bar @ ref.x_star, rcond=None)[0]
    assert np.max(np.abs(ref.y_star - y_dense)) <= 1e-10 * max(1.0, np.max(np.abs(y_dense)))


def test_consensus_quadratic_optimum():
    p = build_consensus_quadratic()
    ref = reference_solution(p, tol=1e-9)
    for block in p.blocks(ref.x_star):
        assert np.allclose(block, [0.5, 0.5], atol=1e-7)


def test_mixed_smoothness_rejected():
    p = build_dis_logistic()
    objs = (L1Objective(),) + p.objectives[1:]
    with pytest.raises(ParameterError):
        ConsensusProblem(objs, p.mirrors, p.graph, 4)


def test_smooth_objective_needs_a_lipschitz_bound():
    # the reference oracle's step is 1/L, so the bound is part of the objective
    with pytest.raises(TypeError, match="lipschitz"):
        SmoothObjective(lambda x: float(x @ x), lambda x: 2.0 * x)


def test_consensus_laplacian_comes_from_its_graph():
    from mirrorflow.graph import from_edges, lift
    from mirrorflow.problems import ConsensusProblem

    p = build_consensus_quadratic()
    heavy = from_edges(2, [(0, 1)], [5.0])
    with pytest.raises(TypeError):  # a Laplacian that disagrees with the graph cannot be given
        ConsensusProblem(p.objectives, p.mirrors, p.graph, block_dim=2, lifted=lift(heavy, 2))
    assert np.array_equal(p.lifted.matrix, lift(p.graph, 2).matrix)
    q = ConsensusProblem(p.objectives, p.mirrors, heavy, block_dim=2)
    assert np.array_equal(q.lifted.matrix, build_consensus_quadratic(5.0).lifted.matrix)


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



def _linprog_l1(a, b, nonnegative):
    """min ||x||_1 s.t. a x = b (x >= 0) by scipy's HiGHS: an independent oracle."""
    from scipy.optimize import linprog

    a_lp = a if nonnegative else np.hstack([a, -a])
    res = linprog(np.ones(a_lp.shape[1]), A_eq=a_lp, b_eq=b, bounds=(0, None), method="highs")
    assert res.success, res.message
    return res.fun


def _assert_matches_linprog(a, b, nonnegative):
    x, lam, kkt = _min_l1(a, b, nonnegative)
    f_ref = _linprog_l1(a, b, nonnegative)
    assert abs(np.sum(np.abs(x)) - f_ref) <= 1e-10 * max(1.0, abs(f_ref))
    assert _l1_residual(-(a.T @ lam), x, nonnegative) <= 1e-9
    assert np.max(np.abs(a @ x - b)) <= 1e-9 and kkt <= 1e-9
    if nonnegative:
        assert np.min(x) >= 0


@pytest.mark.parametrize("nonnegative", [False, True], ids=["signed", "nonnegative"])
@pytest.mark.parametrize("shape", [(3, 8), (10, 40), (10, 60), (20, 120)])
def test_min_l1_matches_linprog_on_random_instances(shape, nonnegative):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    for _ in range(3):
        a = rng.normal(size=shape)
        x0 = rng.random(shape[1]) if nonnegative else rng.normal(size=shape[1])
        _assert_matches_linprog(a, a @ x0, nonnegative)


@pytest.mark.parametrize("nonnegative", [False, True], ids=["signed", "nonnegative"])
@pytest.mark.parametrize("shape", [(10, 40), (10, 60), (20, 120)])
def test_min_l1_matches_linprog_on_sparse_signals(shape, nonnegative):
    # b = A x0 with x0 2-sparse: the degenerate vertices of the catalogue's
    # recovery problems, where a pivoting rule without anti-cycling would loop
    rng = np.random.default_rng(7 * shape[1])
    for _ in range(5):
        a = rng.normal(size=shape)
        x0 = np.zeros(shape[1])
        support = rng.choice(shape[1], size=2, replace=False)
        x0[support] = rng.random(2) + 0.5 if nonnegative else rng.normal(size=2)
        _assert_matches_linprog(a, a @ x0, nonnegative)


@pytest.mark.parametrize("nonnegative", [False, True], ids=["signed", "nonnegative"])
def test_min_l1_matches_linprog_with_a_duplicated_column(nonnegative):
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 20))
    a[:, 11] = a[:, 4]
    x0 = np.zeros(20)
    x0[[4, 15]] = [1.5, 0.5]
    _assert_matches_linprog(a, a @ x0, nonnegative)


@pytest.mark.parametrize("a, b, nonnegative, match", [
    (np.abs(np.random.default_rng(1).normal(size=(4, 12))) + 0.1, -np.ones(4), True, "infeasible"),
    (np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]), np.array([1.0, 3.0]), False, "infeasible"),
    (np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]), np.array([1.0, 2.0]), False, "dependent"),
], ids=["nonnegative-infeasible", "rank-deficient-inconsistent", "rank-deficient-consistent"])
def test_min_l1_raises_when_it_cannot_certify(a, b, nonnegative, match):
    with pytest.raises(OracleError, match=match):
        _min_l1(a, b, nonnegative)


def test_min_l1_pivot_cap_raises(monkeypatch):
    monkeypatch.setattr(_oracle, "_MAX_PIVOTS", 3)
    p = build_nbp(1)
    with pytest.raises(OracleError, match="did not finish in 3 pivots"):
        _min_l1(p.a, p.b, True)


def test_l1_oracle_rejects_a_set_it_does_not_model():
    # the LP knows free space and the orthant only; a box optimum would be
    # reported as the unconstrained x* = (0, 1), outside the box
    p = problem_from_spec({"a": [[1, 2]], "b": [2], "objective": {"kind": "l1"},
                           "set": {"kind": "box", "lo": [-3, -3], "hi": [3, 0.5]}})
    with pytest.raises(OracleError, match="'box'"):
        reference_solution(p, tol=1e-8)


def test_demo_l1_oracle_rejects_a_set_it_does_not_model():
    # the LP ignores the agents' sets; over boxes away from 0 it used to
    # certify an x* with set violation 1.87
    p = build_dbp_col(54)
    boxes = tuple(ProjectionMap(Box(np.full(6, 0.5), np.full(6, 1.0))) for _ in p.mirrors)
    q = MonotropicProblem(p.objectives, p.a_blocks, p.d_blocks, boxes, p.graph, p.m)
    with pytest.raises(OracleError, match="'box'"):
        reference_solution(q, tol=1e-8)


def test_l1_grad_stacked_equals_the_per_block_gradients():
    # unequal blocks: the one entrywise call must give the concatenation bit for bit
    rng = SeededRng(5)
    sizes = (2, 3, 5)
    a_blocks = tuple(rng.normal(2, p) for p in sizes)
    p = MonotropicProblem(tuple(L1Objective() for n in sizes), a_blocks,
                          tuple(np.zeros(2) for _ in sizes),
                          tuple(EuclideanMap(n) for n in sizes), ring(3), m=2)
    for mu in (1e-3, 0.4, 7.0):
        x = np.concatenate([rng.normal(5), [0.5 * mu, -0.5 * mu, 0.0, -0.0, -np.inf]])
        want = np.concatenate([o.grad(xi, mu) for o, xi in zip(p.objectives, p.blocks(x))])
        assert p.grad_stacked(x, mu).tobytes() == want.tobytes()


def test_constrained_problem_is_one_agent():
    for p in (build_nbp(3), build_logistic_centralized()):
        x = SeededRng(4).uniform(p.dim) + 0.1
        assert p.n_agents == 1
        assert p.objectives == (p.objective,) and p.mirrors == (p.mirror,)
        assert p.f_exact(x) == p.objective.exact(x)
        assert p.set_violation(x) == p.mirror.set_violation(x)
    assert build_nbp(3).kappa == build_nbp(3).dim / 4 == 10.0
    assert build_logistic_centralized().kappa == 0.0


def test_kappa_is_a_quarter_of_the_l1_dimension():
    # the l1 surrogate's bound is 1/4 per entry of the whole stacked x
    for build, kappa in ((build_nbp, 10.0), (build_dbp_row, 75.0), (build_dbp_col, 15.0)):
        p = build(54)
        assert p.kappa == p.dim / 4 == kappa
    assert build_dis_logistic().kappa == 0.0


_SET_KINDS = ("affine", "box", "free", "halfspace", "orthant", "simplex", "sphere")


def _set_holding(kind: str, rng: SeededRng, point: np.ndarray):
    """A mirror map whose set is of the given kind and holds the point."""
    n = point.size
    if kind == "free":
        return EuclideanMap(n)
    if kind == "orthant":
        return NegEntropyMap(n)
    if kind == "simplex":
        return SimplexEntropyMap(n)
    if kind == "box":  # away from 0, where the unconstrained l1 optimum lies
        return ProjectionMap(Box(0.5 * point, 2.0 * point))
    if kind == "sphere":
        shift = rng.normal(n)
        return ProjectionMap(Sphere(point + shift, 0.5 + float(np.linalg.norm(shift))))
    normal = rng.normal(n)
    if kind == "halfspace":
        return ProjectionMap(HalfSpace(normal, float(normal @ point) + 0.1))
    return ProjectionMap(AffineSet(normal[None, :], [normal @ point]))


def _l1_problem(shape: str, kind: str, seed: int, n: int = 4, k: int = 3):
    """An l1 problem of the given shape whose k agents' sets are of the given
    kind; every set holds the point 1/n, and so do the coupling constraints."""
    rng = SeededRng(seed)
    point = np.full(n, 1.0 / n)
    maps = tuple(_set_holding(kind, rng, point) for _ in range(k))
    if shape == "centralized":
        a = rng.normal(2, n)
        return ConstrainedProblem(L1Objective(), a, a @ point, maps[0])
    if shape == "consensus":
        return ConsensusProblem(tuple(L1Objective() for _ in maps), maps, ring(k), n)
    a_blocks = tuple(rng.normal(2, n) for _ in maps)
    d = sum(a_i @ point for a_i in a_blocks) / k
    return MonotropicProblem(tuple(L1Objective() for _ in maps), a_blocks,
                             tuple(d for _ in maps), maps, ring(k), m=2)


@pytest.mark.parametrize("kind", _SET_KINDS)
@pytest.mark.parametrize("shape", ["centralized", "consensus", "monotropic"])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_l1_oracle_never_certifies_a_point_outside_the_sets(shape, kind, seed):
    problem = _l1_problem(shape, kind, seed)
    try:
        ref = reference_solution(problem, tol=1e-8)
    except OracleError:
        return
    assert problem.set_violation(ref.x_star) <= 1e-8
