"""Reference primal-dual solver, independent of the mirror dynamics.

Smooth problems: an augmented-Lagrangian outer loop with a projected FISTA
inner solver. The returned KKT residual is the max of the natural-map
stationarity residual ||x - P_X(x - (grad f + A^T lam))||_inf and the
constraint violation.

L1 problems: solved exactly as linear programs (HiGHS) and certified by an
explicit dual-feasibility check of the subgradient conditions, so the
optimum never depends on any iterative tolerance of ours.

scipy is imported only inside the LP routes (``_min_l1`` and
``solve_consensus_l1``): a process that solves only smooth problems never
loads it.
"""

from __future__ import annotations

import numpy as np

from .errors import OracleError
from .problems import (
    ConsensusProblem,
    ConstrainedProblem,
    MonotropicProblem,
    ReferenceSolution,
    euclidean_projector,
)
from .projections import Box

_MAX_OUTER = 400
_MAX_INNER = 4000


def _fista(grad, lip, proj, x0, inner_tol, max_iter=_MAX_INNER):
    step = 1.0 / max(lip, 1e-12)
    x = proj(x0)
    y = x.copy()
    tk = 1.0
    for it in range(max_iter):
        x_new = proj(y - step * grad(y))
        if (y - x_new) @ (x_new - x) > 0:  # restart on non-monotone momentum
            tk = 1.0
            y = x.copy()
            x_new = proj(y - step * grad(y))
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        y = x_new + ((tk - 1.0) / t_new) * (x_new - x)
        x, tk = x_new, t_new
        if it % 10 == 0:
            res = np.max(np.abs(x - proj(x - step * grad(x)))) / step
            if res <= inner_tol:
                break
    return x


def _alm(grad_f, lip_f, proj, a, b, tol, x0):
    """min f over the projector's set subject to a x = b."""
    sig2 = float(np.linalg.norm(a, 2)) ** 2
    beta = 10.0
    lam = np.zeros(b.shape[0])
    x = proj(x0)
    feas_prev = np.inf
    kkt = np.inf
    for _ in range(_MAX_OUTER):
        lam_c, beta_c = lam.copy(), beta

        def grad_aug(z):
            return grad_f(z) + a.T @ (lam_c + beta_c * (a @ z - b))

        inner_tol = max(0.02 * min(kkt, 1.0), 0.005 * tol)
        x = _fista(grad_aug, lip_f + beta * sig2, proj, x, inner_tol)
        r = a @ x - b
        lam = lam + beta * r
        feas = float(np.max(np.abs(r))) if r.size else 0.0
        g = grad_f(x) + a.T @ lam
        stat = float(np.max(np.abs(x - proj(x - g))))
        kkt = max(stat, feas)
        if kkt <= tol:
            return x, lam, kkt
        if feas > 0.25 * feas_prev:
            beta = min(beta * 2.0, 1e8)
        feas_prev = feas
    raise OracleError(f"augmented-Lagrangian oracle stalled at residual {kkt:.3e}", residual=kkt)


# --------------------------------------------------------------------------
# smooth routes
# --------------------------------------------------------------------------

def solve_constrained_smooth(problem: ConstrainedProblem, tol: float) -> ReferenceSolution:
    proj = euclidean_projector(problem.mirror).project
    obj = problem.objective
    lip = obj.lipschitz if obj.lipschitz is not None else 1.0
    x, lam, kkt = _alm(obj.grad, lip, proj, problem.a, problem.b, tol, np.zeros(problem.dim))
    return ReferenceSolution(x, lam, problem.f_exact(x), kkt, method="alm-fista")


def _block_projector(problem):
    """Euclidean projection of a stacked x onto the agents' sets.

    When every set is a box, one clip onto the stacked box: clipping acts
    entry by entry, so this equals the block-by-block projection bit for bit.
    """
    sets = [euclidean_projector(m) for m in problem.mirrors]
    if all(isinstance(s, Box) for s in sets):
        return Box(np.concatenate([s.lo for s in sets]),
                   np.concatenate([s.hi for s in sets])).project
    projs = [s.project for s in sets]
    return lambda z: np.concatenate([p(zi) for p, zi in zip(projs, problem.blocks(z))])


def solve_consensus_smooth(problem: ConsensusProblem, tol: float) -> ReferenceSolution:
    proj = _block_projector(problem)
    lip = max((o.lipschitz or 1.0) for o in problem.objectives)
    lap = problem.lifted.matrix
    x, lam, kkt = _alm(lambda z: problem.grad_stacked(z), lip, proj,
                       lap, np.zeros(problem.dim), tol, np.zeros(problem.dim))
    return ReferenceSolution(x, lam, problem.f_exact(x), kkt, method="alm-fista")


def solve_demo_smooth(problem: MonotropicProblem, tol: float) -> ReferenceSolution:
    """Solve the decomposed form over (x, y) with constraint Abar x - d + L y = 0."""
    a_bar, d = problem.a_bar, problem.d
    lap = problem.lifted.matrix
    nx, ny = problem.dim, problem.multiplier_dim
    a = np.hstack([a_bar, lap])
    proj_x = _block_projector(problem)

    def proj(z):
        return np.concatenate([proj_x(z[:nx]), z[nx:]])

    def grad(z):
        return np.concatenate([problem.grad_stacked(z[:nx]), np.zeros(ny)])

    lip = max((o.lipschitz or 1.0) for o in problem.objectives)
    z, lam, kkt = _alm(grad, lip, proj, a, d, tol, np.zeros(nx + ny))
    x, y = z[:nx], z[nx:]
    return ReferenceSolution(x, lam, problem.f_exact(x), kkt, method="alm-fista", y_star=y)


# --------------------------------------------------------------------------
# l1 routes (LP + dual certificate)
# --------------------------------------------------------------------------

def _lp_duals_sign(a, x, marginals, support_sign):
    """Resolve HiGHS multiplier sign so that -A^T lam is an l1 subgradient at x."""
    for lam in (marginals, -marginals):
        g = -(a.T @ lam)
        if np.max(np.abs(g)) <= 1.0 + 1e-6 and np.max(np.abs(g[x != 0] - support_sign[x != 0])) <= 1e-6:
            return lam
    raise OracleError("LP duals do not certify l1 optimality under either sign convention")


def _min_l1(a, b, nonnegative: bool):
    """min ||x||_1 s.t. a x = b (and x >= 0 when nonnegative); returns x, lam.

    The multiplier satisfies the subgradient stationarity condition
    0 in d||x||_1 + a^T lam (restricted to the orthant's normal cone in the
    nonnegative case).
    """
    from scipy.optimize import linprog

    m, n = a.shape
    if nonnegative:
        res = linprog(c=np.ones(n), A_eq=a, b_eq=b, bounds=[(0, None)] * n, method="highs")
    else:
        res = linprog(c=np.ones(2 * n), A_eq=np.hstack([a, -a]), b_eq=b,
                      bounds=[(0, None)] * (2 * n), method="highs")
    if not res.success:
        raise OracleError(f"l1 linear program failed: {res.message}")
    x = res.x[:n] if nonnegative else res.x[:n] - res.x[n:]
    x = np.where(np.abs(x) < 1e-11, 0.0, x)
    marginals = np.asarray(res.eqlin.marginals, dtype=float)
    if nonnegative:
        # stationarity: s = 1 + a^T lam >= 0 with s = 0 on the support
        for lam in (marginals, -marginals):
            s = 1.0 + a.T @ lam
            if np.min(s) >= -1e-6 and np.max(np.abs(s[x > 0])) <= 1e-6:
                return x, lam
        raise OracleError("LP duals do not certify nonnegative l1 optimality")
    lam = _lp_duals_sign(a, x, marginals, np.sign(x))
    return x, lam


def solve_constrained_l1(problem: ConstrainedProblem, tol: float) -> ReferenceSolution:
    nonneg = euclidean_projector(problem.mirror).kind in ("orthant",)
    x, lam = _min_l1(problem.a, problem.b, nonnegative=nonneg)
    feas = float(np.max(np.abs(problem.a @ x - problem.b)))
    if nonneg:
        s = 1.0 + problem.a.T @ lam
        stat = max(0.0, -float(np.min(s)))
        compl = float(np.max(np.abs(s * x)))
    else:
        g = -(problem.a.T @ lam)
        stat = max(0.0, float(np.max(np.abs(g))) - 1.0)
        compl = float(np.max(np.abs(g[x != 0] - np.sign(x[x != 0])))) if np.any(x != 0) else 0.0
    kkt = max(feas, stat, compl)
    if kkt > tol:
        raise OracleError(f"l1 certificate residual {kkt:.3e} exceeds tol", residual=kkt)
    return ReferenceSolution(x, lam, float(np.sum(np.abs(x))), kkt, method="lp-certificate")


def solve_consensus_l1(problem: ConsensusProblem, tol: float) -> ReferenceSolution:
    """Stack the per-agent affine sets, solve the centralized LP, then find a
    consensus multiplier by a dual feasibility LP over subgradient witnesses."""
    from scipy.linalg import block_diag
    from scipy.optimize import linprog

    mirrors = problem.mirrors
    a_rows, b_rows = [], []
    for mir in mirrors:
        proj = euclidean_projector(mir)
        if proj.kind != "affine":
            raise OracleError("consensus l1 oracle expects affine per-agent sets")
        a_rows.append(proj.a)
        b_rows.append(proj.b)
    a_full = np.vstack(a_rows)
    b_full = np.concatenate(b_rows)
    x_bar, _ = _min_l1(a_full, b_full, nonnegative=False)

    n, k = problem.block_dim, problem.n_agents
    lap = problem.lifted.matrix
    a_bar_t = block_diag(*(a_i.T for a_i in a_rows))

    support = np.nonzero(x_bar)[0]
    sign_s = np.sign(x_bar[support])
    off = np.nonzero(x_bar == 0)[0]

    # variables z = [lambda (kn); w (m_total); t (1)], g = -L lambda - blkdiag(A^T) w
    n_lam = k * n
    n_w = a_full.shape[0]
    cols = n_lam + n_w + 1
    g_mat = np.zeros((k * n, cols))
    g_mat[:, :n_lam] = -lap
    g_mat[:, n_lam:n_lam + n_w] = -a_bar_t

    eq_rows, eq_rhs = [], []
    ub_rows, ub_rhs = [], []
    for agent in range(k):
        base = agent * n
        for s_idx, sgn in zip(support, sign_s):
            eq_rows.append(g_mat[base + s_idx])
            eq_rhs.append(sgn)
        for o_idx in off:
            r1 = g_mat[base + o_idx].copy()
            r1[-1] -= 1.0  # g - t <= 0
            ub_rows.append(r1)
            ub_rhs.append(0.0)
            r2 = -g_mat[base + o_idx]
            r2[-1] -= 1.0  # -g - t <= 0
            ub_rows.append(r2)
            ub_rhs.append(0.0)
    c = np.zeros(cols)
    c[-1] = 1.0
    bounds = [(None, None)] * (n_lam + n_w) + [(0.0, None)]
    res = linprog(c=c, A_eq=np.array(eq_rows), b_eq=np.array(eq_rhs),
                  A_ub=np.array(ub_rows), b_ub=np.array(ub_rhs),
                  bounds=bounds, method="highs")
    if not res.success:
        raise OracleError(f"consensus multiplier LP failed: {res.message}")
    lam = res.x[:n_lam]
    w = res.x[n_lam:n_lam + n_w]
    margin = float(res.x[-1])
    if margin > 1.0 + 1e-7:
        raise OracleError(f"no consensus dual certificate: off-support margin {margin:.6f} > 1")

    g = -(lap @ lam) - a_bar_t @ w
    stat = 0.0
    for agent in range(k):
        base = agent * n
        stat = max(stat, float(np.max(np.abs(g[base + support] - sign_s))))
        if off.size:
            stat = max(stat, max(0.0, float(np.max(np.abs(g[base + off]))) - 1.0))
    x_star = np.tile(x_bar, k)
    feas = max(float(np.max(np.abs(a_full @ x_bar - b_full))),
               float(np.sqrt(max(x_star @ lap @ x_star, 0.0))))
    kkt = max(stat, feas)
    if kkt > tol:
        raise OracleError(f"consensus l1 residual {kkt:.3e} exceeds tol", residual=kkt)
    f_star = float(k * np.sum(np.abs(x_bar)))
    return ReferenceSolution(x_star, lam, f_star, kkt, method="lp-certificate")


def solve_demo_l1(problem: MonotropicProblem, tol: float) -> ReferenceSolution:
    a_full = np.hstack(problem.a_blocks)
    b_total = np.sum(np.stack(problem.d_blocks), axis=0)
    x, eta = _min_l1(a_full, b_total, nonnegative=False)

    lam = np.tile(eta, problem.n_agents)
    lap = problem.lifted.matrix
    rhs = problem.d - problem.a_bar @ x
    y, *_ = np.linalg.lstsq(lap, rhs, rcond=None)
    feas = float(np.max(np.abs(problem.a_bar @ x - problem.d + lap @ y)))
    g = -(a_full.T @ eta)
    stat = max(0.0, float(np.max(np.abs(g))) - 1.0)
    if np.any(x != 0):
        stat = max(stat, float(np.max(np.abs(g[x != 0] - np.sign(x[x != 0])))))
    kkt = max(feas, stat, float(np.max(np.abs(lap @ lam))))
    if kkt > tol:
        raise OracleError(f"demo l1 residual {kkt:.3e} exceeds tol", residual=kkt)
    return ReferenceSolution(x, lam, float(np.sum(np.abs(x))), kkt,
                             method="lp-certificate", y_star=y)
