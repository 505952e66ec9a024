"""Reference primal-dual solver, independent of the mirror dynamics.

Smooth problems: an augmented-Lagrangian outer loop with a projected FISTA
inner solver. The returned KKT residual is the max of the natural-map
stationarity residual ||x - P_X(x - (grad f + A^T lam))||_inf and the
constraint violation. The consensus constraint L x = 0 is the one place a
dense L = L_n (x) I exists: the augmented Lagrangian needs it as a matrix.

L1 problems: one linear program, min ||x||_1 subject to the stacked affine
constraints, solved exactly by a dense two-phase simplex with Bland's rule
(``_min_l1``) and certified by an explicit check of the subgradient
conditions (``_l1_residual``), so a wrong vertex or dual fails closed. The
consensus multiplier is built from the LP dual in closed form, by one
least-squares solve with the graph Laplacian, and each agent's stationarity
is certified again.

DEMO problems, both routes: the coupled problem min f(x) s.t.
sum_i A_i x_i = sum_i d_i, x_i in X_i, solved by the augmented Lagrangian
(smooth) or the LP (l1). Its multiplier eta, repeated per agent, is lam*,
and y* is the minimum-norm solution of L y = d - Abar x.

The oracle needs numpy only.
"""

from __future__ import annotations

import numpy as np

from .errors import OracleError
from .problems import ConsensusProblem, ConstrainedProblem, MonotropicProblem, ReferenceSolution
from .projections import Box

_MAX_OUTER = 400
_MAX_INNER = 4000


def _fista(grad, lip, proj, x0, inner_tol):
    step = 1.0 / max(lip, 1e-12)
    x = proj(x0)
    y = x.copy()
    tk = 1.0
    for it in range(_MAX_INNER):
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
    raise OracleError(f"augmented-Lagrangian oracle stalled at residual {kkt:.3e}")


# --------------------------------------------------------------------------
# smooth routes
# --------------------------------------------------------------------------

def solve_constrained_smooth(problem: ConstrainedProblem, tol: float) -> ReferenceSolution:
    obj, proj = problem.objective, problem.mirror.projector.project
    x, lam, kkt = _alm(obj.grad, obj.lipschitz, proj, problem.a, problem.b, tol,
                       np.zeros(problem.dim))
    return ReferenceSolution(x, lam, problem.f_exact(x), kkt, method="alm-fista")


def _block_projector(problem):
    """Euclidean projection of a stacked x onto the agents' sets.

    When every set is a box, one clip onto the stacked box: clipping acts
    entry by entry, so this equals the block-by-block projection bit for bit.
    """
    sets = [m.projector for m in problem.mirrors]
    if all(isinstance(s, Box) for s in sets):
        return Box(np.concatenate([s.lo for s in sets]),
                   np.concatenate([s.hi for s in sets])).project
    projs = [s.project for s in sets]
    return lambda z: np.concatenate([p(zi) for p, zi in zip(projs, problem.blocks(z))])


def solve_consensus_smooth(problem: ConsensusProblem, tol: float) -> ReferenceSolution:
    proj = _block_projector(problem)
    lip = max(o.lipschitz for o in problem.objectives)
    lap = np.kron(problem.lifted.l_n, np.eye(problem.block_dim))
    x, lam, kkt = _alm(problem.grad_stacked, lip, proj,
                       lap, np.zeros(problem.dim), tol, np.zeros(problem.dim))
    return ReferenceSolution(x, lam, problem.f_exact(x), kkt, method="alm-fista")


def _coupled(problem: MonotropicProblem):
    """sum_i A_i x_i = sum_i d_i as one (A, b) on the stacked x."""
    return np.hstack(problem.a_blocks), np.sum(np.stack(problem.d_blocks), axis=0)


def _demo_solution(problem: MonotropicProblem, x, eta, kkt, f_star, tol, method):
    """The DEMO reference from a solution (x, eta) of the coupled problem:
    lam* = eta per agent, and y* the minimum-norm y of L y = d - Abar x. The
    residual adds the decomposed constraint and L lam*, and is certified."""
    lifted = problem.lifted
    lam = np.tile(eta, problem.n_agents)
    y = lifted.solve(problem.d - problem.a_bar @ x)
    kkt = max(kkt, float(np.max(np.abs(problem.a_bar @ x - problem.d + lifted.apply(y)))),
              float(np.max(np.abs(lifted.apply(lam)))))
    return ReferenceSolution(x, lam, f_star, _certified(kkt, tol, "demo reference"),
                             method=method, y_star=y)


def solve_demo_smooth(problem: MonotropicProblem, tol: float) -> ReferenceSolution:
    lip = max(o.lipschitz for o in problem.objectives)
    a_full, b_total = _coupled(problem)
    x, eta, kkt = _alm(problem.grad_stacked, lip, _block_projector(problem), a_full, b_total,
                       tol, np.zeros(problem.dim))
    return _demo_solution(problem, x, eta, kkt, problem.f_exact(x), tol, "alm-fista")


# --------------------------------------------------------------------------
# l1 routes (LP + dual certificate)
# --------------------------------------------------------------------------

def _l1_residual(g, x, nonnegative: bool) -> float:
    """How far g is from an l1 subgradient that certifies x: |g| <= 1 with
    g = sign x on the support, or in the nonnegative case s = 1 - g >= 0 with
    s x = 0."""
    if nonnegative:
        s = 1.0 - g
        return max(0.0, -float(np.min(s)), float(np.max(np.abs(s * x))))
    on = x != 0
    return max(0.0, float(np.max(np.abs(g))) - 1.0,
               float(np.max(np.abs(g[on] - np.sign(x[on])), initial=0.0)))


def _certified(kkt: float, tol: float, what: str) -> float:
    if kkt > tol:
        raise OracleError(f"{what} residual {kkt:.3e} exceeds tol")
    return kkt


_PIVOT_TOL = 1e-9
_MAX_PIVOTS = 5000


def _simplex(a, b, cost, basis, n_enter):
    """Revised simplex for min cost.z s.t. a z = b, z >= 0, from the feasible
    basis ``basis`` (updated in place), with Bland's rule against cycling on
    degenerate vertices; columns from n_enter on never enter. Returns the
    dual y = B^-T cost_B of the optimal basis."""
    a_in, cost_in = np.ascontiguousarray(a[:, :n_enter].T), cost[:n_enter]
    for _ in range(_MAX_PIVOTS):
        b_inv = np.linalg.inv(a[:, basis])  # one factorization of the m x m basis per pivot
        y = cost[basis] @ b_inv
        reduced = cost_in - a_in @ y
        j = int((reduced < -_PIVOT_TOL).argmax())  # Bland: the first improving column enters
        if reduced[j] >= -_PIVOT_TOL:
            return y
        w = b_inv @ a_in[j]
        rows = (w > _PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            raise OracleError("l1 linear program is unbounded")
        ratios = np.maximum(b_inv[rows] @ b, 0.0) / w[rows]
        ties = rows[ratios <= ratios.min() + _PIVOT_TOL]
        basis[ties[basis[ties].argmin()]] = j  # Bland: the smallest tied basic index leaves
    raise OracleError(f"simplex did not finish in {_MAX_PIVOTS} pivots")


def _min_l1(a, b, nonnegative: bool):
    """min ||x||_1 s.t. a x = b (and x >= 0 when nonnegative); returns x, lam
    and the KKT residual.

    Two-phase simplex on the standard form min 1.z s.t. a_lp z = b, z >= 0,
    with x = z when nonnegative and x = z+ - z- otherwise. Rows are flipped so
    that b >= 0, and Phase I starts from the artificial identity basis. lam is
    minus the dual of the optimal basis, so -a^T lam is the l1 subgradient
    that certifies x (``_l1_residual``).
    """
    m, n = a.shape
    a_lp = a if nonnegative else np.hstack([a, -a])
    n_lp = a_lp.shape[1]
    flip = np.where(b < 0, -1.0, 1.0)
    a_ph, rhs = np.hstack([flip[:, None] * a_lp, np.eye(m)]), flip * b
    basis = np.arange(n_lp, n_lp + m)
    _simplex(a_ph, rhs, np.concatenate([np.zeros(n_lp), np.ones(m)]), basis, n_lp)
    infeasibility = float(np.sum(np.linalg.solve(a_ph[:, basis], rhs)[basis >= n_lp]))
    if infeasibility > _PIVOT_TOL * (1.0 + float(np.max(np.abs(b), initial=0.0))):
        raise OracleError(f"l1 linear program is infeasible (phase I residual {infeasibility:.3e})")
    for row in np.flatnonzero(basis >= n_lp):  # drive the zero-level artificials out
        w = np.linalg.solve(a_ph[:, basis], a_ph[:, :n_lp])[row]
        pivots = np.flatnonzero(np.abs(w) > _PIVOT_TOL)
        if pivots.size == 0:
            raise OracleError("l1 linear program has linearly dependent constraint rows")
        basis[row] = pivots[0]
    y = _simplex(a_ph, rhs, np.concatenate([np.ones(n_lp), np.zeros(m)]), basis, n_lp)

    z = np.zeros(n_lp + m)
    z[basis] = np.maximum(np.linalg.solve(a_ph[:, basis], rhs), 0.0)
    x = z[:n] if nonnegative else z[:n] - z[n:n_lp]
    x = np.where(np.abs(x) < 1e-11, 0.0, x)
    lam = -flip * y
    feas = float(np.max(np.abs(a @ x - b)))
    return x, lam, max(feas, _l1_residual(-(a.T @ lam), x, nonnegative))


def solve_constrained_l1(problem: ConstrainedProblem, tol: float) -> ReferenceSolution:
    kind = problem.mirror.projector.kind
    if kind not in ("free", "orthant"):
        raise OracleError(f"l1 oracle solves over free space or the orthant, not a {kind!r} set")
    x, lam, kkt = _min_l1(problem.a, problem.b, nonnegative=kind == "orthant")
    return ReferenceSolution(x, lam, float(np.sum(np.abs(x))),
                             _certified(kkt, tol, "l1 certificate"), method="lp-certificate")


def solve_consensus_l1(problem: ConsensusProblem, tol: float) -> ReferenceSolution:
    """Solve the stacked LP min ||x||_1 s.t. A_i x = b_i for every i, then
    build a consensus multiplier from its dual eta in closed form.

    g = -A^T eta certifies x. With w_i = k eta_i, agent i is stationary when
    (L lam)_i = r_i = -k A_i^T eta_i - g. The blocks of r sum to zero, so
    L lam = r is solvable, and ``lifted.solve`` gives its minimum-norm lam.
    """
    projs = [mir.projector for mir in problem.mirrors]
    if any(p.kind != "affine" for p in projs):
        raise OracleError("consensus l1 oracle expects affine per-agent sets")
    a_full = np.vstack([p.a for p in projs])
    x_bar, eta, kkt = _min_l1(a_full, np.concatenate([p.b for p in projs]), nonnegative=False)

    k = problem.n_agents
    etas = np.split(eta, np.cumsum([p.a.shape[0] for p in projs])[:-1])
    pull = np.stack([k * (p.a.T @ e) for p, e in zip(projs, etas)])  # k A_i^T eta_i
    r = -pull + a_full.T @ eta
    lam = problem.lifted.solve(r.ravel())
    lam_lap = problem.blocks(problem.lifted.apply(lam))
    for agent in range(k):
        kkt = max(kkt, _l1_residual(-lam_lap[agent] - pull[agent], x_bar, nonnegative=False))
    return ReferenceSolution(np.tile(x_bar, k), lam, float(k * np.sum(np.abs(x_bar))),
                             _certified(kkt, tol, "consensus l1"), method="lp-certificate")


def solve_demo_l1(problem: MonotropicProblem, tol: float) -> ReferenceSolution:
    kinds = sorted({m.projector.kind for m in problem.mirrors} - {"free"})
    if kinds:
        raise OracleError(f"demo l1 oracle solves over free space, not a {kinds[0]!r} set")
    x, eta, kkt = _min_l1(*_coupled(problem), nonnegative=False)
    return _demo_solution(problem, x, eta, kkt, float(np.sum(np.abs(x))), tol, "lp-certificate")
