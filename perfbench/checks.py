"""Output checks of the benchmark, written apart from the program's diagnostics.

Every check raises ``CheckError`` naming the job, the quantity and the first
sample at fault. None of them reads the ``bound_checks`` of ``summary.json``;
they recompute what they need from ``trajectory.csv``, from the program's
step counters and from the problem data:

* certificate: (lagrangian_gap + 4 kappa mu) t^2 <= 1.05 alpha^2 V(t0) at
  every sample, with V(t0) the first ``lyapunov`` value, which must be finite;
* the ``lyapunov`` column starts finite and is nonincreasing within 1e-6
  relative plus 1e-10 absolute;
* optimum: ``f_star`` agrees with a value computed here, by closed form, by
  a linear program or by a constrained solve of this module's own;
* trajectory: every sampled x(t) lies in each agent's set, and f(x(T)) - f*
  computed here equals the last ``gap`` of the CSV;
* counts: 1 + 6 accepted + rejected <= rhs evaluations
  <= 1 + 6 (accepted + rejected), for the Dormand-Prince pair with FSAL.

The problem data (matrices, sets, objective weights) are read from the
problem objects the program builds. Objective weights are read back through
the gradient at fixed points: for f(x) = log(1 + exp(-w.x)), grad f(0) = -w/2;
for f(x) = x.Q x, grad f(e_j) is column j of Q + Q^T.
"""

from __future__ import annotations

import csv
import math

import numpy as np

CERT_SLACK = 1.05
LYAP_REL, LYAP_ABS = 1e-6, 1e-10
# f* must agree to 1e-7 + 1e-9 |f*|: a shift of 1e-4 is refused on every
# catalogue problem, the largest of which has f* = 1.6e4
F_STAR_ABS, F_STAR_REL = 1e-7, 1e-9
# the Runge-Kutta and Hermite updates keep linear invariants (the simplex
# sum, affine sets) to rounding; inequalities are not guaranteed by the
# method. The worst violation on the workloads is 3e-13; 1e-8 is the
# acceptance suite's tolerance for a simplex coordinate
SET_TOL = 1e-8
# problems whose objective is the l1 norm of the stacked state
L1_PROBLEMS = ("nbp", "d_bp_r", "d_bp_c")


class CheckError(Exception):
    """An output of the program failed one of the benchmark's checks."""


def read_trajectory(path) -> dict:
    """The columns of a ``trajectory.csv`` as float arrays, by header name."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    if not body:
        raise CheckError(f"{path}: no samples")
    data = np.array([[float(v) for v in row] for row in body])
    return {name: data[:, i] for i, name in enumerate(header)}


def kappa_of(problem_name: str, dim: int) -> float:
    """kappa of the smoothed l1 surrogate: the l1 dimension over 4."""
    return dim / 4.0 if problem_name in L1_PROBLEMS else 0.0


def _first_bad(mask, times) -> str:
    i = int(np.flatnonzero(mask)[0])
    return f"sample {i} (t = {times[i]:.6g})"


def check_certificate(cols: dict, alpha: float, kappa: float, label: str) -> float:
    """The worst ratio (gap + 4 kappa mu) t^2 / (alpha^2 V(t0)); raises above 1.05."""
    t, lyap = cols["t"], cols["lyapunov"]
    core = cols["lagrangian_gap"] + 4.0 * kappa * cols["mu"]
    v0 = lyap[0]
    # an infinite V(t0) (an optimum on the boundary of a Burg-entropy domain)
    # would make the certificate hold trivially; no workload job has one
    if not (0 < v0 < math.inf):
        raise CheckError(f"{label}: V(t0) = {v0!r} is not positive and finite")
    ratio = core * t**2 / (alpha**2 * v0)
    bad = ~(ratio <= CERT_SLACK)  # NaN fails
    if bad.any():
        raise CheckError(f"{label}: certificate broken at {_first_bad(bad, t)}: "
                         f"(gap + 4 kappa mu) t^2 / (alpha^2 V0) = {ratio[bad][0]:.6g} > {CERT_SLACK}")
    return float(ratio.max())


def check_lyapunov_monotone(cols: dict, label: str):
    t, lyap = cols["t"], cols["lyapunov"]
    if not math.isfinite(lyap[0]):
        raise CheckError(f"{label}: lyapunov starts at {lyap[0]!r}")
    allowed = lyap[:-1] * (1.0 + LYAP_REL) + LYAP_ABS
    bad = ~(lyap[1:] <= allowed)
    if bad.any():
        i = int(np.flatnonzero(bad)[0]) + 1
        raise CheckError(f"{label}: lyapunov rises at sample {i} (t = {t[i]:.6g}): "
                         f"{lyap[i]!r} after {lyap[i - 1]!r}")


def check_eval_count(rhs_evals: int, accepted: int, rejected: int, label: str):
    lo, hi = 1 + 6 * accepted + rejected, 1 + 6 * (accepted + rejected)
    if not lo <= rhs_evals <= hi:
        raise CheckError(f"{label}: {rhs_evals} rhs evaluations outside [{lo}, {hi}] for "
                         f"{accepted} accepted and {rejected} rejected steps")


def check_f_star(reported: float, own: float, label: str):
    if not abs(reported - own) <= F_STAR_ABS + F_STAR_REL * abs(own):
        raise CheckError(f"{label}: f_star {reported!r} differs from the benchmark's "
                         f"{own!r} by {reported - own:.3g}")


# --------------------------------------------------------------------------
# sets and objectives, read from the problem objects
# --------------------------------------------------------------------------

def agent_blocks(problem) -> list:
    """(slice of the stacked x, mirror map) per agent; one block if centralized."""
    if hasattr(problem, "mirror"):
        return [(slice(0, problem.dim), problem.mirror)]
    if hasattr(problem, "block_dim"):
        k = problem.block_dim
        return [(slice(i * k, (i + 1) * k), m) for i, m in enumerate(problem.mirrors)]
    out, pos = [], 0
    for a_i, m in zip(problem.a_blocks, problem.mirrors):
        out.append((slice(pos, pos + a_i.shape[1]), m))
        pos += a_i.shape[1]
    return out


def set_of(mirror) -> tuple:
    """(kind, data) of the set a mirror map keeps its primal point in."""
    kind = mirror.kind
    if kind == "euclidean":
        return ("free", None)
    if kind in ("neg_entropy", "itakura_saito"):
        return ("orthant", None)
    if kind == "simplex_entropy":
        return ("simplex", None)
    proj = mirror.projector
    if proj.kind == "box":
        return ("box", (proj.lo, proj.hi))
    if proj.kind == "sphere":
        return ("sphere", (proj.center, proj.radius))
    if proj.kind == "halfspace":
        return ("halfspace", (proj.a, proj.b))
    if proj.kind == "affine":
        return ("affine", (proj.a, proj.b))
    raise CheckError(f"no membership test for set kind {proj.kind!r}")


def violation(kind: str, data, x: np.ndarray) -> np.ndarray:
    """Distance-like violation of each row of x (samples x block) from a set."""
    zero = np.zeros(x.shape[0])
    if kind == "free":
        return zero
    if kind == "orthant":
        return np.maximum(-x.min(axis=1), 0.0)
    if kind == "simplex":
        return np.maximum(np.abs(x.sum(axis=1) - 1.0), np.maximum(-x.min(axis=1), 0.0))
    if kind == "box":
        lo, hi = data
        return np.maximum(np.maximum(lo - x, x - hi).max(axis=1), 0.0)
    if kind == "sphere":
        center, radius = data
        return np.maximum(np.linalg.norm(x - center, axis=1) - radius, 0.0)
    if kind == "halfspace":
        a, b = data
        return np.maximum((x @ a - b) / np.linalg.norm(a), 0.0)
    if kind == "affine":
        a, b = data
        return np.abs(x @ a.T - b).max(axis=1)
    raise CheckError(f"no membership test for set kind {kind!r}")


def check_membership(problem, times: np.ndarray, xs: np.ndarray, label: str) -> float:
    """Every sampled x(t) (rows of xs) lies in each agent's set, within SET_TOL."""
    worst = 0.0
    for agent, (block, mirror) in enumerate(agent_blocks(problem)):
        kind, data = set_of(mirror)
        v = violation(kind, data, xs[:, block])
        bad = ~(v <= SET_TOL)
        if bad.any():
            raise CheckError(f"{label}: agent {agent} leaves its {kind} set at "
                             f"{_first_bad(bad, times)} by {v[bad][0]:.3g}")
        worst = max(worst, float(v.max()))
    return worst


def _logistic_weight(objective) -> np.ndarray:
    return -2.0 * np.asarray(objective.grad(np.zeros(4)), dtype=float)


def _quadratic_hessian(objective, n: int) -> np.ndarray:
    return np.column_stack([objective.grad(e) for e in np.eye(n)])


def objective_of(name: str, problem):
    """f on the stacked state, written here from the problem's data."""
    if name in L1_PROBLEMS:
        return lambda x: float(np.abs(x).sum())
    if name == "scalar":
        return lambda x: 0.5 * float(x[0]) ** 2
    if name == "logregress":
        w = _logistic_weight(problem.objective)
        return lambda x: float(np.logaddexp(0.0, -(w @ x)))
    if name == "dis_log":
        ws = [_logistic_weight(o) for o in problem.objectives]
        blocks = [b for b, _ in agent_blocks(problem)]
        return lambda x: float(sum(np.logaddexp(0.0, -(w @ x[b])) for w, b in zip(ws, blocks)))
    if name == "d_sp":
        blocks = [b for b, _ in agent_blocks(problem)]
        hs = [_quadratic_hessian(o, b.stop - b.start) for o, b in zip(problem.objectives, blocks)]
        return lambda x: float(sum(0.5 * x[b] @ h @ x[b] for h, b in zip(hs, blocks)))
    raise CheckError(f"no objective known for problem {name!r}")


def check_final_gap(name: str, problem, f_star: float, x_final: np.ndarray,
                    csv_gap: float, label: str):
    """|f(x(T)) - f*|, computed here, equals the CSV's last ``gap``."""
    own = abs(objective_of(name, problem)(x_final) - f_star)
    if not abs(own - csv_gap) <= 2 * (F_STAR_ABS + F_STAR_REL * abs(f_star)):
        raise CheckError(f"{label}: |f(x(T)) - f*| = {own!r} here, {csv_gap!r} in the CSV")


# --------------------------------------------------------------------------
# optimal values, computed here
# --------------------------------------------------------------------------

def _min_l1(a: np.ndarray, b: np.ndarray, nonnegative: bool) -> float:
    """min ||x||_1 s.t. a x = b (and x >= 0), as an LP in (x+, x-)."""
    from scipy.optimize import linprog

    n = a.shape[1]
    if nonnegative:
        res = linprog(np.ones(n), A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    else:
        res = linprog(np.ones(2 * n), A_eq=np.hstack([a, -a]), b_eq=b, bounds=(0, None),
                      method="highs")
    if res.status != 0:
        raise CheckError(f"reference LP failed: {res.message}")
    return float(res.fun)


def _set_constraints(kind: str, data, block: slice, n: int):
    """SLSQP bounds and constraints for one agent's set on variables x[block]:
    the kinds the catalogue's smooth consensus problem uses."""
    lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
    cons = []
    if kind in ("orthant", "simplex"):
        lo[block] = 0.0
    if kind == "simplex":
        cons.append({"type": "eq", "fun": lambda x: x[block].sum() - 1.0})
    elif kind == "sphere":
        center, radius = data
        cons.append({"type": "ineq", "fun": lambda x: radius**2 - np.sum((x[block] - center) ** 2),
                     "jac": lambda x: _embed(-2.0 * (x[block] - center), block, n)})
    elif kind == "halfspace":
        a, b = data
        cons.append({"type": "ineq", "fun": lambda x: b - a @ x[block],
                     "jac": lambda x: _embed(-a, block, n)})
    elif kind not in ("free", "orthant"):
        raise CheckError(f"no constraint known for set kind {kind!r}")
    return lo, hi, cons


def _embed(g, block, n):
    out = np.zeros(n)
    out[block] = g
    return out


def _slsqp(f, grad, x0, lo, hi, cons):
    from scipy.optimize import Bounds, minimize

    return minimize(f, x0, jac=grad, method="SLSQP", bounds=Bounds(lo, hi), constraints=cons,
                    options={"ftol": 1e-12, "maxiter": 2000})


def _dis_log_f_star(problem) -> float:
    """min sum_k log(1 + exp(-w_k.x)) over the intersection of the agents' sets:
    at a consensus point every agent holds the same x."""
    k = problem.block_dim
    ws = np.array([_logistic_weight(o) for o in problem.objectives])
    lo, hi, cons = np.full(k, -np.inf), np.full(k, np.inf), []
    for _, mirror in agent_blocks(problem):
        l_i, h_i, c_i = _set_constraints(*set_of(mirror), slice(0, k), k)
        lo, hi = np.maximum(lo, l_i), np.minimum(hi, h_i)
        cons += c_i

    def f(x):
        return float(np.logaddexp(0.0, -(ws @ x)).sum())

    def grad(x):
        s = -(ws @ x)
        return -(np.exp(s - np.logaddexp(0.0, s)) @ ws)

    res = _slsqp(f, grad, np.full(k, 1.0 / k), lo, hi, cons)
    if not res.success:
        raise CheckError(f"reference solve for dis_log failed: {res.message}")
    return f(res.x)


def _d_sp_f_star(problem) -> float:
    """min sum_k x_k.Q_k x_k s.t. sum_k A_k x_k = sum_k d_k, x_k in its box: SLSQP,
    then an exact KKT solve on the bounds it left inactive."""
    blocks = agent_blocks(problem)
    n = problem.dim
    h = np.zeros((n, n))
    for o, (b, _) in zip(problem.objectives, blocks):
        h[b, b] = _quadratic_hessian(o, b.stop - b.start)
    c = np.hstack(problem.a_blocks)
    e = np.sum(problem.d_blocks, axis=0)
    lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
    for b, mirror in blocks:
        lo[b], hi[b] = set_of(mirror)[1]
    cons = [{"type": "eq", "fun": lambda x: c @ x - e, "jac": lambda x: c}]
    x0 = np.clip(np.linalg.lstsq(c, e, rcond=None)[0], lo, hi)
    # SLSQP only has to find the active bounds; it may stop on a line-search
    # message at this scale, so the KKT solve and test below decide
    x = _slsqp(lambda x: 0.5 * x @ h @ x, lambda x: h @ x, x0, lo, hi, cons).x
    at_lo, at_hi = x <= lo + 1e-7, x >= hi - 1e-7
    x[at_lo], x[at_hi] = lo[at_lo], hi[at_hi]
    free = ~(at_lo | at_hi)
    m = c.shape[0]
    kkt = np.block([[h[np.ix_(free, free)], c[:, free].T], [c[:, free], np.zeros((m, m))]])
    rhs = np.concatenate([-h[np.ix_(free, ~free)] @ x[~free], e - c[:, ~free] @ x[~free]])
    x[free] = np.linalg.lstsq(kkt, rhs, rcond=None)[0][: free.sum()]
    # KKT: some nu has H x + C^T nu = 0 on the free variables, >= 0 on those at
    # a lower bound and <= 0 on those at an upper bound; an LP finds one
    from scipy.optimize import linprog

    g, tol = h @ x, 1e-9 * max(1.0, float(np.abs(h @ x).max()))
    ct = c.T
    a_ub = np.vstack([-ct[at_lo], ct[at_hi]])
    b_ub = np.concatenate([g[at_lo], -g[at_hi]]) + tol
    a_ub = np.vstack([a_ub, ct[free], -ct[free]])
    b_ub = np.concatenate([b_ub, -g[free] + tol, g[free] + tol])
    witness = linprog(np.zeros(m), A_ub=a_ub, b_ub=b_ub, bounds=(None, None), method="highs")
    if np.any(x < lo) or np.any(x > hi) or witness.status != 0:
        raise CheckError("reference solve for d_sp did not reach a KKT point")
    return float(0.5 * x @ h @ x)


def own_f_star(name: str, problem) -> float:
    """f* of a catalogue problem, computed without the program's oracle."""
    if name == "scalar":
        return 0.5
    if name == "logregress":
        return math.log1p(math.exp(-1.0))
    if name == "nbp":
        return _min_l1(problem.a, problem.b, nonnegative=True)
    if name == "d_bp_r":
        a = np.vstack([m.projector.a for m in problem.mirrors])
        b = np.concatenate([m.projector.b for m in problem.mirrors])
        return problem.n_agents * _min_l1(a, b, nonnegative=False)
    if name == "d_bp_c":
        return _min_l1(np.hstack(problem.a_blocks), np.sum(problem.d_blocks, axis=0),
                       nonnegative=False)
    if name == "dis_log":
        return _dis_log_f_star(problem)
    if name == "d_sp":
        return _d_sp_f_star(problem)
    raise CheckError(f"no reference optimum for problem {name!r}")
