"""The accelerated primal-dual mirror vector fields.

Centralized flow on (x, u, lam, v) for min f(x) s.t. A x = b, x in X:

    dx   = (alpha/t) (grad_conj(u) - x)
    du   = -(t/alpha) (grad f(x) + beta A^T (A x - b) + A^T v)
    dlam = (alpha/t) (v - lam)
    dv   = (t/alpha) (A grad_conj(u) - b)

The consensus variant replaces A^T(Ax - b) by L x and A by L; the
monotropic variant adds auxiliary blocks (y, z) that decompose the coupled
resource constraint through the graph. Smoothed variants take the surrogate
gradient grad f(x, mu(t)), with mu(t) from ``SystemParams.mu_at`` and never
carried as state; a smooth f is the mu = 0 case. An equivalent second-order
form of the centralized flow is provided for cross-validation; it needs the
conjugate Hessian and therefore only supports the smooth map kinds.

``SYSTEMS`` names the seven flows: each is a problem class (the shape), a
smoothness flag and, for the projection specialization ``apdpd``, the
mirror-map class it needs. ``mismatch`` and ``build_field`` read that table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError, SizeError, UnsupportedOperationError
from .mirror_maps import ProjectionMap
from .problems import ConsensusProblem, ConstrainedProblem, MonotropicProblem


@dataclass(frozen=True)
class SystemParams:
    """A flow's constants; a smoothed objective has mu(t) = mu0 t^(-mu_power).

    mu_power None means 2 alpha. A smooth objective has mu0 = mu_power = None.
    """
    alpha: float
    beta: float = 1.0
    t0: float = 1.0
    mu0: float | None = None
    mu_power: float | None = None

    def __post_init__(self):
        if not 2 <= self.alpha < math.inf:
            raise ParameterError(f"alpha must be finite and >= 2, got {self.alpha}")
        if not 0 < self.beta < math.inf:
            raise ParameterError(f"beta must be finite and positive, got {self.beta}")
        if not 0 < self.t0 < math.inf:
            raise ParameterError(f"t0 must be finite and positive, got {self.t0}")
        if self.mu0 is not None and not 0 < self.mu0 < math.inf:
            raise ParameterError(f"mu0 must be finite and positive, got {self.mu0}")

    def mu_at(self, t: float) -> float:
        """mu(t) = mu0 t^(-mu_power) for t >= t0; 0 at any t when mu0 is None."""
        if self.mu0 is None:
            return 0.0
        if t < self.t0:
            raise ParameterError(f"mu_at called with t = {t} < t0 = {self.t0}")
        power = 2.0 * self.alpha if self.mu_power is None else self.mu_power
        return self.mu0 * float(t) ** -power


@dataclass(frozen=True)
class StateLayout:
    blocks: tuple  # ((name, size), ...)

    @property
    def size(self) -> int:
        return sum(s for _, s in self.blocks)

    def split(self, y: np.ndarray) -> dict:
        if y.shape[0] != self.size:
            raise SizeError(f"state has dim {y.shape[0]}, layout needs {self.size}")
        out, pos = {}, 0
        for name, s in self.blocks:
            out[name] = y[pos:pos + s]
            pos += s
        return out

    def pack(self, **parts) -> np.ndarray:
        return np.concatenate([np.asarray(parts[name], dtype=float) for name, _ in self.blocks])


@dataclass(frozen=True)
class VectorField:
    kind: str
    rhs: object  # callable (t, y) -> dy
    layout: StateLayout
    problem: object
    params: SystemParams
    initial_state: np.ndarray = field(repr=False)


def _check_time(t: float):
    if t <= 0:
        raise DomainError(f"the dynamics are defined for t > 0, got t = {t}")


def _dual_start(problem) -> np.ndarray:
    """The default dual start u0: each mirror map's dual_start over its block."""
    return np.concatenate([np.full(m.dim, m.dual_start) for m in problem.mirrors])


# --------------------------------------------------------------------------
# centralized first-order flows
# --------------------------------------------------------------------------

def _centralized_field(problem: ConstrainedProblem, params: SystemParams, kind: str) -> VectorField:
    a, b = problem.a, problem.b
    mirror = problem.mirror
    n, m = problem.dim, problem.n_constraints
    alpha, beta = params.alpha, params.beta
    layout = StateLayout((("x", n), ("u", n), ("lam", m), ("v", m)))
    a_t_mat = a.T
    grad_conjugate, grad_f = mirror.grad_conjugate, problem.grad
    mu_at = params.mu_at
    o1, o2, o3 = n, 2 * n, 2 * n + m

    # each block is written into `out` in place, in the operation order of
    # the formulas in the module docstring, so the bits do not move
    def rhs(t, y):
        _check_time(t)
        a_t, t_a = alpha / t, t / alpha
        x, u, lam, v = y[:o1], y[o1:o2], y[o2:o3], y[o3:]
        gx = grad_conjugate(u)
        r = np.dot(a, x)
        r -= b
        grad = grad_f(x, mu_at(t))
        out = np.empty_like(y)
        dx, du, dlam, dv = out[:o1], out[o1:o2], out[o2:o3], out[o3:]
        np.subtract(gx, x, out=dx)
        dx *= a_t
        np.dot(a_t_mat, r, out=du)
        du *= beta
        np.add(grad, du, out=du)
        du += np.dot(a_t_mat, v)
        du *= -t_a
        np.subtract(v, lam, out=dlam)
        dlam *= a_t
        np.dot(a, gx, out=dv)
        dv -= b
        dv *= t_a
        return out

    u0 = _dual_start(problem)
    y0 = layout.pack(x=mirror.grad_conjugate(u0), u=u0, lam=np.zeros(m), v=np.zeros(m))
    return VectorField(kind, rhs, layout, problem, params, y0)


def apdmd_second_order_field(problem: ConstrainedProblem, params: SystemParams) -> VectorField:
    """Equivalent second-order form on (x, dx, lam, dlam), for cross-checks.

    d2x   + (alpha+1)/t dx + H(w) (grad f(x) + beta A^T(Ax-b) + A^T(lam + t/alpha dlam)) = 0
    d2lam + (alpha+1)/t dlam - (A w - b) = 0,  where w = x + (t/alpha) dx
    and H(w) is the conjugate Hessian evaluated at grad_psi(w).
    """
    if reason := mismatch("apdmd", problem):
        raise ParameterError(reason)
    mirror = problem.mirror
    if not mirror.smooth:
        raise UnsupportedOperationError("second-order form needs a smooth mirror map")
    a, b = problem.a, problem.b
    n, m = problem.dim, problem.n_constraints
    alpha, beta = params.alpha, params.beta
    layout = StateLayout((("x", n), ("dx", n), ("lam", m), ("dlam", m)))

    def rhs(t, y):
        _check_time(t)
        s = layout.split(y)
        x, dx, lam, dlam = s["x"], s["dx"], s["lam"], s["dlam"]
        w = x + (t / alpha) * dx
        h = mirror.hessian_conjugate(mirror.grad_psi(w))
        g = problem.grad(x) + beta * (a.T @ (a @ x - b)) + a.T @ (lam + (t / alpha) * dlam)
        ddx = -((alpha + 1.0) / t) * dx - h @ g
        ddlam = -((alpha + 1.0) / t) * dlam + a @ w - b
        return layout.pack(x=dx, dx=ddx, lam=dlam, dlam=ddlam)

    u0 = _dual_start(problem)
    y0 = layout.pack(x=mirror.grad_conjugate(u0), dx=np.zeros(n),
                     lam=np.zeros(m), dlam=np.zeros(m))
    return VectorField("apdmd2", rhs, layout, problem, params, y0)


# --------------------------------------------------------------------------
# distributed consensus flows
# --------------------------------------------------------------------------

def _consensus_field(problem: ConsensusProblem, params: SystemParams, kind: str) -> VectorField:
    l_n = problem.lifted.l_n
    nodes = l_n.shape[0]
    n = problem.dim
    alpha, beta = params.alpha, params.beta
    layout = StateLayout((("x", n), ("u", n), ("lam", n), ("v", n)))
    grad_stacked, map_stacked = problem.grad_stacked, problem.map_stacked
    mu_at = params.mu_at

    # du = -(t/alpha) (grad + L (beta x + v)) and dv = (t/alpha) L gx, with
    # L = L_n (x) I_m applied to the (nodes x m) view of a stacked vector; each
    # block is written into `out` in place, in the operation order shown
    def rhs(t, y):
        _check_time(t)
        a_t, t_a = alpha / t, t / alpha
        x, u, lam, v = y[:n], y[n:2 * n], y[2 * n:3 * n], y[3 * n:]
        gx = map_stacked(u)
        grad = grad_stacked(x, mu_at(t))
        out = np.empty_like(y)
        dx, du, dlam, dv = out[:n], out[n:2 * n], out[2 * n:3 * n], out[3 * n:]
        np.subtract(gx, x, out=dx)
        dx *= a_t
        w = beta * x
        w += v
        np.dot(l_n, w.reshape(nodes, -1), out=du.reshape(nodes, -1))
        du += grad
        du *= -t_a
        np.subtract(v, lam, out=dlam)
        dlam *= a_t
        np.dot(l_n, gx.reshape(nodes, -1), out=dv.reshape(nodes, -1))
        dv *= t_a
        return out

    u0 = _dual_start(problem)
    y0 = layout.pack(x=problem.map_stacked(u0), u=u0, lam=np.zeros(n), v=np.zeros(n))
    return VectorField(kind, rhs, layout, problem, params, y0)


# --------------------------------------------------------------------------
# distributed monotropic flows
# --------------------------------------------------------------------------

def _demo_field(problem: MonotropicProblem, params: SystemParams, kind: str) -> VectorField:
    a_bar, d = problem.a_bar, problem.d
    a_bar_t = a_bar.T
    lap = problem.lifted
    l_n = lap.l_n
    nodes = l_n.shape[0]
    n, q = problem.dim, problem.multiplier_dim
    alpha = params.alpha
    layout = StateLayout((("x", n), ("u", n), ("lam", q), ("v", q), ("y", q), ("z", q)))
    grad_stacked, map_stacked = problem.grad_stacked, problem.map_stacked
    mu_at = params.mu_at
    o1, o2, o3, o4, o5 = n, 2 * n, 2 * n + q, 2 * n + 2 * q, 2 * n + 3 * q

    # The brackets du = grad + Abar^T v, dv = Abar gx - d + L (z - lam),
    # dz = L v and the three differences are built in `out` in the order
    # shown; one multiply then applies each block's factor alpha/t, t/alpha
    # or -t/alpha, the same products as scaling block by block.
    def rhs(t, y):
        _check_time(t)
        a_t, t_a = alpha / t, t / alpha
        x, u = y[:o1], y[o1:o2]
        lam, v, yv, z = y[o2:o3], y[o3:o4], y[o4:o5], y[o5:]
        gx = map_stacked(u)
        grad = grad_stacked(x, mu_at(t))
        out = np.empty_like(y)
        dx, du, dlam = out[:o1], out[o1:o2], out[o2:o3]
        dv, dy, dz = out[o3:o4], out[o4:o5], out[o5:]
        np.subtract(gx, x, out=dx)
        np.dot(a_bar_t, v, out=du)
        du += grad
        np.subtract(v, lam, out=dlam)
        np.dot(a_bar, gx, out=dv)
        dv -= d
        dv += lap.apply(z - lam)
        np.subtract(z, yv, out=dy)
        np.dot(l_n, v.reshape(nodes, -1), out=dz.reshape(nodes, -1))
        factor = np.empty_like(y)
        factor[:o1] = factor[o2:o3] = factor[o4:o5] = a_t
        factor[o1:o2] = factor[o5:] = -t_a
        factor[o3:o4] = t_a
        out *= factor
        return out

    u0 = _dual_start(problem)
    x0 = problem.map_stacked(u0)
    # start the auxiliary variable at the least-squares solution of
    # L y = d - A x0, which removes the representable part of the initial
    # resource residual (computable from problem data alone)
    aux0, *_ = np.linalg.lstsq(lap.matrix, d - a_bar @ x0, rcond=None)
    y0 = layout.pack(x=x0, u=u0, lam=np.zeros(q),
                     v=np.zeros(q), y=aux0, z=aux0)
    return VectorField(kind, rhs, layout, problem, params, y0)


@dataclass(frozen=True)
class System:
    """What a flow accepts: the problem class, whether its objective is
    smoothed, and the mirror-map class it needs beyond the problem's own."""
    problem: type
    smoothed: bool
    mirror: type | None = None


SYSTEMS = {
    "apdmd": System(ConstrainedProblem, False),
    "apdpd": System(ConstrainedProblem, False, ProjectionMap),
    "sapdmd": System(ConstrainedProblem, True),
    "adpdmd": System(ConsensusProblem, False),
    "sadpdmd": System(ConsensusProblem, True),
    "admd": System(MonotropicProblem, False),
    "sadmd": System(MonotropicProblem, True),
}

_BUILDERS = {ConstrainedProblem: _centralized_field, ConsensusProblem: _consensus_field,
             MonotropicProblem: _demo_field}


def mismatch(system: str, problem) -> str | None:
    """Why the system cannot run on the problem, or None when it can."""
    if system not in SYSTEMS:
        return f"unknown system {system!r}; choose from {sorted(SYSTEMS)}"
    spec = SYSTEMS[system]
    if not isinstance(problem, spec.problem):
        return (f"system {system!r} expects a {spec.problem.__name__}, "
                f"got {type(problem).__name__}")
    if problem.is_smoothed != spec.smoothed:
        return f"system {system!r} needs a {'smoothed' if spec.smoothed else 'smooth'} objective"
    if spec.mirror and not isinstance(problem.mirror, spec.mirror):
        return (f"system {system!r} needs a {spec.mirror.__name__} mirror map, "
                f"got {type(problem.mirror).__name__}")
    return None


def check_params(system: str, params: SystemParams):
    """Raise ParameterError when the system's analysis does not cover params.

    A smoothed system needs mu(t) = mu0 t^(-p) with p >= 4 alpha / 3. With
    that schedule the dissipation inequality dV/dt <= -((alpha - 2) t / alpha^2)
    core holds. mu enters dV/dt as 8 kappa t mu / alpha^2 + (t^2 / alpha^2) mu'
    (d_mu f_mu(x) - d_mu f_mu(x*) + 4 kappa). ``smooth_abs`` has
    0 <= d_mu f_mu <= kappa, so the bracket is at least 3 kappa, and the smooth
    part leaves -((alpha - 2) t / alpha^2)(core - 4 kappa mu). In the worst case
    the mu terms sum to (kappa t mu / alpha^2)(4 (alpha - 2) + 8 - 3 p), which
    is <= 0 iff p >= 4 alpha / 3. This bound is re-derived here, not checked
    against the paper. The default p = 2 alpha meets it for every alpha >= 2.
    """
    spec = SYSTEMS[system]
    if spec.smoothed != (params.mu0 is not None):
        raise ParameterError(f"{system} needs mu0 in SystemParams" if spec.smoothed
                             else f"{system} has a smooth objective; mu0 must be None")
    if not spec.smoothed and params.mu_power is not None:
        raise ParameterError(f"{system} has a smooth objective; mu_power must be None")
    if params.mu_power is not None and not 4 * params.alpha / 3 <= params.mu_power < math.inf:
        raise ParameterError(f"{system} needs a finite mu_power >= 4 alpha / 3 = "
                             f"{4 * params.alpha / 3:g}; got {params.mu_power}")
    if spec.problem is MonotropicProblem and params.beta != 1.0:
        raise ParameterError(f"{system} is analyzed with beta = 1; got beta = {params.beta}")


def build_field(system: str, problem, params: SystemParams) -> VectorField:
    if reason := mismatch(system, problem):
        raise ParameterError(reason)
    check_params(system, params)
    # a clamp flag reports on one run: the run of the field built here
    for mirror in problem.mirrors:
        mirror.clamp_triggered = False
    return _BUILDERS[SYSTEMS[system].problem](problem, params, system)
