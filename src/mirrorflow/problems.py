"""Problem definitions and the desk-scale experiment catalogue.

Three problem shapes are supported:

  ConstrainedProblem   min f(x)              s.t. A x = b, x in X
  ConsensusProblem     min sum_i f_i(x_i)    s.t. L x = 0, x_i in X_i
  MonotropicProblem    min sum_i f_i(x_i)    s.t. sum_i A_i x_i = sum_i d_i,
                                                  x_i in X_i
                       (decomposed as Abar x - d + L y = 0 with an auxiliary y)

The catalogue builders are pure functions of their seed. Reference primal-dual
solutions come from ``reference_solution``, which never touches the mirror
dynamics: smooth problems go through an augmented-Lagrangian method with
projected accelerated inner solves, and the l1 problems are solved as linear
programs whose optimality is certified by an explicit dual feasibility check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ParameterError, SizeError
from .graph import LiftedLaplacian, UndirectedGraph, from_edges, is_connected, lift, ring
from .mirror_maps import (
    EuclideanMap,
    ItakuraSaitoMap,
    MirrorMap,
    NegEntropyMap,
    ProjectionMap,
    SimplexEntropyMap,
)
from .numerics import SeededRng, as_matrix, as_vector, random_orthogonal_rows, random_psd
from .projections import AffineSet, Box, HalfSpace, Sphere
from .smoothing import L1Objective, smooth_abs_grad


@dataclass(frozen=True)
class SmoothObjective:
    """Convex differentiable objective given by value/gradient oracles."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    lipschitz: float  # a Lipschitz bound of grad, which the reference oracle's step needs

    def exact(self, x) -> float:
        return self.value(x)


def logistic_objective(w) -> SmoothObjective:
    """f(x) = log(1 + exp(-w.x)), the margin loss used by the regression runs."""
    w = as_vector(w, "logistic weight")

    def value(x):
        return float(np.logaddexp(0.0, -(w @ x)))

    def grad(x):
        s = -(w @ x)
        sig = np.exp(s - np.logaddexp(0.0, s))  # sigmoid(s), overflow-safe
        return -sig * w

    return SmoothObjective(value, grad, lipschitz=0.25 * float(w @ w))


def quadratic_objective(q) -> SmoothObjective:
    """f(x) = x.Q x for a symmetric PSD Q."""
    q = as_matrix(q, "quadratic matrix")
    q_sym = q + q.T

    def value(x):
        return float(x @ q @ x)

    def grad(x):
        return q_sym @ x

    return SmoothObjective(value, grad, lipschitz=2.0 * float(np.linalg.norm(q, 2)))


class _Agents:
    """What all three problem shapes share: one objective, one mirror map and
    one block of the stacked x per agent; a centralized problem is one agent."""

    @property
    def n_agents(self) -> int:
        return len(self.objectives)

    @property
    def is_smoothed(self) -> bool:
        return isinstance(self.objectives[0], L1Objective)

    @property
    def kappa(self) -> float:  # the l1 surrogate's bound, 1/4 per entry
        return self.dim / 4.0 if self.is_smoothed else 0.0

    def f_exact(self, x) -> float:
        return sum(o.exact(xi) for o, xi in zip(self.objectives, self.blocks(x)))

    def f_smooth(self, x, mu: float) -> float:
        """f_mu(x); a smooth f is its own surrogate, the mu = 0 case."""
        if not self.is_smoothed:
            return self.f_exact(x)
        return sum(o.value(xi, mu) for o, xi in zip(self.objectives, self.blocks(x)))

    def set_violation(self, x) -> float:
        return max(m.set_violation(xi) for m, xi in zip(self.mirrors, self.blocks(x)))


@dataclass(frozen=True)
class ConstrainedProblem(_Agents):
    objective: SmoothObjective | L1Objective
    a: np.ndarray
    b: np.ndarray
    mirror: MirrorMap

    def __post_init__(self):
        a = as_matrix(self.a, "constraint matrix")
        b = as_vector(self.b, "constraint right-hand side")
        if a.shape[0] != b.shape[0]:
            raise SizeError("rows(A) must equal len(b)")
        if self.mirror.dim != a.shape[1]:
            raise SizeError("mirror map dimension must equal cols(A)")

    @property
    def dim(self) -> int:
        return self.a.shape[1]

    @property
    def n_constraints(self) -> int:
        return self.a.shape[0]

    @cached_property
    def objectives(self) -> tuple:
        return (self.objective,)

    @cached_property
    def mirrors(self) -> tuple:
        return (self.mirror,)

    def blocks(self, x) -> tuple:
        return (x,)

    def grad(self, x, mu: float | None = None) -> np.ndarray:
        if isinstance(self.objective, L1Objective):
            return self.objective.grad(x, mu)
        return self.objective.grad(x)


class _AgentStack(_Agents):
    """What the two distributed problem shapes share: the agents of a
    connected graph, acting on the stacked x."""

    def _check_agents(self):
        if len(self.objectives) != self.graph.n or len(self.mirrors) != self.graph.n:
            raise SizeError("need one objective and one mirror map per agent")
        if not is_connected(self.graph):
            raise ParameterError("communication graph must be connected")
        if len({isinstance(o, L1Objective) for o in self.objectives}) > 1:
            raise ParameterError("agents must be all smooth or all smoothed")

    def grad_stacked(self, x, mu: float | None = None) -> np.ndarray:
        if self.is_smoothed:  # the l1 surrogate acts entrywise, so one call serves every block
            return smooth_abs_grad(np.asarray(x, dtype=float), mu)
        return np.concatenate([o.grad(xi) for o, xi in zip(self.objectives, self.blocks(x))])


@dataclass(frozen=True)
class ConsensusProblem(_AgentStack):
    objectives: tuple
    mirrors: tuple
    graph: UndirectedGraph
    block_dim: int

    def __post_init__(self):
        self._check_agents()
        for m in self.mirrors:
            if m.dim != self.block_dim:
                raise SizeError("every agent block must have the common dimension")

    @cached_property
    def _affine_stack(self):
        """The agents' (A_i, pinv(A_i), b_i) stacked, when every local set is affine."""
        if not all(m.projector.kind == "affine" for m in self.mirrors):
            return None
        projs = [m.projector for m in self.mirrors]
        return (np.stack([p.a for p in projs]), np.stack([p.pinv for p in projs]),
                np.stack([p.b for p in projs]))

    @property
    def dim(self) -> int:
        return self.n_agents * self.block_dim

    @cached_property
    def lifted(self) -> LiftedLaplacian:
        return lift(self.graph, self.block_dim)

    def blocks(self, x) -> np.ndarray:
        return np.reshape(x, (self.n_agents, self.block_dim))

    def map_stacked(self, u) -> np.ndarray:
        ub = self.blocks(u)
        if self._affine_stack is None:
            return np.concatenate([m.grad_conjugate(ui) for m, ui in zip(self.mirrors, ub)])
        a_s, pinv_s, b_s = self._affine_stack
        resid = b_s - np.einsum("kmn,kn->km", a_s, ub)
        return (ub + np.einsum("knm,km->kn", pinv_s, resid)).ravel()


@dataclass(frozen=True)
class MonotropicProblem(_AgentStack):
    objectives: tuple
    a_blocks: tuple      # A_i, each m x p_i
    d_blocks: tuple      # d_i in R^m
    mirrors: tuple
    graph: UndirectedGraph
    m: int               # coupled-resource dimension

    def __post_init__(self):
        self._check_agents()
        for a_i, d_i, mir in zip(self.a_blocks, self.d_blocks, self.mirrors):
            if a_i.shape[0] != self.m or d_i.shape[0] != self.m:
                raise SizeError("every A_i must have m rows and every d_i length m")
            if mir.dim != a_i.shape[1]:
                raise SizeError("mirror dims must match cols(A_i)")
        object.__setattr__(self, "_all_euclidean",
                           all(isinstance(m, EuclideanMap) for m in self.mirrors))

    # the derived data is built on first use and kept: the problem is frozen
    @cached_property
    def p_sizes(self) -> tuple:
        return tuple(a.shape[1] for a in self.a_blocks)

    @cached_property
    def dim(self) -> int:
        return sum(self.p_sizes)

    @property
    def multiplier_dim(self) -> int:
        return self.n_agents * self.m

    @cached_property
    def a_bar(self) -> np.ndarray:
        out = np.zeros((self.multiplier_dim, self.dim))
        row = col = 0
        for a_i in self.a_blocks:
            out[row:row + self.m, col:col + a_i.shape[1]] = a_i
            row += self.m
            col += a_i.shape[1]
        return out

    @cached_property
    def d(self) -> np.ndarray:
        return np.concatenate(self.d_blocks)

    @cached_property
    def lifted(self) -> LiftedLaplacian:
        return lift(self.graph, self.m)

    def blocks(self, x) -> list:
        out, pos = [], 0
        for p in self.p_sizes:
            out.append(np.asarray(x)[pos:pos + p])
            pos += p
        return out

    def map_stacked(self, u) -> np.ndarray:
        if self._all_euclidean:
            return np.asarray(u, dtype=float)
        return np.concatenate(
            [m.grad_conjugate(ui) for m, ui in zip(self.mirrors, self.blocks(u))]
        )


@dataclass(frozen=True)
class ReferenceSolution:
    """Independently computed optimum used by all convergence diagnostics."""

    x_star: np.ndarray
    lam_star: np.ndarray
    f_star: float
    kkt_residual: float
    method: str
    y_star: np.ndarray | None = None


# --------------------------------------------------------------------------
# catalogue builders
# --------------------------------------------------------------------------

def build_scalar() -> ConstrainedProblem:
    """min x^2/2 subject to x = 1 on the real line; optimum (1, -1) by hand."""
    obj = SmoothObjective(
        value=lambda x: float(0.5 * x[0] ** 2),
        grad=lambda x: np.array([x[0]]),
        lipschitz=1.0,
    )
    return ConstrainedProblem(obj, np.array([[1.0]]), np.array([1.0]), EuclideanMap(1))


def build_logistic_centralized() -> ConstrainedProblem:
    """Logistic loss over the unit 4-simplex with two affine constraints.

    The objective is constant on the simplex (the weight vector is all ones),
    so the optimal value is log(1 + e^-1) and the gap metric measures
    feasibility progress.
    """
    a = np.array([[0.2, 1.0, 1.0, 2.0], [0.0, 1.0, 0.5, 1.0]])
    b = np.array([1.0, 1.0])
    return ConstrainedProblem(logistic_objective(np.ones(4)), a, b, SimplexEntropyMap(4))


def build_dis_logistic() -> ConsensusProblem:
    """Four logistic agents on a ring with simplex / orthant / sphere /
    half-space local sets (entropy, Burg-entropy, and projection maps)."""
    weights = [np.array([i - 1.0, i / 2.0, float(i), i + 1.0]) for i in (1, 2, 3, 4)]
    objectives = tuple(logistic_objective(w) for w in weights)
    mirrors = (
        SimplexEntropyMap(4),
        ItakuraSaitoMap(4),
        ProjectionMap(Sphere(center=np.array([0.1, 0.2, 0.5, 0.8]), radius=2.0)),
        ProjectionMap(HalfSpace(a=np.ones(4), b=4.0)),
    )
    return ConsensusProblem(objectives, mirrors, ring(4), block_dim=4)


def build_dist_qp(seed: int) -> MonotropicProblem:
    """Ten quadratic agents on a ring sharing a per-coordinate supply of 7.

    Agent k (k = 0..9) owns the box [k+2, k+3]^5; with zero-based indexing
    the box sums bracket the total supply 70, which keeps the instance
    feasible with an interior point.
    """
    rng = SeededRng(seed)
    m = 5
    objectives = tuple(quadratic_objective(random_psd(rng, m)) for _ in range(10))
    mirrors = tuple(
        ProjectionMap(Box(lo=np.full(m, k + 2.0), hi=np.full(m, k + 3.0))) for k in range(10)
    )
    a_blocks = tuple(np.eye(m) for _ in range(10))
    d_blocks = tuple(np.full(m, 7.0) for _ in range(10))
    return MonotropicProblem(objectives, a_blocks, d_blocks, mirrors, ring(10), m)


def _planted_sparse(rng: SeededRng, dim: int, sparsity: int, signed: bool) -> np.ndarray:
    support: list[int] = []
    while len(support) < sparsity:
        cand = int(rng.integers(0, dim, 1)[0])
        if cand not in support:
            support.append(cand)
    x0 = np.zeros(dim)
    for idx in support:
        mag = 0.5 + float(rng.uniform())
        if signed and float(rng.uniform()) < 0.5:
            mag = -mag
        x0[idx] = mag
    return x0


def build_nbp(seed: int) -> ConstrainedProblem:
    """Nonnegative l1 recovery: 10 orthonormal Gaussian measurements of a
    2-sparse nonnegative signal in R^40, entropy map on the orthant."""
    rng = SeededRng(seed)
    a = random_orthogonal_rows(rng, 10, 40)
    x0 = _planted_sparse(rng, 40, 2, signed=False)
    b = a @ x0
    return ConstrainedProblem(L1Objective(), a, b, NegEntropyMap(40))


def _gaussian_recovery(seed: int) -> tuple:
    """(A, b = A x0): 10 Gaussian measurements, A with N(0, 1/10) entries, of a
    2-sparse signed signal x0 in R^60; both partitioned recoveries split it."""
    rng = SeededRng(seed)
    a = rng.normal(10, 60) / np.sqrt(10.0)
    return a, a @ _planted_sparse(rng, 60, 2, signed=True)


def build_dbp_row(seed: int) -> ConsensusProblem:
    """Row-partitioned l1 recovery: 5 agents each holding 2 of 10 Gaussian
    measurements of a 2-sparse signal in R^60; affine-projection maps."""
    a_full, b_full = _gaussian_recovery(seed)
    mirrors = []
    for i in range(5):
        rows = slice(2 * i, 2 * i + 2)
        mirrors.append(ProjectionMap(AffineSet(a_full[rows], b_full[rows])))
    objectives = tuple(L1Objective() for _ in range(5))
    return ConsensusProblem(objectives, tuple(mirrors), ring(5), block_dim=60)


def build_dbp_col(seed: int) -> MonotropicProblem:
    """Column-partitioned l1 recovery: a 10x60 Gaussian system split into 10
    agents of 6 columns each, coupled through the shared measurement budget."""
    a_full, b = _gaussian_recovery(seed)
    a_blocks = tuple(a_full[:, 6 * i:6 * i + 6].copy() for i in range(10))
    d_blocks = tuple(b / 10.0 for _ in range(10))
    objectives = tuple(L1Objective() for _ in range(10))
    mirrors = tuple(EuclideanMap(6) for _ in range(10))
    return MonotropicProblem(objectives, a_blocks, d_blocks, mirrors, ring(10), m=10)


def build_consensus_quadratic(edge_weight: float = 1.0) -> ConsensusProblem:
    """Two Euclidean quadratic agents on a weighted edge; a small smooth
    consensus problem whose energy certificate is finite and, for heavy
    edge weights, tight enough to exercise the bound checks."""
    centers = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]

    def make(c):
        return SmoothObjective(
            value=lambda x, c=c: float(0.5 * np.sum((x - c) ** 2)),
            grad=lambda x, c=c: x - c,
            lipschitz=1.0,
        )

    objectives = tuple(make(c) for c in centers)
    mirrors = (EuclideanMap(2), EuclideanMap(2))
    return ConsensusProblem(objectives, mirrors, from_edges(2, [(0, 1)], [edge_weight]),
                            block_dim=2)


def _seedless(build: Callable) -> Callable:
    """The catalogue entry (seed) -> problem of a builder that takes no seed,
    carrying the builder's docstring, which ``mirrorflow list`` prints."""
    def entry(seed: int = 1):
        return build()

    entry.__doc__ = build.__doc__
    return entry


PROBLEMS: dict[str, Callable] = {
    "scalar": _seedless(build_scalar),
    "logregress": _seedless(build_logistic_centralized),
    "dis_log": _seedless(build_dis_logistic),
    "d_sp": build_dist_qp,
    "nbp": build_nbp,
    "d_bp_r": build_dbp_row,
    "d_bp_c": build_dbp_col,
    "consensus_quadratic": _seedless(build_consensus_quadratic),
}


def _spec_object(spec, what: str) -> dict:
    if not isinstance(spec, dict):
        raise ParameterError(f"{what} must be a JSON object, got {type(spec).__name__}")
    return spec


def _spec_array(spec: dict, key: str, what: str, scalar: bool = False):
    """spec[key] as a float array, or a float when scalar; else a ParameterError."""
    if key not in spec:
        raise ParameterError(f"{what} needs {key!r}")
    try:
        value = np.asarray(spec[key], dtype=float)
        return float(value) if scalar else value
    except (TypeError, ValueError):
        raise ParameterError(f"{what} {key!r} is not {'a number' if scalar else 'numeric'}: "
                             f"{spec[key]!r}") from None


def _objective_from_spec(spec, n: int):
    """The objective on R^n, n = cols(A): q must be n x n and w of length n."""
    what = "problem_spec objective"
    kind = _spec_object(spec, what).get("kind", "quadratic")
    if kind == "l1":
        return L1Objective()
    builds = {"quadratic": (quadratic_objective, "q", (n, n)),
              "logistic": (logistic_objective, "w", (n,))}
    if kind not in builds:
        raise ParameterError(f"unknown objective kind {kind!r}")
    build, key, shape = builds[kind]
    value = _spec_array(spec, key, what)
    if value.shape != shape:
        raise ParameterError(f"{what} {key!r} has shape {value.shape}, but cols(A) = {n} "
                             f"needs {shape}")
    return build(value)


def _mirror_from_spec(spec, dim: int) -> MirrorMap:
    what = "problem_spec set"
    kind = _spec_object(spec, what).get("kind", "euclidean")
    for smooth_map in (EuclideanMap, NegEntropyMap, ItakuraSaitoMap, SimplexEntropyMap):
        if kind == smooth_map.kind:
            return smooth_map(dim)
    if kind == "box":
        return ProjectionMap(Box(lo=_spec_array(spec, "lo", what), hi=_spec_array(spec, "hi", what)))
    if kind == "sphere":
        return ProjectionMap(Sphere(center=_spec_array(spec, "center", what),
                                    radius=_spec_array(spec, "radius", what, scalar=True)))
    if kind == "halfspace":
        return ProjectionMap(HalfSpace(a=_spec_array(spec, "a", what),
                                       b=_spec_array(spec, "b", what, scalar=True)))
    if kind == "affine":
        return ProjectionMap(AffineSet(a=_spec_array(spec, "a", what), b=_spec_array(spec, "b", what)))
    raise ParameterError(f"unknown set kind {kind!r}")


def problem_from_spec(spec: dict) -> ConstrainedProblem:
    """Build a centralized instance from matrix literals, e.g.

    {"a": [[1, 1]], "b": [2], "objective": {"kind": "quadratic", "q": ...},
     "set": {"kind": "box", "lo": [...], "hi": [...]}}
    """
    spec = _spec_object(spec, "problem_spec")
    a = as_matrix(_spec_array(spec, "a", "problem_spec"), "constraint matrix")
    b = as_vector(_spec_array(spec, "b", "problem_spec"), "right-hand side")
    mirror = _mirror_from_spec(spec.get("set", {}), a.shape[1])
    objective = _objective_from_spec(spec.get("objective", {}), a.shape[1])
    return ConstrainedProblem(objective, a, b, mirror)


def reference_solution(problem, tol: float = 1e-8) -> ReferenceSolution:
    """High-accuracy primal-dual optimum computed independently of the
    mirror dynamics; raises OracleError if the KKT residual cannot be met."""
    from . import _oracle

    if isinstance(problem, ConstrainedProblem):
        if problem.is_smoothed:
            return _oracle.solve_constrained_l1(problem, tol)
        return _oracle.solve_constrained_smooth(problem, tol)
    if isinstance(problem, ConsensusProblem):
        if problem.is_smoothed:
            return _oracle.solve_consensus_l1(problem, tol)
        return _oracle.solve_consensus_smooth(problem, tol)
    if isinstance(problem, MonotropicProblem):
        if problem.is_smoothed:
            return _oracle.solve_demo_l1(problem, tol)
        return _oracle.solve_demo_smooth(problem, tol)
    raise ParameterError(f"unknown problem type {type(problem).__name__}")
