"""Undirected weighted communication graphs, Laplacians, and the
Kronecker-lifted Laplacian L = L_n (x) I_m used by the distributed dynamics,
applied and solved blockwise through L_n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SizeError
from .numerics import as_matrix


@dataclass(frozen=True)
class UndirectedGraph:
    n: int
    adjacency: np.ndarray  # symmetric, nonnegative, zero diagonal

    def __post_init__(self):
        a = as_matrix(self.adjacency, "adjacency")
        if a.shape != (self.n, self.n):
            raise SizeError(f"adjacency must be {self.n}x{self.n}")
        if np.any(a < 0):
            raise ParameterError("adjacency weights must be nonnegative")
        if not np.array_equal(a, a.T):
            raise ParameterError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0):
            raise ParameterError("adjacency diagonal must be zero")


def ring(n: int) -> UndirectedGraph:
    """Unit-weight cycle on n >= 3 nodes."""
    if n < 3:
        raise ParameterError(f"a ring needs at least 3 nodes, got {n}")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def from_edges(n: int, edges, weights=None) -> UndirectedGraph:
    a = np.zeros((n, n))
    weights = weights if weights is not None else [1.0] * len(edges)
    if len(weights) != len(edges):
        raise SizeError("edges and weights must have equal length")
    for (i, j), w in zip(edges, weights):
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise ParameterError(f"invalid edge ({i}, {j}) for {n} nodes")
        if w < 0:
            raise ParameterError("edge weights must be nonnegative")
        a[i, j] = a[j, i] = w
    return UndirectedGraph(n, a)


def laplacian(g: UndirectedGraph) -> np.ndarray:
    deg = np.sum(g.adjacency, axis=1)
    return np.diag(deg) - g.adjacency


def is_connected(g: UndirectedGraph) -> bool:
    seen = np.zeros(g.n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.nonzero(g.adjacency[i] > 0)[0]:
            if not seen[j]:
                seen[j] = True
                stack.append(int(j))
    return bool(seen.all())


@dataclass(frozen=True)
class LiftedLaplacian:
    """L = L_n (x) I_m on stacked agent states, held as L_n and m: it acts on
    the (n x m) block view of a stacked vector. Only the smooth consensus
    oracle forms L densely. Three products in the right-hand sides, the
    consensus flow's two and the DEMO flow's dz = L v, bypass ``apply``:
    they write L_n times the block view straight into their output block,
    which gives the same bits and costs less per evaluation."""

    l_n: np.ndarray
    m: int

    @property
    def dim(self) -> int:
        return self.l_n.shape[0] * self.m

    def apply(self, x: np.ndarray) -> np.ndarray:
        """L @ x, as L_n times the (n x m) block view of x."""
        n = self.l_n.shape[0]
        return np.dot(self.l_n, x.reshape(n, self.m)).ravel()

    def solve(self, r: np.ndarray) -> np.ndarray:
        """The minimum-norm least-squares y of L y = r. The pseudoinverse of
        L_n (x) I is pinv(L_n) (x) I, so one solve with L_n on the block view
        gives it. y is orthogonal to the consensus directions, and L y = r
        holds when the blocks of r sum to zero, the range of L."""
        n = self.l_n.shape[0]
        return np.linalg.lstsq(self.l_n, r.reshape(n, self.m), rcond=None)[0].ravel()


def lift(g: UndirectedGraph, m: int) -> LiftedLaplacian:
    if m < 1:
        raise ParameterError("block dimension must be >= 1")
    return LiftedLaplacian(l_n=laplacian(g), m=int(m))


def consensus_residual(lap: LiftedLaplacian, x) -> float:
    """x^T L x; zero exactly when all agent blocks agree."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != lap.dim:
        raise SizeError(f"state has dim {x.shape[0]}, Laplacian is {lap.dim}x{lap.dim}")
    return float(x @ lap.apply(x))
