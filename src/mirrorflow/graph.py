"""Undirected weighted communication graphs, Laplacians, and the
Kronecker-lifted Laplacian L = L_n (x) I_m used by the distributed dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SizeError
from .numerics import as_matrix, kron


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
    a = np.zeros((n, n))
    for i in range(n):
        j = (i + 1) % n
        a[i, j] = a[j, i] = 1.0
    return UndirectedGraph(n, a)


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
    """L = L_n (x) I_m acting blockwise on stacked agent states."""

    l_n: np.ndarray
    m: int
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """L @ x computed blockwise; identical result, much cheaper than the
        dense product when m is large."""
        n = self.l_n.shape[0]
        return np.dot(self.l_n, x.reshape(n, self.m)).ravel()


def lift(g: UndirectedGraph, m: int) -> LiftedLaplacian:
    if m < 1:
        raise ParameterError("block dimension must be >= 1")
    l_n = laplacian(g)
    return LiftedLaplacian(l_n=l_n, m=int(m), matrix=kron(l_n, np.eye(m)))


def consensus_residual(lap: LiftedLaplacian, x) -> float:
    """x^T L x; zero exactly when all agent blocks agree."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != lap.dim:
        raise SizeError(f"state has dim {x.shape[0]}, Laplacian is {lap.dim}x{lap.dim}")
    return float(x @ (lap.matrix @ x))
