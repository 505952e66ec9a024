"""Closed-form Euclidean projections onto box, sphere, affine, half-space,
simplex and positive-orthant sets.

Every projector validates its parameters at construction, never at call
time; ``project`` is pure and idempotent, and ``violation`` measures set
membership (0 means the point is in the set).
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, SizeError
from .numerics import as_matrix, as_vector, pseudoinverse


class Projector:
    """Base class; concrete sets implement project() and violation()."""

    kind = "abstract"
    dim: int

    def __init__(self, dim: int):
        """A set given by its dimension alone; the others take their own data."""
        if dim < 1:
            raise ParameterError(f"{self.kind} dimension must be >= 1")
        self.dim = int(dim)

    def project(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def violation(self, u: np.ndarray) -> float:
        raise NotImplementedError

    def _check(self, u) -> np.ndarray:
        u = as_vector(u, f"{self.kind} projection input")
        if u.shape[0] != self.dim:
            raise SizeError(f"{self.kind} projector has dim {self.dim}, input has {u.shape[0]}")
        return u


class Box(Projector):
    """{u : lo <= u <= hi} componentwise; projection is clamping."""

    kind = "box"

    def __init__(self, lo, hi):
        lo = as_vector(lo, "box lower bound")
        hi = as_vector(hi, "box upper bound")
        if lo.shape != hi.shape:
            raise SizeError("box bounds must have equal length")
        if np.any(lo > hi):
            raise ParameterError("box requires lo <= hi componentwise")
        self.lo, self.hi = lo, hi
        self.dim = lo.shape[0]

    def project(self, u):
        return np.clip(self._check(u), self.lo, self.hi)

    def violation(self, u):
        u = self._check(u)
        return float(max(np.max(self.lo - u, initial=0.0), np.max(u - self.hi, initial=0.0)))


class Sphere(Projector):
    """{u : ||u - center|| <= radius}; projection is radial scaling."""

    kind = "sphere"

    def __init__(self, center, radius: float):
        self.center = as_vector(center, "sphere center")
        if not radius > 0:
            raise ParameterError("sphere radius must be positive")
        self.radius = float(radius)
        self.dim = self.center.shape[0]

    def project(self, u):
        u = self._check(u)
        d = u - self.center
        norm = np.linalg.norm(d)
        if norm <= self.radius:
            return u.copy()
        return self.center + (self.radius / norm) * d

    def violation(self, u):
        u = self._check(u)
        return float(max(0.0, np.linalg.norm(u - self.center) - self.radius))


class AffineSet(Projector):
    """{u : A u = b}; projection is u + A^+ (b - A u), with A^+ cached."""

    kind = "affine"

    def __init__(self, a, b):
        self.a = as_matrix(a, "affine constraint matrix")
        self.b = as_vector(b, "affine right-hand side")
        if self.a.shape[0] != self.b.shape[0]:
            raise SizeError("affine set needs rows(A) == len(b)")
        if not self.a.any():
            raise ParameterError("affine set requires a nonzero matrix")
        self.dim = self.a.shape[1]
        self.pinv = pseudoinverse(self.a)
        # consistency of the system: A A^+ b must reproduce b
        if np.linalg.norm(self.a @ (self.pinv @ self.b) - self.b) > 1e-8 * (1 + np.linalg.norm(self.b)):
            raise ParameterError("affine system A u = b is inconsistent")

    def project(self, u):
        u = self._check(u)
        return u + self.pinv @ (self.b - self.a @ u)

    def violation(self, u):
        u = self._check(u)
        return float(np.max(np.abs(self.a @ u - self.b)))


class HalfSpace(Projector):
    """{u : a^T u <= b} with a != 0."""

    kind = "halfspace"

    def __init__(self, a, b: float):
        self.a = as_vector(a, "halfspace normal")
        if not self.a.any():
            raise ParameterError("halfspace normal must be nonzero")
        self.b = float(b)
        self.dim = self.a.shape[0]
        self._nrm2 = float(self.a @ self.a)

    def project(self, u):
        u = self._check(u)
        slack = self.a @ u - self.b
        if slack <= 0:
            return u.copy()
        return u - (slack / self._nrm2) * self.a

    def violation(self, u):
        u = self._check(u)
        return float(max(0.0, self.a @ u - self.b))


class Simplex(Projector):
    """Unit simplex {u >= 0, sum u = 1}; sort-and-threshold projection.

    Exact in O(n log n); ties in the sort are resolved by coordinate index,
    which keeps the output deterministic.
    """

    kind = "simplex"

    def project(self, u):
        u = self._check(u)
        s = np.sort(u)[::-1]
        css = np.cumsum(s) - 1.0
        idx = np.arange(1, self.dim + 1)
        cond = s - css / idx > 0
        rho = int(np.nonzero(cond)[0][-1])
        theta = css[rho] / (rho + 1.0)
        return np.maximum(u - theta, 0.0)

    def violation(self, u):
        u = self._check(u)
        return float(max(abs(np.sum(u) - 1.0), max(0.0, -np.min(u))))


class PositiveOrthant(Projector):
    """{u : u >= 0}."""

    kind = "orthant"

    def project(self, u):
        return np.maximum(self._check(u), 0.0)

    def violation(self, u):
        u = self._check(u)
        return float(max(0.0, -np.min(u)))


class FullSpace(Projector):
    """R^n; identity projection (used where no set constraint applies)."""

    kind = "free"

    def project(self, u):
        return self._check(u).copy()

    def violation(self, u):
        self._check(u)
        return 0.0
