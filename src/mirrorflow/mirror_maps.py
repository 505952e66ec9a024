"""Distance-generating functions and their conjugate gradients.

Each map carries its feasible set X as a ``Projector`` in its ``projector``
attribute; set membership (``set_violation``) and the reference oracle's
Euclidean projections both read it. The gradient of the convex conjugate,
grad_conjugate(u) = argmax_{x in X} (u.x - psi(x)), pulls an unconstrained
dual vector back into X:

    euclidean       psi = ||x||^2/2 on R^n,       grad_conjugate(u) = u
    neg_entropy     psi = sum x ln x on R^n_+,    grad_conjugate(u) = exp(u - 1)
    itakura_saito   psi = -sum ln x on R^n_+,     grad_conjugate(u) = -1/u  (u < 0)
    simplex_entropy psi = sum x ln x on simplex,  grad_conjugate(u) = softmax(u)
    projection      psi = ||x||^2/2 + indicator,  grad_conjugate(u) = P_X(u)

The simplex softmax is always evaluated with a max shift, and the
neg-entropy exponent is clamped at ``EXP_CLAMP`` with a sticky warning flag,
so a dual blow-up is reported instead of silently producing inf.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DomainError, SizeError, UnsupportedOperationError
from .numerics import as_vector
from .projections import FullSpace, PositiveOrthant, Projector, Simplex

EXP_CLAMP = 500.0  # exp(500) ~ 1.4e217, still finite in float64


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x * ln(x) with the 0*ln(0) = 0 convention."""
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = x[pos] * np.log(x[pos])
    return out


class MirrorMap:
    """Base class; concrete maps fill in the catalogue formulas."""

    kind = "abstract"
    smooth = True  # whether hessian_conjugate exists
    set_type: type = FullSpace  # the Projector class of X, built with the map's dim
    # u0 of the flows' default start x0 = grad_conjugate(u0). The entropy maps
    # start small: orthant coordinates that should vanish decay only like
    # t^(-alpha) through the averaging step, with a constant proportional to
    # their starting value.
    dual_start = 0.0

    def __init__(self, dim: int):
        self.dim = int(dim)
        self.clamp_triggered = False  # set by clamping paths, cleared by build_field

    @cached_property
    def projector(self) -> Projector:
        """The feasible set X, as its Euclidean projector."""
        return self.set_type(self.dim)

    def _check(self, u, name="dual point") -> np.ndarray:
        u = as_vector(u, name)
        if u.shape[0] != self.dim:
            raise SizeError(f"{self.kind} map has dim {self.dim}, input has {u.shape[0]}")
        return u

    def _interior(self, x) -> np.ndarray:
        """x as a primal point, refusing the first coordinate that is not > 0."""
        x = self._check(x, "primal point")
        if np.any(x <= 0):
            i = int(np.argmax(x <= 0))
            raise DomainError(f"coordinate {i} of x is {x[i]}; {self.kind} needs x > 0 here")
        return x

    # -- conjugate side -----------------------------------------------------
    def grad_conjugate(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def conjugate(self, u: np.ndarray) -> float:
        """psi*(u)."""
        raise NotImplementedError

    def hessian_conjugate(self, u: np.ndarray) -> np.ndarray:
        raise UnsupportedOperationError(f"{self.kind} map has no conjugate Hessian")

    # -- primal side --------------------------------------------------------
    def psi(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def grad_psi(self, x: np.ndarray) -> np.ndarray:
        """A dual point u with grad_conjugate(u) = x; needs x interior for the entropy kinds."""
        raise NotImplementedError

    def bregman_to_point(self, x_star: np.ndarray, u: np.ndarray) -> float:
        """D_{psi*}(u, u*) for the u* that maps to x*, evaluated in primal form.

        By conjugate duality this equals D_psi(x*, grad_conjugate(u)), which
        stays finite for boundary x* whenever the primal divergence does
        (e.g. a simplex vertex under the entropy map). Returns +inf when the
        divergence is genuinely infinite.
        """
        raise NotImplementedError

    def set_violation(self, x: np.ndarray) -> float:
        """Membership residual of x in the map's feasible set X (0 = member)."""
        return self.projector.violation(x)


class EuclideanMap(MirrorMap):
    """Self-dual map on R^n."""

    kind = "euclidean"

    def grad_conjugate(self, u):
        return self._check(u).copy()

    def conjugate(self, u):
        u = self._check(u)
        return float(0.5 * (u @ u))

    def hessian_conjugate(self, u):
        self._check(u)
        return np.eye(self.dim)

    def psi(self, x):
        x = self._check(x, "primal point")
        return float(0.5 * (x @ x))

    def grad_psi(self, x):
        return self._check(x, "primal point").copy()

    def bregman_to_point(self, x_star, u):
        x_star = self._check(x_star, "optimal point")
        u = self._check(u)
        d = u - x_star
        return float(0.5 * (d @ d))


class NegEntropyMap(MirrorMap):
    """Negative entropy on the positive orthant."""

    kind = "neg_entropy"
    set_type = PositiveOrthant
    dual_start = -3.0  # x0 = exp(u0 - 1) = exp(-4), small and feasible

    def _exp(self, e):
        # e = u - 1 for a u that _check found finite, so the clamped exp is finite
        if np.any(e > EXP_CLAMP):
            self.clamp_triggered = True
            e = np.minimum(e, EXP_CLAMP)
        return np.exp(e)

    def grad_conjugate(self, u):
        return self._exp(self._check(u) - 1.0)

    def conjugate(self, u):
        return float(np.sum(self._exp(self._check(u) - 1.0)))

    def hessian_conjugate(self, u):
        return np.diag(self._exp(self._check(u) - 1.0))

    def psi(self, x):
        x = self._check(x, "primal point")
        if np.any(x < 0):
            raise DomainError("neg_entropy psi needs x >= 0")
        return float(np.sum(_xlogx(x)))

    def grad_psi(self, x):
        x = self._interior(x)
        return 1.0 + np.log(x)

    def bregman_to_point(self, x_star, u):
        # generalized KL divergence: sum x* ln(x*/x) - x* + x, finite for x* >= 0
        x_star = self._check(x_star, "optimal point")
        if np.any(x_star < 0):
            raise DomainError("x* must be in the positive orthant")
        x = self.grad_conjugate(u)
        pos = x_star > 0
        val = np.sum(x) - np.sum(x_star)
        with np.errstate(divide="ignore"):  # an x that underflowed to 0 gives +inf
            val += np.sum(x_star[pos] * (np.log(x_star[pos]) - np.log(x[pos])))
        return float(val)


class ItakuraSaitoMap(MirrorMap):
    """Burg entropy psi = -sum ln x on the positive orthant; dual domain is u < 0."""

    kind = "itakura_saito"
    set_type = PositiveOrthant
    dual_start = -1.0  # x0 = -1/u0 = 1

    def _check_domain(self, u):
        u = self._check(u)
        if np.any(u >= 0):
            bad = int(np.nonzero(u >= 0)[0][0])
            raise DomainError(f"itakura_saito needs u < 0 componentwise; u[{bad}] = {u[bad]}")
        return u

    def grad_conjugate(self, u):
        return -1.0 / self._check_domain(u)

    def conjugate(self, u):
        u = self._check_domain(u)
        return float(-np.sum(1.0 + np.log(-u)))

    def hessian_conjugate(self, u):
        u = self._check_domain(u)
        return np.diag(1.0 / u**2)

    def psi(self, x):
        x = self._interior(x)
        return float(-np.sum(np.log(x)))

    def grad_psi(self, x):
        x = self._interior(x)
        return -1.0 / x

    def bregman_to_point(self, x_star, u):
        # sum (x*/x - ln(x*/x) - 1); infinite when some x*_i = 0
        x_star = self._check(x_star, "optimal point")
        if np.any(x_star < 0):
            raise DomainError("x* must be in the positive orthant")
        if np.any(x_star == 0):
            return float("inf")
        x = self.grad_conjugate(u)
        r = x_star / x
        return float(np.sum(r - np.log(r) - 1.0))


class SimplexEntropyMap(MirrorMap):
    """Entropy restricted to the unit simplex; conjugate is log-sum-exp."""

    kind = "simplex_entropy"
    set_type = Simplex

    def _softmax(self, u):
        shifted = u - np.max(u)
        e = np.exp(shifted)
        return e / np.sum(e)

    def grad_conjugate(self, u):
        return self._softmax(self._check(u))

    def conjugate(self, u):
        u = self._check(u)
        m = np.max(u)
        return float(m + np.log(np.sum(np.exp(u - m))))

    def hessian_conjugate(self, u):
        p = self._softmax(self._check(u))
        return np.diag(p) - np.outer(p, p)

    def psi(self, x):
        x = self._check(x, "primal point")
        if self.set_violation(x) > 1e-9:
            raise DomainError("simplex_entropy psi needs a point on the unit simplex")
        return float(np.sum(_xlogx(x)))

    def grad_psi(self, x):
        x = self._interior(x)
        return 1.0 + np.log(x)

    def bregman_to_point(self, x_star, u):
        # KL(x*, softmax(u)); finite for any simplex x* including vertices
        x_star = self._check(x_star, "optimal point")
        if np.any(x_star < 0):
            raise DomainError("x* must be on the simplex")
        x = self.grad_conjugate(u)
        pos = x_star > 0
        with np.errstate(divide="ignore"):  # an x that underflowed to 0 gives +inf
            return float(np.sum(x_star[pos] * (np.log(x_star[pos]) - np.log(x[pos]))))


class ProjectionMap(MirrorMap):
    """psi = ||x||^2/2 plus the indicator of a projector's set.

    grad_conjugate is the Euclidean projection and
    psi*(u) = (||u||^2 - ||u - P(u)||^2) / 2.
    """

    kind = "projection"
    smooth = False

    def __init__(self, projector: Projector):
        super().__init__(projector.dim)
        self.projector = projector

    def grad_conjugate(self, u):
        # the projector performs the shape/finiteness validation
        return self.projector.project(u)

    def conjugate(self, u):
        u = self._check(u)
        p = self.projector.project(u)
        d = u - p
        return float(0.5 * (u @ u - d @ d))

    def psi(self, x):
        x = self._check(x, "primal point")
        if self.projector.violation(x) > 1e-9:
            raise DomainError(f"point is outside the {self.projector.kind} set")
        return float(0.5 * (x @ x))

    def grad_psi(self, x):
        # any selection x + N_X(x) works; return the minimal-norm element
        x = self._check(x, "primal point")
        return x.copy()

    def bregman_to_point(self, x_star, u):
        # D_{psi*}(u, u*) with u* = x*: psi*(u) + ||x*||^2/2 - x*.u
        x_star = self._check(x_star, "optimal point")
        u = self._check(u)
        return float(self.conjugate(u) + 0.5 * (x_star @ x_star) - x_star @ u)
