import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorflow.errors import DomainError, UnsupportedOperationError
from mirrorflow.mirror_maps import (
    EuclideanMap,
    ItakuraSaitoMap,
    NegEntropyMap,
    ProjectionMap,
    SimplexEntropyMap,
)
from mirrorflow.numerics import SeededRng
from mirrorflow.projections import (
    AffineSet,
    Box,
    FullSpace,
    HalfSpace,
    PositiveOrthant,
    Simplex,
    Sphere,
)


def smooth_maps(dim=3):
    return [EuclideanMap(dim), NegEntropyMap(dim), ItakuraSaitoMap(dim), SimplexEntropyMap(dim)]


def draw_dual(map_, rng, scale=3.0):
    u = scale * rng.normal(map_.dim)
    if map_.kind == "itakura_saito":
        u = -np.abs(u) - 1e-3
    return u


def test_grad_conjugate_closed_forms():
    assert np.allclose(EuclideanMap(2).grad_conjugate([1.0, 2.0]), [1.0, 2.0])
    assert np.allclose(SimplexEntropyMap(3).grad_conjugate([0.0, 0.0, 0.0]), np.full(3, 1 / 3))
    assert np.allclose(NegEntropyMap(2).grad_conjugate([1.0, 1.0]), [1.0, 1.0])
    assert np.allclose(ItakuraSaitoMap(2).grad_conjugate([-1.0, -2.0]), [1.0, 0.5])


def test_itakura_saito_domain_error():
    with pytest.raises(DomainError):
        ItakuraSaitoMap(2).grad_conjugate([-1.0, 0.5])


def test_range_invariant():
    rng = SeededRng(17)
    for map_ in smooth_maps(4):
        for _ in range(2500):
            x = map_.grad_conjugate(draw_dual(map_, rng))
            assert map_.set_violation(x) <= 1e-10


def test_projection_map_range():
    pm = ProjectionMap(Box(lo=np.zeros(3), hi=np.ones(3)))
    rng = SeededRng(23)
    for _ in range(2500):
        x = pm.grad_conjugate(4.0 * rng.normal(3))
        assert pm.set_violation(x) == 0.0


def test_fenchel_identity():
    rng = SeededRng(29)
    for map_ in smooth_maps(3):
        for _ in range(300):
            u = draw_dual(map_, rng)
            if np.max(np.abs(u)) > 10:
                continue
            x = map_.grad_conjugate(u)
            gap = map_.psi(x) + map_.conjugate(u) - u @ x
            assert abs(gap) <= 1e-8


def test_monotonicity():
    rng = SeededRng(31)
    for map_ in smooth_maps(4):
        for _ in range(2500):
            u1 = draw_dual(map_, rng)
            u2 = draw_dual(map_, rng)
            g1, g2 = map_.grad_conjugate(u1), map_.grad_conjugate(u2)
            assert (g1 - g2) @ (u1 - u2) >= -1e-12


def test_hessian_closed_forms():
    assert np.allclose(EuclideanMap(3).hessian_conjugate([1.0, 2.0, 3.0]), np.eye(3))
    h = SimplexEntropyMap(2).hessian_conjugate([0.0, 0.0])
    assert np.allclose(h, [[0.25, -0.25], [-0.25, 0.25]])
    assert np.allclose(NegEntropyMap(2).hessian_conjugate([1.0, 1.0]), np.eye(2))


def test_hessian_matches_finite_differences():
    rng = SeededRng(37)
    eps = 1e-6
    for map_ in smooth_maps(3):
        for _ in range(25):
            u = draw_dual(map_, rng, scale=1.0)
            h = map_.hessian_conjugate(u)
            fd = np.zeros_like(h)
            for j in range(3):
                e = np.zeros(3)
                e[j] = eps
                fd[:, j] = (map_.grad_conjugate(u + e) - map_.grad_conjugate(u - e)) / (2 * eps)
            scale = max(1.0, np.max(np.abs(h)))
            assert np.max(np.abs(h - fd)) / scale <= 1e-5
            # symmetric positive semidefinite
            assert np.max(np.abs(h - h.T)) <= 1e-12
            assert np.min(np.linalg.eigvalsh(0.5 * (h + h.T))) >= -1e-10


def test_hessian_unsupported_for_projection_kind():
    with pytest.raises(UnsupportedOperationError):
        ProjectionMap(Simplex(3)).hessian_conjugate(np.zeros(3))


def test_bregman_conjugate_basics():
    for map_ in smooth_maps(3):
        u = draw_dual(map_, SeededRng(1))
        assert abs(map_.bregman_conjugate(u, u)) <= 1e-12
    e = EuclideanMap(2)
    assert abs(e.bregman_conjugate([1.0, 0.0], [0.0, 0.0]) - 0.5) <= 1e-14


def test_bregman_conjugate_simplex_matches_direct_formula():
    # oracle: recompute from psi*(u) = log sum exp(u) written out directly
    map_ = SimplexEntropyMap(3)
    rng = SeededRng(41)
    for _ in range(100):
        u, v = 2.0 * rng.normal(3), 2.0 * rng.normal(3)
        lse = lambda w: float(np.log(np.sum(np.exp(w))))
        softmax = np.exp(v) / np.sum(np.exp(v))
        direct = lse(u) - lse(v) - softmax @ (u - v)
        got = map_.bregman_conjugate(u, v)
        assert got >= -1e-12
        assert abs(got - direct) <= 1e-10


def test_bregman_projection_kind_uses_explicit_conjugate():
    pm = ProjectionMap(Box(lo=np.zeros(2), hi=np.ones(2)))
    rng = SeededRng(43)
    for _ in range(200):
        u, v = 3.0 * rng.normal(2), 3.0 * rng.normal(2)
        assert pm.bregman_conjugate(u, v) >= -1e-12


def test_grad_psi_round_trips():
    e = EuclideanMap(2)
    assert np.allclose(e.grad_psi([3.0, -1.0]), [3.0, -1.0])
    n = NegEntropyMap(2)
    assert np.allclose(n.grad_psi([1.0, 1.0]), [1.0, 1.0])
    s = SimplexEntropyMap(2)
    u = s.grad_psi([0.5, 0.5])
    assert np.allclose(u, 1.0 + np.log([0.5, 0.5]))
    assert np.max(np.abs(s.grad_conjugate(u) - [0.5, 0.5])) <= 1e-12


@pytest.mark.parametrize("map_", [SimplexEntropyMap(3), NegEntropyMap(3), ItakuraSaitoMap(3)],
                         ids=lambda m: m.kind)
def test_grad_psi_boundary_error_names_coordinate(map_):
    with pytest.raises(DomainError, match="coordinate 1"):
        map_.grad_psi([0.5, 0.0, 0.5])


def test_bregman_to_point_matches_dual_bregman_for_interior_points():
    rng = SeededRng(47)
    for map_ in smooth_maps(3):
        for _ in range(50):
            u = draw_dual(map_, rng, scale=1.0)
            x_star = map_.grad_conjugate(draw_dual(map_, rng, scale=1.0))
            u_star = map_.grad_psi(x_star)
            d_dual = map_.bregman_conjugate(u, u_star)
            d_primal = map_.bregman_to_point(x_star, u)
            assert abs(d_dual - d_primal) <= 1e-8 * max(1.0, abs(d_dual))


def test_bregman_to_point_boundary_cases():
    s = SimplexEntropyMap(4)
    # KL to a vertex from the uniform point is ln 4
    val = s.bregman_to_point(np.array([0.0, 0.0, 0.0, 1.0]), np.zeros(4))
    assert abs(val - np.log(4.0)) <= 1e-12
    isa = ItakuraSaitoMap(2)
    assert np.isinf(isa.bregman_to_point(np.array([0.0, 1.0]), np.array([-1.0, -1.0])))


def test_neg_entropy_clamp_is_sticky():
    n = NegEntropyMap(2)
    assert not n.clamp_triggered
    n.grad_conjugate([1000.0, 0.0])
    assert n.clamp_triggered


# every map kind, and a projection map over every set kind
_EVERY_MAP = smooth_maps(3) + [ProjectionMap(p) for p in (
    Box(lo=[-1.0, 0.0, 0.5], hi=[1.0, 2.0, 0.5]),
    Sphere(center=[0.1, -0.2, 0.3], radius=1.5),
    HalfSpace(a=[1.0, 2.0, -1.0], b=0.5),
    AffineSet(a=[[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]], b=[1.0, 0.2]),
    Simplex(3), PositiveOrthant(3), FullSpace(3))]
_POINT = st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3).map(np.array)
_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def _kind(map_):
    return map_.projector.kind if map_.kind == "projection" else map_.kind


def _inside(map_, raw):
    """A point of the map's set; strictly positive for the entropy kinds."""
    if map_.kind == "simplex_entropy":
        return np.exp(raw) / np.sum(np.exp(raw))
    if map_.kind in ("neg_entropy", "itakura_saito"):
        return np.exp(raw)
    return map_.projector.project(raw)


def _dual(map_, raw):
    return -np.exp(raw) if map_.kind == "itakura_saito" else raw


@pytest.mark.parametrize("map_", _EVERY_MAP, ids=_kind)
@_PROPERTY
@given(x=_POINT)
def test_set_violation_is_the_projectors(map_, x):
    assert map_.set_violation(x) == map_.projector.violation(x)


@pytest.mark.parametrize("map_", _EVERY_MAP, ids=_kind)
@_PROPERTY
@given(raw=_POINT)
def test_grad_conjugate_inverts_grad_psi_inside_the_set(map_, raw):
    x = _inside(map_, raw)
    back = map_.grad_conjugate(map_.grad_psi(x))
    assert np.max(np.abs(back - x)) <= 1e-12 * (1.0 + np.max(np.abs(x)))


@pytest.mark.parametrize("map_", _EVERY_MAP, ids=_kind)
@_PROPERTY
@given(raw=_POINT, u_raw=_POINT)
def test_bregman_to_point_is_the_dual_bregman_from_grad_psi(map_, raw, u_raw):
    x_star, u = _inside(map_, raw), _dual(map_, u_raw)
    d_dual = map_.bregman_conjugate(u, map_.grad_psi(x_star))
    assert abs(map_.bregman_to_point(x_star, u) - d_dual) <= 1e-9 * max(1.0, abs(d_dual))
