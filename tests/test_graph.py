import numpy as np
import pytest

from mirrorflow.errors import ParameterError, SizeError
from mirrorflow.graph import (
    UndirectedGraph,
    consensus_residual,
    from_edges,
    is_connected,
    laplacian,
    lift,
    ring,
)
from mirrorflow.numerics import SeededRng


def edge_sum_residual(g, x, m):
    """Independent oracle: sum over edges of a_ij ||x_i - x_j||^2."""
    total = 0.0
    blocks = x.reshape(g.n, m)
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if g.adjacency[i, j] > 0:
                d = blocks[i] - blocks[j]
                total += g.adjacency[i, j] * (d @ d)
    return total


def test_ring3_laplacian_is_triangle():
    assert np.array_equal(laplacian(ring(3)), [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def test_ring4_structure():
    l4 = laplacian(ring(4))
    assert np.all(np.diag(l4) == 2)
    assert l4[0, 1] == -1 and l4[0, 3] == -1 and l4[0, 2] == 0


def test_ring_connected_and_minimum_size():
    for n in range(3, 9):
        assert is_connected(ring(n))
    with pytest.raises(ParameterError):
        ring(2)


def test_laplacian_row_sums_symmetry_psd():
    for g in (ring(5), from_edges(4, [(0, 1), (1, 2), (2, 3)]), from_edges(4, [(0, 1), (1, 2), (2, 3)], [1.0, 2.0, 0.5])):
        lap = laplacian(g)
        assert np.allclose(lap.sum(axis=1), 0.0)
        assert np.array_equal(lap, lap.T)
        rng = SeededRng(1)
        for _ in range(100):
            x = rng.normal(g.n)
            assert x @ lap @ x >= -1e-12


def test_lift_kernel_contains_consensus():
    lifted = lift(ring(4), 3)
    w = np.array([1.0, -2.0, 0.5])
    x = np.tile(w, 4)
    assert abs(consensus_residual(lifted, x)) <= 1e-12
    assert np.allclose(lifted.apply(np.ones(lifted.dim)), 0.0)


def _dense(lifted):
    """L = L_n (x) I_m formed densely, the reference for the blockwise forms."""
    return np.kron(lifted.l_n, np.eye(lifted.m))


_LIFTS = pytest.mark.parametrize("g, m", [
    (ring(5), 3),
    (from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)], [1.0, 2.0, 0.5, 3.0]), 2),
], ids=["ring5-m3", "weighted4-m2"])


@_LIFTS
def test_lifted_apply_is_the_dense_product(g, m):
    lifted = lift(g, m)
    dense = _dense(lifted)
    assert lifted.dim == lifted.l_n.shape[0] * m == dense.shape[0]
    assert np.allclose(dense.sum(axis=1), 0.0, atol=1e-14)
    rng = SeededRng(11)
    for _ in range(20):
        x = rng.normal(lifted.dim)
        assert np.max(np.abs(lifted.apply(x) - dense @ x)) <= 1e-14


@_LIFTS
def test_lifted_solve_is_the_dense_minimum_norm_solution(g, m):
    lifted = lift(g, m)
    dense = _dense(lifted)
    rng = SeededRng(12)
    for _ in range(20):
        r = rng.normal(lifted.dim)
        y = lifted.solve(r)
        assert np.max(np.abs(y - np.linalg.lstsq(dense, r, rcond=None)[0])) <= 1e-12
        # orthogonal to every consensus direction 1 (x) e_j
        assert np.max(np.abs(y.reshape(g.n, m).sum(axis=0))) <= 1e-12
        # blocks summing to zero put r in the range of L, where solve inverts apply
        r_range = r - np.tile(r.reshape(g.n, m).mean(axis=0), g.n)
        assert np.max(np.abs(lifted.apply(lifted.solve(r_range)) - r_range)) <= 1e-12


def test_two_node_path_residual():
    lifted = lift(from_edges(2, [(0, 1)]), 1)
    assert consensus_residual(lifted, np.array([0.0, 2.0])) == 4.0


def test_residual_matches_edge_sum_oracle():
    g = ring(5)
    lifted = lift(g, 3)
    rng = SeededRng(7)
    for _ in range(50):
        x = rng.normal(15)
        assert abs(consensus_residual(lifted, x) - edge_sum_residual(g, x, 3)) <= 1e-10


def test_residual_size_check():
    lifted = lift(ring(3), 2)
    with pytest.raises(SizeError):
        consensus_residual(lifted, np.zeros(5))


def test_connectivity_of_rings_and_edge_lists():
    assert is_connected(ring(4))
    assert is_connected(from_edges(3, [(0, 1), (1, 2)]))
    assert not is_connected(from_edges(3, [(0, 1)]))


def test_adjacency_validation():
    with pytest.raises(ParameterError):
        UndirectedGraph(2, np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ParameterError):
        UndirectedGraph(2, np.array([[1.0, 1.0], [1.0, 0.0]]))
