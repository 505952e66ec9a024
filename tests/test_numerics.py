import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorflow import problems
from mirrorflow.errors import NumericError, ParameterError, SizeError
from mirrorflow.graph import laplacian, ring
from mirrorflow.numerics import (
    SeededRng,
    as_matrix,
    as_vector,
    kron,
    pseudoinverse,
    random_orthogonal_rows,
    random_psd,
)


def kron_reference(a, b):
    """Independent elementwise Kronecker product used as the test oracle."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb))
    for i in range(ra):
        for j in range(ca):
            for p in range(rb):
                for q in range(cb):
                    out[i * rb + p, j * cb + q] = a[i, j] * b[p, q]
    return out


def test_kron_identity_cases():
    assert np.array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(kron(np.array([[2.0]]), m), 2.0 * m)


def test_kron_matches_elementwise_oracle():
    rng = SeededRng(7)
    a = rng.normal(3, 2)
    b = rng.normal(2, 4)
    assert np.allclose(kron(a, b), kron_reference(a, b), atol=1e-14)


def test_kron_ring_laplacian_lift_row_sums_zero():
    l3 = laplacian(ring(3))
    lifted = kron(l3, np.eye(2))
    assert np.allclose(lifted.sum(axis=1), 0.0, atol=1e-14)
    assert np.allclose(lifted, kron_reference(l3, np.eye(2)))


def test_kron_mixed_product_property():
    rng = SeededRng(3)
    for _ in range(20):
        a, c = rng.normal(2, 3), rng.normal(3, 2)
        b, d = rng.normal(3, 2), rng.normal(2, 3)
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_kron_size_guard():
    with pytest.raises(SizeError):
        kron(np.ones((8000, 1)), np.ones((1, 8000)))


def moore_penrose_residuals(a, p):
    return (
        np.max(np.abs(a @ p @ a - a)),
        np.max(np.abs(p @ a @ p - p)),
        np.max(np.abs((a @ p).T - a @ p)),
        np.max(np.abs((p @ a).T - p @ a)),
    )


def test_pseudoinverse_identity_and_row_vector():
    assert np.allclose(pseudoinverse(np.eye(3)), np.eye(3), atol=1e-14)
    assert np.allclose(pseudoinverse(np.array([[1.0, 1.0]])), np.array([[0.5], [0.5]]), atol=1e-14)


def test_pseudoinverse_random_full_row_rank():
    rng = SeededRng(11)
    a = rng.normal(3, 5)
    p = pseudoinverse(a)
    assert max(moore_penrose_residuals(a, p)) <= 1e-10


def test_pseudoinverse_identities_up_to_20x60():
    rng = SeededRng(5)
    for rows, cols in [(4, 9), (20, 60), (10, 10)]:
        a = rng.normal(rows, cols)
        p = pseudoinverse(a)
        assert max(moore_penrose_residuals(a, p)) <= 1e-9


def test_pseudoinverse_rank_deficient():
    a = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    p = pseudoinverse(a)
    assert max(moore_penrose_residuals(a, p)) <= 1e-12
    assert np.allclose(pseudoinverse(np.zeros((2, 3))), np.zeros((3, 2)))


def test_rng_determinism():
    a = SeededRng(42).normal(4, 4)
    b = SeededRng(42).normal(4, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, SeededRng(43).normal(4, 4))


class _NumpyPhiloxRng:
    """The reference stream: the draws built on numpy.random's own Philox,
    as SeededRng made them before it computed the stream itself."""

    def __init__(self, seed):
        self._bits = np.random.Generator(np.random.Philox(seed))

    def uniform(self, *shape):
        return self._bits.random(shape)

    def normal(self, *shape):
        count = int(np.prod(shape)) if shape else 1
        half = (count + 1) // 2
        u1 = 1.0 - self._bits.random(half)
        u2 = self._bits.random(half)
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
        z = z[:count]
        return z.reshape(shape) if shape else float(z[0])

    def integers(self, low, high, size):
        u = self.uniform(size)
        return (low + np.floor(u * (high - low))).astype(int)


def _assert_same_draws(seed, requests):
    ours, ref = SeededRng(seed), _NumpyPhiloxRng(seed)
    for method, args in requests:
        got, want = getattr(ours, method)(*args), getattr(ref, method)(*args)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).dtype == np.asarray(want).dtype
        assert np.array_equal(got, want), (seed, method, args)


# odd sizes cross the 4-word blocks; the long requests cross the kernel's
# batches, alone and with words carried over from the request before
_REQUESTS = [("uniform", ()), ("uniform", (3,)), ("normal", ()), ("normal", (5,)),
             ("integers", (0, 40, 7)), ("uniform", (2, 3)), ("normal", (10, 60)),
             ("uniform", (1,)), ("normal", (1031,)), ("uniform", (4097,)), ("normal", (3, 3))]


@pytest.mark.parametrize("seed", [0, 1, 54, 2024, 2**32 - 1, 2**32, 2**64 - 1])
def test_rng_stream_equals_numpy_philox(seed):
    _assert_same_draws(seed, _REQUESTS * 2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1),
       requests=st.lists(st.tuples(st.sampled_from(["uniform", "normal"]),
                                   st.one_of(st.just(()), st.tuples(st.integers(0, 9)))),
                         max_size=12))
def test_rng_stream_equals_numpy_philox_for_any_seed(seed, requests):
    _assert_same_draws(seed, requests)


def _leaves(obj, seen):
    """The arrays and scalars reachable from obj: fields, items and closures."""
    if obj is None or isinstance(obj, (np.ndarray, bool, int, float, str)):
        yield obj
        return
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, (tuple, list)):
        items = obj
    elif isinstance(obj, dict):
        items = list(obj.values())
    elif getattr(obj, "__closure__", None):
        items = [cell.cell_contents for cell in obj.__closure__]
    else:
        items = list(getattr(obj, "__dict__", {}).values())
    for item in items:
        yield from _leaves(item, seen)


@pytest.mark.parametrize("seed", [1, 54])
@pytest.mark.parametrize("name", sorted(problems.PROBLEMS))
def test_catalogue_instances_equal_those_from_numpy_philox(name, seed, monkeypatch):
    ours = list(_leaves(problems.PROBLEMS[name](seed), set()))
    monkeypatch.setattr(problems, "SeededRng", _NumpyPhiloxRng)
    ref = list(_leaves(problems.PROBLEMS[name](seed), set()))
    assert len(ours) == len(ref) and any(isinstance(v, np.ndarray) for v in ours)
    for got, want in zip(ours, ref):
        assert type(got) is type(want)
        assert np.array_equal(got, want) if isinstance(got, np.ndarray) else got == want


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_rng_seed_must_fit_in_64_bits(seed):
    with pytest.raises(ParameterError):
        SeededRng(seed)


def test_rng_seed_must_be_an_integer():
    # a fractional seed used to give the stream of its integer part
    with pytest.raises(ParameterError, match="seed must be an integer"):
        SeededRng(1.5)
    assert SeededRng(np.uint64(3)).seed == SeededRng(3.0).seed == 3


def test_huge_finite_entries_pass_validation_without_a_warning():
    # a.a overflows beyond about 1e154; that must neither warn nor reject
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert as_vector(np.full(3, 1e200))[0] == 1e200
        assert as_matrix(np.full((2, 3), -1e300))[1, 2] == -1e300
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(NumericError):
            as_vector([1e200, bad])
        with pytest.raises(NumericError):
            as_matrix([[1.0], [bad]])


def test_random_psd_symmetric_and_nonnegative_spectrum():
    a = random_psd(SeededRng(1), 3)
    assert np.array_equal(a, a.T)
    # eigvalsh is independent of the G^T G construction path
    assert np.min(np.linalg.eigvalsh(a)) >= -1e-12


def test_random_orthogonal_rows():
    g = random_orthogonal_rows(SeededRng(1), 2, 4)
    assert np.max(np.abs(g @ g.T - np.eye(2))) <= 1e-10
    g2 = random_orthogonal_rows(SeededRng(1), 2, 4)
    assert np.array_equal(g, g2)


def test_normal_matrix_shape_and_determinism():
    m1 = SeededRng(9).normal(5, 7)
    m2 = SeededRng(9).normal(5, 7)
    assert m1.shape == (5, 7)
    assert np.array_equal(m1, m2)
