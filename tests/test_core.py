import math

import numpy as np
import numpy.testing as npt
import pytest

from volterra_lab import core
from volterra_lab.rng import SplitMix64, skew_matrix, substream_seed, uniform_matrix


def test_commutator_example():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    y = np.diag([0.25, 0.5])
    npt.assert_array_equal(core.commutator(x, y), [[0.0, 0.25], [-0.25, 0.0]])


def test_commutator_antisymmetry_and_bilinearity():
    stream = SplitMix64(substream_seed(11, 0))
    for _ in range(25):
        dim = 2 + stream.next_u64() % 9
        x = uniform_matrix(dim, stream)
        y = uniform_matrix(dim, stream)
        z = uniform_matrix(dim, stream)
        a, b = stream.uniform_signed(), stream.uniform_signed()
        scale = 1.0 + np.linalg.norm(x) * np.linalg.norm(y)
        npt.assert_allclose(core.commutator(x, y), -core.commutator(y, x),
                            rtol=0, atol=1e-12 * scale)
        npt.assert_allclose(
            core.commutator(a * x + b * y, z),
            a * core.commutator(x, z) + b * core.commutator(y, z),
            rtol=0,
            atol=1e-12 * (1.0 + (abs(a) * np.linalg.norm(x) + abs(b) * np.linalg.norm(y)) * np.linalg.norm(z)),
        )


def test_commutator_jacobi_identity():
    stream = SplitMix64(substream_seed(11, 1))
    for _ in range(25):
        dim = 2 + stream.next_u64() % 9
        x = uniform_matrix(dim, stream)
        y = uniform_matrix(dim, stream)
        z = uniform_matrix(dim, stream)
        total = (
            core.commutator(x, core.commutator(y, z))
            + core.commutator(y, core.commutator(z, x))
            + core.commutator(z, core.commutator(x, y))
        )
        scale = np.linalg.norm(x) * np.linalg.norm(y) * np.linalg.norm(z)
        assert np.abs(total).max() <= 1e-12 * (1.0 + scale)


def test_commutator_dimension_mismatch():
    with pytest.raises(core.DimensionMismatchError):
        core.commutator(np.eye(2), np.eye(3))
    with pytest.raises(core.DimensionMismatchError):
        core.commutator(np.ones((2, 3)), np.ones((3, 2)))


def test_frobenius_inner_is_trace_of_product():
    # independent oracle: the literal trace of X Y^T by explicit summation
    stream = SplitMix64(substream_seed(12, 0))
    for _ in range(10):
        x = uniform_matrix(5, stream)
        y = uniform_matrix(5, stream)
        oracle = sum(x[i, j] * y[i, j] for i in range(5) for j in range(5))
        assert core.frobenius_inner(x, y) == pytest.approx(oracle, rel=1e-13)
        assert core.frobenius_inner(x, y) == pytest.approx(
            float(np.trace(x @ y.T)), rel=0, abs=1e-12 * (1 + abs(oracle))
        )


def test_frobenius_skew_orthogonal_to_symmetric():
    stream = SplitMix64(substream_seed(12, 1))
    for _ in range(20):
        dim = 2 + stream.next_u64() % 7
        m = uniform_matrix(dim, stream)
        s = 0.5 * (m + m.T)
        w = skew_matrix(dim, stream)
        scale = np.linalg.norm(s) * np.linalg.norm(w)
        assert abs(core.frobenius_inner(s, w)) <= 1e-13 * (1.0 + scale)


def test_frobenius_weight_identity_not_assumed():
    # tr(K [S, T]) = tr([S, K] T^T) for diagonal K and symmetric S
    stream = SplitMix64(substream_seed(12, 2))
    for _ in range(50):
        dim = 2 + stream.next_u64() % 9
        k = np.diag([stream.uniform() + 0.1 for _ in range(dim)])
        m = uniform_matrix(dim, stream)
        s = 0.5 * (m + m.T)
        t = uniform_matrix(dim, stream)
        lhs = float(np.trace(k @ core.commutator(s, t)))
        rhs = float(np.trace(core.commutator(s, k) @ t.T))
        scale = 1.0 + np.linalg.norm(k) * np.linalg.norm(s) * np.linalg.norm(t)
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_frobenius_dimension_mismatch():
    with pytest.raises(core.DimensionMismatchError):
        core.frobenius_inner(np.eye(2), np.eye(3))


def test_trace_power_examples():
    assert core.trace_power(np.eye(3), 5) == 3.0
    lax = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert core.trace_power(lax, 2) == 4.0
    assert core.trace_power(lax, 3) == 0.0


def test_trace_power_matches_eigen_sum():
    stream = SplitMix64(substream_seed(13, 0))
    for dim in (2, 5, 11, 20):
        m = uniform_matrix(dim, stream)
        s = 0.5 * (m + m.T)
        lam = core.symmetric_eigen(s).eigenvalues
        for k in (1, 2, 3, 4, 6):
            expect = float(np.sum(lam**k))
            assert core.trace_power(s, k) == pytest.approx(
                expect, rel=1e-10, abs=1e-10 * dim
            )


def test_trace_power_validation():
    with pytest.raises(ValueError):
        core.trace_power(np.eye(2), 0)
    with pytest.raises(ValueError):
        core.trace_power(np.eye(2), 2.5)
    with pytest.raises(core.DimensionMismatchError):
        core.trace_power(np.ones((2, 3)), 2)


def test_all_in_open_bounds_are_strict_and_nan_fails():
    assert core._all_in_open(np.array([1.0, 2.0]), 0.0, np.inf)
    assert not core._all_in_open(np.array([[1.0, 2.0], [3.0, 0.0]]), 0.0, np.inf)
    assert not core._all_in_open(np.array([np.inf, 1.0]), -np.inf, np.inf)
    assert not core._all_in_open(np.array([1.0, np.nan, 2.0]), -np.inf, np.inf)
    with pytest.raises(ValueError, match="zero-size array"):
        core._all_in_open(np.array([]), 0.0, 1.0)


def test_eigen_diagonal_input():
    eig = core.symmetric_eigen(np.diag([3.0, 1.0, 2.0]))
    npt.assert_array_equal(eig.eigenvalues, [1.0, 2.0, 3.0])
    # columns are the unit vectors matching the sort
    npt.assert_array_equal(eig.basis, np.eye(3)[:, [1, 2, 0]])


def test_eigen_exchange_matrix():
    eig = core.symmetric_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    npt.assert_allclose(eig.eigenvalues, [-1.0, 1.0], rtol=0, atol=1e-14)


def test_eigen_lax_of_unit_sites():
    lax = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    eig = core.symmetric_eigen(lax)
    npt.assert_allclose(
        eig.eigenvalues, [-math.sqrt(2.0), 0.0, math.sqrt(2.0)], rtol=0, atol=1e-13
    )


def test_eigen_tie_order_is_stable():
    # equal eigenvalues keep the order the iteration produced them in
    eig = core.symmetric_eigen(np.diag([2.0, 1.0, 1.0]))
    npt.assert_array_equal(eig.eigenvalues, [1.0, 1.0, 2.0])
    npt.assert_array_equal(eig.basis, np.eye(3)[:, [1, 2, 0]])


def test_eigen_reconstruction_and_orthonormality():
    stream = SplitMix64(substream_seed(14, 0))
    for dim in (1, 2, 3, 5, 10, 20, 50):
        m = uniform_matrix(dim, stream)
        s = 0.5 * (m + m.T)
        eig = core.symmetric_eigen(s)
        assert np.all(np.diff(eig.eigenvalues) >= 0.0)
        recon = eig.basis @ np.diag(eig.eigenvalues) @ eig.basis.T
        assert np.linalg.norm(recon - s) <= 1e-10 * max(np.linalg.norm(s), 1e-30)
        gram = eig.basis.T @ eig.basis
        assert np.abs(gram - np.eye(dim)).max() <= 1e-12 * dim


def test_eigen_matches_independent_solver():
    stream = SplitMix64(substream_seed(14, 1))
    for dim in (3, 8, 25):
        m = uniform_matrix(dim, stream)
        s = 0.5 * (m + m.T)
        mine = core.symmetric_eigen(s).eigenvalues
        ref = np.linalg.eigvalsh(s)
        npt.assert_allclose(mine, ref, rtol=0, atol=1e-12 * max(1.0, np.linalg.norm(s)))


def test_eigen_zero_and_scalar():
    eig = core.symmetric_eigen(np.zeros((3, 3)))
    npt.assert_array_equal(eig.eigenvalues, np.zeros(3))
    npt.assert_array_equal(eig.basis, np.eye(3))
    eig1 = core.symmetric_eigen(np.array([[7.5]]))
    npt.assert_array_equal(eig1.eigenvalues, [7.5])


def test_eigen_rejects_asymmetric():
    with pytest.raises(core.NotSymmetricError):
        core.symmetric_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigen_rejects_nonfinite():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            core.symmetric_eigen(np.array([[bad, 0.0], [0.0, 1.0]]))
        # reported as non-finite even where the entry also breaks symmetry
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            core.symmetric_eigen(np.array([[0.0, bad], [0.0, 1.0]]))


def test_eigen_unit_lax_closed_form():
    # the m x m Lax matrix of unit sites has eigenvalues 2 cos(j pi / (m + 1))
    for m in (2, 9, 33, 129):
        lax = np.eye(m, k=1) + np.eye(m, k=-1)
        eig = core.symmetric_eigen(lax)
        expect = 2.0 * np.cos(np.arange(m, 0, -1) * math.pi / (m + 1))
        assert np.abs(eig.eigenvalues - expect).max() <= 1e-13 * m
        gram = eig.basis.T @ eig.basis
        assert np.abs(gram - np.eye(m)).max() <= 1e-13 * m


def test_expm_small_matches_orthogonal_rotation():
    # exp of a 2x2 skew generator is a plane rotation
    w = np.array([[0.0, 0.3], [-0.3, 0.0]])
    out = core.expm_small(w)
    expect = np.array(
        [[math.cos(0.3), math.sin(0.3)], [-math.sin(0.3), math.cos(0.3)]]
    )
    npt.assert_allclose(out, expect, rtol=0, atol=1e-15)
    npt.assert_allclose(out @ out.T, np.eye(2), rtol=0, atol=1e-15)


def test_expm_small_refuses_large_norm():
    with pytest.raises(ValueError):
        core.expm_small(np.eye(3))
