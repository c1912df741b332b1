import numpy as np
import pytest

from volterra_lab.rng import (
    SplitMix64,
    random_state,
    skew_matrix,
    substream_seed,
    uniform_matrix,
)


def test_golden_outputs_for_seed_zero():
    # published reference vector for this generator
    stream = SplitMix64(0)
    assert stream.next_u64() == 0xE220A8397B1DCDAF
    assert stream.next_u64() == 0x6E789E6AA1B965F4
    assert stream.next_u64() == 0x06C45D188009454F


def test_determinism_and_uniform_range():
    a = SplitMix64(0x123456789ABCDEF)
    b = SplitMix64(0x123456789ABCDEF)
    draws = [a.uniform() for _ in range(1000)]
    assert draws == [b.uniform() for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in draws)
    assert draws[:3] == pytest.approx(
        [0.08389616190521443, 0.8337909344596774, 0.18580193412474622], rel=0, abs=0
    )


def test_uniform_signed_range():
    stream = SplitMix64(5)
    draws = [stream.uniform_signed() for _ in range(1000)]
    assert all(-1.0 <= x < 1.0 for x in draws)
    assert min(draws) < -0.5 and max(draws) > 0.5


def test_substream_seeds_decorrelate():
    seeds = {substream_seed(42, i, j) for i in range(8) for j in range(8)}
    assert len(seeds) == 64
    assert substream_seed(42, 3, 1) != substream_seed(42, 1, 3)
    assert substream_seed(42) == 42  # empty fold is the identity


def test_random_state_is_log_uniform_in_bounds():
    u = random_state(500, SplitMix64(substream_seed(9, 0)))
    assert u.shape == (500,)
    assert np.all(u >= 0.1) and np.all(u < 10.0)
    # spread covers both decades
    assert u.min() < 0.2 and u.max() > 5.0


def test_matrix_helpers_shapes_and_symmetry():
    stream = SplitMix64(substream_seed(9, 1))
    m = uniform_matrix(4, stream)
    assert m.shape == (4, 4)
    m = uniform_matrix(5, stream)
    s = 0.5 * (m + m.T)
    assert np.array_equal(s, s.T)
    w = skew_matrix(5, stream)
    assert np.array_equal(w, -w.T)
    assert np.all(np.diag(w) == 0.0)
