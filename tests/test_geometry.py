import math

import numpy as np
import numpy.testing as npt
import pytest

from volterra_lab import geometry, lattice
from volterra_lab.core import commutator, frobenius_inner
from volterra_lab.rng import SplitMix64, random_state, skew_matrix, substream_seed, uniform_matrix


def _context(u):
    return geometry.orbit_context(lattice.lax_from_state(lattice.LatticeState(np.asarray(u, dtype=float))))


def test_orbit_context_gap():
    ctx = _context([1.0, 1.0])
    assert ctx.gap_min == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert ctx.dense.shape == (3, 3)


def test_orbit_context_carries_the_generator_of_the_gradient():
    # [L^2, K] is built once per context, read-only, with the bits of the
    # expression each caller used to rebuild, and the gradient reads it
    for n in (1, 2, 5, 8, 13):
        for trial in range(4):
            ctx = _context(random_state(n, SplitMix64(substream_seed(48, n, trial))))
            g = commutator(ctx.dense @ ctx.dense, lattice.build_K(n + 1))
            assert ctx.generator.tobytes() == g.tobytes()
            assert not ctx.generator.flags.writeable
            grad = geometry.orbit_gradient(ctx).mat
            assert grad.tobytes() == commutator(ctx.dense, g).tobytes()


def test_orbit_context_refuses_near_degenerate():
    with pytest.raises(geometry.DegenerateSpectrumError):
        _context([1.0, 1e-20, 1.0])


def test_projection_kills_centralizer():
    ctx = _context([1.0, 2.0, 0.5])
    # the centralizer of a simple-spectrum matrix is its polynomial algebra
    for power in range(3):
        mat = np.linalg.matrix_power(ctx.dense, power + 1) + np.eye(4)
        out = geometry.centralizer_project(ctx, mat)
        assert np.abs(out).max() <= 1e-11 * (1.0 + np.linalg.norm(mat))


def test_projection_idempotent_and_fixes_generator():
    stream = SplitMix64(substream_seed(31, 0))
    for n in (1, 2, 4, 9):
        ctx = _context(random_state(n, stream))
        g = uniform_matrix(n + 1, stream)
        once = geometry.centralizer_project(ctx, g)
        twice = geometry.centralizer_project(ctx, once)
        npt.assert_allclose(twice, once, rtol=0, atol=1e-12 * (1.0 + np.linalg.norm(g)))
        # the weighted bracket has no centralizer component to remove
        a = commutator(ctx.dense @ ctx.dense, lattice.build_K(n + 1))
        npt.assert_allclose(
            geometry.centralizer_project(ctx, a),
            a,
            rtol=0,
            atol=1e-12 * (1.0 + np.linalg.norm(a)),
        )


def test_projection_preserves_skew():
    stream = SplitMix64(substream_seed(31, 1))
    ctx = _context(random_state(5, stream))
    w = skew_matrix(6, stream)
    npt.assert_allclose(
        geometry.centralizer_project(ctx, w), w, rtol=0, atol=1e-12 * (1.0 + np.linalg.norm(w))
    )


def test_projection_residual_is_orthogonal():
    # what the projection removes lies along the centralizer, what remains is
    # orthogonal to every polynomial in the base matrix
    stream = SplitMix64(substream_seed(31, 2))
    ctx = _context(random_state(4, stream))
    g = uniform_matrix(5, stream)
    out = geometry.centralizer_project(ctx, g)
    for power in range(1, 5):
        poly = np.linalg.matrix_power(ctx.dense, power)
        scale = 1.0 + np.linalg.norm(out) * np.linalg.norm(poly)
        assert abs(frobenius_inner(out, poly)) <= 1e-11 * scale


def test_projection_dimension_mismatch():
    ctx = _context([1.0, 1.0])
    with pytest.raises(ValueError):
        geometry.centralizer_project(ctx, np.eye(4))


def test_tangent_vector_validation():
    ctx = _context([1.0, 1.0])
    with pytest.raises(ValueError):
        geometry.TangentVector(ctx.base, np.eye(4))
    with pytest.raises(ValueError):
        geometry.TangentVector(ctx.base, np.full((3, 3), np.nan))


def test_metric_value_at_unit_sites():
    s = lattice.LatticeState(np.array([1.0, 1.0]))
    ctx = _context(s.u)
    a = lattice.build_A(s)
    v = geometry.TangentVector(ctx.base, commutator(ctx.dense, a))
    assert geometry.normal_metric(ctx, v, v) == pytest.approx(0.5, abs=1e-12)


def test_metric_defining_property():
    # metric of bracket velocities equals the flat product of the projected
    # generators, computed through an independent route
    stream = SplitMix64(substream_seed(32, 0))
    for n in (2, 4, 8):
        ctx = _context(random_state(n, stream))
        t1 = uniform_matrix(n + 1, stream)
        t2 = uniform_matrix(n + 1, stream)
        v1 = geometry.TangentVector(ctx.base, commutator(ctx.dense, t1))
        v2 = geometry.TangentVector(ctx.base, commutator(ctx.dense, t2))
        got = geometry.normal_metric(ctx, v1, v2)
        p1 = geometry.centralizer_project(ctx, t1)
        p2 = geometry.centralizer_project(ctx, t2)
        expect = frobenius_inner(p1, p2)
        scale = 1.0 + np.linalg.norm(p1) * np.linalg.norm(p2)
        assert abs(got - expect) <= 1e-10 * scale


def test_metric_symmetry_and_positivity():
    stream = SplitMix64(substream_seed(32, 1))
    ctx = _context(random_state(3, stream))
    t1 = uniform_matrix(4, stream)
    t2 = uniform_matrix(4, stream)
    v1 = geometry.TangentVector(ctx.base, commutator(ctx.dense, t1))
    v2 = geometry.TangentVector(ctx.base, commutator(ctx.dense, t2))
    assert geometry.normal_metric(ctx, v1, v2) == pytest.approx(
        geometry.normal_metric(ctx, v2, v1), rel=1e-12, abs=1e-12
    )
    assert geometry.normal_metric(ctx, v1, v1) > 0.0


def test_metric_rejects_base_mismatch():
    ctx1 = _context([1.0, 1.0])
    ctx2 = _context([2.0, 1.0])
    v1 = geometry.TangentVector(ctx1.base, commutator(ctx1.dense, np.eye(3)))
    v2 = geometry.TangentVector(ctx2.base, commutator(ctx2.dense, np.eye(3)))
    with pytest.raises(ValueError):
        geometry.normal_metric(ctx1, v1, v2)


def test_metric_rejects_nontangent():
    ctx = _context([1.0, 1.0])
    bad = geometry.TangentVector(ctx.base, np.eye(3))
    with pytest.raises(geometry.TangencyError):
        geometry.normal_metric(ctx, bad, bad)


def test_orbit_gradient_values():
    ctx1 = _context([1.0])
    npt.assert_allclose(
        geometry.orbit_gradient(ctx1).mat, np.zeros((2, 2)), rtol=0, atol=1e-14
    )
    ctx = _context([1.0, 1.0])
    expect = np.array([[0.0, -0.5, 0.0], [-0.5, 0.0, 0.5], [0.0, 0.5, 0.0]])
    npt.assert_allclose(geometry.orbit_gradient(ctx).mat, expect, rtol=0, atol=1e-14)


def test_directional_derivative_identity_direction():
    # [L, I] = 0, and the weighted bracket is traceless entry by entry
    ctx = _context([1.0, 2.0])
    assert geometry.directional_derivative(ctx.base, np.eye(3)) == 0.0


def test_directional_derivative_three_routes():
    stream = SplitMix64(substream_seed(33, 0))
    for n in (1, 3, 7, 14):
        ctx = _context(random_state(n, stream))
        t = uniform_matrix(n + 1, stream)
        dd = geometry.directional_derivative(ctx.base, t)
        dense, k = ctx.dense, lattice.build_K(n + 1)
        ldot = commutator(dense, t)
        route_chain = frobenius_inner(k, ldot @ dense + dense @ ldot)
        g = commutator(dense @ dense, k)
        route_pair = frobenius_inner(g, t)
        scale = 1.0 + abs(dd) + np.linalg.norm(g) * np.linalg.norm(t)
        assert abs(dd - route_chain) <= 1e-12 * scale
        assert abs(dd - route_pair) <= 1e-12 * scale


def test_directional_derivative_matches_finite_difference():
    stream = SplitMix64(substream_seed(33, 1))
    for n in (2, 5):
        ctx = _context(random_state(n, stream))
        t = skew_matrix(n + 1, stream)
        dd = geometry.directional_derivative(ctx.base, t)
        fd = geometry.finite_difference_directional(ctx.base, t, eps=1e-6)
        assert abs(fd - dd) <= 1e-4 * (1.0 + abs(dd))


def test_gradient_matches_metric_pairing():
    # the gradient represents the differential through the metric
    stream = SplitMix64(substream_seed(33, 2))
    for n in (2, 4, 9):
        ctx = _context(random_state(n, stream))
        grad = geometry.orbit_gradient(ctx)
        t = uniform_matrix(n + 1, stream)
        v = geometry.TangentVector(ctx.base, commutator(ctx.dense, t))
        dd = geometry.directional_derivative(ctx.base, t)
        paired = geometry.normal_metric(ctx, grad, v)
        scale = 1.0 + abs(dd) + np.linalg.norm(grad.mat) * np.linalg.norm(v.mat)
        assert abs(dd - paired) <= 1e-10 * scale


def test_flow_identity_at_unit_sites():
    report = geometry.gradient_flow_identity_check(lattice.LatticeState(np.array([1.0, 1.0])))
    assert report.passed
    assert report.df_dt == pytest.approx(-0.5, abs=1e-12)
    assert report.grad_norm_sq == pytest.approx(0.5, abs=1e-12)
    assert report.field_residual <= 1e-12
    assert report.energy_residual <= 1e-12


def test_flow_identity_trivial_site():
    report = geometry.gradient_flow_identity_check(lattice.LatticeState(np.array([1.0])))
    assert report.passed
    assert report.df_dt == pytest.approx(0.0, abs=1e-14)
    assert report.grad_norm_sq == pytest.approx(0.0, abs=1e-14)


def test_flow_identity_random_states():
    stream = SplitMix64(substream_seed(34, 0))
    checked = 0
    for trial in range(100):
        n = 2 + stream.next_u64() % 11
        s = lattice.LatticeState(random_state(n, stream))
        try:
            report = geometry.gradient_flow_identity_check(s)
        except geometry.DegenerateSpectrumError:
            continue
        assert report.passed, (n, report)
        assert report.df_dt <= 0.0
        checked += 1
    assert checked >= 90


def test_flow_identity_detects_wrong_sign(monkeypatch):
    # the check reads the constant when it runs, so one patch of
    # lattice.CALIBRATED_SIGN reaches it as it reaches the pushforward
    s = lattice.LatticeState(np.array([1.0, 2.0]))
    assert geometry.gradient_flow_identity_check(s).passed
    monkeypatch.setattr(lattice, "CALIBRATED_SIGN", +1)
    report = geometry.gradient_flow_identity_check(s)
    assert not report.passed
    assert report.field_residual > report.field_tolerance
    assert report.energy_residual > report.energy_tolerance
