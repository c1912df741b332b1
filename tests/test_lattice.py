import ast
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from volterra_lab import lattice
from volterra_lab.lattice import commutator, frobenius_inner
from volterra_lab.rng import SplitMix64, random_state, substream_seed


def test_state_validation():
    with pytest.raises(ValueError):
        lattice.LatticeState(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        lattice.LatticeState(np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        lattice.LatticeState(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        lattice.LatticeState(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        lattice.LatticeState(np.array([]))
    s = lattice.LatticeState(np.array([1.0, 2.0]))
    assert not s.u.flags.writeable
    assert s.n == 2


_BAD_ENTRIES = [
    ([1.0, np.inf], "finite"),
    ([1.0, -np.inf], "finite"),
    ([1.0, np.nan], "finite"),
    ([np.nan, -1.0], "finite"),
    ([1.0, 0.0], "positive"),
    ([1.0, -1.0], "positive"),
]


@pytest.mark.parametrize("values, problem", _BAD_ENTRIES)
def test_state_validation_messages(values, problem):
    # a non-finite entry is reported before a nonpositive one
    with pytest.raises(ValueError, match=f"^site variables must be {problem}$"):
        lattice.LatticeState(np.array(values))


@pytest.mark.parametrize("values, problem", _BAD_ENTRIES)
def test_lax_matrix_validation_messages(values, problem):
    with pytest.raises(ValueError, match=f"^couplings must be {problem}$"):
        lattice.LaxMatrix(np.array(values))


def test_lax_roundtrip_exact_perfect_squares():
    s = lattice.LatticeState(np.array([1.0, 4.0, 9.0]))
    lax = lattice.lax_from_state(s)
    npt.assert_array_equal(lax.c, [1.0, 2.0, 3.0])
    npt.assert_array_equal(lax.c * lax.c, s.u)


def test_lax_roundtrip_random():
    stream = SplitMix64(substream_seed(21, 0))
    for n in (1, 2, 5, 12):
        u = random_state(n, stream)
        s = lattice.LatticeState(u)
        c = lattice.lax_from_state(s).c
        back = c * c
        npt.assert_allclose(back, u, rtol=1e-15, atol=0)


def test_lax_densify_structure():
    s = lattice.LatticeState(np.array([1.0, 4.0]))
    dense = lattice.lax_from_state(s).densify()
    expect = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]])
    npt.assert_array_equal(dense, expect)
    assert not dense.flags.writeable
    assert lattice.lax_from_state(s).dim == 3


def test_lax_matrix_validation():
    with pytest.raises(ValueError):
        lattice.LaxMatrix(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        lattice.LaxMatrix(np.array([-1.0]))


def test_volterra_rhs_examples():
    s = lattice.LatticeState(np.array([1.0, 2.0, 3.0]))
    npt.assert_array_equal(lattice.volterra_rhs(s), [2.0, 4.0, -6.0])
    npt.assert_array_equal(
        lattice.volterra_rhs(lattice.LatticeState(np.array([5.0]))), [0.0]
    )
    npt.assert_array_equal(
        lattice.volterra_rhs(lattice.LatticeState(np.array([1.0, 1.0]))), [1.0, -1.0]
    )


def test_volterra_rhs_total_mass_telescopes():
    # sum of site derivatives cancels pairwise at the boundary conditions
    stream = SplitMix64(substream_seed(21, 1))
    for n in (1, 2, 3, 8, 20):
        u = random_state(n, stream)
        du = lattice.volterra_rhs(lattice.LatticeState(u))
        assert abs(du.sum()) <= 1e-12 * (1.0 + np.abs(du).sum())


def test_weight_matrix_values():
    k = lattice.build_K(3)
    npt.assert_array_equal(np.diag(k), [0.25, 0.5, 0.75])
    npt.assert_array_equal(k, np.diag(np.diag(k)))
    for n in (2, 3, 7, 40):
        # quarter-integer entries sum exactly in binary
        assert np.trace(lattice.build_K(n)) == n * (n + 1) / 8.0
    with pytest.raises(ValueError):
        lattice.build_K(1)
    # the dense K is built from the diagonal the O(N) bracket reads
    for n in (2, 9):
        assert np.array_equal(lattice.build_K(n), np.diag(lattice._weights(n)))
        assert not lattice._weights(n).flags.writeable


def test_skew_generator_values():
    s = lattice.LatticeState(np.array([1.0, 1.0]))
    a = lattice.build_A(s)
    expect = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 0.0], [-0.5, 0.0, 0.0]])
    npt.assert_array_equal(a, expect)
    a49 = lattice.build_A(lattice.LatticeState(np.array([4.0, 9.0])))
    assert a49[0, 2] == 3.0
    npt.assert_array_equal(
        lattice.build_A(lattice.LatticeState(np.array([4.0]))), np.zeros((2, 2))
    )


def test_skew_generator_band_structure():
    stream = SplitMix64(substream_seed(22, 0))
    for n in (2, 5, 13):
        s = lattice.LatticeState(random_state(n, stream))
        a = lattice.build_A(s)
        npt.assert_array_equal(a, -a.T)
        # only the second off-diagonals may be populated
        mask = np.zeros_like(a, dtype=bool)
        idx = np.arange(n - 1)
        mask[idx, idx + 2] = True
        mask[idx + 2, idx] = True
        assert np.all(a[~mask] == 0.0)


def test_skew_generator_equals_weight_bracket():
    # two routes to the same generator: direct entries vs [L^2, K]
    stream = SplitMix64(substream_seed(22, 1))
    for n in range(1, 31):
        s = lattice.LatticeState(random_state(n, stream))
        dense = lattice.lax_from_state(s).densify()
        bracket = commutator(dense @ dense, lattice.build_K(n + 1))
        scale = 1.0 + np.linalg.norm(dense) ** 2
        assert np.abs(lattice.build_A(s) - bracket).max() <= 1e-12 * scale


def test_objective_values():
    assert lattice.objective_f(
        lattice.lax_from_state(lattice.LatticeState(np.array([1.0, 1.0])))
    ) == 2.0
    assert lattice.objective_f(
        lattice.lax_from_state(lattice.LatticeState(np.array([1.0])))
    ) == 0.75
    with pytest.raises(ValueError):
        lattice.trace_objective(np.ones((2, 3)))


def test_objective_closed_form():
    # tr(K L^2) written out in site variables: sum_n (2n + 1) u_n / 4
    stream = SplitMix64(substream_seed(23, 0))
    for n in (1, 2, 4, 9, 17):
        u = random_state(n, stream)
        lax = lattice.lax_from_state(lattice.LatticeState(u))
        expect = sum((2 * (i + 1) + 1) * u[i] / 4.0 for i in range(n))
        assert lattice.objective_f(lax) == pytest.approx(expect, rel=1e-13)


def test_objective_is_linear_in_sites():
    stream = SplitMix64(substream_seed(23, 1))
    for _ in range(10):
        u = random_state(6, stream)
        alpha = 0.5 + stream.uniform()
        f1 = lattice.objective_f(lattice.lax_from_state(lattice.LatticeState(u)))
        f2 = lattice.objective_f(
            lattice.lax_from_state(lattice.LatticeState(alpha * u))
        )
        assert f2 == pytest.approx(alpha * f1, rel=1e-13)


def test_double_bracket_field_values():
    zero = lattice.double_bracket_field(
        lattice.lax_from_state(lattice.LatticeState(np.array([1.0])))
    )
    npt.assert_allclose(zero, np.zeros((2, 2)), rtol=0, atol=1e-15)
    field = lattice.double_bracket_field(
        lattice.lax_from_state(lattice.LatticeState(np.array([1.0, 1.0])))
    )
    expect = np.array([[0.0, -0.5, 0.0], [-0.5, 0.0, 0.5], [0.0, 0.5, 0.0]])
    npt.assert_allclose(field, expect, rtol=0, atol=1e-14)


def test_double_bracket_two_routes_agree():
    stream = SplitMix64(substream_seed(24, 0))
    for n in (1, 3, 8, 16):
        s = lattice.LatticeState(random_state(n, stream))
        lax = lattice.lax_from_state(s)
        dense = lax.densify()
        via_a = commutator(dense, lattice.build_A(s))
        via_k = lattice.double_bracket_field(lax)
        scale = 1.0 + np.linalg.norm(dense) ** 3
        assert np.abs(via_a - via_k).max() <= 1e-12 * scale


def test_lax_rhs_is_the_unsigned_commutator():
    # lax_rhs(L) is the paper's [L, A]; the orientation is applied by the
    # caller, and CALIBRATED_SIGN times it pushes forward to the direct field
    L = lattice.lax_from_state(lattice.LatticeState(np.array([1.0, 1.0])))
    dot = lattice.lax_rhs(L)
    assert dot[0, 1] == -0.5
    npt.assert_array_equal(dot, dot.T)
    stream = SplitMix64(substream_seed(46, 0))
    for n in (1, 2, 5, 13):
        s = lattice.LatticeState(random_state(n, stream))
        L = lattice.lax_from_state(s)
        dense = L.densify()
        a = lattice.build_A(s)
        assert np.array_equal(lattice.lax_rhs(L), dense @ a - a @ dense)
        m = lattice.CALIBRATED_SIGN * lattice.lax_rhs(L)
        npt.assert_allclose(2.0 * L.c * np.diagonal(m, 1), lattice.volterra_rhs(s),
                            rtol=1e-13, atol=1e-13)


def test_pushforward_forms_and_validation():
    s = lattice.LatticeState(np.array([1.0, 1.0]))
    direct = lattice.pushforward_rhs(s, "direct")
    npt.assert_array_equal(direct, [1.0, -1.0])
    for form in ("lax", "bracket"):
        via = lattice.pushforward_rhs(s, form)
        npt.assert_allclose(via, direct, rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        lattice.pushforward_rhs(s, "unknown")


def test_pushforward_fixed_point():
    s = lattice.LatticeState(np.array([3.7]))
    for form in lattice.FORMS:
        npt.assert_allclose(
            lattice.pushforward_rhs(s, form),
            [0.0],
            rtol=0,
            atol=1e-15,
        )


def test_pushforward_equivalence_sweep():
    # All three forms produce the same site velocities, and the integrator's
    # kernel, one per n and form and reused across calls, has the bits of
    # pushforward_rhs on fresh buffers.
    worst_abs = 0.0
    worst_rel = 0.0
    kernels = {}
    stream = SplitMix64(substream_seed(25, 0))
    for trial in range(200):
        n = 1 + stream.next_u64() % 20
        s = lattice.LatticeState(random_state(n, stream))
        direct = lattice.pushforward_rhs(s, "direct")
        scale = 1.0 + np.abs(direct).max()
        for form in ("lax", "bracket"):
            via = lattice.pushforward_rhs(s, form)
            kernel = kernels.setdefault((n, form), lattice._matrix_field(n, form))
            assert np.array_equal(_bits(kernel(s.u, np.empty(n))), _bits(via))
            gap = np.abs(via - direct).max()
            worst_abs = max(worst_abs, gap)
            worst_rel = max(worst_rel, gap / scale)
    assert worst_abs <= 1e-13
    assert worst_rel <= 1e-12
    # The kernel is 2 c diag(M, 1) of the dense field M bit for bit, signed
    # zeros included, also where its products underflow; where they
    # overflow, both are non-finite.
    gen = np.random.default_rng(substream_seed(25, 1))
    dense = {"lax": lattice.lax_rhs, "bracket": lattice.double_bracket_field}
    compared = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in (1, 2, 3, 4, 5, 12, 33, 129):
            for decades in (1.0, 150.0, 300.0):
                for _ in range(4):
                    s = lattice.LatticeState(10.0 ** gen.uniform(-decades, decades, n))
                    L = lattice.lax_from_state(s)
                    for form in ("lax", "bracket"):
                        m = lattice.CALIBRATED_SIGN * dense[form](L)
                        want = 2.0 * L.c * np.diagonal(m, 1)
                        got = lattice._matrix_field(n, form)(s.u, np.empty(n))
                        assert np.isfinite(got).all() == np.isfinite(want).all(), (n, decades)
                        if np.isfinite(got).all():
                            assert np.array_equal(_bits(got), _bits(want)), (n, decades, form)
                            compared += 1
    assert compared > 100


def _bits(x):
    # compare through the integer view, so signed zeros and NaN payloads count
    return np.asarray(x, dtype=float).view(np.int64)


def _signed_pushforward(s, form, sigma):
    # sigma * CALIBRATED_SIGN is +1 or -1, so the product is exact
    return sigma * lattice.CALIBRATED_SIGN * lattice.pushforward_rhs(s, form)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 129])
def test_pushforward_is_the_public_field_superdiagonal(n):
    # the integrator's pushforward equals 2 c diag(M, 1) bit for bit, where
    # M is the public dense field: the O(N) superdiagonals are exact because
    # each of their entries is a single product in the dense matmuls.  The
    # other sign is the exact negation, which a reversed CALIBRATED_SIGN
    # would run.
    stream = SplitMix64(substream_seed(41, n))
    for _ in range(5):
        s = lattice.LatticeState(random_state(n, stream))
        L = lattice.lax_from_state(s)
        for sigma in (1, -1):
            fields = {
                "lax": sigma * lattice.lax_rhs(L),
                "bracket": sigma * lattice.double_bracket_field(L),
            }
            for form, m in fields.items():
                expected = 2.0 * L.c * np.diagonal(m, 1)
                got = _signed_pushforward(s, form, sigma)
                assert np.array_equal(_bits(got), _bits(expected))
    # sites log-uniform over 200 decades, far beyond the integrator's range
    rng = np.random.default_rng(substream_seed(43, n))
    for _ in range(20):
        s = lattice.LatticeState(10.0 ** rng.uniform(-100.0, 100.0, n))
        L = lattice.lax_from_state(s)
        for sigma in (1, -1):
            expected = 2.0 * L.c * np.diagonal(sigma * lattice.lax_rhs(L), 1)
            got = _signed_pushforward(s, "lax", sigma)
            assert np.array_equal(_bits(got), _bits(expected))
    # the dense bracket overflows beyond about 1e70 (||L||^6 entries), so
    # its sweep spans 120 decades
    for _ in range(20):
        s = lattice.LatticeState(10.0 ** rng.uniform(-60.0, 60.0, n))
        L = lattice.lax_from_state(s)
        for sigma in (1, -1):
            m = sigma * lattice.double_bracket_field(L)
            expected = 2.0 * L.c * np.diagonal(m, 1)
            got = _signed_pushforward(s, "bracket", sigma)
            assert np.array_equal(_bits(got), _bits(expected))


def test_bracket_kernel_sees_what_the_dense_check_sees():
    # the O(N) off-band entries are those of the dense field, exactly, and
    # the dense field is exactly symmetric
    rng = np.random.default_rng(substream_seed(44, 0))
    for n in (3, 4, 12, 64):
        for _ in range(10):
            c = np.sqrt(10.0 ** rng.uniform(-30.0, 30.0, n))
            field = lattice.double_bracket_field(lattice.LaxMatrix(c))
            assert np.array_equal(field, field.T)
            kd = np.diagonal(lattice.build_K(n + 1))
            p = c[:-1] * c[1:]
            w = p * kd[2:] - kd[:-2] * p
            third = c[:-2] * w[1:] - w[:-1] * c[2:]
            assert np.array_equal(_bits(third), _bits(field.diagonal(3)))
            off = np.abs(field[abs(np.subtract.outer(range(n + 1), range(n + 1))) != 1]).max()
            assert off == np.abs(third).max()


def test_uneven_diagonal_weights_fail_the_tangency_check(monkeypatch):
    # The O(N) bracket checks no tangency: the field's third off-diagonal,
    # c_i c_{i+1} c_{i+2} ((k_{i+3} - k_{i+1}) - (k_{i+2} - k_i)), vanishes for
    # every c only while K's diagonal has equal lag-2 differences
    for n in (2, 3, 4, 5, 12, 129, 10**6):
        kd = lattice._weights(n)
        assert np.array_equal(kd[3:] - kd[1:-2], kd[2:-1] - kd[:-3])
    lattice._weights.cache_clear()
    # diag(1, 2, 4, 8, ...) / 4 is diagonal, so only the third off-diagonal
    # of the dense field can notice that its spacing is uneven
    monkeypatch.setattr(lattice, "build_K", lambda n: np.diag(2.0 ** np.arange(n)) / 4.0)
    s = lattice.LatticeState(np.array([1.0, 2.0, 3.0, 0.5]))
    with pytest.raises(lattice.InternalConsistencyError, match="off-band"):
        lattice.double_bracket_field(lattice.lax_from_state(s))


def test_bracket_at_a_million_sites_is_the_direct_field():
    # w_i = p_i k_{i+2} - k_i p_i rounds at the scale of k ~ N / 4, so here a
    # per-call tangency check would refuse correct weights: the computed
    # third off-diagonal reaches 9.0e-11 against a tolerance of 3.6e-11
    u = np.full(10**6, 1e-30)
    u[-4:] = (1.3, 1.9, 1.7, 0.5)
    try:
        got = lattice.pushforward_rhs(lattice.LatticeState(u), "bracket")
    finally:
        lattice._weights.cache_clear()
    npt.assert_allclose(got, lattice.volterra_rhs(lattice.LatticeState(u)), rtol=1e-9, atol=1e-40)


@pytest.mark.parametrize("decades", [(199.0, 201.0), (205.0, 215.0), (150.0, 308.0)])
def test_overflowing_bracket_is_non_finite_in_both_kernels(decades):
    # where the products overflow, neither kernel raises: both return a
    # non-finite derivative, so the integrator takes the same rejection,
    # and where neither overflows the bits are equal
    rng = np.random.default_rng(substream_seed(45, int(decades[0])))
    for n in (1, 2, 3, 12):
        for _ in range(30):
            s = lattice.LatticeState(10.0 ** rng.uniform(*decades, n))
            L = lattice.lax_from_state(s)
            with np.errstate(over="ignore", invalid="ignore"):
                m = lattice.CALIBRATED_SIGN * lattice.double_bracket_field(L)
                expected = 2.0 * L.c * np.diagonal(m, 1)
                got = lattice.pushforward_rhs(s, "bracket")
            assert np.isfinite(got).all() == np.isfinite(expected).all()
            if np.isfinite(got).all():
                assert np.array_equal(_bits(got), _bits(expected))
    with np.errstate(over="ignore", invalid="ignore"):
        got = lattice.pushforward_rhs(lattice.LatticeState(np.array([1e200, 1e200])), "bracket")
    assert not np.isfinite(got).any()


def test_non_diagonal_weights_fail_the_dense_tangency_check(monkeypatch):
    # a non-diagonal weight matrix breaks the tridiagonal shape of the dense
    # double bracket; the O(N) pushforward reads only K's diagonal
    monkeypatch.setattr(lattice, "build_K", lambda n: np.ones((n, n)))
    L = lattice.LaxMatrix(np.sqrt([1.0, 2.0, 3.0]))
    with pytest.raises(lattice.InternalConsistencyError, match="off-band"):
        lattice.double_bracket_field(L)


def _unsigned_velocities(s):
    # the direct field and the pushforward of the Lax field before any sign
    L = lattice.lax_from_state(s)
    return lattice.volterra_rhs(s), lattice._u_velocity(L, lattice.lax_rhs(L))


def test_sign_calibration_picks_descent():
    # an orientation oracle that reads no package sign: at u = (1, 1) only
    # -1 times the unsigned Lax field reproduces the direct field, which pins
    # the constant
    direct, via_lax = _unsigned_velocities(lattice.LatticeState(np.array([1.0, 1.0])))
    npt.assert_array_equal(-via_lax, direct)
    assert np.abs(via_lax - direct).max() > 1e-3
    assert lattice.CALIBRATED_SIGN == -1


def test_sign_calibration_discrepancy_is_pinned():
    # at u = (1, 1) the direct field is (1, -1): -1 times the Lax field
    # matches it exactly and the other sign misses by twice its size
    direct, via_lax = _unsigned_velocities(lattice.LatticeState(np.array([1.0, 1.0])))
    npt.assert_array_equal(direct, [1.0, -1.0])
    npt.assert_array_equal(via_lax, [-1.0, 1.0])
    assert np.abs(-via_lax - direct).max() == 0.0
    assert np.abs(via_lax - direct).max() == 2.0


def test_sign_calibration_stable_across_states():
    # at drawn states -1 times the dense field matches to roundoff, and +1
    # misses by twice the direct field
    stream = SplitMix64(substream_seed(26, 0))
    for n in (2, 3, 5):
        direct, via_lax = _unsigned_velocities(lattice.LatticeState(random_state(n, stream)))
        assert np.abs(-via_lax - direct).max() <= 1e-12 * np.abs(direct).max()
        assert np.abs(via_lax - direct).max() > 1e-3


def test_lattice_imports_nothing_from_the_layers_above():
    # an AST scan, at every nesting level, so a lazy import cannot bring the
    # lattice -> integrate cycle back
    tree = ast.parse(Path(lattice.__file__).read_text(encoding="utf-8"))
    above = {"integrate", "verify", "cli"}
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
    assert imported  # the scan sees the module's imports
    assert not imported & above


def test_weight_gradient_identity():
    # d f along [L, T] curves equals tr([L^2, K] T^T) for arbitrary T
    stream = SplitMix64(substream_seed(27, 0))
    for n in (2, 5, 11):
        s = lattice.LatticeState(random_state(n, stream))
        dense = lattice.lax_from_state(s).densify()
        k = lattice.build_K(n + 1)
        g = commutator(dense @ dense, k)
        t = np.array(
            [[stream.uniform_signed() for _ in range(n + 1)] for _ in range(n + 1)]
        )
        lhs = frobenius_inner(k, commutator(dense, t) @ dense + dense @ commutator(dense, t))
        rhs = frobenius_inner(g, t)
        scale = 1.0 + abs(lhs) + np.linalg.norm(g) * np.linalg.norm(t)
        assert abs(lhs - rhs) <= 1e-12 * scale
