"""The open Volterra lattice and its matrix forms.

State variables u_1..u_N evolve by du_n/dt = u_n (u_{n+1} - u_{n-1}) with
u_0 = u_{N+1} = 0 held at zero.  The substitution c_i = sqrt(u_i) places the
system on (N+1) x (N+1) symmetric tridiagonal matrices with zero diagonal,
where the same motion appears two more ways: as a Lax commutator flow and as
a double-bracket flow driven by the trace objective f(L) = <K, L^2> with
K = diag(1, 2, 3, ...) / 4.  This module builds all three right-hand sides
and the pushforward that carries the matrix forms back to u-space.  The
dense [L, A] of ``lax_rhs`` and [L, [L^2, K]] of ``double_bracket_field``
stay as the reference objects; the pushforward reads their superdiagonals
by O(N) formulas that give the same bits, because for diagonal K every
nonzero entry of the dense products there is a single product.  The bracket
pushforward keeps the tangency check of the dense field, on the only
entries where it can fail.

The module also holds the dense kernels the others share: the commutator
and the Frobenius pairing tr(X Y^T), which refuse operands numpy would
broadcast, and, outside ``__all__``, the eigensolve and tr X^k of a dense
Lax matrix, which trust the matrices ``densify`` builds.

Orientation of the commutator forms relative to the direct equations is a
constant of the construction, CALIBRATED_SIGN, which ``calibrate_sign``
re-derives from the dense Lax field.  No function takes a sign: both dense
fields are the unsigned brackets, and the pushforward, the battery and
``geometry.gradient_flow_identity_check`` read CALIBRATED_SIGN from this
module when they run, so every form runs the one flow that descends f.
The constant is not in ``__all__``, so the package root keeps no stale copy.
Reflecting the sites negates the direct field, so the time-reversed flow is
the flow from the reflected state, read in reverse site order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

# Not CALIBRATED_SIGN: a star import's copy would miss a patch of it here.
__all__ = [
    "FORMS",
    "InternalConsistencyError",
    "LatticeState",
    "LaxMatrix",
    "SignCalibration",
    "build_A",
    "build_K",
    "calibrate_sign",
    "commutator",
    "double_bracket_field",
    "frobenius_inner",
    "lax_from_state",
    "lax_rhs",
    "objective_f",
    "pushforward_rhs",
    "trace_objective",
    "volterra_rhs",
]

# Orientation of the commutator forms: the bracket fields as constructed
# generate the time reverse of the direct equations, so the direct flow is
# their negative.  With this sign the flow descends f.  calibrate_sign()
# re-derives it from the dense Lax field, which keeps the constant honest.
CALIBRATED_SIGN = -1

# Right-hand-side forms understood by pushforward_rhs and the integrator.
FORMS = ("direct", "lax", "bracket")

# Entrywise tolerance for the structural check on the double-bracket field,
# relative to ||L||^3.
TANGENCY_RTOL = 1e-12


class InternalConsistencyError(RuntimeError):
    """An algebraic identity the implementation relies on failed numerically."""


def _all_in_open(x: np.ndarray, lo: float, hi: float) -> bool:
    # Every entry of the nonempty array x lies strictly between lo and hi.
    # Two reductions cost less than a boolean temporary and .all() on short
    # vectors, and the ufunc reductions skip the x.min()/x.max() wrappers;
    # NaN propagates through both and fails both comparisons.
    return bool(lo < np.minimum.reduce(x, None) and np.maximum.reduce(x, None) < hi)


def _same_square(x, y) -> tuple[np.ndarray, np.ndarray]:
    # numpy would broadcast a vector or a 1 x 1 operand into a wrong number.
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1] or x.shape != y.shape:
        raise ValueError(f"operands must be square of one dimension, got {x.shape} and {y.shape}")
    return x, y


def commutator(x, y) -> np.ndarray:
    """Return [X, Y] = XY - YX for square matrices of equal dimension."""
    x, y = _same_square(x, y)
    return x @ y - y @ x


def frobenius_inner(x, y) -> float:
    """Trace inner product <X, Y> = tr(X Y^T), the entrywise dot product."""
    x, y = _same_square(x, y)
    return float(np.sum(x * y))


def symmetric_eigen(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ascending eigenvalues and eigenvector columns of a dense Lax matrix.

    ``numpy.linalg.eigh`` on ``densify()`` output, which is exactly
    symmetric and finite, so nothing is checked or symmetrized.
    """
    eigenvalues, basis = np.linalg.eigh(s)
    eigenvalues.flags.writeable = False
    basis.flags.writeable = False
    return eigenvalues, basis


def trace_power(x: np.ndarray, k: int) -> float:
    """tr(X^k) for an integer k >= 1 by repeated multiplication."""
    p = x
    for _ in range(k - 1):
        p = p @ x
    return float(np.trace(p))


def _require_finite_positive(arr: np.ndarray, name: str) -> None:
    # The slower isfinite pass runs only on failure, to pick the message:
    # a non-finite entry is reported before a nonpositive one.
    if not _all_in_open(arr, 0.0, np.inf):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite")
        raise ValueError(f"{name} must be positive")


@dataclass(frozen=True, eq=False)
class LatticeState:
    """Positive site variables u_1..u_N; boundary sites are implicit zeros."""

    u: np.ndarray

    def __post_init__(self):
        arr = np.array(self.u, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError(f"state must be a nonempty vector, got shape {arr.shape}")
        _require_finite_positive(arr, "site variables")
        arr.flags.writeable = False
        object.__setattr__(self, "u", arr)

    @property
    def n(self) -> int:
        return self.u.size


def _state_view(u: np.ndarray) -> LatticeState:
    # A LatticeState over a read-only view of u, for a float vector the
    # caller has already checked: no copy and no second validation.
    view = u.view()
    view.flags.writeable = False
    s = object.__new__(LatticeState)
    object.__setattr__(s, "u", view)
    return s


@dataclass(frozen=True, eq=False)
class LaxMatrix:
    """Off-diagonal entries c_1..c_N of a zero-diagonal symmetric tridiagonal."""

    c: np.ndarray

    def __post_init__(self):
        arr = np.array(self.c, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError(f"need a nonempty vector of couplings, got shape {arr.shape}")
        _require_finite_positive(arr, "couplings")
        arr.flags.writeable = False
        object.__setattr__(self, "c", arr)

    @property
    def dim(self) -> int:
        return self.c.size + 1

    def densify(self) -> np.ndarray:
        """Dense (N+1) x (N+1) form; read-only."""
        m = _dense_lax(self.c)
        m.flags.writeable = False
        return m


def lax_from_state(s: LatticeState) -> LaxMatrix:
    """Couplings c_i = sqrt(u_i)."""
    return LaxMatrix(np.sqrt(s.u))


def _volterra_raw(u: np.ndarray) -> np.ndarray:
    # Raw-array right-hand side, also used by the integrator's fast path.
    padded = np.zeros(len(u) + 2)
    padded[1:-1] = u
    return u * (padded[2:] - padded[:-2])


def volterra_rhs(s: LatticeState) -> np.ndarray:
    """Direct equations of motion du_n/dt = u_n (u_{n+1} - u_{n-1})."""
    return _volterra_raw(s.u)


def build_K(n: int) -> np.ndarray:
    """Objective weight matrix diag(1, 2, ..., n) / 4; read-only, built once per n."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"weight matrix needs dimension >= 2, got {n!r}")
    return _weight_matrix(int(n))


# A run uses one or a few dimensions; the bound only caps a long-lived
# process that visits many.
@functools.lru_cache(maxsize=16)
def _weight_matrix(n: int) -> np.ndarray:
    k = np.diag(np.arange(1, n + 1) / 4.0)
    k.flags.writeable = False
    return k


def _off_diagonals(n1: int, k: int, upper, lower) -> np.ndarray:
    # n1 x n1 zeros with `upper` on the k-th superdiagonal and `lower` on the
    # k-th subdiagonal, written through strided slices of the flat buffer.
    m = np.zeros(n1 * n1)
    m[k : n1 * (n1 - k) : n1 + 1] = upper
    m[k * n1 :: n1 + 1] = lower
    return m.reshape(n1, n1)


def _dense_lax(c: np.ndarray) -> np.ndarray:
    return _off_diagonals(c.size + 1, 1, c, c)


def _generator_entries(c: np.ndarray) -> np.ndarray:
    # Entries (i, i+2) of A, c_i c_{i+1} / 2.
    return 0.5 * c[:-1] * c[1:]


def _generator(c: np.ndarray) -> np.ndarray:
    prod = _generator_entries(c)
    return _off_diagonals(c.size + 1, 2, prod, -prod)


def _commutator_superdiagonal(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    # First superdiagonal of [L, X] in O(N), for X with x on its second
    # superdiagonal, -x on its second subdiagonal and zeros elsewhere.  There
    # each entry of L X and of X L has exactly one nonzero product,
    # c_{i-1} x_{i-1} and x_i c_{i+1}; the dense products only add exact
    # zeros to it, so this has the bits of the dense commutator.
    sup = np.zeros(c.size)
    sup[1:] = c[:-1] * x
    sup[:-1] -= x * c[1:]
    return sup


# Byte budget for one block of bidiagonal matrices in _lax_spectra, so a
# long recorded run at large N never holds all of them at once.
_SPECTRUM_BLOCK_BYTES = 1 << 20


def _lax_spectra(c: np.ndarray) -> np.ndarray:
    # Ascending spectra of the Lax matrices with the rows of c as couplings.
    # L couples even with odd indices only, so L = [[0, B], [B^T, 0]] with B
    # lower bidiagonal, B[i, i] = c[2i], B[i+1, i] = c[2i+1], and spec L is
    # -sigma(B), an exact 0 when dim L is odd, and sigma(B) (Golub & Kahan).
    s, n = c.shape
    k = (n + 1) // 2
    r = n + 1 - k
    out = np.zeros((s, n + 1))
    step = max(1, _SPECTRUM_BLOCK_BYTES // (8 * r * k))
    for lo in range(0, s, step):
        flat = np.zeros((min(step, s - lo), r * k))
        flat[:, :: k + 1] = c[lo : lo + step, 0::2]
        flat[:, k :: k + 1] = c[lo : lo + step, 1::2]
        sigma = np.linalg.svd(flat.reshape(-1, r, k), compute_uv=False)
        out[lo : lo + step, :k] = -sigma
        out[lo : lo + step, r:] = sigma[:, ::-1]
    return out


def _tangency_check(asym: float, off_band: float, norm: float) -> None:
    # tol = TANGENCY_RTOL ||L||_F^3 as Python float products, which overflow
    # to inf; ** 3 would raise OverflowError.  Beyond ||L||_F ~ 5e102 the
    # check therefore passes, and a field that overflowed as well is left
    # to the callers' checks for non-finite values.
    tol = TANGENCY_RTOL * norm * norm * norm
    if asym > tol or off_band > tol:
        raise InternalConsistencyError(
            f"double-bracket direction left the tridiagonal tangent space: "
            f"asymmetry {asym:.3g}, off-band {off_band:.3g}, tolerance {tol:.3g}"
        )


def _bracket_superdiagonal(c: np.ndarray) -> np.ndarray:
    # Bit for bit double_bracket_field(L).diagonal(1), with the same tangency
    # check, in O(N).  For diagonal K each nonzero entry of the dense L^2 K
    # and K L^2 is a single product, so [L^2, K] has the shape of A, with
    # w_i = p_i k_{i+2} - k_i p_i where p_i = (L^2)_{i,i+2} = c_i c_{i+1},
    # and an exactly zero diagonal.  The field [L, [L^2, K]] is then exactly
    # symmetric, and its only entries off the first off-diagonals are
    # c_i w_{i+1} - w_i c_{i+2} on the third, which the check compares.
    n1 = c.size + 1
    k = build_K(n1)
    kd = k.diagonal()
    if k is not _weight_matrix(n1) and np.count_nonzero(k) != np.count_nonzero(kd):
        raise InternalConsistencyError(
            "double-bracket direction left the tridiagonal tangent space: "
            "the weight matrix K is not diagonal"
        )
    p = c[:-1] * c[1:]
    w = p * kd[2:] - kd[:-2] * p
    third = c[:-2] * w[1:] - w[:-1] * c[2:]
    _tangency_check(
        0.0,
        float(np.abs(third).max(initial=0.0)),
        math.sqrt(2.0 * float(c.dot(c))),
    )
    return _commutator_superdiagonal(c, w)


def build_A(s: LatticeState) -> np.ndarray:
    """Skew generator of the Lax flow.

    Nonzero only on the second off-diagonals: entry (i, i+2) is
    c_i c_{i+1} / 2 and (i+2, i) its negative.  For N = 1 there is no such
    pair and the generator is zero.
    """
    a = _generator(np.sqrt(s.u))
    a.flags.writeable = False
    return a


def trace_objective(m) -> float:
    """f(M) = <K, M^2> = tr(K M^2) for any square matrix of dimension >= 2."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return frobenius_inner(build_K(m.shape[0]), m @ m)


def objective_f(L: LaxMatrix) -> float:
    """Objective value at a lattice point, f(L) = tr(K L^2)."""
    return trace_objective(L.densify())


def double_bracket_field(L: LaxMatrix) -> np.ndarray:
    """Double-bracket direction [L, [L^2, K]] at L.

    The result must be tangent to the tridiagonal shape: symmetric, zero
    diagonal, and zero outside the first off-diagonals.  That is an exact
    algebraic fact, so a failure beyond roundoff means the implementation
    is broken and raises InternalConsistencyError rather than returning
    garbage.
    """
    n1 = L.dim
    dense = _dense_lax(L.c)
    k = build_K(n1)
    sq = dense @ dense
    inner = sq @ k - k @ sq
    field = dense @ inner - inner @ dense
    _tangency_check(
        float(np.abs(field - field.T).max()),
        float(np.abs(field[abs(np.subtract.outer(range(n1), range(n1))) != 1]).max()),
        float(np.linalg.norm(dense)),
    )
    return field


def lax_rhs(L: LaxMatrix) -> np.ndarray:
    """Commutator [L, A] in dense form."""
    dense = _dense_lax(L.c)
    a = _generator(L.c)
    return dense @ a - a @ dense


def pushforward_rhs(s: LatticeState, form: str) -> np.ndarray:
    """du/dt computed through the requested form.

    The matrix forms advance the couplings, du_i = 2 c_i dc_i with dc_i read
    off the first superdiagonal of CALIBRATED_SIGN times the matrix field, so
    all forms report the same motion in the same coordinates.  Multiplying
    by the sign is exact, so it is folded into the factor 2.  Both
    superdiagonals are computed in O(N) and equal those of ``lax_rhs`` and
    ``double_bracket_field`` bit for bit; the bracket form raises
    InternalConsistencyError where the dense field's tangency check would,
    and also for a weight matrix that is not diagonal.
    """
    if form == "direct":
        return _volterra_raw(s.u)
    c = np.sqrt(s.u)
    if form == "lax":
        sup = _commutator_superdiagonal(c, _generator_entries(c))
    elif form == "bracket":
        sup = _bracket_superdiagonal(c)
    else:
        raise ValueError(f"unknown form {form!r}, expected one of {FORMS}")
    # (2 sigma c) sup has the bits of (2 c)(sigma sup): scaling by 2 and by
    # the sign sigma is exact and rounding is symmetric in sign.
    return (2.0 * CALIBRATED_SIGN) * c * sup


def _u_velocity(L: LaxMatrix, m: np.ndarray) -> np.ndarray:
    # du/dt of a dense field m on L, 2 c diag(m, 1): the pushforward's
    # chain rule written on the reference objects.
    return 2.0 * L.c * np.diagonal(m, 1)


@dataclass(frozen=True)
class SignCalibration:
    """Outcome of the orientation test.

    ``discrepancy`` maps each candidate sign to the largest deviation of
    that sign times the dense Lax field from the direct field, in u-space;
    ``sigma`` is the winner.
    """

    sigma: int
    discrepancy: Mapping[int, float]


def calibrate_sign(state: LatticeState | None = None) -> SignCalibration:
    """Determine the commutator orientation from the fields at one state.

    For each sign sigma, sigma times the dense [L, A] of ``lax_rhs``, read in
    u-space, is compared with the direct field; the sign that matches is the
    orientation.  Nothing is integrated and CALIBRATED_SIGN is not read.  The
    other sign misses by twice the direct field, so a tie (N = 1, where it
    vanishes) raises ValueError.
    """
    if state is None:
        state = LatticeState((1.0, 1.0))
    L = lax_from_state(state)
    direct = _volterra_raw(state.u)
    disc = {sig: float(np.abs(direct - _u_velocity(L, sig * lax_rhs(L))).max()) for sig in (1, -1)}
    if disc[+1] == disc[-1]:
        raise ValueError("orientation undetermined: the field vanishes")
    sigma = -1 if disc[-1] < disc[+1] else +1
    return SignCalibration(sigma=sigma, discrepancy=disc)
