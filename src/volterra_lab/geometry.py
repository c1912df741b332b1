"""Riemannian geometry of the isospectral manifold.

The flow preserves the spectrum of L, so the motion lives on the manifold of
matrices orthogonally equivalent to the initial one.  Tangent vectors at L
are commutators [L, T]; the centralizer of L (diagonal matrices in its
eigenbasis, since the spectrum is simple) is the ambiguity in T, and the
normal metric fixes it by choosing the representative with no centralizer
component.  In the eigenbasis everything is explicit: conjugating by the
basis, projecting out the diagonal, and dividing entrywise by eigenvalue
gaps inverts T -> [L, T] on the orthogonal complement of the centralizer.

All of it requires a simple spectrum with well-separated eigenvalues, which
the lattice guarantees in exact arithmetic; contexts refuse to build when
the numerical gap is too small to divide by.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lattice
from .core import EigenDecomposition, commutator, expm_small, frobenius_inner, symmetric_eigen
from .lattice import (
    LatticeState,
    LaxMatrix,
    _dense_lax,
    build_K,
    lax_from_state,
    trace_objective,
    volterra_rhs,
)

__all__ = [
    "DegenerateSpectrumError",
    "GradientFlowReport",
    "OrbitContext",
    "TangencyError",
    "TangentVector",
    "centralizer_project",
    "directional_derivative",
    "finite_difference_directional",
    "gradient_flow_identity_check",
    "normal_metric",
    "orbit_context",
    "orbit_gradient",
]

# Smallest admissible eigenvalue gap, relative to ||L||.
DEGENERACY_RTOL = 1e-8

# Largest admissible centralizer component of a tangent vector, relative to
# its own norm, when solving for metric coordinates.
TANGENCY_RTOL = 1e-10


class DegenerateSpectrumError(RuntimeError):
    """Eigenvalue gaps too small for the normal-metric solve; refuse, do not regularize."""


class TangencyError(ValueError):
    """A matrix presented as tangent has a centralizer component beyond tolerance."""


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A tangent direction at ``base``, stored as the dense matrix [L, T]."""

    base: LaxMatrix
    mat: np.ndarray

    def __post_init__(self):
        m = np.array(self.mat, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"tangent matrix must be square, got shape {m.shape}")
        if m.shape[0] != self.base.dim:
            raise ValueError(
                f"tangent matrix dimension {m.shape[0]} does not match base dimension {self.base.dim}"
            )
        if not np.isfinite(m).all():
            raise ValueError("tangent matrix entries must be finite")
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)


@dataclass(frozen=True, eq=False)
class OrbitContext:
    """L, the gradient's generator [L^2, K] (both read-only) and eigen data of a base point."""

    base: LaxMatrix
    dense: np.ndarray
    generator: np.ndarray
    eig: EigenDecomposition
    gap_min: float


def orbit_context(L: LaxMatrix) -> OrbitContext:
    """Diagonalize the base point and check its spectrum is workably simple.

    Raises DegenerateSpectrumError when the smallest eigenvalue gap does not
    exceed DEGENERACY_RTOL times ||L||.
    """
    dense = L.densify()
    eig = symmetric_eigen(dense)
    gaps = np.diff(eig.eigenvalues)
    gap_min = float(gaps.min())
    threshold = DEGENERACY_RTOL * float(np.linalg.norm(dense))
    if gap_min <= threshold:
        raise DegenerateSpectrumError(
            f"eigenvalue gap {gap_min:.3g} at or below threshold {threshold:.3g}"
        )
    generator = commutator(dense @ dense, build_K(L.dim))
    generator.flags.writeable = False
    return OrbitContext(base=L, dense=dense, generator=generator, eig=eig, gap_min=gap_min)


def centralizer_project(ctx: OrbitContext, t) -> np.ndarray:
    """Project out the centralizer of the base point.

    In the eigenbasis the centralizer is the diagonal, so the projection
    conjugates in, zeroes the diagonal, and conjugates back.  Idempotent,
    and the identity on commutators with the base point.
    """
    t = np.asarray(t, dtype=float)
    q = ctx.eig.basis
    if t.shape != q.shape:
        raise ValueError(f"expected shape {q.shape}, got {t.shape}")
    w = q.T @ t @ q
    w = w.copy()
    np.fill_diagonal(w, 0.0)
    return q @ w @ q.T


def _tangent_coordinates(ctx: OrbitContext, v: TangentVector) -> np.ndarray:
    """Solve [L, T] = V for the centralizer-free T, in the eigenbasis.

    Entry (i, j) of Q^T V Q equals (lambda_i - lambda_j) T_ij, so dividing
    by the gap recovers T off the diagonal; on the diagonal the equation
    says nothing and the canonical representative puts zero there.  A
    diagonal residual beyond TANGENCY_RTOL means V was not tangent.
    """
    if v.base is not ctx.base and not np.array_equal(v.base.c, ctx.base.c):
        raise ValueError("tangent vector is bound to a different base point")
    q = ctx.eig.basis
    lam = ctx.eig.eigenvalues
    w = q.T @ v.mat @ q
    scale = float(np.linalg.norm(v.mat))
    diag_residual = float(np.abs(np.diag(w)).max())
    if diag_residual > TANGENCY_RTOL * scale:
        raise TangencyError(
            f"diagonal residual {diag_residual:.3g} exceeds {TANGENCY_RTOL:.1e} * {scale:.3g}"
        )
    gaps = lam[:, None] - lam[None, :]
    np.fill_diagonal(gaps, 1.0)
    coords = w / gaps
    np.fill_diagonal(coords, 0.0)
    return coords


def normal_metric(ctx: OrbitContext, v1: TangentVector, v2: TangentVector) -> float:
    """Normal metric ([L, A], [L, B]) = <A_perp, B_perp> at the base point."""
    c1 = _tangent_coordinates(ctx, v1)
    c2 = _tangent_coordinates(ctx, v2)
    return float(np.sum(c1 * c2))


def orbit_gradient(ctx: OrbitContext) -> TangentVector:
    """Gradient of f in the normal metric, the tangent vector [L, [L^2, K]].

    The context's generator [L^2, K] is already centralizer-free (its
    diagonal in the eigenbasis vanishes entry by entry), which is what makes
    the double bracket the gradient and not merely a tangent field.
    """
    return TangentVector(base=ctx.base, mat=commutator(ctx.dense, ctx.generator))


def directional_derivative(L: LaxMatrix, t) -> float:
    """Derivative of f at L along the tangent direction [L, T].

    Equals tr([L^2, K] T^T); the product rule form tr(K (L[L,T] + [L,T]L)^T)
    is the same number and the tests hold the two together.
    """
    t = np.asarray(t, dtype=float)
    dense = L.densify()
    if t.shape != dense.shape:
        raise ValueError(f"expected shape {dense.shape}, got {t.shape}")
    return frobenius_inner(commutator(dense @ dense, build_K(L.dim)), t)


def finite_difference_directional(L: LaxMatrix, t, eps: float) -> float:
    """Centered difference of f along the conjugation curve of T.

    The curve exp(-eps T) L exp(eps T) has velocity [L, T] at eps = 0, so
    this converges to directional_derivative(L, T) at second order in eps.
    """
    t = np.asarray(t, dtype=float)
    dense = L.densify()
    fwd = expm_small(-eps * t) @ dense @ expm_small(eps * t)
    bwd = expm_small(eps * t) @ dense @ expm_small(-eps * t)
    return (trace_objective(fwd) - trace_objective(bwd)) / (2.0 * eps)


@dataclass(frozen=True)
class GradientFlowReport:
    """Residuals of the gradient-flow identities at one state.

    ``field_residual`` compares lattice.CALIBRATED_SIGN times the gradient
    matrix with the matrix velocity induced by the direct equations;
    ``energy_residual`` compares df/dt along the direct flow with that sign
    times the squared gradient norm.
    """

    field_residual: float
    field_tolerance: float
    energy_residual: float
    energy_tolerance: float
    df_dt: float
    grad_norm_sq: float
    passed: bool


def gradient_flow_identity_check(s: LatticeState) -> GradientFlowReport:
    """Check that the direct flow is the signed gradient flow at s.

    Two comparisons, both against quantities computed without the bracket
    machinery: the tridiagonal velocity assembled from dc_i = u_dot_i / (2 c_i),
    and df/dt from the chain rule in u-space, f = sum_n u_n (2n + 1) / 4.
    The sign is lattice.CALIBRATED_SIGN, read when the check runs.
    """
    sigma = lattice.CALIBRATED_SIGN
    L = lax_from_state(s)
    ctx = orbit_context(L)
    grad = orbit_gradient(ctx)

    udot = volterra_rhs(s)
    ldot = _dense_lax(0.5 * udot / L.c)

    field_residual = float(np.abs(sigma * grad.mat - ldot).max())
    field_tolerance = 1e-10 * (1.0 + float(np.linalg.norm(ldot)))

    weights = (2.0 * np.arange(1, s.n + 1) + 1.0) / 4.0
    df_dt = float(weights @ udot)
    grad_norm_sq = normal_metric(ctx, grad, grad)
    energy_residual = abs(df_dt - sigma * grad_norm_sq)
    energy_tolerance = 1e-10 * (1.0 + abs(df_dt))

    return GradientFlowReport(
        field_residual=field_residual,
        field_tolerance=field_tolerance,
        energy_residual=energy_residual,
        energy_tolerance=energy_tolerance,
        df_dt=df_dt,
        grad_norm_sq=grad_norm_sq,
        passed=field_residual <= field_tolerance and energy_residual <= energy_tolerance,
    )
