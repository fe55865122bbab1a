"""Dense matrix kernels.

Lyapunov solves for the stationary covariance, the doubled-dimension
Hamiltonian matrix attached to a tilt, maximal Riccati solutions extracted
from its invariant subspaces, matrix exponentials and adaptive quadrature
over the frequency axis.  Everything here is pure and reentrant; matrices
stay at desk scale (at most 24 x 24), so dense Schur factorizations are
the right tool throughout.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.integrate
import scipy.linalg as sla

from .errors import NumericalError, QuadratureError, RiccatiError, StabilityError
from .network import LinearModel

__all__ = [
    "SteadyState",
    "HamiltonianData",
    "RiccatiSolution",
    "solve_lyapunov",
    "steady_covariance",
    "hamiltonian",
    "riccati_maximal",
    "riccati_minimal",
    "riccati_extrapolated",
    "matrix_exponential",
    "integrate_frequency",
    "on_axis",
]

#: an eigenvalue of the doubled matrix ``K`` whose real part is at most this
#: share of ``||K||_2`` in absolute value counts as lying on the imaginary
#: axis
AXIS_RTOL = 1e-8


def _sym(S: np.ndarray) -> np.ndarray:
    return 0.5 * (S + S.T)


@dataclass(frozen=True, eq=False)
class SteadyState:
    """Stationary covariance of the network and its Lyapunov residual."""

    M: np.ndarray
    residual: float

    @functools.cached_property
    def Minv(self) -> np.ndarray:
        """Inverse covariance, computed on first read."""
        w, U = np.linalg.eigh(self.M)
        Minv = (U / w) @ U.T
        Minv.setflags(write=False)
        return Minv


def solve_lyapunov(A: np.ndarray, B: np.ndarray) -> SteadyState:
    """Solve ``A M + M A* + B = 0`` for a stable drift.

    Raises
    ------
    StabilityError
        If ``A`` has an eigenvalue with non-negative real part.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if np.linalg.eigvals(A).real.max() >= 0.0:
        raise StabilityError("drift not stable; check controllability/damping")
    M = _sym(sla.solve_continuous_lyapunov(A, -B))
    residual = float(np.linalg.norm(A @ M + M @ A.T + B, 2))
    if residual > 1e-6 * max(1.0, np.linalg.norm(B, 2)):
        raise NumericalError(f"Lyapunov residual too large: {residual:.2e}")
    M.setflags(write=False)
    return SteadyState(M=M, residual=residual)


@functools.lru_cache(maxsize=64)
def steady_covariance(model: LinearModel) -> SteadyState:
    """Stationary covariance of the model's phase-space diffusion.

    Models are immutable and hashed by identity, so the result is memoized;
    hot paths (gap scans, rate-function ascents) hit this constantly.
    """
    return solve_lyapunov(model.A, model.B)


def on_axis(K: np.ndarray, real_parts: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues of ``K``, given by the real parts of the
    spectrum, that lie on the imaginary axis in the sense of ``AXIS_RTOL``."""
    size = np.abs(real_parts)
    # ||K||_2 <= ||K||_F, so the SVD is needed only when the cheap bound
    # does not decide
    mask = size <= AXIS_RTOL * np.linalg.norm(K)
    if mask.any():
        mask &= size <= AXIS_RTOL * np.linalg.norm(K, 2)
    return mask


@dataclass(frozen=True, eq=False)
class HamiltonianData:
    """Tilted drift/cost blocks and the associated doubled matrix."""

    xi: np.ndarray
    A_xi: np.ndarray
    C_xi: np.ndarray
    K: np.ndarray
    eigenvalues: np.ndarray


def tilted_blocks(model: LinearModel, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return ``A_xi = A + Q xi Q*`` and ``C_xi = Q xi (theta^{-1} - xi) Q*``."""
    xi = np.asarray(xi, dtype=float)
    Q = model.Q
    A_xi = model.A + (Q * xi[None, :]) @ Q.T
    C_xi = (Q * (xi * (model.theta_inv - xi))[None, :]) @ Q.T
    return A_xi, _sym(C_xi)


def _doubled(model: LinearModel, A_xi: np.ndarray, C_xi: np.ndarray) -> np.ndarray:
    m = model.dim
    K = np.zeros((2 * m, 2 * m))
    K[:m, :m] = -A_xi
    K[:m, m:] = model.B
    K[m:, :m] = C_xi
    K[m:, m:] = A_xi.T
    return K


def hamiltonian(model: LinearModel, xi: np.ndarray) -> HamiltonianData:
    """Assemble the doubled matrix of a tilt and compute its spectrum.

    The spectrum is symmetric with respect to both the real and the
    imaginary axis.
    """
    A_xi, C_xi = tilted_blocks(model, xi)
    K = _doubled(model, A_xi, C_xi)
    try:
        eigs = np.linalg.eigvals(K)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed on the doubled matrix: {exc}") from exc
    return HamiltonianData(
        xi=np.asarray(xi, dtype=float),
        A_xi=A_xi,
        C_xi=C_xi,
        K=K,
        eigenvalues=eigs,
    )


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """Maximal solution of the tilted algebraic Riccati equation.

    ``X`` solves ``X B X - X A_xi - A_xi* X - C_xi = 0``; the closed-loop
    matrix ``D = A_xi - B X`` carries the stable half of the doubled-matrix
    spectrum.  ``residual``, the 2-norm of the left-hand side, is computed
    on first read.
    """

    model: LinearModel = field(repr=False)
    xi: np.ndarray
    X: np.ndarray
    D: np.ndarray

    @functools.cached_property
    def residual(self) -> float:
        A_xi, C_xi = tilted_blocks(self.model, self.xi)
        X = self.X
        R = X @ self.model.B @ X - X @ A_xi - A_xi.T @ X - C_xi
        return float(np.linalg.norm(R, 2))

    def sensitivity(self, A_dot: np.ndarray, C_dot: np.ndarray) -> np.ndarray:
        """First-order change of ``X`` when ``A_xi``, ``C_xi`` move by
        ``A_dot``, ``C_dot``: ``D* X' + X' D = -(X A_dot + A_dot* X + C_dot)``
        (Kenney and Hewer, 1990)."""
        XA = self.X @ A_dot
        return sla.solve_continuous_lyapunov(self.D.T, -(XA + XA.T + C_dot))


def riccati_maximal(model: LinearModel, xi: np.ndarray) -> RiccatiSolution:
    """Maximal self-adjoint Riccati solution for a tilt inside the domain.

    The solution is read off an ordered real Schur form of the doubled
    matrix: the invariant subspace of the eigenvalues with positive real
    part is a graph ``Ran [I; X]`` over the first block, and the closed loop
    ``A_xi - B X`` then carries the mirrored (stable) half of the spectrum.
    The diagonal of the standardized Schur form holds the real parts of the
    eigenvalues, which are checked with :func:`on_axis`.

    Raises
    ------
    RiccatiError
        If eigenvalues sit on the imaginary axis (tilt on or outside the
        domain boundary) or the graph condition fails.
    """
    A_xi, C_xi = tilted_blocks(model, xi)
    K = _doubled(model, A_xi, C_xi)
    m = model.dim
    try:
        T, Z, sdim = sla.schur(K, output="real", sort=lambda re, im: re > 0.0)
    except sla.LinAlgError as exc:
        raise RiccatiError(f"ordered Schur factorization failed: {exc}") from exc
    if on_axis(K, np.diag(T)).any():
        raise RiccatiError(
            "doubled matrix has imaginary-axis eigenvalues "
            f"(|Re| = {np.abs(np.diag(T)).min():.2e}); "
            "tilt is on or outside the domain boundary")
    if sdim != m:
        raise RiccatiError(
            f"antistable subspace has dimension {sdim}, expected {m}")
    V1 = Z[:m, :m]
    V2 = Z[m:, :m]
    svals = np.linalg.svd(V1, compute_uv=False)
    if svals[-1] < 1e-12 * svals[0]:
        raise RiccatiError(
            f"graph condition failed (smallest singular value {svals[-1]:.2e})")
    X = _sym(np.linalg.solve(V1.T, V2.T).T)
    D = A_xi - model.B @ X
    return RiccatiSolution(model=model, xi=np.asarray(xi, dtype=float), X=X, D=D)


def riccati_minimal(model: LinearModel, xi: np.ndarray) -> np.ndarray:
    """Minimal self-adjoint solution, obtained from the mirrored tilt."""
    dual = riccati_maximal(model, model.theta_inv - np.asarray(xi, dtype=float))
    return -model.theta_conj(dual.X)


#: inward offsets used when extrapolating Riccati solutions to the boundary;
#: the ladder reaches up far enough that a starting point slightly outside
#: the domain still leaves enough interior samples for the fit
BOUNDARY_OFFSETS = tuple(1e-2 * 0.5 ** k for k in range(14))


def riccati_extrapolated(model: LinearModel, xi: np.ndarray,
                         inward: np.ndarray,
                         offsets: tuple[float, ...] = BOUNDARY_OFFSETS) -> RiccatiSolution:
    """Riccati solution at a boundary tilt by inward extrapolation.

    Solves at ``xi + s * inward`` for a ladder of offsets and extrapolates
    entrywise with a model ``X(s) = X0 + a sqrt(s) + b s + c s^{3/2}``; the
    square-root term captures the generic behavior of the closing eigenvalue
    pair near the boundary.  Schur ordering directly on the boundary would be
    ill conditioned, the ladder keeps every solve comfortably interior.
    """
    xi = np.asarray(xi, dtype=float)
    inward = np.asarray(inward, dtype=float)
    norm = np.linalg.norm(inward)
    if norm <= 0.0:
        raise RiccatiError("boundary extrapolation needs an inward direction")
    inward = inward / norm
    samples, good = [], []
    for s in offsets:
        try:
            samples.append(riccati_maximal(model, xi + s * inward).X)
            good.append(s)
        except RiccatiError:
            continue
    if len(good) < 5:
        raise RiccatiError(
            f"only {len(good)} interior ladder points available for extrapolation")
    s = np.array(good)
    design = np.column_stack([np.ones_like(s), np.sqrt(s), s, s ** 1.5])
    stack = np.array(samples).reshape(len(good), -1)
    coef, *_ = np.linalg.lstsq(design, stack, rcond=None)
    X = _sym(coef[0].reshape(model.dim, model.dim))
    A_xi, _ = tilted_blocks(model, xi)
    return RiccatiSolution(model=model, xi=xi, X=X, D=A_xi - model.B @ X)


def matrix_exponential(A: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Matrix exponential ``exp(t A)`` via scaling-and-squaring."""
    P = sla.expm(np.asarray(A, dtype=float) * t)
    if not np.all(np.isfinite(P)):
        raise NumericalError("matrix exponential overflowed")
    return P


def integrate_frequency(f, scale: float, rel_tol: float = 1e-9,
                        abs_tol: float = 1e-10) -> tuple[float, float]:
    """Integrate a decaying function over the whole frequency axis.

    The substitution ``omega = scale * tan(u)`` compactifies the line; the
    transformed integrand is handed to adaptive Gauss-Kronrod panels.  The
    caller guarantees an ``O(omega^{-2})`` tail, which makes the transformed
    integrand bounded up to the endpoints.

    Returns
    -------
    (value, error_estimate)

    Raises
    ------
    QuadratureError
        If the requested tolerance is not met after maximal refinement.
    """
    s = float(scale)
    if s <= 0.0:
        raise QuadratureError("frequency scale must be positive")

    def transformed(u: float) -> float:
        c = np.cos(u)
        return f(s * np.tan(u)) * s / (c * c)

    out = scipy.integrate.quad(transformed, -np.pi / 2, np.pi / 2,
                               epsabs=abs_tol, epsrel=rel_tol,
                               limit=200, full_output=1)
    value, error = out[0], out[1]
    if len(out) > 3 and error > max(abs_tol, rel_tol * abs(value)):
        raise QuadratureError(
            f"frequency quadrature tolerance not met (achieved {error:.2e})")
    return float(value), float(error)
