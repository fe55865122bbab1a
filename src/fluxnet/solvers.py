"""Dense matrix kernels.

Lyapunov solves for the stationary covariance, the doubled-dimension
Hamiltonian matrix attached to a tilt with its eigendecomposition, the
maximal Riccati solutions at a tilt and at its mirror read off the
invariant subspaces of that one decomposition (completed by null vectors
on the domain boundary), matrix exponentials and adaptive quadrature over
the frequency axis.  Everything here is pure and reentrant; matrices stay
at desk scale (at most 24 x 24).

A matrix that is solved against many times is factored once: a Riccati
solution keeps the real Schur form of its closed loop for all of its
Lyapunov solves (Bartels and Stewart, 1972), and a model's drift has one
complex Schur form for the resolvent at every frequency (Laub, 1981).

The frequency quadrature takes a vectorized integrand and runs globally
adaptive Gauss-Kronrod 21-point panels on the compactified line; each
refinement sweep evaluates the nodes of every panel it adds in one call,
so callers stack their small solves over all nodes of a sweep.  It gives
up with ``QuadratureError`` at ``MAX_PANELS`` panels.

``scipy.linalg`` is imported with the module: every subcommand reads the
steady covariance through its Lyapunov solver, so deferring the import
would only move its cost from start-up into the first call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dtrsyl as _trsyl

from .errors import NumericalError, QuadratureError, RiccatiError, StabilityError
from .network import LinearModel

__all__ = [
    "SteadyState",
    "HamiltonianData",
    "RiccatiSolution",
    "solve_lyapunov",
    "steady_covariance",
    "noise_resolvent",
    "hamiltonian",
    "invariant_pair",
    "riccati_pair",
    "boundary_pair",
    "matrix_exponential",
    "integrate_frequency",
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


@functools.lru_cache(maxsize=64)
def _drift_schur(model: LinearModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Complex Schur form ``A = Z T Z*`` of the drift, returned as ``T``,
    ``Z* Q`` and ``Q* Z``; memoized per model like :func:`steady_covariance`."""
    T, Z = sla.schur(model.A, output="complex")
    parts = T, Z.conj().T @ model.Q, model.Q.T @ Z
    for part in parts:
        part.setflags(write=False)
    return parts


def noise_resolvent(model: LinearModel, omegas: np.ndarray) -> np.ndarray:
    """``Q* (A + i omega)^{-1} Q`` at many frequencies, shape ``(N, d, d)``.

    The drift is reduced once to its Schur form, so every frequency costs
    one back substitution with ``T + i omega``, vectorized over the
    frequencies (Laub, 1981)."""
    T, ZQ, QZ = _drift_schur(model)
    omegas = np.asarray(omegas, dtype=float)
    m, n, d = model.dim, len(omegas), model.d
    shifts = T.diagonal()[:, None] + 1j * omegas[None, :]
    # row i of the solution at every node, contiguous for the row updates
    Y = np.empty((m, n, d), dtype=complex)
    rows = Y.reshape(m, n * d)
    for i in range(m - 1, -1, -1):
        Y[i] = (ZQ[i] - (T[i, i + 1:] @ rows[i + 1:]).reshape(n, d)) / shifts[i, :, None]
    return (QZ @ rows).reshape(d, n, d).swapaxes(0, 1)


@dataclass(frozen=True, eq=False)
class HamiltonianData:
    """Doubled matrix of a tilt, its eigendecomposition and the mask of the
    eigenvalues on the imaginary axis in the sense of ``AXIS_RTOL``."""

    xi: np.ndarray
    K: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    on_axis: np.ndarray


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
    """Assemble the doubled matrix of a tilt and decompose it.

    The spectrum is symmetric with respect to both the real and the
    imaginary axis.
    """
    K = _doubled(model, *tilted_blocks(model, xi))
    try:
        eigs, vecs = np.linalg.eig(K)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed on the doubled matrix: {exc}") from exc
    size = np.abs(eigs.real)
    # the largest column norm <= ||K||_2 <= ||K||_F: the SVD decides only
    # what neither cheap bound can
    axis = size <= AXIS_RTOL * np.sqrt(np.einsum("ij,ij->j", K, K).max())
    undecided = ~axis & (size <= AXIS_RTOL * np.linalg.norm(K))
    if undecided.any():
        axis |= undecided & (size <= AXIS_RTOL * np.linalg.norm(K, 2))
    return HamiltonianData(xi=np.asarray(xi, dtype=float), K=K, eigenvalues=eigs,
                           eigenvectors=vecs, on_axis=axis)


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """Maximal solution of the tilted algebraic Riccati equation.

    ``X`` solves ``X B X - X A_xi - A_xi* X - C_xi = 0``; the closed-loop
    matrix ``D = A_xi - B X`` carries the stable half of the doubled-matrix
    spectrum.  ``D`` and ``residual``, the 2-norm of the left-hand side, are
    computed on first read.
    """

    model: LinearModel = field(repr=False)
    xi: np.ndarray
    X: np.ndarray

    @functools.cached_property
    def D(self) -> np.ndarray:
        return tilted_blocks(self.model, self.xi)[0] - self.model.B @ self.X

    @functools.cached_property
    def residual(self) -> float:
        A_xi, C_xi = tilted_blocks(self.model, self.xi)
        X = self.X
        R = X @ self.model.B @ X - X @ A_xi - A_xi.T @ X - C_xi
        return float(np.linalg.norm(R, 2))

    @functools.cached_property
    def _schur(self) -> tuple[np.ndarray, np.ndarray]:
        """Real Schur form ``D = Z T Z*``, shared by every Lyapunov solve."""
        return sla.schur(self.D, output="real")

    def _lyapunov(self, rhs: np.ndarray, trana: str, tranb: str) -> np.ndarray:
        """Bartels-Stewart on the cached Schur form, one triangular
        Sylvester solve per matrix of the stack ``rhs``."""
        T, Z = self._schur
        Y = Z.T @ rhs @ Z
        for j in np.ndindex(Y.shape[:-2]):
            Y[j], scale, info = _trsyl(T, T, Y[j], trana=trana, tranb=tranb)
            if info != 0:
                raise NumericalError(
                    "closed-loop Lyapunov equation is singular: D has eigenvalues "
                    f"whose sum is (nearly) zero (trsyl info {info})")
            Y[j] /= scale
        return Z @ Y @ Z.T

    def sensitivity(self, A_dot: np.ndarray, C_dot: np.ndarray) -> np.ndarray:
        """First-order change of ``X`` when ``A_xi``, ``C_xi`` move by
        ``A_dot``, ``C_dot``: ``D* X' + X' D = -(X A_dot + A_dot* X + C_dot)``
        (Kenney and Hewer, 1990).  Takes stacks of moves along leading
        axes."""
        XA = self.X @ A_dot
        return self._lyapunov(-(XA + np.swapaxes(XA, -1, -2) + C_dot), "T", "N")

    def adjoint(self, V: np.ndarray) -> np.ndarray:
        """``Z`` with ``D Z + Z D* = V``: ``tr(V X') = tr(Z R)`` for every
        ``X'`` with ``D* X' + X' D = R`` (the adjoint of :meth:`sensitivity`)."""
        return self._lyapunov(np.asarray(V, dtype=float), "N", "T")


def _graph_pair(model: LinearModel, xi: np.ndarray, V_max: np.ndarray,
                V_min: np.ndarray) -> tuple[RiccatiSolution, RiccatiSolution]:
    """Maximal solutions at a tilt and at its mirror from bases ``[V1; V2]``
    of the graphs of the maximal and minimal solutions, ``X = Re(V2
    V1^{-1})``; ``-theta X_min theta`` is maximal at the mirror."""
    m, graphs = model.dim, []
    for V in (V_max, V_min):
        if V.shape[1] != m:
            raise RiccatiError(
                f"invariant subspace has dimension {V.shape[1]}, expected {m}")
        svals = np.linalg.svd(V[:m], compute_uv=False)
        if svals[-1] < 1e-12 * svals[0]:
            raise RiccatiError(
                f"graph condition failed (smallest singular value {svals[-1]:.2e})")
        graphs.append(_sym(np.linalg.solve(V[:m].T, V[m:].T).T.real))
    return (RiccatiSolution(model=model, xi=xi, X=graphs[0]),
            RiccatiSolution(model=model, xi=model.theta_inv - xi,
                            X=-model.theta_conj(graphs[1])))


def invariant_pair(model: LinearModel,
                   ham: HamiltonianData) -> tuple[RiccatiSolution, RiccatiSolution]:
    """Maximal Riccati solutions at a tilt and at its mirror
    ``theta^{-1} - xi`` from the eigenvectors of the tilt's doubled matrix
    (Potter, 1966): the antistable ones ``[V1; V2]`` span the graph of the
    maximal solution ``X = Re(V2 V1^{-1})``, whose closed loop ``A_xi - B X``
    carries the stable half of the spectrum, the stable ones that of the
    minimal solution ``X_min``, and ``-theta X_min theta`` is maximal at the
    mirror.

    Raises
    ------
    RiccatiError
        If eigenvalues lie on the imaginary axis (the tilt is on or
        outside the domain boundary), the antistable subspace has
        the wrong dimension, or a graph condition fails.
    """
    if ham.on_axis.any():
        raise RiccatiError(
            "doubled matrix has imaginary-axis eigenvalues "
            f"(|Re| = {np.abs(ham.eigenvalues.real).min():.2e}); "
            "tilt is on or outside the domain boundary")
    anti = ham.eigenvalues.real > 0.0
    return _graph_pair(model, ham.xi, ham.eigenvectors[:, anti],
                       ham.eigenvectors[:, ~anti])


def riccati_pair(model: LinearModel,
                 xi: np.ndarray) -> tuple[RiccatiSolution, RiccatiSolution]:
    """:func:`invariant_pair` of the decomposition of the tilt."""
    return invariant_pair(model, hamiltonian(model, xi))


def boundary_pair(model: LinearModel,
                  ham: HamiltonianData) -> tuple[RiccatiSolution, RiccatiSolution]:
    """:func:`invariant_pair` on the domain boundary, where ``K`` has
    eigenvalues ``+-i omega*``, each a colliding pair (a 2 x 2 Jordan
    block).  One null vector of ``K - i omega*`` per colliding eigenvalue
    completes the antistable subspace to the graph of the maximal solution
    and the stable one to that of the minimal solution.  ``omega*`` is the
    mean of a pair of axis eigenvalues; a pair split by more than
    ``sqrt(AXIS_RTOL) ||K||_2`` (a tilt about ``AXIS_RTOL`` beyond the
    boundary) raises ``RiccatiError``, as do null vectors that complete no
    ``m``-column graph.  The subspaces come from ordered real Schur forms,
    which stay accurate where antistable eigenvalues nearly coincide.
    """
    K, near = ham.K, np.sort(ham.eigenvalues[ham.on_axis].imag)
    norm = np.linalg.norm(K, 2)
    clusters = np.split(near, np.flatnonzero(np.diff(near) > np.sqrt(AXIS_RTOL) * norm) + 1)
    if any(len(c) != 2 for c in clusters):
        raise RiccatiError("imaginary-axis eigenvalues do not form colliding pairs "
                           f"(frequencies {near}); tilt is not on the domain boundary")
    nulls = [np.linalg.svd(K - 1j * c.mean() * np.eye(len(K)))[2][-1].conj()
             for c in clusters]
    bases = []
    for side in (1.0, -1.0):
        try:
            # hamiltonian's axis cut, so that no axis eigenvalue is sorted in
            _, Z, count = sla.schur(K, sort=lambda re, im: side * re > AXIS_RTOL * norm)
        except np.linalg.LinAlgError as exc:
            raise RiccatiError(f"ordered Schur form failed: {exc}") from exc
        bases.append(np.column_stack([Z[:, :count], *nulls]))
    return _graph_pair(model, ham.xi, *bases)


def matrix_exponential(A: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Matrix exponential ``exp(t A)`` via scaling-and-squaring."""
    P = sla.expm(np.asarray(A, dtype=float) * t)
    if not np.all(np.isfinite(P)):
        raise NumericalError("matrix exponential overflowed")
    return P


#: Gauss-Kronrod 21-point rule on [-1, 1] (QUADPACK qk21): the Kronrod
#: nodes from the right end down to the midpoint, their weights, and the
#: weights of the embedded 10-point Gauss rule, which uses every second node
_GK_HALF_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_GK_HALF_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208015625221, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_GAUSS_HALF_WEIGHTS = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_GK_NODES = np.concatenate([_GK_HALF_NODES, -_GK_HALF_NODES[-2::-1]])
_GK_WEIGHTS = np.concatenate([_GK_HALF_WEIGHTS, _GK_HALF_WEIGHTS[-2::-1]])
_GAUSS_WEIGHTS = np.zeros(21)
_GAUSS_WEIGHTS[1:10:2] = _GAUSS_HALF_WEIGHTS
_GAUSS_WEIGHTS[19:10:-2] = _GAUSS_HALF_WEIGHTS

#: most panels the frequency quadrature refines to before giving up
MAX_PANELS = 200

#: panels the frequency quadrature starts from, equal in the compactified
#: variable
START_PANELS = 4

#: share of the estimated error carried by the panels that a refinement
#: sweep bisects
SPLIT_SHARE = 0.9


def _gk21_panels(f, scale: float, centers: np.ndarray,
                 halves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod value and QUADPACK error estimate of ``f(scale tan u) scale /
    cos(u)^2`` on the panels ``[c - h, c + h]`` of the compactified line,
    from one call of ``f`` on every node of every panel."""
    u = centers[:, None] + halves[:, None] * _GK_NODES[None, :]
    c = np.cos(u)
    vals = np.asarray(f((scale * np.tan(u)).ravel()), dtype=float)
    vals = vals.reshape(u.shape) * (scale / (c * c))
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("frequency integrand is not finite")
    kronrod = vals @ _GK_WEIGHTS
    gauss = vals @ _GAUSS_WEIGHTS
    # QUADPACK qk21: the Kronrod-Gauss difference, scaled against the
    # integrand's variation about its mean
    asc = np.abs(vals - 0.5 * kronrod[:, None]) @ _GK_WEIGHTS * halves
    absval = np.abs(vals) @ _GK_WEIGHTS * halves
    error = np.abs(kronrod - gauss) * halves
    scaled = (asc != 0.0) & (error != 0.0)
    error[scaled] = asc[scaled] * np.minimum(
        1.0, (200.0 * error[scaled] / asc[scaled]) ** 1.5)
    # round-off floor: QUADPACK's 50 eps of the integral of |f|, or more on
    # a narrow panel, whose nodes are rounded by about eps |u| each, an
    # error that no bisection removes
    floor = np.maximum(50.0, np.abs(centers) / halves)
    return kronrod * halves, np.maximum(error, np.finfo(float).eps * floor * absval)


def integrate_frequency(f, scale: float, rel_tol: float = 1e-9,
                        abs_tol: float = 1e-10) -> tuple[float, float]:
    """Integrate a decaying function over the whole frequency axis.

    ``f`` is vectorized: it maps a 1-D array of frequencies to the array of
    its values.  The substitution ``omega = scale * tan(u)`` compactifies
    the line to ``u`` in ``(-pi/2, pi/2)``; the caller guarantees an
    ``O(omega^{-2})`` tail, which makes the transformed integrand bounded up
    to the endpoints.  Globally adaptive Gauss-Kronrod 21-point panels
    cover that interval, starting from ``START_PANELS`` equal ones.  Each
    refinement sweep bisects the panels that together carry ``SPLIT_SHARE``
    of the estimated error and evaluates the nodes of all their halves in
    one call of ``f``.  The sweeps stop when the summed error is within
    ``max(abs_tol, rel_tol * |value|)``.  A panel's error is QUADPACK's
    qk21 estimate, but at least the rounding of its node positions: a
    feature too narrow to resolve in double precision therefore refines up
    to the panel cap and raises instead of returning a value.

    Returns
    -------
    (value, error_estimate)

    Raises
    ------
    QuadratureError
        If the requested tolerance is not met with ``MAX_PANELS`` panels, or
        the integrand is not finite.
    """
    s = float(scale)
    if s <= 0.0:
        raise QuadratureError("frequency scale must be positive")
    halves = np.full(START_PANELS, 0.5 * np.pi / START_PANELS)
    centers = -0.5 * np.pi + halves * np.arange(1, 2 * START_PANELS, 2)
    values, errors = _gk21_panels(f, s, centers, halves)
    while True:
        value, error = float(values.sum()), float(errors.sum())
        if error <= max(abs_tol, rel_tol * abs(value)):
            return value, error
        order = np.argsort(errors)[::-1]
        count = int(np.searchsorted(np.cumsum(errors[order]), SPLIT_SHARE * error)) + 1
        count = min(count, MAX_PANELS - len(centers))
        if count <= 0:
            raise QuadratureError(
                "frequency quadrature tolerance not met with "
                f"{MAX_PANELS} panels (achieved {error:.2e})")
        split, kept = order[:count], order[count:]
        h = 0.5 * halves[split]
        c = np.concatenate([centers[split] - h, centers[split] + h])
        h = np.concatenate([h, h])
        new_values, new_errors = _gk21_panels(f, s, c, h)
        centers = np.concatenate([centers[kept], c])
        halves = np.concatenate([halves[kept], h])
        values = np.concatenate([values[kept], new_values])
        errors = np.concatenate([errors[kept], new_errors])
