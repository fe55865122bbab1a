"""Limiting cumulant generating function of the steady-state heat fluxes.

The central object is the convex function ``g`` on tilt space, available by
three independent routes (frequency integral, spectrum of the doubled
matrix, Riccati trace formula), together with the geometry of its essential
domain: the lineality space of conserved directions, the compact section
transverse to it, and the smaller region where the long-time limit of the
finite-horizon generating functions is actually finite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    NumericalError,
    RiccatiError,
    SpecificationError,
)
from .network import (
    RANK_RTOL,
    LinearModel,
    TiltLift,
    canonical_lift,
    conserved_null_space,
    flux_density_stack,
)
from .solvers import (
    HamiltonianData,
    RiccatiSolution,
    boundary_pair,
    hamiltonian,
    integrate_frequency,
    invariant_pair,
    noise_resolvent,
    steady_covariance,
)

__all__ = [
    "DomainGeometry",
    "TiltState",
    "LambdaPair",
    "E_matrix",
    "E_matrix_from_lift",
    "commuting_lift",
    "in_domain",
    "domain_margin",
    "lineality_space",
    "g_value",
    "g_hessian_quadform",
    "section_boundary",
    "section_inf_boundary",
]

#: three-way agreement tolerance for the cross-validated value of g
G_AGREE_TOL = 1e-6

#: level steps of the level-set iteration; it converges quadratically
#: and needs fewer than ten on the bundled configs
MAX_LEVELS = 50


def E_matrix(model: LinearModel, xi: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """Self-adjoint tilt response matrices at many frequencies, shape
    ``(m, d, d)``.

    Computed from the reduced resolvent ``R(omega)`` as
    ``-(zeta R + R* zeta + R* zeta R)`` with ``zeta = theta^{1/2} xi
    theta^{1/2}``, stacked over the frequencies; the result is linear in the
    tilt and independent of the choice of lift.
    """
    R = model.theta_inv[None, :, None] * noise_resolvent(model, omegas)
    zR = (np.asarray(xi, dtype=float) * model.theta)[None, :, None] * R
    E = -(zR + np.swapaxes(np.conjugate(zR), 1, 2) + np.conjugate(np.swapaxes(R, 1, 2)) @ zR)
    return 0.5 * (E + np.conjugate(np.swapaxes(E, 1, 2)))


def E_matrix_from_lift(model: LinearModel, lift: TiltLift, omega: float) -> np.ndarray:
    """Response matrix at one frequency, computed directly from a lift
    (cross-check route for :func:`E_matrix`)."""
    eye = np.eye(model.dim)
    inner = lift.sigma @ np.linalg.solve(model.A + 1j * omega * eye, model.Q)
    return model.Q.T @ np.linalg.solve(model.A.T - 1j * omega * eye, inner)


def _level_set(model: LinearModel, u: np.ndarray,
               base: np.ndarray | None = None) -> float:
    """Supremum ``gamma`` over frequency of the largest eigenvalue of
    ``E(u)`` whitened by ``I - E(base)`` (base 0 if omitted), so that
    ``1 / gamma`` is the exit radius of the domain along ``u`` from the
    base: ``I - E(base + t u) = (I - E(base)) - t E(u)``.  The level-set
    iteration for the H-infinity norm (Boyd-Balakrishnan; Bruinsma-
    Steinbuch, 1990): by the determinant identity of :func:`in_domain`, the
    doubled matrix at ``base + u / gamma`` has eigenvalues ``i omega`` where
    the whitened ``E(u)`` crosses ``gamma``, and the level rises to the
    peak between crossings until none is left.
    """
    def top(omegas: np.ndarray) -> float:
        E = E_matrix(model, u, omegas)
        if base is not None:
            L = np.linalg.cholesky(np.eye(model.d) - E_matrix(model, base, omegas))
            E = np.linalg.solve(L, np.conjugate(np.swapaxes(np.linalg.solve(L, E), 1, 2)))
        return float(np.linalg.eigvalsh(E)[:, -1].max())

    # start at zero frequency and at the drift resonances, where the
    # response peaks for weak damping
    gamma = top(np.concatenate([[0.0], np.abs(model.spectrum.imag)]))
    if gamma <= 0.0:
        raise NumericalError("no positive start level for the level-set iteration")
    for _ in range(MAX_LEVELS):
        # just above the level, so that a tangent crossing at the supremum
        # leaves the imaginary axis
        step = u / (gamma * (1.0 + 1e-13))
        ham = hamiltonian(model, step if base is None else base + step)
        crossings = np.unique(np.abs(ham.eigenvalues[ham.on_axis].imag))
        if len(crossings) < 2:
            return gamma
        peak = top(0.5 * (crossings[1:] + crossings[:-1]))
        if peak <= gamma:
            return gamma
        gamma = peak
    raise ConvergenceError(
        f"level-set iteration still rising after {MAX_LEVELS} steps")


def domain_margin(model: LinearModel, xi: np.ndarray) -> float:
    """Infimum over frequency of the smallest eigenvalue of ``I - E``.

    Positive margin means the tilt lies in the open essential domain; this
    is a diagnostic, membership itself is decided by :func:`in_domain`.
    ``E`` vanishes on the lineality space, so the margin is ``1 - gamma``,
    ``gamma`` the :func:`_level_set` supremum of the section component.
    """
    xi = np.asarray(xi, dtype=float)
    section = lineality_space(model).project(xi)
    # a section component at the round-off level of the projection is zero
    if np.linalg.norm(section) <= 1e-12 * np.linalg.norm(xi):
        return 1.0
    return 1.0 - _level_set(model, section)


def in_domain(model: LinearModel, xi: np.ndarray) -> bool:
    """Exact membership in the open essential domain.

    By the determinant identity ``det(K - i omega) = |det(A + i omega)|^2
    det(I - E(omega))`` and ``I - E(+-inf) = I``, the matrix ``I - E`` stays
    positive definite at every frequency exactly when the doubled matrix
    ``K`` of the tilt has no eigenvalue on the imaginary axis (the test
    behind the Boyd-Balakrishnan-Kabamba bisection for the H-infinity norm).
    ``E`` vanishes on the lineality space, so the test is made at the
    section component of the tilt (see :class:`TiltState`).
    """
    return TiltState(model, xi).in_D


@dataclass(eq=False)
class DomainGeometry:
    """Lineality space and section frame of the domain.

    ``L_basis`` rows span the conserved directions (the all-ones vector is
    always the first row) and ``L_lifts[i]`` is the commuting lift of
    ``L_basis[i]``; ``Pi`` projects orthogonally onto their
    complement, where ``frame`` rows form an orthonormal basis whose first
    vector points along the projected inverse temperatures whenever that
    projection is nonzero.  ``center`` is the projected symmetry center of
    the domain.
    """

    L_basis: np.ndarray
    Pi: np.ndarray
    center: np.ndarray
    frame: np.ndarray
    L_lifts: np.ndarray

    @property
    def dim_L(self) -> int:
        return self.L_basis.shape[0]

    @property
    def section_dim(self) -> int:
        return self.frame.shape[0]

    def to_frame(self, xi: np.ndarray) -> np.ndarray:
        return self.frame @ np.asarray(xi, dtype=float)

    def from_frame(self, coords: np.ndarray) -> np.ndarray:
        return np.asarray(coords, dtype=float) @ self.frame

    def project(self, xi: np.ndarray) -> np.ndarray:
        # a conserved part at rounding level stays: section points pass as given
        conserved = self.L_basis @ xi
        tiny = np.linalg.norm(conserved) <= 1e-14 * np.linalg.norm(xi)
        return xi if tiny else xi - conserved @ self.L_basis

    def lift(self, xi: np.ndarray) -> np.ndarray:
        """Commuting lift ``sum_b (b . xi) S_b`` of the conserved part of a
        tilt."""
        return np.einsum("k,kij->ij", self.L_basis @ xi, self.L_lifts)

    @cached_property
    def shift_blocks(self) -> list[np.ndarray]:
        """Orthonormal bases of the joint eigenspaces of the lifts, on each
        of which every conserved shift is a multiple of the identity.

        Lifts commute and their products are lifts: a lift acts as ``xi_j``
        on every ``kappa^2``-invariant part of the boundary site of
        oscillator ``j``, and in a controllable network those parts span
        the space.  So the lifts span the projectors onto exactly dim L
        blocks.  Each lift is diagonalized on the blocks of the ones before
        it.  Its eigenvalues are tilt components, group at ``1e-6``: as
        ``L_basis`` is orthonormal, two blocks differ by at least
        ``sqrt(2) / d`` in some lift.
        """
        blocks = [np.eye(self.L_lifts.shape[1])]
        for lift in self.L_lifts[1:]:
            refined = []
            for B in blocks:
                w, V = np.linalg.eigh(B.T @ lift @ B)
                cuts = np.flatnonzero(np.diff(w) > 1e-6) + 1
                refined += [B @ V[:, part]
                            for part in np.split(np.arange(len(w)), cuts)]
            blocks = refined
        if len(blocks) != self.dim_L:
            raise NumericalError(f"{self.dim_L} lifts split the space into "
                                 f"{len(blocks)} joint eigenspaces")
        return blocks

    def require_section(self) -> None:
        """Raise unless some tilt direction is not conserved."""
        if self.section_dim == 0:
            raise SpecificationError(
                "the flux section is zero-dimensional: every tilt direction is "
                "conserved")


def _sign_fix(v: np.ndarray) -> np.ndarray:
    """Orient ``v`` so its last largest-magnitude entry is positive; entries
    within 1e-9 relative of the maximum tie, so rounding cannot flip it."""
    mag = np.abs(v)
    k = int(np.flatnonzero(mag >= (1.0 - 1e-9) * mag.max())[-1])
    return -v if v[k] < 0 else v


def _complete_orthonormal(seeds: list[np.ndarray], target: int,
                          d: int, constraint: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal completion inside the range of a projector."""
    basis: list[np.ndarray] = []
    pool = list(seeds) + [constraint @ e for e in np.eye(d)]
    for v in pool:
        if len(basis) == target:
            break
        w = v.copy()
        for b in basis:
            w = w - (b @ w) * b
        norm = np.linalg.norm(w)
        if norm > 1e-10:
            basis.append(_sign_fix(w / norm))
    if len(basis) != target:
        raise NumericalError("failed to build an orthonormal frame")
    return np.array(basis).reshape(target, d)


@lru_cache(maxsize=64)
def lineality_space(model: LinearModel) -> DomainGeometry:
    """Conserved tilt directions, their commuting lifts and the induced
    section geometry.

    A tilt is conserved exactly when it has a commuting lift, and
    :func:`~fluxnet.network.conserved_null_space` finds all of them in one
    null-space solve.  ``L_basis`` is an orthonormal basis of their tilt
    parts, all-ones first (energy is always conserved), and ``L_lifts`` the
    matching combinations of their lifts.  Models are immutable and hashed
    by identity, so the geometry is memoized.
    """
    d = model.d
    xis, Ps = conserved_null_space(model)
    # without controllability some lifts carry no tilt: rank, not count
    _, svals, Vt = np.linalg.svd(xis, full_matrices=False)
    span = Vt[svals > RANK_RTOL * svals[0]]
    ones = np.ones(d) / np.sqrt(d)
    if np.linalg.norm(span.T @ (span @ ones) - ones) > 1e-7:
        raise NumericalError("all-ones tilt missing from the lineality space")
    L_basis = _complete_orthonormal([ones], len(span), d, span.T @ span)
    Pi = np.eye(d) - L_basis.T @ L_basis
    center = Pi @ (0.5 * model.theta_inv)

    v1 = Pi @ model.theta_inv
    seeds = [v1 / np.linalg.norm(v1)] if np.linalg.norm(v1) > 1e-10 else []
    frame = _complete_orthonormal(seeds, d - len(span), d, Pi)

    coef = np.linalg.lstsq(xis.T, L_basis.T, rcond=None)[0]
    lifts = [np.kron(np.eye(2), P) for P in np.einsum("kb,kij->bij", coef, Ps)]
    return DomainGeometry(L_basis=L_basis, Pi=Pi, center=center,
                          frame=frame, L_lifts=np.array(lifts))


def commuting_lift(model: LinearModel, xi: np.ndarray) -> np.ndarray:
    """Commuting lift of a conserved tilt: the symmetric ``S`` with
    ``S Q = Q xi``, ``theta S theta = S`` and ``[Omega, S] = 0``, which
    moves the maximal Riccati solution, ``X(xi' + xi) = X(xi') + S``.  It
    is read off :func:`lineality_space`; ``SpecificationError`` if the tilt
    is not in the lineality space.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (model.d,):
        raise SpecificationError(f"tilt must have shape ({model.d},)")
    geometry = lineality_space(model)
    off = np.linalg.norm(geometry.Pi @ xi)
    if off > RANK_RTOL * np.linalg.norm(xi):
        raise SpecificationError(
            f"tilt is not in the lineality space (section component {off:.2e})")
    return geometry.lift(xi)


# ---------------------------------------------------------------------------
# the function g


def _g_integral(model: LinearModel, xi: np.ndarray) -> float:
    def integrand(omegas: np.ndarray) -> np.ndarray:
        # log1p keeps the small eigenvalues of E that 1 - mu would round away
        mu = np.linalg.eigvalsh(E_matrix(model, xi, omegas))
        if (mu[:, -1] >= 1.0).any():
            raise DomainError("tilt outside the open domain; integral route invalid")
        return -np.log1p(-mu).sum(axis=1)

    value, _ = integrate_frequency(integrand, model.omega_scale)
    return value / (4.0 * np.pi)


@dataclass(frozen=True, eq=False)
class LambdaPair:
    """Extremal Riccati eigenvalue functionals bounding the finite region."""

    minus: float
    plus: float

    @property
    def in_Dinf(self) -> bool:
        return self.minus < 0.0 < self.plus


class TiltState:
    """One tilt and everything derived from it, each computed on first read
    and kept: a caller that builds one state per tilt decomposes one doubled
    matrix, that of the ``section`` component ``Pi xi`` (g, its derivatives
    and the margins do not change along conserved directions, which only
    grow ``K``), to real Schur form.  Its eigenvalues give ``in_D`` and
    ``g_spectral``, two reorderings the pair of :func:`invariant_pair` (g,
    its gradient and Hessian and the finite-region and F0 margins); on the
    domain boundary, where :func:`invariant_pair` raises, the same Schur
    form gives the pair of :func:`boundary_pair`.  ``sol`` and ``dual``,
    which Lambda+- read, are the pair moved to the tilt and its mirror by
    ``+-S_l``, the commuting lift of the conserved part ``l``.
    """

    def __init__(self, model: LinearModel, xi: np.ndarray):
        self.model = model
        self.xi = np.asarray(xi, dtype=float)
        self.section = lineality_space(model).project(self.xi)

    @cached_property
    def _ham(self) -> HamiltonianData:
        return hamiltonian(self.model, self.section)

    @cached_property
    def _pair(self) -> tuple[RiccatiSolution, RiccatiSolution]:
        try:
            return invariant_pair(self.model, self._ham)
        except RiccatiError:
            return boundary_pair(self.model, self._ham)

    @cached_property
    def _lift(self) -> np.ndarray | float:
        """Commuting lift ``S_l`` of the conserved part ``l`` of the tilt
        (zero where the projection passed the tilt as given)."""
        return 0.0 if self.section is self.xi else lineality_space(self.model).lift(self.xi)

    @cached_property
    def sol(self) -> RiccatiSolution:
        """Maximal solution at the tilt."""
        return replace(self._pair[0], xi=self.xi, X=self._pair[0].X + self._lift)

    @cached_property
    def dual(self) -> RiccatiSolution:
        """Maximal solution at the mirror ``theta^{-1} - xi``."""
        return replace(self._pair[1], xi=self.model.theta_inv - self.xi,
                       X=self._pair[1].X - self._lift)

    @cached_property
    def in_D(self) -> bool:
        return not self._ham.on_axis.any()

    @cached_property
    def margin(self) -> float:
        return domain_margin(self.model, self.xi)

    @cached_property
    def g(self) -> float:
        """g by the Riccati trace formula, on the canonical lift."""
        lift = canonical_lift(self.model, self.section)
        Q = self.model.Q
        return -0.5 * float(np.trace(Q.T @ (self._pair[0].X - lift.xi_tilde) @ Q))

    @cached_property
    def g_spectral(self) -> float:
        """g from the spectrum of the doubled matrix."""
        Q = self.model.Q
        base = 0.25 * float(np.trace((Q * self.model.theta_inv[None, :]) @ Q.T))
        # on the domain boundary rounding gives the colliding axis pairs real
        # parts of about sqrt(eps) ||K||, which are not part of g
        off_axis = self._ham.eigenvalues.real[~self._ham.on_axis]
        return base - 0.25 * float(np.abs(off_axis).sum())

    @cached_property
    def g_integral(self) -> float | None:
        """g by the frequency integral, which needs the open domain."""
        return _g_integral(self.model, self.section) if self.in_D else None

    def cross_check(self) -> None:
        """Raise unless the routes to g agree to ``G_AGREE_TOL``."""
        routes = (self.g_integral, self.g_spectral, self.g)
        values = [v for v in routes if v is not None]
        if max(values) - min(values) > G_AGREE_TOL * (1.0 + max(map(abs, values))):
            raise NumericalError("g routes disagree: {}, {}, {}".format(*routes))

    @cached_property
    def _Y_inv(self) -> np.ndarray:
        """Inverse gap between the maximal solution and the minimal one."""
        sol, dual = self._pair
        w, U = np.linalg.eigh(sol.X + self.model.theta_conj(dual.X))
        if w[0] <= 1e-12 * max(w[-1], 1.0):
            raise NumericalError(
                f"gap matrix numerically singular (min eigenvalue {w[0]:.2e})")
        return (U / w) @ U.T

    @cached_property
    def grad(self) -> np.ndarray:
        """Gradient of g: component ``i`` is ``tr(Sigma_i Y^{-1}) / 2``."""
        return 0.5 * np.einsum("dij,ij->d", flux_density_stack(self.model),
                               self._Y_inv)

    @cached_property
    def lambdas(self) -> LambdaPair:
        """Eigenvalue functionals whose signs delimit the finite region.

        ``minus`` is the negated smallest eigenvalue of the maximal solution
        plus the inverse stationary covariance; ``plus`` is the smallest
        eigenvalue of the maximal solution at the mirrored tilt.  The inverse
        covariance is used for the maximal solution at the mirror of zero,
        which it equals and which it computes with better conditioning.
        """
        lower = self.sol.X + steady_covariance(self.model).Minv
        return LambdaPair(minus=-float(np.linalg.eigvalsh(lower)[0]),
                          plus=float(np.linalg.eigvalsh(self.dual.X)[0]))

    def sinf_margin(self, geometry: DomainGeometry) -> float:
        """Feasibility margin for membership of the tilt in the finite region.

        A section point belongs iff some conserved shift fits strictly
        between the obstructions ``U = X(theta^{-1} - xi)`` and ``L = X(xi)
        + M^{-1}``; the margin, the smallest :meth:`block_margins`, is the
        largest sum of their smallest eigenvalues over those shifts."""
        return _shift_margin(geometry, self._pair[1].X,
                             self._pair[0].X + steady_covariance(self.model).Minv)

    def block_margins(self, geometry: DomainGeometry
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The concave margins ``m_k = lambda_min(U_k) + lambda_min(L_k)``
        on the :attr:`DomainGeometry.shift_blocks` (the region is every
        ``m_k > 0``), their gradients and Hessians in frame coordinates.
        For ``v`` the eigenvector of ``lambda``, ``d lambda = v* P'_a v`` and
        ``d^2 lambda = v* P''_ab v + 2 sum_j (v_j* P'_a v)(v_j* P'_b v) /
        (lambda - lambda_j)``.  The second derivative of the Riccati
        equation, ``D* X'' + X'' D = X'_a B X'_b - X'_a A'_b - A'_b* X'_a +
        (a <-> b) + 2 Q u_a u_b Q*``, gives ``v* X'' v`` by one adjoint
        solve."""
        frame, Q = geometry.frame, self.model.Q
        A_u, dX, dX_dual = self._sensitivities(frame)
        sides = ((self._pair[1], 0.0, dX_dual, -A_u),
                 (self._pair[0], steady_covariance(self.model).Minv, dX, A_u))
        count, k = len(geometry.shift_blocks), geometry.section_dim
        m, grads, curvs = np.zeros(count), np.zeros((count, k)), np.zeros((count, k, k))
        for j, block in enumerate(geometry.shift_blocks):
            for sol, shift, dP, dA in sides:
                w, V = np.linalg.eigh(block.T @ (sol.X + shift) @ block)
                v = block @ V[:, 0]
                moved = dP @ v                          # (k, m): P'_a v
                coupling = moved @ (block @ V[:, 1:])   # (k, b - 1)
                Z = sol.adjoint(np.outer(v, v))
                cross = np.einsum("aij,bji->ab", dP @ self.model.B - 2.0 * dA, dP @ Z)
                m[j] += w[0]
                grads[j] += moved @ v
                curvs[j] += (2.0 * cross + 2.0 * np.einsum(
                    "ai,bi,i->ab", frame, frame, np.diag(Q.T @ Z @ Q))
                    + 2.0 * (coupling / np.minimum(w[0] - w[1:], -1e-300)) @ coupling.T)
        return m, grads, 0.5 * (curvs + curvs.transpose(0, 2, 1))

    def in_finite_region(self, geometry: DomainGeometry) -> bool:
        """Whether the tilt lies in the finite region: inside the open
        domain with a positive :meth:`sinf_margin`.  A tilt at which a solve
        raises ``RiccatiError`` or ``NumericalError`` counts as outside."""
        return self.in_D and (_margin(self, geometry) or 0.0) > 0.0

    def f0_margin(self, geometry: DomainGeometry) -> float:
        """Margin for the symmetric sub-family where the local fluctuation
        relation is proven: one conserved shift places both the tilt and its
        mirror ``Pi theta^{-1} - xi`` inside the finite region.

        The mirror's pair is this pair moved by the commuting lift of the
        conserved part of ``theta^{-1}``, so its obstructions are ``sol.X``
        and ``dual.X + M^{-1}``; the ones holding ``M^{-1}`` never bind, and
        the margin is that of :meth:`sinf_margin` without ``M^{-1}``.
        """
        return _shift_margin(geometry, self._pair[1].X, self._pair[0].X)

    def _sensitivities(self, frame: np.ndarray) -> tuple[np.ndarray, ...]:
        """Moves ``A' = Q u Q*`` along the rows ``u`` of ``frame`` and the
        changes ``X'`` of the pair (Kenney and Hewer, 1990; ``C' = Q u
        (theta^{-1} - 2 xi) Q*``, the mirror's ``-A'``, ``C'``), kept for the
        last frame asked for."""
        if self.__dict__.get("_sens_frame") is not frame:
            Q, slope = self.model.Q, self.model.theta_inv - 2.0 * self.section
            A_u = (Q[None] * frame[:, None, :]) @ Q.T
            C_u = (Q[None] * (frame * slope)[:, None, :]) @ Q.T
            self._sens_frame, self._sens = frame, (
                A_u, self._pair[0].sensitivity(A_u, C_u),
                self._pair[1].sensitivity(-A_u, C_u))
        return self._sens

    def hessian(self, frame: np.ndarray) -> np.ndarray:
        """Hessian of g in the directions of the rows of ``frame``: with the
        :meth:`_sensitivities` ``Y'_u`` of the gap,
        ``H_uv = -tr(Sigma_u Y^{-1} Y'_v Y^{-1}) / 2``.
        """
        frame = np.atleast_2d(np.asarray(frame, dtype=float))
        Y_inv = self._Y_inv
        _, dX, dX_dual = self._sensitivities(frame)
        moves = Y_inv @ (dX + self.model.theta_conj(dX_dual)) @ Y_inv
        sigmas = np.einsum("kd,dij->kij", frame, flux_density_stack(self.model))
        H = -0.5 * np.einsum("aij,bij->ab", sigmas, moves)
        return 0.5 * (H + H.T)


def g_value(model: LinearModel, xi: np.ndarray) -> TiltState:
    """State of a tilt in the closure of the essential domain.

    Its routes to g (``g``, ``g_spectral`` and, inside the open domain,
    ``g_integral``), the gradient, Lambda+- and the domain margin are
    computed when read; :meth:`TiltState.cross_check` compares the routes.

    Raises
    ------
    DomainError
        If the tilt lies outside the closure of the essential domain (the
        limiting cumulant generating function is infinite there).
    """
    state = TiltState(model, xi)
    if not state.in_D and state.margin < -1e-9:
        raise DomainError(
            f"outside essential domain closure (margin {state.margin:.2e})")
    return state


def g_hessian_quadform(model: LinearModel, xi: np.ndarray,
                       eta: np.ndarray) -> float:
    """Second derivative of g at a tilt along a direction.

    Evaluates the frequency integral of the squared, symmetrically
    preconditioned response of the direction; non-negative, and zero exactly
    on the lineality space.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    eye = np.eye(model.d)

    def integrand(omegas: np.ndarray) -> np.ndarray:
        lam, U = np.linalg.eigh(eye - E_matrix(model, xi, omegas))
        if (lam[:, 0] <= 0.0).any():
            raise DomainError("tilt outside the open domain")
        W = (U / np.sqrt(lam)[:, None, :]) @ np.conjugate(np.swapaxes(U, 1, 2))
        G = W @ E_matrix(model, eta, omegas) @ W
        return np.einsum("nij,nji->n", G, G).real

    value, _ = integrate_frequency(integrand, model.omega_scale)
    return value / (4.0 * np.pi)


# ---------------------------------------------------------------------------
# section geometry


def section_boundary(model: LinearModel, geometry: DomainGeometry,
                     u: np.ndarray) -> float:
    """Radius of the domain section from its center along a unit
    direction: the exact :func:`_level_set` radius, to the rounding of the
    level."""
    u = np.asarray(u, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-8:
        raise SpecificationError("direction must be a unit vector")
    if np.linalg.norm(geometry.L_basis @ u) > 1e-8:
        raise SpecificationError("direction must be orthogonal to the lineality space")
    return 1.0 / _level_set(model, u, geometry.center)


def _shift_margin(geometry: DomainGeometry, upper: np.ndarray,
                  lower: np.ndarray) -> float:
    """Largest ``lambda_min(upper - S) + lambda_min(lower + S)`` over the
    conserved shifts ``S``.  Both commute with every lift, so a shift is a
    scalar ``s_k`` on block ``k`` of :attr:`DomainGeometry.shift_blocks`,
    and the sum is ``min_k (u_k - s_k) + min_k (l_k + s_k) <= m = min_k
    (u_k + l_k)``, ``u_k`` and ``l_k`` the blocks' smallest eigenvalues,
    with equality at ``s_k = u_k - m / 2``."""
    return min(float(np.linalg.eigvalsh(B.T @ upper @ B)[0])
               + float(np.linalg.eigvalsh(B.T @ lower @ B)[0])
               for B in geometry.shift_blocks)


def _margin(state: TiltState, geometry: DomainGeometry) -> float | None:
    """Finite-region margin of a state, ``None`` where a solve raises."""
    try:
        return state.sinf_margin(geometry)
    except (RiccatiError, NumericalError):
        return None


def _region_exit(model: LinearModel, geometry: DomainGeometry,
                 outer: TiltState) -> tuple[float, TiltState]:
    """Exit ``t`` of the finite region along ``t ray``, ``0 <= t <= 1``, and
    its state, ``ray`` the tilt of ``outer`` in the domain closure (``t =
    1`` if its margin is not negative): the root of the concave margin,
    positive at 0, by regula falsi with the Illinois fix, to the rounding
    of ``t`` or the margin.  A failed solve counts as outside and is
    bisected.  The inner end is returned, never outside the region."""
    ray = outer.xi
    f_hi = _margin(outer, geometry)
    if f_hi is not None and f_hi >= 0.0:
        return 1.0, outer
    lo, hi, inner = 0.0, 1.0, TiltState(model, 0.0 * ray)
    f_lo, side = _margin(inner, geometry), 0
    floor = 1e-13 * f_lo
    for _ in range(100):
        secant = lo if f_hi is None else (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        t = secant if lo < secant < hi else 0.5 * (lo + hi)
        state = TiltState(model, t * ray)
        f = _margin(state, geometry)
        # Illinois: the value of an end kept twice in a row is halved
        if f is None or f < 0.0:
            hi, f_hi, f_lo, side = t, f, f_lo * (0.5 if side < 0 else 1.0), -1
        elif f <= floor:
            return t, state
        else:
            f_hi = f_hi * 0.5 if f_hi is not None and side > 0 else f_hi
            lo, f_lo, inner, side = t, f, state, 1
        if hi - lo <= 4.0 * np.finfo(float).eps * hi:
            break
    return lo, inner


def section_inf_boundary(model: LinearModel, geometry: DomainGeometry,
                         u: np.ndarray) -> float:
    """Exit radius of the finite region along a ray from the origin, the
    :func:`_region_exit` within the exact :func:`_level_set` domain radius
    (that radius where the region reaches the domain boundary)."""
    u = np.asarray(u, dtype=float)
    radius = 1.0 / _level_set(model, u)
    return radius * _region_exit(model, geometry, TiltState(model, radius * u))[0]
