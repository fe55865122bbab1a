"""Rate function and fluctuation-relation diagnostics.

The rate function on the conserved-flux complement is the Legendre
transform of g restricted to the finite region of the section.  A damped
Newton iteration ascends the strictly concave dual objective on the open
domain, and the finite region is tested once, at its stationary point: a
stationary point inside the region is the maximizer (the interior
regime).  Otherwise the flux lies outside the gradient image of the
region, and the value is the supremum over the region's boundary, where
the rate function is a ruled surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cgf import (DomainGeometry, TiltState, commuting_lift, section_boundary,
                  section_inf_boundary)
from .errors import ConvergenceError, NumericalError, SpecificationError
from .network import LinearModel
from .solvers import steady_covariance

__all__ = [
    "RateResult",
    "GapScan",
    "ConservedDirection",
    "rate_function",
    "fr_defect",
    "condition_R_scan",
    "entropy_production",
    "conserved_direction",
    "conserved_rate",
]

#: Armijo constant and shrink factor of the backtracking line search
ARMIJO = 1e-4
SHRINK = 0.5

#: iteration budget of the damped Newton ascent
MAX_NEWTON = 200

#: smallest cosine between a Newton step and the gradient for the step to
#: be taken (angle condition); near the domain boundary the Hessian is close
#: to singular, and steps nearly orthogonal to the gradient crawl along the
#: boundary without converging, so steepest ascent is taken there instead
MIN_COS = 1e-2

#: accepted steps in a row that gain no more than rounding, after which an
#: ascent whose gradient is below its stall tolerance counts as converged;
#: a single such step is often followed by steps that still reduce the
#: gradient
STALL_STEPS = 5


@dataclass(eq=False)
class RateResult:
    """Value of the rate function at one flux vector.

    ``interior`` records whether the maximizing tilt is a stationary point
    inside the finite region (the proven regime of the local theorem); when
    false, the value is the supremum over the region's boundary and is
    flagged ``conjectural_global``.  ``grad_residual`` and ``iterations``
    describe the ascent on the open domain, also in the boundary regime,
    where ``xi_star`` is the boundary tilt that attains the value.
    ``anomaly`` is the fluctuation-relation defect
    ``I(phi) - I(-phi) - <theta^{-1}, phi>`` when requested.
    """

    phi: np.ndarray
    I_value: float
    xi_star: np.ndarray
    interior: bool
    in_F0: bool
    grad_residual: float
    iterations: int
    conjectural_global: bool
    anomaly: float | None = None


def _dir_from_angles(angles: np.ndarray, k: int) -> np.ndarray:
    if k == 2:
        return np.array([np.cos(angles[0]), np.sin(angles[0])])
    az, pol = angles
    return np.array([np.cos(pol),
                     np.sin(pol) * np.cos(az),
                     np.sin(pol) * np.sin(az)])


#: rays of the finite-region boundary table on 2- and 3-dimensional
#: sections (a 1-dimensional section has two)
TABLE_RAYS_2D = 384
TABLE_RAYS_3D = 512


@dataclass(frozen=True, eq=False)
class _BoundaryTable:
    """Sampled boundary of the finite region: per ray from the origin, the
    (angle) or (azimuth, polar) where the refinement starts, the boundary
    tilt, its radius and its Riccati value of g."""

    angles: np.ndarray
    xi: np.ndarray
    radius: np.ndarray
    g: np.ndarray


def _boundary_point(model: LinearModel, geometry: DomainGeometry,
                    direction: np.ndarray, hint: float | None = None,
                    tol: float = 1e-7) -> tuple[np.ndarray, float, float]:
    u = geometry.from_frame(direction)
    r = section_inf_boundary(model, geometry, u, tol=tol, bracket_hint=hint)
    xi = r * u
    return xi, r, TiltState(model, xi).g


@lru_cache(maxsize=64)
def _boundary_table(model: LinearModel,
                    geometry: DomainGeometry) -> _BoundaryTable:
    """Boundary table along the scan directions of :func:`_scan_directions`.

    Radii are found by bisection with bracket hints chained from the
    previous ray.  Models and geometries are hashed by identity, so the
    table is built once per pair; the per-ray cost then amortizes over
    every boundary-regime flux evaluation.
    """
    k = geometry.section_dim
    dirs, polar = _scan_directions(k, TABLE_RAYS_3D if k == 3 else TABLE_RAYS_2D)
    xi = np.empty((len(dirs), model.d))
    radius = np.empty(len(dirs))
    g = np.empty(len(dirs))
    for idx, direction in enumerate(dirs):
        hint = radius[idx - 1] if k == 2 and idx else None
        xi[idx], radius[idx], g[idx] = _boundary_point(model, geometry, direction, hint)
    return _BoundaryTable(angles=polar[:, :2], xi=xi, radius=radius, g=g)


def _boundary_supremum(model: LinearModel, geometry: DomainGeometry,
                       phi: np.ndarray) -> tuple[float, np.ndarray]:
    """Supremum of the Legendre objective over the finite-region boundary."""
    k = geometry.section_dim
    table = _boundary_table(model, geometry)
    values = table.xi @ phi - table.g
    best = int(np.argmax(values))

    def objective(angles: np.ndarray) -> tuple[float, np.ndarray]:
        xi, _, g_val = _boundary_point(model, geometry, _dir_from_angles(angles, k),
                                       table.radius[best])
        return float(xi @ phi) - g_val, xi

    if k == 1:
        return float(values[best]), table.xi[best]

    # imported here: it nearly doubles start-up, and 1-D sections never need it
    import scipy.optimize

    if k == 2:
        a0 = table.angles[best][0]
        span = 2.0 * np.pi / len(table.angles)
        res = scipy.optimize.minimize_scalar(
            lambda a: -objective(np.array([a]))[0],
            bounds=(a0 - span, a0 + span),
            method="bounded", options={"xatol": 1e-7})
        angles = np.array([float(res.x)])
    else:
        angles = scipy.optimize.minimize(
            lambda a: -objective(a)[0],
            table.angles[best], method="Nelder-Mead",
            options={"xatol": 1e-7, "fatol": 1e-12, "maxiter": 200}).x
    value, xi = objective(angles)
    if values[best] > value:
        return float(values[best]), table.xi[best]
    return value, xi


def _fibonacci_angles(count: int) -> list[np.ndarray]:
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    angles = []
    for j in range(count):
        z = 1.0 - 2.0 * (j + 0.5) / count
        angles.append(np.array([(2.0 * np.pi * j / golden) % (2.0 * np.pi),
                                np.arccos(z)]))
    return angles


def rate_function(model: LinearModel, geometry: DomainGeometry,
                  phi: np.ndarray, with_anomaly: bool = True,
                  gtol: float = 1e-8) -> RateResult:
    """Rate function of the conserved-flux complement at one flux vector.

    Ascends the concave Legendre objective by damped Newton with
    backtracking, every trial checked against membership of the open
    domain, and tests the finite region once, at the stationary point
    ``xi*``.  If ``xi*`` lies outside the region, the supremum over the
    region boundary is returned with ``interior=False``.  The ``-phi``
    ascent of the anomaly starts at the mirror ``Pi(theta^{-1} - xi*)``,
    which is its stationary point because ``g(xi) = g(theta^{-1} - xi)``,
    and at the origin when the mirror is off the domain.

    Raises
    ------
    SpecificationError
        If ``phi`` has a component along the lineality space, or the flux
        section is zero-dimensional.
    ConvergenceError
        If the iteration budget is exhausted away from any boundary.
    """
    geometry.require_section()
    phi = np.asarray(phi, dtype=float)
    if np.linalg.norm(phi - geometry.project(phi)) > 1e-8 * (1.0 + np.linalg.norm(phi)):
        raise SpecificationError("flux vector must be orthogonal to the lineality space")
    res, end = _maximize(model, geometry, phi, gtol)
    if with_anomaly:
        # g(xi) = g(theta^{-1} - xi): the mirror of the end point is the
        # stationary point of the -phi objective on the domain
        mirror = geometry.to_frame(model.theta_inv - end.xi)
        res_m, _ = _maximize(model, geometry, -phi, gtol, start=mirror)
        res.anomaly = res.I_value - res_m.I_value - float(model.theta_inv @ phi)
    return res


def _maximize(model: LinearModel, geometry: DomainGeometry,
              phi: np.ndarray, gtol: float,
              start: np.ndarray | None = None) -> tuple[RateResult, TiltState]:
    """Damped Newton ascent of the Legendre objective on the open domain,
    from ``start`` (frame coordinates; ``c = 0`` when omitted or off the
    domain), and the regime read off its end point.  Returns the result
    and the state the ascent ended at."""
    frame = geometry.frame
    phi_c = geometry.to_frame(phi)
    c = np.zeros(geometry.section_dim) if start is None else np.asarray(start, dtype=float)
    # the state of the current iterate; an accepted trial's state, solved
    # by the domain test, supplies the value, gradient and Hessian
    state = TiltState(model, geometry.from_frame(c))
    if not state.in_D:
        c = np.zeros(geometry.section_dim)
        state = TiltState(model, geometry.from_frame(c))
    f_c = float(c @ phi_c) - state.g
    tol = gtol * (1.0 + np.linalg.norm(phi))
    stall_tol = max(100.0 * tol, 1e-7 * (1.0 + np.linalg.norm(phi)))

    grad = phi_c - frame @ state.grad
    pinned = False
    converged = False
    stalled = 0
    iterations = 0
    for iterations in range(1, MAX_NEWTON + 1):
        if np.linalg.norm(grad) <= tol:
            converged = True
            break
        # Newton step: the objective's Hessian is minus that of g
        delta = grad
        try:
            candidate = np.linalg.solve(state.hessian(frame), grad)
            cos = candidate @ grad / (np.linalg.norm(candidate) * np.linalg.norm(grad))
            if cos > MIN_COS:
                delta = candidate
        except np.linalg.LinAlgError:
            pass
        # rounding of the objective; a step whose predicted gain is below
        # it cannot be judged by its value and must reduce the residual
        noise = 1e-13 * (1.0 + abs(f_c))
        t = 1.0
        gain = None
        for _ in range(40):
            trial = c + t * delta
            trial_state = TiltState(model, geometry.from_frame(trial))
            slope = t * float(delta @ grad)
            try:
                if trial_state.in_D:
                    f_trial = float(trial @ phi_c) - trial_state.g
                    armijo = f_trial >= f_c + ARMIJO * slope - noise
                    if armijo or slope <= noise:
                        new_grad = phi_c - frame @ trial_state.grad
                        if armijo or np.linalg.norm(new_grad) < np.linalg.norm(grad):
                            gain = f_trial - f_c
                            c, f_c, state, grad = trial, f_trial, trial_state, new_grad
                            break
            except NumericalError:
                # a failed solve or a numerically singular gap matrix leaves
                # no value or gradient to go on from: shrink as if outside
                pass
            t *= SHRINK
        if gain is None:
            if np.linalg.norm(grad) <= stall_tol:
                # stationary to floating precision
                converged = True
            else:
                # no step gains with ascent left
                pinned = True
            break
        stalled = stalled + 1 if gain <= noise else 0
        if stalled >= STALL_STEPS and np.linalg.norm(grad) <= stall_tol:
            # the steps gain nothing above rounding: stationary
            converged = True
            break
    if not converged and not pinned:
        raise ConvergenceError(
            f"rate-function ascent did not converge (best value {f_c:.6e}, "
            f"gradient residual {np.linalg.norm(grad):.2e})")

    # the objective is strictly concave on the section, so an interior
    # maximizer over the finite region is the stationary point: one test
    # at the end point decides the regime
    inside = state.in_finite_region(geometry)
    if converged and inside:
        return RateResult(phi=phi, I_value=f_c, xi_star=state.xi, interior=True,
                          in_F0=state.f0_margin(geometry) > 0.0,
                          grad_residual=float(np.linalg.norm(grad)),
                          iterations=iterations, conjectural_global=False), state

    value, xi_star = _boundary_supremum(model, geometry, phi)
    if inside and f_c > value:
        value, xi_star = f_c, state.xi
    return RateResult(phi=phi, I_value=value, xi_star=xi_star,
                      interior=False, in_F0=False,
                      grad_residual=float(np.linalg.norm(grad)),
                      iterations=iterations, conjectural_global=True), state


def fr_defect(model: LinearModel, geometry: DomainGeometry,
              phi: np.ndarray) -> float:
    """Fluctuation-relation defect ``I(-phi) - I(phi) + <theta^{-1}, phi>``.

    Zero exactly where the universal relation holds; the negated anomaly.
    """
    return -rate_function(model, geometry, phi, gtol=1e-9).anomaly


@dataclass(eq=False)
class GapScan:
    """Spectral gap of the extremal eigenvalue functionals on the section
    boundary, sampled over quasi-uniform directions."""

    directions: np.ndarray      # (count, k) unit vectors in frame coordinates
    polar: np.ndarray           # (count, ...) figure-convention coordinates
    xi_boundary: np.ndarray     # (count, d) boundary tilts
    radius: np.ndarray          # (count,) section radii
    Lambda_minus: np.ndarray
    Lambda_plus: np.ndarray
    gap: np.ndarray
    min_gap: float
    condition_R: bool


def _scan_directions(k: int, n_dirs: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions plus figure-convention coordinates for each."""
    if k == 1:
        dirs = np.array([[1.0], [-1.0]])
        polar = np.array([[0.0], [np.pi]])
        return dirs, polar
    if k == 2:
        angles = np.linspace(0.0, 2.0 * np.pi, n_dirs, endpoint=False)
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
        return dirs, angles[:, None]
    angles = _fibonacci_angles(n_dirs)
    dirs = np.array([_dir_from_angles(a, 3) for a in angles])
    polar = np.array([
        [az, pol, pol / np.pi * np.cos(az), pol / np.pi * np.sin(az)]
        for az, pol in angles])
    return dirs, polar


def condition_R_scan(model: LinearModel, geometry: DomainGeometry,
                     n_dirs: int = 64) -> GapScan:
    """Sample the section boundary and evaluate the spectral gap there.

    The sufficient condition for the global LDP holds iff the minimal gap
    over the boundary is positive.  Boundary tilts lie at the exact
    :func:`section_boundary` radii from the projected symmetry center, and
    their Riccati pairs are those of :func:`~fluxnet.solvers.boundary_pair`.
    """
    geometry.require_section()
    if n_dirs < 8:
        raise SpecificationError("need at least 8 scan directions")
    k = geometry.section_dim
    dirs, polar = _scan_directions(k, n_dirs)
    xi_b = np.empty((len(dirs), model.d))
    radii = np.empty(len(dirs))
    lam_m = np.empty(len(dirs))
    lam_p = np.empty(len(dirs))
    for idx, dc in enumerate(dirs):
        u = geometry.from_frame(dc)
        r = section_boundary(model, geometry, u)
        xi = geometry.center + r * u
        lam = TiltState(model, xi).lambdas
        xi_b[idx] = xi
        radii[idx] = r
        lam_m[idx] = lam.minus
        lam_p[idx] = lam.plus
    gap = lam_p - lam_m
    min_gap = float(gap.min())
    return GapScan(directions=dirs, polar=polar, xi_boundary=xi_b,
                   radius=radii, Lambda_minus=lam_m, Lambda_plus=lam_p,
                   gap=gap, min_gap=min_gap, condition_R=min_gap > 0.0)


@dataclass(frozen=True, eq=False)
class EntropyProduction:
    """Mean entropy production rate and the stationary mean flux vector."""

    ep: float
    mean_flux: np.ndarray


def entropy_production(model: LinearModel) -> EntropyProduction:
    """Stationary entropy production rate ``-<theta^{-1}, grad g(0)>``.

    The gradient of g at zero is the stationary mean heat-flux vector; it
    is orthogonal to the conserved directions, so no net energy accumulates.
    """
    mean_flux = TiltState(model, np.zeros(model.d)).grad
    ep = -float(model.theta_inv @ mean_flux)
    return EntropyProduction(ep=ep, mean_flux=mean_flux)


@dataclass(frozen=True, eq=False)
class ConservedDirection:
    """Conserved tilt with its nonnegative lift and boundary-term rate slope."""

    xi: np.ndarray
    xi_tilde: np.ndarray
    shift: float
    N: np.ndarray
    rate_slope: float


def conserved_direction(model: LinearModel, xi: np.ndarray) -> ConservedDirection:
    """Rate data for a conserved-direction flux component.

    The lift with vanishing flux density is shifted along the all-ones
    direction until nonnegative (which loses no generality for the stated
    rate), and the slope is the reciprocal of the largest eigenvalue of the
    covariance-weighted lift.

    Raises
    ------
    SpecificationError
        If the tilt is not in the lineality space.
    """
    xi = np.asarray(xi, dtype=float)
    S = commuting_lift(model, xi)
    w = np.linalg.eigvalsh(S)
    shift = max(0.0, -float(w[0]))
    S_plus = S + shift * np.eye(model.dim)
    w, U = np.linalg.eigh(S_plus)
    root = (U * np.sqrt(np.clip(w, 0.0, None))) @ U.T
    M = steady_covariance(model).M
    N = root @ M @ root
    N = 0.5 * (N + N.T)
    top = float(np.linalg.eigvalsh(N)[-1])
    if top <= 0.0:
        raise NumericalError("degenerate conserved form; no rate slope")
    return ConservedDirection(xi=xi, xi_tilde=S_plus, shift=shift, N=N,
                              rate_slope=1.0 / top)


def conserved_rate(model: LinearModel, xi: np.ndarray, q: float) -> float:
    """Large-deviation rate ``|q| / max sp(N)`` of a conserved flux component."""
    return conserved_direction(model, xi).rate_slope * abs(float(q))
