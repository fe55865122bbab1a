"""Monte Carlo validation of the analytic flux statistics.

Trajectories of the network diffusion are propagated with the exact
one-step law of the linear SDE (no time-discretization bias in the state),
and per-reservoir heat fluxes are accumulated pathwise from the
boundary-term representation: a quadratic form difference plus a
trapezoid sum of the flux density.  On request, a plain left-point Ito
accumulator of the defining work integral runs alongside on the same Wiener
increments as an independent cross-check.

Randomness comes from counter-based per-trajectory streams, so results are
reproducible and independent of chunking or scheduling order.  The
trajectories are propagated in fixed slices of 256, at most two of them at
once on threads (one at a time on a machine with one usable CPU); the
output is the same whichever number runs.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError, SpecificationError
from .network import LinearModel, canonical_lift, flux_density, flux_density_stack
from .solvers import matrix_exponential, steady_covariance

__all__ = [
    "SimConfig",
    "CgfEstimate",
    "ConservedCheck",
    "TrajectoryStats",
    "ExactOUStep",
    "sample_stationary",
    "propagate",
    "accumulate_flux",
    "accumulate_tilt_flux",
    "empirical_cgf",
    "finite_horizon_cgf",
    "cross_accumulator_ratio",
    "default_step",
    "default_horizon",
]

#: stream selectors carving disjoint counter windows per purpose
STREAM_MAIN = 0
STREAM_CONSERVED = 1
STREAM_BOOTSTRAP = 2
STREAM_CROSS = 3

#: trajectories per slice; each slice draws, propagates and accumulates its
#: own rows, and a row's result does not depend on the rows beside it
SLICE = 256

#: slices in flight at once, at most; with two, the rows held in memory
#: are one 512-trajectory chunk
MAX_WORKERS = 2

#: time steps drawn, mapped and accumulated together; bounds the memory of a
#: slice independently of the horizon
BLOCK = 256

#: bootstrap resamples gathered and reduced together; each resample is
#: reduced on its own, so the intervals do not depend on this
BOOT_ROWS = 50


def trajectory_rng(seed: int, index: int, stream: int = STREAM_MAIN) -> np.random.Generator:
    """Counter-based stream for one trajectory.

    Each (seed, stream, trajectory) triple owns a disjoint 2^128 window of
    the Philox counter space, so draws are independent and insensitive to
    evaluation order.
    """
    counter = (int(stream) << 192) | (int(index) << 128)
    return np.random.Generator(np.random.Philox(key=int(seed), counter=counter))


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Simulation parameters.

    ``horizon`` and ``step`` default to model-derived values (see
    ``default_horizon`` / ``default_step``); ``tilts`` is an optional list
    of tilt vectors at which the empirical cumulant generating function is
    estimated.
    """

    seed: int
    n_traj: int = 10_000
    horizon: float | None = None
    step: float | None = None
    tilts: tuple = ()
    bootstrap: int = 500
    conserved_traj: int = 2000

    def resolved(self, model: LinearModel) -> "SimConfig":
        step = self.step if self.step is not None else default_step(model)
        horizon = self.horizon if self.horizon is not None else default_horizon(model)
        if not (np.isfinite(step) and step > 0.0):
            raise SpecificationError("step must be finite and positive")
        if not (np.isfinite(horizon) and horizon >= 10.0 * step):
            raise SpecificationError("horizon must be finite and at least 10 steps long")
        if self.n_traj < 2:
            raise SpecificationError("need at least two trajectories for a standard error")
        if self.conserved_traj < 2:
            raise SpecificationError("need at least two trajectories for a conserved-flux variance")
        if not 0 <= self.seed < 2**128:
            raise SpecificationError("seed must lie in [0, 2**128), the Philox key range")
        return replace(self, horizon=float(horizon), step=float(step))


def default_step(model: LinearModel) -> float:
    """One percent of the fastest time scale of the drift."""
    return 0.01 / float(np.abs(model.spectrum).max())


def default_horizon(model: LinearModel) -> float:
    """Twenty times the transient-suppression time of the drift."""
    alpha = float(model.spectrum.real.max())
    t = np.log(1e6) / abs(alpha)
    while np.linalg.norm(matrix_exponential(model.A, t), 2) > 1e-6:
        t *= 2.0
    return 20.0 * t


def sample_stationary(model: LinearModel, rng: np.random.Generator,
                      size: int | None = None,
                      M: np.ndarray | None = None) -> np.ndarray:
    """Draw phase points from the stationary Gaussian measure."""
    if M is None:
        M = steady_covariance(model).M
    try:
        root = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("stationary covariance not positive definite") from exc
    shape = (model.dim,) if size is None else (size, model.dim)
    return rng.standard_normal(shape) @ root.T


@dataclass(eq=False)
class ExactOUStep:
    """Precomputed data for the exact one-step law at step ``h``.

    The state update is ``x' = F x + eta`` with ``F = exp(h A)`` and
    ``eta`` Gaussian with covariance ``M - F M F*`` (this closed form uses
    the stationarity of ``M``).  The factor ``L`` produces the pair
    ``(eta, dw)`` jointly, so the underlying Wiener increment of each step
    is available to secondary accumulators.
    """

    h: float
    F: np.ndarray
    L: np.ndarray
    dim: int
    d: int

    @classmethod
    def build(cls, model: LinearModel, h: float,
              M: np.ndarray | None = None) -> "ExactOUStep":
        if h <= 0.0:
            raise SpecificationError("step must be positive")
        if M is None:
            M = steady_covariance(model).M
        F = matrix_exponential(model.A, h)
        Mh = M - F @ M @ F.T
        Mh = 0.5 * (Mh + Mh.T)
        S = np.linalg.solve(model.A, F - np.eye(model.dim)) @ model.Q
        dim, d = model.dim, model.d
        C = np.zeros((dim + d, dim + d))
        C[:dim, :dim] = Mh
        C[:dim, dim:] = S
        C[dim:, :dim] = S.T
        C[dim:, dim:] = h * np.eye(d)
        w, U = np.linalg.eigh(C)
        L = U * np.sqrt(np.clip(w, 0.0, None))
        return cls(h=float(h), F=F, L=L, dim=dim, d=d)

    def draw(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map standard normals (..., dim + d) to (state noise, increment)."""
        y = z @ self.L.T
        return y[..., :self.dim], y[..., self.dim:]


def propagate(model: LinearModel, x: np.ndarray, h: float,
              rng: np.random.Generator,
              stepper: ExactOUStep | None = None) -> np.ndarray:
    """Advance phase points by one exact step of length ``h``."""
    if stepper is None:
        stepper = ExactOUStep.build(model, h)
    x = np.asarray(x, dtype=float)
    z = rng.standard_normal(x.shape[:-1] + (stepper.dim + stepper.d,))
    eta, _ = stepper.draw(z)
    return x @ stepper.F.T + eta


def accumulate_flux(model: LinearModel, xs: np.ndarray, h: float,
                    dw: np.ndarray | None = None):
    """Per-reservoir heat fluxes along a uniformly sampled trajectory.

    Parameters
    ----------
    xs : ndarray, shape (..., n_steps + 1, dim)
        Trajectory samples at spacing ``h``.
    dw : ndarray, shape (..., n_steps, d), optional
        Wiener increments of the same path.  When given, the left-point
        Ito accumulator of the defining work integral is returned as well.

    Returns
    -------
    phi : ndarray (..., d)
        Boundary-term accumulator: quadratic-form difference plus a
        trapezoid sum of the flux density.
    phi_em : ndarray (..., d) or None
        Ito accumulator on the shared increments, when ``dw`` is given.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.shape[-1] != model.dim:
        raise SpecificationError("trajectory has wrong phase-space dimension")
    if dw is not None and dw.shape[-2] != xs.shape[-2] - 1:
        raise SpecificationError("increment count does not match sample spacing")
    bp = model.boundary_index
    p = xs[..., bp]
    quad = 0.5 * p ** 2
    sig_vals = flux_density(model, xs)
    weights = np.ones(xs.shape[-2])
    weights[0] = weights[-1] = 0.5
    phi = quad[..., -1, :] - quad[..., 0, :] + h * np.einsum(
        "k,...kd->...d", weights, sig_vals)
    phi_em = None
    if dw is not None:
        scale = np.sqrt(2.0 * model.gamma * model.theta)
        p_left = p[..., :-1, :]
        phi_em = (scale * p_left * dw).sum(axis=-2) + h * (
            model.gamma * (model.theta - p_left ** 2)).sum(axis=-2)
    return phi, phi_em


def accumulate_tilt_flux(model: LinearModel, xs: np.ndarray, h: float,
                         xi: np.ndarray, lift: np.ndarray | None = None) -> np.ndarray:
    """Heat flux paired with one tilt, using a caller-chosen lift.

    With the minimal lift this reproduces ``accumulate_flux`` contracted
    against the tilt; with the commuting lift of a conserved direction the
    trapezoid term vanishes identically and the flux is a pure boundary
    term (exact at any step size).
    """
    xs = np.asarray(xs, dtype=float)
    if lift is None:
        lift = canonical_lift(model, xi).xi_tilde
    sigma = model.Omega @ lift - lift @ model.Omega
    sigma = 0.5 * (sigma + sigma.T)
    quad = 0.5 * np.einsum("...i,ij,...j->...", xs, lift, xs)
    boundary = quad[..., -1] - quad[..., 0]
    if np.abs(sigma).max() == 0.0:
        return boundary
    dens = 0.5 * np.einsum("...ki,ij,...kj->...k", xs, sigma, xs)
    weights = np.ones(xs.shape[-2])
    weights[0] = weights[-1] = 0.5
    return boundary + h * np.einsum("k,...k->...", weights, dens)


def _workers() -> int:
    """Slices to run at once: ``MAX_WORKERS``, or fewer usable CPUs."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:   # no CPU affinity on this platform
        usable = os.cpu_count() or 1
    return min(MAX_WORKERS, usable)


@dataclass(eq=False)
class _BatchResult:
    phi: np.ndarray             # boundary-term accumulator at the horizon
    phi_em: np.ndarray | None   # Ito accumulator at the horizon, if asked for
    phi_mid: np.ndarray | None  # boundary-term accumulator at half horizon
    workers: int                # slices run at once, at most


def _run_batch(model: LinearModel, seed: int, stream: int, n_traj: int,
               n_steps: int, h: float, record_mid: bool = False,
               ito: bool = False) -> _BatchResult:
    """Propagate ``n_traj`` stationary trajectories and accumulate fluxes.

    Trajectory ``j`` consumes its own stream: one row of ``dim + d``
    standard normals for the start, then one row per step, drawn ``BLOCK``
    rows at a time (Philox yields the same numbers however the draw is
    split).  Each block is mapped to noise and evaluated for flux densities
    in one product, so memory does not grow with ``n_steps``.  ``ito`` adds
    the left-point Ito accumulator on the shared increments.

    The rows are processed in slices of ``SLICE`` trajectories, each with
    its own draws, products and sums, writing only its own rows of the
    result.  Up to ``_workers()`` slices run at once on threads (numpy
    releases the GIL in the draws and products); a pool is made per call
    and joined before return.  A row's result depends only on its stream,
    so the output is the same at any worker count.
    """
    M = steady_covariance(model).M
    root = np.linalg.cholesky(M)
    stepper = ExactOUStep.build(model, h, M=M)
    dim, d, width = model.dim, model.d, model.dim + model.d
    noise_map = (stepper.L if ito else stepper.L[:dim]).T
    Ft = stepper.F.T
    bp = model.boundary_index
    scale = np.sqrt(2.0 * model.gamma * model.theta)
    mid = n_steps // 2 if record_mid else -1

    phi = np.empty((n_traj, d))
    phi_em = np.empty((n_traj, d)) if ito else None
    phi_mid = np.empty((n_traj, d)) if record_mid else None

    def run_slice(start: int) -> None:
        rows = slice(start, min(start + SLICE, n_traj))
        rngs = [trajectory_rng(seed, j, stream) for j in range(rows.start, rows.stop)]
        b = len(rngs)
        z = np.empty((b, BLOCK, width))
        xs = np.empty((BLOCK + 1, b, dim))   # block states, time-major
        x = np.array([rng.standard_normal(width)[:dim] for rng in rngs]) @ root.T
        quad0 = 0.5 * x[:, bp] ** 2
        trap = 0.5 * flux_density(model, x)
        em = np.zeros((b, d))
        for k0 in range(0, n_steps, BLOCK):
            n = min(BLOCK, n_steps - k0)
            for row, rng in enumerate(rngs):
                rng.standard_normal(out=z[row, :n])
            noise = np.matmul(z[:, :n].transpose(1, 0, 2), noise_map)
            states = xs[:n + 1]
            states[0] = x
            for k in range(n):
                np.matmul(states[k], Ft, out=states[k + 1])
                states[k + 1] += noise[k, :, :dim]
            # one small product per step, as the steps are; a single
            # (n b, dim) product would be threaded by BLAS, and those
            # threads compete with the slices for the same cores
            s = flux_density(model, states[1:])
            if k0 < mid <= k0 + n:
                j = mid - k0
                phi_mid[rows] = (0.5 * states[j][:, bp] ** 2 - quad0
                                 + h * (trap + s[:j].sum(axis=0) - 0.5 * s[j - 1]))
            trap += s.sum(axis=0)
            if ito:
                p_left = states[:n][..., bp]
                em += (scale * p_left * noise[..., dim:]).sum(axis=0) + h * (
                    model.gamma * (model.theta - p_left ** 2)).sum(axis=0)
            x = states[n].copy()
        trap -= 0.5 * s[-1]
        phi[rows] = 0.5 * x[:, bp] ** 2 - quad0 + h * trap
        if ito:
            phi_em[rows] = em

    starts = range(0, n_traj, SLICE)
    workers = max(1, min(_workers(), len(starts)))
    # the pool runs ``workers`` slices at a time and joins its threads on
    # exit; ``list`` re-raises the first error of a slice
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run_slice, starts))
    return _BatchResult(phi=phi, phi_em=phi_em, phi_mid=phi_mid,
                        workers=workers)


def _integrate_step(P: np.ndarray,
                    L: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Gaussian integral of the backward recursion, for a stack of
    forms ``P`` of shape ``(n, dim, dim)``.

    For ``z`` standard normal, ``E exp(1/2 (a + L z)* P (a + L z))`` equals
    ``det(I - L* P L)^(-1/2) exp(1/2 a* P' a)``.  Returns ``P'``,
    ``log det(I - L* P L)`` and the largest eigenvalue of ``L* P L`` per
    form; the integral converges exactly when that eigenvalue is below one,
    and ``P'`` and the log-determinant are meaningful only then.
    """
    K = L.T @ P @ L
    lam, U = np.linalg.eigh(0.5 * (K + K.swapaxes(-1, -2)))
    W = P @ L @ U
    P_next = P + (W / (1.0 - lam)[:, None, :]) @ W.swapaxes(-1, -2)
    return P_next, np.log1p(-lam).sum(axis=-1), lam[:, -1]


def _finite_horizon_values(model: LinearModel, tilts: np.ndarray, n_steps: int,
                           h: float, M: np.ndarray) -> np.ndarray:
    """``finite_horizon_cgf`` at each row of ``tilts``, run as one stacked
    recursion; ``inf`` where the expectation diverges."""
    stepper = ExactOUStep.build(model, h, M=M)
    L_step = stepper.L[:model.dim]
    F = stepper.F
    bp = model.boundary_index
    stack = flux_density_stack(model)
    B = np.zeros((len(tilts), model.dim, model.dim))
    B[:, bp, bp] = tilts
    S = np.array([h * np.einsum("d,dij->ij", tilt, stack) for tilt in tilts])

    values = np.full(len(tilts), np.inf)
    live = np.arange(len(tilts))
    P = B + 0.5 * S
    log_mgf = np.zeros(len(tilts))
    # a diverged form divides by 1 - lam <= 0; it is dropped right after
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n_steps, -1, -1):
            P, logdet, top = _integrate_step(
                P, L_step if k > 0 else np.linalg.cholesky(M))
            keep = top < 1.0
            if not keep.all():
                live, P, logdet, log_mgf = live[keep], P[keep], logdet[keep], log_mgf[keep]
                B, S = B[keep], S[keep]
            log_mgf -= 0.5 * logdet
            if k > 0:
                P = F.T @ P @ F + (S if k > 1 else 0.5 * S - B)
    values[live] = log_mgf / (n_steps * h)
    return values


def finite_horizon_cgf(model: LinearModel, tilt: np.ndarray, n_steps: int,
                       h: float, M: np.ndarray | None = None) -> float | np.ndarray:
    """Exact ``(1/T) log E exp(tilt . Phi_T)`` of the simulated discrete path.

    The path is the one the Monte Carlo engine samples: a stationary start
    ``x_0 ~ N(0, M)``, exact steps ``x_{k+1} = F x_k + eta`` with
    ``Cov(eta) = M - F M F*``, and the boundary-term accumulator

        tilt . Phi = 1/2 x_N* B x_N - 1/2 x_0* B x_0 + h sum_k w_k 1/2 x_k* S x_k

    with ``B`` the tilt on the boundary momenta, ``S`` the tilted flux
    density and trapezoid weights ``w_k``; ``T = n_steps * h``.  The
    expectation of this exponentiated quadratic form is evaluated by the
    backward Riccati difference recursion
    ``P <- F* P (I - M_h P)^-1 F + h w_k S``, collecting
    ``-1/2 log det(I - M_h P)`` per step and ``-1/2 log det(I - M P_0)`` for
    the start.  This is the quantity the bootstrap interval of
    ``empirical_cgf`` covers; it tends to the limit ``g`` at rate ``1/T``.

    ``tilt`` is one tilt, which gives a float, or an ``(n, d)`` stack of
    tilts, which gives the ``n`` values of one stacked recursion.

    Raises
    ------
    NumericalError
        When one of the Gaussian integrals diverges, i.e. the expectation is
        infinite at a tilt and this horizon.
    """
    if n_steps < 1:
        raise SpecificationError("need at least one step")
    tilt = np.asarray(tilt, dtype=float)
    if tilt.ndim not in (1, 2) or tilt.shape[-1] != model.d:
        raise SpecificationError(f"tilt needs {model.d} components")
    if M is None:
        M = steady_covariance(model).M
    values = _finite_horizon_values(model, np.atleast_2d(tilt), n_steps, h, M)
    if np.isinf(values).any():
        raise NumericalError(
            "tilted expectation diverges: a Gaussian integral of the "
            "recursion has an eigenvalue >= 1")
    return float(values[0]) if tilt.ndim == 1 else values


@dataclass(eq=False)
class CgfEstimate:
    """Log-mean-exp estimate of the generating function at one tilt.

    ``value`` estimates ``(1/T) log E exp(tilt . Phi_T)`` of the simulated
    discrete path, and the bootstrap interval ``[ci_low, ci_high]`` covers
    only the sampling error of that estimate.  Its target is therefore the
    exact finite-horizon value ``finite_horizon`` (see
    ``finite_horizon_cgf``; ``inf`` where the expectation diverges), not the
    long-time limit ``g``, from which it differs by ``O(1/T)``.
    """

    tilt: np.ndarray
    value: float
    ci_low: float
    ci_high: float
    max_weight: float
    reliable: bool
    finite_horizon: float


@dataclass(eq=False)
class ConservedCheck:
    """Variance of a conserved flux component at one and two horizons."""

    direction: np.ndarray
    var_T: float
    var_2T: float

    @property
    def ratio(self) -> float:
        return self.var_2T / self.var_T


@dataclass(eq=False)
class TrajectoryStats:
    """Summary statistics of a simulation run."""

    horizon: float
    step: float
    n_traj: int
    mean_flux: np.ndarray
    mean_flux_se: np.ndarray
    flux: np.ndarray                  # per-trajectory fluxes (n_traj, d)
    cgf: list[CgfEstimate]
    conserved: list[ConservedCheck]
    workers: int                      # most trajectory slices run at once


def empirical_cgf(model: LinearModel, config: SimConfig,
                  L_basis: np.ndarray | None = None) -> TrajectoryStats:
    """Estimate mean fluxes and the generating function at small tilts.

    Runs the main trajectory batch at the configured horizon, bootstrap
    resamples the log-mean-exp estimator per tilt, and (when a lineality
    basis is supplied) checks that conserved flux components have
    horizon-independent variance by rerunning a smaller batch to twice the
    horizon.

    The bootstrap intervals of the tilts are calibrated family-wise at 95%
    (Bonferroni: with ``n`` tilts each takes the ``2.5/n`` and ``100 -
    2.5/n`` percentiles, so a single tilt gets the plain 95% interval).
    Each covers the finite-horizon value of the discretised path, which is
    computed exactly alongside (``CgfEstimate.finite_horizon``); it is not
    an interval for the long-time limit ``g``, which differs by ``O(1/T)``.

    The resample indices are drawn once, as one ``(bootstrap, n_traj)``
    array, and the resamples are gathered and reduced ``BOOT_ROWS`` at a
    time, so no other array of that size is built.

    Estimates whose exponential weights concentrate on a single trajectory
    (max weight above half the total) are flagged unreliable, never
    silently dropped.
    """
    config = config.resolved(model)
    h = config.step
    n_steps = int(round(config.horizon / h))
    horizon = n_steps * h

    batch = _run_batch(model, config.seed, STREAM_MAIN, config.n_traj,
                       n_steps, h)
    rate = batch.phi / horizon
    mean_flux = rate.mean(axis=0)
    mean_flux_se = rate.std(axis=0, ddof=1) / np.sqrt(config.n_traj)

    estimates: list[CgfEstimate] = []
    if len(config.tilts) > 0:
        tilts = np.array(config.tilts, dtype=float)
        finite_values = _finite_horizon_values(
            model, tilts, n_steps, h, steady_covariance(model).M)
        tail = 2.5 / len(config.tilts)
        boot_rng = trajectory_rng(config.seed, 0, STREAM_BOOTSTRAP)
        idx = boot_rng.integers(0, config.n_traj,
                                size=(config.bootstrap, config.n_traj))
        for tilt, finite in zip(tilts, finite_values):
            y = batch.phi @ tilt
            top = y.max()
            weights = np.exp(y - top)
            max_weight = float(weights.max() / weights.sum())
            value = (top + np.log(weights.mean())) / horizon
            boot = np.empty(config.bootstrap)
            for r in range(0, config.bootstrap, BOOT_ROWS):
                resampled = y[idx[r:r + BOOT_ROWS]]
                tops = resampled.max(axis=1, keepdims=True)
                boot[r:r + BOOT_ROWS] = (tops[:, 0] + np.log(
                    np.exp(resampled - tops).mean(axis=1))) / horizon
            lo, hi = np.percentile(boot, [tail, 100.0 - tail])
            estimates.append(CgfEstimate(
                tilt=tilt, value=float(value), ci_low=float(lo),
                ci_high=float(hi), max_weight=max_weight,
                reliable=max_weight <= 0.5, finite_horizon=float(finite)))

    conserved: list[ConservedCheck] = []
    workers = batch.workers
    if L_basis is not None and len(L_basis) > 0:
        double = _run_batch(model, config.seed, STREAM_CONSERVED,
                            config.conserved_traj, 2 * n_steps, h,
                            record_mid=True)
        workers = max(workers, double.workers)
        for direction in np.atleast_2d(L_basis):
            y_T = double.phi_mid @ direction
            y_2T = double.phi @ direction
            conserved.append(ConservedCheck(
                direction=np.asarray(direction, dtype=float),
                var_T=float(y_T.var(ddof=1)),
                var_2T=float(y_2T.var(ddof=1))))

    return TrajectoryStats(
        horizon=horizon, step=h, n_traj=config.n_traj,
        mean_flux=mean_flux, mean_flux_se=mean_flux_se, flux=batch.phi,
        cgf=estimates, conserved=conserved, workers=workers)


def cross_accumulator_ratio(model: LinearModel, seed: int,
                            n_traj: int = 100, n_steps: int = 2000,
                            h: float = 0.02) -> tuple[float, float, float]:
    """Step-halving ratio of the accumulator discrepancy at fixed step count.

    Both arms consume identical per-trajectory standard normals, so the
    per-step discretization error of the Ito accumulator (which is first
    order at fixed step count) dominates the comparison and the mean
    absolute discrepancy halves with the step.

    Returns
    -------
    (ratio, discrepancy_h, discrepancy_half)
    """
    def discrepancy(step: float) -> float:
        batch = _run_batch(model, seed, STREAM_CROSS, n_traj, n_steps, step,
                           ito=True)
        return float(np.abs(batch.phi - batch.phi_em).mean())

    d_h = discrepancy(h)
    d_half = discrepancy(0.5 * h)
    return d_half / d_h, d_h, d_half
