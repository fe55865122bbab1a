"""Network description and phase-space operator assembly.

A network is a finite set of unit-mass harmonic oscillators with squared
stiffness matrix ``kappa_sq``; a subset of them (the boundary) is damped and
thermally driven.  ``assemble_model`` turns a validated description into the
dense phase-space operators used everywhere else: the drift ``A``, the noise
injection ``Q``, the diffusion ``B = Q Q*``, the rotation ``Omega`` and the
momentum-flip involution.  Phase-space coordinates are ordered as all momenta
first, then the stiffness-weighted positions, so the internal energy is
``h(x) = |x|^2 / 2``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import SpecificationError

__all__ = [
    "NetworkSpec",
    "LinearModel",
    "TiltLift",
    "parse_spec",
    "load_spec",
    "assemble_model",
    "canonical_lift",
    "flux_density_stack",
    "flux_density",
    "conserved_null_space",
    "kalman_controllable",
]

#: relative tolerance for symmetry of the input stiffness matrix
KAPPA_SYM_RTOL = 1e-12

#: singular values below this fraction of the largest count as zero
RANK_RTOL = 1e-9

_ALLOWED_KEYS = {"oscillators", "kappa_sq", "boundary", "temperature_ratios"}


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    """Validated user-facing description of an oscillator network.

    Attributes
    ----------
    oscillator_ids : tuple of str
        All oscillator labels, in file order.
    boundary_ids : tuple of str
        Labels of the thermally driven oscillators, in file order.
    gamma : ndarray, shape (d,)
        Dissipation rates of the boundary oscillators (1/time).
    theta : ndarray, shape (d,)
        Reservoir temperatures (energy units), after optional normalization.
    kappa_sq : ndarray, shape (n, n)
        Symmetric positive definite squared stiffness matrix.
    raw_theta : ndarray or None
        Temperatures as given in the document when they were declared as
        ratios (``temperature_ratios: true``); ``None`` otherwise.
    """

    oscillator_ids: tuple[str, ...]
    boundary_ids: tuple[str, ...]
    gamma: np.ndarray
    theta: np.ndarray
    kappa_sq: np.ndarray
    raw_theta: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.oscillator_ids)

    @property
    def d(self) -> int:
        return len(self.boundary_ids)

    @property
    def boundary_index(self) -> np.ndarray:
        """Positions of the boundary oscillators within the oscillator list."""
        order = {name: k for k, name in enumerate(self.oscillator_ids)}
        return np.array([order[name] for name in self.boundary_ids], dtype=int)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SpecificationError(message)


def parse_spec(document: str | dict) -> NetworkSpec:
    """Parse and validate a network description.

    Parameters
    ----------
    document : str or dict
        JSON text or an already-decoded mapping with keys ``oscillators``
        (list of string ids), ``kappa_sq`` (row-major list of rows) and
        ``boundary`` (list of ``{id, gamma, theta}``).  The optional boolean
        ``temperature_ratios`` declares the theta values as ratios to be
        rescaled so that the mean inverse temperature equals one.

    Returns
    -------
    NetworkSpec

    Raises
    ------
    SpecificationError
        On any schema violation, a non-symmetric or non-positive-definite
        stiffness matrix, unknown boundary ids, or non-positive rates or
        temperatures.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SpecificationError(f"not valid JSON: {exc}") from exc
    _require(isinstance(document, dict), "document must be a JSON object")
    unknown = set(document) - _ALLOWED_KEYS
    _require(not unknown, f"unknown top-level keys: {sorted(unknown)}")
    for key in ("oscillators", "kappa_sq", "boundary"):
        _require(key in document, f"missing top-level key '{key}'")

    ids = document["oscillators"]
    _require(isinstance(ids, list) and ids, "'oscillators' must be a non-empty list")
    _require(all(isinstance(s, str) for s in ids), "oscillator ids must be strings")
    _require(len(set(ids)) == len(ids), "duplicate oscillator ids")
    n = len(ids)

    rows = document["kappa_sq"]
    _require(isinstance(rows, list) and len(rows) == n,
             f"'kappa_sq' must be a list of {n} rows")
    try:
        kappa_sq = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecificationError(f"'kappa_sq' entries must be numbers: {exc}") from exc
    _require(kappa_sq.shape == (n, n), f"'kappa_sq' must be {n}x{n}")
    _require(np.all(np.isfinite(kappa_sq)), "'kappa_sq' entries must be finite")
    scale = np.abs(kappa_sq).max()
    _require(scale > 0.0, "'kappa_sq' must be nonzero")
    asym = np.abs(kappa_sq - kappa_sq.T).max()
    _require(asym <= KAPPA_SYM_RTOL * scale,
             f"kappa_sq not symmetric (relative asymmetry {asym / scale:.2e})")
    kappa_sq = 0.5 * (kappa_sq + kappa_sq.T)
    if np.linalg.eigvalsh(kappa_sq).min() <= 0.0:
        raise SpecificationError("kappa_sq not positive definite")

    boundary = document["boundary"]
    _require(isinstance(boundary, list) and boundary,
             "'boundary' must be a non-empty list")
    boundary_ids, gammas, thetas = [], [], []
    known = set(ids)
    for k, entry in enumerate(boundary):
        _require(isinstance(entry, dict) and set(entry) == {"id", "gamma", "theta"},
                 f"boundary entry {k} must be an object with keys id, gamma, theta")
        name = entry["id"]
        _require(isinstance(name, str) and name in known,
                 f"boundary entry {k}: unknown oscillator id {name!r}")
        _require(name not in boundary_ids, f"duplicate boundary id {name!r}")
        try:
            gamma = float(entry["gamma"])
            theta = float(entry["theta"])
        except (TypeError, ValueError) as exc:
            raise SpecificationError(
                f"boundary entry {k}: gamma/theta must be numbers") from exc
        _require(np.isfinite(gamma) and gamma > 0.0,
                 f"boundary entry {k}: gamma must be positive")
        _require(np.isfinite(theta) and theta > 0.0,
                 f"boundary entry {k}: theta must be positive")
        boundary_ids.append(name)
        gammas.append(gamma)
        thetas.append(theta)

    theta = np.array(thetas)
    raw_theta = None
    ratios = document.get("temperature_ratios", False)
    _require(isinstance(ratios, bool), "'temperature_ratios' must be a boolean")
    if ratios:
        # rescale so that the mean inverse temperature equals one
        raw_theta = theta.copy()
        theta = theta * float(np.mean(1.0 / theta))

    return NetworkSpec(
        oscillator_ids=tuple(ids),
        boundary_ids=tuple(boundary_ids),
        gamma=_frozen(gammas),
        theta=_frozen(theta),
        kappa_sq=_frozen(kappa_sq),
        raw_theta=None if raw_theta is None else _frozen(raw_theta),
    )


def load_spec(path) -> NetworkSpec:
    """Read and parse a network description file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SpecificationError(f"cannot read {path}: {exc}") from exc
    return parse_spec(text)


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Assembled phase-space operators of a thermally driven network.

    All arrays are read-only; instances are safe to share across threads.
    """

    spec: NetworkSpec
    n: int
    d: int
    kappa: np.ndarray          # principal square root of kappa_sq
    A: np.ndarray              # drift on the 2n-dimensional phase space
    Q: np.ndarray              # noise injection, maps reservoir space in
    B: np.ndarray              # Q Q*, diagonal on boundary momenta
    Omega: np.ndarray          # (A - A*)/2, the conservative rotation
    theta: np.ndarray
    theta_inv: np.ndarray
    gamma: np.ndarray
    time_reversal: np.ndarray  # +-1 signature implementing (p, q) -> (-p, q)
    boundary_index: np.ndarray
    spectrum: np.ndarray       # eigenvalues of A
    omega_scale: float         # characteristic frequency scale of A

    @property
    def dim(self) -> int:
        """Phase-space dimension 2n."""
        return 2 * self.n

    def theta_conj(self, S: np.ndarray) -> np.ndarray:
        """Conjugate a phase-space matrix by the momentum-flip involution."""
        s = self.time_reversal
        return s[:, None] * S * s[None, :]

    def energy(self, x: np.ndarray) -> np.ndarray:
        """Internal energy h(x) = |x|^2 / 2 (vectorized over leading axes)."""
        return 0.5 * np.sum(np.asarray(x) ** 2, axis=-1)


def assemble_model(spec: NetworkSpec) -> LinearModel:
    """Build the dense phase-space operators for a validated network.

    The diffusion matrix is diagonal with entries ``2 gamma_i theta_i`` on the
    boundary momentum coordinates and zero elsewhere, and the drift satisfies
    ``A + A* = -Q theta^{-1} Q*`` by construction.
    """
    n, d = spec.n, spec.d
    w, V = np.linalg.eigh(spec.kappa_sq)
    if w.min() <= 0.0:
        raise SpecificationError("kappa_sq not positive definite")
    kappa = (V * np.sqrt(w)) @ V.T
    kappa = 0.5 * (kappa + kappa.T)

    bidx = spec.boundary_index
    iota = np.zeros((n, d))
    iota[bidx, np.arange(d)] = np.sqrt(2.0 * spec.gamma)

    A = np.zeros((2 * n, 2 * n))
    A[:n, :n] = -0.5 * iota @ iota.T
    A[:n, n:] = -kappa
    A[n:, :n] = kappa

    Q = np.zeros((2 * n, d))
    Q[:n, :] = iota * np.sqrt(spec.theta)[None, :]

    B = Q @ Q.T
    Omega = 0.5 * (A - A.T)
    signature = np.concatenate([-np.ones(n), np.ones(n)])

    spectrum = np.linalg.eigvals(A)
    omega_scale = float(np.abs(spectrum.imag).max() + np.linalg.norm(A, 2))

    return LinearModel(
        spec=spec,
        n=n,
        d=d,
        kappa=_frozen(kappa),
        A=_frozen(A),
        Q=_frozen(Q),
        B=_frozen(B),
        Omega=_frozen(Omega),
        theta=_frozen(spec.theta),
        theta_inv=_frozen(1.0 / spec.theta),
        gamma=_frozen(spec.gamma),
        time_reversal=_frozen(signature),
        boundary_index=spec.boundary_index,
        spectrum=spectrum,
        omega_scale=omega_scale,
    )


@dataclass(frozen=True, eq=False)
class TiltLift:
    """A tilt vector together with a phase-space lift.

    ``xi_tilde`` is a symmetric matrix intertwining the noise injection
    (``xi_tilde Q = Q xi``) and commuting with the momentum flip.  ``sigma``
    is the commutator of the rotation with the lift; its quadratic form is
    the instantaneous flux density associated with the tilt.
    """

    xi: np.ndarray
    xi_tilde: np.ndarray
    sigma: np.ndarray


def canonical_lift(model: LinearModel, xi: np.ndarray) -> TiltLift:
    """Minimal block-diagonal lift of a tilt vector.

    The lift is diagonal, carrying ``xi_i`` on the momentum coordinate of
    boundary oscillator ``i`` and zero elsewhere.  Any other admissible lift
    produces the same downstream spectral quantities, so this deterministic
    choice is safe.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (model.d,):
        raise SpecificationError(f"tilt must have shape ({model.d},)")
    diag = np.zeros(model.dim)
    diag[model.boundary_index] = xi
    xi_tilde = np.diag(diag)
    sigma = model.Omega @ xi_tilde - xi_tilde @ model.Omega
    return TiltLift(xi=_frozen(xi), xi_tilde=_frozen(xi_tilde),
                    sigma=_frozen(0.5 * (sigma + sigma.T)))


@functools.lru_cache(maxsize=64)
def flux_density_stack(model: LinearModel) -> np.ndarray:
    """``sigma`` of the canonical lift of each basis tilt, shape
    ``(d, 2n, 2n)``; memoized per model, which is hashed by identity."""
    eye = np.eye(model.d)
    return _frozen([canonical_lift(model, eye[j]).sigma for j in range(model.d)])


def flux_density(model: LinearModel, x: np.ndarray) -> np.ndarray:
    """Flux densities ``x . sigma_j x / 2`` of the basis tilts, shape
    ``(..., d)``, at phase points ``x`` of shape ``(..., 2n)``.

    With ``E_j`` the projector on the momentum of boundary oscillator
    ``j``, ``sigma_j = Omega E_j - E_j Omega`` has rank two, and the
    antisymmetry of ``Omega`` reduces its quadratic form to
    ``x_{b_j} (x Omega)_{b_j}``: one ``(2n, d)`` product in place of ``d``
    dense forms.  Agrees with the forms of ``flux_density_stack`` up to
    rounding.
    """
    bp = model.boundary_index
    return x[..., bp] * (x @ model.Omega[:, bp])


def conserved_null_space(model: LinearModel) -> tuple[np.ndarray, np.ndarray]:
    """Conserved tilts and their commuting lifts, as one null space.

    A commuting lift of ``xi`` (symmetric, ``S Q = Q xi``, ``theta S theta
    = S``, ``[Omega, S] = 0``) is ``diag(P, P)`` with ``[P, kappa^2] = 0``
    and ``P e_b = xi_j e_b`` at the site ``b`` of boundary oscillator ``j``
    (README, "conserved directions").  Returns ``(xis, Ps)``, shapes
    ``(k, d)`` and ``(k, n, n)``: a basis of the null space of that linear
    map, whose commutator rows are scaled by ``||kappa^2||`` so that the
    rank cut does not move with the stiffness scale.
    """
    n, d = model.n, model.d
    k2, sites = model.spec.kappa_sq, model.boundary_index
    rows, cols = np.triu_indices(n)
    unit = np.arange(len(rows))
    E = np.zeros((len(rows), n, n))
    E[unit, rows, cols] = E[unit, cols, rows] = 1.0
    # one column per unknown: the unit symmetric matrices E, then the tilt
    # components; the rows hold [P, kappa^2] and P e_b - xi_j e_b
    P_cols = np.concatenate([
        ((E @ k2 - k2 @ E) / np.linalg.norm(k2, 2)).reshape(len(E), -1),
        E[:, :, sites].reshape(len(E), -1)], axis=1)
    xi_cols = np.zeros((d, n * n + n * d))
    xi_cols[np.arange(d), n * n + sites * d + np.arange(d)] = -1.0
    C = np.concatenate([P_cols, xi_cols]).T
    _, svals, Vt = np.linalg.svd(C, full_matrices=False)
    null = Vt[int(np.sum(svals > RANK_RTOL * svals[0])):]
    return null[:, len(E):], np.einsum("kp,pij->kij", null[:, :len(E)], E)


def kalman_controllable(model: LinearModel,
                        rtol: float = RANK_RTOL) -> tuple[bool, int]:
    """Kalman rank test for the pair (A, Q).

    Returns
    -------
    (controllable, rank)
        ``controllable`` is true iff the stacked controllability matrix
        ``[Q, AQ, ..., A^{2n-1} Q]`` has full rank 2n; the rank is computed
        by counting singular values above ``rtol`` times the largest.
    """
    # powers of A are taken with A rescaled to unit norm: column scalings
    # keep the rank unchanged and stop the singular values of the stacked
    # matrix from spanning the dynamic range of ||A||^{2n}
    scale = max(1.0, float(np.linalg.norm(model.A, 2)))
    A = model.A / scale
    blocks = [model.Q]
    for _ in range(model.dim - 1):
        blocks.append(A @ blocks[-1])
    ctrb = np.hstack(blocks)
    svals = np.linalg.svd(ctrb, compute_uv=False)
    rank = int(np.sum(svals > rtol * svals[0])) if svals[0] > 0 else 0
    return rank == model.dim, rank
