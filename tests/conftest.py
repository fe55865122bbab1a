"""Shared fixtures: the three example networks and a random-network factory."""

import numpy as np
import pytest
import scipy.optimize

from fluxnet import assemble_model, kalman_controllable, lineality_space, parse_spec

EPS = 1.0 / (2.0 * np.sqrt(2.0))


def lozenge_doc(thetas):
    return {
        "oscillators": ["o1", "o2", "o3", "o4"],
        "kappa_sq": [[1.0, 0.0, EPS, EPS],
                     [0.0, 1.0, EPS, EPS],
                     [EPS, EPS, 1.0, 0.0],
                     [EPS, EPS, 0.0, 1.0]],
        "boundary": [{"id": f"o{i+1}", "gamma": 1.0, "theta": float(t)}
                     for i, t in enumerate(thetas)],
        "temperature_ratios": True,
    }


def triangular_doc(thetas):
    a, b = EPS, 0.25
    k2 = (np.array([[0, a, 0, 0, 0, a],
                    [a, 0, a, b, 0, b],
                    [0, a, 0, a, 0, 0],
                    [0, b, a, 0, a, b],
                    [0, 0, 0, a, 0, a],
                    [a, b, 0, b, a, 0]]) + np.eye(6)).tolist()
    return {
        "oscillators": [f"o{i}" for i in range(1, 7)],
        "kappa_sq": k2,
        "boundary": [{"id": f"o{i}", "gamma": 1.0, "theta": float(t)}
                     for i, t in zip((1, 3, 5), thetas)],
        "temperature_ratios": True,
    }


def heatpump_doc(theta1=10.0):
    a, b = -40.0, -20.0
    k2 = [[1 - a, 0, 0, 0, a, 0],
          [0, 1 - b, 0, 0, b, 0],
          [0, 0, 1 - a, 0, 0, a],
          [0, 0, 0, 1 - b, 0, b],
          [a, b, 0, 0, 1 - 2 * a - b, a],
          [0, 0, a, b, a, 1 - 2 * a - b]]
    thetas = [theta1, 3.6, 7.0, 6.8]
    return {
        "oscillators": [f"o{i}" for i in range(1, 7)],
        "kappa_sq": k2,
        "boundary": [{"id": f"o{i+1}", "gamma": 1.0, "theta": float(t)}
                     for i, t in enumerate(thetas)],
        "temperature_ratios": True,
    }


def single_oscillator_doc():
    return {
        "oscillators": ["o1"],
        "kappa_sq": [[1.0]],
        "boundary": [{"id": "o1", "gamma": 1.0, "theta": 1.0}],
    }


def two_dimers_doc():
    """Two uncoupled dimers, each with its own two reservoirs: the energy of
    each dimer is conserved, so the lineality space has dimension 2."""
    return {
        "oscillators": ["a1", "a2", "b1", "b2"],
        "kappa_sq": [[1.0, -0.3, 0.0, 0.0], [-0.3, 1.0, 0.0, 0.0],
                     [0.0, 0.0, 1.0, -0.2], [0.0, 0.0, -0.2, 1.0]],
        "boundary": [{"id": "a1", "gamma": 1.0, "theta": 1.0},
                     {"id": "a2", "gamma": 1.0, "theta": 2.0},
                     {"id": "b1", "gamma": 1.0, "theta": 1.5},
                     {"id": "b2", "gamma": 1.0, "theta": 4.0}],
    }


def uncoupled_dimers_doc(couplings, thetas):
    """Uncoupled dimers, one per coupling, each with its own two reservoirs
    (a pair of ``thetas``): each dimer conserves its energy, so dim L is the
    number of dimers."""
    k2 = np.eye(2 * len(couplings))
    for j, k in enumerate(couplings):
        k2[2 * j, 2 * j + 1] = k2[2 * j + 1, 2 * j] = k
    names = [f"{chr(ord('a') + j)}{i}" for j in range(len(couplings)) for i in (1, 2)]
    return {
        "oscillators": names,
        "kappa_sq": k2.tolist(),
        "boundary": [{"id": name, "gamma": 1.0, "theta": theta}
                     for name, theta in zip(names, np.ravel(thetas).tolist())],
    }


def three_dimers_doc():
    """Three uncoupled dimers: dim L = 3, and the section has dimension 3."""
    return uncoupled_dimers_doc((-0.3, -0.2, -0.25),
                                ((1.0, 2.0), (1.5, 4.0), (1.2, 3.0)))


def dimer_1_64_doc():
    """Two coupled oscillators, each at its own reservoir, at 1:64."""
    return {
        "oscillators": ["o1", "o2"],
        "kappa_sq": [[1.0, -0.3], [-0.3, 1.0]],
        "boundary": [{"id": "o1", "gamma": 1.0, "theta": 1.0},
                     {"id": "o2", "gamma": 1.0, "theta": 64.0}],
        "temperature_ratios": True,
    }


def random_network_doc(rng, n_max=6):
    """Random SPD stiffness with a random driven subset; retried until
    controllable (dense couplings almost surely are)."""
    for _ in range(20):
        n = int(rng.integers(1, n_max + 1))
        d = int(rng.integers(1, n + 1))
        W = rng.normal(size=(n, n))
        k2 = W @ W.T + float(rng.uniform(0.3, 1.0)) * n * np.eye(n)
        k2 /= np.linalg.norm(k2, 2) / 2.0
        boundary = sorted(rng.choice(n, size=d, replace=False).tolist())
        doc = {
            "oscillators": [f"o{i}" for i in range(n)],
            "kappa_sq": k2.tolist(),
            "boundary": [{"id": f"o{i}",
                          "gamma": float(rng.uniform(0.5, 2.0)),
                          "theta": float(rng.uniform(0.5, 2.0))}
                         for i in boundary],
        }
        model = assemble_model(parse_spec(doc))
        if kalman_controllable(model)[0]:
            return doc
    raise RuntimeError("failed to draw a controllable network")


@pytest.fixture(scope="session")
def lozenge_eq():
    return assemble_model(parse_spec(lozenge_doc([1, 1, 1])))


@pytest.fixture(scope="session")
def lozenge_124():
    return assemble_model(parse_spec(lozenge_doc([1, 2, 4])))


@pytest.fixture(scope="session")
def lozenge_1264():
    return assemble_model(parse_spec(lozenge_doc([1, 2, 64])))


@pytest.fixture(scope="session")
def triangular_eq():
    return assemble_model(parse_spec(triangular_doc([1, 1, 1])))


@pytest.fixture(scope="session")
def heatpump():
    return assemble_model(parse_spec(heatpump_doc()))


@pytest.fixture(scope="session")
def single_oscillator():
    return assemble_model(parse_spec(single_oscillator_doc()))


@pytest.fixture(scope="session")
def lozenge_124_geometry(lozenge_124):
    return lineality_space(lozenge_124)


@pytest.fixture(scope="session")
def lozenge_1264_geometry(lozenge_1264):
    return lineality_space(lozenge_1264)


@pytest.fixture(scope="session")
def heatpump_geometry(heatpump):
    return lineality_space(heatpump)


def random_tilt_in_D0(rng, model):
    """Uniform draw from the open box between zero and the inverse temperatures."""
    return rng.uniform(0.02, 0.98, size=model.d) * model.theta_inv


def sampled_domain_margin(model, xi, grid=129):
    """Frequency-domain reference for ``cgf.domain_margin``: the smallest
    eigenvalue of ``I - E(omega)`` on a tangent-compactified grid over a
    certified frequency window, every local minimum refined by bounded
    scalar minimization."""
    from fluxnet.cgf import E_matrix

    xi = np.asarray(xi, dtype=float)
    z = float(np.abs(xi * model.theta).max())
    if z == 0.0:
        return 1.0
    # beyond this frequency the resolvent bound ||E|| <= 4 a z / w +
    # 4 a^2 z / w^2 keeps I - E positive
    a = float(np.abs(model.theta_inv).max() * np.linalg.norm(model.Q, 2) ** 2)
    x_star = (-z + np.sqrt(z * z + z)) / (2.0 * a * z)
    cutoff = 1.01 * max(2.0 * float(np.linalg.norm(model.A, 2)), 1.0 / x_star)
    s = model.omega_scale
    u_max = float(np.arctan(cutoff / s))
    us = np.linspace(0.0, u_max, grid)
    eye = np.eye(model.d)
    margins = np.linalg.eigvalsh(eye[None] - E_matrix(model, xi, s * np.tan(us)))[:, 0]

    def margin_at(u):
        E = E_matrix(model, xi, [s * np.tan(u)])[0]
        return float(np.linalg.eigvalsh(eye - E)[0])

    best = float(margins.min())
    interior = np.nonzero(
        (margins[1:-1] <= margins[:-2]) & (margins[1:-1] <= margins[2:]))[0] + 1
    for k in set(interior.tolist()) | {0, grid - 1}:
        lo, hi = us[max(k - 1, 0)], us[min(k + 1, grid - 1)]
        if hi > lo:
            res = scipy.optimize.minimize_scalar(
                margin_at, bounds=(lo, hi), method="bounded",
                options={"xatol": 1e-6 * u_max})
            best = min(best, float(res.fun))
    return best


def gap_arc_probe(model, geometry, angle, h=1e-5):
    """Point on the finite-region boundary along a gap-binding ray, plus the
    outward normal of the boundary there (finite differences of the
    feasibility margin)."""
    from fluxnet.cgf import TiltState, section_inf_boundary

    u = geometry.from_frame(np.array([np.cos(angle), np.sin(angle)]))
    r = section_inf_boundary(model, geometry, u, tol=1e-8)
    xi_b = r * u
    grad = np.array([
        (TiltState(model, xi_b + h * geometry.frame[j]).sinf_margin(geometry)
         - TiltState(model, xi_b - h * geometry.frame[j]).sinf_margin(geometry))
        / (2 * h)
        for j in range(geometry.section_dim)])
    eta_frame = -grad / np.linalg.norm(grad)
    return xi_b, geometry.from_frame(eta_frame)


def mirror_f0_margin(model, geometry, state):
    """Reference for ``TiltState.f0_margin``: a second Riccati pair solved at
    the mirror ``Pi theta^{-1} - xi``, lifted back by the conserved part of
    ``theta^{-1}``, and the largest shift margin of the four obstructions of
    the tilt and its mirror (the construction the shift identity replaced).
    Shifting by the identity balances the smallest eigenvalues, so twice
    the largest balanced minimum is on the scale of the margin's sum."""
    from fluxnet import commuting_lift, steady_covariance
    from fluxnet.cgf import TiltState

    mirror = TiltState(model, geometry.project(model.theta_inv) - state.xi)
    if geometry.dim_L == 1:
        c_ones = float(np.mean(model.theta_inv))
        lam, lam_m = state.lambdas, mirror.lambdas
        lo = max(lam.minus, c_ones - lam_m.plus)
        hi = min(lam.plus, c_ones - lam_m.minus)
        return hi - lo
    rep = commuting_lift(model, (geometry.L_basis.T @ geometry.L_basis)
                         @ model.theta_inv)
    Minv = steady_covariance(model).Minv
    terms = [(state.dual.X, -1.0), (state.sol.X + Minv, 1.0),
             (mirror.dual.X - rep, 1.0), (mirror.sol.X + Minv + rep, -1.0)]

    def negated(coeffs):
        shift = np.einsum("k,kij->ij", coeffs, geometry.L_lifts)
        return -min(np.linalg.eigvalsh(P + sign * shift)[0]
                    for P, sign in terms)

    k = geometry.dim_L
    starts = [np.zeros(k), -np.ones(k), 0.5 * (-1.0) ** np.arange(k),
              *np.eye(k)]
    return 2.0 * max(-scipy.optimize.minimize(
        negated, start, method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000}).fun
        for start in starts)
