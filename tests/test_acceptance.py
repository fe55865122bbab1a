"""Acceptance criteria.

One test per criterion, each printing a pass line with its wall time and
asserting both the numerical statement (at the stated tolerance) and the
stated runtime budget.  Run with ``pytest tests/test_acceptance.py -v``.
"""

import subprocess
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fluxnet import (
    ExactOUStep,
    SimConfig,
    assemble_model,
    canonical_lift,
    commuting_lift,
    condition_R_scan,
    conserved_direction,
    cross_accumulator_ratio,
    empirical_cgf,
    entropy_production,
    finite_horizon_cgf,
    g_hessian_quadform,
    g_value,
    hamiltonian,
    kalman_controllable,
    lineality_space,
    parse_spec,
    rate_function,
    riccati_pair,
    section_boundary,
    steady_covariance,
)
from fluxnet.cgf import E_matrix, TiltState

from conftest import (
    gap_arc_probe,
    heatpump_doc,
    lozenge_doc,
    random_network_doc,
    random_tilt_in_D0,
    triangular_doc,
)


@contextmanager
def criterion(number, name, budget_s):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.1f}s, "
          f"budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s"


@pytest.fixture(scope="module")
def triangular_eq_geometry(triangular_eq):
    return lineality_space(triangular_eq)


def _structural_residuals(m):
    res = []
    res.append(np.linalg.norm(
        m.A + m.A.T + (m.Q * m.theta_inv[None, :]) @ m.Q.T, 2))
    QtQ = m.Q.T @ m.Q
    res.append(max(0.0, -np.linalg.eigvalsh(QtQ)[0]))
    res.append(np.linalg.norm(np.diag(m.theta) @ QtQ - QtQ @ np.diag(m.theta), 2))
    res.append(np.linalg.norm(m.time_reversal[:, None] * m.Q + m.Q, 2))
    res.append(np.linalg.norm(m.theta_conj(m.A) - m.A.T, 2))
    res.append(np.linalg.norm(m.theta_conj(m.B) - m.B, 2))
    res.append(np.linalg.norm(m.theta_conj(m.Omega) + m.Omega, 2))
    return res


def test_criterion_01_structural_identities(lozenge_124, triangular_eq,
                                            heatpump):
    with criterion(1, "structural identities", 1.0):
        models = [lozenge_124, triangular_eq, heatpump]
        rng = np.random.default_rng(1001)
        models += [assemble_model(parse_spec(random_network_doc(rng)))
                   for _ in range(20)]
        for m in models:
            assert max(_structural_residuals(m)) < 1e-10
            # the antisymmetric part of the drift has trivial kernel
            assert np.linalg.svd(m.A - m.A.T, compute_uv=False)[-1] > 1e-10


def test_criterion_02_equilibrium_covariance(lozenge_eq, triangular_eq):
    with criterion(2, "equilibrium covariance", 1.0):
        for m in (lozenge_eq, triangular_eq):
            M = steady_covariance(m).M
            assert np.linalg.norm(M - np.eye(m.dim), 2) < 1e-10
        t0 = 2.3
        doc = lozenge_doc([t0, t0, t0])
        doc["temperature_ratios"] = False
        m = assemble_model(parse_spec(doc))
        M = steady_covariance(m).M
        assert np.linalg.norm(M - t0 * np.eye(m.dim), 2) < 1e-10


def test_criterion_03_three_way_g(lozenge_124, triangular_eq, heatpump):
    with criterion(3, "three-way g agreement", 30.0):
        rng = np.random.default_rng(1003)
        for m in (lozenge_124, triangular_eq, heatpump):
            for _ in range(50):
                xi = random_tilt_in_D0(rng, m)
                res = g_value(m, xi)
                res.cross_check()
                assert abs(res.g_integral - res.g_spectral) < 1e-6
                assert abs(res.g_spectral - res.g) < 1e-6


def test_criterion_04_zeros_and_symmetry(lozenge_124, heatpump):
    with criterion(4, "zeros and symmetry of g", 10.0):
        rng = np.random.default_rng(1004)
        for m in (lozenge_124, heatpump):
            for xi in (np.zeros(m.d), m.theta_inv):
                assert abs(g_value(m, xi).g) < 1e-8
            for _ in range(25):
                xi = random_tilt_in_D0(rng, m)
                g0 = g_value(m, xi).g
                g_mirror = g_value(m, m.theta_inv - xi).g
                g_shift = g_value(m, xi + 0.4 * np.ones(m.d)).g
                assert abs(g0 - g_mirror) < 1e-8
                assert abs(g0 - g_shift) < 1e-8


def test_criterion_05_determinant_identity(lozenge_124, triangular_eq,
                                           heatpump):
    with criterion(5, "determinant identity", 5.0):
        rng = np.random.default_rng(1005)
        cases = [(lozenge_124, 34), (triangular_eq, 33), (heatpump, 33)]
        for m, count in cases:
            eye = np.eye(m.dim)
            for _ in range(count):
                xi = rng.normal(size=m.d) * 0.5
                w = rng.normal() * 3.0
                K = hamiltonian(m, xi).K
                lhs = np.linalg.det(K - 1j * w * np.eye(2 * m.dim))
                rhs = (abs(np.linalg.det(m.A + 1j * w * eye)) ** 2
                       * np.linalg.det(np.eye(m.d) - E_matrix(m, xi, [w])[0]))
                assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


def test_criterion_06_riccati_anchors(lozenge_124, heatpump):
    with criterion(6, "Riccati anchors", 10.0):
        rng = np.random.default_rng(1006)
        for m in (lozenge_124, heatpump):
            sol0 = riccati_pair(m, np.zeros(m.d))[0]
            assert np.linalg.norm(sol0.X, 2) < 1e-12
            assert sol0.residual < 1e-9
            sol1 = riccati_pair(m, m.theta_inv)[0]
            M = steady_covariance(m).M
            anchor = m.theta_conj(np.linalg.inv(M))
            assert np.linalg.norm(sol1.X - anchor, 2) < 1e-8
            assert sol1.residual < 1e-9 * (1 + np.linalg.norm(sol1.X, 2) ** 2)
            for _ in range(25):
                xi = random_tilt_in_D0(rng, m)
                sol = riccati_pair(m, xi)[0]
                dual = riccati_pair(m, m.theta_inv - xi)[0]
                Y = sol.X + m.theta_conj(dual.X)
                assert sol.residual < 1e-9 * (1 + np.linalg.norm(sol.X, 2) ** 2)
                assert np.linalg.eigvals(sol.D).real.max() < 0.0
                assert np.linalg.eigvalsh(Y)[0] > 0.0


def test_criterion_07_gradient_hessian_fd(lozenge_124, heatpump,
                                          lozenge_124_geometry,
                                          heatpump_geometry):
    with criterion(7, "gradient and Hessian vs finite differences", 60.0):
        rng = np.random.default_rng(1007)
        for m, geom in ((lozenge_124, lozenge_124_geometry),
                        (heatpump, heatpump_geometry)):
            for _ in range(10):
                xi = 0.15 + 0.7 * rng.uniform(size=m.d) * m.theta_inv
                grad = TiltState(m, xi).grad
                step = 1e-5
                fd = np.empty(m.d)
                for j in range(m.d):
                    e = np.eye(m.d)[j]
                    gp = g_value(m, xi + step * e).g
                    gm = g_value(m, xi - step * e).g
                    fd[j] = (gp - gm) / (2 * step)
                assert (np.linalg.norm(fd - grad)
                        < 1e-5 * max(1e-3, np.linalg.norm(grad)))
                # curvature directions transverse to the lineality space,
                # where the second derivative is bounded away from zero
                eta = geom.project(rng.normal(size=m.d))
                eta /= np.linalg.norm(eta)
                quad = g_hessian_quadform(m, xi, eta)
                h2 = 5e-4
                g0 = g_value(m, xi).g
                gp = g_value(m, xi + h2 * eta).g
                gm = g_value(m, xi - h2 * eta).g
                fd2 = (gp - 2 * g0 + gm) / h2 ** 2
                assert quad > 0.0
                assert abs(fd2 - quad) < 1e-4 * abs(quad)


def test_criterion_08_triangular_disk(triangular_eq, triangular_eq_geometry):
    with criterion(8, "triangular equilibrium section radius", 60.0):
        geom = triangular_eq_geometry
        target = np.sqrt(3.0) / 2.0
        for angle in 2.0 * np.pi * np.arange(64) / 64:
            u = geom.from_frame(np.array([np.cos(angle), np.sin(angle)]))
            r = section_boundary(triangular_eq, geom, u)
            assert abs(r - target) < 1e-3


def test_criterion_09_condition_R_verdicts(lozenge_eq, lozenge_1264,
                                           triangular_eq, heatpump,
                                           lozenge_1264_geometry,
                                           heatpump_geometry,
                                           triangular_eq_geometry):
    cases = [
        (lozenge_eq, lineality_space(lozenge_eq), True, "lozenge eq"),
        (lozenge_1264, lozenge_1264_geometry, False, "lozenge 1:2:64"),
        (triangular_eq, triangular_eq_geometry, True, "triangular eq"),
        (heatpump, heatpump_geometry, True, "heat pump"),
    ]
    for model, geometry, expected, label in cases:
        with criterion(9, f"Condition R verdict ({label})", 120.0):
            scan = condition_R_scan(model, geometry, 64)
            assert scan.condition_R == expected, label


def test_criterion_10_fluctuation_relation(heatpump, heatpump_geometry,
                                           lozenge_1264,
                                           lozenge_1264_geometry):
    with criterion(10, "fluctuation relation and anomaly", 300.0):
        # universal relation on the heat pump over a 100-point flux grid
        m, geom = heatpump, heatpump_geometry
        mean = entropy_production(m).mean_flux
        center = geom.to_frame(mean)
        half = 3.0 * np.linalg.norm(mean)
        axes = [np.linspace(-half, half, n) for n in (5, 5, 4)]
        mesh = np.meshgrid(*axes, indexing="ij")
        coords = np.column_stack([g.ravel() for g in mesh])
        assert len(coords) == 100
        worst = 0.0
        for c in coords:
            phi = geom.from_frame(center + c)
            plus = rate_function(m, geom, phi, with_anomaly=False)
            minus = rate_function(m, geom, -phi, with_anomaly=False)
            defect = minus.I_value - plus.I_value + float(m.theta_inv @ phi)
            worst = max(worst, abs(defect))
        assert worst < 1e-6

        # strong lozenge drive: the defect is macroscopic somewhere
        m2, geom2 = lozenge_1264, lozenge_1264_geometry
        mean2 = geom2.to_frame(entropy_production(m2).mean_flux)
        defects = []
        for dx in (-6.0, 0.0, 6.0):
            for dy in (-6.0, 0.0, 6.0):
                phi = geom2.from_frame(mean2 + np.array([dx, dy]))
                plus = rate_function(m2, geom2, phi, with_anomaly=False)
                minus = rate_function(m2, geom2, -phi, with_anomaly=False)
                defects.append(minus.I_value - plus.I_value
                               + float(m2.theta_inv @ phi))
        assert max(abs(d) for d in defects) > 1e-3

        # ruled-surface law at five probes on the closed-gap arc
        for angle in (0.55, 0.7, 0.85, 1.0, 1.1):
            xi_b, eta = gap_arc_probe(m2, geom2, angle)
            phi0 = TiltState(m2, xi_b).grad
            g_b = g_value(m2, xi_b).g
            for lam in (0.1, 0.5, 1.0):
                res = rate_function(m2, geom2, phi0 + lam * eta,
                                    with_anomaly=False)
                predicted = float(xi_b @ (phi0 + lam * eta)) - g_b
                assert abs(res.I_value - predicted) < 1e-5 * (1 + abs(predicted))


def test_criterion_11_entropy_production(lozenge_eq, triangular_eq, heatpump):
    with criterion(11, "entropy production", 10.0):
        for m in (lozenge_eq, triangular_eq):
            assert abs(entropy_production(m).ep) < 1e-9
        ep = entropy_production(heatpump)
        assert ep.ep > 0.0
        flux = ep.mean_flux
        # left pair: hot to cold; right pair: cold to hot (the pump)
        assert flux[0] > 0.0 and flux[1] < 0.0
        assert flux[2] < 0.0 and flux[3] > 0.0


def test_criterion_12_monte_carlo(lozenge_124, lozenge_124_geometry):
    with criterion(12, "Monte Carlo consistency", 600.0):
        m, geom = lozenge_124, lozenge_124_geometry
        seed = 20240801

        # five small tilts inside the estimator validity window
        ones = np.ones(3) / np.sqrt(3.0)
        f1, f2 = geom.frame
        mix = (f1 + f2) / np.linalg.norm(f1 + f2)
        tilts = tuple(0.03 * u for u in (f1, -f1, f2, ones, mix))

        # empirical_cgf calibrates the five intervals family-wise at 95%
        # (Bonferroni: the 0.5 and 99.5 percentiles per tilt)
        horizon, step = 200.0, 0.02
        config = SimConfig(seed=seed, n_traj=10_000, horizon=horizon,
                           step=step, tilts=tilts, conserved_traj=2000)
        stats = empirical_cgf(m, config, L_basis=geom.L_basis)

        analytic = entropy_production(m).mean_flux
        assert np.all(np.abs(stats.mean_flux - analytic)
                      <= 3.0 * stats.mean_flux_se)

        # each interval covers the exact value of the simulated finite-T
        # path, which tends to the limit g at rate 1/T
        n_steps = int(round(horizon / step))
        g_2T_all = finite_horizon_cgf(
            m, np.array([est.tilt for est in stats.cgf]), 2 * n_steps, step)
        for est, g_2T in zip(stats.cgf, g_2T_all, strict=True):
            assert est.reliable
            assert est.ci_low <= est.finite_horizon <= est.ci_high
            limit = g_value(m, est.tilt).g
            prefactor_T = horizon * (est.finite_horizon - limit)
            prefactor_2T = 2.0 * horizon * (g_2T - limit)
            assert abs(prefactor_T - prefactor_2T) <= 0.05 * abs(prefactor_2T)

        for check in stats.conserved:
            assert 0.8 <= check.ratio <= 1.25

        ratio, d_h, d_half = cross_accumulator_ratio(
            m, seed=seed, n_traj=100, n_steps=2000, h=0.02)
        assert 0.4 <= ratio <= 0.6


def test_criterion_13_determinism(tmp_path):
    with criterion(13, "determinism", 60.0):
        from fluxnet.cli import main
        configs = __import__("pathlib").Path(__file__).resolve().parent.parent \
            / "src" / "fluxnet" / "configs"
        spec = str(configs / "lozenge_1_2_4.json")

        def data_lines(path):
            return [ln for ln in path.read_text().splitlines()
                    if not ln.startswith("#")]

        sims = []
        for tag in ("a", "b"):
            out = tmp_path / f"sim_{tag}.csv"
            code = main(["simulate", spec, "--seed", "5", "--traj", "300",
                         "--T", "20", "--h", "0.05",
                         "--tilts", "0.02,0.0,-0.02", "--out", str(out)])
            assert code == 0
            sims.append(data_lines(out))
        assert sims[0] == sims[1]

        scans = []
        for tag in ("a", "b"):
            out = tmp_path / f"scan_{tag}.csv"
            code = main(["gap-scan", spec, "--dirs", "8", "--out", str(out)])
            assert code == 0
            scans.append(data_lines(out))
        assert scans[0] == scans[1]
