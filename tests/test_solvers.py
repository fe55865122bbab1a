"""Lyapunov, Hamiltonian-matrix, Riccati and quadrature kernels."""

from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxnet import (
    NumericalError,
    QuadratureError,
    RiccatiError,
    StabilityError,
    assemble_model,
    canonical_lift,
    commuting_lift,
    hamiltonian,
    integrate_frequency,
    load_spec,
    matrix_exponential,
    parse_spec,
    riccati_pair,
    solve_lyapunov,
    steady_covariance,
)
from fluxnet import cgf, cli, solvers
from fluxnet.cgf import E_matrix, TiltState, _g_integral, _level_set, in_domain, lineality_space
from fluxnet.solvers import (
    AXIS_RTOL,
    MAX_PANELS,
    RiccatiSolution,
    _gk21_panels,
    tilted_blocks,
)

from conftest import lozenge_doc, random_network_doc, random_tilt_in_D0

CONFIGS = Path(__file__).resolve().parent.parent / "src" / "fluxnet" / "configs"
CONFIG_NAMES = sorted(path.stem for path in CONFIGS.glob("*.json"))


def _multiset_close(a, b, tol):
    a = np.sort_complex(np.asarray(a))
    b = np.sort_complex(np.asarray(b))
    return a.shape == b.shape and np.abs(a - b).max() < tol


class TestLyapunov:
    def test_equilibrium_lozenge_identity(self, lozenge_eq):
        M = steady_covariance(lozenge_eq).M
        assert np.linalg.norm(M - np.eye(8), 2) < 1e-10

    def test_single_oscillator(self, single_oscillator):
        M = steady_covariance(single_oscillator).M
        assert np.linalg.norm(M - np.eye(2), 2) < 1e-12

    def test_random_network_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            m = assemble_model(parse_spec(random_network_doc(rng, n_max=3)))
            ss = steady_covariance(m)
            assert ss.residual < 1e-10 * max(1.0, np.linalg.norm(m.B, 2))
            assert np.linalg.eigvalsh(ss.M)[0] > 0.0

    def test_unstable_drift_rejected(self):
        A = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(StabilityError, match="not stable"):
            solve_lyapunov(A, np.eye(2))


class TestHamiltonian:
    def test_untilted_spectrum_splits(self, lozenge_124):
        m = lozenge_124
        ham = hamiltonian(m, np.zeros(3))
        expected = np.concatenate([m.spectrum, -m.spectrum])
        assert _multiset_close(ham.eigenvalues, expected, 1e-8)

    def test_spectrum_symmetric_both_axes(self, heatpump):
        rng = np.random.default_rng(2)
        xi = rng.normal(size=4) * 0.2
        eigs = hamiltonian(heatpump, xi).eigenvalues
        assert _multiset_close(eigs, np.conj(eigs), 1e-8)
        assert _multiset_close(eigs, -np.conj(eigs), 1e-7)

    def test_mirror_tilt_same_spectrum(self, lozenge_124):
        m = lozenge_124
        rng = np.random.default_rng(4)
        xi = random_tilt_in_D0(rng, m)
        a = hamiltonian(m, xi).eigenvalues
        b = hamiltonian(m, m.theta_inv - xi).eigenvalues
        assert _multiset_close(a, b, 1e-7)

    def test_determinant_identity(self, lozenge_124, heatpump):
        rng = np.random.default_rng(6)
        for m in (lozenge_124, heatpump):
            eye = np.eye(m.dim)
            for _ in range(10):
                xi = rng.normal(size=m.d) * 0.5
                w = rng.normal() * 3.0
                K = hamiltonian(m, xi).K
                lhs = np.linalg.det(K - 1j * w * np.eye(2 * m.dim))
                rhs = (abs(np.linalg.det(m.A + 1j * w * eye)) ** 2
                       * np.linalg.det(np.eye(m.d) - E_matrix(m, xi, [w])[0]))
                assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


class TestRiccati:
    def test_zero_tilt(self, lozenge_124):
        sol = riccati_pair(lozenge_124, np.zeros(3))[0]
        assert np.linalg.norm(sol.X, 2) < 1e-12
        assert sol.residual < 1e-9

    def test_inverse_temperature_anchor(self, lozenge_124, heatpump):
        for m in (lozenge_124, heatpump):
            sol = riccati_pair(m, m.theta_inv)[0]
            M = steady_covariance(m).M
            anchor = m.theta_conj(np.linalg.inv(M))
            assert np.linalg.norm(sol.X - anchor, 2) < 1e-8

    def test_random_interior_solutions(self, lozenge_124):
        m = lozenge_124
        rng = np.random.default_rng(7)
        for _ in range(10):
            xi = random_tilt_in_D0(rng, m)
            sol = riccati_pair(m, xi)[0]
            assert sol.residual < 1e-9 * (1.0 + np.linalg.norm(sol.X, 2) ** 2)
            assert np.linalg.eigvals(sol.D).real.max() < 0.0
            assert np.linalg.eigvalsh(sol.X)[0] > 0.0

    def test_closed_loop_carries_stable_half(self, lozenge_124):
        m = lozenge_124
        xi = np.array([0.3, 0.1, 0.05])
        sol = riccati_pair(m, xi)[0]
        eigs_D = np.linalg.eigvals(sol.D)
        K_eigs = hamiltonian(m, xi).eigenvalues
        stable = K_eigs[K_eigs.real < 0.0]
        assert _multiset_close(eigs_D, stable, 1e-7)

    def test_maximality_against_other_subspaces(self, lozenge_124):
        # swap conjugation-closed eigenvalue groups across the axis: every
        # alternative graph solution must stay below the maximal one
        m = lozenge_124
        rng = np.random.default_rng(8)
        xi = random_tilt_in_D0(rng, m)
        sol = riccati_pair(m, xi)[0]
        K = hamiltonian(m, xi).K
        eigs, vecs = np.linalg.eig(K)
        anti = [k for k in range(len(eigs)) if eigs[k].real > 0.0]
        groups = []
        used = set()
        for k in anti:
            if k in used:
                continue
            if abs(eigs[k].imag) < 1e-9:
                groups.append([k])
                used.add(k)
            else:
                partner = min((j for j in anti if j not in used and j != k),
                              key=lambda j: abs(eigs[j] - np.conj(eigs[k])))
                groups.append([k, partner])
                used.update((k, partner))
        checked = 0
        for group in groups:
            select = list(anti)
            for k in group:
                mirror = int(np.argmin(np.abs(eigs + np.conj(eigs[k]))))
                select[select.index(k)] = mirror
            V = vecs[:, select]
            V1, V2 = V[:m.dim], V[m.dim:]
            if np.linalg.svd(V1, compute_uv=False)[-1] < 1e-8:
                continue
            X_alt = np.linalg.solve(V1.T, V2.T).T
            if np.abs(X_alt.imag).max() > 1e-7:
                continue
            X_alt = 0.5 * (X_alt.real + X_alt.real.T)
            A_xi, C_xi = tilted_blocks(m, xi)
            res = X_alt @ m.B @ X_alt - X_alt @ A_xi - A_xi.T @ X_alt - C_xi
            assert np.linalg.norm(res, 2) < 1e-7
            assert np.linalg.eigvalsh(X_alt - sol.X)[-1] < 1e-8
            checked += 1
        assert checked >= 2

    def test_minimal_solution_identity(self, lozenge_124):
        m = lozenge_124
        rng = np.random.default_rng(9)
        for _ in range(5):
            xi = random_tilt_in_D0(rng, m)
            X_min = -m.theta_conj(TiltState(m, xi).dual.X)
            A_xi, C_xi = tilted_blocks(m, xi)
            res = X_min @ m.B @ X_min - X_min @ A_xi - A_xi.T @ X_min - C_xi
            assert np.linalg.norm(res, 2) < 1e-9
            sol = riccati_pair(m, xi)[0]
            assert np.linalg.eigvalsh(sol.X - X_min)[0] > 0.0

    def test_translation_by_conserved_direction(self, lozenge_124):
        m = lozenge_124
        rng = np.random.default_rng(10)
        xi = random_tilt_in_D0(rng, m)
        lam = 0.37
        eta_tilde = lam * commuting_lift(m, np.ones(3))
        a = riccati_pair(m, xi + lam * np.ones(3))[0]
        b = riccati_pair(m, xi)[0]
        assert np.linalg.norm(a.X - (b.X + eta_tilde), 2) < 1e-8

    def test_concavity(self, lozenge_124):
        m = lozenge_124
        rng = np.random.default_rng(12)
        for _ in range(5):
            x1 = random_tilt_in_D0(rng, m)
            x2 = random_tilt_in_D0(rng, m)
            t = rng.uniform(0.2, 0.8)
            X_mix = riccati_pair(m, t * x1 + (1 - t) * x2)[0].X
            X_lin = t * riccati_pair(m, x1)[0].X + (1 - t) * riccati_pair(m, x2)[0].X
            assert np.linalg.eigvalsh(X_mix - X_lin)[0] > -1e-8

    def test_rescaling_covariance(self):
        # heating every reservoir by a factor and cooling the tilt by the
        # same factor leaves the tilted drift alone and divides the solution
        # by the factor (it carries inverse-temperature units)
        lam = 2.5
        doc = lozenge_doc([1, 2, 4])
        doc["temperature_ratios"] = False
        m = assemble_model(parse_spec(doc))
        doc_scaled = lozenge_doc([lam, 2 * lam, 4 * lam])
        doc_scaled["temperature_ratios"] = False
        m_scaled = assemble_model(parse_spec(doc_scaled))
        rng = np.random.default_rng(13)
        xi = random_tilt_in_D0(rng, m)
        X = riccati_pair(m, xi)[0].X
        X_scaled = riccati_pair(m_scaled, xi / lam)[0].X
        assert np.linalg.norm(X_scaled - X / lam, 2) < 1e-8 * (1 + np.linalg.norm(X))

    def test_boundary_tilt_rejected_without_direction(self, lozenge_124):
        m = lozenge_124
        # far outside the domain the doubled matrix has axis eigenvalues
        with pytest.raises(RiccatiError):
            riccati_pair(m, 50.0 * np.ones(3) * m.theta_inv)[0]


def _config(name):
    return assemble_model(load_spec(str(CONFIGS / f"{name}.json")))


def _radius_tilts(model, rng, count):
    """Seeded unit section directions with their exact domain radii."""
    geom = lineality_space(model)
    for _ in range(count):
        u = geom.from_frame(rng.normal(size=geom.section_dim))
        u /= np.linalg.norm(u)
        yield u, 1.0 / _level_set(model, u)


class TestSchurKernels:
    """The Lyapunov solves of a Riccati solution share one Schur form of
    its closed loop; they must agree with scipy's solver, which factors
    afresh on every call."""

    @pytest.mark.parametrize("name", [
        "lozenge_1_2_4", "heatpump_40_3.6_7_6.8", "triangular_1_2_64"])
    def test_sensitivity_and_adjoint_match_scipy(self, name):
        m = _config(name)
        rng = np.random.default_rng(11)
        for u, radius in _radius_tilts(m, rng, 3):
            for t in (0.5, 0.999):
                for sol in TiltState(m, t * radius * u)._pair:
                    A_dot = rng.normal(size=(3, m.dim, m.dim))
                    C_dot = rng.normal(size=(3, m.dim, m.dim))
                    C_dot += np.swapaxes(C_dot, 1, 2)
                    for a, c, dX in zip(A_dot, C_dot, sol.sensitivity(A_dot, C_dot)):
                        XA = sol.X @ a
                        ref = scipy.linalg.solve_continuous_lyapunov(sol.D.T, -(XA + XA.T + c))
                        assert np.linalg.norm(dX - ref) <= 1e-12 * np.linalg.norm(ref)
                    V = rng.normal(size=(m.dim, m.dim))
                    ref = scipy.linalg.solve_continuous_lyapunov(sol.D, V)
                    assert np.linalg.norm(sol.adjoint(V) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_singular_closed_loop_raises(self, lozenge_124):
        # A + A* = -Q theta^{-1} Q*, so at theta^{-1} / 2 the tilted drift is
        # skew: with X = 0 the closed loop has its spectrum on the axis
        m = lozenge_124
        sol = RiccatiSolution(model=m, xi=0.5 * m.theta_inv, X=np.zeros((m.dim, m.dim)))
        with pytest.raises(NumericalError, match="singular"):
            sol.sensitivity(np.eye(m.dim), np.eye(m.dim))
        with pytest.raises(NumericalError, match="singular"):
            sol.adjoint(np.eye(m.dim))

    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_axis_mask_is_the_two_norm_test(self, name):
        # at the exact domain radius and just beyond it, where the cheap
        # bounds of hamiltonian decide
        m = _config(name)
        for u, radius in _radius_tilts(m, np.random.default_rng(12), 2):
            for t in (1.0, 1.0 + 1e-6):
                ham = hamiltonian(m, t * radius * u)
                expected = np.abs(ham.eigenvalues.real) <= AXIS_RTOL * np.linalg.norm(ham.K, 2)
                np.testing.assert_array_equal(ham.on_axis, expected)
            assert ham.on_axis.any()

    def test_one_schur_per_matrix(self, monkeypatch, capsys):
        """``rate --grid 3`` (interior on lozenge 1:2:4, with boundary-regime
        rows on lozenge 1:2:64, whose solutions also take adjoint solves)
        and a ``cgf`` scan factor each matrix once: no Lyapunov solve
        outside the steady covariance, one Schur form per Riccati solution
        whose Lyapunov solves are read and one of the drift per model."""
        schur_args, outside, solutions, models = [], [], [], []
        steady = [False]

        def counted_schur(a, *args, **kwargs):
            schur_args.append(a)
            return schur(a, *args, **kwargs)

        def counted_lyapunov(*args, **kwargs):
            outside.append(not steady[0])
            return lyapunov(*args, **kwargs)

        def flagged_steady(*args):
            steady[0] = True
            try:
                return solve_lyapunov(*args)
            finally:
                steady[0] = False

        def recorded_lyapunov(sol, *args):
            solutions.append(sol)
            return riccati_lyapunov(sol, *args)

        def recorded_drift(model):
            models.append(model)
            return drift_schur(model)

        schur, lyapunov = scipy.linalg.schur, scipy.linalg.solve_continuous_lyapunov
        solve_lyapunov, drift_schur = solvers.solve_lyapunov, solvers._drift_schur
        riccati_lyapunov = RiccatiSolution._lyapunov
        monkeypatch.setattr(scipy.linalg, "schur", counted_schur)
        monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov", counted_lyapunov)
        monkeypatch.setattr(solvers, "solve_lyapunov", flagged_steady)
        monkeypatch.setattr(solvers, "_drift_schur", recorded_drift)
        monkeypatch.setattr(RiccatiSolution, "_lyapunov", recorded_lyapunov)
        spec = str(CONFIGS / "lozenge_1_2_4.json")
        assert cli.main(["rate", spec, "--grid", "3"]) == 0
        assert cli.main(["rate", str(CONFIGS / "lozenge_1_2_64.json"), "--grid", "3"]) == 0
        assert cli.main(["cgf", spec, "--dirs", "4", "--radii", "3"]) == 0
        capsys.readouterr()

        assert outside and not any(outside)
        drifts = {id(model.A) for model in models}
        closed_loops = {id(sol.D) for sol in solutions}
        assert drifts and len(models) > 10
        assert len(solutions) > len(closed_loops) > 10
        factored = [id(a) for a in schur_args]
        assert sorted(factored) == sorted(drifts | closed_loops)


class TestMatrixExponential:
    def test_zero_matrix(self):
        np.testing.assert_allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_zero_time(self, lozenge_124):
        np.testing.assert_allclose(matrix_exponential(lozenge_124.A, 0.0),
                                   np.eye(8))

    def test_against_taylor_series(self, single_oscillator):
        A, t = single_oscillator.A, 0.1
        series = np.zeros((2, 2))
        term = np.eye(2)
        for k in range(1, 40):
            series += term
            term = term @ (A * t) / k
        assert np.linalg.norm(matrix_exponential(A, t) - series, 2) < 1e-12

    @settings(max_examples=15, deadline=None)
    @given(st.floats(-2.0, 2.0))
    def test_group_property(self, single_oscillator, t):
        A = single_oscillator.A
        left = matrix_exponential(A, t) @ matrix_exponential(A, 0.5)
        right = matrix_exponential(A, t + 0.5)
        assert np.linalg.norm(left - right, 2) < 1e-12


class TestFrequencyQuadrature:
    def test_lorentzian(self):
        value, err = integrate_frequency(lambda w: 1.0 / (1.0 + w * w), scale=1.0)
        assert abs(value - np.pi) < 1e-10
        assert err < 1e-8

    def test_zero_function(self):
        value, _ = integrate_frequency(lambda w: np.zeros_like(w), scale=2.0)
        assert value == 0.0

    def test_zero_tilt_log_determinant(self, lozenge_124):
        m = lozenge_124

        def f(w):
            lam = np.linalg.eigvalsh(np.eye(3) - E_matrix(m, np.zeros(3), w))
            return -np.log(lam).sum(axis=1)

        value, _ = integrate_frequency(f, scale=m.omega_scale)
        assert abs(value) < 1e-9

    def test_scale_must_be_positive(self):
        with pytest.raises(QuadratureError):
            integrate_frequency(lambda w: np.zeros_like(w), scale=0.0)

    def test_rule_exact_for_polynomials(self):
        # on the panel u in [-1, 1], f(s tan u) s / cos(u)^2 = u^k; the
        # Kronrod rule is exact to degree 31, the embedded Gauss rule to 19
        s = 1.7
        for k in range(32):
            def f(w):
                u = np.arctan(w / s)
                return u ** k * np.cos(u) ** 2 / s

            value, error = _gk21_panels(f, s, np.zeros(1), np.ones(1))
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(value[0] - exact) < 1e-14, k
            if k <= 19:
                assert error[0] < 1e-13, k

    def test_sharp_peak_raises_at_panel_cap(self):
        # at omega = 0.3 the nodes are rounded by about 1e-17, too coarse to
        # resolve a Lorentzian of width 1e-9 to the tolerance: the
        # quadrature refines up to the cap and raises
        width, center = 1e-9, 0.3

        def f(w):
            return width / ((w - center) ** 2 + width * width)

        with pytest.raises(QuadratureError, match=f"{MAX_PANELS} panels"):
            integrate_frequency(f, scale=1.0)

    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_integral_route_matches_spectral(self, name):
        m = assemble_model(load_spec(str(CONFIGS / f"{name}.json")))
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(4):
            xi = random_tilt_in_D0(rng, m)
            if not in_domain(m, xi):
                continue
            g = TiltState(m, xi).g_spectral
            assert abs(_g_integral(m, xi) - g) < 1e-10 * (1.0 + abs(g))
            checked += 1
        assert checked > 0

    def test_few_batched_calls(self, lozenge_124, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return E_matrix(*args)

        monkeypatch.setattr(cgf, "E_matrix", counted)
        _g_integral(lozenge_124, np.array([0.1, 0.2, 0.15]))
        assert 0 < len(calls) <= 12
