"""Monte Carlo machinery: exact stepping, flux accumulators, estimators."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fluxnet import (
    ExactOUStep,
    NumericalError,
    SimConfig,
    SpecificationError,
    accumulate_flux,
    cross_accumulator_ratio,
    empirical_cgf,
    entropy_production,
    finite_horizon_cgf,
    lineality_space,
    matrix_exponential,
    propagate,
    sample_stationary,
    steady_covariance,
)
import fluxnet.simulate
from fluxnet.network import flux_density_stack
from fluxnet.simulate import BLOCK, SLICE, _run_batch, trajectory_rng


class TestStationarySampling:
    def test_equilibrium_covariance(self, lozenge_eq):
        rng = np.random.default_rng(0)
        xs = sample_stationary(lozenge_eq, rng, size=100_000)
        emp = np.cov(xs.T)
        # entry-wise three standard errors (var of a covariance entry estimate)
        se = np.sqrt((1.0 + np.eye(8)) / len(xs))
        assert np.all(np.abs(emp - np.eye(8)) < 3.5 * se)

    def test_zero_mean(self, lozenge_eq):
        rng = np.random.default_rng(1)
        xs = sample_stationary(lozenge_eq, rng, size=100_000)
        se = 1.0 / np.sqrt(len(xs))
        assert np.all(np.abs(xs.mean(axis=0)) < 3.5 * se)

    def test_nonequilibrium_matches_solved_covariance(self, lozenge_124):
        rng = np.random.default_rng(2)
        M = steady_covariance(lozenge_124).M
        xs = sample_stationary(lozenge_124, rng, size=100_000)
        emp = np.cov(xs.T)
        diag = np.diag(M)
        se = np.sqrt((np.outer(diag, diag) + M ** 2) / len(xs))
        assert np.all(np.abs(emp - M) < 4.0 * se)


class TestPropagation:
    def test_deterministic_part_is_exponential(self, lozenge_124):
        stepper = ExactOUStep.build(lozenge_124, 0.3)
        x = np.arange(8.0)
        eta, dw = stepper.draw(np.zeros(8 + 3))
        assert np.allclose(eta, 0.0) and np.allclose(dw, 0.0)
        expected = matrix_exponential(lozenge_124.A, 0.3) @ x
        np.testing.assert_allclose(x @ stepper.F.T, expected, atol=1e-12)

    def test_one_step_covariance_quadrature_oracle(self, single_oscillator):
        # M_h must equal the integral of e^{sA} B e^{sA*} over one step
        m, h = single_oscillator, 0.01
        stepper = ExactOUStep.build(m, h)
        Mh = stepper.L[:2] @ stepper.L[:2].T
        nodes, weights = np.polynomial.legendre.leggauss(40)
        s = 0.5 * h * (nodes + 1.0)
        oracle = np.zeros((2, 2))
        for sk, wk in zip(s, weights):
            E = matrix_exponential(m.A, sk)
            oracle += 0.5 * h * wk * E @ m.B @ E.T
        assert np.linalg.norm(Mh - oracle, 2) < 1e-8

    def test_increment_covariance(self, lozenge_124):
        # the joint factor must reproduce Var(dw) = h I and the cross term
        m, h = lozenge_124, 0.05
        stepper = ExactOUStep.build(m, h)
        C = stepper.L @ stepper.L.T
        np.testing.assert_allclose(C[8:, 8:], h * np.eye(3), atol=1e-12)
        S = np.linalg.solve(m.A, stepper.F - np.eye(8)) @ m.Q
        np.testing.assert_allclose(C[:8, 8:], S, atol=1e-12)

    def test_stationarity_preserved(self, lozenge_124):
        m = lozenge_124
        M = steady_covariance(m).M
        rng = np.random.default_rng(3)
        stepper = ExactOUStep.build(m, 0.1)
        x = sample_stationary(m, rng, size=20_000)
        for _ in range(50):
            x = propagate(m, x, 0.1, rng, stepper=stepper)
        emp = np.cov(x.T)
        diag = np.diag(M)
        se = np.sqrt((np.outer(diag, diag) + M ** 2) / len(x))
        assert np.all(np.abs(emp - M) < 4.5 * se)


class TestFluxAccumulators:
    def _trajectory(self, model, rng, n_steps, h):
        stepper = ExactOUStep.build(model, h)
        x = sample_stationary(model, rng, size=64)
        xs = np.empty((64, n_steps + 1, model.dim))
        dws = np.empty((64, n_steps, model.d))
        xs[:, 0] = x
        for k in range(n_steps):
            z = rng.standard_normal((64, model.dim + model.d))
            eta, dw = stepper.draw(z)
            x = x @ stepper.F.T + eta
            xs[:, k + 1] = x
            dws[:, k] = dw
        return xs, dws

    def test_energy_bookkeeping(self, lozenge_124):
        # total flux through the commuting lift of the all-ones tilt is a
        # pure boundary term: exactly the internal energy difference
        m = lozenge_124
        rng = np.random.default_rng(4)
        xs, _ = self._trajectory(m, rng, 50, 0.02)
        from fluxnet import commuting_lift
        from fluxnet.simulate import accumulate_tilt_flux
        total = accumulate_tilt_flux(m, xs, 0.02, np.ones(3),
                                     lift=commuting_lift(m, np.ones(3)))
        energy_diff = m.energy(xs[:, -1]) - m.energy(xs[:, 0])
        np.testing.assert_allclose(total, energy_diff, atol=1e-10)

    def test_conserved_direction_accumulators_agree(self, lozenge_124):
        # per-reservoir accumulation of the conserved component differs from
        # the exact boundary term only by the trapezoid error
        m = lozenge_124
        rng = np.random.default_rng(5)
        h = 0.02
        xs, _ = self._trajectory(m, rng, 40, h)
        phi, _ = accumulate_flux(m, xs, h)
        from fluxnet import commuting_lift
        from fluxnet.simulate import accumulate_tilt_flux
        exact = accumulate_tilt_flux(m, xs, h, np.ones(3),
                                     lift=commuting_lift(m, np.ones(3)))
        diff = np.abs(phi.sum(axis=-1) - exact)
        assert diff.mean() < 0.05 and diff.max() < 0.25

    def test_shared_increment_accumulator(self, lozenge_124):
        m = lozenge_124
        rng = np.random.default_rng(6)
        xs, dws = self._trajectory(m, rng, 200, 0.02)
        phi, phi_em = accumulate_flux(m, xs, 0.02, dw=dws)
        assert phi_em is not None and phi_em.shape == phi.shape
        # same path, same increments: the two estimates track each other
        assert np.abs(phi - phi_em).mean() < 1.0

    def test_spacing_mismatch_rejected(self, lozenge_124):
        m = lozenge_124
        rng = np.random.default_rng(7)
        xs, dws = self._trajectory(m, rng, 30, 0.02)
        with pytest.raises(SpecificationError, match="increment count"):
            accumulate_flux(m, xs, 0.02, dw=dws[:, :-3])


class TestStepHalving:
    def test_fixed_step_count_ratio(self, lozenge_124):
        ratio, d_h, d_half = cross_accumulator_ratio(
            lozenge_124, seed=11, n_traj=100, n_steps=1000, h=0.02)
        assert 0.4 <= ratio <= 0.6
        assert d_half < d_h


def _joint_gaussian_form(model, tilt, n_steps, h):
    """Covariance of the stacked path (x_0..x_N) and the quadratic form Q
    with tilt . Phi = 1/2 X* Q X, built directly from the stationary law."""
    M = steady_covariance(model).M
    F = ExactOUStep.build(model, h, M=M).F
    dim = model.dim
    sigma = np.zeros(((n_steps + 1) * dim,) * 2)
    for j in range(n_steps + 1):
        for k in range(j, n_steps + 1):
            block = np.linalg.matrix_power(F, k - j) @ M
            sigma[k * dim:(k + 1) * dim, j * dim:(j + 1) * dim] = block
            sigma[j * dim:(j + 1) * dim, k * dim:(k + 1) * dim] = block.T
    B = np.zeros((dim, dim))
    B[model.boundary_index, model.boundary_index] = tilt
    S = h * np.einsum("d,dij->ij", tilt, flux_density_stack(model))
    Q = np.zeros_like(sigma)
    for k in range(n_steps + 1):
        block = S if 0 < k < n_steps else 0.5 * S + (B if k == n_steps else -B)
        Q[k * dim:(k + 1) * dim, k * dim:(k + 1) * dim] = block
    return sigma, Q


class TestFiniteHorizonCgf:
    @pytest.mark.parametrize("n_steps", [1, 3, 7])
    @pytest.mark.parametrize("tilt", [[0.3, -0.2, 0.1], [-0.25, 0.2, 0.3]])
    def test_matches_joint_gaussian_determinant(self, lozenge_124, tilt, n_steps):
        # E exp(1/2 X* Q X) = det(I - Sigma Q)^(-1/2) for the stacked path
        m, h, tilt = lozenge_124, 0.1, np.array(tilt)
        sigma, Q = _joint_gaussian_form(m, tilt, n_steps, h)
        sign, logdet = np.linalg.slogdet(np.eye(len(Q)) - sigma @ Q)
        assert sign > 0
        brute = -0.5 * logdet / (n_steps * h)
        assert abs(finite_horizon_cgf(m, tilt, n_steps, h) - brute) < 1e-12

    def test_stack_matches_single_tilts(self, lozenge_124):
        # a stack of tilts runs one recursion and gives each tilt's value
        tilts = np.array([[0.3, -0.2, 0.1], [-0.25, 0.2, 0.3], [0.0, 0.0, 0.0]])
        values = finite_horizon_cgf(lozenge_124, tilts, 200, 0.02)
        assert values.shape == (3,)
        for tilt, value in zip(tilts, values):
            assert value == finite_horizon_cgf(lozenge_124, tilt, 200, 0.02)
        with pytest.raises(NumericalError, match="diverges"):
            finite_horizon_cgf(lozenge_124, np.vstack([tilts, [-3.0, 0.0, 0.0]]),
                               10, 0.02)

    def test_zero_tilt_is_exact_zero(self, lozenge_124):
        assert finite_horizon_cgf(lozenge_124, np.zeros(3), 50, 0.02) == 0.0

    def test_divergent_tilt_raises(self, lozenge_124):
        m, h, n_steps, tilt = lozenge_124, 0.02, 10, np.array([-3.0, 0.0, 0.0])
        # the joint form confirms that the expectation is infinite
        sigma, Q = _joint_gaussian_form(m, tilt, n_steps, h)
        assert np.linalg.eigvals(sigma @ Q).real.max() >= 1.0
        with pytest.raises(NumericalError, match="diverges"):
            finite_horizon_cgf(m, tilt, n_steps, h)

    def test_estimator_reports_divergence_as_infinite(self, lozenge_124):
        config = SimConfig(seed=24, n_traj=50, horizon=0.5, step=0.05,
                           tilts=(np.array([-3.0, 0.0, 0.0]),), bootstrap=20)
        est = empirical_cgf(lozenge_124, config).cgf[0]
        assert est.finite_horizon == np.inf
        assert not est.ci_low <= est.finite_horizon <= est.ci_high


class TestEmpiricalCgf:
    def test_mean_flux_and_conserved_checks(self, lozenge_124):
        m = lozenge_124
        geometry = lineality_space(m)
        config = SimConfig(seed=21, n_traj=1500, horizon=60.0, step=0.02,
                           tilts=(np.array([0.02, -0.01, 0.015]),),
                           conserved_traj=800)
        stats = empirical_cgf(m, config, L_basis=geometry.L_basis)
        analytic = entropy_production(m).mean_flux
        assert np.all(np.abs(stats.mean_flux - analytic)
                      <= 3.0 * stats.mean_flux_se)
        est = stats.cgf[0]
        # the interval covers the exact value of the simulated finite-T path
        assert est.finite_horizon == finite_horizon_cgf(m, est.tilt, 3000, 0.02)
        assert est.ci_low <= est.finite_horizon <= est.ci_high
        assert est.reliable
        check = stats.conserved[0]
        assert 0.7 <= check.ratio <= 1.35

    def test_zero_tilt_estimator_is_exact_zero(self, lozenge_124):
        config = SimConfig(seed=22, n_traj=200, horizon=20.0, step=0.05,
                           tilts=(np.zeros(3),), bootstrap=50)
        stats = empirical_cgf(lozenge_124, config)
        est = stats.cgf[0]
        assert est.value == 0.0
        assert est.ci_low == est.ci_high == 0.0

    def test_equilibrium_mean_flux_vanishes(self, lozenge_eq):
        config = SimConfig(seed=23, n_traj=2000, horizon=50.0, step=0.02)
        stats = empirical_cgf(lozenge_eq, config)
        assert np.all(np.abs(stats.mean_flux) <= 3.0 * stats.mean_flux_se)

    def test_invalid_config_rejected(self, lozenge_124):
        with pytest.raises(SpecificationError):
            SimConfig(seed=1, n_traj=0).resolved(lozenge_124)
        with pytest.raises(SpecificationError):
            SimConfig(seed=1, horizon=0.1, step=0.05).resolved(lozenge_124)
        with pytest.raises(SpecificationError, match="conserved"):
            SimConfig(seed=1, conserved_traj=1).resolved(lozenge_124)

    def test_reproducibility(self, lozenge_124):
        config = SimConfig(seed=99, n_traj=64, horizon=10.0, step=0.05,
                           tilts=(np.array([0.01, 0.0, -0.01]),))
        a = empirical_cgf(lozenge_124, config)
        b = empirical_cgf(lozenge_124, config)
        assert np.array_equal(a.flux, b.flux)
        assert a.cgf[0].value == b.cgf[0].value
        assert a.cgf[0].ci_low == b.cgf[0].ci_low

    def test_streams_are_order_independent(self, lozenge_124):
        m = lozenge_124
        # each trajectory reads only its own stream, so the leading rows of a
        # larger batch reproduce a smaller batch
        batch = _run_batch(m, seed=5, stream=0, n_traj=10, n_steps=50, h=0.05)
        head = _run_batch(m, seed=5, stream=0, n_traj=4, n_steps=50, h=0.05)
        np.testing.assert_array_equal(batch.phi[:4], head.phi)
        # a stream yields the same numbers however its draws are split
        width = m.dim + m.d
        whole = trajectory_rng(5, 3).standard_normal((1 + 2 * BLOCK, width))
        rng = trajectory_rng(5, 3)
        parts = [rng.standard_normal((1, width)),
                 rng.standard_normal((BLOCK, width)),
                 rng.standard_normal((BLOCK, width))]
        np.testing.assert_array_equal(whole, np.concatenate(parts))

    @pytest.mark.parametrize("n_steps", [50, 2 * BLOCK + 1, 2 * BLOCK + 37])
    def test_blocked_engine_matches_full_path(self, lozenge_124, n_steps):
        # the half horizon falls on a block edge for 2 BLOCK + 1 steps and
        # inside a block otherwise; neither step count fills its last block
        m, seed, stream, n_traj, h = lozenge_124, 8, 0, 6, 0.05
        batch = _run_batch(m, seed, stream, n_traj, n_steps, h,
                           record_mid=True, ito=True)
        M = steady_covariance(m).M
        root = np.linalg.cholesky(M)
        stepper = ExactOUStep.build(m, h, M=M)
        xs = np.empty((n_traj, n_steps + 1, m.dim))
        dws = np.empty((n_traj, n_steps, m.d))
        for j in range(n_traj):
            z = trajectory_rng(seed, j, stream).standard_normal(
                (n_steps + 1, m.dim + m.d))
            xs[j, 0] = z[0, :m.dim] @ root.T
            for k in range(n_steps):
                eta, dws[j, k] = stepper.draw(z[k + 1])
                xs[j, k + 1] = xs[j, k] @ stepper.F.T + eta
        phi, phi_em = accumulate_flux(m, xs, h, dw=dws)
        phi_mid, _ = accumulate_flux(m, xs[:, :n_steps // 2 + 1], h)
        for got, want in ((batch.phi, phi), (batch.phi_mid, phi_mid),
                          (batch.phi_em, phi_em)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_memory_does_not_grow_with_horizon(self, lozenge_124):
        def peak(n_steps):
            tracemalloc.start()
            try:
                _run_batch(lozenge_124, seed=3, stream=0, n_traj=64,
                           n_steps=n_steps, h=0.02)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8 * BLOCK) <= 1.5 * peak(2 * BLOCK)


def _force_workers(monkeypatch, n):
    monkeypatch.setattr(fluxnet.simulate, "_workers", lambda: n)


def _peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSlices:
    @pytest.mark.parametrize("ito", [False, True])
    def test_worker_count_does_not_change_rows(self, lozenge_124, monkeypatch,
                                               ito):
        # two full slices and a short one; the half horizon falls in a block
        n_traj = 2 * SLICE + 37
        batches = []
        for n in (1, 2):
            _force_workers(monkeypatch, n)
            batches.append(_run_batch(lozenge_124, seed=4, stream=0,
                                      n_traj=n_traj, n_steps=41, h=0.05,
                                      record_mid=True, ito=ito))
        serial, threaded = batches
        assert (serial.workers, threaded.workers) == (1, 2)
        np.testing.assert_array_equal(serial.phi, threaded.phi)
        np.testing.assert_array_equal(serial.phi_mid, threaded.phi_mid)
        if ito:
            np.testing.assert_array_equal(serial.phi_em, threaded.phi_em)
        else:
            assert serial.phi_em is None and threaded.phi_em is None

    def test_empty_batch_runs_no_slice(self, lozenge_124):
        batch = _run_batch(lozenge_124, seed=1, stream=0, n_traj=0,
                           n_steps=20, h=0.05, record_mid=True, ito=True)
        d = lozenge_124.d
        assert batch.workers == 1
        for rows in (batch.phi, batch.phi_mid, batch.phi_em):
            assert rows.shape == (0, d)

    def test_slices_in_flight_hold_one_chunk(self, lozenge_124, monkeypatch):
        def peak(n_traj):
            return _peak_bytes(lambda: _run_batch(
                lozenge_124, seed=3, stream=0, n_traj=n_traj, n_steps=BLOCK,
                h=0.02))

        # the serial engine these slices replace: one 512-row chunk
        _force_workers(monkeypatch, 1)
        monkeypatch.setattr(fluxnet.simulate, "SLICE", 512)
        chunk = peak(4 * SLICE)
        monkeypatch.setattr(fluxnet.simulate, "SLICE", SLICE)
        _force_workers(monkeypatch, 2)
        threaded = peak(4 * SLICE)
        assert threaded <= 1.25 * chunk
        # at most two slices are in flight, however many the batch has
        assert peak(8 * SLICE) <= 1.25 * threaded


class TestBootstrapMemory:
    def test_resamples_are_reduced_in_blocks(self, lozenge_124):
        # beyond its one (bootstrap, n_traj) index array the bootstrap
        # holds a few blocks of resamples, not several full-width copies
        n_traj, bootstrap = 10_000, 500
        base = SimConfig(seed=3, n_traj=n_traj, horizon=0.2, step=0.02,
                         bootstrap=bootstrap)
        tilted = replace(base, tilts=(np.array([0.02, 0.0, -0.02]),))
        plain = _peak_bytes(lambda: empirical_cgf(lozenge_124, base))
        with_tilt = _peak_bytes(lambda: empirical_cgf(lozenge_124, tilted))
        index_bytes = 8 * bootstrap * n_traj
        assert with_tilt <= plain + 1.5 * index_bytes

