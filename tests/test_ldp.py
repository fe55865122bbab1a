"""Rate function, fluctuation-relation diagnostics, entropy production."""

from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from fluxnet import (
    NumericalError,
    SpecificationError,
    TiltState,
    assemble_model,
    canonical_lift,
    condition_R_scan,
    conserved_direction,
    conserved_rate,
    entropy_production,
    fr_defect,
    g_value,
    hamiltonian,
    lineality_space,
    load_spec,
    parse_spec,
    rate_function,
    section_inf_boundary,
    steady_covariance,
)
from fluxnet import cgf, ldp, solvers
from fluxnet.cli import _phi_grid

from conftest import (
    dimer_1_64_doc,
    gap_arc_probe,
    two_dimers_doc,
    uncoupled_dimers_doc,
)

CONFIGS = Path(__file__).resolve().parent.parent / "src" / "fluxnet" / "configs"


def dimer_1_64():
    model = assemble_model(parse_spec(dimer_1_64_doc()))
    return model, lineality_space(model)


class TestEntropyProduction:
    def test_equilibrium_vanishes(self, lozenge_eq, triangular_eq):
        for m in (lozenge_eq, triangular_eq):
            assert abs(entropy_production(m).ep) < 1e-9

    def test_nonequilibrium_positive(self, lozenge_124, lozenge_1264, heatpump):
        for m in (lozenge_124, lozenge_1264, heatpump):
            assert entropy_production(m).ep > 0.0

    def test_mean_flux_matches_direct_formula(self, lozenge_124, heatpump):
        # independent route: the stationary mean of the work rate is
        # gamma_i (theta_i - <p_i^2>)
        for m in (lozenge_124, heatpump):
            M = steady_covariance(m).M
            direct = m.gamma * (m.theta - np.diag(M)[m.boundary_index])
            np.testing.assert_allclose(entropy_production(m).mean_flux, direct,
                                       atol=1e-12)

    def test_heatpump_sign_pattern(self, heatpump):
        flux = entropy_production(heatpump).mean_flux
        assert flux[0] > 0.0   # hot reservoir injects
        assert flux[1] < 0.0   # cold left reservoir absorbs
        assert flux[2] < 0.0   # warmer right reservoir absorbs
        assert flux[3] > 0.0   # colder right reservoir injects (pump)

    def test_mean_flux_conserves_energy(self, heatpump):
        flux = entropy_production(heatpump).mean_flux
        assert abs(flux.sum()) < 1e-12


class TestRateFunction:
    def test_zero_at_mean(self, lozenge_124, lozenge_124_geometry):
        mean = entropy_production(lozenge_124).mean_flux
        res = rate_function(lozenge_124, lozenge_124_geometry, mean)
        assert res.interior and res.in_F0
        assert abs(res.I_value) < 1e-10
        assert np.linalg.norm(res.xi_star) < 1e-6
        assert abs(res.anomaly) < 1e-9

    def test_legendre_consistency(self, lozenge_124, lozenge_124_geometry):
        geom = lozenge_124_geometry
        rng = np.random.default_rng(0)
        for _ in range(3):
            phi = geom.from_frame(rng.normal(scale=0.3, size=2))
            res = rate_function(lozenge_124, geom, phi, with_anomaly=False)
            assert res.interior
            assert np.linalg.norm(TiltState(lozenge_124, res.xi_star).grad - phi) < 1e-6
            assert res.I_value >= -1e-12

    def test_interior_anomaly_vanishes(self, lozenge_124, lozenge_124_geometry):
        geom = lozenge_124_geometry
        mean = entropy_production(lozenge_124).mean_flux
        res = rate_function(lozenge_124, geom, 1.3 * mean)
        assert res.interior and res.in_F0
        assert abs(res.anomaly) < 1e-6

    def test_convex_on_collinear_triples(self, lozenge_124,
                                         lozenge_124_geometry):
        geom = lozenge_124_geometry
        rng = np.random.default_rng(1)
        for _ in range(3):
            base = geom.from_frame(rng.normal(scale=0.2, size=2))
            step = geom.from_frame(rng.normal(scale=0.15, size=2))
            values = [rate_function(lozenge_124, geom, base + k * step,
                                    with_anomaly=False).I_value
                      for k in (-1.0, 0.0, 1.0)]
            assert values[1] <= 0.5 * (values[0] + values[2]) + 1e-8

    def test_rejects_conserved_component(self, lozenge_124,
                                         lozenge_124_geometry):
        for fn in (rate_function, fr_defect):
            with pytest.raises(SpecificationError, match="orthogonal"):
                fn(lozenge_124, lozenge_124_geometry, np.ones(3))

    def test_strong_drive_anomaly(self, lozenge_1264, lozenge_1264_geometry):
        # far down the drive direction the flux leaves the gradient image of
        # the finite region and the universal symmetry breaks
        m, geom = lozenge_1264, lozenge_1264_geometry
        mean = entropy_production(m).mean_flux
        phi = geom.from_frame(geom.to_frame(mean) + np.array([-5.65, 0.0]))
        res = rate_function(m, geom, phi)
        assert abs(res.anomaly) > 1e-3
        mirror = rate_function(m, geom, -phi, with_anomaly=False)
        assert mirror.conjectural_global and not mirror.interior

    def test_ruled_surface_identity(self, lozenge_1264, lozenge_1264_geometry):
        m, geom = lozenge_1264, lozenge_1264_geometry
        xi_b, eta = gap_arc_probe(m, geom, 0.8)
        phi0 = TiltState(m, xi_b).grad
        g_b = g_value(m, xi_b).g
        for lam in (0.1, 0.5, 1.0):
            shifted = rate_function(m, geom, phi0 + lam * eta,
                                    with_anomaly=False)
            predicted = float(xi_b @ (phi0 + lam * eta)) - g_b
            assert not shifted.interior
            assert abs(shifted.I_value - predicted) < 1e-5 * (1 + abs(predicted))


    def test_stalled_ascent_converges(self):
        # at this flux the gradient residual falls below the stall threshold
        # while the line search still accepts steps that gain nothing above
        # rounding; the ascent used to exhaust its iteration budget there
        m, geom = dimer_1_64()
        mean = entropy_production(m).mean_flux
        phi = geom.from_frame(geom.to_frame(mean) - 5.0)
        res = rate_function(m, geom, phi, with_anomaly=False)
        assert res.interior and res.iterations < ldp.MAX_NEWTON
        g_star = g_value(m, res.xi_star).g
        assert abs(res.I_value - (float(res.xi_star @ phi) - g_star)) < 1e-9
        assert np.linalg.norm(TiltState(m, res.xi_star).grad - phi) < 1e-4

    def test_steps_below_rounding_judged_by_residual(self):
        # the stationary point lies 7e-3 inside the domain edge and outside
        # the finite region; g is so curved there that the last Newton steps
        # gain less than the rounding of the objective, and only the
        # gradient residual shows their progress
        m, geom = dimer_1_64()
        mean = entropy_production(m).mean_flux
        phi = geom.from_frame(geom.to_frame(mean) - 10.0)
        res, end = ldp._maximize(m, geom, phi, 1e-8)
        assert not res.interior and res.conjectural_global
        assert res.grad_residual <= 1e-8 * (1.0 + np.linalg.norm(phi))
        assert end.in_D and not end.in_finite_region(geom)

    def test_singular_gap_trial_shrinks(self, monkeypatch):
        # a trial step whose gap matrix is numerically singular has no
        # gradient: the line search shrinks it as if it were infeasible
        m = assemble_model(load_spec(str(CONFIGS / "lozenge_1_2_4.json")))
        geom = lineality_space(m)
        phi = 2.0 * entropy_production(m).mean_flux
        free = rate_function(m, geom, phi, with_anomaly=False)
        limit = 0.5 * np.linalg.norm(free.xi_star)
        grad = TiltState.__dict__["grad"]

        def singular_beyond_limit(state):
            if np.linalg.norm(state.xi) > limit:
                raise NumericalError("gap matrix numerically singular")
            return grad.func(state)

        monkeypatch.setattr(TiltState, "grad", property(singular_beyond_limit))
        res = rate_function(m, geom, phi, with_anomaly=False)
        # the ascent is pinned inside the limit, below the free maximum
        assert not res.interior and res.conjectural_global
        assert 0.0 < res.I_value <= free.I_value
        # the reported tilt attains the reported value
        attained = float(res.xi_star @ phi) - TiltState(m, res.xi_star).g
        assert abs(res.I_value - attained) <= 1e-9

    def test_interior_maximizer_near_region_edge(self):
        # two points of the rate --grid 5 frame on the heat pump: the
        # stationary point lies just inside the finite region, where an
        # ascent confined to the region used to stop short of it
        m = assemble_model(load_spec(str(CONFIGS / "heatpump_40_3.6_7_6.8.json")))
        geom = lineality_space(m)
        phi = geom.from_frame(
            np.array([6.801701504742396, -8.063798463228498, 5.13809219175664]))
        res = rate_function(m, geom, phi)
        assert res.interior and not res.conjectural_global
        assert abs(res.I_value - 11.807962973501) <= 1e-9
        state = TiltState(m, res.xi_star)
        assert state.in_finite_region(geom)
        np.testing.assert_allclose(state.grad, phi, atol=1e-6)
        phi = geom.from_frame(
            np.array([-12.37734490080906, 11.11524794232296, -9.24619261240695]))
        assert abs(rate_function(m, geom, phi).anomaly) <= 1e-9

    def test_boundary_regime_decompositions(self, monkeypatch):
        # beyond the gradient image the ascent converges on the open domain
        # and tests the finite region once, instead of crawling to its edge
        m, geom = dimer_1_64()
        phi = -6.0 * entropy_production(m).mean_flux
        calls = []

        def counted(model, xi):
            calls.append(xi)
            return hamiltonian(model, xi)

        monkeypatch.setattr(cgf, "hamiltonian", counted)
        monkeypatch.setattr(solvers, "hamiltonian", counted)
        res = rate_function(m, geom, phi)
        assert not res.interior and res.conjectural_global
        assert len(calls) <= 300

    def test_mirror_start_matches_cold_start(self, lozenge_124,
                                             lozenge_124_geometry):
        # the mirror of the maximizer for phi is stationary for -phi
        m, geom = lozenge_124, lozenge_124_geometry
        phi = 2.0 * entropy_production(m).mean_flux
        res, end = ldp._maximize(m, geom, phi, 1e-8)
        assert res.interior
        cold, _ = ldp._maximize(m, geom, -phi, 1e-8)
        warm, _ = ldp._maximize(m, geom, -phi, 1e-8,
                                start=geom.to_frame(m.theta_inv - end.xi))
        assert warm.interior and cold.interior
        assert abs(warm.I_value - cold.I_value) <= 1e-12
        assert warm.iterations < cold.iterations
        # a start off the domain falls back to the origin
        far = np.full(2, 100.0)
        assert not TiltState(m, geom.from_frame(far)).in_D
        off, _ = ldp._maximize(m, geom, -phi, 1e-8, start=far)
        assert off.I_value == cold.I_value

    def test_interior_with_two_conserved_directions(self):
        # two decoupled dimers: the lineality space has dimension 2, so the
        # F0 test maximizes over a two-parameter shift
        m = assemble_model(parse_spec(two_dimers_doc()))
        geom = lineality_space(m)
        assert geom.dim_L == 2
        phi = 2.0 * entropy_production(m).mean_flux
        res = rate_function(m, geom, phi)
        assert res.interior and res.in_F0 and not res.conjectural_global
        assert np.linalg.norm(TiltState(m, res.xi_star).grad - phi) < 1e-6
        assert abs(res.anomaly) < 1e-9


@lru_cache(maxsize=None)
def _grid_boundary_rows(name):
    """Model, geometry and the boundary-regime results of the ``rate --grid
    3`` flux grid of a bundled config."""
    m = assemble_model(load_spec(str(CONFIGS / f"{name}.json")))
    geom = lineality_space(m)
    rows = [rate_function(m, geom, geom.from_frame(c), with_anomaly=False)
            for c in _phi_grid(m, geom, 3, None)]
    return m, geom, [res for res in rows if res.conjectural_global]


def _assert_kkt_point(m, geom, res):
    """xi* lies in the closed finite region and satisfies the KKT
    conditions of the boundary program."""
    state = TiltState(m, res.xi_star)
    margins = state.block_margins(geom)[0]
    scale = 1.0 + max(np.abs(np.linalg.eigvalsh(P)).max() for P in
                      (state.dual.X, state.sol.X + steady_covariance(m).Minv))
    assert margins.min() >= -1e-12 * scale, (res.phi, margins)
    assert res.kkt_residual <= 1e-7 * (1.0 + np.linalg.norm(res.phi)), res.phi
    assert abs(res.I_value - (float(res.xi_star @ res.phi) - state.g)) <= 1e-12 * (
        1.0 + abs(res.I_value))


BOUNDARY_CONFIGS = ["lozenge_1_2_64", "triangular_1_2_64"]


class TestBoundarySolve:
    """The boundary regime as the convex program max xi . phi - g subject
    to the block margins m_k >= 0, at the boundary rows of rate --grid 3."""

    @pytest.mark.parametrize("name", BOUNDARY_CONFIGS)
    def test_kkt_point_in_closed_region(self, name):
        m, geom, rows = _grid_boundary_rows(name)
        assert len(rows) == 3
        for res in rows:
            assert not res.interior and not res.in_F0
            _assert_kkt_point(m, geom, res)

    @pytest.mark.parametrize("name", BOUNDARY_CONFIGS)
    def test_value_beats_nearby_exit_points(self, name):
        # 81 exact finite-region exits in a window of +-0.02 rad around the
        # direction of xi*; none beats the value of the solve
        m, geom, rows = _grid_boundary_rows(name)
        for res in rows:
            x = geom.to_frame(res.xi_star)
            best = -np.inf
            for a in np.arctan2(x[1], x[0]) + np.linspace(-0.02, 0.02, 81):
                u = geom.from_frame(np.array([np.cos(a), np.sin(a)]))
                xi = section_inf_boundary(m, geom, u) * u
                best = max(best, float(xi @ res.phi) - TiltState(m, xi).g)
            assert res.I_value >= best - 1e-10, (res.phi, res.I_value - best)

    @pytest.mark.parametrize("name", BOUNDARY_CONFIGS)
    def test_values_reproduce_under_rounding_change(self, name, monkeypatch):
        # g with its trace summed in the reverse order and moved by 1e-13
        # relative, a few hundred ulps: the value at the optimum moves at
        # second order in the moved point.  A direction table refined by a
        # bracketing search moved by up to 2.6e-9 relative here.
        m, geom, rows = _grid_boundary_rows(name)

        def reordered(state):
            lift = canonical_lift(state.model, state.section)
            Q = state.model.Q
            trace = np.diag(Q.T @ (state._pair[0].X - lift.xi_tilde) @ Q)[::-1].sum()
            return -0.5 * float(trace) * (1.0 + 1e-13)

        monkeypatch.setattr(TiltState, "g", property(reordered))
        for res in rows:
            again = rate_function(m, geom, res.phi, with_anomaly=False)
            assert abs(again.I_value - res.I_value) <= 1e-10 * abs(res.I_value)

    def test_four_dimer_boundary_rows_converge(self):
        # a four-dimensional section with four block margins, whose optima
        # can sit where several blocks bind at once
        m = assemble_model(parse_spec(uncoupled_dimers_doc(
            (-0.3, -0.2, -0.25, -0.35),
            ((1.0, 2.0), (1.5, 4.0), (1.2, 3.0), (2.0, 2.5)))))
        geom = lineality_space(m)
        assert (geom.dim_L, geom.section_dim) == (4, 4)
        rows = [rate_function(m, geom, sign * geom.from_frame(c), with_anomaly=False)
                for c in _phi_grid(m, geom, 2, None) for sign in (1.0, -1.0)]
        rows = [res for res in rows if res.conjectural_global]
        assert len(rows) >= 8
        for res in rows:
            _assert_kkt_point(m, geom, res)


class TestFrDefect:
    def test_zero_flux(self, lozenge_124, lozenge_124_geometry):
        assert abs(fr_defect(lozenge_124, lozenge_124_geometry,
                             np.zeros(3))) < 1e-9

    def test_heatpump_universal(self, heatpump, heatpump_geometry):
        mean = entropy_production(heatpump).mean_flux
        rng = np.random.default_rng(2)
        for _ in range(3):
            phi = mean + heatpump_geometry.from_frame(
                rng.normal(scale=0.5 * np.linalg.norm(mean), size=3))
            assert abs(fr_defect(heatpump, heatpump_geometry, phi)) < 1e-6

    def test_strong_drive_defect(self, lozenge_1264, lozenge_1264_geometry):
        geom = lozenge_1264_geometry
        mean = entropy_production(lozenge_1264).mean_flux
        phi = geom.from_frame(geom.to_frame(mean) + np.array([-5.65, 0.0]))
        defect = fr_defect(lozenge_1264, geom, phi)
        assert abs(defect) > 1e-3


class TestConditionR:
    def test_verdicts(self, lozenge_eq, lozenge_1264, triangular_eq, heatpump):
        from fluxnet import lineality_space
        expectations = [(lozenge_eq, True), (lozenge_1264, False),
                        (triangular_eq, True), (heatpump, True)]
        for model, expected in expectations:
            scan = condition_R_scan(model, lineality_space(model), 16)
            assert scan.condition_R == expected

    def test_minimum_matches_flag(self, lozenge_124, lozenge_124_geometry):
        scan = condition_R_scan(lozenge_124, lozenge_124_geometry, 8)
        assert scan.condition_R == (scan.min_gap > 0.0)
        assert scan.gap.min() == scan.min_gap

    def test_requires_enough_directions(self, lozenge_124,
                                        lozenge_124_geometry):
        with pytest.raises(SpecificationError):
            condition_R_scan(lozenge_124, lozenge_124_geometry, 4)


class TestConservedRate:
    def test_zero_flux(self, lozenge_124):
        assert conserved_rate(lozenge_124, np.ones(3), 0.0) == 0.0

    def test_even_function(self, lozenge_124):
        rng = np.random.default_rng(3)
        for q in rng.normal(size=4):
            plus = conserved_rate(lozenge_124, np.ones(3), q)
            minus = conserved_rate(lozenge_124, np.ones(3), -q)
            assert plus == minus >= 0.0

    def test_equilibrium_unit_slope(self, lozenge_eq):
        data = conserved_direction(lozenge_eq, np.ones(3))
        assert abs(data.rate_slope - 1.0) < 1e-9
        assert np.linalg.eigvalsh(data.N)[0] >= -1e-12

    def test_rejects_generic_tilt(self, lozenge_124):
        with pytest.raises(SpecificationError, match="lineality"):
            conserved_rate(lozenge_124, np.array([1.0, 0.0, 0.0]), 1.0)

    def test_indefinite_lift_shifted(self, lozenge_124):
        data = conserved_direction(lozenge_124, -np.ones(3))
        assert data.shift > 0.0
        assert np.linalg.eigvalsh(data.xi_tilde)[0] >= -1e-12
