"""Cumulant generating function, domain geometry and section machinery."""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from fluxnet import (
    DomainError,
    NumericalError,
    RiccatiError,
    assemble_model,
    canonical_lift,
    commuting_lift,
    condition_R_scan,
    g_hessian_quadform,
    g_value,
    hamiltonian,
    in_domain,
    lineality_space,
    load_spec,
    parse_spec,
    riccati_pair,
    section_boundary,
    section_inf_boundary,
    steady_covariance,
)
from fluxnet import cgf, solvers
from fluxnet.cgf import (
    E_matrix,
    E_matrix_from_lift,
    TiltState,
    domain_margin,
)
from fluxnet.ldp import _scan_directions
from fluxnet.solvers import boundary_pair, tilted_blocks

from conftest import (
    dimer_1_64_doc,
    heatpump_doc,
    mirror_f0_margin,
    random_network_doc,
    random_tilt_in_D0,
    sampled_domain_margin,
    single_oscillator_doc,
    three_dimers_doc,
    two_dimers_doc,
    uncoupled_dimers_doc,
)

CONFIGS = Path(__file__).resolve().parent.parent / "src" / "fluxnet" / "configs"
CONFIG_NAMES = sorted(path.stem for path in CONFIGS.glob("*.json"))
NETWORKS = CONFIG_NAMES + ["dimer_1_64", "two_dimers"]


def critical_oscillator_doc():
    """One critically damped oscillator, gamma = 2 kappa: its drift is a
    2 x 2 Jordan block."""
    doc = single_oscillator_doc()
    doc["boundary"][0]["gamma"] = 2.0
    return doc


DOCS = {"dimer_1_64": dimer_1_64_doc, "two_dimers": two_dimers_doc,
        "single_oscillator": single_oscillator_doc, "heatpump": heatpump_doc,
        "critical_oscillator": critical_oscillator_doc}


def _network(name, stiffness=1.0):
    """A bundled config or a test network, its ``kappa_sq`` scaled."""
    if name in DOCS:
        doc = DOCS[name]()
    else:
        doc = json.loads((CONFIGS / f"{name}.json").read_text())
    doc["kappa_sq"] = (stiffness * np.array(doc["kappa_sq"])).tolist()
    return assemble_model(parse_spec(doc))


def _sampled_lineality(model):
    """Reference projector on the conserved directions: the common null
    space of the tilt response sampled at ``4n + 2`` frequencies, cut at
    1e-9 of its largest singular value or of the largest temperature (the
    construction the null-space solve of ``lineality_space`` replaced)."""
    d, s = model.d, model.omega_scale
    freqs = np.concatenate([[0.0], np.geomspace(0.1 * s, 10.0 * s, 4 * model.n + 1)])
    E = np.stack([E_matrix(model, e, freqs) for e in np.eye(d)], axis=-1)
    E = E.reshape(len(freqs), d * d, d)
    stacked = np.concatenate([E.real, E.imag], axis=1).reshape(-1, d)
    _, svals, Vt = np.linalg.svd(stacked)
    null = Vt[int(np.sum(svals > 1e-9 * max(svals[0], model.theta.max()))):]
    return null.T @ null


class TestResponseMatrix:
    def test_zero_tilt(self, lozenge_124):
        E = E_matrix(lozenge_124, np.zeros(3), [1.3])[0]
        assert np.linalg.norm(E, 2) < 1e-14

    def test_hermitian_and_linear(self, heatpump):
        rng = np.random.default_rng(0)
        xi, eta = rng.normal(size=4), rng.normal(size=4)
        w = 2.7
        E1 = E_matrix(heatpump, xi, [w])[0]
        E2 = E_matrix(heatpump, eta, [w])[0]
        E12 = E_matrix(heatpump, 2.0 * xi - 0.5 * eta, [w])[0]
        assert np.linalg.norm(E1 - E1.conj().T, 2) < 1e-12
        assert np.linalg.norm(E12 - (2.0 * E1 - 0.5 * E2), 2) < 1e-11

    def test_matches_lift_route(self, lozenge_124):
        rng = np.random.default_rng(1)
        for _ in range(5):
            xi = rng.normal(size=3)
            w = rng.normal() * 4.0
            lift = canonical_lift(lozenge_124, xi)
            direct = E_matrix_from_lift(lozenge_124, lift, w)
            assert np.linalg.norm(E_matrix(lozenge_124, xi, [w])[0] - direct, 2) < 1e-11

    def test_unit_determinant_at_inverse_temperature(self, lozenge_124,
                                                     heatpump):
        rng = np.random.default_rng(2)
        for m in (lozenge_124, heatpump):
            for _ in range(5):
                w = rng.normal() * 5.0
                E = E_matrix(m, m.theta_inv, [w])[0]
                det = np.linalg.det(np.eye(m.d) - E)
                assert abs(det - 1.0) < 1e-10

    @pytest.mark.parametrize("name", CONFIG_NAMES + ["critical_oscillator"])
    def test_matches_per_node_solves(self, name):
        """The Schur-form resolvent against one LU solve of ``A + i omega``
        per frequency, at zero, the drift resonances and seeded nodes."""
        m = _network(name)
        rng = np.random.default_rng(4)
        omegas = np.concatenate([[0.0], np.abs(m.spectrum.imag),
                                 m.omega_scale * np.tan(rng.uniform(-1.5, 1.5, 64))])
        xi = rng.uniform(size=m.d) * m.theta_inv
        eye = np.eye(m.dim)
        QRQ = np.stack([m.Q.T @ np.linalg.solve(m.A + 1j * w * eye, m.Q) for w in omegas])
        R = m.theta_inv[:, None] * QRQ
        zR = (xi * m.theta)[:, None] * R
        E = -(zR + np.conjugate(np.swapaxes(zR, 1, 2)) + np.conjugate(np.swapaxes(R, 1, 2)) @ zR)
        resolvent = solvers.noise_resolvent(m, omegas)
        assert np.abs(resolvent - QRQ).max() <= 1e-12 * np.abs(QRQ).max()
        assert np.abs(E_matrix(m, xi, omegas) - E).max() <= 1e-12 * max(1.0, np.abs(E).max())

    def test_high_frequency_decay(self, lozenge_124):
        rng = np.random.default_rng(3)
        xi = rng.normal(size=3)
        w = 1e3 * lozenge_124.omega_scale
        assert np.linalg.norm(E_matrix(lozenge_124, xi, [w])[0], 2) < 1e-4


class TestDomain:
    def test_origin(self, lozenge_124):
        ok = in_domain(lozenge_124, np.zeros(3))
        margin = domain_margin(lozenge_124, np.zeros(3))
        assert ok and abs(margin - 1.0) < 1e-12

    def test_box_inside(self, lozenge_1264):
        rng = np.random.default_rng(4)
        for _ in range(5):
            assert in_domain(lozenge_1264, random_tilt_in_D0(rng, lozenge_1264))

    def test_far_outside(self, lozenge_124, lozenge_124_geometry):
        geom = lozenge_124_geometry
        u = geom.frame[0]
        r = section_boundary(lozenge_124, geom, u)
        xi = geom.center + 10.0 * r * u
        ok, margin = in_domain(lozenge_124, xi), domain_margin(lozenge_124, xi)
        assert not ok and margin < 0.0

    @pytest.mark.parametrize("name", [
        "lozenge_eq", "lozenge_1_2_4", "lozenge_1_2_64", "triangular_eq",
        "triangular_1_2_64", "heatpump_10_3.6_7_6.8", "heatpump_40_3.6_7_6.8"])
    def test_spectral_verdict_matches_margin(self, name):
        # the exact test must agree with the sampled frequency minimization
        # of the reference wherever the latter is unambiguous
        model = assemble_model(load_spec(str(CONFIGS / f"{name}.json")))
        geom = lineality_space(model)
        rng = np.random.default_rng(11)
        verdicts = []
        for _ in range(24):
            # around the section boundary, shifted along conserved directions
            dc = rng.normal(size=geom.section_dim)
            u = geom.from_frame(dc / np.linalg.norm(dc))
            offset = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-5.0, -0.5)
            r = section_boundary(model, geom, u) * (1.0 + offset)
            xi = geom.center + r * u + rng.normal(size=geom.dim_L) @ geom.L_basis
            margin = sampled_domain_margin(model, xi)
            if abs(margin) < 1e-6:
                continue
            assert in_domain(model, xi) == (margin > 0.0), (xi, margin)
            verdicts.append(margin > 0.0)
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_margin_matches_sampled_reference(self, name):
        # the level-set iteration against the sampled frequency search, at
        # tilts inside and outside the domain, shifted along conserved
        # directions
        model = assemble_model(load_spec(str(CONFIGS / f"{name}.json")))
        geom = lineality_space(model)
        rng = np.random.default_rng(12)
        signs = []
        for _ in range(8):
            dc = rng.normal(size=geom.section_dim)
            u = geom.from_frame(dc / np.linalg.norm(dc))
            r = section_boundary(model, geom, u) * rng.uniform(0.3, 1.7)
            xi = geom.center + r * u + rng.normal(size=geom.dim_L) @ geom.L_basis
            margin = domain_margin(model, xi)
            assert abs(margin - sampled_domain_margin(model, xi)) < 1e-8
            signs.append(margin > 0.0)
        assert any(signs) and not all(signs)

    def test_conserved_tilts_have_unit_margin(self, lozenge_124):
        assert domain_margin(lozenge_124, np.ones(3)) == 1.0
        m = assemble_model(parse_spec(two_dimers_doc()))
        assert domain_margin(m, 50.0 * lineality_space(m).L_basis[1]) == 1.0

    def test_large_conserved_tilts_inside(self, lozenge_124):
        # the conserved part leaves E unchanged but grows the doubled matrix
        m = assemble_model(parse_spec(two_dimers_doc()))
        for model, xi in ((lozenge_124, 2048.0 * np.ones(3)),
                          (m, 8192.0 * lineality_space(m).L_basis[1])):
            assert in_domain(model, xi)
            res = g_value(model, xi)
            assert res.in_D and abs(res.g_integral) < 1e-9

    def test_state_domain_test_is_in_domain(self, lozenge_1264):
        # the state's verdict at the seeded points of the tests above
        rng = np.random.default_rng(4)
        for _ in range(5):
            xi = random_tilt_in_D0(rng, lozenge_1264)
            assert TiltState(lozenge_1264, xi).in_D == in_domain(lozenge_1264, xi)
        for name in ("lozenge_1_2_64", "triangular_1_2_64"):
            model = assemble_model(load_spec(str(CONFIGS / f"{name}.json")))
            geom = lineality_space(model)
            rng = np.random.default_rng(11)
            verdicts = []
            for _ in range(24):
                dc = rng.normal(size=geom.section_dim)
                u = geom.from_frame(dc / np.linalg.norm(dc))
                offset = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-5.0, -0.5)
                r = section_boundary(model, geom, u) * (1.0 + offset)
                xi = geom.center + r * u + rng.normal(size=geom.dim_L) @ geom.L_basis
                verdicts.append(TiltState(model, xi).in_D)
                assert verdicts[-1] == in_domain(model, xi), xi
            assert any(verdicts) and not all(verdicts)

    def test_g_vanishes_on_large_conserved_tilts(self, lozenge_124):
        # g is read at the section component, so a large conserved part
        # neither fails the Riccati pair nor the quadrature
        m = assemble_model(parse_spec(two_dimers_doc()))
        for model, xi in ((lozenge_124, 2048.0 * np.ones(3)),
                          (lozenge_124, 1e5 * np.ones(3)),
                          (m, 8192.0 * lineality_space(m).L_basis[1])):
            state = g_value(model, xi)
            state.cross_check()
            assert abs(state.g) <= 1e-12 and abs(state.g_spectral) <= 1e-12

    def test_margin_shift_invariant_and_homogeneous(self, lozenge_124,
                                                    heatpump):
        # E is linear in the tilt and vanishes on the all-ones direction
        rng = np.random.default_rng(13)
        for m in (lozenge_124, heatpump):
            for _ in range(4):
                xi = rng.normal(size=m.d) * m.theta_inv
                margin = domain_margin(m, xi)
                shifted = domain_margin(m, xi + 2048.0 * np.ones(m.d))
                assert abs(shifted - margin) < 1e-12
                doubled = domain_margin(m, 2.0 * xi)
                gap = 1.0 - margin
                assert abs((1.0 - doubled) - 2.0 * gap) < 1e-12 * (1.0 + abs(gap))


class TestLineality:
    def test_single_reservoir_has_empty_section(self, single_oscillator):
        # the stacked response is all round-off; none of it counts as rank
        geom = lineality_space(single_oscillator)
        assert geom.dim_L == 1 and geom.section_dim == 0
        assert geom.frame.shape == (0, 1)

    def test_ones_direction(self, lozenge_124_geometry, heatpump_geometry):
        for geom in (lozenge_124_geometry, heatpump_geometry):
            ones = np.ones(geom.L_basis.shape[1])
            ones /= np.linalg.norm(ones)
            proj = geom.L_basis.T @ (geom.L_basis @ ones)
            assert np.linalg.norm(proj - ones) < 1e-9

    def test_example_dimensions(self, lozenge_124_geometry, heatpump_geometry,
                                triangular_eq):
        assert lozenge_124_geometry.dim_L == 1
        assert heatpump_geometry.dim_L == 1
        assert lineality_space(triangular_eq).dim_L == 1

    def test_projector(self, heatpump_geometry):
        Pi = heatpump_geometry.Pi
        assert np.linalg.norm(Pi @ Pi - Pi, 2) < 1e-12
        assert np.linalg.norm(Pi - Pi.T, 2) < 1e-12

    @pytest.mark.parametrize("name", NETWORKS)
    def test_basis_annihilates_response(self, name):
        m = _network(name)
        geom = lineality_space(m)
        rng = np.random.default_rng(5)
        for eta in geom.L_basis:
            for w in rng.normal(scale=3.0, size=20):
                assert np.linalg.norm(E_matrix(m, eta, [w])[0], 2) < 1e-9

    @staticmethod
    def _check_against_sampled_response(m):
        # the null-space solve finds the directions of the sampled response,
        # and each lift satisfies the conditions that define it
        geom = lineality_space(m)
        ref = _sampled_lineality(m)
        assert geom.dim_L == round(float(np.trace(ref)))
        assert np.abs(geom.L_basis.T @ geom.L_basis - ref).max() <= 1e-12
        assert geom.L_lifts.shape == (geom.dim_L, m.dim, m.dim)
        for b, S in zip(geom.L_basis, geom.L_lifts):
            size = np.linalg.norm(S, 2)
            assert np.linalg.norm(S - S.T, 2) <= 1e-12 * size
            assert np.linalg.norm(m.theta_conj(S) - S, 2) <= 1e-12 * size
            assert (np.linalg.norm(S @ m.Q - m.Q * b, 2)
                    <= 1e-12 * size * np.linalg.norm(m.Q, 2))
            assert (np.linalg.norm(m.Omega @ S - S @ m.Omega, 2)
                    <= 1e-12 * size * np.linalg.norm(m.Omega, 2))

    @pytest.mark.parametrize("name", NETWORKS + ["single_oscillator"])
    def test_matches_sampled_response(self, name):
        self._check_against_sampled_response(_network(name))

    @pytest.mark.parametrize("stiffness", [1e-4, 1e4, 1e8])
    @pytest.mark.parametrize("name", ["heatpump", "two_dimers"])
    def test_matches_sampled_response_at_stiffness_scale(self, name, stiffness):
        # the commutator rows are scaled by ||kappa^2||, so the rank cut
        # does not move with the stiffness scale
        m = _network(name, stiffness)
        assert lineality_space(m).dim_L == (2 if name == "two_dimers" else 1)
        self._check_against_sampled_response(m)

    def test_matches_sampled_response_on_random_networks(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            self._check_against_sampled_response(
                assemble_model(parse_spec(random_network_doc(rng))))

    def test_frame_aligned_with_drive(self, lozenge_124, lozenge_124_geometry):
        geom = lozenge_124_geometry
        v = geom.Pi @ lozenge_124.theta_inv
        v /= np.linalg.norm(v)
        assert np.linalg.norm(geom.frame[0] - v) < 1e-10

    def test_frame_sign_independent_of_rounding(self):
        # the two-dimer frame has entries of equal magnitude, whose last bit
        # moves with the stiffness scale; the orientation must not
        base = lineality_space(_network("two_dimers"))
        for stiffness in (3.0, 100.0, 1e4):
            geom = lineality_space(_network("two_dimers", stiffness))
            assert np.abs(geom.frame - base.frame).max() < 1e-12
            assert np.abs(geom.L_basis - base.L_basis).max() < 1e-12


class TestGValue:
    def test_zeros(self, lozenge_124, triangular_eq):
        for m in (lozenge_124, triangular_eq):
            for xi in (np.zeros(m.d), m.theta_inv):
                res = g_value(m, xi)
                res.cross_check()
                for val in (res.g_integral, res.g_spectral, res.g):
                    assert abs(val) < 1e-8

    def test_three_way_agreement(self, lozenge_124, heatpump):
        rng = np.random.default_rng(6)
        for m in (lozenge_124, heatpump):
            for _ in range(5):
                res = g_value(m, random_tilt_in_D0(rng, m))
                res.cross_check()
                ref = 1.0 + abs(res.g)
                assert abs(res.g_integral - res.g_spectral) < 1e-6 * ref
                assert abs(res.g_spectral - res.g) < 1e-6 * ref

    def test_mirror_symmetry_and_translation(self, lozenge_124):
        m = lozenge_124
        rng = np.random.default_rng(7)
        for _ in range(5):
            xi = random_tilt_in_D0(rng, m)
            g0 = g_value(m, xi).g
            g_mirror = g_value(m, m.theta_inv - xi).g
            g_shift = g_value(m, xi + 0.21 * np.ones(3)).g
            assert abs(g0 - g_mirror) < 1e-8 * (1 + abs(g0))
            assert abs(g0 - g_shift) < 1e-8 * (1 + abs(g0))

    def test_convexity_midpoint(self, lozenge_124):
        m = lozenge_124
        rng = np.random.default_rng(8)
        for _ in range(5):
            x1, x2 = (random_tilt_in_D0(rng, m) for _ in range(2))
            g1 = g_value(m, x1).g
            g2 = g_value(m, x2).g
            gm = g_value(m, 0.5 * (x1 + x2)).g
            assert gm <= 0.5 * (g1 + g2) + 1e-9

    def test_rescaling_invariance(self, lozenge_124):
        from fluxnet import assemble_model, parse_spec
        from conftest import lozenge_doc
        lam = 3.0
        doc = lozenge_doc([lam, 2 * lam, 4 * lam])
        doc["temperature_ratios"] = False
        scaled = assemble_model(parse_spec(doc))
        base_doc = lozenge_doc([1, 2, 4])
        base_doc["temperature_ratios"] = False
        base = assemble_model(parse_spec(base_doc))
        rng = np.random.default_rng(9)
        xi = random_tilt_in_D0(rng, base)
        g0 = g_value(base, xi).g
        g1 = g_value(scaled, xi / lam).g
        assert abs(g0 - g1) < 1e-8 * (1 + abs(g0))

    def test_routes_computed_when_read(self, lozenge_124, monkeypatch):
        # the Riccati value of an in-domain tilt needs neither the frequency
        # integral nor the domain margin
        calls = {"_g_integral": 0, "domain_margin": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(cgf, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(cgf, name, counted)
        state = g_value(lozenge_124, np.array([0.2, 0.3, 0.1]))
        assert np.isfinite(state.g)
        assert calls == {"_g_integral": 0, "domain_margin": 0}
        assert state.g_integral is not None and np.isfinite(state.margin)
        assert calls == {"_g_integral": 1, "domain_margin": 1}

    def test_cross_check_raises_on_disagreement(self, lozenge_124):
        state = g_value(lozenge_124, np.array([0.2, 0.3, 0.1]))
        state.cross_check()
        state.g_spectral += 1e-3
        with pytest.raises(NumericalError, match="g routes disagree"):
            state.cross_check()

    def test_outside_closure_raises(self, lozenge_124, lozenge_124_geometry):
        geom = lozenge_124_geometry
        u = geom.frame[0]
        r = section_boundary(lozenge_124, geom, u)
        with pytest.raises(DomainError, match="outside essential domain closure"):
            g_value(lozenge_124, geom.center + 3.0 * r * u)

    @pytest.mark.parametrize("seed, draws, xi", [
        (1, 10, [0.03293097942445356, 0.27207147265919407,
                 -0.24301371067297722, -0.06198874141067043]),
        (2, 1, [-0.4214042005953059, 0.04514980066964078, 0.376254399925665])])
    def test_integral_keeps_small_response(self, seed, draws, xi):
        # scan tilts of two random networks (7 and 11 oscillators) where the
        # integrand -log(1 - mu) lost small mu to rounding and the
        # quadrature gave up
        rng = np.random.default_rng(seed)
        for _ in range(draws):
            doc = random_network_doc(rng, n_max=12)
        state = g_value(assemble_model(parse_spec(doc)), np.array(xi))
        assert abs(state.g_integral - state.g_spectral) <= 1e-12 * (1.0 + abs(state.g_spectral))


class TestDerivatives:
    def test_gradient_orthogonal_to_lineality(self, lozenge_124):
        rng = np.random.default_rng(10)
        for _ in range(5):
            xi = random_tilt_in_D0(rng, lozenge_124)
            grad = TiltState(lozenge_124, xi).grad
            assert abs(grad @ np.ones(3)) < 1e-8

    def test_equilibrium_gradient_vanishes(self, lozenge_eq, triangular_eq):
        for m in (lozenge_eq, triangular_eq):
            grad = TiltState(m, np.zeros(m.d)).grad
            assert np.abs(grad).max() < 1e-9

    def test_gradient_matches_finite_differences(self, lozenge_124, heatpump):
        rng = np.random.default_rng(11)
        step = 1e-5
        for m in (lozenge_124, heatpump):
            xi = random_tilt_in_D0(rng, m)
            grad = TiltState(m, xi).grad
            for j in range(m.d):
                e = np.eye(m.d)[j]
                gp = g_value(m, xi + step * e).g
                gm = g_value(m, xi - step * e).g
                fd = (gp - gm) / (2.0 * step)
                assert abs(fd - grad[j]) < 1e-5 * (1.0 + abs(grad[j]))

    def test_hessian_on_lineality_vanishes(self, lozenge_124):
        value = g_hessian_quadform(lozenge_124, np.array([0.1, 0.2, 0.15]),
                                   np.ones(3))
        assert abs(value) < 1e-9

    def test_hessian_positive_off_lineality(self, lozenge_124,
                                            lozenge_124_geometry):
        eta = lozenge_124_geometry.frame[0]
        value = g_hessian_quadform(lozenge_124, np.zeros(3), eta)
        assert value > 0.0

    def test_hessian_matches_finite_differences(self, lozenge_124):
        m = lozenge_124
        xi = np.array([0.15, 0.1, -0.05])
        eta = np.array([0.5, -0.3, -0.2])
        eta /= np.linalg.norm(eta)
        quad = g_hessian_quadform(m, xi, eta)
        step = 1e-4

        def g_at(z):
            return g_value(m, z).g

        fd = (g_at(xi + step * eta) - 2.0 * g_at(xi) + g_at(xi - step * eta)) / step ** 2
        assert abs(fd - quad) < 1e-4 * (1.0 + abs(quad))

    @pytest.mark.parametrize("name", [
        "lozenge_1_2_4", "lozenge_1_2_64", "triangular_1_2_64",
        "heatpump_10_3.6_7_6.8"])
    def test_riccati_hessian_matches_gradient_differences(self, name):
        m = assemble_model(load_spec(str(CONFIGS / f"{name}.json")))
        frame = lineality_space(m).frame
        rng = np.random.default_rng(14)
        step = 1e-5
        for _ in range(5):
            xi = random_tilt_in_D0(rng, m)
            H = TiltState(m, xi).hessian(frame)
            fd = np.array([
                frame @ (TiltState(m, xi + step * f).grad
                         - TiltState(m, xi - step * f).grad)
                for f in frame]).T / (2.0 * step)
            assert np.linalg.norm(H - fd) <= 1e-6 * np.linalg.norm(H), xi

    def test_one_riccati_pair_per_tilt(self, lozenge_124,
                                       lozenge_124_geometry, monkeypatch):
        # every route of the state reads the one decomposition of the
        # doubled matrix at the section component, and no ladder runs
        tilts = []

        def counted(model, xi):
            tilts.append(np.array(xi))
            return hamiltonian(model, xi)

        monkeypatch.setattr(cgf, "hamiltonian", counted)
        monkeypatch.setattr(solvers, "hamiltonian", counted)
        geom = lozenge_124_geometry
        xi = np.array([0.2, 0.3, 0.1])
        state = g_value(lozenge_124, xi)
        state.cross_check()
        assert state.in_D
        assert state.grad.shape == (3,) and state.lambdas.in_Dinf
        assert state.sinf_margin(geom) > 0.0 and state.f0_margin(geom) > 0.0
        assert state.hessian(geom.frame).shape == (2, 2)
        assert len(tilts) == 1
        np.testing.assert_allclose(tilts[0], geom.project(xi), atol=1e-15)
        assert state.margin > 0.0

    def test_boundary_state_makes_one_decomposition(self, lozenge_124,
                                                    lozenge_124_geometry,
                                                    monkeypatch):
        # at a boundary tilt of the gap scan the pair comes from the one
        # decomposition of the state, completed by null vectors
        m, geom = lozenge_124, lozenge_124_geometry
        scan = condition_R_scan(m, geom, n_dirs=8)
        tilts = []

        def counted(model, xi):
            tilts.append(np.array(xi))
            return hamiltonian(model, xi)

        monkeypatch.setattr(cgf, "hamiltonian", counted)
        monkeypatch.setattr(solvers, "hamiltonian", counted)
        for xi, minus, plus in zip(scan.xi_boundary, scan.Lambda_minus,
                                   scan.Lambda_plus):
            tilts.clear()
            state = TiltState(m, xi)
            lam = state.lambdas
            assert not state.in_D
            assert len(tilts) == 1
            assert lam.minus == minus and lam.plus == plus

    def test_no_lift_at_section_points(self, heatpump, heatpump_geometry):
        # the heat-pump scan tilts carry a conserved part of about 2^-53,
        # which the projection passes as given: no lift is added to the pair
        for xi in condition_R_scan(heatpump, heatpump_geometry, n_dirs=8).xi_boundary:
            state = TiltState(heatpump, xi)
            assert state.section is state.xi
            assert np.array_equal(state.sol.X, state._pair[0].X)
            assert np.array_equal(state.dual.X, state._pair[1].X)

    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_pair_matches_stabilizing_are(self, name):
        # the stabilizing solution of the tilted Riccati equation is the
        # maximal one, at the tilt and at its mirror
        m = assemble_model(load_spec(str(CONFIGS / f"{name}.json")))
        rng = np.random.default_rng(15)
        for _ in range(3):
            xi = random_tilt_in_D0(rng, m)
            pair = riccati_pair(m, xi)
            for sol, tilt in zip(pair, (xi, m.theta_inv - xi)):
                A_xi, C_xi = tilted_blocks(m, tilt)
                ref = scipy.linalg.solve_continuous_are(
                    A_xi, m.Q, C_xi, np.eye(m.d))
                assert (np.linalg.norm(sol.X - ref)
                        <= 1e-12 * np.linalg.norm(ref)), (xi, tilt)


def _scan_rays(geometry, count):
    """Unit directions of the gap scan, as tilts."""
    return [geometry.from_frame(dc)
            for dc in _scan_directions(geometry.section_dim, count)[0]]


class TestBoundaryPair:
    @pytest.mark.parametrize("name, on_axis", [
        ("dimer_1_64", 4), ("lozenge_1_2_4", 4), ("heatpump_40_3.6_7_6.8", 4),
        ("triangular_1_2_64", 8)])
    def test_residual_at_rounding_level(self, name, on_axis):
        # the exact section radius tests off the open domain, and the pair
        # from the null vectors solves both Riccati equations to rounding;
        # triangular 1:2:64 collides at two frequencies at once
        m = _network(name)
        geom = lineality_space(m)
        for u in _scan_rays(geom, 8):
            state = TiltState(m, geom.center + section_boundary(m, geom, u) * u)
            assert not state.in_D and state._ham.on_axis.sum() == on_axis
            for sol in (state.sol, state.dual):
                A_xi, C_xi = tilted_blocks(m, sol.xi)
                x = np.linalg.norm(sol.X, 2)
                scale = (np.linalg.norm(C_xi, 2) + 2.0 * np.linalg.norm(A_xi, 2) * x
                         + np.linalg.norm(m.B, 2) * x * x)
                assert sol.residual <= 1e-13 * scale, (u, sol.residual, scale)

    @pytest.mark.parametrize("name", [
        "dimer_1_64", "lozenge_1_2_4", "triangular_1_2_64"])
    def test_direct_solves_approach_as_sqrt(self, name):
        # inside the domain at (1 - delta) t*, the maximal solution is
        # sqrt(delta) away from the boundary pair: a factor 10 per factor
        # 100.  The residual cannot see an error of the pair along the null
        # space of the closed loop's Lyapunov operator; the Richardson limit
        # of the direct solves can, to the O(delta) of its terms.
        m = _network(name)
        geom = lineality_space(m)
        for u in _scan_rays(geom, 8):
            r = section_boundary(m, geom, u)
            X = TiltState(m, geom.center + r * u).sol.X
            near = [TiltState(m, geom.center + (1.0 - delta) * r * u).sol.X
                    for delta in (1e-6, 1e-8, 1e-10)]
            dist = [np.linalg.norm(Y - X, 2) for Y in near]
            assert all(9.9 < a / b < 10.1 for a, b in zip(dist, dist[1:])), dist
            limit = (10.0 * near[2] - near[1]) / 9.0
            assert np.linalg.norm(limit - X, 2) <= 2e-8 * (1.0 + np.linalg.norm(X, 2))

    @pytest.mark.parametrize("name", [
        "dimer_1_64", "lozenge_1_2_4", "triangular_1_2_64"])
    def test_beyond_boundary_raises(self, name):
        m = _network(name)
        geom = lineality_space(m)
        for u in _scan_rays(geom, 8):
            xi = geom.center + 1.5 * section_boundary(m, geom, u) * u
            with pytest.raises(RiccatiError, match="colliding pairs"):
                boundary_pair(m, hamiltonian(m, xi))
            with pytest.raises(RiccatiError):
                TiltState(m, xi).g

    @pytest.mark.parametrize("name", ["lozenge_1_2_4", "triangular_1_2_64"])
    def test_scan_reproduces_under_last_bit_change(self, name):
        m = _network(name)
        geom = lineality_space(m)
        for u in _scan_rays(geom, 16):
            nudged = u.copy()
            k = int(np.argmax(np.abs(u)))
            nudged[k] = np.nextafter(u[k], np.inf)
            radii, lams = [], []
            for v in (u, nudged):
                radii.append(section_boundary(m, geom, v))
                lams.append(TiltState(m, geom.center + radii[-1] * v).lambdas)
            assert abs(radii[1] - radii[0]) <= 1e-12 * radii[0]
            for a, b in ((lams[0].minus, lams[1].minus), (lams[0].plus, lams[1].plus)):
                assert abs(a - b) <= 5e-12 * (1.0 + abs(a)), (u, a, b)

    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_radius_matches_domain_bisection(self, name):
        m = _network(name)
        geom = lineality_space(m)
        rng = np.random.default_rng(25)
        for _ in range(4):
            u = geom.from_frame(rng.normal(size=geom.section_dim))
            u /= np.linalg.norm(u)
            r = section_boundary(m, geom, u)
            lo, hi = 0.0, 2.0 * r
            while hi - lo > 1e-12:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if in_domain(m, geom.center + mid * u) else (lo, mid)
            assert abs(r - 0.5 * (lo + hi)) <= 1e-10 * r, (u, r, lo, hi)
            assert in_domain(m, geom.center + (1.0 - 1e-9) * r * u)
            assert not in_domain(m, geom.center + (1.0 + 1e-7) * r * u)

    def test_finite_region_exit_on_domain_boundary(self):
        # on the dimer's +1 ray the finite region reaches the domain
        # boundary, where the bisection ends beyond the open domain; the
        # exit radius is then the exact domain radius from the origin
        m = _network("dimer_1_64")
        geom = lineality_space(m)
        u = geom.from_frame(np.array([1.0]))
        r = section_inf_boundary(m, geom, u)
        assert abs(r * (1.0 - domain_margin(m, u)) - 1.0) <= 1e-15
        assert in_domain(m, (1.0 - 1e-9) * r * u)
        assert not in_domain(m, (1.0 + 1e-7) * r * u)
        assert TiltState(m, r * u).sol.residual <= 1e-13


    def test_spectral_route_on_domain_boundary(self):
        # at the exact radius of the dimer's -1 ray from the origin the
        # colliding axis pairs keep real parts of about sqrt(eps) ||K||; the
        # spectral route leaves them out (3.2e-7 from g when summed)
        m = _network("dimer_1_64")
        geom = lineality_space(m)
        u = geom.from_frame(np.array([-1.0]))
        state = TiltState(m, u / (1.0 - domain_margin(m, u)))
        assert not state.in_D and state._ham.on_axis.any()
        assert abs(state.g - state.g_spectral) <= 1e-9


class TestFiniteRegion:
    def test_origin_values_from_covariance(self, lozenge_124):
        m = lozenge_124
        lam = TiltState(m, np.zeros(3)).lambdas
        M = steady_covariance(m).M
        inv_eigs = 1.0 / np.linalg.eigvalsh(M)
        assert abs(lam.plus - inv_eigs.min()) < 1e-9
        assert abs(lam.minus + inv_eigs.min()) < 1e-9
        assert lam.in_Dinf

    def test_box_closure_inside_finite_region(self, lozenge_124):
        m = lozenge_124
        rng = np.random.default_rng(12)
        for _ in range(5):
            t = rng.uniform(0.05, 0.95)
            xi = t * m.theta_inv
            lam = TiltState(m, xi).lambdas
            assert lam.in_Dinf

    def test_section_point_membership(self, lozenge_124, lozenge_124_geometry):
        state = TiltState(lozenge_124, np.zeros(3))
        assert state.in_finite_region(lozenge_124_geometry)

    def test_closed_gap_region_excluded(self, lozenge_1264,
                                        lozenge_1264_geometry):
        m, geom = lozenge_1264, lozenge_1264_geometry
        u = geom.from_frame(np.array([-1.0, 0.0]))
        r_inf = section_inf_boundary(m, geom, u)
        r_sec = section_boundary(m, geom, u / np.linalg.norm(u))
        # with strong drive the finite region ends strictly inside the section
        inside = (r_inf - 1e-3) * u
        outside = (r_inf + 1e-3) * u
        assert TiltState(m, inside).sinf_margin(geom) > 0.0
        if in_domain(m, outside):
            assert TiltState(m, outside).sinf_margin(geom) < 0.0

    def test_failed_solve_counts_as_outside(self, lozenge_124,
                                            lozenge_124_geometry, monkeypatch):
        # a Riccati failure beyond a radius ends the finite region there for
        # the ray bisection, as it does for the rate-function line search
        m, geom = lozenge_124, lozenge_124_geometry
        u = geom.frame[0]
        limit = 0.5 * section_inf_boundary(m, geom, u)
        pair = TiltState.__dict__["_pair"]

        def failing_beyond_limit(state):
            if np.linalg.norm(state.xi) > limit:
                raise RiccatiError("no interior ladder points")
            return pair.func(state)

        monkeypatch.setattr(TiltState, "_pair", property(failing_beyond_limit))
        assert not TiltState(m, 1.1 * limit * u).in_finite_region(geom)
        assert abs(section_inf_boundary(m, geom, u) - limit) <= 1e-6

    def test_margin_with_two_conserved_directions(self):
        # two decoupled dimers conserve their energies separately, so the
        # lineality space has dimension 2 and the margin is maximized over
        # a two-parameter shift; compare with a multi-start simplex search
        # of the balanced minimum, which is half the margin's sum
        m = assemble_model(parse_spec(two_dimers_doc()))
        geom = lineality_space(m)
        assert geom.dim_L == 2
        Minv = np.linalg.inv(steady_covariance(m).M)

        def simplex_margin(xi):
            lower = riccati_pair(m, xi)[0].X + Minv
            upper = riccati_pair(m, m.theta_inv - xi)[0].X
            scale = max(1.0, max(float(np.abs(np.linalg.eigvalsh(P)).max())
                                 for P in (upper, lower)))

            def negated(coeffs):
                shift = sum(c * lift for c, lift in zip(coeffs, geom.L_lifts))
                return -min(np.linalg.eigvalsh(upper - shift)[0],
                            np.linalg.eigvalsh(lower + shift)[0])

            starts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, -1.0),
                      (0.5, -0.5)]
            return 2.0 * max(-scipy.optimize.minimize(
                negated, np.array(start), method="Nelder-Mead",
                options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000}).fun
                for start in starts), scale

        for angle in (0.3, 2.0, 4.0):
            u = geom.from_frame(np.array([np.cos(angle), np.sin(angle)]))
            xi = 0.5 * section_inf_boundary(m, geom, u) * u
            margin = TiltState(m, xi).sinf_margin(geom)
            ref, scale = simplex_margin(xi)
            assert margin > 0.2
            assert abs(margin - ref) <= 1e-12 * scale, (angle, margin - ref)

    def test_two_conserved_directions_match_identity_reduction(self):
        # the identity lies in the span of the lifts, and shifting by it
        # balances the two obstructions, so the largest margin is
        # max_c lambda_min(U - c S_2) + lambda_min(L + c S_2): one concave
        # scalar search.  Points straddle the edge of the finite region.
        m = assemble_model(parse_spec(two_dimers_doc()))
        geom = lineality_space(m)
        Minv = steady_covariance(m).Minv
        S2 = geom.L_lifts[1]
        signs = []
        for angle in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
            u = geom.from_frame(np.array([np.cos(angle), np.sin(angle)]))
            r = section_inf_boundary(m, geom, u)
            for t in (0.5, 0.95, 0.999, 1.001, 1.05):
                state = TiltState(m, t * r * u)
                if not state.in_D:
                    continue
                upper, lower = state.dual.X, state.sol.X + Minv
                scale = max(1.0, max(float(np.abs(np.linalg.eigvalsh(P)).max())
                                     for P in (upper, lower)))
                res = scipy.optimize.minimize_scalar(
                    lambda c: -(np.linalg.eigvalsh(upper - c * S2)[0]
                                + np.linalg.eigvalsh(lower + c * S2)[0]),
                    bounds=(-4.0 * scale, 4.0 * scale), method="bounded",
                    options={"xatol": 1e-12 * scale})
                reduced = -float(res.fun)
                margin = state.sinf_margin(geom)
                assert np.sign(margin) == np.sign(reduced), (angle, t)
                assert abs(margin - reduced) <= 1e-12 * scale, (angle, t)
                signs.append(margin > 0.0)
        assert any(signs) and not all(signs)

    def test_margin_with_three_conserved_directions(self):
        # dim L = 3: after the identity, two shift coordinates remain.  A
        # dense grid over them never beats the margin, and its best point is
        # within the grid's resolution of it.  Uncoupled dimers put the best
        # shifts on plateaus; at some of these seeded points the plateau
        # lies away from c = 0.
        m = assemble_model(parse_spec(three_dimers_doc()))
        geom = lineality_space(m)
        assert (geom.dim_L, geom.section_dim) == (3, 3)
        assert np.abs(geom.L_lifts[0] - np.eye(2 * m.n) / np.sqrt(m.d)).max() < 1e-12
        Minv = steady_covariance(m).Minv
        S = geom.L_lifts[1:]
        rng = np.random.default_rng(23)
        for _ in range(6):
            u = geom.from_frame(rng.normal(size=geom.section_dim))
            u /= np.linalg.norm(u)
            t = rng.uniform(0.2, 0.95)
            state = TiltState(m, geom.center + t * section_boundary(m, geom, u) * u)
            upper, lower = state.dual.X, state.sol.X + Minv
            scale = max(1.0, max(float(np.abs(np.linalg.eigvalsh(P)).max())
                                 for P in (upper, lower)))
            # Weyl: the sum is below its value at c = 0 beyond this box
            axis = np.linspace(-2.0, 2.0, 121) * np.sqrt(m.d) * scale
            grid = -np.inf
            for c1 in axis:
                shifts = c1 * S[0] + axis[:, None, None] * S[1]
                sums = (np.linalg.eigvalsh(upper - shifts)[:, 0]
                        + np.linalg.eigvalsh(lower + shifts)[:, 0])
                grid = max(grid, float(sums.max()))
            # each term moves by at most ||S_(c - c')||, so moving c by h/2
            # per coordinate moves the sum by at most this
            resolution = (axis[1] - axis[0]) * sum(np.linalg.norm(L, 2) for L in S)
            margin = state.sinf_margin(geom)
            assert grid - 1e-12 * scale <= margin <= grid + resolution, (t, margin, grid)

    @pytest.mark.parametrize("doc", [two_dimers_doc, three_dimers_doc])
    def test_margin_attained_at_block_shift(self, doc):
        # the obstructions are block diagonal on the joint eigenspaces of
        # the lifts, every lift is a scalar on each, and the shift built from
        # the blocks' smallest eigenvalues is a combination of the lifts at
        # which the full-matrix sum equals the margin; no sampled shift beats
        # it.  At some points that shift is far from zero.
        m = assemble_model(parse_spec(doc()))
        geom = lineality_space(m)
        blocks = geom.shift_blocks
        assert len(blocks) == geom.dim_L
        basis = np.hstack(blocks)
        assert np.abs(basis.T @ basis - np.eye(2 * m.n)).max() < 1e-12
        for lift in geom.L_lifts:
            for B in blocks:
                on_block = B.T @ lift @ B
                assert np.abs(on_block - on_block[0, 0] * np.eye(len(on_block))).max() < 1e-12
        Minv = steady_covariance(m).Minv
        rng = np.random.default_rng(25)
        gains = []
        for _ in range(4):
            u = geom.from_frame(rng.normal(size=geom.section_dim))
            u /= np.linalg.norm(u)
            t = rng.uniform(0.3, 0.99)
            state = TiltState(m, geom.center + t * section_boundary(m, geom, u) * u)
            upper, lower = state.dual.X, state.sol.X + Minv
            scale = max(1.0, max(float(np.abs(np.linalg.eigvalsh(P)).max())
                                 for P in (upper, lower)))
            for P in (upper, lower):
                for i, Bi in enumerate(blocks):
                    for Bj in blocks[i + 1:]:
                        assert np.abs(Bi.T @ P @ Bj).max() <= 1e-12 * scale

            def full_sum(shift):
                return (np.linalg.eigvalsh(upper - shift)[0]
                        + np.linalg.eigvalsh(lower + shift)[0])

            u_k = np.array([np.linalg.eigvalsh(B.T @ upper @ B)[0] for B in blocks])
            l_k = np.array([np.linalg.eigvalsh(B.T @ lower @ B)[0] for B in blocks])
            best = float(np.min(u_k + l_k))
            target = sum((s * B) @ B.T for s, B in zip(u_k - best / 2.0, blocks))
            coeffs = np.linalg.lstsq(geom.L_lifts.reshape(geom.dim_L, -1).T,
                                     target.ravel(), rcond=None)[0]
            shift = np.einsum("k,kij->ij", coeffs, geom.L_lifts)
            assert np.abs(shift - target).max() <= 1e-12 * scale
            margin = state.sinf_margin(geom)
            assert abs(full_sum(shift) - margin) <= 1e-12 * scale, (t, margin)
            for c in rng.normal(scale=scale, size=(50, geom.dim_L)):
                assert full_sum(np.einsum("k,kij->ij", c, geom.L_lifts)) <= margin + 1e-12 * scale
            gains.append(margin - full_sum(np.zeros_like(upper)))
        assert max(gains) > 1e-2

    def test_margin_cost_linear_in_dim_L(self, monkeypatch):
        # one pair of small eigenvalue solves per joint eigenspace: four
        # uncoupled dimers (dim L = 4) cost 8 solves a margin
        m = assemble_model(parse_spec(uncoupled_dimers_doc(
            (-0.3, -0.2, -0.25, -0.35),
            ((1.0, 2.0), (1.5, 4.0), (1.2, 3.0), (2.0, 2.5)))))
        geom = lineality_space(m)
        assert geom.dim_L == 4 and len(geom.shift_blocks) == 4
        state = TiltState(m, geom.center)
        state._pair
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: calls.append(a.shape) or eigvalsh(a))
        assert state.sinf_margin(geom) > 0.0
        assert calls == [(4, 4)] * 8

    def test_margin_midpoint_concave(self):
        # the maximal solution is matrix-concave in the tilt, so the margin
        # is concave on the open domain and the finite region is convex.
        # Seeded pairs reach up to 0.999 of the section radius, some ends
        # beyond the finite region.
        rng = np.random.default_rng(24)
        ends = []
        for name in ("lozenge_1_2_64", "triangular_1_2_64",
                     "heatpump_40_3.6_7_6.8", "dimer_1_64", "two_dimers"):
            m = _network(name)
            geom = lineality_space(m)

            def point():
                u = geom.from_frame(rng.normal(size=geom.section_dim))
                u /= np.linalg.norm(u)
                r = section_boundary(m, geom, u) * (1.0 - 10.0 ** rng.uniform(-3.0, 0.0))
                return geom.center + r * u + rng.normal(size=geom.dim_L) @ geom.L_basis

            for _ in range(12):
                a, b = point(), point()
                ma, mb, mid = (TiltState(m, xi).sinf_margin(geom)
                               for xi in (a, b, 0.5 * (a + b)))
                assert mid >= 0.5 * (ma + mb) - 1e-9 * (1.0 + abs(mid)), (name, a, b)
                ends += [ma, mb]
        assert min(ends) < 0.0 < max(ends)


def _finite_region_points(model, geometry, seed):
    """Seeded tilts inside the finite region, on rays from the origin at
    fractions of the exit radius.  Each is the interior maximizer of the
    Legendre objective at its own gradient flux."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(4):
        u = geometry.from_frame(rng.normal(size=geometry.section_dim))
        u /= np.linalg.norm(u)
        r = section_inf_boundary(model, geometry, u)
        points += [t * r * u for t in (0.3, 0.6, 0.9)]
    return points


class TestF0Margin:
    @pytest.mark.parametrize("name", NETWORKS)
    def test_matches_mirror_reference(self, name):
        m = _network(name)
        geom = lineality_space(m)
        for xi in _finite_region_points(m, geom, 4):
            state = TiltState(m, xi)
            margin = state.f0_margin(geom)
            ref = mirror_f0_margin(m, geom, state)
            assert np.sign(margin) == np.sign(ref), (xi, margin, ref)
            if geom.dim_L == 1:
                assert abs(margin - ref) < 1e-10, (xi, margin, ref)

    @pytest.mark.parametrize("name", NETWORKS)
    def test_conserved_shift_moves_solution_by_lift(self, name):
        # X(xi + l) = X(xi) + S_l for a conserved l, S_l its commuting lift
        m = _network(name)
        geom = lineality_space(m)
        rng = np.random.default_rng(5)
        P_L = geom.L_basis.T @ geom.L_basis
        for xi in _finite_region_points(m, geom, 4)[::3]:
            for ell in (P_L @ m.theta_inv,
                        geom.L_basis.T @ rng.normal(size=geom.dim_L)):
                shifted = riccati_pair(m, xi + ell)[0].X
                lifted = riccati_pair(m, xi)[0].X + commuting_lift(m, ell)
                assert (np.linalg.norm(shifted - lifted)
                        <= 1e-10 * np.linalg.norm(shifted))

    def test_no_solve_on_solved_state(self, lozenge_124, lozenge_124_geometry,
                                      monkeypatch):
        state = TiltState(lozenge_124, np.array([0.1, -0.05, -0.05]))
        state.sol, state.dual
        calls = []

        def counted(model, xi):
            calls.append(xi)
            return hamiltonian(model, xi)

        monkeypatch.setattr(cgf, "hamiltonian", counted)
        assert state.f0_margin(lozenge_124_geometry) > 0.0
        assert calls == []


class TestSectionGeometry:
    def test_triangular_equilibrium_disk(self, triangular_eq):
        geom = lineality_space(triangular_eq)
        for ang in np.linspace(0.0, np.pi, 6):
            u = geom.from_frame(np.array([np.cos(ang), np.sin(ang)]))
            r = section_boundary(triangular_eq, geom, u)
            assert abs(r - np.sqrt(3.0) / 2.0) < 1e-3

    def test_central_symmetry(self, lozenge_124, lozenge_124_geometry):
        geom = lozenge_124_geometry
        u = geom.from_frame(np.array([0.6, 0.8]))
        r_plus = section_boundary(lozenge_124, geom, u)
        r_minus = section_boundary(lozenge_124, geom, -u)
        # the domain is centrally symmetric about the projected center, so
        # the mirror of the boundary point along -u is again on the boundary
        mirrored = geom.project(lozenge_124.theta_inv) - (geom.center + r_plus * u)
        t = float((mirrored - geom.center) @ (-u))
        assert abs(t - r_minus) < 1e-5

    def test_radius_finite_all_directions(self, lozenge_eq):
        geom = lineality_space(lozenge_eq)
        for ang in np.linspace(0.0, 2 * np.pi, 8, endpoint=False):
            u = geom.from_frame(np.array([np.cos(ang), np.sin(ang)]))
            r = section_boundary(lozenge_eq, geom, u)
            assert 0.0 < r < 1e3

    def test_gradient_grows_toward_boundary(self, lozenge_124,
                                            lozenge_124_geometry):
        m, geom = lozenge_124, lozenge_124_geometry
        for ang in (0.3, 2.1):
            u = geom.from_frame(np.array([np.cos(ang), np.sin(ang)]))
            r = section_boundary(m, geom, u)
            norms = []
            for f in (0.90, 0.93, 0.96, 0.99):
                norms.append(np.linalg.norm(
                    TiltState(m, geom.center + f * r * u).grad))
            assert all(b > a for a, b in zip(norms, norms[1:]))

    def test_margin_consistency(self, lozenge_124, lozenge_124_geometry):
        geom = lozenge_124_geometry
        u = geom.frame[1]
        r = section_boundary(lozenge_124, geom, u)
        assert domain_margin(lozenge_124, geom.center + 0.5 * r * u) > 0.0
        assert domain_margin(lozenge_124, geom.center + 1.5 * r * u) < 0.0
