"""Network parsing, operator assembly and lift machinery."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxnet import (
    SpecificationError,
    assemble_model,
    canonical_lift,
    commuting_lift,
    kalman_controllable,
    load_spec,
    parse_spec,
    sample_stationary,
    steady_covariance,
)
from fluxnet.cgf import E_matrix_from_lift
from fluxnet.network import TiltLift, flux_density, flux_density_stack

from conftest import (
    lozenge_doc,
    random_network_doc,
    single_oscillator_doc,
    triangular_doc,
)

CONFIGS = Path(__file__).resolve().parent.parent / "src" / "fluxnet" / "configs"


class TestParse:
    def test_lozenge_shape(self):
        spec = parse_spec(lozenge_doc([1, 1, 1]))
        assert spec.n == 4 and spec.d == 3
        assert spec.boundary_ids == ("o1", "o2", "o3")

    def test_accepts_json_text(self):
        spec = parse_spec(json.dumps(single_oscillator_doc()))
        assert spec.n == 1 and spec.d == 1

    def test_minimal_single_oscillator(self):
        spec = parse_spec(single_oscillator_doc())
        assert spec.gamma[0] == 1.0 and spec.theta[0] == 1.0

    def test_not_positive_definite(self):
        doc = single_oscillator_doc()
        doc["kappa_sq"] = [[-0.1]]
        with pytest.raises(SpecificationError, match="not positive definite"):
            parse_spec(doc)

    def test_not_symmetric(self):
        doc = lozenge_doc([1, 1, 1])
        doc["kappa_sq"][0][1] = 0.5
        with pytest.raises(SpecificationError, match="not symmetric"):
            parse_spec(doc)

    def test_unknown_boundary_id(self):
        doc = single_oscillator_doc()
        doc["boundary"][0]["id"] = "nope"
        with pytest.raises(SpecificationError, match="unknown oscillator id"):
            parse_spec(doc)

    def test_nonpositive_rates(self):
        for key in ("gamma", "theta"):
            doc = single_oscillator_doc()
            doc["boundary"][0][key] = 0.0
            with pytest.raises(SpecificationError):
                parse_spec(doc)

    def test_empty_boundary(self):
        doc = single_oscillator_doc()
        doc["boundary"] = []
        with pytest.raises(SpecificationError):
            parse_spec(doc)

    def test_bad_json(self):
        with pytest.raises(SpecificationError, match="JSON"):
            parse_spec("{not json")

    def test_unknown_key_rejected(self):
        doc = single_oscillator_doc()
        doc["typo"] = 1
        with pytest.raises(SpecificationError, match="unknown top-level"):
            parse_spec(doc)

    def test_temperature_ratio_normalization(self):
        spec = parse_spec(lozenge_doc([1, 2, 64]))
        assert np.isclose(np.mean(1.0 / spec.theta), 1.0, atol=1e-14)
        assert spec.raw_theta is not None
        np.testing.assert_allclose(spec.raw_theta, [1.0, 2.0, 64.0])
        # ratios are preserved exactly
        np.testing.assert_allclose(spec.theta / spec.theta[0], [1.0, 2.0, 64.0])


class TestAssembly:
    def test_single_oscillator_blocks(self, single_oscillator):
        np.testing.assert_allclose(single_oscillator.A,
                                   [[-1.0, -1.0], [1.0, 0.0]], atol=1e-15)
        np.testing.assert_allclose(single_oscillator.Q.ravel(),
                                   [np.sqrt(2.0), 0.0], atol=1e-15)

    def test_diffusion_diagonal(self, lozenge_124):
        m = lozenge_124
        expected = np.zeros(m.dim)
        expected[m.boundary_index] = 2.0 * m.gamma * m.theta
        np.testing.assert_allclose(m.B, np.diag(expected), atol=1e-14)

    def structural_checks(self, m):
        assert np.linalg.norm(m.A + m.A.T + (m.Q * m.theta_inv[None, :]) @ m.Q.T,
                              2) < 1e-10
        # the antisymmetric part has trivial kernel
        assert np.linalg.svd(m.A - m.A.T, compute_uv=False)[-1] > 1e-10
        QtQ = m.Q.T @ m.Q
        assert np.linalg.eigvalsh(QtQ)[0] > 0.0
        assert np.linalg.norm(np.diag(m.theta) @ QtQ - QtQ @ np.diag(m.theta),
                              2) < 1e-10
        assert np.linalg.norm(m.time_reversal[:, None] * m.Q + m.Q, 2) < 1e-12
        assert np.linalg.norm(m.theta_conj(m.A) - m.A.T, 2) < 1e-12
        assert np.linalg.norm(m.theta_conj(m.B) - m.B, 2) < 1e-12
        assert np.linalg.norm(m.theta_conj(m.Omega) + m.Omega, 2) < 1e-12

    def test_structural_identities_examples(self, lozenge_eq, lozenge_1264,
                                            triangular_eq, heatpump):
        for m in (lozenge_eq, lozenge_1264, triangular_eq, heatpump):
            self.structural_checks(m)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_structural_identities_random(self, seed):
        rng = np.random.default_rng(seed)
        m = assemble_model(parse_spec(random_network_doc(rng, n_max=4)))
        self.structural_checks(m)

    def test_kappa_principal_root(self, triangular_eq):
        np.testing.assert_allclose(triangular_eq.kappa @ triangular_eq.kappa,
                                   triangular_eq.spec.kappa_sq, atol=1e-12)
        assert np.linalg.eigvalsh(triangular_eq.kappa)[0] > 0.0

    def test_equilibrium_covariance_end_to_end(self):
        t0 = 1.7
        doc = lozenge_doc([t0, t0, t0])
        doc["temperature_ratios"] = False
        m = assemble_model(parse_spec(doc))
        M = steady_covariance(m).M
        assert np.linalg.norm(M - t0 * np.eye(m.dim), 2) < 1e-10


class TestLifts:
    def test_zero_tilt(self, lozenge_124):
        lift = canonical_lift(lozenge_124, np.zeros(3))
        assert np.allclose(lift.xi_tilde, 0.0) and np.allclose(lift.sigma, 0.0)

    def test_lift_equations(self, heatpump):
        rng = np.random.default_rng(3)
        xi = rng.normal(size=heatpump.d)
        lift = canonical_lift(heatpump, xi)
        assert np.linalg.norm(lift.xi_tilde @ heatpump.Q
                              - heatpump.Q * xi[None, :], 2) < 1e-12
        assert np.linalg.norm(heatpump.theta_conj(lift.xi_tilde)
                              - lift.xi_tilde, 2) < 1e-12
        # flux density is odd under momentum flip
        assert np.linalg.norm(heatpump.theta_conj(lift.sigma) + lift.sigma,
                              2) < 1e-12

    def test_full_lift_of_ones_commutes(self, lozenge_124):
        m = lozenge_124
        full = TiltLift(xi=np.ones(3), xi_tilde=np.eye(m.dim),
                        sigma=np.zeros((m.dim, m.dim)))
        assert np.allclose(m.Omega @ full.xi_tilde - full.xi_tilde @ m.Omega, 0.0)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(-3, 3), min_size=3, max_size=3),
           st.lists(st.floats(-3, 3), min_size=3, max_size=3))
    def test_lift_linearity(self, lozenge_124, a, b):
        xi, eta = np.array(a), np.array(b)
        l1 = canonical_lift(lozenge_124, xi)
        l2 = canonical_lift(lozenge_124, eta)
        l12 = canonical_lift(lozenge_124, xi + eta)
        assert np.allclose(l12.xi_tilde, l1.xi_tilde + l2.xi_tilde, atol=1e-12)
        assert np.allclose(l12.sigma, l1.sigma + l2.sigma, atol=1e-12)

    def test_lift_independence_of_response(self, lozenge_124):
        # canonical lift vs canonical plus an interior-coordinate bump:
        # the frequency response only sees the tilt
        m = lozenge_124
        rng = np.random.default_rng(11)
        xi = rng.normal(size=3)
        base = canonical_lift(m, xi)
        bump = np.zeros(m.dim)
        interior = [i for i in range(m.n) if i not in set(m.boundary_index)]
        bump[interior] = 0.7
        bump[m.n:] = 0.3
        alt_tilde = base.xi_tilde + np.diag(bump)
        alt_sigma = m.Omega @ alt_tilde - alt_tilde @ m.Omega
        alt = TiltLift(xi=xi, xi_tilde=alt_tilde, sigma=alt_sigma)
        for w in rng.normal(scale=2.0, size=5):
            e1 = E_matrix_from_lift(m, base, w)
            e2 = E_matrix_from_lift(m, alt, w)
            assert np.linalg.norm(e1 - e2, 2) < 1e-10

    def test_commuting_lift_of_ones(self, triangular_eq):
        S = commuting_lift(triangular_eq, np.ones(3))
        np.testing.assert_allclose(S, np.eye(triangular_eq.dim), atol=1e-10)

    def test_commuting_lift_rejects_generic_tilt(self, lozenge_124):
        with pytest.raises(SpecificationError, match="lineality"):
            commuting_lift(lozenge_124, np.array([1.0, 0.0, 0.0]))


    @pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
    def test_rank_two_flux_density_matches_stack(self, name):
        m = assemble_model(load_spec(CONFIGS / f"{name}.json"))
        x = sample_stationary(m, np.random.default_rng(17), size=1000)
        x = x.reshape(40, 25, m.dim)
        dense = 0.5 * np.einsum("...i,dij,...j->...d", x, flux_density_stack(m), x)
        fast = flux_density(m, x)
        assert fast.shape == dense.shape == (40, 25, m.d)
        assert np.abs(fast - dense).max() <= 1e-13 * np.abs(dense).max()


class TestControllability:
    def test_single_oscillator(self, single_oscillator):
        ok, rank = kalman_controllable(single_oscillator)
        assert ok and rank == 2

    def test_examples(self, lozenge_eq, triangular_eq, heatpump):
        for m in (lozenge_eq, triangular_eq, heatpump):
            ok, rank = kalman_controllable(m)
            assert ok and rank == m.dim

    def test_decoupled_interior_fails(self):
        doc = {
            "oscillators": ["a", "b"],
            "kappa_sq": [[1.0, 0.0], [0.0, 2.0]],
            "boundary": [{"id": "a", "gamma": 1.0, "theta": 1.0}],
        }
        ok, rank = kalman_controllable(assemble_model(parse_spec(doc)))
        assert not ok and rank == 2
