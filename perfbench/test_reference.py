"""Closed-form checks of the benchmark's reference computation.

Run with ``python3 -m pytest perfbench``; needs numpy, scipy and pytest only.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from reference import ReferenceNetwork  # noqa: E402

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "src", "fluxnet", "configs")


def load(name):
    return ReferenceNetwork.load(os.path.join(CONFIGS, name + ".json"))


ALL = ["lozenge_eq", "lozenge_1_2_4", "lozenge_1_2_64", "triangular_eq",
       "triangular_1_2_4", "triangular_1_2_64", "heatpump_10_3.6_7_6.8",
       "heatpump_20_3.6_7_6.8", "heatpump_40_3.6_7_6.8"]


@pytest.mark.parametrize("name", ["lozenge_eq", "triangular_eq"])
def test_equilibrium_covariance_is_theta_identity(name):
    net = load(name)
    assert np.allclose(net.theta, 1.0)
    assert np.linalg.norm(net.M - np.eye(2 * net.n), 2) < 1e-10


def test_equilibrium_covariance_without_ratios():
    doc = {"oscillators": ["a", "b"], "kappa_sq": [[1.0, 0.3], [0.3, 2.0]],
           "boundary": [{"id": "a", "gamma": 0.7, "theta": 2.3},
                        {"id": "b", "gamma": 1.1, "theta": 2.3}]}
    net = ReferenceNetwork(doc)
    assert np.linalg.norm(net.M - 2.3 * np.eye(4), 2) < 1e-10
    assert np.abs(net.mean_flux()).max() < 1e-12


@pytest.mark.parametrize("name", ALL)
def test_temperature_ratios_give_unit_mean_inverse_temperature(name):
    assert abs(np.mean(load(name).theta_inv) - 1.0) < 1e-12


@pytest.mark.parametrize("name", ALL)
def test_g_vanishes_at_zero_and_inverse_temperatures(name):
    net = load(name)
    assert abs(net.g(np.zeros(net.d))) < 1e-10
    assert abs(net.g(net.theta_inv)) < 1e-10


@pytest.mark.parametrize("name", ALL)
def test_g_mirror_symmetry(name):
    net = load(name)
    rng = np.random.default_rng(7)
    for _ in range(10):
        xi = rng.uniform(0.0, 1.0, size=net.d) * net.theta_inv
        assert abs(net.g(xi) - net.g(net.theta_inv - xi)) < 1e-10


@pytest.mark.parametrize("name", ALL)
def test_mean_fluxes_are_conserved(name):
    flux = load(name).mean_flux()
    assert abs(flux.sum()) < 1e-10 * (1.0 + np.abs(flux).max())


def test_triangular_equilibrium_section_radius():
    net = load("triangular_eq")
    center = 0.5 * net.theta_inv
    ones = np.ones(3) / np.sqrt(3.0)
    e1 = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    e2 = np.cross(ones, e1)
    for angle in np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False):
        u = np.cos(angle) * e1 + np.sin(angle) * e2
        assert abs(net.radius(center, u) - np.sqrt(3.0) / 2.0) < 1e-8


def test_domain_test_outside_is_outside():
    net = load("lozenge_1_2_4")
    assert net.in_domain(0.5 * net.theta_inv)
    assert not net.in_domain(0.5 * net.theta_inv + 5.0 * np.array([1.0, -1.0, 0.0]))
