"""Reference computation for the benchmark's output checks.

Built from the network description alone, with numpy and scipy, and
without importing fluxnet: the checks compare the program against this
module, so it must not share code with it.

Phase-space coordinates are the momenta p followed by the stiffness-weighted
positions kappa q.  The equations of motion

    dp = -kappa (kappa q) dt - gamma p dt + sqrt(2 gamma theta) dW   (boundary)
    d(kappa q) = kappa p dt

give the drift, the noise injection Q and the diffusion B = Q Q*.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.linalg

#: a doubled-matrix eigenvalue with |Re| below this share of ||K|| counts as
#: lying on the imaginary axis
AXIS_RTOL = 1e-8


class ReferenceNetwork:
    """Drift, noise, diffusion and stationary covariance of one network."""

    def __init__(self, doc: dict):
        ids = list(doc["oscillators"])
        n = len(ids)
        k2 = np.array(doc["kappa_sq"], dtype=float)
        index = np.array([ids.index(e["id"]) for e in doc["boundary"]])
        gamma = np.array([float(e["gamma"]) for e in doc["boundary"]])
        theta = np.array([float(e["theta"]) for e in doc["boundary"]])
        if doc.get("temperature_ratios", False):
            theta = theta * np.mean(1.0 / theta)
        w, V = np.linalg.eigh(0.5 * (k2 + k2.T))
        kappa = (V * np.sqrt(w)) @ V.T

        damping = np.zeros(n)
        damping[index] = gamma
        self.n, self.d = n, len(index)
        self.gamma, self.theta = gamma, theta
        self.theta_inv = 1.0 / theta
        self.A = np.block([[-np.diag(damping), -kappa],
                           [kappa, np.zeros((n, n))]])
        self.Q = np.zeros((2 * n, self.d))
        self.Q[index, np.arange(self.d)] = np.sqrt(2.0 * gamma * theta)
        self.B = self.Q @ self.Q.T
        self.M = scipy.linalg.solve_continuous_lyapunov(self.A, -self.B)
        self.momentum = index

    @classmethod
    def load(cls, path) -> "ReferenceNetwork":
        with open(path, "r", encoding="utf-8") as handle:
            return cls(json.load(handle))

    def mean_flux(self) -> np.ndarray:
        """Stationary heat flux out of each reservoir, gamma (theta - <p^2>)."""
        p2 = np.diag(self.M)[self.momentum]
        return self.gamma * (self.theta - p2)

    def entropy_production(self) -> float:
        return -float(self.theta_inv @ self.mean_flux())

    def doubled(self, xi) -> np.ndarray:
        """Doubled matrix K of a tilt: [[-A_xi, B], [C_xi, A_xi*]]."""
        xi = np.asarray(xi, dtype=float)
        A_xi = self.A + (self.Q * xi) @ self.Q.T
        C_xi = (self.Q * (xi * (self.theta_inv - xi))) @ self.Q.T
        return np.block([[-A_xi, self.B], [C_xi, A_xi.T]])

    def g(self, xi) -> float:
        """g = 1/4 tr(Q theta^-1 Q*) - 1/4 sum |Re lambda(K)|."""
        lam = np.linalg.eigvals(self.doubled(xi))
        base = float(np.trace((self.Q * self.theta_inv) @ self.Q.T))
        return 0.25 * base - 0.25 * float(np.abs(lam.real).sum())

    def grad_g(self, xi, step: float = 1e-5) -> np.ndarray:
        """Central differences of g."""
        xi = np.asarray(xi, dtype=float)
        out = np.empty(self.d)
        for j in range(self.d):
            e = np.zeros(self.d)
            e[j] = step
            out[j] = (self.g(xi + e) - self.g(xi - e)) / (2.0 * step)
        return out

    def in_domain(self, xi) -> bool:
        """Open essential domain: no eigenvalue of K on the imaginary axis."""
        K = self.doubled(xi)
        lam = np.linalg.eigvals(K)
        return float(np.abs(lam.real).min()) > AXIS_RTOL * np.linalg.norm(K, 2)

    def radius(self, center, u, tol: float = 1e-10) -> float:
        """Exit radius of the domain from a point inside it along u."""
        center = np.asarray(center, dtype=float)
        u = np.asarray(u, dtype=float)
        lo, hi = 0.0, 1.0
        while self.in_domain(center + hi * u):
            lo, hi = hi, 2.0 * hi
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if self.in_domain(center + mid * u):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)
