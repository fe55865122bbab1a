"""Output checks of the benchmark's operations.

Each check compares an output with the independent reference
(``reference.py``) or with a property the method must have, never with a
stored copy of an earlier output.  A check returns the list of problems it
found; an empty list means the output passed.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.stats

from reference import ReferenceNetwork

#: relative agreement with the reference for closed-form quantities
REF_TOL = 1e-9
#: agreement of the three routes to g (the program's own cross-check level)
ROUTES_TOL = 1e-6
#: gradient against central differences of the reference g
GRAD_TOL = 1e-5
#: distance from a reported domain-boundary tilt at which membership is probed
BOUNDARY_STEP = 1e-5
#: Monte Carlo estimates may lie this many standard errors from their target;
#: wide enough that a correct program fails it about once in 10^6 runs
MC_SIGMAS = 5.0


def _close(value, ref, tol) -> bool:
    return abs(float(value) - float(ref)) <= tol * (1.0 + abs(float(ref)))


def _rows(text: str) -> tuple[list[str], list[list], dict]:
    doc = json.loads(text)
    return doc["columns"], doc["rows"], doc["footer"]


def _column(columns, rows, prefix) -> np.ndarray:
    idx = [j for j, c in enumerate(columns) if c.startswith(prefix)]
    return np.array([[float(row[j]) for j in idx] for row in rows])


def _second_differences_ok(values, tol=1e-8) -> bool:
    v = np.asarray(values, dtype=float)
    if len(v) < 3:
        return True
    second = v[:-2] - 2.0 * v[1:-1] + v[2:]
    return bool(np.all(second >= -tol * (1.0 + np.abs(v).max())))


def validate(net: ReferenceNetwork, label: str, text: str) -> list[str]:
    """Mean fluxes and entropy production against the reference."""
    fields = {}
    for line in text.splitlines():
        if not line.startswith("#"):
            key, _, value = line.partition(":")
            fields[key.strip()] = value.strip()
    try:
        ep = float(fields["entropy production rate"])
        flux = np.array(fields["mean flux"].split(), dtype=float)
    except (KeyError, ValueError) as exc:
        return [f"{label}: unreadable validate output ({exc})"]
    problems = []
    ref = net.mean_flux()
    if flux.shape != ref.shape or not all(_close(a, b, REF_TOL) for a, b in zip(flux, ref)):
        problems.append(f"{label}: mean flux {flux} != reference {ref}")
    if not _close(ep, net.entropy_production(), REF_TOL):
        problems.append(f"{label}: entropy production {ep} != reference "
                        f"{net.entropy_production()}")
    if np.ptp(net.theta) == 0.0 and abs(ep) > REF_TOL:
        problems.append(f"{label}: entropy production {ep} at equilibrium")
    if "heatpump_10_3.6_7_6.8" in label and tuple(np.sign(flux)) != (1, -1, -1, 1):
        problems.append(f"{label}: heat-pump flux signs {np.sign(flux)} != (+, -, -, +)")
    return problems


def gap_scan(net: ReferenceNetwork, label: str, text: str) -> list[str]:
    """Condition R holds, and every boundary tilt sits on the reference
    domain boundary: inside just short of it, on the axis just beyond."""
    columns, rows, footer = _rows(text)
    problems = []
    if footer.get("condition_R") is not True:
        problems.append(f"{label}: condition_R is {footer.get('condition_R')}")
    center = 0.5 * net.theta_inv
    for k, xi in enumerate(_column(columns, rows, "xi_")):
        u = (xi - center) / np.linalg.norm(xi - center)
        if not net.in_domain(xi - BOUNDARY_STEP * u):
            problems.append(f"{label}: row {k} boundary tilt lies beyond the domain")
        if net.in_domain(xi + BOUNDARY_STEP * u):
            problems.append(f"{label}: row {k} boundary tilt lies inside the domain")
    return problems


def cgf(net: ReferenceNetwork, label: str, text: str) -> list[str]:
    """g against the reference, the three routes against each other, the
    gradient against central differences, convexity along radial rays."""
    columns, rows, _ = _rows(text)
    col = {c: j for j, c in enumerate(columns)}
    xis = _column(columns, rows, "xi_")
    grads = _column(columns, rows, "grad_")
    problems = []
    for k, (row, xi, grad) in enumerate(zip(rows, xis, grads)):
        routes = [float(row[col[c]]) for c in ("g_integral", "g_spectral", "g_riccati")]
        if row[col["in_D"]] is not True or not np.all(np.isfinite(routes)):
            problems.append(f"{label}: row {k} not evaluated inside the domain")
            continue
        g_ref = net.g(xi)
        if not _close(routes[1], g_ref, REF_TOL):
            problems.append(f"{label}: row {k} g_spectral {routes[1]} != reference {g_ref}")
        if max(routes) - min(routes) > ROUTES_TOL * (1.0 + max(map(abs, routes))):
            problems.append(f"{label}: row {k} routes disagree {routes}")
        ref_grad = net.grad_g(xi)
        if np.abs(grad - ref_grad).max() > GRAD_TOL * (1.0 + np.abs(ref_grad).max()):
            problems.append(f"{label}: row {k} grad {grad} != reference {ref_grad}")
    by_dir: dict[int, list[tuple[float, float]]] = {}
    for row in rows:
        if row[col["dir_index"]] >= 0:
            by_dir.setdefault(row[col["dir_index"]], []).append(
                (float(row[col["radius_frac"]]), float(row[col["g_spectral"]])))
    for idx, ray in by_dir.items():
        ray.sort()
        if not _second_differences_ok([g for _, g in ray]):
            problems.append(f"{label}: g not convex along direction {idx}")
    return problems


def rate(net: ReferenceNetwork, label: str, text: str,
         relation_holds: bool) -> list[str]:
    """I >= 0, I = 0 at the mean flux, I convex along each grid axis, and no
    anomaly where the fluctuation relation holds (Condition R)."""
    columns, rows, _ = _rows(text)
    col = {c: j for j, c in enumerate(columns)}
    coords = _column(columns, rows, "phi_c")
    phis = np.array([[float(r[j]) for j, c in enumerate(columns)
                      if c.startswith("phi_") and not c.startswith("phi_c")]
                     for r in rows])
    I = np.array([float(r[col["I"]]) for r in rows])
    delta = np.array([float(r[col["Delta"]]) for r in rows])
    problems = []
    if I.min() < -1e-10:
        problems.append(f"{label}: negative rate {I.min()}")
    mean = net.mean_flux()
    at_mean = np.abs(phis - mean).max(axis=1) <= 1e-9 * (1.0 + np.abs(mean).max())
    if np.any(at_mean) and np.abs(I[at_mean]).max() > 1e-9:
        problems.append(f"{label}: I = {I[at_mean]} at the mean flux")
    if relation_holds and np.abs(delta).max() > 1e-6:
        problems.append(f"{label}: anomaly {np.abs(delta).max()} where Condition R holds")
    for axis in range(coords.shape[1]):
        others = np.delete(coords, axis, axis=1).round(9)
        for key in {tuple(o) for o in others}:
            line = np.all(others == key, axis=1)
            order = np.argsort(coords[line, axis])
            if not _second_differences_ok(I[line][order]):
                problems.append(f"{label}: I not convex along grid axis {axis}")
    return problems


def rate_point(net: ReferenceNetwork, label: str, phi: np.ndarray, res) -> list[str]:
    """I >= 0, I = xi* . phi - g(xi*), phi = grad g(xi*) at interior points."""
    problems = []
    if res.I_value < -1e-10:
        problems.append(f"{label}: negative rate {res.I_value}")
    legendre = float(res.xi_star @ phi) - net.g(res.xi_star)
    if not _close(res.I_value, legendre, 1e-7):
        problems.append(f"{label}: I = {res.I_value} but xi*.phi - g(xi*) = {legendre}")
    if res.interior:
        grad = net.grad_g(res.xi_star)
        if np.abs(grad - phi).max() > GRAD_TOL * (1.0 + np.abs(phi).max()):
            problems.append(f"{label}: phi {phi} != grad g(xi*) {grad}")
    mean = net.mean_flux()
    if np.abs(phi - mean).max() <= 1e-12 * (1.0 + np.abs(mean).max()) \
            and abs(res.I_value) > 1e-9:
        problems.append(f"{label}: I = {res.I_value} at the mean flux")
    return problems


def rate_line(net: ReferenceNetwork, factors, results) -> list[str]:
    """Convexity along the flux line through the mean, using I(phi) and
    I(-phi) = I(phi) - Delta - <theta^-1, phi>, and a macroscopic anomaly."""
    mean = net.mean_flux()
    points = {}
    for f, res in zip(factors, results):
        phi = f * mean
        points[f] = res.I_value
        points[-f] = res.I_value - res.anomaly - float(net.theta_inv @ phi)
    fs = np.array(sorted(points))
    I = np.array([points[f] for f in fs])
    problems = []
    # second divided differences on the uneven grid of factors
    slopes = np.diff(I) / np.diff(fs)
    if np.any(np.diff(slopes) < -1e-8 * (1.0 + np.abs(slopes).max())):
        problems.append("rate-boundary: I not convex along the flux line")
    if max(abs(res.anomaly) for res in results) <= 1e-3:
        problems.append("rate-boundary: no anomaly above 1e-3")
    return problems


def simulate(net: ReferenceNetwork, label: str, text: str) -> list[str]:
    """Mean fluxes and cgf estimates within MC_SIGMAS standard errors of
    their exact targets, conserved-variance and weight checks passed, mean
    fluxes summing to about zero, value_4 equal to the reference g."""
    _, rows, footer = _rows(text)
    problems = []
    mean_rows = [r for r in rows if r[0] == "mean_flux"]
    cgf_rows = [r for r in rows if r[0] == "cgf"]
    conserved = [r for r in rows if r[0] == "conserved_var"]
    ref = net.mean_flux()
    est = np.array([float(r[2]) for r in mean_rows])
    se = np.array([float(r[3]) for r in mean_rows])
    if len(est) != net.d:
        return [f"{label}: {len(est)} mean-flux rows for {net.d} reservoirs"]
    if np.any(np.abs(est - ref) > MC_SIGMAS * se):
        problems.append(f"{label}: mean flux {est} not within {MC_SIGMAS} SE {se} of {ref}")
    if not np.allclose([float(r[4]) for r in mean_rows], ref, rtol=REF_TOL, atol=REF_TOL):
        problems.append(f"{label}: analytic mean flux differs from the reference")
    if not conserved:
        problems.append(f"{label}: no conserved-variance row")
    for r in conserved:
        if r[-1] is not True:
            problems.append(f"{label}: conserved variance ratio {r[4]} fails")
    # the all-ones component (the first conserved row) is a boundary term:
    # its variance does not grow with the horizon, so the summed mean flux
    # is zero within its error
    horizon = float(footer["horizon"])
    var_ones = float(conserved[0][2]) if conserved else 0.0
    se_sum = np.sqrt(net.d * var_ones / float(footer["n_traj"])) / horizon
    if abs(est.sum()) > MC_SIGMAS * se_sum:
        problems.append(f"{label}: mean fluxes sum to {est.sum()} (SE {se_sum})")
    if not cgf_rows:
        problems.append(f"{label}: no cgf rows")
    z = scipy.stats.norm.ppf(1.0 - 0.025 / max(len(cgf_rows), 1))
    for r in cgf_rows:
        tilt = np.array(r[1].strip("()").split(), dtype=float)
        value, lo, hi, g_lim, weight, g_T = (float(v) for v in r[2:8])
        if not _close(g_lim, net.g(tilt), REF_TOL):
            problems.append(f"{label}: value_4 {g_lim} != reference g {net.g(tilt)}")
        if weight > 0.5:
            problems.append(f"{label}: estimate at {r[1]} carried by one trajectory")
        sigma = (hi - lo) / (2.0 * z)
        if not np.isfinite(g_T) or abs(value - g_T) > MC_SIGMAS * sigma:
            problems.append(f"{label}: estimate {value} at {r[1]} is "
                            f"{abs(value - g_T) / sigma:.1f} sigma from g_T {g_T}")
    return problems
