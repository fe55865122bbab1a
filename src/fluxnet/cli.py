"""Command-line interface.

Subcommands: ``validate``, ``gap-scan``, ``rate``, ``cgf``, ``simulate``.
Every output starts with ``#``-prefixed manifest lines (command, input
hash, version, seed, flags, wall clock); the data section below them
is a plain CSV table and is byte-reproducible for identical inputs, flags
and seed.  ``--json`` mirrors the same content as a JSON document; the
``validate`` report is plain text and has no JSON form.

Exit codes: 0 success, 1 numerical failure (or failed controllability in
``validate``), 2 invalid input.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__
from .cgf import (
    DomainGeometry,
    TiltState,
    g_value,
    lineality_space,
    section_boundary,
    section_inf_boundary,
)
from .errors import FluxnetError, SpecificationError
from .ldp import (
    _scan_directions,
    condition_R_scan,
    entropy_production,
    rate_function,
)
from .network import LinearModel, assemble_model, kalman_controllable, load_spec
from .simulate import SimConfig, empirical_cgf

#: flux components smaller than this count as zero when flagging equilibrium
EQUILIBRIUM_TOL = 1e-12


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            digest.update(handle.read())
    except OSError as exc:
        raise SpecificationError(f"cannot read {path}: {exc}") from exc
    return digest.hexdigest()


class Manifest:
    """Provenance header embedded in every output."""

    def __init__(self, command: str, path: str, seed=None, **extras):
        self.fields = {
            "tool": "fluxnet",
            "version": __version__,
            "command": command,
            "input": path,
            "input_sha256": _sha256(path),
            "seed": "" if seed is None else str(seed),
        }
        self.fields.update({k: _fmt(v) for k, v in extras.items()})
        self._t0 = time.monotonic()

    def finish(self) -> dict:
        done = dict(self.fields)
        done["wall_clock_s"] = f"{time.monotonic() - self._t0:.3f}"
        done["generated"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        return done

    def lines(self) -> list[str]:
        return [f"# {key}={value}" for key, value in self.finish().items()]


def _json_value(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return str(value)


def _emit(args, manifest: Manifest, columns: list[str], rows: list[list],
          footer: dict | None = None) -> None:
    if args.json:
        doc = {
            "manifest": manifest.finish(),
            "columns": columns,
            "rows": [[_json_value(v) for v in row] for row in rows],
            "footer": {k: _json_value(v) for k, v in (footer or {}).items()},
        }
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = manifest.lines()
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        for key, value in (footer or {}).items():
            lines.append(f"# {key}={_fmt(value)}")
        text = "\n".join(lines) + "\n"
    _write(args, text)


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise SpecificationError(f"cannot write {path}: {exc}") from exc


def _write(args, text: str) -> None:
    if args.out:
        _write_file(args.out, text)
    else:
        sys.stdout.write(text)


def _parse_tilt(text: str, d: int) -> np.ndarray:
    """A comma-separated tilt with ``d`` finite components."""
    message = f"each tilt needs {d} finite components: {text!r}"
    try:
        xi = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise SpecificationError(message) from exc
    if xi.shape != (d,) or not np.all(np.isfinite(xi)):
        raise SpecificationError(message)
    return xi


def _load(args) -> tuple[LinearModel, DomainGeometry]:
    spec = load_spec(args.spec)
    model = assemble_model(spec)
    return model, lineality_space(model)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    manifest = Manifest("validate", args.spec)
    spec = load_spec(args.spec)
    model = assemble_model(spec)
    controllable, rank = kalman_controllable(model)
    lines = [f"oscillators: {model.n}  boundary: {model.d}",
             f"controllability (C): {'OK' if controllable else 'FAILED'} "
             f"(rank {rank} of {model.dim})"]
    if controllable:
        geometry = lineality_space(model)
        ep = entropy_production(model)
        equilibrium = float(np.ptp(model.theta)) <= EQUILIBRIUM_TOL * model.theta.max()
        lines.append(f"dim lineality space: {geometry.dim_L}")
        lines.append(f"equilibrium: {'yes' if equilibrium else 'no'}")
        lines.append(f"entropy production rate: {float(ep.ep)!r}")
        lines.append("mean flux: " + " ".join(repr(float(v)) for v in ep.mean_flux))
    _write(args, "\n".join(manifest.lines() + lines) + "\n")
    return 0 if controllable else 1


def cmd_gap_scan(args) -> int:
    manifest = Manifest("gap-scan", args.spec, dirs=args.dirs)
    model, geometry = _load(args)
    scan = condition_R_scan(model, geometry, args.dirs)
    if geometry.section_dim == 3:
        polar_cols = ["azimuth", "polar", "disk_x", "disk_y"]
    else:
        polar_cols = ["angle"]
    columns = (["dir_index"] + polar_cols
               + [f"xi_{name}" for name in model.spec.boundary_ids]
               + ["Lambda_plus", "Lambda_minus", "gap"])
    rows = []
    for idx in range(len(scan.directions)):
        rows.append([idx, *scan.polar[idx], *scan.xi_boundary[idx],
                     scan.Lambda_plus[idx], scan.Lambda_minus[idx],
                     scan.gap[idx]])
    _emit(args, manifest, columns, rows,
          footer={"min_gap": scan.min_gap, "condition_R": scan.condition_R})
    return 0


def _phi_grid(model: LinearModel, geometry: DomainGeometry,
              per_axis: int, extent: float | None) -> np.ndarray:
    """Flux grid in frame coordinates, centered at the mean flux."""
    if per_axis < 2:
        raise SpecificationError("need at least 2 grid points per axis")
    if extent is not None and not (np.isfinite(extent) and extent > 0.0):
        raise SpecificationError(f"grid half-width must be finite and positive: {extent!r}")
    mean = entropy_production(model).mean_flux
    center = geometry.to_frame(mean)
    scale = float(np.linalg.norm(mean))
    half = extent if extent is not None else (3.0 * scale if scale > 1e-12 else 0.5)
    axes = [center[j] + np.linspace(-half, half, per_axis)
            for j in range(geometry.section_dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def cmd_rate(args) -> int:
    manifest = Manifest("rate", args.spec, grid=args.grid, extent=args.extent)
    model, geometry = _load(args)
    geometry.require_section()
    coords = _phi_grid(model, geometry, args.grid, args.extent)
    results = [rate_function(model, geometry, geometry.from_frame(c))
               for c in coords]
    columns = ([f"phi_c{j+1}" for j in range(geometry.section_dim)]
               + [f"phi_{name}" for name in model.spec.boundary_ids]
               + ["I", "Delta", "interior", "in_F0", "conjectural_global"])
    rows = []
    for c, res in zip(coords, results):
        rows.append([*c, *res.phi, res.I_value, res.anomaly, res.interior,
                     res.in_F0, res.conjectural_global])
    _emit(args, manifest, columns, rows)
    return 0


def cmd_cgf(args) -> int:
    manifest = Manifest("cgf", args.spec, xi=args.xi or "", dirs=args.dirs,
                        radii=args.radii)
    model, geometry = _load(args)
    columns = (["dir_index", "radius_frac"]
               + [f"xi_{name}" for name in model.spec.boundary_ids]
               + ["margin", "in_D", "g_integral", "g_spectral", "g_riccati"]
               + [f"grad_{name}" for name in model.spec.boundary_ids]
               + ["Lambda_minus", "Lambda_plus", "in_Dinf"])

    def row_for(xi, dir_index=-1, frac=float("nan")):
        state = g_value(model, xi)
        state.cross_check()
        nan = float("nan")
        if state.in_D:
            grad, lam = list(state.grad), state.lambdas
            tail = [lam.minus, lam.plus, lam.in_Dinf]
        else:
            grad, tail = [nan] * model.d, [nan, nan, ""]
        return ([dir_index, frac, *xi, state.margin, state.in_D,
                 nan if state.g_integral is None else state.g_integral,
                 state.g_spectral, state.g, *grad, *tail])

    rows = []
    if args.xi:
        rows.append(row_for(_parse_tilt(args.xi, model.d)))
    else:
        geometry.require_section()
        if args.radii < 1 or args.dirs < 1:
            raise SpecificationError("need at least 1 scan direction and 1 radius")
        fracs = [(j + 1.0) / (args.radii + 1.0) for j in range(args.radii)]
        dirs, _ = _scan_directions(geometry.section_dim, args.dirs)
        for idx, dc in enumerate(dirs):
            u = geometry.from_frame(dc)
            r = section_boundary(model, geometry, u)
            for frac in fracs:
                rows.append(row_for(geometry.center + frac * r * u, idx, frac))
    _emit(args, manifest, columns, rows)
    return 0


def _default_tilts(model: LinearModel, geometry: DomainGeometry) -> list[np.ndarray]:
    """Five small tilts inside the validity window of the estimator."""
    geometry.require_section()
    lam0 = TiltState(model, np.zeros(model.d)).lambdas
    dist = np.sqrt(model.d) * min(-lam0.minus, lam0.plus)
    for u in (geometry.frame[0], -geometry.frame[0]):
        dist = min(dist, section_inf_boundary(model, geometry, u))
    scale = 0.1 * dist
    ones = np.ones(model.d) / np.sqrt(model.d)
    f1 = geometry.frame[0]
    f2 = geometry.frame[1] if geometry.section_dim > 1 else ones
    dirs = [f1, -f1, f2, ones, (f1 + f2) / np.linalg.norm(f1 + f2)]
    return [scale * u for u in dirs]


def cmd_simulate(args) -> int:
    manifest = Manifest("simulate", args.spec, seed=args.seed, traj=args.traj,
                        T=args.T, h=args.h)
    model, geometry = _load(args)
    if args.tilts:
        tilts = [_parse_tilt(part, model.d) for part in args.tilts.split(";")]
    else:
        tilts = _default_tilts(model, geometry)
    config = SimConfig(seed=args.seed, n_traj=args.traj, horizon=args.T,
                       step=args.h, tilts=tuple(tilts))
    stats = empirical_cgf(model, config, L_basis=geometry.L_basis)
    analytic = entropy_production(model).mean_flux

    columns = ["record", "label", "value_1", "value_2", "value_3", "value_4",
               "value_5", "value_6", "pass"]
    rows = []
    for i, name in enumerate(model.spec.boundary_ids):
        dev = abs(stats.mean_flux[i] - analytic[i])
        ok = dev <= 3.0 * stats.mean_flux_se[i]
        rows.append(["mean_flux", name, stats.mean_flux[i],
                     stats.mean_flux_se[i], analytic[i], dev, "", "", ok])
    for est in stats.cgf:
        analytic_g = g_value(model, est.tilt).g
        ok = est.ci_low <= est.finite_horizon <= est.ci_high
        label = "(" + " ".join(repr(float(v)) for v in est.tilt) + ")"
        rows.append(["cgf", label, est.value, est.ci_low, est.ci_high,
                     analytic_g, est.max_weight, est.finite_horizon,
                     ok and est.reliable])
    for check in stats.conserved:
        ok = 0.8 <= check.ratio <= 1.25
        label = "(" + " ".join(repr(float(v)) for v in check.direction) + ")"
        rows.append(["conserved_var", label, check.var_T, check.var_2T,
                     check.ratio, "", "", "", ok])
    _emit(args, manifest, columns, rows,
          footer={"horizon": stats.horizon, "step": stats.step,
                  "n_traj": stats.n_traj, "workers": stats.workers})

    if args.per_traj:
        per_manifest = Manifest("simulate-trajectories", args.spec,
                                seed=args.seed, traj=args.traj,
                                T=args.T, h=args.h)
        lines = per_manifest.lines()
        lines.append("traj_index," + ",".join(
            f"phi_{name}" for name in model.spec.boundary_ids))
        for j, row in enumerate(stats.flux):
            lines.append(",".join([str(j)] + [repr(float(v)) for v in row]))
        _write_file(args.per_traj, "\n".join(lines) + "\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so in-process callers of :func:`main` share it."""
    parser = argparse.ArgumentParser(
        prog="fluxnet",
        description="Steady-state heat-flux statistics of thermally driven "
                    "harmonic networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, table=True):
        p.add_argument("spec", help="network description file (JSON)")
        p.add_argument("--out", help="output file (default: stdout)")
        if table:
            p.add_argument("--json", action="store_true",
                           help="emit JSON instead of CSV")

    p = sub.add_parser("validate", help="check a network description")
    common(p, table=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gap-scan", help="spectral gap on the section boundary")
    common(p)
    p.add_argument("--dirs", type=int, default=64, help="scan directions")
    p.set_defaults(func=cmd_gap_scan)

    p = sub.add_parser("rate", help="rate function and anomaly on a flux grid")
    common(p)
    p.add_argument("--grid", type=int, default=5, help="grid points per axis")
    p.add_argument("--extent", type=float, default=None,
                   help="grid half-width (default: 3 |mean flux|)")
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("cgf", help="cumulant generating function scan")
    common(p)
    p.add_argument("--xi", help="single tilt, comma separated components")
    p.add_argument("--dirs", type=int, default=16,
                   help="section directions (the same directions as gap-scan)")
    p.add_argument("--radii", type=int, default=5, help="radii per direction")
    p.set_defaults(func=cmd_cgf)

    p = sub.add_parser(
        "simulate", help="Monte Carlo cross-check",
        description="Monte Carlo cross-check of the mean fluxes, the "
                    "generating function at small tilts and the conserved "
                    "flux variances.  Each cgf row holds the estimate, its "
                    "bootstrap interval (the intervals of all tilts are "
                    "family-wise 95%, Bonferroni), the long-time limit g, the "
                    "largest normalized trajectory weight and the exact "
                    "finite-horizon value g_T of the simulated discrete "
                    "path (value_1 to value_6).  Its pass column tests g_T, "
                    "not g, against the interval (g_T - g is O(1/T)) and "
                    "requires the weight to be at most 1/2.")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--traj", type=int, default=10_000, help="trajectory count")
    p.add_argument("--T", type=float, default=None, help="horizon")
    p.add_argument("--h", type=float, default=None, help="step size")
    p.add_argument("--tilts", help="semicolon-separated tilt vectors")
    p.add_argument("--per-traj", help="write per-trajectory fluxes here")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FluxnetError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
