"""The benchmark's workloads: the operations of one round, with their checks.

A round is a fixed list of operations run one after another by a single
caller.  Every round of a run is the same list on the same inputs, so the
traced call counts per round repeat exactly.  fluxnet is reached through
module attributes at call time, so that a tracer installed after import
sees every call.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import fluxnet.cgf
import fluxnet.cli
import fluxnet.ldp
import fluxnet.network
import fluxnet.simulate

import checks
import inputs
from reference import ReferenceNetwork

D1 = ("ROADMAP D1: cgf.lineality_space finds no all-ones tilt in the "
      "lineality space of a single-reservoir network")


class OperationFailed(Exception):
    """A subcommand exited non-zero."""


@dataclass
class Op:
    kind: str                          # subcommand or library function
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]    # problems with the output
    items: float = 1.0                 # units of work, for throughputs
    known_defect: str = ""             # why the operation fails today


def _name(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def cli_op(argv: list[str], check, items: float = 1.0,
           known_defect: str = "") -> Op:
    label = " ".join([argv[0], _name(argv[1])] + argv[2:])

    def run() -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fluxnet.cli.main(argv)
        if code != 0:
            raise OperationFailed(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue()

    return Op(argv[0], label, run, lambda text: check(label, text), items, known_defect)


class Analytic:
    """Bundled configs through the command line: validate, gap-scan, cgf
    (radial scan and seeded single tilts) and interior rate grids."""

    name = "analytic"

    def __init__(self, seed: int):
        self.refs = {path: ReferenceNetwork.load(path) for path in inputs.VALIDATE}
        heatpump = self.refs[inputs.HEATPUMP]
        rng = np.random.default_rng(seed)
        self.tilts = [rng.uniform(0.0, 1.0, heatpump.d) * heatpump.theta_inv
                      for _ in range(inputs.CGF_XI_TILTS)]

    def ops(self) -> list[Op]:
        hp, lz = inputs.HEATPUMP, inputs.LOZENGE
        ref = self.refs
        ops = [cli_op(["validate", path],
                      lambda label, text, net=ref[path]: checks.validate(net, label, text),
                      known_defect=D1 if path == inputs.SINGLE else "")
               for path in inputs.VALIDATE]
        ops.append(cli_op(
            ["gap-scan", hp, "--dirs", str(inputs.GAP_DIRS), "--json"],
            lambda label, text: checks.gap_scan(ref[hp], label, text),
            items=inputs.GAP_DIRS))
        ops.append(cli_op(
            ["cgf", lz, "--dirs", str(inputs.CGF_DIRS),
             "--radii", str(inputs.CGF_RADII), "--json"],
            lambda label, text: checks.cgf(ref[lz], label, text),
            items=inputs.CGF_DIRS * inputs.CGF_RADII))
        for xi in self.tilts:
            ops.append(cli_op(
                ["cgf", hp, "--xi", ",".join(repr(float(v)) for v in xi), "--json"],
                lambda label, text: checks.cgf(ref[hp], label, text)))
        ops.append(cli_op(
            ["rate", lz, "--grid", str(inputs.RATE_GRID_LOZENGE), "--json"],
            lambda label, text: checks.rate(ref[lz], label, text, relation_holds=False),
            items=inputs.RATE_GRID_LOZENGE ** 2))
        ops.append(cli_op(
            ["rate", hp, "--grid", str(inputs.RATE_GRID_HEATPUMP), "--json"],
            lambda label, text: checks.rate(ref[hp], label, text, relation_holds=True),
            items=inputs.RATE_GRID_HEATPUMP ** 3))
        return ops

    def check_round(self, outputs: list) -> list[str]:
        return []


class RateBoundary:
    """Library rate_function calls, with the anomaly, on a network whose
    rate function leaves the gradient image: the first point builds the
    finite-region table on a fresh geometry."""

    name = "rate-boundary"

    def __init__(self, seed: int):
        self.ref = ReferenceNetwork.load(inputs.DIMER)
        mean = self.ref.mean_flux()
        self.points = [f * mean for f in inputs.RATE_FACTORS]

    def ops(self) -> list[Op]:
        # a fresh model and geometry per round, so every round builds the table
        model = fluxnet.network.assemble_model(fluxnet.network.load_spec(inputs.DIMER))
        geometry = fluxnet.cgf.lineality_space(model)
        ops = []
        for f, phi in zip(inputs.RATE_FACTORS, self.points):
            label = f"rate_function {_name(inputs.DIMER)} {f:+g} x mean flux"
            ops.append(Op(
                "rate_function", label,
                lambda phi=phi: fluxnet.ldp.rate_function(model, geometry, phi),
                lambda res, label=label, phi=phi: checks.rate_point(self.ref, label, phi, res)))
        return ops

    def check_round(self, outputs: list) -> list[str]:
        if any(out is None for out in outputs):
            return []
        return checks.rate_line(self.ref, inputs.RATE_FACTORS, outputs)


class MonteCarlo:
    """One simulate run on lozenge 1:2:4 with the benchmark seed and the
    default tilts."""

    name = "montecarlo"

    def __init__(self, seed: int):
        self.seed = seed
        self.ref = ReferenceNetwork.load(inputs.LOZENGE)
        steps = int(round(inputs.MC_HORIZON / inputs.MC_STEP))
        conserved = fluxnet.simulate.SimConfig.conserved_traj
        # main batch plus the doubled-horizon conserved batch
        self.steps = inputs.MC_TRAJ * steps + conserved * 2 * steps

    def ops(self) -> list[Op]:
        argv = ["simulate", inputs.LOZENGE, "--seed", str(self.seed),
                "--traj", str(inputs.MC_TRAJ), "--T", repr(inputs.MC_HORIZON),
                "--h", repr(inputs.MC_STEP), "--json"]
        return [cli_op(argv,
                       lambda label, text: checks.simulate(self.ref, label, text),
                       items=self.steps)]

    def check_round(self, outputs: list) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (Analytic, RateBoundary, MonteCarlo)}
