"""Start-up imports: which scipy submodules a fluxnet process loads.

``scipy.optimize`` costs about as much to import as numpy and
``scipy.linalg`` together, and no route of fluxnet calls it, the boundary
regime of the rate function included.  These checks run in fresh
interpreters, because the test process itself has loaded ``scipy.optimize``
already (the test suite's references use it).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import two_dimers_doc
from fluxnet import assemble_model, lineality_space, parse_spec

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "src" / "fluxnet" / "configs"


def run_fresh(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script, *args],
                            capture_output=True, text=True, env=env, timeout=600)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


GUARD = """
import contextlib, io, json, sys
import fluxnet
from fluxnet.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"codes": codes,
                  "optimize": "scipy.optimize" in sys.modules,
                  "linalg": "scipy.linalg" in sys.modules}))
"""


def test_common_commands_never_load_scipy_optimize():
    # the analytic workload's commands, a rate grid with boundary-regime
    # rows and a short simulation
    def config(name):
        return str(CONFIGS / f"{name}.json")

    argvs = [["validate", str(path)] for path in sorted(CONFIGS.glob("*.json"))]
    argvs += [
        ["gap-scan", config("heatpump_10_3.6_7_6.8"), "--dirs", "8"],
        ["cgf", config("lozenge_1_2_4"), "--dirs", "4", "--radii", "3"],
        ["rate", config("lozenge_1_2_4"), "--grid", "3"],
        ["rate", config("heatpump_10_3.6_7_6.8"), "--grid", "2"],
        ["rate", config("lozenge_1_2_64"), "--grid", "3"],
        ["simulate", config("lozenge_1_2_4"), "--traj", "64", "--T", "2"],
    ]
    seen = run_fresh(GUARD, json.dumps(argvs))
    assert seen["codes"] == [0] * len(argvs)
    assert not seen["optimize"]
    # every command reads the steady covariance, a scipy.linalg solve
    assert seen["linalg"]


MARGIN = """
import json, sys
import numpy as np
from fluxnet import TiltState, assemble_model, lineality_space, load_spec
model = assemble_model(load_spec(sys.argv[2]))
geometry = lineality_space(model)
TiltState(model, geometry.from_frame(np.array([0.1, 0.05]))).sinf_margin(geometry)
""" + GUARD


def test_two_dimer_margin_never_loads_scipy_optimize(tmp_path):
    """dim L = 2: the finite-region margin searches a shift coordinate
    without ``scipy.optimize``, and the section scans on the same network
    do not load it either."""
    path = tmp_path / "two_dimers.json"
    path.write_text(json.dumps(two_dimers_doc()))
    model = assemble_model(parse_spec(two_dimers_doc()))
    assert lineality_space(model).dim_L == 2
    argvs = [["cgf", str(path), "--dirs", "4", "--radii", "3"],
             ["gap-scan", str(path), "--dirs", "8"]]
    seen = run_fresh(MARGIN, json.dumps(argvs), str(path))
    assert seen["codes"] == [0] * len(argvs)
    assert not seen["optimize"]
