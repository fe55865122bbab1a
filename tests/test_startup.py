"""Start-up imports: which scipy submodules a fluxnet process loads.

``scipy.optimize`` costs about as much to import as numpy and
``scipy.linalg`` together, and only two heuristic routes call it: the
shift ascent of the finite-region margin when the lineality space has
dimension above 1, and the boundary refinement of the rate function on 2-D
and 3-D sections.  These checks run in fresh interpreters, because the test
process itself has loaded ``scipy.optimize`` already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import two_dimers_doc
from fluxnet import TiltState, assemble_model, lineality_space, parse_spec

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
    # the analytic workload's commands and a short simulation
    def config(name):
        return str(CONFIGS / f"{name}.json")

    argvs = [["validate", str(path)] for path in sorted(CONFIGS.glob("*.json"))]
    argvs += [
        ["gap-scan", config("heatpump_10_3.6_7_6.8"), "--dirs", "8"],
        ["cgf", config("lozenge_1_2_4"), "--dirs", "4", "--radii", "3"],
        ["rate", config("lozenge_1_2_4"), "--grid", "3"],
        ["rate", config("heatpump_10_3.6_7_6.8"), "--grid", "2"],
        ["simulate", config("lozenge_1_2_4"), "--traj", "64", "--T", "2"],
    ]
    seen = run_fresh(GUARD, json.dumps(argvs))
    assert seen["codes"] == [0] * len(argvs)
    assert not seen["optimize"]
    # every command reads the steady covariance, a scipy.linalg solve
    assert seen["linalg"]


DEFERRED = """
import json, sys
import numpy as np
from fluxnet import TiltState, assemble_model, lineality_space, parse_spec
model = assemble_model(parse_spec(sys.argv[1]))
geometry = lineality_space(model)
xi = np.array(json.loads(sys.argv[2]))
before = "scipy.optimize" in sys.modules
margin = TiltState(model, xi).sinf_margin(geometry)
print(json.dumps({"before": before, "after": "scipy.optimize" in sys.modules,
                  "margin": margin}))
"""


def test_shift_ascent_loads_scipy_optimize_on_first_call():
    """dim L = 2 sends the margin through the shift ascent, which imports
    ``scipy.optimize`` when it first runs.  The other deferred import, the
    boundary refinement on 2-D and 3-D sections, is exercised by criterion
    10 and ``test_ruled_surface_identity``."""
    doc = two_dimers_doc()
    model = assemble_model(parse_spec(doc))
    geometry = lineality_space(model)
    assert geometry.dim_L == 2
    xi = geometry.from_frame(np.array([0.1, 0.05]))
    expected = TiltState(model, xi).sinf_margin(geometry)
    seen = run_fresh(DEFERRED, json.dumps(doc), json.dumps(xi.tolist()))
    assert not seen["before"] and seen["after"]
    assert seen["margin"] == expected
