"""Inputs of the benchmark's workloads: network files and operation sizes.

Standard library only, so that the set-up probe can name its networks
without importing numpy before it starts its clock.
"""

import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CONFIGS = os.path.join(SRC, "fluxnet", "configs")
NETWORKS = os.path.join(HERE, "networks")
RESULTS = os.path.join(HERE, "results")


def config(name: str) -> str:
    return os.path.join(CONFIGS, name + ".json")


HEATPUMP = config("heatpump_10_3.6_7_6.8")
LOZENGE = config("lozenge_1_2_4")
#: the one-oscillator, one-reservoir network of the test suite's
#: single_oscillator_doc; every subcommand fails on it (ROADMAP D1)
SINGLE = os.path.join(NETWORKS, "single_oscillator.json")
#: two oscillators, each at its own reservoir, temperatures 1:64; its flux
#: section is one-dimensional, so the finite-region table has two rays
DIMER = os.path.join(NETWORKS, "dimer_1_64.json")

BUNDLED = sorted(
    os.path.join(CONFIGS, f) for f in
    (os.listdir(CONFIGS) if os.path.isdir(CONFIGS) else ()) if f.endswith(".json"))
VALIDATE = BUNDLED + [SINGLE]

# analytic
GAP_DIRS = 8           # gap-scan directions on the heat pump
CGF_DIRS = 4           # cgf section directions on lozenge 1:2:4
CGF_RADII = 3          # radii per direction: three equally spaced, for convexity
CGF_XI_TILTS = 2       # seeded cgf --xi tilts on the heat pump
RATE_GRID_LOZENGE = 3
RATE_GRID_HEATPUMP = 2

# rate-boundary: flux points as multiples of the mean flux; the first lies
# beyond the gradient image, the last has its mirror beyond it
RATE_FACTORS = (-6.0, 1.0, 2.0, 3.0, 8.0)

# montecarlo
MC_TRAJ = 512
MC_HORIZON = 20.0
MC_STEP = 0.02

#: networks each workload parses, assembles and takes the lineality space of
SETUP_NETWORKS = {
    "analytic": VALIDATE,
    "rate-boundary": [DIMER],
    "montecarlo": [LOZENGE],
}
