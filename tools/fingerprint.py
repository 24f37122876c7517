"""Print byte-identity fingerprints of armctl's gain tables and trajectories.

    python3 tools/fingerprint.py

Each line is a name and the first 16 hex digits of the sha256 of:
  - save() of a 5^4, a non-cubic 3x4x2x5 and a 7^4 precompute, each with 1
    and with 2 workers (the non-cubic and 7^4 grids cover the planar gain
    order and a theta1 count that differs from the others; 7^4 is the grid
    perfbench builds);
  - save() of refine(tol 0.4, depth 3) and refine(tol 0.1, depth 4);
  - the states, inputs and energy of a 1 s simulate in the passive, online,
    flat-table (the 5^4 table) and refined-table (the tol 0.4 table) modes.
All use the test arm of tests/conftest.py and the box theta_ref +/- 0.25.
Run it on two checkouts: equal lines mean the change kept those results
bit for bit.  It imports armctl from the src/ directory next to it.  It
exits with status 1, naming the grid on standard error, when a grid's 1-
and 2-worker tables differ.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from armctl import (  # noqa: E402
    ArmGeometry,
    ControllerMode,
    CostWeights,
    GridSpec,
    MassModel,
    SimConfig,
    precompute,
    refine,
    save,
    simulate,
)

GEOM = ArmGeometry(L1=1.0, L2=0.8, L3=0.6)
MASSES = MassModel(m2=0.5, m3=0.4, m4=0.3, M1=0.4, M2=0.3, M3=0.2, g=9.81)
WEIGHTS = CostWeights.from_diagonals([100.0] * 4 + [1.0] * 4, [1.0] * 4)
THETA_REF = np.array([0.3, 0.8, -0.9, 0.5])
# off the reference, moving, and inside the box for the whole run
X0 = np.array([0.4, 0.7, -0.8, 0.6, 0.2, -0.3, 0.1, 0.4])


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def main():
    lo, hi = tuple(THETA_REF - 0.25), tuple(THETA_REF + 0.25)
    tables, mismatched = {}, []
    for name, counts in (("5^4", (5, 5, 5, 5)), ("3x4x2x5", (3, 4, 2, 5)),
                         ("7^4", (7, 7, 7, 7))):
        digests = []
        for workers in (1, 2):
            table = precompute(GEOM, MASSES, WEIGHTS, GridSpec(lo, hi, counts), workers)
            tables[name, workers] = table
            digests.append(digest(save(table)))
            print(f"precompute {name} workers={workers}", digests[-1])
        if digests[0] != digests[1]:
            mismatched.append(name)
    flat = tables["5^4", 1]
    coarse = refine(GEOM, MASSES, WEIGHTS, (lo, hi), 0.4, 3)
    print("refine tol=0.4 depth=3", digest(save(coarse)))
    print("refine tol=0.1 depth=4", digest(save(refine(GEOM, MASSES, WEIGHTS, (lo, hi), 0.1, 4))))

    x_ref = np.concatenate([THETA_REF, np.zeros(4)])
    runs = {
        "passive": (ControllerMode.PASSIVE, {}),
        "online": (ControllerMode.ONLINE_LQR, {"weights": WEIGHTS}),
        "flat": (ControllerMode.TABLE_LQR, {"weights": WEIGHTS, "table": flat}),
        "refined": (ControllerMode.TABLE_LQR, {"weights": WEIGHTS, "table": coarse}),
    }
    for name, (mode, kwargs) in runs.items():
        traj = simulate(GEOM, MASSES, SimConfig(duration=1.0), mode, X0, x_ref, **kwargs)
        for field in ("states", "inputs", "energy"):
            print(f"simulate {name} {field}", digest(getattr(traj, field).tobytes()))
    for name in mismatched:
        print(f"precompute {name}: the 1- and 2-worker tables differ", file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
