"""Check armctl's closed-form linearization and forward dynamics against a
computer-algebra derivation of the same arm.

    python3 tools/check_linearize_sympy.py [--states N] [--seed S] [--config ARM.json]

The script writes the energies from the geometry alone, without armctl's
dynamics kernel: the joint inertias I1..I4 as integrals over the uniform
link rods plus the point masses (I1 about the vertical axis, I2 about P1,
I3 about P2, I4 about P3), KE = 1/2 sum_k I_k w_k^2, and PE from the heights
of the masses.  sympy forms the Euler-Lagrange accelerations of L = KE - PE
and differentiates them symbolically; the accelerations and the resulting A
are evaluated at 30 significant digits (mpmath) at N seeded random states,
half of them equilibria, and compared with armctl.forward_dynamics and with
both linearization bodies: armctl.linearize at each state, and
linearize_nodes at the equilibria in one stacked call.  It prints the worst
difference in A relative to max|A| of each state, for each body, and in the
accelerations relative to max|acc| of each moving state; at an
equilibrium, where the accelerations are zero, it is relative to
max|tau_k / I_k|, the size of the terms that cancel there.  It exits 1
when any of them exceeds 1e-12.  sympy is needed to run it; it is
not a dependency of armctl.

The arm is the test arm of tests/conftest.py unless --config names an arm
config.  armctl is imported from the src/ directory next to this file.
"""

import argparse
import sys
from pathlib import Path

import mpmath
import numpy as np
import sympy as sp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from armctl import (  # noqa: E402
    ArmGeometry,
    MassModel,
    OperatingPoint,
    equilibrium_point,
    forward_dynamics,
    joint_inertias,
    linearize,
    load_config,
)
from armctl.linearization import linearize_nodes  # noqa: E402

TOLERANCE = 1e-12
DIGITS = 30
GEOM = ArmGeometry(L1=1.0, L2=0.8, L3=0.6)
MASSES = MassModel(m2=0.5, m3=0.4, m4=0.3, M1=0.4, M2=0.3, M3=0.2, g=9.81)
# the sampled box: every joint inertia stays well away from zero
THETA_LO = (-np.pi, 0.3, -2.5, -2.5)
THETA_HI = (np.pi, 2.8, -0.3, 2.5)


def exact(value: float) -> sp.Float:
    """The double `value` as a sympy number, every binary digit kept."""
    return sp.Float(value, DIGITS)


def euler_lagrange(geom: ArmGeometry, masses: MassModel):
    """Symbols (theta, w, tau), the accelerations acc (4x1) and the 4x8
    matrix d acc / d[theta, w]."""
    theta = sp.symbols("t1:5", real=True)
    w = sp.symbols("w1:5", real=True)
    tau = sp.symbols("tau1:5", real=True)
    s = sp.Symbol("s", real=True)
    L1, L2, L3 = map(exact, (geom.L1, geom.L2, geom.L3))
    m2, m3, m4, M1, M2, M3, g = map(exact, (masses.m2, masses.m3, masses.m4,
                                            masses.M1, masses.M2, masses.M3, masses.g))

    # joint positions in the arm's vertical plane: x radial, y up, angles
    # from vertical and cumulative along the chain
    a2, a3, a4 = theta[1], theta[1] + theta[2], theta[1] + theta[2] + theta[3]
    p1 = sp.Matrix([0, 0])
    p2 = p1 + L1 * sp.Matrix([sp.sin(a2), sp.cos(a2)])
    p3 = p2 + L2 * sp.Matrix([sp.sin(a3), sp.cos(a3)])
    p4 = p3 + L3 * sp.Matrix([sp.sin(a4), sp.cos(a4)])
    rods = ((p1, p2, M1), (p2, p3, M2), (p3, p4, M3))
    points = ((p2, m2), (p3, m3), (p4, m4))

    def rod(a, b, mass, moment):
        """mass * integral over the rod (parameter s in [0, 1]) of moment(point)."""
        return mass * sp.integrate(sp.expand(moment(a + s * (b - a))), (s, 0, 1))

    def inertia(first_rod, first_point, pivot, moment):
        """Moment of the rods and points distal to a pivot."""
        total = sum(rod(a - pivot, b - pivot, mass, moment) for a, b, mass in rods[first_rod:])
        return total + sum(mass * moment(p - pivot) for p, mass in points[first_point:])

    def planar(q):
        return q.dot(q)

    def radial(q):
        return q[0] ** 2

    inertias = [
        inertia(0, 0, p1, radial),  # the yaw axis: distance is the radial coordinate
        inertia(0, 0, p1, planar),
        inertia(1, 1, p2, planar),
        inertia(2, 2, p3, planar),
    ]
    pe = g * (sum(rod(a, b, mass, lambda q: q[1]) for a, b, mass in rods)
              + sum(mass * p[1] for p, mass in points))
    lagrangian = sp.Rational(1, 2) * sum(i * v**2 for i, v in zip(inertias, w)) - pe

    # d/dt dL/dw_i - dL/dtheta_i = tau_i, with d/dt expanded by the chain rule
    momentum = [sp.diff(lagrangian, v) for v in w]
    mass_matrix = sp.Matrix(4, 4, lambda i, j: sp.diff(momentum[i], w[j]))
    rhs = sp.Matrix([
        tau[i] + sp.diff(lagrangian, theta[i])
        - sum(sp.diff(momentum[i], theta[j]) * w[j] for j in range(4))
        for i in range(4)
    ])
    acc = mass_matrix.LUsolve(rhs)
    return (theta, w, tau), acc, acc.jacobian(list(theta) + list(w))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--states", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", default=None, help="arm config JSON (default: test arm)")
    args = parser.parse_args(argv)
    geom, masses = GEOM, MASSES
    if args.config is not None:
        config = load_config(args.config)
        geom, masses = config.geometry, config.masses

    symbols, acc, jac = euler_lagrange(geom, masses)
    mpmath.mp.dps = DIGITS
    flat = [s for group in symbols for s in group]
    evaluate_acc = sp.lambdify(flat, acc, modules="mpmath")
    evaluate_jac = sp.lambdify(flat, jac, modules="mpmath")

    rng = np.random.default_rng(args.seed)
    worst_a, worst_acc, worst_eq = 0.0, 0.0, 0.0
    ops, references = [], []
    for k in range(args.states):
        theta = rng.uniform(THETA_LO, THETA_HI)
        if k % 2:
            op = equilibrium_point(geom, masses, theta)
        else:
            op = OperatingPoint(theta, rng.uniform(-1.5, 1.5, 4), rng.uniform(-4.0, 4.0, 4))
        A = linearize(geom, masses, op).A
        got = forward_dynamics(geom, masses, op.theta, op.rates, op.torque)
        values = [mpmath.mpf(float(v)) for v in (*op.theta, *op.rates, *op.torque)]
        reference = np.array(evaluate_jac(*values).tolist(), dtype=float)
        worst_a = max(worst_a, float(np.max(np.abs(A[4:8] - reference)) / np.max(np.abs(A))))
        ops.append(op)
        references.append(reference)
        exact_acc = np.array(evaluate_acc(*values).tolist(), dtype=float).ravel()
        error = np.max(np.abs(got - exact_acc))
        if k % 2:  # acc is zero: relative to the torque terms that cancel there
            scale = np.max(np.abs(op.torque / joint_inertias(geom, masses, op.theta)))
            worst_eq = max(worst_eq, float(error / scale))
        else:
            worst_acc = max(worst_acc, float(error / np.max(np.abs(got))))
    equilibria = np.array([op.theta for op in ops[1::2]]).reshape(-1, 4)
    nodes, _ = linearize_nodes(geom, masses, equilibria)
    worst_nodes = max((float(np.max(np.abs(A[4:8] - reference)) / np.max(np.abs(A)))
                       for A, reference in zip(nodes, references[1::2])), default=0.0)
    worst = max(worst_a, worst_nodes, worst_acc, worst_eq)
    print(f"states: {args.states} (seed {args.seed}, half at equilibria)")
    print(f"worst |A - A_sympy| / max|A|, linearize: {worst_a:.3e}")
    print(f"worst |A - A_sympy| / max|A|, linearize_nodes (equilibria): {worst_nodes:.3e}")
    print(f"worst |acc - acc_sympy| / max|acc| (moving): {worst_acc:.3e}")
    print(f"worst |acc - acc_sympy| / max|tau_k / I_k| (equilibria): {worst_eq:.3e}")
    print(f"tolerance: {TOLERANCE:.0e}: {'pass' if worst <= TOLERANCE else 'FAIL'}")
    return 0 if worst <= TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main())
