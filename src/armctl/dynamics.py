"""Mass model, energies, Euler-Lagrange forward dynamics, and the exact
first and second derivatives the linearization is built from.

The kinetic-energy model is deliberately decoupled: joint k contributes
(1/2) * I_k(theta) * rate_k^2, where I_k is the rotational inertia of
everything distal to that joint's pivot, evaluated in the current planar
configuration (I1 is taken about the vertical yaw axis).  There are no
velocity cross terms between different joints; the linearization and gain
tables are built on exactly this model.

Links are uniform thin rods ("segments") between consecutive joints, plus
point masses at P2..P4.  All planar quantities are independent of the yaw
angle theta1.

One kernel, `_kernel(geom, masses, t2, t3, t4)`, evaluates a configuration:
it takes the cumulative-angle sines and cosines and the joint coordinates
from `kinematics.planar_chain` once, and returns the four joint inertias,
the potential energy, and the exact partial derivatives of both (chain rule
on the planar coordinates).  Every public function below reads what it
needs from that one call.

The accelerations are computed once, in `_solve`, from a kernel evaluation
on Python floats.  `_accelerations` (planar angles, rates and torques in,
four accelerations out) is `_kernel` followed by `_solve`;
`forward_dynamics` only coerces its arguments and wraps the result in an
array, and the simulator's RK4 loop calls `_accelerations` directly, so
integration pays no per-stage conversion.

Second derivatives come from a second, equivalent form of the same
quantities.  Each planar coordinate is a sum of link vectors
L (sin a, cos a) over the cumulative angles a2..a4, so every inertia is a
quadratic form in sines and cosines and PE is linear in the cosines.  By
the product-to-sum identities each of I1..I4 and PE is therefore a short
sum of terms alpha * cos(n . theta) over integer vectors n
(`_cosine_terms`, built once per arm), whose Hessian is
-alpha * cos(n . theta) * n n^T (`_hessians`).  The linearization takes I,
dI and dPE from `_kernel` and only the Hessians from this form.

The public functions reject a non-finite angle, rate or torque with
ValueError("<name> must be finite"); `_kernel` and `_accelerations` do not
check, and the simulator raises Diverged for a non-finite state instead.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInertia
from .kinematics import ArmGeometry, planar_chain

# below this (kg m^2) a joint is considered unactuatable and dynamics error out
EPS_INERTIA = 1e-12


@dataclass(frozen=True)
class MassModel:
    """Point masses at joints P2..P4 (m2..m4), distributed link masses
    (M1..M3, uniform along each link), and gravitational acceleration."""

    m2: float
    m3: float
    m4: float
    M1: float
    M2: float
    M3: float
    g: float = 9.81

    def __post_init__(self):
        for name in ("m2", "m3", "m4", "M1", "M2", "M3", "g"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
            object.__setattr__(self, name, v)


def _segment(x1, y1, x2, y2, m):
    return (m / 3.0) * (x1 * x1 + x1 * x2 + x2 * x2 + y1 * y1 + y1 * y2 + y2 * y2)


def segment_inertia(pa, pb, m: float) -> float:
    """Rotational inertia of a uniform segment from pa to pb about the origin."""
    return _segment(float(pa[0]), float(pa[1]), float(pb[0]), float(pb[1]), m)


def point_inertia(p, m: float) -> float:
    """Rotational inertia of a point mass about the origin: m * (x^2 + y^2)."""
    x, y = float(p[0]), float(p[1])
    return m * (x * x + y * y)


def _four(values, name: str) -> tuple[float, float, float, float]:
    a, b, c, d = map(float, values)
    # a finite sum proves every term finite; a non-finite one may be overflow
    if not math.isfinite(a + b + c + d) and not all(map(math.isfinite, (a, b, c, d))):
        raise ValueError(f"{name} must be finite, got {(a, b, c, d)!r}")
    return a, b, c, d


def _kernel(geom: ArmGeometry, mm: MassModel, t2: float, t3: float, t4: float):
    """Inertias, potential energy and their exact gradients at a planar
    configuration.

    Returns (inertia, pe, dpe, jac):
      - inertia = (I1, I2, I3, I4): I1 about the vertical axis, I2 about P1,
        I3 about P2, I4 about P3, each covering the mass distal to that pivot;
      - pe: gravitational PE, point masses at their heights plus each uniform
        segment at the mean of its endpoint heights (P1 is the zero reference);
      - dpe: the 4-list dPE/dtheta;
      - jac: the 4x4 nested list jac[k][j] = dI_{k+1}/dtheta_{j+1}.
    The theta1 entries of dpe and jac are structurally zero.
    """
    (u2, v2, u3, v3, u4, v4), (x2, y2, x3, y3, x4, y4) = planar_chain(geom, t2, t3, t4)
    L1, L2, L3 = geom.L1, geom.L2, geom.L3
    m2, m3, m4, M1, M2, M3, g = mm.m2, mm.m3, mm.m4, mm.M1, mm.M2, mm.M3, mm.g
    # a uniform segment of mass M weighs its endpoint products by M / 3
    s1, s2, s3 = M1 / 3.0, M2 / 3.0, M3 / 3.0

    # vertical-axis moment: only the radial coordinate matters
    i1 = (
        m2 * x2 * x2
        + m3 * x3 * x3
        + m4 * x4 * x4
        + s1 * (x2 * x2)
        + s2 * (x2 * x2 + x2 * x3 + x3 * x3)
        + s3 * (x3 * x3 + x3 * x4 + x4 * x4)
    )

    # about P1 (origin): the whole planar chain
    i2 = (
        _segment(0.0, 0.0, x2, y2, M1)
        + _segment(x2, y2, x3, y3, M2)
        + _segment(x3, y3, x4, y4, M3)
        + m2 * (x2 * x2 + y2 * y2)
        + m3 * (x3 * x3 + y3 * y3)
        + m4 * (x4 * x4 + y4 * y4)
    )

    # about P2: links 2..3 and the masses they carry, relative to P2
    d3x, d3y = x3 - x2, y3 - y2
    d4x, d4y = x4 - x2, y4 - y2
    i3 = (
        _segment(0.0, 0.0, d3x, d3y, M2)
        + _segment(d3x, d3y, d4x, d4y, M3)
        + m3 * (d3x * d3x + d3y * d3y)
        + m4 * (d4x * d4x + d4y * d4y)
    )

    # about P3: the tool link only; its endpoints sit at distance L3 exactly,
    # so the segment+point sum reduces to this constant closed form
    i4 = m4 * L3**2 + M3 * L3**2 / 3.0

    pe_points = m2 * y2 + m3 * y3 + m4 * y4
    pe_segments = (
        M1 * (0.0 + y2) / 2.0
        + M2 * (y2 + y3) / 2.0
        + M3 * (y3 + y4) / 2.0
    )
    pe = g * (pe_points + pe_segments)

    # effective weights multiplying each joint height in the PE
    co2 = m2 + 0.5 * (M1 + M2)
    co3 = m3 + 0.5 * (M2 + M3)
    co4 = m4 + 0.5 * M3

    dpe = [0.0, 0.0, 0.0, 0.0]
    jac = [[0.0, 0.0, 0.0, 0.0] for _ in range(4)]

    # cumulative-angle dependency: a2 sees theta2; a3 sees theta2..3; a4 all
    for j, (w2a, w3a, w4a) in enumerate(
        ((1.0, 1.0, 1.0), (0.0, 1.0, 1.0), (0.0, 0.0, 1.0)), start=1
    ):
        dx2, dy2 = w2a * L1 * v2, -w2a * L1 * u2
        dx3, dy3 = dx2 + w3a * L2 * v3, dy2 - w3a * L2 * u3
        dx4, dy4 = dx3 + w4a * L3 * v4, dy3 - w4a * L3 * u4

        dpe[j] = g * (co2 * dy2 + co3 * dy3 + co4 * dy4)

        jac[0][j] = (
            2.0 * (m2 * x2 * dx2 + m3 * x3 * dx3 + m4 * x4 * dx4)
            + s1 * (2.0 * x2 * dx2)
            + s2 * (2.0 * x2 * dx2 + dx2 * x3 + x2 * dx3 + 2.0 * x3 * dx3)
            + s3 * (2.0 * x3 * dx3 + dx3 * x4 + x3 * dx4 + 2.0 * x4 * dx4)
        )
        jac[1][j] = (
            s1 * 2.0 * (x2 * dx2 + y2 * dy2)
            + s2
            * (
                2.0 * (x2 * dx2 + y2 * dy2)
                + dx2 * x3 + x2 * dx3 + dy2 * y3 + y2 * dy3
                + 2.0 * (x3 * dx3 + y3 * dy3)
            )
            + s3
            * (
                2.0 * (x3 * dx3 + y3 * dy3)
                + dx3 * x4 + x3 * dx4 + dy3 * y4 + y3 * dy4
                + 2.0 * (x4 * dx4 + y4 * dy4)
            )
            + 2.0 * m2 * (x2 * dx2 + y2 * dy2)
            + 2.0 * m3 * (x3 * dx3 + y3 * dy3)
            + 2.0 * m4 * (x4 * dx4 + y4 * dy4)
        )
        dd3x, dd3y = dx3 - dx2, dy3 - dy2
        dd4x, dd4y = dx4 - dx2, dy4 - dy2
        jac[2][j] = (
            (s2 + s3 + m3) * 2.0 * (d3x * dd3x + d3y * dd3y)
            + (s3 + m4) * 2.0 * (d4x * dd4x + d4y * dd4y)
            + s3
            * (dd3x * d4x + d3x * dd4x + dd3y * d4y + d3y * dd4y)
        )
        # jac[3][j] = 0: the tool-link inertia about P3 is constant

    return (i1, i2, i3, i4), pe, dpe, jac


def _kinetic(inertia, rates) -> float:
    i1, i2, i3, i4 = inertia
    w1, w2, w3, w4 = _four(rates, "rates")
    return 0.5 * (i1 * w1 * w1 + i2 * w2 * w2 + i3 * w3 * w3 + i4 * w4 * w4)


def joint_inertias(geom: ArmGeometry, masses: MassModel, theta) -> np.ndarray:
    """Effective rotational inertia seen by each joint at configuration theta."""
    _, t2, t3, t4 = _four(theta, "theta")
    return np.array(_kernel(geom, masses, t2, t3, t4)[0])


def potential_energy(geom: ArmGeometry, masses: MassModel, theta) -> float:
    """Gravitational potential energy of the arm (joules, P1 height = 0)."""
    _, t2, t3, t4 = _four(theta, "theta")
    return _kernel(geom, masses, t2, t3, t4)[1]


def kinetic_energy(geom: ArmGeometry, masses: MassModel, theta, rates) -> float:
    """Decoupled rotational kinetic energy: (1/2) sum_k I_k(theta) rate_k^2."""
    _, t2, t3, t4 = _four(theta, "theta")
    return _kinetic(_kernel(geom, masses, t2, t3, t4)[0], rates)


def total_energy(geom: ArmGeometry, masses: MassModel, theta, rates) -> float:
    """KE + PE."""
    _, t2, t3, t4 = _four(theta, "theta")
    inertia, pe, _, _ = _kernel(geom, masses, t2, t3, t4)
    return _kinetic(inertia, rates) + pe


def equilibrium_torque(geom: ArmGeometry, masses: MassModel, theta) -> np.ndarray:
    """Torque holding the arm motionless against gravity: dPE/dtheta.

    forward_dynamics(theta, 0, equilibrium_torque(theta)) is zero to machine
    precision because both read the same kernel gradient.
    """
    _, t2, t3, t4 = _four(theta, "theta")
    return np.array(_kernel(geom, masses, t2, t3, t4)[2])


def _accelerations(geom: ArmGeometry, masses: MassModel, t2, t3, t4, w, tau) -> list[float]:
    """forward_dynamics on Python floats: planar angles t2..t4, and the
    rates w and torque tau as 4-sequences of floats.  Returns the four
    accelerations as a list."""
    return _solve(_kernel(geom, masses, t2, t3, t4), (t2, t3, t4), w, tau)


def _solve(kernel, planar, w, tau) -> list[float]:
    """The four accelerations (a list) from a `_kernel` evaluation at the
    planar angles `planar`, the rates w and the torque tau (4-sequences of
    floats).  Raises DegenerateInertia when any I_k <= EPS_INERTIA."""
    inertia, _, dpe, jac = kernel
    for k in range(4):
        if inertia[k] <= EPS_INERTIA:
            raise DegenerateInertia(
                f"joint {k + 1} inertia {inertia[k]!r} <= {EPS_INERTIA} at "
                f"theta={planar!r}"
            )

    w0, w1, w2, w3 = w
    j0, j1, j2, j3 = jac
    acc = []
    for i in range(4):
        quad = 0.5 * (
            j0[i] * w0 * w0 + j1[i] * w1 * w1 + j2[i] * w2 * w2 + j3[i] * w3 * w3
        )
        ji = jac[i]
        convective = w[i] * (ji[0] * w0 + ji[1] * w1 + ji[2] * w2 + ji[3] * w3)
        acc.append((quad - dpe[i] - convective + tau[i]) / inertia[i])
    return acc


# the cumulative angles a2, a3, a4 as integer combinations of theta1..theta4
_LINK_ANGLES = ((0, 1, 0, 0), (0, 1, 1, 0), (0, 1, 1, 1))


@functools.lru_cache(maxsize=16)
def _cosine_terms(geom: ArmGeometry, mm: MassModel):
    """I1..I4 and PE as sums of cosines: quantity q at theta is
    sum_t alpha[t, q] * cos(n[t] . theta), q = 0..3 for I1..I4 and 4 for PE.

    Returns read-only float arrays (n (T, 4), alpha (T, 5), nn (T, 16)),
    with nn[t] the flattened outer product n[t] n[t]^T.  Row 0 is the
    constant term (n = 0); the theta1 entry of every n is zero.
    """
    L1, L2, L3 = geom.L1, geom.L2, geom.L3
    m2, m3, m4, g = mm.m2, mm.m3, mm.m4, mm.g
    s1, s2, s3 = mm.M1 / 3.0, mm.M2 / 3.0, mm.M3 / 3.0

    # the joints P2..P4 as combinations of the link vectors e_l = (sin a, cos a)
    chain = np.array([[L1, 0.0, 0.0], [L1, L2, 0.0], [L1, L2, L3]])
    # I2 (and, on the radial coordinates alone, I1) is sum_ij q[i, j] P_i . P_j:
    # the point masses plus each segment's (M / 3)(a.a + a.b + b.b)
    q = np.array([[s1 + s2 + m2, s2 / 2, 0.0],
                  [s2 / 2, s2 + s3 + m3, s3 / 2],
                  [0.0, s3 / 2, s3 + m4]])
    # I3 over P3 - P2 and P4 - P2, I4 over P4 - P3
    rel3 = np.array([[0.0, L2, 0.0], [0.0, L2, L3]])
    q3 = np.array([[s2 + s3 + m3, s3 / 2], [s3 / 2, s3 + m4]])
    rel4 = np.array([[0.0, 0.0, L3]])
    quadratic = [chain.T @ q @ chain, rel3.T @ q3 @ rel3, rel4.T @ [[s3 + m4]] @ rel4]
    # PE weighs each joint height by its point mass plus half of each segment on it
    heights = g * (np.array([m2 + 0.5 * (mm.M1 + mm.M2), m3 + 0.5 * (mm.M2 + mm.M3),
                             m4 + 0.5 * mm.M3]) @ chain)

    zero = (0, 0, 0, 0)
    terms = {zero: [0.0] * 5}

    def add(n, quantity, alpha):
        n = tuple(int(v) for v in n)
        if n < zero:  # cos is even: n and -n are one term
            n = tuple(-v for v in n)
        terms.setdefault(n, [0.0] * 5)[quantity] += alpha

    links = [np.array(n) for n in _LINK_ANGLES]
    for l, m in itertools.product(range(3), repeat=2):
        diff, total = links[l] - links[m], links[l] + links[m]
        # e_l . e_m = cos(a_l - a_m); sin a_l sin a_m = (cos(a_l - a_m) - cos(a_l + a_m)) / 2
        add(diff, 0, 0.5 * quadratic[0][l, m])
        add(total, 0, -0.5 * quadratic[0][l, m])
        for k in range(3):
            add(diff, k + 1, quadratic[k][l, m])
    for l in range(3):
        add(links[l], 4, heights[l])

    n = np.array(list(terms), dtype=float)
    alpha = np.array(list(terms.values()))
    nn = (n[:, :, None] * n[:, None, :]).reshape(-1, 16)
    for array in (n, alpha, nn):
        array.flags.writeable = False
    return n, alpha, nn


def _hessians(geom: ArmGeometry, masses: MassModel, theta) -> np.ndarray:
    """Exact second derivatives at theta (4 angles): H[q, i, j] =
    d2 Q / dtheta_i dtheta_j for Q = I1..I4 (q = 0..3) and PE (q = 4).
    Row and column 0 (theta1) and H[3] (I4 is constant) are zero."""
    n, alpha, nn = _cosine_terms(geom, masses)
    c = np.cos(n @ theta)
    return -((alpha.T * c) @ nn).reshape(5, 4, 4)


def forward_dynamics(
    geom: ArmGeometry, masses: MassModel, theta, rates, torque
) -> np.ndarray:
    """Joint accelerations from the Euler-Lagrange equations of KE - PE.

    With the decoupled kinetic energy the system is diagonal in the
    accelerations:

        acc_i = ( 0.5 * sum_k dI_k/dq_i * w_k^2
                  - dPE/dq_i
                  - w_i * sum_j dI_i/dq_j * w_j
                  + tau_i ) / I_i

    Raises DegenerateInertia when any I_k(theta) <= EPS_INERTIA.
    """
    _, t2, t3, t4 = _four(theta, "theta")
    return np.array(_accelerations(
        geom, masses, t2, t3, t4, _four(rates, "rates"), _four(torque, "torque")
    ))
