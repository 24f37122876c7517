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

The mass model is stated once, in `_mass_forms` (built once per arm).  Each
joint is a sum of link vectors L (sin a, cos a) over the cumulative angles
a2..a4, so I1 is a quadratic form u' C u in the link sines, I2 and I3 are
sums of C[l][m] cos(a_l - a_m) over all links and over the elbow links, PE
is linear in the link cosines, and I4 is a constant.

One kernel, `_kernel(forms, t2, t3, t4)`, evaluates those forms at a
configuration from the six link sines and cosines that
`kinematics.planar_chain(t2, t3, t4)` returns (no joint coordinates), and
returns the four joint inertias, the potential energy, and their exact
gradients (d/da_l, summed over the links each joint angle turns) as
tuples.  `forms` is `_mass_forms(geom, masses)`, looked up once per
caller: once per public call below, and once per control period in the
simulator, so the per-stage path is arithmetic alone.  Every public
function below reads what it needs from that one kernel call.

The accelerations are computed once, in `_solve`, from a kernel evaluation
on Python floats.  `_accelerations(forms, ...)` (planar angles, rates and
torques in, four accelerations out) is `_kernel` followed by `_solve`;
`forward_dynamics` only checks its arguments and wraps the result in an
array, and the simulator's RK4 loop calls `_accelerations` directly, so
integration pays no per-stage conversion.

Second derivatives come from the same forms.  By the product-to-sum
identities each of I1..I4 and PE is a short sum of terms
alpha * cos(n . theta) over integer vectors n (`_cosine_terms`), whose
Hessian is -alpha * cos(n . theta) * n n^T (`_hessians`).  The
linearization takes I, dI and dPE from `_kernel` and the Hessians from this
expansion.

The public functions read theta, rates and torque through
`errors.vector`: any array-like of 4 values is accepted flattened, any
other size raises ValueError("<name> must have 4 components, got N"), and a
nan or inf ValueError("<name> must be finite").  `_kernel` and
`_accelerations` do not check, and the simulator raises Diverged for a
non-finite state instead.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInertia, scalar, vector
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
            v = scalar(getattr(self, name), name)
            if not v >= 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
            object.__setattr__(self, name, v)


def segment_inertia(pa, pb, m: float) -> float:
    """Rotational inertia of a uniform segment from pa to pb about the origin."""
    x1, y1 = vector(pa, 2, "pa")
    x2, y2 = vector(pb, 2, "pb")
    return (scalar(m, "m") / 3.0) * (x1 * x1 + x1 * x2 + x2 * x2 + y1 * y1 + y1 * y2 + y2 * y2)


def point_inertia(p, m: float) -> float:
    """Rotational inertia of a point mass about the origin: m * (x^2 + y^2)."""
    x, y = vector(p, 2, "p")
    return scalar(m, "m") * (x * x + y * y)


@functools.lru_cache(maxsize=16)
def _mass_forms(geom: ArmGeometry, mm: MassModel):
    """The mass model as forms in the link angles a2, a3, a4 (links l = 0..2).

    Returns Python floats (C, h, i4):
      - C, symmetric 3x3: I1 = u' C u on the link sines u, and
        I2 = sum_lm C[l][m] cos(a_l - a_m); I3 is the same sum over the
        elbow form, links 1 and 2 only;
      - h: PE = h . v on the link cosines v;
      - i4: the constant tool-link inertia about P3.
    """
    L = (geom.L1, geom.L2, geom.L3)
    m2, m3, m4 = mm.m2, mm.m3, mm.m4
    s1, s2, s3 = mm.M1 / 3.0, mm.M2 / 3.0, mm.M3 / 3.0
    # the moment about P1 is sum_ij q[i][j] P_i . P_j over the joints P2..P4:
    # each point mass m P.P plus each segment's (M / 3)(a.a + a.b + b.b).
    # Radial coordinates alone give I1.  About P2 the distal joints are
    # P3 - P2 and P4 - P2, weighed by q's lower block, so I3 drops link 0.
    q = ((s1 + s2 + m2, s2 / 2, 0.0),
         (s2 / 2, s2 + s3 + m3, s3 / 2),
         (0.0, s3 / 2, s3 + m4))
    # P_i = sum_{l <= i} L_l (sin a_l, cos a_l) turns q into C over link pairs:
    # C[l][m] = L_l L_m sum_{i >= l, j >= m} q[i][j]
    C = tuple(
        tuple(L[l] * L[m] * sum(q[i][j] for i in range(l, 3) for j in range(m, 3))
              for m in range(3))
        for l in range(3)
    )
    # PE weighs each joint height by its point mass plus half of each segment on it
    weight = (m2 + 0.5 * (mm.M1 + mm.M2), m3 + 0.5 * (mm.M2 + mm.M3), m4 + 0.5 * mm.M3)
    h = tuple(mm.g * L[l] * sum(weight[l:]) for l in range(3))
    # about P3 the tool link's endpoints sit at distance L3 exactly
    i4 = m4 * geom.L3**2 + mm.M3 * geom.L3**2 / 3.0
    return C, h, i4


def _kernel(forms, t2: float, t3: float, t4: float):
    """Inertias, potential energy and their exact gradients at a planar
    configuration, from the mass forms `_mass_forms(geom, masses)`.

    Returns (inertia, pe, dpe, jac):
      - inertia = (I1, I2, I3, I4): I1 about the vertical axis, I2 about P1,
        I3 about P2, I4 about P3, each covering the mass distal to that pivot;
      - pe: gravitational PE, point masses at their heights plus each uniform
        segment at the mean of its endpoint heights (P1 is the zero reference);
      - dpe: the 4-tuple dPE/dtheta;
      - jac: the 4x4 nested tuple jac[k][j] = dI_{k+1}/dtheta_{j+1}.
    The theta1 entries of dpe and jac, and the row of I4, are structurally zero.
    """
    u0, v0, u1, v1, u2, v2 = planar_chain(t2, t3, t4)
    C, h, i4 = forms
    i1 = i2 = i3 = pe = 0.0
    d1 = d2 = d3 = dp = 0.0
    # a4 = theta2 + theta3 + theta4, a3 = theta2 + theta3, a2 = theta2: so
    # d/dtheta_j sums d/da_l over the links l >= j - 2, a suffix sum: s2 and
    # s1 keep it through links 2 and 1, and d1..dp end holding it through 0
    for l, u, v in ((2, u2, v2), (1, u1, v1), (0, u0, v0)):
        c0, c1, c2 = C[l]
        # (C u)_l and (C v)_l, first over the elbow links 1 and 2 alone
        eu, ev = c1 * u1 + c2 * u2, c1 * v1 + c2 * v2
        cu, cv = eu + c0 * u0, ev + c0 * v0
        i1 += u * cu
        i2 += u * cu + v * cv
        pe += h[l] * v
        d1 += 2.0 * v * cu
        d2 += 2.0 * (v * cu - u * cv)
        dp -= h[l] * u
        if l:
            i3 += u * eu + v * ev
            d3 += 2.0 * (v * eu - u * ev)
        if l == 2:
            s2 = d1, d2, d3, dp
        elif l == 1:
            s1 = d1, d2, d3, dp
    jac = ((0.0, d1, s1[0], s2[0]), (0.0, d2, s1[1], s2[1]), (0.0, d3, s1[2], s2[2]),
           (0.0, 0.0, 0.0, 0.0))
    return (i1, i2, i3, i4), pe, (0.0, dp, s1[3], s2[3]), jac


def _kinetic(inertia, rates) -> float:
    i1, i2, i3, i4 = inertia
    w1, w2, w3, w4 = vector(rates, 4, "rates")
    return 0.5 * (i1 * w1 * w1 + i2 * w2 * w2 + i3 * w3 * w3 + i4 * w4 * w4)


def joint_inertias(geom: ArmGeometry, masses: MassModel, theta) -> np.ndarray:
    """Effective rotational inertia seen by each joint at configuration theta."""
    _, t2, t3, t4 = vector(theta, 4, "theta")
    return np.array(_kernel(_mass_forms(geom, masses), t2, t3, t4)[0])


def potential_energy(geom: ArmGeometry, masses: MassModel, theta) -> float:
    """Gravitational potential energy of the arm (joules, P1 height = 0)."""
    _, t2, t3, t4 = vector(theta, 4, "theta")
    return _kernel(_mass_forms(geom, masses), t2, t3, t4)[1]


def kinetic_energy(geom: ArmGeometry, masses: MassModel, theta, rates) -> float:
    """Decoupled rotational kinetic energy: (1/2) sum_k I_k(theta) rate_k^2."""
    _, t2, t3, t4 = vector(theta, 4, "theta")
    return _kinetic(_kernel(_mass_forms(geom, masses), t2, t3, t4)[0], rates)


def total_energy(geom: ArmGeometry, masses: MassModel, theta, rates) -> float:
    """KE + PE."""
    _, t2, t3, t4 = vector(theta, 4, "theta")
    inertia, pe, _, _ = _kernel(_mass_forms(geom, masses), t2, t3, t4)
    return _kinetic(inertia, rates) + pe


def equilibrium_torque(geom: ArmGeometry, masses: MassModel, theta) -> np.ndarray:
    """Torque holding the arm motionless against gravity: dPE/dtheta.

    forward_dynamics(theta, 0, equilibrium_torque(theta)) is zero to machine
    precision because both read the same kernel gradient.
    """
    _, t2, t3, t4 = vector(theta, 4, "theta")
    return np.array(_kernel(_mass_forms(geom, masses), t2, t3, t4)[2])


def _accelerations(forms, t2, t3, t4, w, tau) -> list[float]:
    """forward_dynamics on Python floats, from the mass forms
    `_mass_forms(geom, masses)`: planar angles t2..t4, and the rates w and
    torque tau as 4-sequences of floats.  Returns the four accelerations
    as a list."""
    return _solve(_kernel(forms, t2, t3, t4), (t2, t3, t4), w, tau)


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
    """The forms of `_mass_forms` expanded by the product-to-sum identities:
    quantity q at theta is sum_t alpha[t, q] * cos(n[t] . theta), q = 0..3
    for I1..I4 and 4 for PE.

    Returns read-only float arrays (n (T, 4), alpha (T, 5), nn (T, 16)),
    with nn[t] the flattened outer product n[t] n[t]^T.  Row 0 is the
    constant term (n = 0); the theta1 entry of every n is zero.
    """
    C, h, i4 = _mass_forms(geom, mm)
    zero = (0, 0, 0, 0)
    terms = {zero: [0.0, 0.0, 0.0, i4, 0.0]}

    def add(n, quantity, alpha):
        n = tuple(int(v) for v in n)
        if n < zero:  # cos is even: n and -n are one term
            n = tuple(-v for v in n)
        terms.setdefault(n, [0.0] * 5)[quantity] += alpha

    links = [np.array(n) for n in _LINK_ANGLES]
    for l, m in itertools.product(range(3), repeat=2):
        diff, total = links[l] - links[m], links[l] + links[m]
        # sin a_l sin a_m = (cos(a_l - a_m) - cos(a_l + a_m)) / 2
        add(diff, 0, 0.5 * C[l][m])
        add(total, 0, -0.5 * C[l][m])
        add(diff, 1, C[l][m])
        if l and m:
            add(diff, 2, C[l][m])
    for l in range(3):
        add(links[l], 4, h[l])

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
    _, t2, t3, t4 = vector(theta, 4, "theta")
    return np.array(_accelerations(
        _mass_forms(geom, masses), t2, t3, t4,
        vector(rates, 4, "rates"), vector(torque, 4, "torque"),
    ))
