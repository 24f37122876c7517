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
`kinematics.planar_chain(t2, t3, t4)` returns (no joint coordinates).  It
is straight-line code, one block per link, and returns one flat tuple of
floats: the four joint inertias, the potential energy, and their non-zero
exact gradients (d/da_l, summed over the links each joint angle turns).
Given the rates and torques too, the same call goes on to the accelerations
and returns only those four, so an RK4 stage is one call; with `full` it
returns the 17 values and then the accelerations, for `linearize` (and
for `linearize_nodes`, at zero rates and torques).  `forms` is
`_mass_forms(geom, masses)`, looked up once per caller: once per public
call below, and once per control period in the simulator.

The six public readers (`forward_dynamics`, `equilibrium_torque`,
`joint_inertias` and the three energies) are each one call of `_read`, the
one checked kernel read: the arguments, one kernel call, and Diverged when
a value the kernel returns is not finite, so no reader returns part of a
model that overflowed (g or the masses near 1e308).  The energies' kinetic
term is formed after it, unchecked (inf at rates near 1e154).  The RK4
stages, the per-period energy, `linearize` and `linearize_nodes` call the
kernel directly, so integration pays no per-stage conversion.  The kernel
repeats the IEEE operations of the loop form that `tests/oracles.py` keeps
as its reference, in the same order, each sum starting from 0.0 and each
structural-zero term kept, so every result is bit-identical to it.

Second derivatives come from the same forms.  By the product-to-sum
identities each of I1..I4 and PE is a short sum of terms
alpha * cos(n . theta) over integer vectors n (`_cosine_terms`), whose
Hessian is -alpha * cos(n . theta) * n n^T (`_hessians`).  The
linearization takes I, dI and dPE from `_kernel` and the Hessians from this
expansion.

The public functions read theta, rates and torque through
`errors.vector`: any array-like of 4 values is accepted flattened, any
other size raises ValueError("<name> must have 4 components, got N"), and a
nan or inf ValueError("<name> must be finite").  `_kernel` does not
check its arguments or its values: `_read` checks the values, and the
simulator raises Diverged for a non-finite state.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInertia, Diverged, scalar, vector
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


def _kernel(forms, t2: float, t3: float, t4: float, w1=None, w2=None, w3=None, w4=None,
            tau1=None, tau2=None, tau3=None, tau4=None, full=False) -> tuple:
    """Inertias, potential energy and their exact gradients at a planar
    configuration, from the mass forms `_mass_forms(geom, masses)`, as one
    flat tuple of 17 floats:

        (I1, I2, I3, I4, PE, P2, P3, P4,
         J12, J13, J14, J22, J23, J24, J32, J33, J34)

    I1 is about the vertical axis, I2 about P1, I3 about P2 and I4 about P3,
    each covering the mass distal to that pivot; PE puts the point masses at
    their heights and each uniform segment at the mean of its endpoint
    heights (P1 is the zero reference); Pj = dPE/dtheta_j and
    Jkj = dI_k/dtheta_j.  The theta1 entries and the gradient of I4 are
    structurally zero and left out.

    Given the rates w1..w4 and the torques tau1..tau4 (floats), it returns
    the four accelerations instead, or with `full` the 17 values followed
    by them, and raises DegenerateInertia when any I_k <= EPS_INERTIA.
    Each acceleration is forward_dynamics' formula, its sums taken term by
    term in index order.  The rates are finite (every caller checks them),
    so each structural-zero term 0.0 * w * w of a quadratic sum is +0.0 and
    is added as such (the first quadratic sum, and dPE/dtheta1, are 0.0);
    the convective sums keep their signed zeros 0.0 * w.  The J32 slot
    holds J33: I3 covers only the elbow links 1 and 2, which theta2 and
    theta3 both turn, and never reads link 0, so dI3/dtheta2 = dI3/dtheta3
    exactly.
    """
    u0, v0, u1, v1, u2, v2 = planar_chain(t2, t3, t4)
    ((c00, c01, c02), (c10, c11, c12), (c20, c21, c22)), (h0, h1, h2), i4 = forms
    # a4 = theta2 + theta3 + theta4, a3 = theta2 + theta3, a2 = theta2: so
    # d/dtheta_j sums d/da_l over the links l >= j - 2, a suffix sum taken
    # from link 2 down, as every other sum is, each starting from 0.0 (PE's
    # last: only the 17 values carry it).
    # link 2: (C u)_2 and (C v)_2, first over the elbow links 1 and 2 alone
    eu, ev = c21 * u1 + c22 * u2, c21 * v1 + c22 * v2
    cu, cv = eu + c20 * u0, ev + c20 * v0
    i1, i2, i3 = 0.0 + u2 * cu, 0.0 + (u2 * cu + v2 * cv), 0.0 + (u2 * eu + v2 * ev)
    p4 = 0.0 - h2 * u2
    j14, j24 = 0.0 + 2.0 * v2 * cu, 0.0 + 2.0 * (v2 * cu - u2 * cv)
    j34 = 0.0 + 2.0 * (v2 * eu - u2 * ev)
    # link 1
    eu, ev = c11 * u1 + c12 * u2, c11 * v1 + c12 * v2
    cu, cv = eu + c10 * u0, ev + c10 * v0
    i1, i2, i3 = i1 + u1 * cu, i2 + (u1 * cu + v1 * cv), i3 + (u1 * eu + v1 * ev)
    p3 = p4 - h1 * u1
    j13, j23 = j14 + 2.0 * v1 * cu, j24 + 2.0 * (v1 * cu - u1 * cv)
    j33 = j34 + 2.0 * (v1 * eu - u1 * ev)
    # link 0, which I3 (so J3j too) does not cover
    cu = c01 * u1 + c02 * u2 + c00 * u0
    cv = c01 * v1 + c02 * v2 + c00 * v0
    i1, i2, p2 = i1 + u0 * cu, i2 + (u0 * cu + v0 * cv), p3 - h0 * u0
    j12, j22 = j13 + 2.0 * v0 * cu, j23 + 2.0 * (v0 * cu - u0 * cv)
    if w1 is not None:
        if i1 <= EPS_INERTIA or i2 <= EPS_INERTIA or i3 <= EPS_INERTIA or i4 <= EPS_INERTIA:
            k, inertia = next((k, i) for k, i in enumerate((i1, i2, i3, i4))
                              if i <= EPS_INERTIA)
            raise DegenerateInertia(
                f"joint {k + 1} inertia {inertia!r} <= {EPS_INERTIA} at theta={(t2, t3, t4)!r}"
            )
        z = 0.0 * w1
        a1 = (0.0 - w1 * (z + j12 * w2 + j13 * w3 + j14 * w4) + tau1) / i1
        a2 = (0.5 * (j12 * w1 * w1 + j22 * w2 * w2 + j33 * w3 * w3 + 0.0) - p2
              - w2 * (z + j22 * w2 + j23 * w3 + j24 * w4) + tau2) / i2
        a3 = (0.5 * (j13 * w1 * w1 + j23 * w2 * w2 + j33 * w3 * w3 + 0.0) - p3
              - w3 * (z + j33 * w2 + j33 * w3 + j34 * w4) + tau3) / i3
        a4 = (0.5 * (j14 * w1 * w1 + j24 * w2 * w2 + j34 * w3 * w3 + 0.0) - p4
              - w4 * (z + 0.0 * w2 + 0.0 * w3 + 0.0 * w4) + tau4) / i4
        if not full:
            return a1, a2, a3, a4
    pe = 0.0 + h2 * v2 + h1 * v1 + h0 * v0
    kernel = (i1, i2, i3, i4, pe, p2, p3, p4, j12, j13, j14, j22, j23, j24, j33, j33, j34)
    return kernel + (a1, a2, a3, a4) if full else kernel


def _kinetic(kernel, w1: float, w2: float, w3: float, w4: float) -> float:
    i1, i2, i3, i4 = kernel[:4]
    return 0.5 * (i1 * w1 * w1 + i2 * w2 * w2 + i3 * w3 * w3 + i4 * w4 * w4)


def _energy(forms, t2, t3, t4, w1, w2, w3, w4) -> float:
    """KE + PE on floats, from the mass forms `_mass_forms(geom, masses)`."""
    kernel = _kernel(forms, t2, t3, t4)
    return _kinetic(kernel, w1, w2, w3, w4) + kernel[4]


def _read(geom: ArmGeometry, masses: MassModel, theta, *moving) -> tuple:
    """theta, and forward_dynamics' rates then torque (`moving`), read by
    `errors.vector`; one `_kernel` call, returning the 17 values or, given
    `moving`, the 4 accelerations; Diverged when a value is not finite."""
    _, t2, t3, t4 = theta = vector(theta, 4, "theta")
    rates = torque = ()
    if moving:
        rates, torque = vector(moving[0], 4, "rates"), vector(moving[1], 4, "torque")
    values = _kernel(_mass_forms(geom, masses), t2, t3, t4, *rates, *torque)
    # a finite sum proves every value finite; a non-finite one may be overflow
    if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
        at = f"theta {theta}" + (f", rates {rates} and torque {torque}" if torque else "")
        raise Diverged(f"{'accelerations' if torque else 'model'} {[*values]} not finite at {at}")
    return values


def joint_inertias(geom: ArmGeometry, masses: MassModel, theta) -> np.ndarray:
    """Effective rotational inertia seen by each joint at configuration theta."""
    return np.array(_read(geom, masses, theta)[:4])


def potential_energy(geom: ArmGeometry, masses: MassModel, theta) -> float:
    """Gravitational potential energy of the arm (joules, P1 height = 0)."""
    return _read(geom, masses, theta)[4]


def kinetic_energy(geom: ArmGeometry, masses: MassModel, theta, rates) -> float:
    """Decoupled rotational kinetic energy: (1/2) sum_k I_k(theta) rate_k^2."""
    return _kinetic(_read(geom, masses, theta), *vector(rates, 4, "rates"))


def total_energy(geom: ArmGeometry, masses: MassModel, theta, rates) -> float:
    """KE + PE."""
    return _kinetic(kernel := _read(geom, masses, theta), *vector(rates, 4, "rates")) + kernel[4]


def equilibrium_torque(geom: ArmGeometry, masses: MassModel, theta) -> np.ndarray:
    """Torque holding the arm motionless against gravity: dPE/dtheta.

    forward_dynamics(theta, 0, equilibrium_torque(theta)) is zero to machine
    precision because both read the same kernel gradient.
    """
    return np.array((0.0, *_read(geom, masses, theta)[5:8]))


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
    """Exact second derivatives at a stack theta (k, 4): H[s, q, i, j] =
    d2 Q / dtheta_i dtheta_j at theta[s], Q = I1..I4 (q = 0..3) or PE (q = 4).
    Row and column 0 (theta1) and H[:, 3] (I4 is constant) are zero.  The
    products may overflow (g = 1e308): callers run this in np.errstate."""
    n, alpha, nn = _cosine_terms(geom, masses)
    c = np.cos(n @ theta[:, :, None])
    return -((alpha.T * c.transpose(0, 2, 1)) @ nn).reshape(-1, 5, 4, 4)


def forward_dynamics(geom: ArmGeometry, masses: MassModel, theta, rates, torque) -> np.ndarray:
    """Joint accelerations from the Euler-Lagrange equations of KE - PE.

    With the decoupled kinetic energy the system is diagonal in the
    accelerations:

        acc_i = ( 0.5 * sum_k dI_k/dq_i * w_k^2
                  - dPE/dq_i
                  - w_i * sum_j dI_i/dq_j * w_j
                  + tau_i ) / I_i

    Raises DegenerateInertia when any I_k(theta) <= EPS_INERTIA, and
    Diverged when finite arguments overflow an acceleration.
    """
    return np.array(_read(geom, masses, theta, rates, torque))
