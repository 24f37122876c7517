"""Independent numerical oracles for the dynamics, linearization and
simulator tests.

The dynamics oracles work by brute-force difference quotients of the scalar
energies; none of it touches the closed-form derivative bookkeeping inside
the library's forward dynamics or its closed-form linearization.  The RK4
reference is the array form of the integrator, built on the public
forward_dynamics, that the library's float loop must reproduce bit for bit.
The gain-table reference is the 4-D multilinear blend over every node of a
flat grid, theta1 included, that the planar lookup must match to rounding.
The CARE reference is the Schur solve written with scipy.linalg's
high-level schur, cho_factor/cho_solve and np.block, whose P and K the
library's direct LAPACK calls must reproduce byte for byte.
"""

import numpy as np
import scipy.linalg

from armctl import (
    IllConditioned,
    NotStabilizable,
    forward_dynamics,
    kinetic_energy,
    potential_energy,
)
from armctl.riccati import RESIDUAL_RTOL


def reference_step_rk4(geom, masses, x, torque, dt):
    """One classical RK4 step of x' = [rates, forward_dynamics(...)] on
    NumPy arrays, with the torque held constant over the step."""
    x = np.asarray(x, dtype=float)
    tau = np.asarray(torque, dtype=float)

    def f(state):
        return np.concatenate(
            [state[4:], forward_dynamics(geom, masses, state[:4], state[4:], tau)]
        )

    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def lagrangian_accelerations(geom, masses, theta, rates, torque, h=1e-4):
    """Solve the Euler-Lagrange equations using only finite differences of
    the scalar Lagrangian L(q, w) = KE - PE.

    Expanding d/dt (dL/dw_i) by the chain rule gives

        sum_j d2L/dw_i dw_j * acc_j + sum_j d2L/dw_i dq_j * w_j - dL/dq_i = tau_i

    so the accelerations come from one 4x4 linear solve.  All first and
    second partials are central difference quotients with step h.
    """
    q = np.asarray(theta, dtype=float)
    w = np.asarray(rates, dtype=float)
    tau = np.asarray(torque, dtype=float)

    def lag(qv, wv):
        return kinetic_energy(geom, masses, qv, wv) - potential_energy(geom, masses, qv)

    n = 4
    mass = np.empty((n, n))
    mixed = np.empty((n, n))
    dLdq = np.empty(n)
    eye = np.eye(n) * h
    for i in range(n):
        dLdq[i] = (lag(q + eye[i], w) - lag(q - eye[i], w)) / (2.0 * h)
        for j in range(n):
            mass[i, j] = (
                lag(q, w + eye[i] + eye[j])
                - lag(q, w + eye[i] - eye[j])
                - lag(q, w - eye[i] + eye[j])
                + lag(q, w - eye[i] - eye[j])
            ) / (4.0 * h * h)
            mixed[i, j] = (
                lag(q + eye[j], w + eye[i])
                - lag(q + eye[j], w - eye[i])
                - lag(q - eye[j], w + eye[i])
                + lag(q - eye[j], w - eye[i])
            ) / (4.0 * h * h)
    return np.linalg.solve(mass, tau + dLdq - mixed @ w)


def fd_jacobian(f, x, h=1e-5):
    """Plain central-difference Jacobian with a fixed step, deliberately
    different from the library's adaptive-step rule."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        cols.append((np.asarray(f(xp), float) - np.asarray(f(xm), float)) / (2.0 * h))
    return np.stack(cols, axis=1)


def five_point_jacobian(f, x, h=1e-3):
    """High-order central-difference Jacobian with fixed steps: the
    five-point stencil (f(x - 2h) - 8 f(x - h) + 8 f(x + h) - f(x + 2h)) / 12h
    at steps h and h/2, Richardson-combined as (16 D(h/2) - D(h)) / 15.
    The result is sixth-order in h, so with h = 1e-3 rounding (about 1e-12
    relative), not the step, sets its error; a plain five-point stencil
    there is off by ~1e-9 where a joint inertia is small."""
    x = np.asarray(x, dtype=float)

    def stencil(j, step):
        def at(k):
            y = x.copy()
            y[j] += k * step
            return np.asarray(f(y), float)

        return (at(-2) - 8.0 * at(-1) + 8.0 * at(1) - at(2)) / (12.0 * step)

    return np.stack(
        [(16.0 * stencil(j, h / 2) - stencil(j, h)) / 15.0 for j in range(x.size)], axis=1
    )


def reference_multilinear(grid, entries, theta):
    """Multilinear interpolation over the 2^4 nodes around theta, from the
    4-D node array of a flat table (entries[i1, i2, i3, i4] a 4x8 gain)."""
    gain = np.zeros(entries.shape[4:])
    cells = []
    for k in range(4):
        axis = grid.axis(k)
        i = min(int(np.searchsorted(axis, theta[k], side="right")) - 1, axis.size - 2)
        cells.append((i, (theta[k] - axis[i]) / (axis[i + 1] - axis[i])))
    for bits in np.ndindex(2, 2, 2, 2):
        weight = 1.0
        for (i, t), b in zip(cells, bits):
            weight *= t if b else 1.0 - t
        gain += weight * entries[tuple(i + b for (i, _), b in zip(cells, bits))]
    return gain


def _reference_check_system(A, B, weights):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"A must be square, got {A.shape}")
    if B.shape[0] != n:
        raise ValueError(f"B must have {n} rows, got {B.shape}")
    if weights.Q.shape != (n, n):
        raise ValueError(f"Q must be {n}x{n}, got {weights.Q.shape}")
    m = B.shape[1]
    if weights.R.shape != (m, m):
        raise ValueError(f"R must be {m}x{m}, got {weights.R.shape}")
    return A, B


def reference_care(A, B, weights):
    """(P, K): the stabilizing CARE solution and its gain R^-1 B' P, from
    the ordered Schur form of the Hamiltonian through scipy.linalg.schur."""
    A, B = _reference_check_system(A, B, weights)
    n = A.shape[0]
    # finiteness is checked here, on B and on H, in place of scipy's checks
    if not np.isfinite(B).all():
        raise ValueError("B must be finite")
    r_chol = scipy.linalg.cho_factor(weights.R)
    G = B @ scipy.linalg.cho_solve(r_chol, B.T, check_finite=False)

    H = np.block([[A, -G], [-weights.Q, -A.T]])
    if not np.isfinite(H).all():
        raise ValueError("A must be finite, and B R^-1 B' must not overflow")
    _, Z, sdim = scipy.linalg.schur(H, output="real", sort="lhp", check_finite=False)
    if sdim != n:
        raise NotStabilizable(
            f"stable invariant subspace has dimension {sdim}, expected {n}"
        )
    Z11 = Z[:n, :n]
    Z21 = Z[n:, :n]
    try:
        P = np.linalg.solve(Z11.T, Z21.T).T
    except np.linalg.LinAlgError as exc:
        raise NotStabilizable(f"singular subspace basis: {exc}") from exc

    scale = max(1.0, float(np.abs(P).max()))
    if float(np.abs(P - P.T).max()) > 1e-10 * scale:
        raise IllConditioned("Riccati solution lost symmetry")
    P = 0.5 * (P + P.T)

    eigs = np.linalg.eigvalsh(P)
    if eigs.min() < -1e-8 * max(1.0, eigs.max()):
        raise NotStabilizable(f"Riccati solution not PSD (min eig {eigs.min()})")

    residual = A.T @ P + P @ A - P @ G @ P + weights.Q
    limit = RESIDUAL_RTOL * max(1.0, float(np.linalg.norm(weights.Q)))
    if float(np.linalg.norm(residual)) > limit:
        raise IllConditioned(
            f"CARE residual {np.linalg.norm(residual):.3e} exceeds {limit:.3e}"
        )

    K = scipy.linalg.cho_solve(r_chol, B.T @ P)
    closed = np.linalg.eigvals(A - B @ K)
    if closed.real.max() >= 0.0:
        raise NotStabilizable(
            f"closed loop not Hurwitz (max Re eig {closed.real.max():.3e})"
        )
    return P, K
