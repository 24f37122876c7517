"""Continuous-time LQR synthesis: Riccati solution and feedback gain.

solve_care extracts the stable invariant subspace of the Hamiltonian

    H = [[A, -B R^-1 B^T],
         [-Q, -A^T]]

with an ordered real Schur decomposition and recovers P from its basis.
The solver accepts any n x n / n x m pair so small analytic cases can be
checked by hand.  Each solve calls LAPACK directly (dgees, dpotrs, dsyevd,
dgeev), and CostWeights computes once what depends on the weights alone: the
Cholesky factor of R, -Q, the residual limit and the dgees workspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .errors import IllConditioned, NotStabilizable

# residual contract: ||A'P + PA - PBR^-1B'P + Q||_F <= RESIDUAL_RTOL * max(1, ||Q||_F)
RESIDUAL_RTOL = 1e-8
_SYM_TOL = 1e-12


def _symmetric(mat: np.ndarray, name: str) -> tuple[np.ndarray, float]:
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} must be finite")
    scale = max(1.0, float(np.abs(m).max()) if m.size else 0.0)
    with np.errstate(over="ignore"):  # an overflow gives inf, rejected below
        sym, asymmetry = 0.5 * (m + m.T), float(np.abs(m - m.T).max())
        norm = float(np.linalg.norm(sym))
    if asymmetry > _SYM_TOL * scale:
        raise ValueError(f"{name} must be symmetric to {_SYM_TOL}")
    if np.isinf(norm):
        raise ValueError(f"{name} is too large: its symmetric part or norm overflows")
    return sym, norm


def _lhp(re, im):
    return re < 0.0


@dataclass(frozen=True)
class CostWeights:
    """State weight Q (symmetric PSD) and input weight R (symmetric PD)."""

    Q: np.ndarray
    R: np.ndarray
    # what _solve needs from Q and R alone; not part of equality or repr
    _r_chol: np.ndarray = field(init=False, repr=False, compare=False)
    _neg_q: np.ndarray = field(init=False, repr=False, compare=False)
    _limit: float = field(init=False, repr=False, compare=False)
    _lwork: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        q, q_norm = _symmetric(self.Q, "Q")
        r, _ = _symmetric(self.R, "R")
        q_eigs = np.linalg.eigvalsh(q)
        if q_eigs.min() < -1e-10 * max(1.0, q_eigs.max()):
            raise ValueError(f"Q must be positive semidefinite (min eig {q_eigs.min()})")
        r_eigs = np.linalg.eigvalsh(r)
        r_chol, info = lapack.dpotrf(r)  # the upper factor, as in scipy's cho_factor
        if r_eigs.min() <= 0.0 or info:
            raise ValueError(f"R must be positive definite (min eig {r_eigs.min()})")
        q.flags.writeable = False
        r.flags.writeable = False
        object.__setattr__(self, "Q", q)
        object.__setattr__(self, "R", r)
        object.__setattr__(self, "_r_chol", r_chol)
        object.__setattr__(self, "_neg_q", -q)
        object.__setattr__(self, "_limit", RESIDUAL_RTOL * max(1.0, q_norm))
        # the optimal dgees workspace, queried as scipy.linalg.schur does; it depends on n alone
        query = lapack.dgees(_lhp, np.zeros((2 * len(q),) * 2), lwork=-1)
        object.__setattr__(self, "_lwork", int(query[-2][0]))

    @classmethod
    def from_diagonals(cls, q_diag, r_diag) -> "CostWeights":
        """Diagonal Q and R from two 1-D vectors of any length."""
        return cls(_diagonal(q_diag, "q_diag"), _diagonal(r_diag, "r_diag"))


def _diagonal(values, name: str) -> np.ndarray:
    """diag(values) for a 1-D vector, or ValueError naming it."""
    try:
        d = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged, not numbers, too large
        raise ValueError(f"{name} must be a 1-D vector of floats, got {values!r}") from exc
    if d.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {d.shape}")
    return np.diag(d)


def _check_system(A, B, weights):
    A = np.asarray(A, dtype=float)
    if A.ndim < 2:
        A = A.reshape(1, -1)  # as np.atleast_2d
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"A must be square, got {A.shape}")
    if B.ndim != 2 or B.shape[0] != n:
        raise ValueError(f"B must have {n} rows, got {B.shape}")
    if weights.Q.shape != (n, n):
        raise ValueError(f"Q must be {n}x{n}, got {weights.Q.shape}")
    m = B.shape[1]
    if weights.R.shape != (m, m):
        raise ValueError(f"R must be {m}x{m}, got {weights.R.shape}")
    return A, B


def _solve(A, B, weights: CostWeights):
    """(P, K): the stabilizing CARE solution and its gain R^-1 B' P."""
    A, B = _check_system(A, B, weights)
    n = A.shape[0]
    # finiteness is checked here, on B and on H, in place of scipy's checks
    if not np.isfinite(B).all():
        raise ValueError("B must be finite")
    G = B @ lapack.dpotrs(weights._r_chol, B.T)[0]

    H = np.empty((2 * n, 2 * n), order="F")
    H[:n, :n], H[:n, n:] = A, -G
    H[n:, :n], H[n:, n:] = weights._neg_q, -A.T
    if not np.isfinite(H).all():
        raise ValueError("A must be finite, and B R^-1 B' must not overflow")
    _, sdim, _, _, Z, _, info = lapack.dgees(_lhp, H, lwork=weights._lwork,
                                             sort_t=1, overwrite_a=1)
    if info:
        raise IllConditioned(f"ordered Schur form failed (dgees info {info})")
    if sdim != n:
        raise NotStabilizable(f"stable invariant subspace has dimension {sdim}, expected {n}")
    try:
        P = np.linalg.solve(Z[:n, :n].T, Z[n:, :n].T).T
    except np.linalg.LinAlgError as exc:
        raise NotStabilizable(f"singular subspace basis: {exc}") from exc

    scale = max(1.0, float(np.abs(P).max()))
    if float(np.abs(P - P.T).max()) > 1e-10 * scale:
        raise IllConditioned("Riccati solution lost symmetry")
    P = 0.5 * (P + P.T)

    eigs = lapack.dsyevd(P, compute_v=0)[0]
    if eigs.min() < -1e-8 * max(1.0, eigs.max()):
        raise NotStabilizable(f"Riccati solution not PSD (min eig {eigs.min()})")

    # written so that a non-finite residual fails too
    residual = float(np.linalg.norm(A.T @ P + P @ A - P @ G @ P + weights.Q))
    if not residual <= weights._limit:
        raise IllConditioned(f"CARE residual {residual:.3e} exceeds {weights._limit:.3e}")

    K = lapack.dpotrs(weights._r_chol, B.T @ P)[0]
    closed = lapack.dgeev(A - B @ K, compute_vl=0, compute_vr=0)[0]
    if closed.max() >= 0.0:
        raise NotStabilizable(f"closed loop not Hurwitz (max Re eig {closed.max():.3e})")
    return P, K


def solve_care(A, B, weights: CostWeights) -> np.ndarray:
    """Solve A'P + PA - P B R^-1 B' P + Q = 0 for the stabilizing P.

    Returns the symmetric PSD solution.  Raises NotStabilizable when no
    stabilizing solution exists (wrong stable-subspace dimension, singular
    basis, indefinite P, or a non-Hurwitz closed loop), IllConditioned when
    the Schur form or residual check fails; ValueError for non-finite A or B.
    """
    return _solve(A, B, weights)[0]


def lqr_gain(A, B, weights: CostWeights) -> np.ndarray:
    """Optimal state-feedback gain K = R^-1 B' P for u = -K x.

    Raises the same errors as solve_care.
    """
    return _solve(A, B, weights)[1]
