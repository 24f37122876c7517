"""Continuous-time LQR synthesis: Riccati solution and feedback gain.

solve_care extracts the stable invariant subspace of the Hamiltonian

    H = [[A, -B R^-1 B^T],
         [-Q, -A^T]]

with an ordered real Schur decomposition and recovers P from its basis.
The solver accepts any n x n / n x m pair so small analytic cases can be
checked by hand.  Each solve calls LAPACK directly (dgees, dpotrs, dpotrf,
and dsyevd and dgeev where a certificate fails).  dgees runs at f2py's
default workspace, LAPACK's minimum 3*2n: an arm's Hamiltonian (2n = 16)
is far below LAPACK's blocking crossovers, where the optimal workspace runs
the same unblocked code.  CostWeights computes once what depends on the
weights alone: the Cholesky factor of R, -Q, the residual limit and the
certificates' margin factors.  Finiteness is one scan of H per solve: a
non-finite B reaches the diagonal of B R^-1 B' (R^-1 is positive
definite), so B is read only when that scan fails, to name it.

The PSD and Hurwitz checks compute no eigenvalue unless a certificate
fails.  The PSD check factors P - tau_P I with dpotrf: success proves P
positive definite, which passes the eigenvalue test.  With P so certified,
the Hurwitz check factors -(A_cl'P + P A_cl) - tau_S I, A_cl = A - BK: by
Lyapunov's theorem, success proves A_cl Hurwitz.  The margins tau_P and
tau_S bound the rounding of the products and of Cholesky itself (_margins),
so a pass is a proof for the matrices as computed.  A system whose
factorization fails, or whose P was not certified, runs the eigenvalue
test as before: dsyevd's smallest eigenvalue of P against -1e-8 max(1,
largest), dgeev's largest real part against 0, with their errors.  P and K
never depend on a certificate, nor does the order of the checks.  On the
arm's systems every certificate passes.

solve_stack solves a stack of systems that share the weights, as a table
build does; solve_care and lqr_gain, the online path, solve one system
through _solve.  Both bodies call the same per-system steps, each with its
checks: _schur_basis (dgees), _basis_solve, _check_psd (dpotrf, then
dsyevd) and _check_hurwitz (dpotrf, then dgeev); _ERRORS holds each check's
error.  They differ only in layout: solve_stack makes each dpotrs once per
stack on the columns of all its systems, and the Hamiltonians, the
symmetry and residual checks, the closed loops and the certificates'
matrices and margins once over the stack, which saves most of the per-call
overhead; _solve works on 2-D operands, and a stack of one takes ~1.3x as
long (tools/ab_layers.py's stack1 over lqr_gain, 2-vCPU x86-64 host, one
BLAS thread).  Each system gets the bytes it gets alone, and a stack with
a failing system raises the error that system raises alone; which node of
a table build fails first is gain_table._solve_nodes' to find.

The LAPACK routines are scipy's, from its compiled scipy/linalg/_flapack
module (scipy.linalg.lapack re-exports them).  _load_flapack loads that one
file by its path: importing scipy.linalg would run the package's init, ~300
more modules and ~20 MB that armctl never uses.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from importlib import machinery, util

import numpy as np

from .errors import IllConditioned, NotStabilizable


def _load_flapack():
    """scipy.linalg._flapack loaded from its file, with sys.modules left as it
    was; a later `import scipy.linalg` runs its init and shares the routines."""
    name, scipy = "scipy.linalg._flapack", util.find_spec("scipy")
    where = os.path.join(scipy.submodule_search_locations[0] if scipy else "scipy", "linalg")
    paths = [os.path.join(where, "_flapack" + s) for s in machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"no compiled _flapack module in {where}", name=name)
    spec = util.spec_from_file_location(name, path)
    kept = sys.modules.pop(name, None)  # creating a single-phase extension files it there
    try:
        module = util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(name, None)
        if kept is not None:
            sys.modules[name] = kept
    return module


lapack = _load_flapack()

# residual contract: ||A'P + PA - PBR^-1B'P + Q||_F <= RESIDUAL_RTOL * max(1, ||Q||_F),
# not scaled by P: 24 of tools/fingerprint.py's 512 well-posed seed-47 systems fail it
RESIDUAL_RTOL = 1e-8
_SYM_TOL = 1e-12
_P_SYM_RTOL = 1e-10  # P's symmetry, relative to max(1, max |P|)
# the certificates (_margins): unit roundoff, the margins' absolute floor,
# and the bound on ||A_cl||_F ||P||_F under which the Lyapunov matrix cannot
# overflow, so a certificate proves nothing beyond it
_U = 2.0**-53
_FLOOR = 2.0**-1000
_CERTIFIABLE = 2.0**1020


def _symmetric(mat: np.ndarray, name: str) -> tuple[np.ndarray, float]:
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"{name} must be a non-empty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} must be finite")
    scale = max(1.0, float(np.abs(m).max()))
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


# each check's error type and message, in the order the checks run (the
# scan of H names B first); both bodies raise _error(check, *values)
_ERRORS = {
    "B finite": (ValueError, "B must be finite"),
    "H finite": (ValueError, "A must be finite, and B R^-1 B' must not overflow"),
    "dgees info": (IllConditioned, "ordered Schur form failed (dgees info {})"),
    "dgees sdim": (NotStabilizable, "stable invariant subspace has dimension {}, expected {}"),
    "singular basis": (NotStabilizable, "singular subspace basis: {}"),
    "P symmetric": (IllConditioned, "Riccati solution lost symmetry"),
    "P PSD": (NotStabilizable, "Riccati solution not PSD (min eig {})"),
    "CARE residual": (IllConditioned, "CARE residual {:.3e} exceeds {:.3e}"),
    "closed loop Hurwitz": (NotStabilizable, "closed loop not Hurwitz (max Re eig {:.3e})"),
}


def _error(check: str, *values) -> Exception:
    kind, message = _ERRORS[check]
    return kind(message.format(*values))


def _schur_basis(H, n: int) -> np.ndarray:
    """The basis [Z11; Z21] of H's stable invariant subspace, transposed
    (n x 2n), from H's ordered real Schur form; dgees overwrites H."""
    _, sdim, _, _, Z, _, info = lapack.dgees(_lhp, H, sort_t=1, overwrite_a=1)
    if info:
        raise _error("dgees info", info)
    if sdim != n:
        raise _error("dgees sdim", sdim, n)
    return Z[:, :n].T


def _basis_solve(Zt: np.ndarray) -> np.ndarray:
    """P = Z21 Z11^-1 from a transposed basis, or from a stack of them."""
    n = Zt.shape[-2]
    try:
        return np.linalg.solve(Zt[..., :n], Zt[..., n:]).swapaxes(-1, -2)
    except np.linalg.LinAlgError as exc:  # numpy's message, as for one system
        raise _error("singular basis", exc) from exc


def _margins(n: int) -> tuple[float, float]:
    """(c_P, c_S), the factors of the certificates' margins for n states:
    tau_P = c_P (||P||_F + _FLOOR) and tau_S = c_S (||A_cl||_F ||P||_F + _FLOOR).

    With u = 2^-53, a Cholesky factorization that runs to completion on a
    symmetric M gives R'R = M + E with ||E||_2 <= (n+1) u tr M (to first
    order; Demmel 1989, Rump, BIT 46, 2006), so lambda_min(M) > -(n+1) u tr M.
    For M = fl(P - tau_P I), rounded on its diagonal only (by u |P_ii|),
    and tr M <= tr P <= sqrt(n) ||P||_F, P is positive definite once
    tau_P > (n+2) sqrt(n) u ||P||_F.  For the Lyapunov matrix of A_cl and P,
    A_cl'P has an error of 2-norm <= n u ||A_cl||_F ||P||_F, twice that in
    the sum with its transpose, whose rounding adds 2u ||A_cl||_F ||P||_F,
    and Cholesky adds (n+2) u tr|N| <= 2(n+2) u ||A_cl||_F ||P||_F: (4n+6) u
    ||A_cl||_F ||P||_F in all.  tau_S adds 16 n^2 u ||A_cl||_F ||P||_F, so
    that A_cl + E stays Hurwitz for any E of 2-norm up to 8 n^2 u ||A_cl||_F,
    an allowance for dgeev's backward error.  Each factor is twice its
    bound, which covers the rounding of the margins themselves, and
    _FLOOR covers underflow (an underflowing operation errs by at most
    2^-1075)."""
    return 2 * (n + 2) * math.sqrt(n) * _U, 2 * (4 * n + 6 + 16 * n * n) * _U


def _check_psd(P: np.ndarray, shifted) -> bool:
    """Raise unless P passes the PSD check.  The certificate first factors
    shifted, fl(P - tau_P I) Fortran-ordered (dpotrf overwrites it): when
    that succeeds, P is positive definite, so the eigenvalue test passes
    (dsyevd's backward error, O(n u ||P||), is far inside its 1e-8 ||P||),
    and True says so.  Otherwise dsyevd decides (False).  A P whose norm is
    not finite gets an inf or nan margin, so a diagonal that fails the
    factorization; an inf entry of P has already warned in the symmetry
    check."""
    if not lapack.dpotrf(shifted, overwrite_a=1, clean=0)[1]:
        return True
    eigs = lapack.dsyevd(P, compute_v=0)[0]
    if eigs.min() < -1e-8 * max(1.0, eigs.max()):
        raise _error("P PSD", eigs.min())
    return False


def _check_hurwitz(closed: np.ndarray, lyapunov) -> None:
    """Raise unless the closed loop A_cl is Hurwitz.  The certificate
    factors lyapunov, fl(-(A_cl'P + P A_cl)) - tau_S I Fortran-ordered, for
    a P that _check_psd certified (None if it did not): when that succeeds,
    A_cl'P + P A_cl is negative definite, so by Lyapunov's theorem A_cl is
    Hurwitz.  Otherwise dgeev decides; it overwrites closed, which must be
    Fortran-ordered."""
    if lyapunov is not None and not lapack.dpotrf(lyapunov, overwrite_a=1, clean=0)[1]:
        return
    eigs = lapack.dgeev(closed, compute_vl=0, compute_vr=0, overwrite_a=1)[0]
    if eigs.max() >= 0.0:
        raise _error("closed loop Hurwitz", eigs.max())


def _fit(a_shape, b_shape, weights) -> tuple[int, int]:
    """(n, m) of a system whose A and B end in the shapes a_shape and b_shape
    and fit the weights (each A n x n, each B n x m, Q n x n, R m x m), or
    ValueError naming the first that does not."""
    n, m = a_shape[-2], b_shape[-1]
    if a_shape[-1] != n:
        raise ValueError(f"A must be square, got {a_shape[-2:]}")
    if b_shape[-2] != n:
        raise ValueError(f"B must have {n} rows, got {b_shape[-2:]}")
    if weights.Q.shape != (n, n):
        raise ValueError(f"Q must be {n}x{n}, got {weights.Q.shape}")
    if weights.R.shape != (m, m):
        raise ValueError(f"R must be {m}x{m}, got {weights.R.shape}")
    return n, m


@dataclass(frozen=True)
class CostWeights:
    """State weight Q (symmetric PSD) and input weight R (symmetric PD)."""

    Q: np.ndarray
    R: np.ndarray
    # what solve_stack needs from Q and R alone; not part of equality or repr
    _r_chol: np.ndarray = field(init=False, repr=False, compare=False)
    _neg_q: np.ndarray = field(init=False, repr=False, compare=False)
    _limit: float = field(init=False, repr=False, compare=False)
    _margins: tuple = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_margins", _margins(len(q)))

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


def solve_stack(A, B, weights: CostWeights):
    """Solve a stack of systems sharing the weights, A (k, n, n) and B
    (k, n, m), in one call; a table build solves its nodes this way.

    Returns (P, K), (k, n, n) and (k, m, n): system i's P[i] and K[i] are
    the bytes solve_care and lqr_gain return for it.  Each check runs over
    the whole stack, and the first that fails raises the error solve_care
    raises alone for the first system failing it.  Raises ValueError unless
    A and B are stacks of k systems, k = 0 included, of one shape that fits
    the weights: each A n x n, each B n x m, Q n x n and R m x m.

    dgees and the certificates' dpotrf run per system (dsyevd and dgeev
    only where a certificate fails), and each dpotrs once on the stack's
    k*n right-hand sides, each column solved on its own; the rest runs over
    the stack on operands laid out per system as LAPACK lays them out, so a
    system's bytes do not depend on the rest of its stack.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 3 or B.ndim != 3 or len(A) != len(B):
        raise ValueError(f"A and B must be stacks of k systems, got shapes "
                         f"{A.shape} and {B.shape}")
    k, (n, m) = len(A), _fit(A.shape, B.shape, weights)

    # R^-1 B', and K below, solved over the stack's columns laid out (m, k*n):
    # each X[i] and K[i] is Fortran-ordered as from dpotrs
    X = lapack.dpotrs(weights._r_chol, B.transpose(2, 0, 1).reshape(m, k * n))[0]
    X = X.reshape(m, k, n).transpose(1, 0, 2)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite G fails the check on H
        G = B @ X

    H = np.empty((k, 2 * n, 2 * n)).transpose(0, 2, 1)  # Fortran-ordered for dgees
    H[:, :n, :n], H[:, :n, n:] = A, -G
    H[:, n:, :n], H[:, n:, n:] = weights._neg_q, -A.transpose(0, 2, 1)
    if not np.isfinite(H).all():  # the one finiteness scan, in place of scipy's checks
        raise _error("H finite" if np.isfinite(B).all() else "B finite")
    Zt = np.empty((k, n, 2 * n))
    for i in range(k):
        Zt[i] = _schur_basis(H[i], n)
    P = _basis_solve(Zt)

    P_t = P.transpose(0, 2, 1)
    scale = np.fmax(np.abs(P).max(axis=(1, 2)), 1.0)  # max(1.0, nan) is 1.0
    if (np.abs(P - P_t).max(axis=(1, 2)) > _P_SYM_RTOL * scale).any():
        raise _error("P symmetric")
    P = 0.5 * (P + P_t)

    # the certificates' matrices, each system's passed Fortran-ordered (a
    # symmetric matrix is its own transpose)
    c_psd, c_lyapunov = weights._margins
    p_norm = np.sqrt(np.einsum("kij,kij->k", P, P))
    shifted = P.copy()
    shifted.reshape(k, n * n)[:, :: n + 1] -= (c_psd * (p_norm + _FLOOR))[:, None]
    certified = [_check_psd(p, s.T) for p, s in zip(P, shifted)]

    # the norm as np.linalg.norm takes it: the flattened matrix's dot product
    # with itself; written so that a non-finite residual fails too
    R = (A.transpose(0, 2, 1) @ P + P @ A - P @ G @ P + weights.Q).reshape(k, 1, n * n)
    residual = np.sqrt(R @ R.transpose(0, 2, 1)).ravel()
    failed = residual[~(residual <= weights._limit)]
    if len(failed):
        raise _error("CARE residual", failed[0], weights._limit)

    BtP = (B.transpose(0, 2, 1) @ P).transpose(1, 0, 2).reshape(m, k * n)
    K = lapack.dpotrs(weights._r_chol, BtP)[0].reshape(m, k, n).transpose(1, 0, 2)
    closed = np.empty((k, n, n)).transpose(0, 2, 1)  # Fortran-ordered: dgeev overwrites it
    np.subtract(A, B @ K, out=closed)
    with np.errstate(over="ignore", invalid="ignore"):  # beyond the bound, an inf margin
        W = closed.transpose(0, 2, 1) @ P
        lyapunov = np.negative(W + W.transpose(0, 2, 1))
        bound = np.sqrt(np.einsum("kij,kij->k", closed, closed)) * p_norm
        lyapunov.reshape(k, n * n)[:, :: n + 1] -= c_lyapunov * (
            np.where(bound <= _CERTIFIABLE, bound, np.inf) + _FLOOR)[:, None]
    for c, s, ok in zip(closed, lyapunov, certified):
        _check_hurwitz(c, s.T if ok else None)
    return P, K


def _solve(A, B, weights: CostWeights):
    """(P, K) of one system: solve_stack's steps on 2-D operands, raising
    the error of the first check that fails.  For small cases by hand, a
    scalar or 1-D A is read as by np.atleast_2d and a 1-D B as a column."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    A = A.reshape(1, -1) if A.ndim < 2 else A
    B = B.reshape(-1, 1) if B.ndim == 1 else B
    if A.ndim != 2 or B.ndim != 2:  # not a system: the message _fit's rule gives first
        raise ValueError(f"A must be square, got {A.shape}" if A.shape != (len(A),) * 2
                         else f"B must have {len(A)} rows, got {B.shape}")
    n, _ = _fit(A.shape, B.shape, weights)
    X = lapack.dpotrs(weights._r_chol, B.T)[0]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite G fails the check on H
        G = B @ X

    H = np.empty((2 * n, 2 * n), order="F")  # dgees works on it in place
    H[:n, :n], H[:n, n:], H[n:, :n], H[n:, n:] = A, -G, weights._neg_q, -A.T
    if not np.isfinite(H).all():  # the one finiteness scan
        raise _error("H finite" if np.isfinite(B).all() else "B finite")
    P = _basis_solve(_schur_basis(H, n))

    if np.abs(P - P.T).max() > _P_SYM_RTOL * max(1.0, np.abs(P).max()):  # max(1.0, nan) is 1.0
        raise _error("P symmetric")
    P = 0.5 * (P + P.T)

    # solve_stack's certificates (np.vdot, unlike matmul, never warns)
    c_psd, c_lyapunov = weights._margins
    p_norm = math.sqrt(np.vdot(P, P))
    shifted = P.copy()
    shifted.ravel()[:: n + 1] -= c_psd * (p_norm + _FLOOR)
    certified = _check_psd(P, shifted.T)  # Fortran-ordered, and still P - tau_P I

    R = (A.T @ P + P @ A - P @ G @ P + weights.Q).ravel()  # as np.linalg.norm takes it
    residual = math.sqrt(R @ R)
    if not residual <= weights._limit:  # a non-finite residual fails too
        raise _error("CARE residual", residual, weights._limit)

    K = lapack.dpotrs(weights._r_chol, B.T @ P)[0]  # Fortran-ordered
    closed = np.subtract(A, B @ K, order="F")
    bound = math.sqrt(np.vdot(closed, closed)) * p_norm if certified else math.inf
    lyapunov = None
    if bound <= _CERTIFIABLE:
        W = closed.T @ P
        lyapunov = np.negative(W + W.T)
        lyapunov.ravel()[:: n + 1] -= c_lyapunov * (bound + _FLOOR)
        lyapunov = lyapunov.T
    _check_hurwitz(closed, lyapunov)
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

