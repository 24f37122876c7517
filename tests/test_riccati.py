import dataclasses
import importlib.machinery
import inspect
import itertools
import math
import pickle
import re
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import armctl.gain_table as gt
import armctl.riccati as riccati
from armctl import (
    ArmError,
    ControllerMode,
    CostWeights,
    GridSpec,
    IllConditioned,
    NotStabilizable,
    OperatingPoint,
    SimConfig,
    equilibrium_point,
    equilibrium_torque,
    linearize,
    lqr_gain,
    precompute,
    refine,
    simulate,
    solve_care,
)
from conftest import CHECKS, fail_certificates, safe_random_theta
from oracles import reference_care

DOUBLE_INTEGRATOR = (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))


def random_stabilizable(rng, n, m):
    """A = S - rho*I with rho pushing all eigenvalues into the left half
    plane, random B, Q = C'C PSD, R = I."""
    S = rng.normal(size=(n, n))
    rho = float(np.abs(np.linalg.eigvals(S).real).max()) + 0.5
    A = S - rho * np.eye(n)
    B = rng.normal(size=(n, m))
    C = rng.normal(size=(n, n))
    return A, B, CostWeights(C.T @ C, np.eye(m))


class TestCostWeights:
    def test_rejects_asymmetric_q(self):
        with pytest.raises(ValueError):
            CostWeights([[1.0, 0.5], [0.0, 1.0]], [[1.0]])

    def test_rejects_indefinite_q(self):
        with pytest.raises(ValueError):
            CostWeights([[-1.0, 0.0], [0.0, 1.0]], [[1.0]])

    def test_rejects_semidefinite_r(self):
        with pytest.raises(ValueError):
            CostWeights(np.eye(2), [[0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="Q must be finite"):
            CostWeights([[bad, 0.0], [0.0, 1.0]], [[1.0]])
        with pytest.raises(ValueError, match="R must be finite"):
            CostWeights(np.eye(2), [[bad]])

    @pytest.mark.parametrize("q_diag, r_diag, name", [
        ([1e308] * 8, [1.0] * 4, "Q"),  # the symmetric part overflows
        ([1e200] * 8, [1.0] * 4, "Q"),  # the Frobenius norm overflows
        ([1.0] * 8, [1e200] * 4, "R"),
    ])
    def test_rejects_overflowing_weights(self, q_diag, r_diag, name):
        with pytest.raises(ValueError, match=f"^{name} is too large"):
            CostWeights.from_diagonals(q_diag, r_diag)

    @pytest.mark.parametrize("Q, R, message", [
        (np.ones((2, 3)), [[1.0]], r"^Q must be a non-empty square matrix, got shape \(2, 3\)$"),
        (np.eye(2), [1.0], r"^R must be a non-empty square matrix, got shape \(1,\)$"),
    ], ids=["2x3-q", "1-d-r"])
    def test_rejects_a_non_square_weight(self, Q, R, message):
        with pytest.raises(ValueError, match=message):
            CostWeights(Q, R)

    def test_from_diagonals(self):
        w = CostWeights.from_diagonals([1, 2], [3])
        assert np.array_equal(w.Q, np.diag([1.0, 2.0]))
        assert np.array_equal(w.R, [[3.0]])

    @pytest.mark.parametrize("q_diag, r_diag, message", [
        (2 * np.eye(8), np.eye(4), r"^q_diag must be a 1-D vector, got shape \(8, 8\)"),
        (1.0, [1.0] * 4, r"^q_diag must be a 1-D vector, got shape \(\)"),
        ([1.0] * 8, [[1.0, 1.0], [1.0]], r"^r_diag must be a 1-D vector of floats"),
        ([1.0] * 8, [10**400] * 4, r"^r_diag must be a 1-D vector of floats"),
        ([], [1.0] * 4, r"^Q must be a non-empty square matrix, got shape \(0, 0\)$"),
        ([1.0] * 8, [], r"^R must be a non-empty square matrix, got shape \(0, 0\)$"),
    ], ids=["2-d", "scalar", "ragged", "int-beyond-float", "empty-q", "empty-r"])
    def test_from_diagonals_names_a_bad_vector(self, q_diag, r_diag, message):
        with pytest.raises(ValueError, match=message):
            CostWeights.from_diagonals(q_diag, r_diag)


class TestAnalyticCases:
    def test_double_integrator_care(self):
        A, B = DOUBLE_INTEGRATOR
        P = solve_care(A, B, CostWeights(np.eye(2), np.eye(1)))
        s3 = math.sqrt(3.0)
        assert np.allclose(P, [[s3, 1.0], [1.0, s3]], rtol=0, atol=1e-12)

    def test_double_integrator_gain(self):
        A, B = DOUBLE_INTEGRATOR
        K = lqr_gain(A, B, CostWeights(np.eye(2), np.eye(1)))
        assert np.allclose(K, [[1.0, math.sqrt(3.0)]], rtol=0, atol=1e-8)

    def test_scalar_case(self):
        w = CostWeights([[1.0]], [[1.0]])
        P = solve_care([[-1.0]], [[1.0]], w)
        assert P[0, 0] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)
        K = lqr_gain([[-1.0]], [[1.0]], w)
        assert K[0, 0] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)

    def test_zero_cost_stable_plant(self):
        rng = np.random.default_rng(4)
        A, B, _ = random_stabilizable(rng, 4, 2)
        w = CostWeights(np.zeros((4, 4)), np.eye(2))
        P = solve_care(A, B, w)
        assert np.allclose(P, np.zeros((4, 4)), rtol=0, atol=1e-10)
        assert np.allclose(lqr_gain(A, B, w), np.zeros((2, 4)), rtol=0, atol=1e-10)

    def test_accepts_column_vector_b(self):
        A, _ = DOUBLE_INTEGRATOR
        P = solve_care(A, [0.0, 1.0], CostWeights(np.eye(2), np.eye(1)))
        assert P.shape == (2, 2)


def _bad_system(fault, system):
    """system (A, B) with the fault MIDDLE_FAILURES names, or as it is."""
    A, B = system
    return {
        None: (A, B),
        "B not finite": (A, np.array([[np.inf], [1.0]])),
        "B holds a nan": (A, np.array([[0.0], [np.nan]])),
        "B R^-1 B' overflows": (A, np.array([[1e200], [1.0]])),
        # a mode on the imaginary axis outside the input's reach
        "stable subspace too small": (np.diag([0.0, -1.0]), np.array([[0.0], [1.0]])),
        # an unstable mode outside the input's reach
        "singular basis": (np.diag([1.0, -1.0]), np.array([[0.0], [1.0]])),
    }[fault]


# check -> (system 2's input fault, system 4's, the LAPACK calls the
# lapack_failures fixture fails, the start of the check's message for
# system 2); system 4 fails the same check or an earlier one
MIDDLE_FAILURES = {
    "B finite": ("B not finite", "B not finite", (), "B must be finite"),
    "H finite": ("B R^-1 B' overflows", "B not finite", (), "A must be finite, and B R^-1 B'"),
    "dgees sdim": ("stable subspace too small", "B R^-1 B' overflows", (),
                   "stable invariant subspace has dimension 1"),
    "singular basis": ("singular basis", "stable subspace too small", (),
                       "singular subspace basis"),
    "dgees info": (None, "B not finite", ("dgees",), "ordered Schur form failed"),
    "dsyevd PSD": (None, "singular basis", ("dsyevd",), "Riccati solution not PSD"),
    "dgeev Hurwitz": (None, "stable subspace too small", ("dgeev",), "closed loop not Hurwitz"),
    "P symmetric": (None, "B R^-1 B' overflows", ("skew",), "Riccati solution lost symmetry"),
    "CARE residual": (None, "B not finite", ("shift",), "CARE residual"),
}


def _five_systems():
    """Five stabilizable 2-state, 1-input systems, for weights Q = I2, R = I1."""
    return [(np.array([[0.0, 1.0], [0.1 * i, -0.2 * i]]), np.array([[0.0], [1.0 + 0.1 * i]]))
            for i in range(5)]


def _psd_limit(top):
    """The smallest eigenvalue of P the PSD check passes, P's largest being top."""
    return -1e-8 * max(1.0, top)


def _not_psd(top):
    """The eigenvalues of P one ulp below the PSD check's limit, and its error."""
    low = np.nextafter(_psd_limit(top), -np.inf)
    return [low, top], (NotStabilizable, f"Riccati solution not PSD (min eig {low})")


# the eigenvalues one dsyevd or dgeev call returns (dgeev: their real parts)
# and the error the check raises on them, or None: the PSD check at its
# limit and one ulp below, the Hurwitz check at the largest negative double
# and at -0.0 and +0.0 (-0.0 >= 0.0 holds)
CHECK_LIMITS = {
    "PSD at the limit": ("dsyevd", [_psd_limit(0.5), 0.5], None),
    "PSD one ulp below": ("dsyevd", *_not_psd(0.5)),
    "PSD at the limit, top 250": ("dsyevd", [_psd_limit(250.0), 3.0, 250.0], None),
    "PSD one ulp below, top 250": ("dsyevd", *_not_psd(250.0)),
    "Hurwitz at -5e-324": ("dgeev", [-3.0, -5e-324], None),
    "Hurwitz at -0.0": ("dgeev", [-3.0, -0.0],
                        (NotStabilizable, "closed loop not Hurwitz (max Re eig -0.000e+00)")),
    "Hurwitz at +0.0": ("dgeev", [0.0, -3.0],
                        (NotStabilizable, "closed loop not Hurwitz (max Re eig 0.000e+00)")),
}


@pytest.fixture()
def chosen_eigenvalues(monkeypatch):
    """inject(routine, call, eigs) makes the check that falls back to
    riccati.lapack's dsyevd or dgeev (the PSD or the Hurwitz check) fail
    its certificate on its call number call (from 0) after inject, and
    that fallback call return eigs as its eigenvalues (dgeev: their real
    parts); every other call runs as it is."""
    real = {name: getattr(riccati.lapack, name) for name in CHECKS}

    def inject(routine, call, eigs):
        due = []  # the faulted check's fallback call, until it is made

        def fails(number, matrix):
            if number == call:
                due.append(routine)
            return number == call

        def chosen(a, *args, **kwargs):
            w, *rest = real[routine](a, *args, **kwargs)
            return (np.array(eigs) if due and due.pop() else w, *rest)

        fail_certificates(monkeypatch, CHECKS[routine], fails)
        monkeypatch.setattr(riccati.lapack, routine, chosen)

    return inject


def gain_outcome(solve):
    """("ok", K bytes) of solve(), or its error's (type, message)."""
    try:
        K = solve()
    except (ValueError, ArmError) as exc:
        return type(exc), str(exc)
    return "ok", K.tobytes()


# a system and the message of the one shape rule it breaks, with weights
# Q = I2 and R = I1
SHAPE_ERRORS = {
    "A square": (np.ones((2, 3)), np.ones((2, 1)), "A must be square, got (2, 3)"),
    "B rows": (np.eye(2), np.ones((3, 1)), "B must have 2 rows, got (3, 1)"),
    "Q nxn": (np.eye(3), np.ones((3, 1)), "Q must be 3x3, got (2, 2)"),
    "R mxm": (np.eye(2), np.ones((2, 2)), "R must be 2x2, got (1, 1)"),
}


class TestContracts:
    def test_random_batch_residual_and_stability(self, subtests=None):
        rng = np.random.default_rng(99)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, 5))
            A, B, w = random_stabilizable(rng, n, m)
            P = solve_care(A, B, w)
            G = B @ np.linalg.solve(w.R, B.T)
            residual = A.T @ P + P @ A - P @ G @ P + w.Q
            assert np.linalg.norm(residual) <= 1e-8 * max(1.0, np.linalg.norm(w.Q))
            assert np.array_equal(P, P.T)
            assert np.linalg.eigvalsh(P).min() >= -1e-8 * max(1.0, np.abs(P).max())
            K = lqr_gain(A, B, w)
            assert np.linalg.eigvals(A - B @ K).real.max() < 0.0

    def test_matches_scipy_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            A, B, w = random_stabilizable(rng, 6, 3)
            P = solve_care(A, B, w)
            P_ref = scipy.linalg.solve_continuous_are(A, B, w.Q, w.R)
            assert np.allclose(P, P_ref, rtol=1e-8, atol=1e-8)

    def test_cost_scaling_leaves_gain_unchanged(self):
        rng = np.random.default_rng(13)
        A, B, w = random_stabilizable(rng, 5, 2)
        K1 = lqr_gain(A, B, w)
        for c in (0.1, 7.0, 250.0):
            wc = CostWeights(c * w.Q, c * w.R)
            Kc = lqr_gain(A, B, wc)
            assert np.allclose(Kc, K1, rtol=0, atol=1e-8 * max(1.0, np.abs(K1).max()))

    def test_unstabilizable_raises(self):
        # unstable mode entirely outside the input's reach
        A = np.diag([1.0, -1.0])
        B = np.array([[0.0], [1.0]])
        with pytest.raises(NotStabilizable):
            solve_care(A, B, CostWeights(np.eye(2), np.eye(1)))

    def test_shape_validation(self):
        w = CostWeights(np.eye(2), np.eye(1))
        with pytest.raises(ValueError):
            solve_care(np.eye(3), np.ones((3, 1)), w)
        with pytest.raises(ValueError):
            solve_care(np.eye(2), np.ones((3, 1)), w)

    def test_schur_failure_is_ill_conditioned(self, monkeypatch):
        """A dgees convergence failure (as on the linear model of a runaway
        state, rates near 1e150) is a typed error, not numpy's LinAlgError."""
        w = CostWeights(np.eye(2), np.eye(1))
        real = riccati.lapack.dgees

        def not_converged(*args, **kwargs):
            return real(*args, **kwargs)[:-1] + (3,)

        monkeypatch.setattr(riccati.lapack, "dgees", not_converged)
        with pytest.raises(IllConditioned, match=r"^ordered Schur form failed \(dgees info 3\)"):
            lqr_gain(*DOUBLE_INTEGRATOR, w)

    def test_failing_stack_raises_a_failing_systems_error(self, geom, masses, weights,
                                                         lapack_failures):
        """dgees fails at system 2 and the closed-loop check, a later one,
        at system 1: the stack raises the error one of them raises alone,
        and without the faults it gives every system its bytes alone."""
        models = [linearize(geom, masses, equilibrium_point(geom, masses, t))
                  for t in safe_random_theta(np.random.default_rng(3), 4)]
        A, B = np.array([m.A for m in models]), np.array([m.B for m in models])
        expected = [outcome(library, a, b, weights) for a, b in zip(A, B)]
        assert_stack_contract(A, B, weights, expected)
        lapack_failures(dgeev=0)
        expected[1] = outcome(library, A[1], B[1], weights)
        assert expected[1] == (NotStabilizable, "closed loop not Hurwitz (max Re eig 5.000e-01)")
        lapack_failures(dgees=0)
        expected[2] = outcome(library, A[2], B[2], weights)
        assert expected[2] == (IllConditioned, "ordered Schur form failed (dgees info 3)")

        lapack_failures(dgees=2, dgeev=1)
        assert_stack_contract(A, B, weights, expected)

    @pytest.mark.parametrize("bad, later, inject, message", MIDDLE_FAILURES.values(),
                             ids=list(MIDDLE_FAILURES))
    def test_failure_in_the_middle_of_a_stack(self, bad, later, inject, message,
                                              lapack_failures):
        """System 2 of five fails a check: the stack raises the error it
        raises alone.  With system 4 failing too (the same check, or one
        before it), the stack raises the error one of the two raises alone.
        """
        w = CostWeights(np.eye(2), np.eye(1))
        systems = _five_systems()
        expected = [outcome(library, A, B, w) for A, B in systems]
        systems[2], bad_4 = _bad_system(bad, systems[2]), _bad_system(later, systems[4])
        failed_4 = outcome(library, *bad_4, w)
        assert failed_4[0] != "ok"
        lapack_failures(**{check: 0 for check in inject})
        expected[2] = outcome(library, *systems[2], w)
        assert expected[2][0] != "ok" and expected[2][1].startswith(message)

        for system_4, expected_4 in ((systems[4], expected[4]), (bad_4, failed_4)):
            A, B = (np.array(x) for x in zip(*systems[:4], system_4))
            lapack_failures(**{check: 2 for check in inject})
            assert_stack_contract(A, B, w, expected[:4] + [expected_4])

    def test_b_is_named_over_an_earlier_overflow(self):
        """System 1's B R^-1 B' overflows and system 3's B holds a nan: the
        one scan of the stack's H fails at both, and the stack raises the
        B check's error, the check that runs first."""
        w = CostWeights(np.eye(2), np.eye(1))
        systems = _five_systems()
        systems[1] = _bad_system("B R^-1 B' overflows", systems[1])
        systems[3] = _bad_system("B holds a nan", systems[3])
        assert [outcome(library, *s, w)[1] for s in systems[1:4:2]] == [
            "A must be finite, and B R^-1 B' must not overflow", "B must be finite"]
        A, B = (np.array(x) for x in zip(*systems))
        with pytest.raises(ValueError, match="^B must be finite$"):
            riccati.solve_stack(A, B, w)

    @pytest.mark.parametrize("routine, eigs, error", CHECK_LIMITS.values(),
                             ids=list(CHECK_LIMITS))
    def test_each_shared_check_at_its_limit(self, routine, eigs, error, chosen_eigenvalues):
        """One dsyevd or dgeev call returns eigenvalues at a check's limit:
        lqr_gain and solve_stack, on the system alone and as system 2 of
        five, all pass with the system's own bytes or all raise one error."""
        w = CostWeights(np.eye(2), np.eye(1))
        A, B = (np.array(x) for x in zip(*_five_systems()))
        clean = gain_outcome(lambda: lqr_gain(A[2], B[2], w))
        outcomes = []
        for call, solve in ((0, lambda: lqr_gain(A[2], B[2], w)),
                            (0, lambda: riccati.solve_stack(A[2:3], B[2:3], w)[1][0]),
                            (2, lambda: riccati.solve_stack(A, B, w)[1][2])):
            chosen_eigenvalues(routine, call, eigs)
            outcomes.append(gain_outcome(solve))
        assert outcomes == [error or clean] * 3

    @pytest.mark.parametrize("A, B", [
        (np.eye(2), np.ones((2, 1))),  # one system, not a stack
        (np.zeros((2, 2, 2)), np.ones((3, 2, 1))),  # stacks of different lengths
        (np.zeros((1, 2, 3)), np.ones((1, 2, 1))),
    ])
    def test_stack_shape_validation(self, A, B):
        with pytest.raises(ValueError):
            riccati.solve_stack(A, B, CostWeights(np.eye(2), np.eye(1)))

    @pytest.mark.parametrize("A, B, message", SHAPE_ERRORS.values(), ids=list(SHAPE_ERRORS))
    def test_shape_messages(self, A, B, message):
        """One shape rule: the reference's message word for word, from
        lqr_gain and from stacks of 0, 1 and 3 such systems."""
        w = CostWeights(np.eye(2), np.eye(1))
        assert outcome(reference_care, A, B, w) == (ValueError, message)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lqr_gain(A, B, w)
        for k in (0, 1, 3):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                riccati.solve_stack(np.repeat(A[None], k, 0), np.repeat(B[None], k, 0), w)

    @pytest.mark.parametrize("A, B, message", [
        (np.ones((2, 2, 2)), np.ones((2, 1)), "A must be square, got (2, 2, 2)"),
        (np.ones((2, 3)), 5.0, "A must be square, got (2, 3)"),
        (np.eye(2), np.ones((2, 1, 1)), "B must have 2 rows, got (2, 1, 1)"),
        (5.0, np.ones((1, 1, 1)), "B must have 1 rows, got (1, 1, 1)"),
    ])
    def test_a_system_that_is_not_2d_is_named(self, A, B, message):
        """A or B still not 2-D after the scalar and 1-D conveniences:
        the first of A's and B's messages that applies."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lqr_gain(A, B, CostWeights(np.eye(2), np.eye(1)))

    def test_empty_stack_is_shape_checked(self):
        with pytest.raises(ValueError, match=r"^Q must be 3x3, got \(2, 2\)$"):
            riccati.solve_stack(np.zeros((0, 3, 3)), np.zeros((0, 3, 1)),
                                CostWeights(np.eye(2), np.eye(1)))

    def test_empty_stack(self):
        P, K = riccati.solve_stack(np.zeros((0, 2, 2)), np.zeros((0, 2, 1)),
                                   CostWeights(np.eye(2), np.eye(1)))
        assert P.shape == (0, 2, 2) and K.shape == (0, 1, 2)

    def test_scalar_b_names_b(self):
        # a 0-d B has no row axis; the reference raises IndexError here
        with pytest.raises(ValueError, match="B must have 1 rows, got"):
            solve_care([[1.0]], 5.0, CostWeights([[1.0]], [[1.0]]))


def _non_finite_systems():
    """For n 1-8 and m 1-4, a random system with full SPD weights whose B
    holds +inf, -inf or nan at a drawn entry, every third with A holding
    one too; then three with a finite B and a non-finite A."""
    rng = np.random.default_rng(49)
    bad = (np.inf, -np.inf, np.nan)
    systems = []
    for n, m in itertools.product(range(1, 9), range(1, 5)):
        C, D = rng.normal(size=(n, n)), rng.normal(size=(m, m))
        A, B, _ = random_stabilizable(rng, n, m)
        B[rng.integers(n), rng.integers(m)] = bad[rng.integers(3)]
        if len(systems) % 3 == 2:
            A[rng.integers(n), rng.integers(n)] = bad[rng.integers(3)]
        systems.append((A, B, CostWeights(C.T @ C, D.T @ D + 0.1 * np.eye(m))))
    for value in bad:
        A, B, w = random_stabilizable(rng, 3, 2)
        A[rng.integers(3), rng.integers(3)] = value
        systems.append((A, B, w))
    return systems


def outcome(solve, A, B, w):
    """("ok", P bytes, K bytes) or (exception type, message)."""
    try:
        P, K = solve(A, B, w)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return "ok", P.tobytes(), K.tobytes()


def library(A, B, w):
    return solve_care(A, B, w), lqr_gain(A, B, w)


def stacked(A, B, w):
    """solve_stack's (P, K) for the one system (A, B), read as _solve reads it."""
    P, K = riccati.solve_stack(np.atleast_2d(A)[None], np.asarray(B, dtype=float)[None], w)
    return P[0], K[0]


def assert_stack_contract(As, Bs, w, expected):
    """The systems As, Bs solved as one stack, given each one's outcome
    alone (as outcome() gives it): with every outcome "ok", each system's
    bytes alone; else the type and message of one failing system's error
    alone."""
    failed = [e for e in expected if e[0] != "ok"]
    if not failed:
        P, K = riccati.solve_stack(np.array(As), np.array(Bs), w)
        assert [("ok", p.tobytes(), k.tobytes()) for p, k in zip(P, K)] == list(expected)
        return
    with pytest.raises((ValueError, ArmError)) as info:
        riccati.solve_stack(np.array(As), np.array(Bs), w)
    assert (type(info.value), str(info.value)) in failed


# one case per system: an 8x8 linearized test-arm model (at an equilibrium,
# or at zero or non-zero rates and a random torque), or a random 1x1 / 2x2
# system from a seed, with weights shared per size or built fresh
ARM_CASES = st.tuples(
    st.just(8),
    st.tuples(st.floats(-np.pi, np.pi), st.floats(0.3, 2.8),
              st.floats(-2.5, -0.3), st.floats(-2.5, 2.5)),
    st.one_of(st.just((0.0,) * 4), st.tuples(*[st.floats(-1.5, 1.5)] * 4)),
    st.tuples(*[st.floats(-4.0, 4.0)] * 4),
    st.booleans(),
)
SMALL_CASES = st.tuples(st.sampled_from([1, 2]), st.integers(0, 2**32 - 1), st.booleans())


class TestMatchesReference:
    """The LAPACK kernel returns the same bytes as the scipy.linalg
    reference, or raises the same error."""

    @settings(max_examples=40, deadline=None)
    @given(cases=st.lists(st.one_of(ARM_CASES, SMALL_CASES), min_size=1, max_size=6))
    def test_byte_identical_gains(self, geom, masses, weights, cases):
        """Alone and in stacks: each system's outcome alone is the
        reference's, and the list is solved as one stack per size and
        weights, then so are the systems of it that solve, each stack held
        to assert_stack_contract."""
        shared = {n: CostWeights(np.eye(n), np.eye(1)) for n in (1, 2)}
        stacks = {}  # (n, id of the weights) -> (weights, [(A, B, expected outcome)])
        for case in cases:
            if case[0] == 8:
                _, theta, rates, torque, at_equilibrium = case
                op = (equilibrium_point(geom, masses, theta) if at_equilibrium
                      else OperatingPoint(theta, rates, torque))
                model = linearize(geom, masses, op)
                A, B, w = model.A, model.B, weights
            else:
                n, seed, fresh = case
                A, B, w = random_stabilizable(np.random.default_rng(seed), n, 1)
                w = w if fresh else shared[n]
            expected = outcome(reference_care, A, B, w)
            assert outcome(library, A, B, w) == expected
            if case[0] == 8:
                assert expected[0] == "ok"
            stacks.setdefault((len(A), id(w)), (w, []))[1].append((A, B, expected))
        for w, systems in stacks.values():
            for group in (systems, [s for s in systems if s[2][0] == "ok"]):
                if group:
                    As, Bs, expected = zip(*group)
                    assert_stack_contract(As, Bs, w, expected)

    def test_stacked_bytes_never_depend_on_batch_mates(self, geom, masses, weights):
        """Stacks of 1, 2, 9 and one more than a table build's stack cap,
        in both orders, give every system the reference's bytes alone."""
        rng = np.random.default_rng(14)
        size = gt._CHUNK + 1
        thetas = safe_random_theta(rng, size)
        models = [linearize(geom, masses, equilibrium_point(geom, masses, t)) if i % 2
                  else linearize(geom, masses, OperatingPoint(t, rng.uniform(-1.5, 1.5, 4),
                                                              rng.uniform(-4.0, 4.0, 4)))
                  for i, t in enumerate(thetas)]
        As, Bs = [m.A for m in models], [m.B for m in models]
        expected = [outcome(reference_care, A, B, weights) for A, B in zip(As, Bs)]
        assert all(e[0] == "ok" for e in expected)
        for k in (1, 2, 9, size):
            for s in range(0, size, k):
                assert_stack_contract(As[s:s + k], Bs[s:s + k], weights, expected[s:s + k])
            assert_stack_contract(As[::-1][:k], Bs[::-1][:k], weights, expected[::-1][:k])

    def test_online_gain_layout(self, geom, masses, weights, theta_ref):
        """At online states as perfbench's replay meets them (non-zero rates,
        torque off equilibrium), lqr_gain's K is the K of the same system in
        a stack of 3 and the reference's: its bytes, its Fortran layout and
        the bytes of the control law tau_ff - K @ (x - x_ref), which the
        simulator's trajectories depend on."""
        rng = np.random.default_rng(32)
        x_ref = np.concatenate([theta_ref, np.zeros(4)])
        tau_ff = equilibrium_torque(geom, masses, theta_ref)
        for _ in range(10):
            states = np.hstack([theta_ref + rng.uniform(-0.4, 0.4, (3, 4)),
                                rng.uniform(-1.5, 1.5, (3, 4))])
            models = [linearize(geom, masses, OperatingPoint(
                x[:4], x[4:], tau_ff + rng.uniform(-2.0, 2.0, 4))) for x in states]
            _, stacked = riccati.solve_stack(np.array([m.A for m in models]),
                                             np.array([m.B for m in models]), weights)
            for x, model, K_stack in zip(states, models, stacked):
                gains = (lqr_gain(model.A, model.B, weights), K_stack,
                         reference_care(model.A, model.B, weights)[1])
                assert all(K.flags.f_contiguous for K in gains)
                assert len({K.tobytes() for K in gains}) == 1
                assert len({(tau_ff - K @ (x - x_ref)).tobytes() for K in gains}) == 1

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 64])
    def test_stacked_r_solves_with_full_weights(self, k):
        """With full SPD Q and R, where the triangular solves of R^-1 mix
        every row, a stack of k systems solves each R^-1 over all its
        systems' columns at once and still gives each system the bytes of
        _solve and of the reference, with K[i] Fortran-ordered."""
        rng = np.random.default_rng(45 + k)
        for n in range(1, 9):
            for m in range(1, 5):
                C, D = rng.normal(size=(n, n)), rng.normal(size=(m, m))
                w = CostWeights(C.T @ C, D.T @ D + 0.1 * np.eye(m))
                systems = [random_stabilizable(rng, n, m)[:2] for _ in range(k)]
                A = np.array([a for a, _ in systems]).reshape(k, n, n)
                B = np.array([b for _, b in systems]).reshape(k, n, m)
                P, K = riccati.solve_stack(A, B, w)
                assert P.shape == (k, n, n) and K.shape == (k, m, n)
                for a, b, p, g in zip(A, B, P, K):
                    expected = outcome(reference_care, a, b, w)
                    assert expected[0] == "ok"
                    assert outcome(riccati._solve, a, b, w) == expected
                    assert ("ok", p.tobytes(), g.tobytes()) == expected
                    assert g.flags.f_contiguous

    @pytest.mark.parametrize("A, B, w", [
        # unstabilizable: an unstable mode, or a mode on the imaginary axis,
        # outside the input's reach
        (np.diag([1.0, -1.0]), [[0.0], [1.0]], CostWeights(np.eye(2), np.eye(1))),
        ([[0.0]], [[0.0]], CostWeights([[1.0]], [[1.0]])),
        (np.diag([0.0, -1.0]), [[0.0], [1.0]], CostWeights(np.eye(2), np.eye(1))),
        # shapes
        (np.eye(3), np.ones((3, 1)), CostWeights(np.eye(2), np.eye(1))),
        (np.eye(2), np.ones((3, 1)), CostWeights(np.eye(2), np.eye(1))),
        (np.eye(2), np.ones((2, 2)), CostWeights(np.eye(2), np.eye(1))),
        (np.ones((2, 3)), np.ones((2, 1)), CostWeights(np.eye(2), np.eye(1))),
        ([1.0, 2.0], np.ones((2, 1)), CostWeights(np.eye(2), np.eye(1))),
        # non-finite A or B, and a B R^-1 B' that overflows
        ([[np.nan, 0.0], [0.0, 1.0]], np.ones((2, 1)), CostWeights(np.eye(2), np.eye(1))),
        (np.eye(2), [[np.inf], [1.0]], CostWeights(np.eye(2), np.eye(1))),
        (np.eye(2), [[1e200], [1.0]], CostWeights(np.eye(2), np.eye(1))),
    ] + _non_finite_systems())
    def test_same_error_as_reference(self, A, B, w):
        """The online body and a stack of one raise the reference's error."""
        expected = outcome(reference_care, A, B, w)
        assert expected[0] != "ok"
        assert outcome(library, A, B, w) == expected
        assert outcome(stacked, A, B, w) == expected


class TestCachedWeights:
    """CostWeights keeps its R factor, -Q, residual limit and margin
    factors in fields outside equality and repr, and carries them through
    pickle, which is how precompute's workers receive the weights."""

    def test_equality_and_repr_see_only_q_and_r(self):
        w = CostWeights([[2.0]], [[3.0]])
        assert [f.name for f in dataclasses.fields(w) if f.compare or f.repr] == ["Q", "R"]
        assert repr(w) == f"CostWeights(Q={w.Q!r}, R={w.R!r})"
        assert w == CostWeights([[2.0]], [[3.0]])
        assert w != CostWeights([[2.0]], [[4.0]])

    def test_pickle_round_trip_gives_identical_gains(self, geom, masses, weights, theta_ref):
        copy = pickle.loads(pickle.dumps(weights))
        assert repr(copy) == repr(weights)
        assert np.array_equal(copy.Q, weights.Q) and np.array_equal(copy.R, weights.R)
        model = linearize(geom, masses, OperatingPoint(theta_ref, [0.2, -0.1, 0.3, 0.0],
                                                       np.zeros(4)))
        assert (lqr_gain(model.A, model.B, copy).tobytes()
                == lqr_gain(model.A, model.B, weights).tobytes())


class TestLapackSource:
    """riccati loads scipy's compiled scipy/linalg/_flapack extension by its
    path and leaves sys.modules as it found it (test_config_cli checks that
    importing armctl imports no scipy module)."""

    def test_routines_are_scipys_compiled_module(self):
        assert riccati.lapack.__file__ == scipy.linalg._flapack.__file__

    def test_load_keeps_sys_modules(self):
        before = dict(sys.modules)
        module = riccati._load_flapack()
        assert module is not scipy.linalg._flapack
        assert sys.modules == before

    def test_missing_extension_is_import_error(self, monkeypatch):
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        where = str(Path(scipy.linalg.__file__).parent)
        with pytest.raises(ImportError, match=re.escape(where)):
            riccati._load_flapack()


def _counting(monkeypatch, *routines):
    """Wrap each of riccati.lapack's routines named so that it counts its
    calls; returns {name: calls}."""
    calls = dict.fromkeys(routines, 0)

    def counted(name, real):
        def routine(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return routine

    for name in routines:
        monkeypatch.setattr(riccati.lapack, name, counted(name, getattr(riccati.lapack, name)))
    return calls


def _critical(rng, n, eig, jordan):
    """An n x n closed loop whose eigenvalues are exactly eig (in a 3 x 3
    Jordan block if jordan) and those of a Hurwitz block: block upper
    triangular, with a random coupling, then permuted, all of it exact in
    floating point."""
    k = 3 if jordan else 1
    S = rng.normal(size=(n - k, n - k))
    A = np.zeros((n, n))
    A[:k, :k] = eig * np.eye(k) + np.eye(k, k=1)
    A[:k, k:] = rng.normal(size=(k, n - k))
    A[k:, k:] = S - (np.abs(np.linalg.eigvals(S).real).max() + 0.5) * np.eye(n - k)
    order = rng.permutation(n)
    return A[np.ix_(order, order)]


def _with_p(rng, n, delta):
    """A symmetric n x n P whose smallest eigenvalue is exactly delta, a
    power of two: the integer Gram matrix C C' of rank n - 1 plus delta I."""
    C = rng.integers(-3, 4, size=(n, n - 1)).astype(float)
    return C @ C.T + delta * np.eye(n)


def _lyapunov_p(A, shift):
    """The P > 0 with (A - shift I)'P + P(A - shift I) = -I for A - shift I
    Hurwitz, solved on its Kronecker form and made exactly symmetric:
    -(A'P + PA) = I - 2 shift P, which for A with an eigenvalue just below
    shift is as near to positive definite as A allows.  Where that form is
    singular in floating point (a Jordan block at -1e-15), the identity:
    no P may certify a loop that is not Hurwitz."""
    n = len(A)
    S = A - shift * np.eye(n)
    L = np.kron(np.eye(n), S.T) + np.kron(S.T, np.eye(n))  # vec(S'P + PS), P column-major
    try:
        P = np.linalg.solve(L, -np.eye(n).ravel()).reshape(n, n).T
    except np.linalg.LinAlgError:
        return np.eye(n)
    return 0.5 * (P + P.T)


DELTAS = [10.0**-k for k in range(1, 16)]


class TestCertificates:
    """Each check's certificate, a Cholesky factorization with a stated
    margin, passes only on what it proves: a positive definite P, and a
    closed loop that P proves Hurwitz.  Where it fails, the check calls
    dsyevd or dgeev, as each check always did.  The soundness tests give
    the bodies a chosen P and closed loop: the Schur basis and the basis
    solve are patched to return P, B = 0 makes the closed loop A, and the
    residual limit is lifted."""

    @staticmethod
    def certified(monkeypatch, A, P, body):
        """(P certified, closed loop certified) by lqr_gain or by a stack
        of one: the PSD and the Lyapunov certificate's dpotrf calls, in
        that order, and whether each succeeded."""
        n = len(A)
        w = CostWeights(np.eye(n), np.eye(1))
        object.__setattr__(w, "_limit", math.inf)
        monkeypatch.setattr(riccati, "_schur_basis", lambda H, n: np.zeros((n, 2 * n)))
        monkeypatch.setattr(riccati, "_basis_solve",
                            lambda Zt: np.broadcast_to(P, Zt.shape[:-2] + P.shape).copy())
        passed, real = [], inspect.unwrap(riccati.lapack.dpotrf)

        def dpotrf(*args, **kwargs):
            out = real(*args, **kwargs)
            passed.append(out[1] == 0)
            return out

        dpotrf.__wrapped__ = real
        monkeypatch.setattr(riccati.lapack, "dpotrf", dpotrf)
        B = np.zeros((n, 1))
        try:
            if body == "lqr_gain":
                lqr_gain(A, B, w)
            else:
                riccati.solve_stack(A[None], B[None], w)
        except NotStabilizable:  # a fallback check failed
            pass
        return passed[0], passed[1:] == [True]

    @pytest.mark.parametrize("body", ["lqr_gain", "solve_stack"])
    @pytest.mark.parametrize("jordan", [False, True], ids=["simple", "jordan"])
    @pytest.mark.parametrize("sign", [-1.0, 0.0, 1.0], ids=["-delta", "0", "+delta"])
    def test_never_certifies_a_loop_that_is_not_hurwitz(self, monkeypatch, sign, jordan, body):
        rng = np.random.default_rng(52)
        passed = []
        for delta in DELTAS:
            n = int(rng.integers(4, 9))
            A = _critical(rng, n, sign * delta, jordan)
            P = _lyapunov_p(A, sign * delta + delta)
            psd, hurwitz = self.certified(monkeypatch, A, P, body)
            assert not (hurwitz and sign >= 0.0), delta
            passed.append((psd, hurwitz))
        # at delta 0.1 P is certified, so the loop's own certificate ran,
        # and a clear margin passes it
        assert passed[0] == (True, sign < 0.0)

    @pytest.mark.parametrize("body", ["lqr_gain", "solve_stack"])
    @pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["-delta", "+delta"])
    def test_never_certifies_an_indefinite_p(self, monkeypatch, sign, body):
        rng = np.random.default_rng(53)
        passed = []
        for k in range(1, 16):
            n = int(rng.integers(2, 9))
            delta = 2.0 ** -round(k * math.log2(10.0))  # about 10^-k
            A = _critical(rng, n, -1.0, False)
            psd, _ = self.certified(monkeypatch, A, _with_p(rng, n, sign * delta), body)
            assert not (psd and sign < 0.0), delta
            passed.append(psd)
        if sign > 0.0:
            assert passed[0]

    def test_test_arm_never_calls_an_eigenvalue_routine(self, monkeypatch, geom, masses,
                                                        weights, theta_ref):
        """On the test arm's systems every certificate passes: a 7^4 build
        (its 7^3 planar nodes), the reference tree and a 2 s online episode
        call neither dsyevd nor dgeev."""
        calls = _counting(monkeypatch, "dsyevd", "dgeev", "dgees")
        lo, hi = tuple(theta_ref - 0.25), tuple(theta_ref + 0.25)
        precompute(geom, masses, weights, GridSpec(lo, hi, (7, 7, 7, 7)), workers=1)
        refine(geom, masses, weights, (lo, hi), 0.1, 4)
        x0 = np.concatenate([theta_ref + 0.1, [0.2, -0.3, 0.1, 0.4]])
        simulate(geom, masses, SimConfig(duration=2.0), ControllerMode.ONLINE_LQR, x0,
                 np.concatenate([theta_ref, np.zeros(4)]), weights=weights)
        assert calls["dgees"] == 7**3 + 1241 + 101  # 7^3 planar nodes
        assert (calls["dsyevd"], calls["dgeev"]) == (0, 0)
