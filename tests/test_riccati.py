import dataclasses
import math
import pickle

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import armctl.riccati as riccati
from armctl import (
    CostWeights,
    IllConditioned,
    NotStabilizable,
    OperatingPoint,
    equilibrium_point,
    linearize,
    lqr_gain,
    solve_care,
)
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

    def test_from_diagonals(self):
        w = CostWeights.from_diagonals([1, 2], [3])
        assert np.array_equal(w.Q, np.diag([1.0, 2.0]))
        assert np.array_equal(w.R, [[3.0]])

    @pytest.mark.parametrize("q_diag, r_diag, message", [
        (2 * np.eye(8), np.eye(4), r"^q_diag must be a 1-D vector, got shape \(8, 8\)"),
        (1.0, [1.0] * 4, r"^q_diag must be a 1-D vector, got shape \(\)"),
        ([1.0] * 8, [[1.0, 1.0], [1.0]], r"^r_diag must be a 1-D vector of floats"),
        ([1.0] * 8, [10**400] * 4, r"^r_diag must be a 1-D vector of floats"),
    ], ids=["2-d", "scalar", "ragged", "int-beyond-float"])
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

    def test_scalar_b_names_b(self):
        # a 0-d B has no row axis; the reference raises IndexError here
        with pytest.raises(ValueError, match="B must have 1 rows, got"):
            solve_care([[1.0]], 5.0, CostWeights([[1.0]], [[1.0]]))


def outcome(solve, A, B, w):
    """("ok", P bytes, K bytes) or (exception type, message)."""
    try:
        P, K = solve(A, B, w)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return "ok", P.tobytes(), K.tobytes()


def library(A, B, w):
    return solve_care(A, B, w), lqr_gain(A, B, w)


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
        shared = {n: CostWeights(np.eye(n), np.eye(1)) for n in (1, 2)}
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
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_same_error_as_reference(self, A, B, w):
        expected = outcome(reference_care, A, B, w)
        assert expected[0] != "ok"
        assert outcome(library, A, B, w) == expected


class TestCachedWeights:
    """CostWeights keeps its R factor, -Q, residual limit and dgees
    workspace in fields outside equality and repr, and carries them through
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
