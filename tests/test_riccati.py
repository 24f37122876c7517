import math

import numpy as np
import pytest
import scipy.linalg

from armctl import CostWeights, NotStabilizable, lqr_gain, solve_care

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

    def test_from_diagonals(self):
        w = CostWeights.from_diagonals([1, 2], [3])
        assert np.array_equal(w.Q, np.diag([1.0, 2.0]))
        assert np.array_equal(w.R, [[3.0]])


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
