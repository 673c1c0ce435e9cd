import numpy as np
import pytest

from vecspin import MixedModel, ValidationError
from vecspin.mixing import (
    hamiltonian_covariance,
    sum_all,
    theta_matrix,
    validate_gram,
    xi_matrix,
    xi_prime_matrix,
)
from vecspin.rng import spawn_rng

from conftest import random_model


class TestModelValidation:
    def test_rejects_odd_degree(self):
        with pytest.raises(ValidationError):
            MixedModel(1, {3: [0.1]})

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValidationError):
            MixedModel(1, {2: [-0.1]})

    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            MixedModel(2, {2: [0.1]})

    def test_free_model_allowed(self):
        m = MixedModel(3, {})
        assert m.p_max is None
        assert m.p_values == []

    def test_zero_vector_dropped(self):
        m = MixedModel(1, {2: [0.5], 4: [0.0]})
        assert m.p_values == [2]
        assert m.p_max == 2

    def test_summability_warning(self):
        m = MixedModel(1, {2: [0.5]})
        assert len(m.coefficient_warnings(1.0)) == 1
        assert m.coefficient_warnings(0.4) == []


class TestScalarKernels:
    """Closed-form values of single kernel entries."""

    def test_xi_direct_substitution(self):
        m = MixedModel(1, {2: [0.5]})
        assert xi_matrix(m, [[0.6]])[0, 0] == pytest.approx(0.09, abs=1e-15)

    def test_xi_zero_argument(self):
        m = MixedModel(2, {2: [0.3, 0.4], 4: [0.2, 0.1]})
        assert xi_matrix(m, [[0.5, 0.0], [0.0, 0.5]])[0, 1] == 0.0

    def test_xi_two_terms(self):
        m = MixedModel(1, {2: [0.5], 4: [0.1]})
        assert xi_matrix(m, [[1.0]])[0, 0] == pytest.approx(0.26, abs=1e-15)

    def test_theta_p2_equals_xi(self):
        m = MixedModel(1, {2: [0.5]})
        assert theta_matrix(m, [[0.6]])[0, 0] == pytest.approx(0.09, abs=1e-15)
        assert theta_matrix(m, [[0.0]])[0, 0] == 0.0

    def test_theta_p4(self):
        m = MixedModel(1, {4: [0.1]})
        assert theta_matrix(m, [[1.0]])[0, 0] == pytest.approx(0.03, abs=1e-15)

    def test_theta_consistency_random(self):
        # theta(A) = A∘xi'(A) - xi(A) entrywise, on about ten thousand random
        # entries of matrices A with entries in [-1, 1]
        rng = spawn_rng(11)
        for _ in range(40):
            kappa = int(rng.integers(1, 4))
            m = random_model(rng, kappa, p_set=(2, 4, 6))
            for a in rng.uniform(-1.0, 1.0, size=(60, kappa, kappa)):
                composed = a * xi_prime_matrix(m, a) - xi_matrix(m, a)
                assert np.max(np.abs(theta_matrix(m, a) - composed)) <= 1e-12


class TestMatrixKernels:
    def test_xi_prime_hadamard_example(self):
        m = MixedModel(2, {2: [1.0, 0.5]})
        gamma = np.array([[1.0, 0.5], [0.5, 1.0]])
        expected = np.array([[2.0, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(xi_prime_matrix(m, gamma), expected, atol=1e-15)

    def test_zero_matrix(self):
        m = MixedModel(2, {2: [1.0, 0.5], 4: [0.2, 0.3]})
        np.testing.assert_array_equal(xi_matrix(m, np.zeros((2, 2))), np.zeros((2, 2)))

    def test_scalar_case(self):
        m = MixedModel(1, {2: [0.5]})
        np.testing.assert_allclose(xi_prime_matrix(m, [[0.8]]), [[0.4]], atol=1e-15)
        np.testing.assert_allclose(theta_matrix(m, [[0.8]]), [[0.16]], atol=1e-15)

    def test_shape_mismatch(self):
        m = MixedModel(2, {2: [1.0, 0.5]})
        with pytest.raises(ValidationError):
            xi_matrix(m, np.zeros((3, 3)))

    def test_psd_monotonicity_smoke(self):
        # full thousand-pair suite lives in the acceptance module
        rng = spawn_rng(13)
        for _ in range(100):
            kappa = int(rng.integers(1, 5))
            m = random_model(rng, kappa, p_set=(2, 4))
            f = rng.standard_normal((kappa, kappa))
            g = rng.standard_normal((kappa, kappa))
            g1 = f @ f.T / kappa
            g2 = g1 + g @ g.T / kappa
            for fn in (xi_prime_matrix, theta_matrix):
                diff = fn(m, g2) - fn(m, g1)
                assert np.linalg.eigvalsh(diff)[0] >= -1e-9


class TestSumAndCovariance:
    def test_sum_examples(self):
        assert sum_all(np.eye(2)) == 2.0
        assert sum_all(np.ones((3, 3))) == 9.0
        assert sum_all([[2.0, 0.5], [0.5, 0.5]]) == 3.5

    def test_covariance_substitution(self):
        m = MixedModel(1, {2: [0.5]})
        assert hamiltonian_covariance(m, [[1.0]]) == pytest.approx(0.25, abs=1e-15)
        assert hamiltonian_covariance(m, [[0.0]]) == 0.0


class TestGramValidation:
    def test_accepts_psd(self):
        validate_gram(np.array([[1.0, 0.5], [0.5, 1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError, match="symmetric"):
            validate_gram(np.array([[1.0, 0.2], [0.1, 1.0]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError, match="PSD"):
            validate_gram(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_tolerates_roundoff(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0 - 5e-11]])
        validate_gram(a)
