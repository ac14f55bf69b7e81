"""Tests for generator-matrix validation, exit rates and uniformisation."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.markov.generator import (
    GeneratorError,
    exit_rates,
    uniformized_matrix,
    validate_generator,
)


class TestValidateGenerator:
    def test_valid_generator_passes(self, three_state_generator):
        validate_generator(three_state_generator)

    def test_valid_sparse_generator_passes(self, three_state_generator):
        validate_generator(sp.csr_matrix(three_state_generator))

    def test_nonsquare_rejected(self):
        with pytest.raises(GeneratorError):
            validate_generator(np.zeros((2, 3)))

    def test_negative_offdiagonal_rejected(self):
        matrix = np.array([[-1.0, 1.0], [-0.5, 0.5]])
        with pytest.raises(GeneratorError):
            validate_generator(matrix)

    def test_nonzero_row_sum_rejected(self):
        matrix = np.array([[-1.0, 0.5], [1.0, -1.0]])
        with pytest.raises(GeneratorError):
            validate_generator(matrix)

    def test_positive_diagonal_rejected(self):
        matrix = np.array([[1.0, -1.0], [0.0, 0.0]])
        with pytest.raises(GeneratorError):
            validate_generator(matrix)


class TestExitRatesAndUniformization:
    def test_exit_rates(self, three_state_generator):
        assert np.allclose(exit_rates(three_state_generator), [3.0, 5.0, 1.0])

    def test_exit_rates_sparse(self, three_state_generator):
        assert np.allclose(exit_rates(sp.csr_matrix(three_state_generator)), [3.0, 5.0, 1.0])

    def test_uniformized_matrix_is_stochastic(self, three_state_generator):
        probability = uniformized_matrix(three_state_generator, 6.0)
        assert np.all(probability >= -1e-12)
        assert np.allclose(probability.sum(axis=1), 1.0)

    def test_uniformized_matrix_rate_too_small_rejected(self, three_state_generator):
        with pytest.raises(GeneratorError):
            uniformized_matrix(three_state_generator, 1.0)

    def test_uniformized_matrix_nonpositive_rate_rejected(self, three_state_generator):
        with pytest.raises(GeneratorError):
            uniformized_matrix(three_state_generator, 0.0)

    def test_uniformized_sparse_stays_sparse(self, three_state_generator):
        probability = uniformized_matrix(sp.csr_matrix(three_state_generator), 10.0)
        assert sp.issparse(probability)
        assert np.allclose(np.asarray(probability.sum(axis=1)).ravel(), 1.0)

