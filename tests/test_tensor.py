import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from gradmine.errors import InvalidInputError
from gradmine.tensor import frobenius_norm, matrix_norm, sigmoid, spectral_norm

from oracles import masked_sigmoid

FLOAT_MAX = np.finfo(np.float64).max
TINY = np.finfo(np.float64).tiny
# Signed zeros, infinities, NaNs of both signs, subnormals, the edges of the
# normal range and |v| > 745, where exp(-|v|) underflows to zero.
SIGMOID_EDGES = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
    TINY / 3, -TINY / 3, TINY, -TINY, 745.2, -745.2, 1000.0, -1000.0,
    FLOAT_MAX, -FLOAT_MAX,
])


class TestNonlinearities:
    def test_sigmoid_zero(self):
        assert sigmoid(np.zeros(3))[0] == 0.5

    def test_sigmoid_saturation_is_finite(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        np.testing.assert_array_equal(out, [0.0, 1.0])

    @settings(deadline=None)
    @example(SIGMOID_EDGES)
    @given(arrays(
        np.float64,
        array_shapes(min_dims=1, max_dims=2, max_side=40),
        elements=st.one_of(
            st.sampled_from(SIGMOID_EDGES.tolist()),
            st.floats(width=64, allow_nan=True, allow_infinity=True,
                      allow_subnormal=True),
        ),
    ))
    def test_sigmoid_bits_match_masked_oracle(self, v):
        with warnings.catch_warnings(), np.errstate(
            divide="warn", over="warn", invalid="warn", under="ignore"
        ):
            warnings.simplefilter("error", RuntimeWarning)
            got = sigmoid(v)
        np.testing.assert_array_equal(
            got.view(np.int64), masked_sigmoid(v).view(np.int64)
        )


class TestNorms:
    def test_frobenius_zero(self):
        assert frobenius_norm(np.zeros((3, 3))) == 0.0

    def test_frobenius_hand_case(self):
        assert frobenius_norm(np.array([[3.0, 4.0]])) == 5.0

    def test_frobenius_matches_elementwise_sum(self, rng):
        m = rng.normal(size=(5, 5))
        direct = 0.0
        for i in range(5):
            for j in range(5):
                direct += m[i, j] * m[i, j]
        assert abs(frobenius_norm(m) - np.sqrt(direct)) < 1e-12

    def test_triangle_inequality(self, rng):
        for _ in range(50):
            a = rng.normal(size=(4, 6))
            b = rng.normal(size=(4, 6))
            assert frobenius_norm(a + b) <= frobenius_norm(a) + frobenius_norm(b) + 1e-12

    def test_spectral_matches_svd(self, rng):
        for shape in ((5, 5), (3, 7), (8, 2)):
            m = rng.normal(size=shape)
            assert abs(spectral_norm(m) - np.linalg.norm(m, 2)) < 1e-8

    def test_spectral_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 3))) == 0.0

    def test_matrix_norm_dispatch(self, rng):
        m = rng.normal(size=(3, 3))
        assert matrix_norm(m) == frobenius_norm(m)
        assert matrix_norm(m, "spectral") == spectral_norm(m)
        with pytest.raises(InvalidInputError):
            matrix_norm(m, "nuclear")
