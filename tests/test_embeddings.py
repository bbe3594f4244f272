"""Tests for repro.spaces.embeddings: Hamming->sphere, Valiant maps, TensorSketch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spaces import hamming, sphere
from repro.spaces.embeddings import (
    TensorSketchEmbedding,
    ValiantEmbedding,
    hamming_to_sphere,
    tensor_power,
)


@pytest.fixture
def global_numpy_state():
    """Restore numpy's global random state after a test that reseeds it."""
    state = np.random.get_state()
    yield
    np.random.set_state(state)


class TestHammingToSphere:
    def test_unit_norm(self):
        x = hamming.random_points(20, 10, rng=0)
        emb = hamming_to_sphere(x)
        np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-12)

    def test_inner_product_equals_similarity(self):
        x, y = hamming.pairs_at_distance(30, 12, 4, rng=1)
        ip = np.einsum("ij,ij->i", hamming_to_sphere(x), hamming_to_sphere(y))
        np.testing.assert_allclose(ip, hamming.similarity(x, y), atol=1e-12)


class TestTensorPower:
    def test_order_zero_is_ones(self):
        out = tensor_power(np.ones((3, 4)), 0)
        np.testing.assert_array_equal(out, np.ones((3, 1)))

    def test_order_one_is_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(tensor_power(x, 1), x)

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=100))
    @settings(max_examples=25)
    def test_inner_product_power_identity(self, order, seed):
        x, y = sphere.pairs_at_inner_product(4, 3, 0.37, rng=seed)
        tx, ty = tensor_power(x, order), tensor_power(y, order)
        ip = np.einsum("ij,ij->i", tx, ty)
        np.testing.assert_allclose(ip, 0.37**order, atol=1e-9)

    def test_negative_order_raises(self):
        with pytest.raises(ValueError):
            tensor_power(np.ones((1, 2)), -1)

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="TensorSketch"):
            tensor_power(np.ones((1, 100)), 5)


# Figure 4 polynomials from the paper (already normalized: sum |a_i| <= 1).
FIG4_POLYNOMIALS = [
    [0.0, 0.0, 1.0],                       # t^2
    [0.0, 0.0, -1.0],                      # -t^2
    [0.0, -1 / 3, 1 / 3, -1 / 3],          # (-t^3 + t^2 - t)/3
    [-1 / 3, 0.0, 2 / 3],                  # (2t^2 - 1)/3
    [0.0, -3 / 7, 0.0, 4 / 7],             # (4t^3 - 3t)/7
    [1 / 17, 0.0, -8 / 17, 0.0, 8 / 17],   # (8t^4 - 8t^2 + 1)/17
    [0.0, 5 / 41, 0.0, -20 / 41, 0.0, 16 / 41],  # (16t^5 - 20t^3 + 5t)/41
]


class TestValiantEmbedding:
    @pytest.mark.parametrize("coeffs", FIG4_POLYNOMIALS)
    def test_polynomial_identity(self, coeffs):
        emb = ValiantEmbedding(coeffs, d=4)
        alpha = 0.6
        x, y = sphere.pairs_at_inner_product(8, 4, alpha, rng=3)
        ips = np.einsum("ij,ij->i", emb.embed_data(x), emb.embed_query(y))
        expected = np.polyval(list(reversed(coeffs)), alpha)
        np.testing.assert_allclose(ips, expected, atol=1e-9)

    @pytest.mark.parametrize("coeffs", FIG4_POLYNOMIALS)
    def test_unit_norms_both_sides(self, coeffs):
        emb = ValiantEmbedding(coeffs, d=5)
        x = sphere.random_points(6, 5, rng=4)
        np.testing.assert_allclose(
            np.linalg.norm(emb.embed_data(x), axis=1), 1.0, atol=1e-9
        )
        np.testing.assert_allclose(
            np.linalg.norm(emb.embed_query(x), axis=1), 1.0, atol=1e-9
        )

    def test_coefficient_sum_above_one_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            ValiantEmbedding([0.8, 0.8], d=3)

    def test_output_dim(self):
        emb = ValiantEmbedding([0.5, 0.25, 0.25], d=3)
        assert emb.output_dim == 2 + 1 + 3 + 9

    def test_wrong_input_dim_raises(self):
        emb = ValiantEmbedding([1.0], d=3)
        with pytest.raises(ValueError, match="dimension"):
            emb.embed_data(np.ones((2, 4)))


class TestTensorSketchEmbedding:
    def test_inner_product_approximates_polynomial(self):
        coeffs = [0.0, 0.25, -0.25, 0.5]
        exact = ValiantEmbedding(coeffs, d=6)
        sketch = TensorSketchEmbedding(coeffs, d=6, sketch_dim=4096, rng=5)
        alpha = -0.4
        x, y = sphere.pairs_at_inner_product(64, 6, alpha, rng=6)
        approx_ip = np.einsum(
            "ij,ij->i", sketch.embed_data(x), sketch.embed_query(y)
        )
        exact_ip = np.einsum("ij,ij->i", exact.embed_data(x), exact.embed_query(y))
        # Unbiased with variance O(1/m): the mean over 64 pairs is close.
        assert np.mean(approx_ip) == pytest.approx(np.mean(exact_ip), abs=0.05)

    def test_degree_one_is_exact_countsketch(self):
        coeffs = [0.0, 1.0]
        sketch = TensorSketchEmbedding(coeffs, d=8, sketch_dim=64, rng=7)
        x, y = sphere.pairs_at_inner_product(16, 8, 0.3, rng=8)
        # Degree-1 sketches use one CountSketch for both maps: the sketch
        # preserves inner products in expectation, not exactly.
        ip = np.einsum("ij,ij->i", sketch.embed_data(x), sketch.embed_query(y))
        assert np.mean(ip) == pytest.approx(0.3, abs=0.15)

    @pytest.mark.parametrize(
        "coeffs",
        [[0.0, 1.0], [0.0, 0.25, -0.25, 0.5]],
        ids=["degree1", "degree3"],
    )
    def test_seed_alone_fixes_the_sketch(self, coeffs, global_numpy_state):
        """The CountSketch buckets and signs come from ``rng`` only, so a
        saved or spec-rebuilt sketch is the same whatever numpy's global
        state was when it was built."""
        x = sphere.random_points(12, 16, rng=3)
        embedded = []
        for global_seed in (0, 1):
            np.random.seed(global_seed)
            sketch = TensorSketchEmbedding(coeffs, d=16, sketch_dim=32, rng=11)
            embedded.append((sketch.embed_data(x), sketch.embed_query(x)))
        np.testing.assert_array_equal(embedded[0][0], embedded[1][0])
        np.testing.assert_array_equal(embedded[0][1], embedded[1][1])

    def test_construction_leaves_global_numpy_state_alone(
        self, global_numpy_state
    ):
        np.random.seed(5)
        before = np.random.get_state()[1].copy(), np.random.get_state()[2]
        TensorSketchEmbedding([0.0, 0.5, 0.5], d=16, sketch_dim=32, rng=11)
        after = np.random.get_state()
        np.testing.assert_array_equal(after[1], before[0])
        assert after[2] == before[1]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TensorSketchEmbedding([1.0], d=0)
        with pytest.raises(ValueError):
            TensorSketchEmbedding([1.0], d=2, sketch_dim=0)
        with pytest.raises(ValueError):
            TensorSketchEmbedding([0.9, 0.9], d=2)
