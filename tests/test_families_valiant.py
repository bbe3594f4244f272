"""Tests for the Theorem 5.1 polynomial sphere family (Figure 4)."""

import numpy as np
import pytest

from repro.core.estimate import estimate_collision_probability
from repro.families.valiant import PolynomialSphereFamily, polynomial_sphere_cpf
from repro.spaces import sphere

D = 4


def _sampler(alpha):
    def sampler(n, rng):
        return sphere.pairs_at_inner_product(n, D, alpha, rng)

    return sampler


# Selected Figure 4 polynomials (normalized as in the paper).
T_SQUARED = [0.0, 0.0, 1.0]
NEG_T_SQUARED = [0.0, 0.0, -1.0]
CHEBYSHEV2 = [-1 / 3, 0.0, 2 / 3]         # (2t^2 - 1)/3
CUBIC_MIX = [0.0, -1 / 3, 1 / 3, -1 / 3]  # (-t^3 + t^2 - t)/3


class TestComposedCpf:
    def test_t_squared_symmetric_in_alpha(self):
        cpf = polynomial_sphere_cpf(T_SQUARED)
        assert cpf(0.5) == pytest.approx(cpf(-0.5))
        # sim(0.25) = 1 - arccos(0.25)/pi.
        assert cpf(0.5) == pytest.approx(1 - np.arccos(0.25) / np.pi)

    def test_negated_polynomial_flips_shape(self):
        plus = polynomial_sphere_cpf(T_SQUARED)
        minus = polynomial_sphere_cpf(NEG_T_SQUARED)
        # sim is antisymmetric around 1/2: sim(-x) = 1 - sim(x).
        assert plus(0.8) + minus(0.8) == pytest.approx(1.0)

    def test_requires_similarity_kind(self):
        from repro.core.cpf import BitSamplingCPF

        with pytest.raises(ValueError, match="similarity"):
            polynomial_sphere_cpf(T_SQUARED, BitSamplingCPF())


class TestPolynomialSphereFamily:
    @pytest.mark.parametrize(
        "coeffs,alpha",
        [
            (T_SQUARED, 0.6),
            (T_SQUARED, -0.6),
            (NEG_T_SQUARED, 0.5),
            (CHEBYSHEV2, 0.0),
            (CHEBYSHEV2, 0.8),
            (CUBIC_MIX, -0.7),
        ],
    )
    def test_measured_cpf_is_sim_of_polynomial(self, coeffs, alpha):
        fam = PolynomialSphereFamily(coeffs, D)
        est = estimate_collision_probability(
            fam, _sampler(alpha), n_functions=200, pairs_per_function=80, rng=3
        )
        expected = float(polynomial_sphere_cpf(coeffs)(alpha))
        assert est.contains(expected), f"{est} vs {expected}"

    def test_unimodal_cpf_from_negative_square(self):
        """-t^2 gives a CPF peaked at alpha = 0 — 'close but not too close'."""
        cpf = PolynomialSphereFamily(NEG_T_SQUARED, D).cpf
        alphas = np.linspace(-0.9, 0.9, 19)
        values = cpf(alphas)
        peak = int(np.argmax(values))
        assert abs(alphas[peak]) < 0.15
        assert values[peak] == pytest.approx(0.5, abs=0.01)

    def test_sketched_family_approximates_exact(self):
        exact_fam = PolynomialSphereFamily(CHEBYSHEV2, 6)
        sketch_fam = PolynomialSphereFamily(CHEBYSHEV2, 6, sketch_dim=2048, rng=5)
        alpha = 0.4
        exact_est = estimate_collision_probability(
            exact_fam, lambda n, rng: sphere.pairs_at_inner_product(n, 6, alpha, rng),
            n_functions=200, pairs_per_function=60, rng=6,
        )
        sketch_est = estimate_collision_probability(
            sketch_fam, lambda n, rng: sphere.pairs_at_inner_product(n, 6, alpha, rng),
            n_functions=200, pairs_per_function=60, rng=7,
        )
        assert sketch_est.p_hat == pytest.approx(exact_est.p_hat, abs=0.04)

    def test_sketched_family_is_fixed_by_its_seed(self):
        """Two sketched families built from one seed hash alike even when
        numpy's global state differs between the builds."""
        x = sphere.random_points(40, D, rng=8)
        hashes = []
        state = np.random.get_state()
        try:
            for global_seed in (0, 1):
                np.random.seed(global_seed)
                fam = PolynomialSphereFamily(
                    CUBIC_MIX, D, sketch_dim=64, rng=5
                )
                pair = fam.sample(rng=9)
                hashes.append((pair.hash_data(x), pair.hash_query(x)))
        finally:
            np.random.set_state(state)
        np.testing.assert_array_equal(hashes[0][0], hashes[1][0])
        np.testing.assert_array_equal(hashes[0][1], hashes[1][1])

    def test_rejects_unnormalized_polynomial(self):
        with pytest.raises(ValueError, match="sum"):
            PolynomialSphereFamily([0.9, 0.9], D)

    def test_cpf_exposed(self):
        fam = PolynomialSphereFamily(T_SQUARED, D)
        assert fam.cpf.arg_kind == "similarity"
