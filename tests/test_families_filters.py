"""Tests for the Gaussian filter families D+/D- (Section 2.2, Thm 1.2)."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.estimate import estimate_collision_probability
from repro.families.filters import (
    _CHUNK,
    _ROWS,
    GaussianFilterCPF,
    GaussianFilterFamily,
    cpf_lower_bound,
    cpf_upper_bound,
    default_num_projections,
    filter_collision_probability,
    joint_tail_probability,
    szarek_werner_lower_bound,
    theorem12_log_inv_cpf,
)
from repro.spaces import sphere
from repro.utils.rng import ensure_rng
from scipy.stats import norm

D = 10


def _sampler(alpha):
    def sampler(n, rng):
        return sphere.pairs_at_inner_product(n, D, alpha, rng)

    return sampler


class TestTailMath:
    def test_szarek_werner_is_lower_bound(self):
        for t in [0.5, 1.0, 2.0, 3.0]:
            assert szarek_werner_lower_bound(t) <= norm.sf(t)

    def test_default_m_scaling(self):
        # m = O(t^4 e^{t^2/2}) grows steeply with t.
        assert default_num_projections(1.0) < default_num_projections(2.0)
        assert default_num_projections(2.0) < default_num_projections(3.0)

    def test_joint_tail_limits(self):
        t = 1.5
        assert joint_tail_probability(1.0, t) == pytest.approx(norm.sf(t))
        assert joint_tail_probability(-1.0, t) == 0.0
        # Independence at alpha = 0.
        assert joint_tail_probability(0.0, t) == pytest.approx(norm.sf(t) ** 2)

    def test_joint_tail_monotone_in_alpha(self):
        t = 2.0
        vals = [joint_tail_probability(a, t) for a in [-0.5, 0.0, 0.5, 0.9]]
        assert all(v1 < v2 for v1, v2 in zip(vals, vals[1:]))


class TestAnalyticCpf:
    def test_dplus_increasing_dminus_decreasing(self):
        t = 2.0
        alphas = np.linspace(-0.7, 0.7, 8)
        plus = GaussianFilterCPF(t, negated=False)(alphas)
        minus = GaussianFilterCPF(t, negated=True)(alphas)
        assert np.all(np.diff(plus) > 0)
        assert np.all(np.diff(minus) < 0)

    def test_lemma_a1_mirror(self):
        """f_+(alpha) = f_-(-alpha) exactly."""
        t = 1.8
        for alpha in [-0.5, 0.0, 0.3]:
            assert filter_collision_probability(alpha, t, negated=False) == (
                pytest.approx(filter_collision_probability(-alpha, t, negated=True))
            )

    def test_lemma_a5_bounds_bracket_cpf(self):
        t = 2.5
        m = default_num_projections(t)
        for alpha in [-0.4, 0.0, 0.4]:
            f = filter_collision_probability(alpha, t, m)
            assert f <= cpf_upper_bound(alpha, t) + 1e-12
            assert f >= cpf_lower_bound(alpha, t) - 1e-12

    def test_theorem12_leading_term_dominates(self):
        """ln(1/f) / (t^2/2) converges to (1+alpha)/(1-alpha) for D-."""
        alpha = 0.3
        target = (1 + alpha) / (1 - alpha)
        ratios = []
        for t in [2.0, 3.0, 4.0]:
            f = filter_collision_probability(alpha, t, negated=True)
            ratios.append(np.log(1 / f) / (t**2 / 2))
        errors = [abs(r - target) for r in ratios]
        assert errors[-1] < errors[0]  # Theta(log t)/t^2 correction shrinks
        assert theorem12_log_inv_cpf(alpha, 4.0) == pytest.approx(
            target * 16 / 2
        )


class TestFamilyMeasurement:
    @pytest.mark.parametrize("negated", [False, True])
    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 0.5])
    def test_measured_cpf_matches_analytic(self, negated, alpha):
        t = 1.5
        fam = GaussianFilterFamily(D, t=t, negated=negated)
        est = estimate_collision_probability(
            fam, _sampler(alpha), n_functions=150, pairs_per_function=100, rng=1
        )
        expected = filter_collision_probability(alpha, t, fam.m, negated)
        assert est.contains(expected), f"{est} vs {expected}"

    def test_small_m_override(self):
        fam = GaussianFilterFamily(D, t=1.0, m=5)
        est = estimate_collision_probability(
            fam, _sampler(0.5), n_functions=200, pairs_per_function=80, rng=2
        )
        expected = filter_collision_probability(0.5, 1.0, 5)
        assert est.contains(expected)

    def test_uncaptured_points_never_collide(self):
        # With m=1 many points miss the single cap; sentinels must differ.
        fam = GaussianFilterFamily(D, t=3.0, m=1)
        pair = fam.sample(rng=3)
        x = sphere.random_points(300, D, rng=4)
        h = pair.hash_data(x)[:, 0]
        g = pair.hash_query(x)[:, 0]
        uncaptured = (h == fam.m + 1) & (g == fam.m + 2)
        assert np.count_nonzero(uncaptured) > 250  # most points miss the cap
        assert not np.any(h[h == fam.m + 1] == g[h == fam.m + 1])

    def test_chunked_evaluation_consistency(self):
        """First-hit indices are identical regardless of how many points are
        evaluated together, both when only chunk 0 runs (t=1.2, m=39) and
        when rows resolve in later chunks (m=5000 > _CHUNK)."""
        for fam in (GaussianFilterFamily(D, t=1.2), GaussianFilterFamily(4, t=3.0, m=5000)):
            pair = fam.sample(rng=5)
            x = sphere.random_points(64, fam.d, rng=6)
            together = pair.hash_data(x)
            one_by_one = np.vstack([pair.hash_data(x[i : i + 1]) for i in range(64)])
            np.testing.assert_array_equal(together, one_by_one)
        assert np.any((together >= _CHUNK) & (together <= fam.m))

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianFilterFamily(0, t=1.0)
        with pytest.raises(ValueError):
            GaussianFilterFamily(D, t=-1.0)
        with pytest.raises(ValueError):
            GaussianFilterFamily(D, t=1.0, m=0)


def _reference_hash(points, seed, m, t, mode, sentinel):
    """Naive first hit: draw all ``m`` projections from the pair's seed in
    ``_CHUNK`` pieces and take the first hit per row over the full
    ``(n, m)`` projection matrix (no caching, no early exit)."""
    gen = ensure_rng(seed)
    z = np.vstack([
        gen.standard_normal((min(_CHUNK, m - offset), points.shape[1]))
        for offset in range(0, m, _CHUNK)
    ])
    first = np.full(points.shape[0], sentinel, dtype=np.int64)
    for start in range(0, points.shape[0], 512):  # bounds the test's memory
        proj = points[start : start + 512] @ z.T
        hit = proj >= t if mode == "ge" else proj <= -t
        found = hit.any(axis=1)
        first[start : start + 512][found] = np.argmax(hit[found], axis=1)
    return first


def _references(fam, pair, points):
    seed = pair.meta["seed"]
    h = _reference_hash(points, seed, fam.m, fam.t, "ge", fam.m + 1)
    g_mode = "le" if fam.negated else "ge"
    g = _reference_hash(points, seed, fam.m, fam.t, g_mode, fam.m + 2)
    return h, g


class TestProjectionChunks:
    """Chunk 0 is cached per pair and later chunks resume from the saved
    generator state; neither may change a hash value."""

    @pytest.mark.parametrize("negated", [False, True])
    def test_multi_chunk_matches_reference(self, negated):
        # d=4, t=3: Pr[hit] ~ 0.00135 per projection, so ~6% of rows miss
        # chunk 0 and a few miss chunk 1 as well.
        fam = GaussianFilterFamily(4, t=3.0, m=5000, negated=negated)
        x = sphere.random_points(2000, 4, rng=11)
        pair = fam.sample(rng=12)
        ref_h, ref_g = _references(fam, pair, x)
        captured = ref_h[ref_h <= fam.m]
        assert np.any(captured >= _CHUNK) and np.any(captured >= 2 * _CHUNK)

        first = pair.hash_data(x)[:, 0]
        np.testing.assert_array_equal(first, ref_h)
        np.testing.assert_array_equal(pair.hash_data(x)[:, 0], ref_h)  # cached
        np.testing.assert_array_equal(pair.hash_query(x)[:, 0], ref_g)

        # A fresh pair from the same seed, first used on the query side.
        fresh = fam.sample(rng=12)
        assert fresh.meta["seed"] == pair.meta["seed"]
        np.testing.assert_array_equal(fresh.hash_query(x)[:, 0], ref_g)
        np.testing.assert_array_equal(fresh.hash_data(x)[:, 0], ref_h)

    def test_row_block_boundary(self):
        # Three row blocks in chunk 0; the rows each block leaves unresolved
        # must carry over to chunks 1 and 2.
        fam = GaussianFilterFamily(4, t=3.0, m=5000, negated=True)
        x = sphere.random_points(2 * _ROWS + 3, 4, rng=13)
        pair = fam.sample(rng=14)
        ref_h, ref_g = _references(fam, pair, x)
        together = pair.hash_data(x)[:, 0]
        sliced = np.concatenate([
            pair.hash_data(x[start : start + _ROWS])[:, 0]
            for start in range(0, x.shape[0], _ROWS)
        ])
        np.testing.assert_array_equal(together, sliced)
        np.testing.assert_array_equal(together, ref_h)
        np.testing.assert_array_equal(pair.hash_query(x)[:, 0], ref_g)

    def test_concurrent_first_use(self):
        """Index builds and concurrent server batches hash on threads: first
        calls on one fresh pair (both sides) must all see the same chunks."""
        fam = GaussianFilterFamily(4, t=3.0, m=5000, negated=True)
        x = sphere.random_points(500, 4, rng=15)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(16, 21):
                pair = fam.sample(rng=seed)
                ref_h, ref_g = _references(fam, pair, x)
                start = threading.Barrier(4, timeout=30)

                def first_call(i):
                    start.wait()
                    return (pair.hash_data if i % 2 else pair.hash_query)(x)[:, 0]

                with ThreadPoolExecutor(max_workers=4) as pool:
                    futures = [pool.submit(first_call, i) for i in range(4)]
                    results = [f.result(timeout=60) for f in futures]
                for i, result in enumerate(results):
                    np.testing.assert_array_equal(result, ref_h if i % 2 else ref_g)
        finally:
            sys.setswitchinterval(previous)
