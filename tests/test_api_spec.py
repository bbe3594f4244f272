"""Tests for spec-driven construction: IndexSpec / build_index kinds,
serialization and spec errors.  That a JSON round trip rebuilds an index
answering identically is checked by the generated oracle
(``tests/test_oracle.py``)."""

import json

import numpy as np
import pytest

from repro.api import (
    PROXIMITIES,
    IndexSpec,
    build_index,
    register_proximity,
)
from repro.data.synthetic import planted_euclidean_range
from repro.index import (
    AnnulusIndex,
    DSHIndex,
    HyperplaneIndex,
    RangeReportingIndex,
)
from repro.index.annulus import sphere_peak_placement
from repro.spaces import sphere


@pytest.fixture(scope="module")
def sphere_points():
    return sphere.random_points(300, 12, rng=0)


class TestBuildIndexKinds:
    def test_raw(self, sphere_points):
        index = build_index(
            sphere_points, kind="raw", family="simhash", power=4,
            n_tables=6, rng=1,
        )
        assert isinstance(index, DSHIndex)
        assert index.backend == "packed"
        assert index.n_points == 300
        candidates, stats = index.query(sphere_points[0])
        assert 0 in candidates
        assert stats.tables_probed == 6

    def test_annulus_sphere_with_auto_peak(self, sphere_points):
        index = build_index(
            sphere_points, kind="annulus", family="annulus_sphere",
            t=1.5, interval=(0.2, 0.6), n_tables=20, rng=2,
        )
        assert isinstance(index, AnnulusIndex)
        placed = index.spec.family_params["alpha_max"]
        assert placed == pytest.approx(sphere_peak_placement((0.2, 0.6)))
        results = index.batch_query(sphere_points[:4])
        assert len(results) == 4

    def test_annulus_non_sphere_family_requires_proximity(self, sphere_points):
        with pytest.raises(ValueError, match="proximity"):
            build_index(
                sphere_points, kind="annulus", family="euclidean_lsh",
                w=2.0, k=1, interval=(1.0, 3.0), n_tables=5, rng=3,
            )
        index = build_index(
            sphere_points, kind="annulus", family="euclidean_lsh",
            w=2.0, k=1, interval=(1.0, 3.0), proximity="euclidean_distance",
            n_tables=5, rng=3,
        )
        assert isinstance(index, AnnulusIndex)

    def test_hyperplane(self, sphere_points):
        index = build_index(
            sphere_points, kind="hyperplane", alpha=0.3, t=1.4,
            n_tables=15, rng=4,
        )
        assert isinstance(index, HyperplaneIndex)
        result = index.query(sphere_points[0])
        if result.found:
            assert abs(sphere_points[result.index] @ sphere_points[0]) <= 0.3

    def test_range_reporting(self):
        inst = planted_euclidean_range(200, 8, 4.0, n_near=10, rng=5)
        index = build_index(
            inst.points, kind="range_reporting", family="step_euclidean",
            r_flat=4.0, level=0.12, n_components=3,
            r_report=4.0, distance="euclidean_distance",
            n_tables=30, rng=6,
        )
        assert isinstance(index, RangeReportingIndex)
        report = index.query(inst.query)
        for idx in report.indices:
            assert np.linalg.norm(inst.points[idx] - inst.query) <= 4.0 + 1e-9

    def test_d_inferred_from_points(self, sphere_points):
        index = build_index(
            sphere_points, kind="raw", family="simhash", n_tables=2, rng=0
        )
        assert index.spec.family_params["d"] == 12

class TestSpecRoundTrip:
    def _spec(self):
        return IndexSpec(
            kind="annulus",
            family="annulus_sphere",
            family_params={"d": 12, "alpha_max": 0.35, "t": 1.5},
            n_tables=15,
            backend="packed",
            seed=9,
            options={"interval": (0.2, 0.6), "budget_factor": 4.0},
        )

    def test_to_dict_from_dict_identity(self):
        spec = self._spec()
        clone = IndexSpec.from_dict(spec.to_dict())
        assert clone == spec

    def test_version_and_unknown_fields_rejected(self):
        spec = self._spec()
        data = spec.to_dict()
        data["version"] = 99
        with pytest.raises(ValueError, match="version"):
            IndexSpec.from_dict(data)
        data = spec.to_dict()
        data["sharding"] = 4
        with pytest.raises(ValueError, match="unknown spec field"):
            IndexSpec.from_dict(data)

    def test_callable_proximity_not_serializable(self, sphere_points):
        spec = IndexSpec(
            kind="annulus",
            family="annulus_sphere",
            family_params={"d": 12, "alpha_max": 0.35, "t": 1.5},
            n_tables=4,
            seed=0,
            options={"interval": (0.2, 0.6), "proximity": lambda q, p: p @ q},
        )
        spec.build(sphere_points)  # building works
        with pytest.raises(ValueError, match="register it"):
            spec.to_dict()

    def test_registered_proximity_serializes(self, sphere_points):
        register_proximity("neg_inner", lambda q, p: -(p @ q), overwrite=True)
        try:
            spec = IndexSpec(
                kind="annulus",
                family="annulus_sphere",
                family_params={"d": 12, "alpha_max": 0.35, "t": 1.5},
                n_tables=4,
                seed=0,
                options={"interval": (-0.6, -0.2), "proximity": "neg_inner"},
            )
            clone = IndexSpec.from_dict(spec.to_dict())
            assert clone.options["proximity"] == "neg_inner"
            clone.build(sphere_points)
        finally:
            PROXIMITIES.pop("neg_inner", None)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind"):
            IndexSpec(kind="kd-tree", family="simhash", n_tables=2)

    def test_family_required_for_family_kinds(self):
        with pytest.raises(ValueError, match="needs a family"):
            IndexSpec(kind="raw", n_tables=2)

    def test_hyperplane_rejects_family(self):
        with pytest.raises(ValueError, match="builds its own family"):
            IndexSpec(
                kind="hyperplane", family="simhash", n_tables=2,
                options={"alpha": 0.3, "t": 1.4},
            )

    def test_family_params_validated_at_spec_time(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            IndexSpec(
                kind="raw", family="simhash",
                family_params={"d": 8, "widgets": 1}, n_tables=2,
            )

    def test_unknown_option(self):
        with pytest.raises(ValueError, match="unknown option"):
            IndexSpec(
                kind="annulus", family="annulus_sphere",
                family_params={"d": 8, "alpha_max": 0.3, "t": 1.5},
                n_tables=2,
                options={"interval": (0.1, 0.5), "beam_width": 4},
            )

    def test_missing_required_option(self):
        with pytest.raises(ValueError, match="missing required option"):
            IndexSpec(
                kind="annulus", family="annulus_sphere",
                family_params={"d": 8, "alpha_max": 0.3, "t": 1.5},
                n_tables=2,
            )

    def test_bad_interval(self):
        with pytest.raises(ValueError, match="lo < hi"):
            IndexSpec(
                kind="annulus", family="annulus_sphere",
                family_params={"d": 8, "alpha_max": 0.3, "t": 1.5},
                n_tables=2,
                options={"interval": (0.6, 0.2)},
            )

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("annulus", {"family": "annulus_sphere", "t": 1.5,
                         "interval": (0.2, 0.6), "budget_factor": 0}),
            ("hyperplane", {"alpha": 0.3, "t": 1.4, "budget_factor": -1.0}),
            ("range_reporting", {"family": "simhash", "r_report": -1.0,
                                 "distance": "euclidean_distance"}),
        ],
    )
    def test_nonpositive_budget_or_radius_fails_before_building(
        self, sphere_points, kind, params, monkeypatch
    ):
        def no_build(*args, **kwargs):
            raise AssertionError("index built before its spec was checked")

        monkeypatch.setattr(DSHIndex, "build", no_build)
        with pytest.raises(ValueError, match="must be positive"):
            build_index(sphere_points, kind=kind, n_tables=2, rng=0, **params)

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            IndexSpec(
                kind="raw", family="simhash", family_params={"d": 8},
                n_tables=2, backend="b-tree",
            )

    def test_generator_seed_rejected(self, sphere_points):
        with pytest.raises(TypeError, match="int seed"):
            build_index(
                sphere_points, kind="raw", family="simhash", n_tables=2,
                rng=np.random.default_rng(0),
            )

    def test_unknown_parameter_routed_nowhere(self, sphere_points):
        with pytest.raises(ValueError, match="unknown parameter"):
            build_index(
                sphere_points, kind="raw", family="simhash", n_tables=2,
                beam_width=7,
            )

    def test_numpy_scalar_params_serialize_to_json(self, sphere_points):
        index = build_index(
            sphere_points, kind="annulus", family="annulus_sphere",
            t=np.float32(1.5), interval=(np.float64(0.2), np.float64(0.6)),
            n_tables=np.int64(4), rng=np.int32(0),
        )
        wire = json.dumps(index.spec.to_dict())  # must not raise
        clone = IndexSpec.from_dict(json.loads(wire)).build(sphere_points)
        a, b = index.batch_query(sphere_points[:3]), clone.batch_query(
            sphere_points[:3]
        )
        assert [r.index for r in a] == [r.index for r in b]

    def test_fractional_power_rejected(self, sphere_points):
        with pytest.raises(ValueError, match="power"):
            build_index(
                sphere_points, kind="raw", family="simhash", power=2.5,
                n_tables=2, rng=0,
            )
        with pytest.raises(ValueError, match="power"):
            IndexSpec(
                kind="raw", family="simhash",
                family_params={"d": 8, "power": 2.5}, n_tables=2,
            )

    def test_hyperplane_budget_factor_is_honored(self, sphere_points):
        index = build_index(
            sphere_points, kind="hyperplane", alpha=0.3, t=1.4,
            n_tables=10, budget_factor=2.0, rng=0,
        )
        assert index.budget == 20  # 2.0 * L, not the default 8L

    def test_sphere_interval_outside_unit_range_rejected(self, sphere_points):
        for bad in [(1.2, 1.5), (0.35, 1.5), (-1.5, 0.2)]:
            with pytest.raises(ValueError, match="beta"):
                build_index(
                    sphere_points, kind="annulus", family="annulus_sphere",
                    t=1.5, interval=bad, n_tables=4, rng=0,
                )

    def test_unknown_proximity_name(self, sphere_points):
        with pytest.raises(ValueError, match="unknown proximity"):
            build_index(
                sphere_points, kind="annulus", family="annulus_sphere",
                t=1.5, interval=(0.2, 0.6), proximity="cosine!!",
                n_tables=2, rng=0,
            )
