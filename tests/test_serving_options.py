"""ServingOptions: validation, round-trip, plumb-through, and the
removal of the loose serving keywords on ``load_index`` /
``ShardedIndex.load``.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.api import IndexSpec, load_index, save_index
from repro.serving import ServingOptions, ShardedIndex
from repro.spaces import hamming

D = 16
N_TABLES = 6


def _spec(shards=1):
    return IndexSpec(
        kind="raw",
        family="bit_sampling",
        family_params={"d": D, "power": 3},
        n_tables=N_TABLES,
        seed=7,
        shards=shards,
    )


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    rng = np.random.default_rng(5)
    points = hamming.random_points(120, D, rng=rng)
    root = tmp_path_factory.mktemp("options")
    single = root / "single"
    sharded = root / "sharded"
    save_index(_spec().build(points), single)
    save_index(_spec(shards=2).build(points), sharded)
    return single, sharded, points


class TestValidation:
    def test_defaults_are_valid(self):
        opts = ServingOptions()
        assert opts.workers is None
        assert opts.mmap is True
        assert opts.verify == "lazy"
        assert [f.name for f in dataclasses.fields(opts)] == [
            "workers", "mmap", "verify",
        ]

    @pytest.mark.parametrize(
        "field, value",
        [("on_shard_failure", "degrade"), ("timeout", 1.0),
         ("max_retries", 1), ("retry_backoff_s", 0.1)],
    )
    def test_process_pool_fields_are_gone(self, field, value):
        with pytest.raises(TypeError):
            ServingOptions(**{field: value})
        with pytest.raises(ValueError, match="unknown ServingOptions field"):
            ServingOptions.from_dict({field: value})

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ServingOptions().workers = 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"workers": -1},
            {"verify": "sometimes"},
        ],
    )
    def test_bad_values_rejected_eagerly(self, kwargs):
        with pytest.raises(ValueError):
            ServingOptions(**kwargs)


class TestRoundTrip:
    def test_dict_json_round_trip(self):
        opts = ServingOptions(
            workers=3,
            mmap=False,
            verify="eager",
        )
        assert ServingOptions.from_dict(opts.to_dict()) == opts
        assert (
            ServingOptions.from_dict(json.loads(json.dumps(opts.to_dict())))
            == opts
        )

    def test_round_trips_alongside_index_spec(self):
        # A deployment config can pin the build and the serving policy in
        # one JSON document.
        config = {
            "spec": _spec(shards=2).to_dict(),
            "serving": ServingOptions(mmap=False, verify="eager").to_dict(),
        }
        revived = json.loads(json.dumps(config))
        assert IndexSpec.from_dict(revived["spec"]) == _spec(shards=2)
        assert ServingOptions.from_dict(revived["serving"]) == ServingOptions(
            mmap=False, verify="eager"
        )

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown ServingOptions field"):
            ServingOptions.from_dict({"workerz": 2})

    def test_from_dict_accepts_partial(self):
        assert ServingOptions.from_dict({"verify": "off"}) == ServingOptions(
            verify="off"
        )


class TestPlumbThrough:
    def test_sharded_load_applies_options(self, saved):
        _, sharded_path, _ = saved
        opts = ServingOptions(workers=2, mmap=False, verify="off")
        with load_index(sharded_path, options=opts) as index:
            assert isinstance(index, ShardedIndex)
            assert index.options == opts

    def test_single_index_rejects_pool_only_options(self, saved):
        single_path, _, _ = saved
        with pytest.raises(ValueError, match="sharded indexes only"):
            load_index(single_path, options=ServingOptions(workers=2))

    def test_in_memory_sharded_index_has_default_options(self, saved):
        _, _, points = saved
        index = ShardedIndex(points, _spec(shards=2))
        assert index.options == ServingOptions()


class TestLooseKeywordsRemoved:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mmap": False},
            {"workers": 1},
            {"verify": "off"},
            {"on_shard_failure": "degrade"},
        ],
    )
    def test_loose_serving_keywords_raise_type_error(self, saved, kwargs):
        single_path, sharded_path, _ = saved
        with pytest.raises(TypeError):
            load_index(single_path, **kwargs)
        with pytest.raises(TypeError):
            ShardedIndex.load(sharded_path, **kwargs)
