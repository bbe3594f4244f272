"""Backend selection: names, classes and instances resolve to a storage
layout, and one instance serves one index.

Whether the ``"dict"`` and ``"packed"`` layouts answer identically is
checked by the generated oracle (``tests/test_oracle.py``), which holds
both to the dict backend's single-query walk.
"""

import pytest

from repro.families.bit_sampling import BitSampling
from repro.index import DSHIndex, DictBackend, PackedBackend
from repro.spaces import hamming


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown index backend"):
            DSHIndex(BitSampling(8), n_tables=2, rng=0, backend="b-tree")

    def test_backend_instance_cannot_be_shared(self):
        """A storage instance holds one index's tables; re-attaching it to
        a second DSHIndex would let the second build clobber the first."""
        shared = PackedBackend()
        DSHIndex(BitSampling(8), n_tables=2, rng=0, backend=shared)
        with pytest.raises(ValueError, match="already attached"):
            DSHIndex(BitSampling(8), n_tables=2, rng=1, backend=shared)

    def test_instance_and_class_specs(self):
        points = hamming.random_points(50, 8, rng=0)
        by_class = DSHIndex(
            BitSampling(8), n_tables=2, rng=1, backend=PackedBackend
        ).build(points)
        by_instance = DSHIndex(
            BitSampling(8), n_tables=2, rng=1, backend=DictBackend()
        ).build(points)
        assert by_class.backend == "packed"
        assert by_instance.backend == "dict"
        q = points[0]
        assert by_class.query(q) == by_instance.query(q)

