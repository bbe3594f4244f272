"""Serving workflow: build once, save, zero-copy reload, shard the data.

A production serving tier should not re-hash the whole point set on every
cold start.  This script walks the full lifecycle:

1. build a packed Theorem 6.1 index and **save** it (`save_index`): the CSR
   table arrays land in one uncompressed `.npz`, the spec + sampled-pair
   RNG state in a JSON sidecar;
2. **reload** it (`load_index`): the arrays come back as read-only memory
   maps — cold start is file-open time, O(1) in n — and answers are
   byte-identical to the original;
3. build the same spec with ``shards=4`` (hashing the shards on two build
   threads): a `ShardedIndex` that partitions the points into contiguous
   shards with identical hash pairs and saves one file pair per shard.
   Reloaded, it memory-maps every shard in this process, hashes each
   query block once, probes the shards one after another and merges their
   hit streams exactly — results stay bit-identical to the unsharded
   index, with a ``max_retrieved`` budget clipped per shard before the
   gather.

Run:  python examples/sharded_serving.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.api import build_index, load_index, save_index
from repro.spaces import hamming

RNG_SEED = 2018
N_POINTS = 20_000
N_QUERIES = 512
D = 64
L = 12
SPEC = dict(
    kind="raw", family="bit_sampling", power=14, n_tables=L, rng=RNG_SEED + 1
)


def clustered_points(n, rng):
    prototypes = hamming.random_points(60, D, rng=rng)
    rows = prototypes[rng.integers(0, prototypes.shape[0], size=n)]
    return rows ^ (rng.random(size=rows.shape) < 0.01).astype(np.int8)


def main():
    rng = np.random.default_rng(RNG_SEED)
    points = clustered_points(N_POINTS, rng)
    queries = clustered_points(N_QUERIES, rng)

    print(f"building packed index: n={N_POINTS}, d={D}, L={L}")
    start = time.perf_counter()
    index = build_index(points, **SPEC)
    build_s = time.perf_counter() - start
    reference = index.batch_query(queries)

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "prod_index"
        save_index(index, base)
        files = sorted(p.name for p in Path(tmp).iterdir())
        print(f"saved -> {files}")

        start = time.perf_counter()
        served = load_index(base)          # mmap'd: no hashing, no copies
        load_s = time.perf_counter() - start
        answers = served.batch_query(queries)
        assert [r.indices for r in answers] == [r.indices for r in reference]
        print(
            f"cold start: build {build_s * 1e3:.0f} ms vs load "
            f"{load_s * 1e3:.1f} ms (x{build_s / load_s:.0f}); answers identical"
        )

        sharded = build_index(points, **SPEC, shards=4, workers=2)
        shard_base = Path(tmp) / "prod_sharded"
        save_index(sharded, shard_base)
        print(f"sharded save: {sharded!r}")

        start = time.perf_counter()
        sharded_served = load_index(shard_base)
        shard_load_s = time.perf_counter() - start
        print(f"sharded load: {sharded_served!r} in {shard_load_s * 1e3:.1f} ms")
        answers = sharded_served.batch_query(queries)
        assert [r.indices for r in answers] == [r.indices for r in reference]
        start = time.perf_counter()
        sharded_served.batch_query(queries)
        batch_s = time.perf_counter() - start
        print(
            f"sharded batch of {N_QUERIES} queries: {batch_s * 1e3:.0f} ms "
            f"({N_QUERIES / batch_s:.0f} q/s), results identical to the "
            "unsharded in-memory index"
        )
        budgeted = sharded_served.batch_query(queries, max_retrieved=8 * L)
        assert budgeted == index.batch_query(queries, max_retrieved=8 * L)
        print(f"budgeted (max_retrieved={8 * L}): identical as well")


if __name__ == "__main__":
    main()
