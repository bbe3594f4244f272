"""Serving workflow: build once, save, zero-copy reload, shard for cores.

A production serving tier should not re-hash the whole point set on every
cold start, and a batched query stream should use every core.  This script
walks the full lifecycle:

1. build a packed Theorem 6.1 index and **save** it (`save_index`): the CSR
   table arrays land in one uncompressed `.npz`, the spec + sampled-pair
   RNG state in a JSON sidecar;
2. **reload** it (`load_index`): the arrays come back as read-only memory
   maps — cold start is file-open time, O(1) in n — and answers are
   byte-identical to the original;
3. build the same spec with ``shards=4``: a `ShardedIndex` that partitions
   the points into contiguous shards with identical hash pairs, saves one
   file pair per shard, and (reloaded with ``workers=``) fans `batch_query`
   out over a persistent process pool whose workers mmap the shard files —
   no table data is ever pickled.  Hit streams come back pickled through
   the executor pipe, and a ``max_retrieved`` budget is clipped *inside
   the workers* (exactly — merged results stay bit-identical), so the
   pipe carries only hits the merge can use;
   ``pool_index.last_transport`` reports the bytes.

Run:  python examples/sharded_serving.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.api import build_index, load_index, save_index
from repro.serving import ServingOptions
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

        with load_index(shard_base, options=ServingOptions(workers=2)) as pool_index:
            print(f"pool serving: {pool_index!r}")
            pooled = pool_index.batch_query(queries)
            assert [r.indices for r in pooled] == [
                r.indices for r in reference
            ]
            start = time.perf_counter()
            pool_index.batch_query(queries)
            pool_s = time.perf_counter() - start
            transport = pool_index.last_transport
            print(
                f"pooled batch of {N_QUERIES} queries: {pool_s * 1e3:.0f} ms "
                f"({N_QUERIES / pool_s:.0f} q/s), results identical to the "
                "unsharded in-memory index"
            )
            print(
                f"transport: {transport['pipe_bytes']} B over the executor "
                f"pipe ({transport['tasks']} tasks across "
                f"{transport['chunks']} query chunks)"
            )


if __name__ == "__main__":
    main()
