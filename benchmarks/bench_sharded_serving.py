"""Zero-copy persistence + sharded serving benchmark.

Measures what the serving layer buys at production-ish scale (n = 100k
points, L = 16 tables by default):

* **cold start** — reviving a saved packed index with ``load_index``
  (mmap'd CSR arrays, O(1) in ``n``) vs rebuilding from the spec
  (``O(L n)`` hash evaluations).  Asserted ≥ 10× at full size.
* **sharded batch queries** — a saved 4-shard index, loaded back and
  served in-process, vs the unsharded index (reported, not asserted:
  sharding buys data partitioning and per-shard files, not speed).
* **threaded build** — ``DSHIndex.build(workers=)`` per-table hashing
  speedup (reported, not asserted: thread scaling depends on BLAS/NumPy
  release behaviour per family).

Every sharded result — including a budgeted run that exercises the
shard-local ``max_retrieved`` clip — is checked identical to the
unsharded in-memory index before any timing is trusted.  Set
``BENCH_SMOKE=1`` to shrink the instance for CI smoke runs (assertions
are only enforced at full size).
"""

import os
import tempfile

import numpy as np

from repro.api import IndexSpec, load_index, save_index
from repro.spaces import hamming

from _harness import clustered_hamming, fmt_row, median_time, report, timed

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
N_POINTS = 4_000 if SMOKE else 100_000
N_QUERIES = 64 if SMOKE else 512
N_TABLES = 8 if SMOKE else 16
N_CLUSTERS = 40 if SMOKE else 100
D = 64
K = 16
SEED = 2018
SHARDS = 4
BUDGET = 16 * N_TABLES  # exercises the shard-local table-granularity clip
QUERY_REPEATS = 3 if SMOKE else 5
MIN_COLD_START_SPEEDUP = 10.0


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _spec(shards=1):
    return IndexSpec(
        kind="raw",
        family="bit_sampling",
        family_params={"d": D, "power": K},
        n_tables=N_TABLES,
        backend="packed",
        seed=SEED + 2,
        shards=shards,
    )


def _assert_parity(served, queries, reference, reference_budget):
    results = served.batch_query(queries)
    assert [r.indices for r in results] == [
        r.indices for r in reference
    ] and [r.stats for r in results] == [
        r.stats for r in reference
    ], "sharded results diverged"
    budgeted = served.batch_query(queries, max_retrieved=BUDGET)
    assert [r.indices for r in budgeted] == [
        r.indices for r in reference_budget
    ] and [r.stats for r in budgeted] == [
        r.stats for r in reference_budget
    ], "budgeted sharded results diverged"


def _run():
    rng = np.random.default_rng(SEED)
    prototypes = hamming.random_points(N_CLUSTERS, D, rng=rng)
    points = clustered_hamming(prototypes, N_POINTS, rng)
    queries = clustered_hamming(prototypes, N_QUERIES, rng)

    out = {}

    # Build: serial vs threaded per-table hashing.
    flat, build_serial_s = timed(lambda: _spec().build(points))
    _, build_threads_s = timed(lambda: _spec().build(points, workers=4))
    out["build_serial_s"] = build_serial_s
    out["build_threads_s"] = build_threads_s

    reference = flat.batch_query(queries)
    reference_budget = flat.batch_query(queries, max_retrieved=BUDGET)

    with tempfile.TemporaryDirectory() as tmp:
        # Cold start: load (mmap) vs rebuild from spec.
        flat_path = os.path.join(tmp, "flat")
        save_index(flat, flat_path)
        out["rebuild_s"] = median_time(
            lambda: _spec().build(points), 1 if SMOKE else 2
        )
        out["load_s"] = median_time(lambda: load_index(flat_path), 5)
        loaded = load_index(flat_path)
        assert [r.indices for r in loaded.batch_query(queries)] == [
            r.indices for r in reference
        ], "loaded index diverged from the original"

        # Sharded serving: the saved shards loaded back, in-process.
        sharded_path = os.path.join(tmp, "sharded")
        sharded = _spec(shards=SHARDS).build(points, workers=2)
        save_index(sharded, sharded_path)
        served = load_index(sharded_path)
        _assert_parity(served, queries, reference, reference_budget)
        out["unsharded_s"] = median_time(
            lambda: flat.batch_query(queries), QUERY_REPEATS
        )
        out["sharded_s"] = median_time(
            lambda: served.batch_query(queries), QUERY_REPEATS
        )
    return out


def bench_sharded_serving(benchmark):
    """Time the persistence + sharded-serving sweep; require >= 10x cold
    start vs rebuild (full size)."""
    timings = benchmark.pedantic(_run, rounds=1, iterations=1)
    cores = _usable_cores()
    cold_speedup = timings["rebuild_s"] / timings["load_s"]
    build_speedup = timings["build_serial_s"] / timings["build_threads_s"]
    qps = {
        name: N_QUERIES / timings[f"{name}_s"]
        for name in ("unsharded", "sharded")
    }
    lines = [
        "Sharded serving: zero-copy cold start + in-process sharded batch "
        f"queries (n={N_POINTS} clustered points, L={N_TABLES}, "
        f"c={K} components, {SHARDS} shards, {N_QUERIES} batched queries, "
        f"{cores} usable cores{', SMOKE' if SMOKE else ''})",
        fmt_row("path", "seconds", width=28),
        fmt_row("rebuild from spec", timings["rebuild_s"], width=28),
        fmt_row("load_index (mmap)", timings["load_s"], width=28),
        fmt_row("build serial", timings["build_serial_s"], width=28),
        fmt_row("build 4 threads", timings["build_threads_s"], width=28),
        fmt_row("batch query, unsharded", timings["unsharded_s"], width=28),
        fmt_row(f"batch query, {SHARDS} shards", timings["sharded_s"],
                width=28),
        "",
        f"cold-start speedup (load vs rebuild): x{cold_speedup:.1f}",
        f"threaded build speedup: x{build_speedup:.2f}",
        f"batch throughput: {qps['unsharded']:.0f} q/s unsharded, "
        f"{qps['sharded']:.0f} q/s over {SHARDS} loaded shards",
    ]
    report(
        "sharded_serving",
        lines,
        metrics={
            "cold_start_speedup": cold_speedup,
            "threaded_build_speedup": build_speedup,
            "queries_per_s": qps,
            "median_s": {
                key: timings[key]
                for key in (
                    "rebuild_s", "load_s", "build_serial_s",
                    "build_threads_s", "unsharded_s", "sharded_s",
                )
            },
        },
        config={
            "n_points": N_POINTS,
            "n_queries": N_QUERIES,
            "n_tables": N_TABLES,
            "components": K,
            "shards": SHARDS,
            "budget": BUDGET,
            "smoke": SMOKE,
            "usable_cores": cores,
        },
    )
    # Timing assertions only at full size — smoke instances are small
    # enough that scheduler noise dominates.
    if not SMOKE:
        assert cold_speedup >= MIN_COLD_START_SPEEDUP, (
            f"mmap cold start only x{cold_speedup:.1f} faster than rebuild "
            f"(required x{MIN_COLD_START_SPEEDUP})"
        )
