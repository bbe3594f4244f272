"""Zero-copy persistence + multi-core sharded serving benchmark.

Measures what the serving layer buys at production-ish scale (n = 100k
points, L = 16 tables by default):

* **cold start** — reviving a saved packed index with ``load_index``
  (mmap'd CSR arrays, O(1) in ``n``) vs rebuilding from the spec
  (``O(L n)`` hash evaluations).  Asserted ≥ 10× at full size.
* **batched query throughput** — a saved 4-shard index served by a
  process pool with 4 workers vs 1 worker (identical machinery, so the
  ratio isolates multi-core scaling).  Asserted ≥ 2.5× at full size
  *when the host actually has ≥ 4 usable cores* — the assertion is
  meaningless on smaller machines and is skipped with a note instead.
* **result transport** — result-array bytes crossing the executor pipe per
  pooled ``batch_query``, unbudgeted and with a worker-side budget clip
  (reported, not asserted).
* **threaded build** — ``DSHIndex.build(workers=)`` per-table hashing
  speedup (reported, not asserted: thread scaling depends on BLAS/NumPy
  release behaviour per family).

Every pool-served result — including a budgeted run that exercises the
worker-side ``max_retrieved`` clip — is checked identical to the unsharded
in-memory index before any timing is trusted.  Set ``BENCH_SMOKE=1`` to
shrink the instance for CI smoke runs (assertions are only enforced at
full size).
"""

import os
import tempfile

import numpy as np

from repro.api import IndexSpec, load_index, save_index
from repro.serving import ServingOptions
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
BUDGET = 16 * N_TABLES  # exercises the worker-side table-granularity clip
QUERY_REPEATS = 3 if SMOKE else 5
MIN_COLD_START_SPEEDUP = 10.0
MIN_POOL_SCALING = 2.5


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


def _assert_pool_parity(served, queries, reference, reference_budget, label):
    results = served.batch_query(queries)
    assert [r.indices for r in results] == [
        r.indices for r in reference
    ] and [r.stats for r in results] == [
        r.stats for r in reference
    ], f"pool results diverged at {label}"
    budgeted = served.batch_query(queries, max_retrieved=BUDGET)
    assert [r.indices for r in budgeted] == [
        r.indices for r in reference_budget
    ] and [r.stats for r in budgeted] == [
        r.stats for r in reference_budget
    ], f"worker-clipped pool results diverged at {label}"


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

        # Sharded pool serving: identical machinery at 1 vs 4 workers.
        sharded_path = os.path.join(tmp, "sharded")
        sharded = _spec(shards=SHARDS).build(points, workers=2)
        save_index(sharded, sharded_path)
        for workers in (1, 4):
            with load_index(sharded_path, options=ServingOptions(workers=workers)) as served:
                # Warm worker caches and verify both the plain and the
                # worker-clipped paths before timing anything.
                _assert_pool_parity(
                    served, queries, reference, reference_budget,
                    f"workers={workers}",
                )
                out[f"pool{workers}_s"] = median_time(
                    lambda: served.batch_query(queries), QUERY_REPEATS
                )
                if workers == SHARDS:
                    served.batch_query(queries)
                    out["transport"] = dict(served.last_transport)
                    served.batch_query(queries, max_retrieved=BUDGET)
                    out["transport_budgeted"] = dict(served.last_transport)
    return out


def bench_sharded_serving(benchmark):
    """Time the persistence + sharded-serving sweep; require >= 10x cold
    start vs rebuild, >= 2.5x batched throughput at 4 pool workers vs 1
    (full size, >= 4 usable cores)."""
    timings = benchmark.pedantic(_run, rounds=1, iterations=1)
    cores = _usable_cores()
    cold_speedup = timings["rebuild_s"] / timings["load_s"]
    build_speedup = timings["build_serial_s"] / timings["build_threads_s"]
    pool_scaling = timings["pool1_s"] / timings["pool4_s"]
    qps = {w: N_QUERIES / timings[f"pool{w}_s"] for w in (1, 4)}
    transport = timings["transport"]
    transport_budgeted = timings["transport_budgeted"]
    lines = [
        "Sharded serving: zero-copy cold start + process-pool batched "
        f"queries (n={N_POINTS} clustered points, L={N_TABLES}, "
        f"c={K} components, {SHARDS} shards, {N_QUERIES} batched queries, "
        f"{cores} usable cores{', SMOKE' if SMOKE else ''})",
        fmt_row("path", "seconds", width=28),
        fmt_row("rebuild from spec", timings["rebuild_s"], width=28),
        fmt_row("load_index (mmap)", timings["load_s"], width=28),
        fmt_row("build serial", timings["build_serial_s"], width=28),
        fmt_row("build 4 threads", timings["build_threads_s"], width=28),
        fmt_row("batch query, pool x1", timings["pool1_s"], width=28),
        fmt_row("batch query, pool x4", timings["pool4_s"], width=28),
        "",
        f"cold-start speedup (load vs rebuild): x{cold_speedup:.1f}",
        f"threaded build speedup: x{build_speedup:.2f}",
        f"pool throughput: {qps[1]:.0f} q/s @1 worker, "
        f"{qps[4]:.0f} q/s @4 workers (x{pool_scaling:.2f})",
        f"transport: {transport['pipe_bytes']} B over the pipe "
        f"({transport['tasks']} tasks / {transport['chunks']} chunks)",
        f"worker-clipped (max_retrieved={BUDGET}): "
        f"{transport_budgeted['pipe_bytes']} B over the pipe",
    ]
    report(
        "sharded_serving",
        lines,
        metrics={
            "cold_start_speedup": cold_speedup,
            "threaded_build_speedup": build_speedup,
            "pool_scaling_4v1": pool_scaling,
            "queries_per_s": {"workers_1": qps[1], "workers_4": qps[4]},
            "transport": {
                "pipe_bytes": transport["pipe_bytes"],
                "tasks": transport["tasks"],
                "chunks": transport["chunks"],
                "budgeted_pipe_bytes": transport_budgeted["pipe_bytes"],
            },
            "median_s": {
                key: timings[key]
                for key in (
                    "rebuild_s", "load_s", "build_serial_s",
                    "build_threads_s", "pool1_s", "pool4_s",
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
    # enough that process startup and scheduler noise dominate.
    if not SMOKE:
        assert cold_speedup >= MIN_COLD_START_SPEEDUP, (
            f"mmap cold start only x{cold_speedup:.1f} faster than rebuild "
            f"(required x{MIN_COLD_START_SPEEDUP})"
        )
        if cores >= 4:
            assert pool_scaling >= MIN_POOL_SCALING, (
                f"4-worker pool only x{pool_scaling:.2f} over 1 worker "
                f"(required x{MIN_POOL_SCALING})"
            )
        else:
            print(
                f"[sharded_serving] NOTE: only {cores} usable core(s); "
                f"skipping the >=x{MIN_POOL_SCALING} 4-worker scaling "
                "assertion (needs >= 4 cores to be meaningful)"
            )
