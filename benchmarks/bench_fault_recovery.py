"""Fault-recovery benchmark for the sharded serving layer.

Measures what operational robustness costs — and proves, before trusting
any number, that the recovered answers are bit-identical to the healthy
ones:

* **healthy baseline** — pooled ``batch_query`` latency with no faults.
* **crash recovery** — the same request with a worker killed mid-task
  (:mod:`repro.serving.faults` arms one ``pool_worker`` kill per repeat):
  executor respawn + task retry, end to end.  Results are asserted
  bit-identical to the unsharded reference every repeat.
* **degraded serving** — latency once a shard's bundle is gone and
  ``on_shard_failure="degrade"`` merges the survivors (asserted exactly
  equal to an unsharded index over the surviving rows).
* **verify-mode load cost** — ``load_index`` at ``verify="off"`` /
  ``"lazy"`` (O(1) size check) / ``"eager"`` (full re-checksum), the
  integrity/latency trade-off at cold start.

Set ``BENCH_SMOKE=1`` to shrink the instance for CI smoke runs (timing
assertions are only enforced at full size; parity assertions always).
"""

import os
import statistics
import tempfile

import numpy as np

from repro.api import IndexSpec, load_index, save_index
from repro.serving import ServingOptions, faults
from repro.spaces import hamming

from _harness import clustered_hamming, fmt_row, median_time, report, timed

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
N_POINTS = 4_000 if SMOKE else 50_000
N_QUERIES = 64 if SMOKE else 256
N_TABLES = 8
N_CLUSTERS = 40 if SMOKE else 100
D = 64
K = 16
SEED = 2018
SHARDS = 2
WORKERS = 2
QUERY_REPEATS = 3 if SMOKE else 5
RECOVERY_REPEATS = 2 if SMOKE else 4
LOAD_REPEATS = 3 if SMOKE else 5
# Full-size guardrails: a killed worker must not trigger a retry storm
# (respawn + one retry round, not minutes of backoff), and serving fewer
# shards must never cost materially more than serving all of them.
MAX_RECOVERY_OVERHEAD = 50.0
MAX_DEGRADED_OVERHEAD = 2.0


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


def _assert_parity(reference, observed, label):
    assert [r.indices for r in observed] == [
        r.indices for r in reference
    ], f"results diverged at {label}"


def _run():
    rng = np.random.default_rng(SEED)
    prototypes = hamming.random_points(N_CLUSTERS, D, rng=rng)
    points = clustered_hamming(prototypes, N_POINTS, rng)
    queries = clustered_hamming(prototypes, N_QUERIES, rng)

    flat = _spec().build(points)
    reference = flat.batch_query(queries)

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        # Verify-mode cold-start cost on the unsharded bundle.
        flat_path = os.path.join(tmp, "flat")
        save_index(flat, flat_path)
        for mode in ("off", "lazy", "eager"):
            out[f"load_{mode}_s"] = median_time(
                lambda: load_index(flat_path, options=ServingOptions(verify=mode)), LOAD_REPEATS
            )

        sharded_path = os.path.join(tmp, "sharded")
        save_index(_spec(shards=SHARDS).build(points, workers=2), sharded_path)

        fault_dir = os.path.join(tmp, "fault-tokens")
        os.environ[faults.ENV_FAULT_DIR] = fault_dir
        try:
            # Healthy pooled baseline, then crash recovery per repeat.
            with load_index(sharded_path, options=ServingOptions(workers=WORKERS)) as served:
                _assert_parity(
                    reference, served.batch_query(queries), "warm-up"
                )
                out["healthy_s"] = median_time(
                    lambda: served.batch_query(queries), QUERY_REPEATS
                )
                recovery_times = []
                out["respawns"] = 0
                for repeat in range(RECOVERY_REPEATS):
                    faults.arm(fault_dir, "pool_worker", "kill")
                    observed, elapsed = timed(
                        lambda: served.batch_query(queries)
                    )
                    _assert_parity(
                        reference, observed, f"recovery repeat {repeat}"
                    )
                    health = served.last_health
                    assert health["respawns"] >= 1, "kill did not respawn"
                    out["respawns"] += health["respawns"]
                    recovery_times.append(elapsed)
                out["recovery_s"] = statistics.median(recovery_times)

            # Degraded serving once a shard's bundle is gone.
            with load_index(sharded_path, options=ServingOptions(workers=WORKERS, on_shard_failure="degrade")) as served:
                split = int(served.bounds[1])
                served.batch_query(queries)  # healthy warm-up
                faults.delete_bundle(f"{sharded_path}.shard1")
                survivor_ref = _spec().build(points[:split]).batch_query(
                    queries
                )
                observed = served.batch_query(queries)
                _assert_parity(survivor_ref, observed, "degraded")
                assert all(r.stats.degraded for r in observed)
                assert served.last_health["failed_shards"], (
                    "degraded run reported no failed shards"
                )
                out["degraded_s"] = median_time(
                    lambda: served.batch_query(queries), QUERY_REPEATS
                )
        finally:
            os.environ.pop(faults.ENV_FAULT_DIR, None)
    return out


def bench_fault_recovery(benchmark):
    """Time healthy vs crash-recovery vs degraded pooled serving and the
    verify-mode load ladder; every recovered/degraded answer is asserted
    exact before any timing is reported."""
    timings = benchmark.pedantic(_run, rounds=1, iterations=1)
    recovery_x = timings["recovery_s"] / timings["healthy_s"]
    degraded_x = timings["degraded_s"] / timings["healthy_s"]
    eager_x = timings["load_eager_s"] / max(timings["load_off_s"], 1e-9)
    lines = [
        "Fault recovery: pooled serving under injected worker crashes, "
        f"shard loss, and integrity-checked loads (n={N_POINTS} points, "
        f"L={N_TABLES}, {SHARDS} shards, {WORKERS} workers, "
        f"{N_QUERIES} batched queries{', SMOKE' if SMOKE else ''})",
        fmt_row("path", "seconds", width=30),
        fmt_row("batch query, healthy", timings["healthy_s"], width=30),
        fmt_row("batch query, worker killed", timings["recovery_s"], width=30),
        fmt_row("batch query, degraded", timings["degraded_s"], width=30),
        fmt_row("load verify=off", timings["load_off_s"], width=30),
        fmt_row("load verify=lazy", timings["load_lazy_s"], width=30),
        fmt_row("load verify=eager", timings["load_eager_s"], width=30),
        "",
        f"crash recovery: x{recovery_x:.1f} the healthy latency "
        f"({timings['respawns']} respawn(s), "
        "results bit-identical every repeat)",
        f"degraded serving: x{degraded_x:.2f} the healthy latency "
        "(surviving shard exact, failure reported)",
        f"eager integrity re-checksum at load: x{eager_x:.1f} over "
        "verify=off",
    ]
    report(
        "fault_recovery",
        lines,
        metrics={
            "healthy_s": timings["healthy_s"],
            "recovery_s": timings["recovery_s"],
            "recovery_overhead_x": recovery_x,
            "degraded_s": timings["degraded_s"],
            "degraded_overhead_x": degraded_x,
            "respawns": timings["respawns"],
            "load_s": {
                mode: timings[f"load_{mode}_s"]
                for mode in ("off", "lazy", "eager")
            },
            "eager_load_cost_x": eager_x,
        },
        config={
            "n_points": N_POINTS,
            "n_queries": N_QUERIES,
            "n_tables": N_TABLES,
            "components": K,
            "shards": SHARDS,
            "workers": WORKERS,
            "recovery_repeats": RECOVERY_REPEATS,
            "smoke": SMOKE,
        },
    )
    # Parity and recovery accounting are asserted inside _run on every
    # repeat.  Timing bounds only at full size, where pool startup noise
    # no longer dominates the healthy baseline.
    if not SMOKE:
        assert recovery_x <= MAX_RECOVERY_OVERHEAD, (
            f"crash recovery cost x{recovery_x:.1f} the healthy latency "
            f"(bound x{MAX_RECOVERY_OVERHEAD}); retry/backoff storm?"
        )
        assert degraded_x <= MAX_DEGRADED_OVERHEAD, (
            f"degraded serving cost x{degraded_x:.2f} the healthy latency "
            f"(bound x{MAX_DEGRADED_OVERHEAD}); the surviving-shard merge "
            "should not cost more than the full merge"
        )
