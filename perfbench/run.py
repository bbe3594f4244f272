"""The repository benchmark: one workload per run, end-to-end metrics or,
with ``--trace 1``, per-layer metrics from a traced replay.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-dense --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``batch-dense``    closed loop of 64-query ``DSHIndex.batch_query`` blocks
* ``annulus-sphere`` closed loop of 64-query ``AnnulusIndex.batch_query`` blocks
* ``serve-open``     open-loop Poisson requests to an ``AsyncIndexServer``
                     over a fixed rate ladder, with a hot swap per step
* ``sharded-pool``   closed loop of budgeted blocks through a 4-shard
                     ``ShardedIndex`` served by a 2-process pool

Every input is generated from ``--seed``.  Outputs are checked in-run and
every wrong, failed or shed answer is counted in ``failed``.  Time metrics
are reported at reference host speed: the run times a fixed kernel between
its measured operations and scales each time by how fast the host ran it
then (``common.HostSpeed``); raw times are kept in the run record.  A table
of metrics with units goes to standard output, followed by one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

A JSON record of the run (environment, metrics, failures) is written to
``perfbench/runs/`` (or ``--out``); traced runs also write their spans
there.  ``perfbench/compare.py`` compares two directories of records.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys
import tempfile
from typing import Any, Callable

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
EXIT_SETUP = 2
EXIT_CONTRACT = 3


def _workloads() -> dict[str, Callable[[Any], Any]]:
    import wl_batch
    import wl_serve
    import wl_sharded

    return {
        "batch-dense": wl_batch.run_dense,
        "annulus-sphere": wl_batch.run_annulus,
        "serve-open": wl_serve.run,
        "sharded-pool": wl_sharded.run,
    }


def _catalogue() -> dict[str, Any]:
    return dict(json.loads((ROOT / "BENCHMARK.json").read_text()))


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path, default=HERE / "runs",
                        help="directory for the run record (default: %(default)s)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        catalogue = _catalogue()
        workloads = _workloads()
        import common
    except (ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot set up: {exc!r}", file=sys.stderr)
        return EXIT_SETUP
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads)}", file=sys.stderr)
        return EXIT_SETUP

    # Everything the run writes (saved indexes, the pool's journal) stays
    # inside the checkout and is removed at the end.
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=_scratch_root()))
    tempfile.tempdir = str(workdir)
    ctx = common.Context(args.seed, args.seconds, bool(args.trace), workdir)
    try:
        outcome = workloads[args.workload](ctx)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in catalogue[kind]}
    metrics: dict[str, dict[str, float | str]] = {}
    idle: list[str] = []
    for name, unit in declared.items():
        if name in outcome.metrics:
            value, got_unit = outcome.metrics[name]
            if got_unit != unit:
                print(f"perfbench: {name} measured in {got_unit}, declared "
                      f"{unit}", file=sys.stderr)
                return EXIT_CONTRACT
        elif args.trace:
            value = 0.0  # a layer this workload does not exercise
            idle.append(name)
        else:
            print(f"perfbench: {args.workload} did not measure {name}",
                  file=sys.stderr)
            return EXIT_CONTRACT
        metrics[name] = {"value": value, "unit": unit}

    record = {
        "environment": common.environment(ROOT, ctx, args.workload),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "fail_ratio": outcome.failed / max(outcome.attempted, 1),
        "failures": outcome.failures,
        "notes": outcome.notes,
        "metrics": metrics,
        "not_exercised": idle,
    }
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        ctx.tracer.write(args.out / f"{stem}.spans.json")

    _print_table(args.workload, record, outcome.metrics)
    result = {
        "correct": outcome.failed == 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, allow_nan=False), flush=True)
    return 0


def _scratch_root() -> pathlib.Path:
    path = ROOT / ".perfbench_work"
    path.mkdir(exist_ok=True)
    return path


def _print_table(
    workload: str, record: dict[str, Any], measured: dict[str, tuple[float, str]]
) -> None:
    env = record["environment"]
    print(f"perfbench {workload}: seed {env['seed']}, {env['seconds']:g} s, "
          f"trace {int(env['trace'])}, commit {env['commit'] or 'unknown'} "
          f"(src {env['source_sha256']}), nproc {env['nproc']}, "
          f"Python {env['python']}, NumPy {env['numpy']}")
    for name, (value, unit) in sorted(measured.items()):
        print(f"  {name:<38} {value:>14.6g} {unit}")
    print(f"  {'fail_ratio':<38} {record['fail_ratio']:>14.6g} ratio "
          f"({record['failed']} of {record['attempted']})")
    for key, value in sorted(record["notes"].items()):
        print(f"  note {key}: {value}")
    for why in record["failures"]:
        print(f"  FAILED: {why}")


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
