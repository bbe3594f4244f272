"""Shared plumbing: run context, outcome record, closed-loop driver,
workload inputs, result digests, memory and environment probes."""

from __future__ import annotations

import bisect
import hashlib
import os
import pathlib
import platform
import re
import statistics
import subprocess
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Sequence

import numpy as np

from measure import percentile, tail_percentile
from tracing import Tracer

#: Calls a closed loop makes at least, whatever ``--seconds`` says, so its
#: p99 has ten samples beyond it.
MIN_CALLS = 1000
#: A closed loop times the calibration kernel after every this many calls.
SPEED_EVERY = 8
#: Seconds the calibration kernel takes on the reference host (this
#: repository's 2-core development VM at its faster speed).
REFERENCE_KERNEL_S = 0.9e-3
#: Kernel timings, nearest in time, whose median gives the local speed.
SPEED_WINDOW = 21

#: ``(start on the perf_counter clock, seconds)`` of one timed operation.
Timing = tuple[float, float]


class HostSpeed:
    """How fast the host runs a fixed kernel, over the course of a run.

    A shared host changes speed by up to ~1.4x for minutes at a time (a
    fixed NumPy + interpreter kernel took 31 to 52 ms across one minute
    on the development VM), far more than the regressions the benchmark
    has to catch.  Each run therefore times a fixed kernel, which mixes
    NumPy and interpreter work as the workloads do, between its measured
    operations, and reports time metrics at reference speed: each raw
    time is scaled by ``REFERENCE_KERNEL_S`` over the median of the
    kernel timings nearest to it.  The raw values stay in the run record.
    """

    def __init__(self) -> None:
        self._data = np.random.default_rng(20180101).random(20_000)
        self.samples: list[Timing] = []

    def sample(self, times: int = 1) -> None:
        """Time the kernel ``times`` times (about 1 ms each)."""
        for _ in range(times):
            start = time.perf_counter()
            for _ in range(3):
                np.sort(self._data)
                sum(range(5_000))
                [i * i for i in range(2_000)]
            self.samples.append((start, time.perf_counter() - start))

    def factor_at(self, when: float) -> float:
        """Multiply a time taken at ``when`` by this (divide a rate) to get
        its value at reference speed."""
        starts = [s for s, _ in self.samples]
        first = bisect.bisect_left(starts, when) - SPEED_WINDOW // 2
        first = max(0, min(first, len(starts) - SPEED_WINDOW))
        nearest = self.samples[first : first + SPEED_WINDOW]
        return REFERENCE_KERNEL_S / statistics.median(d for _, d in nearest)

    def scaled(self, timings: Sequence[Timing]) -> list[float]:
        """Each timing's seconds at reference speed."""
        return [d * self.factor_at(s) for s, d in timings]


@dataclass
class Context:
    """What a workload receives from the command line."""

    seed: int
    seconds: float
    trace: bool
    workdir: pathlib.Path
    tracer: Tracer = field(default_factory=Tracer)
    speed: HostSpeed = field(default_factory=HostSpeed)

    def rng(self, stream: int) -> np.random.Generator:
        """Independent generator ``stream`` of this run's seed."""
        return np.random.default_rng([self.seed, stream])

    def derived_seed(self, stream: int) -> int:
        """Integer seed (for index specs) derived from the workload seed."""
        return int(self.rng(stream).integers(0, 2**31 - 1))


@dataclass
class Outcome:
    """A workload's result: metrics by name as ``(value, unit)``, call
    accounting and the reasons for every failure."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    notes: dict[str, Any] = field(default_factory=dict)

    def fail(self, count: int, why: str) -> None:
        """Count ``count`` failed or wrong calls."""
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(why)

    def put(self, name: str, value: float, unit: str) -> None:
        """Record one metric."""
        self.metrics[name] = (float(value), unit)


def closed_loop(
    call: Callable[[int], object],
    seconds: float,
    on_result: Callable[[int, object], None],
    speed: HostSpeed,
    min_calls: int = MIN_CALLS,
) -> list[Timing]:
    """One client issuing call ``i + 1`` as soon as call ``i`` returns,
    for ``seconds`` and at least ``min_calls`` calls.  Returns each call's
    timing; ``on_result`` and the host-speed samples run between calls,
    outside the timed region."""
    latencies: list[Timing] = []
    stop = time.perf_counter() + seconds
    i = 0
    while i < min_calls or time.perf_counter() < stop:
        start = time.perf_counter()
        result = call(i)
        latencies.append((start, time.perf_counter() - start))
        on_result(i, result)
        if i % SPEED_EVERY == 0:
            speed.sample()
        i += 1
    return latencies


class DigestBook:
    """Remembers the first digest of each input key and counts later
    calls whose digest differs."""

    def __init__(self, digest: Callable[[Any], int], outcome: Outcome) -> None:
        self._digest = digest
        self._outcome = outcome
        self.seen: dict[Hashable, int] = {}
        self.observed = 0

    def observe(self, key: Hashable, result: Any) -> None:
        value = self._digest(result)
        self.observed += 1
        if self.seen.setdefault(key, value) != value:
            self._outcome.fail(1, f"input {key} answered differently on a repeat")

    def confirm(self, key: Hashable, result: Any) -> bool:
        """Whether a freshly checked result matches what the loop saw."""
        value = self._digest(result)
        return self.seen.get(key, value) == value


def put_closed_loop(
    out: Outcome, calls: Sequence[Timing], queries_per_call: int,
    setups: Sequence[Timing], speed: HostSpeed,
) -> None:
    """The end-to-end metrics of a closed loop with one client and no
    think time: throughput over the time spent in calls, per-call latency
    percentiles and the median set-up time, at reference host speed.  The
    raw values go to the run record."""
    latencies = speed.scaled(calls)
    raw = [d for _, d in calls]
    qps = len(calls) * queries_per_call / sum(latencies)
    out.put("setup_s", statistics.median(speed.scaled(setups)), "s")
    out.put("throughput_qps", qps, "q/s")
    # A closed loop runs at the highest rate it sustains.
    out.put("max_rate_qps", qps, "q/s")
    out.put("latency_p50_ms", percentile(latencies, 50) * 1e3, "ms")
    out.put("latency_p99_ms", tail_percentile(latencies, 99) * 1e3, "ms")
    out.notes["raw"] = {
        "setup_s": statistics.median(d for _, d in setups),
        "throughput_qps": len(calls) * queries_per_call / sum(raw),
        "latency_p50_ms": percentile(raw, 50) * 1e3,
        "latency_p99_ms": tail_percentile(raw, 99) * 1e3,
    }
    kernel = statistics.median(d for _, d in speed.samples)
    out.notes["host_speed_factor"] = REFERENCE_KERNEL_S / kernel
    out.notes["host_speed_samples"] = len(speed.samples)
    out.notes["latency_samples"] = len(calls)
    out.notes["setup_samples"] = len(setups)


# -- inputs -------------------------------------------------------------------


def clustered_hamming(
    prototypes: np.ndarray, n: int, rng: np.random.Generator, noise: float = 0.005
) -> np.ndarray:
    """Noisy copies of shared cluster prototypes: queries meet their
    cluster-mates in most tables, so retrievals are duplicate-heavy."""
    rows = prototypes[rng.integers(0, prototypes.shape[0], size=n)]
    flips = (rng.random(size=rows.shape) < noise).astype(rows.dtype)
    out: np.ndarray = rows ^ flips
    return out


# -- result digests -----------------------------------------------------------


def candidate_digest(results: Sequence[Any]) -> int:
    """CRC-32 over candidate ids and stats of a ``batch_query`` result
    list, to compare repeated calls without keeping their results."""
    crc = 0
    for r in results:
        s = r.stats
        crc = zlib.crc32(np.asarray(r.indices, dtype=np.int64).tobytes(), crc)
        crc = zlib.crc32(
            repr((s.retrieved, s.unique_candidates, s.tables_probed,
                  s.truncated, s.degraded)).encode(),
            crc,
        )
    return crc


def same_candidates(a: Sequence[Any], b: Sequence[Any]) -> bool:
    """Element-for-element equality of two candidate result lists."""
    return len(a) == len(b) and all(
        list(x.indices) == list(y.indices) and x.stats == y.stats
        for x, y in zip(a, b)
    )


# -- environment and memory ---------------------------------------------------


def _read_kib(path: str, key: str) -> int:
    try:
        text = pathlib.Path(path).read_text()
    except OSError:
        return 0
    match = re.search(rf"^{key}:\s+(\d+)\s+kB", text, re.MULTILINE)
    return int(match.group(1)) if match else 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus the private resident
    memory of every live child process (pool workers), in MiB.  A forked
    child maps its parent's pages; counting only its private pages keeps
    those from being counted twice (and from varying with what the parent
    happened to hold when it forked)."""
    total = _read_kib("/proc/self/status", "VmHWM")
    me = str(os.getpid())
    for status in pathlib.Path("/proc").glob("[0-9]*/status"):
        try:
            text = status.read_text()
        except OSError:
            continue
        if re.search(rf"^PPid:\s+{me}$", text, re.MULTILINE):
            rollup = str(status.with_name("smaps_rollup"))
            total += _read_kib(rollup, "Private_Clean")
            total += _read_kib(rollup, "Private_Dirty")
    return total / 1024.0


def _git_commit(root: pathlib.Path) -> str | None:
    """HEAD of the checkout, or ``None`` when the checkout is not itself a
    git work tree (an enclosing repository does not count)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if len(lines) != 2 or pathlib.Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def source_digest(root: pathlib.Path) -> str:
    """SHA-256 over the library sources (paths and bytes): identifies the
    code under test where no git metadata is available."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(root: pathlib.Path, ctx: Context, workload: str) -> dict[str, Any]:
    """Everything needed to compare this run with another."""
    return {
        "workload": workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": ctx.trace,
        "commit": _git_commit(root),
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }
