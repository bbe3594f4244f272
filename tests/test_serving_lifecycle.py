"""Generated lifecycle oracle for the async serving tier.

A Hypothesis ``RuleBasedStateMachine`` drives one ``serve_in_thread``
server through its whole life and holds it to a model of what each step
must do.  The server starts on one of three saved generations (a raw
index, an annulus index, a 2-shard raw bundle), all over the same
16-bit Hamming points so every query row fits every generation.  Its
rules:

* ``query``, ``batch_query`` and concurrently sent mixed-budget
  requests, including budgets sent to the annulus generation (rejected
  at admission) and bursts past ``max_pending`` (shed);
* ``swap`` to any generation, also while requests are in flight;
* damage (delete or truncate) and restore a bundle or shard file with
  ``tests/_bundle_damage.py``, and ``check_health`` (drawn: after
  putting the live generation's files back);
* send requests with the live handle armed to fail its next batch with
  an ``OSError``, an ``IndexIntegrityError`` or an unexpected error;
* every run ends in ``close`` (drawn: with a swap still in flight) and a
  second, idempotent ``close``.

Its invariants:

* every answer equals the reference, computed from ``test_oracle``'s
  dict walk, of the generation its ``ServeStats.snapshot`` names, and
  requests that rode one batch name one generation;
* a generation that failed a batch with an infrastructure error, or
  whose files ``check_health`` found damaged, fails fast (the handle is
  booby-trapped and never called) until ``check_health`` finds its
  files intact or ``swap`` replaces it;
* the ``metrics()`` counters never decrease, each step moves them by
  exactly the admissions, answers, failures and sheds it saw, and once
  the server is idle ``admitted == served + failed``;
* after close no live generation is left, and the thread set and the
  open file descriptors are back to where they were before the start.
"""

import asyncio
import dataclasses
import gc
import os
import shutil
import tempfile
import threading
import time
from collections import Counter
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from _bundle_damage import delete_bundle, truncate_bundle
from _load_spy import fail_once
from repro.api import IndexSpec, save_index
from repro.index.persistence import IndexIntegrityError
from repro.serving import (
    AsyncIndexServer,
    ServedResult,
    ServerOverloadedError,
    ServingOptions,
    serve_in_thread,
)
from repro.spaces import hamming
from test_oracle import _annulus, _assert_annulus, _scan, _walk

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"),
    reason="needs /proc/self/fd to count open descriptors",
)

D = 16
RAW = IndexSpec(
    kind="raw", family="bit_sampling", family_params={"d": D, "power": 3},
    n_tables=4, seed=3,
)
# Three generations over one point set: raw, annulus, a 2-shard raw bundle.
SPECS = {
    "raw": RAW,
    "annulus": IndexSpec(
        kind="annulus", family="bit_sampling",
        family_params={"d": D, "power": 2}, n_tables=4, seed=4,
        options={"interval": (0.5, 2.5), "proximity": "hamming_distance",
                 "budget_factor": 2.0},
    ),
    "sharded": dataclasses.replace(RAW, seed=5, shards=2),
}
NAMES = list(SPECS)
BUDGETS = [None, 0, 1, 5, 10**9]
# (bundle, shard file of a sharded one, truncate rather than delete);
# "live" names whichever generation is serving.
DAMAGE = [
    (name, shard, truncate)
    for name in ["live", *NAMES]
    for shard in ((0, 1) if name in ("live", "sharded") else (0,))
    for truncate in (False, True)
]
ERRORS = {
    "os": lambda: OSError("bundle unreadable"),
    "integrity": lambda: IndexIntegrityError("bundle damaged",
                                             kind="checksum"),
    "internal": lambda: KeyError("lost bucket"),
}
#: The errors that mark a generation unhealthy.
INFRA = (IndexIntegrityError, OSError)
COUNTERS = ["admitted", "served", "shed", "failed", "batches", "swaps",
            "max_batch_size"]
#: Bound on any wait for an answer, so a wedged server fails the test.
TIMEOUT_S = 30.0
#: Up to six ``(query row, budget)`` requests, sent concurrently.
REQUESTS = st.lists(st.tuples(st.integers(0, 7), st.sampled_from(BUDGETS)),
                    min_size=1, max_size=6)


def _open_fds():
    """What every open descriptor points at, as a multiset."""
    targets = Counter()
    for fd in os.listdir("/proc/self/fd"):
        try:
            targets[os.readlink(f"/proc/self/fd/{fd}")] += 1
        except OSError:
            pass  # the listing's own descriptor, already closed
    return targets


class World:
    """Pristine saved generations and every reference answer, built once."""

    def __init__(self, root):
        rng = np.random.default_rng(8)
        prototypes = hamming.random_points(3, D, rng=rng)
        points = prototypes[rng.integers(0, 3, size=40)]
        points = points ^ (rng.random(points.shape) < 0.05).astype(np.int8)
        self.queries = np.concatenate(
            [points[:4], hamming.random_points(4, D, rng=rng)]
        )
        self.root = root
        self.pristine = root / "pristine"
        self.pristine.mkdir()
        self.kinds, self.expected = {}, {}
        for name, spec in SPECS.items():
            save_index(spec.build(points), self.pristine / name)
            oracle = dataclasses.replace(spec, backend="dict", shards=1)
            oracle = oracle.build(points)
            walk = _walk(oracle, self.queries)
            self.kinds[name] = spec.kind
            if spec.kind == "raw":
                self.expected[name] = {
                    budget: [_scan(row, budget) for row in walk]
                    for budget in BUDGETS
                }
            else:
                self.expected[name] = [
                    _annulus(oracle, q, row)
                    for q, row in zip(self.queries, walk)
                ]

    def assert_answer(self, name, row, budget, result):
        if self.kinds[name] == "raw":
            assert result == self.expected[name][budget][row]
        else:
            assert budget is None
            _assert_annulus(result, *self.expected[name][row])


class ServingLifecycle(RuleBasedStateMachine):
    def __init__(self, world):
        super().__init__()
        self.world = world
        self.root = tempfile.mkdtemp(dir=world.root)
        for name in os.listdir(world.pristine):
            shutil.copy2(world.pristine / name, self.root)
        gc.collect()
        self.threads = set(threading.enumerate())
        self.fds = _open_fds()
        self.handle = None

    def _path(self, name):
        return os.path.join(self.root, name)

    # -- start -------------------------------------------------------------

    @initialize(
        name=st.sampled_from(NAMES),
        replicas=st.integers(1, 2),
        max_batch=st.sampled_from([1, 3, 64]),
        max_pending=st.sampled_from([2, 64]),
        mmap=st.booleans(),
        race=st.one_of(st.none(), st.sampled_from(NAMES)),
    )
    def start(self, name, replicas, max_batch, max_pending, mmap, race):
        self.mmap, self.max_batch = mmap, max_batch
        self.max_pending = max_pending
        self.race = race                 # swap still in flight at close
        self.handle = serve_in_thread(
            self._path(name), replicas=replicas, max_batch=max_batch,
            max_wait_us=2_000, max_pending=max_pending,
            options=ServingOptions(mmap=mmap, verify="lazy"),
        )
        self.names = {0: name}           # generation -> saved bundle
        self.generation, self.swaps = 0, 0
        self.healthy = True
        self.armed = None                # (error, handle) within a step
        self.damaged = {}                # damaged file -> truncated?
        self.last = self.handle.metrics()

    @property
    def live(self):
        return self.names[self.generation]

    def _index(self):
        return self.handle._server._snapshot.index

    def _intact(self, name):
        return not any(f.split(".")[0] == name for f in self.damaged)

    # -- the outcome model -------------------------------------------------

    def _send(self, sent, swap_to=None):
        """Send every ``(row, budget)`` concurrently, optionally swapping
        to ``swap_to`` behind them, and return the outcomes in order plus
        the swap's."""
        server = self.handle._server
        futures = [
            self.handle._submit(server.query(self.world.queries[row], budget))
            for row, budget in sent
        ]
        swap = None
        if swap_to is not None:
            swap = self.handle._submit(server.swap(self._path(swap_to)))
        outcomes = [_outcome(f) for f in futures]
        return outcomes, None if swap is None else _outcome(swap)

    def _trapped(self, call):
        """Run ``call`` with the live handle booby-trapped when the model
        says its generation fails fast: a fast failure must not touch it."""
        if self.healthy:
            return call()
        index = self._index()
        saved = vars(index).get("batch_query")
        index.batch_query = None
        try:
            return call()
        finally:
            if saved is None:
                del index.batch_query
            else:
                index.batch_query = saved
            del index  # a failing step's traceback must not pin the handle

    def _check(self, sent, outcomes, swapped=False):
        """Hold each outcome to the model and return the counter moves the
        step must show."""
        g, moves = self.generation, Counter()
        armed = self.armed[0] if self.armed else None
        for (row, budget), outcome in zip(sent, outcomes):
            if budget is not None and self.world.kinds[self.live] != "raw":
                # Rejected at admission: never admitted, fails no batch.
                assert isinstance(outcome, TypeError), outcome
                assert f"kind={self.world.kinds[self.live]!r}" in str(outcome)
                continue
            if isinstance(outcome, ServerOverloadedError):
                assert "overloaded" in str(outcome)
                assert outcome.pending == outcome.max_pending
                assert outcome.max_pending == self.max_pending
                moves["shed"] += 1
                continue
            moves["admitted"] += 1
            if isinstance(outcome, ServedResult):
                moves["served"] += 1
                serve = outcome.serve
                assert serve.snapshot in ((g, g + 1) if swapped else (g,))
                if serve.snapshot == g:
                    assert self.healthy, "an unhealthy generation answered"
                self.world.assert_answer(
                    self.names[serve.snapshot], row, budget, outcome.result
                )
                assert outcome.stats == outcome.result.stats
                assert 1 <= serve.group_size <= serve.batch_size
                assert serve.batch_size <= self.max_batch
                assert min(serve.queue_wait_s, serve.coalesce_wait_s,
                           serve.execute_s) >= 0.0
                continue
            moves["failed"] += 1
            if armed is not None and outcome is armed:
                continue               # the armed failure itself
            message = str(outcome)
            if isinstance(outcome, RuntimeError) and (
                f"generation {g} is unhealthy" in message
            ):
                assert not self.healthy or isinstance(armed, INFRA)
            elif isinstance(outcome, RuntimeError) and (
                "internal serving failure" in message
            ):
                assert isinstance(armed, KeyError)
                assert outcome.__cause__ is armed
            else:
                # A budget admitted on a raw generation fails its group
                # when a swap put a non-raw one in its place.
                assert swapped and budget is not None, repr(outcome)
                assert isinstance(outcome, TypeError)
                assert self.world.kinds[self.names[g + 1]] != "raw"
        # Requests that rode one batch name one generation.
        by_batch = {}
        for outcome in outcomes:
            if isinstance(outcome, ServedResult):
                by_batch.setdefault(outcome.serve.batch_id, set()).add(
                    outcome.serve.snapshot
                )
        assert all(len(gens) == 1 for gens in by_batch.values()), by_batch
        if self.armed and "batch_query" not in vars(self.armed[1]):
            # The armed failure fired; an infrastructure error marks the
            # generation unhealthy.
            if isinstance(armed, INFRA):
                self.healthy = False
            self.armed = None
        return moves

    def _settle(self, moves=None):
        """Wait for idle, then hold every counter move to ``moves`` (when
        the step has every outcome in hand)."""
        deadline = time.monotonic() + TIMEOUT_S
        while self.handle.metrics()["pending"]:
            assert time.monotonic() < deadline, "server never went idle"
            time.sleep(0.001)
        if moves is None:
            return
        now = self.handle.metrics()
        for key in ("admitted", "served", "failed", "shed"):
            assert now[key] - self.last[key] == moves[key], (key, moves)

    def _swap_done(self, name, outcome):
        """Hold a swap's outcome to the model and apply it: an intact
        bundle becomes the next generation, a damaged one fails to load
        and the old generation serves on."""
        if not self._intact(name):
            assert isinstance(outcome, INFRA), outcome
            return
        assert outcome == {"generation": self.generation + 1,
                           "path": self._path(name)}, outcome
        self.generation += 1
        self.swaps += 1
        self.names[self.generation] = name
        self.healthy = True

    # -- serving rules -----------------------------------------------------

    @rule(row=st.integers(0, 7), budget=st.sampled_from(BUDGETS))
    def query(self, row, budget):
        q = self.world.queries[row]
        outcome = self._trapped(lambda: _call(self.handle.query, q, budget))
        self._settle(self._check([(row, budget)], [outcome]))

    @rule(rows=st.lists(st.integers(0, 7), min_size=1, max_size=6),
          budget=st.sampled_from(BUDGETS))
    def batch_query(self, rows, budget):
        block = self.world.queries[rows]
        outcome = self._trapped(
            lambda: _call(self.handle.batch_query, block, budget)
        )
        sent = [(row, budget) for row in rows]
        if isinstance(outcome, list):
            self._settle(self._check(sent, outcome))
            return
        # A row raised, so the others are not in hand.  Still, the call
        # returns only once every row is done: each was admitted or shed,
        # unless the live generation rejected the budget outright.  Hold
        # the one outcome to the model and the totals to the invariant.
        now = self.handle.metrics()
        rejected = budget is not None and self.world.kinds[self.live] != "raw"
        took = sum(now[key] - self.last[key] for key in ("admitted", "shed"))
        assert took == (0 if rejected else len(rows)), took
        self._settle()
        self._check(sent[:1], [outcome])

    @rule(sent=REQUESTS)
    def mixed_budgets(self, sent):
        outcomes, _ = self._trapped(lambda: self._send(sent))
        self._settle(self._check(sent, outcomes))

    # -- swap, damage, health ----------------------------------------------

    @rule(name=st.sampled_from(NAMES))
    def swap(self, name):
        self._swap_done(name, _call(self.handle.swap, self._path(name)))

    @rule(sent=REQUESTS, name=st.sampled_from(NAMES))
    def swap_under_load(self, sent, name):
        outcomes, info = self._trapped(lambda: self._send(sent, name))
        swapped = self._intact(name)
        if swapped:
            self.names[self.generation + 1] = name
        self._settle(self._check(sent, outcomes, swapped))
        self._swap_done(name, info)

    @rule(damage=st.sampled_from(DAMAGE))
    def damage(self, damage):
        name, shard, truncate = damage
        name = self.live if name == "live" else name
        file = f"{name}.shard{shard}" if name == "sharded" else name
        if file in self.damaged:
            return
        # A mapped file cut short would fault the live handle's next read
        # (SIGBUS), so a live mmap'd generation only loses files.
        truncate = truncate and not (self.mmap and name == self.live)
        if truncate:
            truncate_bundle(self._path(file))
        else:
            delete_bundle(self._path(file))
        self.damaged[file] = truncate

    @rule(name=st.sampled_from(NAMES))
    def restore(self, name):
        for file in [f for f in self.damaged if f.split(".")[0] == name]:
            shutil.copy2(self.world.pristine / f"{file}.npz", self.root)
            del self.damaged[file]

    @rule(repair=st.booleans())
    def check_health(self, repair):
        """Probe the live generation's files; with ``repair`` an operator
        first puts them back, so the probe must restore service."""
        if repair:
            self.restore(self.live)
        index = self._index()
        report = _call(self.handle.check_health)
        assert self._index() is index, "check_health reloaded the handle"
        assert set(report) == {"generation", "path", "ok", "detail"}, report
        assert report["generation"] == self.generation
        assert report["path"] == self._path(self.live)
        assert report["ok"] is self._intact(self.live)
        detail = report["detail"]
        if self.live == "sharded":
            assert [shard["ok"] for shard in detail["shards"]] == [
                f"sharded.shard{k}" not in self.damaged for k in (0, 1)
            ]
        elif self.live in self.damaged:
            error = ("IndexIntegrityError" if self.damaged[self.live]
                     else "FileNotFoundError")
            assert detail["error"].startswith(error), detail
        else:
            assert "error" not in detail, detail
        self.healthy = report["ok"]

    @precondition(lambda self: self.healthy)
    @rule(error=st.sampled_from(list(ERRORS)), sent=REQUESTS)
    def fail_a_batch(self, error, sent):
        """Send requests with the live handle armed to fail its next batch
        with ``error``; disarm it if none of them reached it."""
        index = self._index()
        self.armed = (ERRORS[error](), index)
        fail_once(index, self.armed[0])
        self.mixed_budgets(sent)
        if self.armed is not None:
            del index.batch_query
            self.armed = None

    # -- close -------------------------------------------------------------

    def _close(self):
        """Close (with a swap to ``self.race`` still in flight) and close
        again, then check that nothing is left: no generation, thread or
        descriptor."""
        race = self.race
        if race is not None:
            server = self.handle._server
            swap = self.handle._submit(server.swap(self._path(race)))
        assert _call(self.handle.close) is None
        if race is not None:
            self._swap_done(race, _outcome(swap))
            # A failed swap's traceback holds the old generation's frame.
            del swap
        metrics = self.handle.metrics()
        assert metrics["generation"] is None
        assert metrics["pending"] == 0
        assert self.handle._server._snapshot is None
        assert _call(self.handle.close) is None
        assert self.handle.metrics() == metrics
        self.armed = None              # drop the machine's own handle ref
        gc.collect()
        assert set(threading.enumerate()) - self.threads == set()
        assert _open_fds() - self.fds == Counter()

    # -- invariants ----------------------------------------------------------

    @invariant()
    def counters_never_decrease_and_add_up(self):
        if self.handle is None:
            return
        metrics = self.handle.metrics()
        for key in COUNTERS:
            assert metrics[key] >= self.last[key], key
        assert metrics["pending"] == 0
        assert metrics["admitted"] == metrics["served"] + metrics["failed"]
        assert metrics["swaps"] == self.swaps
        assert metrics["generation"] == self.generation
        assert self.handle._server._snapshot.healthy is self.healthy
        self.last = metrics

    def teardown(self):
        try:
            if self.handle is not None:
                self._close()
        finally:
            shutil.rmtree(self.root, ignore_errors=True)


def _call(method, *args):
    """A blocking handle call's result, or the exception it raised; a call
    still blocked after ``TIMEOUT_S`` fails the test instead of hanging
    the suite."""
    box = []

    def run():
        try:
            box.append(method(*args))
        except Exception as exc:
            box.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(TIMEOUT_S)
    assert not thread.is_alive(), f"{method.__name__} never returned"
    return box[0]


def _outcome(future):
    """A submitted coroutine's result, or the exception it raised."""
    try:
        return future.result(TIMEOUT_S)
    except Exception as exc:
        return exc


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    return World(tmp_path_factory.mktemp("lifecycle"))


def test_serving_lifecycle(world):
    run_state_machine_as_test(
        lambda: ServingLifecycle(world),
        settings=settings(
            max_examples=40,
            stateful_step_count=16,
            deadline=timedelta(seconds=30),
        ),
    )


#: Runs replayed step by step beside the drawn ones, each through one
#: transition the drawn runs reach only now and then.
START = dict(replicas=2, max_batch=64, max_pending=64, mmap=True, race=None)
PINNED = {
    "failure_fails_fast_until_check_health": [
        ("start", dict(START, name="sharded")),
        ("fail_a_batch", dict(error="os", sent=[(0, None)])),
        ("query", dict(row=1, budget=None)),
        ("check_health", dict(repair=False)),
        ("query", dict(row=2, budget=None)),
    ],
    "damage_fails_fast_until_restored": [
        ("start", dict(START, name="raw", mmap=False)),
        ("damage", dict(damage=("live", 0, True))),
        ("check_health", dict(repair=False)),
        ("query", dict(row=0, budget=None)),
        ("check_health", dict(repair=True)),
        ("query", dict(row=0, budget=5)),
    ],
    "swap_replaces_a_failed_generation": [
        ("start", dict(START, name="annulus", race="raw")),
        ("fail_a_batch", dict(error="integrity", sent=[(0, None)])),
        ("swap", dict(name="sharded")),
        ("mixed_budgets", dict(sent=[(3, 5), (4, None), (5, 0)])),
    ],
}


@pytest.mark.parametrize("steps", PINNED.values(), ids=list(PINNED))
def test_pinned_lifecycle_runs(world, steps):
    machine = ServingLifecycle(world)
    try:
        for step, kwargs in steps:
            getattr(machine, step)(**kwargs)
            machine.counters_never_decrease_and_add_up()
    finally:
        machine.teardown()


def test_close_waits_out_an_in_flight_swap(world, tmp_path):
    """A swap still loading when close() runs completes first, and close
    releases the generation it installed: no live generation and no
    descriptor on the new bundle are left."""
    for name in os.listdir(world.pristine):
        shutil.copy2(world.pristine / name, tmp_path)

    async def scenario():
        gc.collect()
        fds = _open_fds()
        server = await AsyncIndexServer(str(tmp_path / "raw")).start()
        swap = asyncio.ensure_future(server.swap(str(tmp_path / "sharded")))
        await asyncio.sleep(0)
        await server.close()
        info = await swap
        gc.collect()
        return info, server, _open_fds() - fds

    info, server, leaked = asyncio.run(scenario())
    assert info["generation"] == 1
    assert server._snapshot is None
    assert server.metrics()["generation"] is None
    assert leaked == Counter()
