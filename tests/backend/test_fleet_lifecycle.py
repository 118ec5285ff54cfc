"""A worker fleet per session, not per ``run()``.

What a session promises about the processes it starts: one fleet per
processor count however many stages and engines run on it, bindings
that leave nothing behind, ``close()`` as the only thing that stops
the workers — and what a long-lived fleet must not do: grow without
bound, survive a host's SIGTERM handler, or carry anything from one
binding into the next.
"""

import multiprocessing
import os
import signal
import sys
import time

import numpy as np
import pytest

import repro
from repro.backend import BackendError
from repro.core.distribution import dist_type
from repro.faults import (
    FaultPlan,
    ShmAllocFailure,
    WorkerCrash,
    deactivate,
    injected,
)
from repro.obs import flight_recorder
from repro.obs import metrics as obs_metrics

STARTS = "repro_backend_fleet_starts_total"
ROWS, COLS = dist_type("BLOCK", ":"), dist_type(":", "BLOCK")


@pytest.fixture(autouse=True)
def _clean():
    deactivate()
    was_on = obs_metrics.set_enabled(True)
    yield
    obs_metrics.set_enabled(was_on)
    deactivate()
    assert _workers() == [], "a test leaked worker processes"
    assert _shm_leftovers() == [], "a test leaked shared segments"


def _workers() -> list:
    return [p for p in multiprocessing.active_children()
            if p.name.startswith("vfe-worker-")]


def _shm_leftovers() -> list[str]:
    try:
        return [f for f in os.listdir("/dev/shm") if f.startswith("vfe-")]
    except FileNotFoundError:  # non-Linux: rely on close() not raising
        return []


def _first_use_starts() -> float:
    return obs_metrics.counter(STARTS, labelnames=("cause",)).value(
        cause="first_use")


def _session(nprocs=2, **kwargs):
    return repro.session(nprocs=nprocs, backend="multiprocess", **kwargs)


def _explode(rank, local, idx):
    raise RuntimeError(f"_explode on rank {rank}")


def _add_one(rank, local, idx):
    local += 1.0


def _op_remembered(ctx):
    return len(ctx._maps), len(ctx.transports)


def _op_count_registrations(ctx, meta):
    """How often three ops' worth of ``ctx.attach`` reach the tracker."""
    from multiprocessing import resource_tracker

    calls, real = [], resource_tracker.register
    resource_tracker.register = lambda *args: calls.append(args)
    try:
        for _ in range(3):
            ctx.attach(meta)
    finally:
        resource_tracker.register = real
    return len(calls)


def test_one_fleet_serves_every_stage_and_engine():
    """Ten ``run()``s of two workloads around one engine: one
    ``first_use`` start, the same ``nprocs`` pids throughout, engine
    arrays bit for bit what they were, stage results readable after
    their segments are gone."""
    with repro.session(nprocs=2, seed=3) as serial:
        want = {name: serial.workload(name, size=16).run()
                for name in ("adi", "smoothing")}
    before = _first_use_starts()
    with _session(seed=3) as sess:
        assert sess.live_fleets == 0  # nothing forks until a stage runs
        handles = [sess.workload(name, size=16) for name in want]
        first = handles[0].run()
        pids = {p.pid for p in _workers()}
        assert len(pids) == 2 and sess.live_fleets == 1
        vfe = sess.engine()
        original = np.random.default_rng(0).standard_normal((24, 10))
        v = vfe.declare("V", (24, 10), dist=COLS, dynamic=True)
        v.from_global(original)
        engine_blocks = set(_shm_leftovers())
        for i in range(5):
            for handle in handles:
                run = handle.run()
                ref = want[handle.name]
                assert run.backend == "multiprocess"
                assert run.solution.tobytes() == ref.solution.tobytes()
                assert run.clocks == ref.clocks
                # the stage's own segments are unlinked on release
                assert set(_shm_leftovers()) == engine_blocks
            vfe.distribute("V", ROWS if i % 2 == 0 else COLS)
            engine_blocks = set(_shm_leftovers())
            assert np.array_equal(v.to_global(), original)
            assert {p.pid for p in _workers()} == pids
        assert first.solution.tobytes() == want["adi"].solution.tobytes()
        assert first.clocks == want["adi"].clocks
        assert _first_use_starts() - before == 1
        notes = flight_recorder.notes("backend.fleet_start")
        assert notes[-1]["nprocs"] == 2 and notes[-1]["start_ms"] > 0
    assert np.array_equal(v.to_global(), original)  # materialized on close


def test_no_fork_and_one_tracker_registration_per_block():
    """Warm runs fork nothing, and a worker registers a block with the
    resource tracker when it first maps it — not once per op."""
    import cProfile
    import pstats

    with _session() as sess:
        handle = sess.workload("adi", size=16, iterations=2)
        handle.run()
        profile = cProfile.Profile()
        profile.enable()
        for _ in range(3):
            handle.run()
        profile.disable()
        forks = [
            stat for func, stat in pstats.Stats(profile).stats.items()
            if func[2] in ("fork", "<built-in method posix.fork>")
        ]
        assert forks == []
        vfe = sess.engine()
        v = vfe.declare("V", (8, 8), dist=COLS)
        v.from_global(np.zeros((8, 8)))
        backend = vfe.machine.backend
        metas = [dict(meta=backend.allocator.meta(rank, v._block_name()))
                 for rank in range(2)]
        assert backend.run_op(_op_count_registrations, metas, ()) == [1, 1]
        for _ in range(5):
            vfe.foreach_owned("V", _add_one)
        mapped = backend.run_op(_op_remembered, [{}] * 2, ())
        # one live block per rank, mapped once (the stage blocks of the
        # runs above were forgotten when the master freed them)
        assert [m for m, _bindings in mapped] == [1, 1]
        assert np.array_equal(v.to_global(), np.full((8, 8), 5.0))


@pytest.mark.parametrize("scenario", ["clean", "kernel_error", "degraded"])
def test_close_leaves_nothing_behind(scenario):
    sess = _session(nprocs=2, seed=1)
    if scenario == "clean":
        assert sess.workload("adi", size=12).run().backend == "multiprocess"
    elif scenario == "kernel_error":
        machine = sess.machine()
        with pytest.raises(BackendError, match="_explode"):
            with sess.attach(machine):
                vfe = repro.Engine(machine)
                vfe.declare("V", (8,), dist=dist_type("BLOCK"))
                vfe.foreach_owned("V", _explode)
        assert not sess.poisoned
        # the fleet survived the failed op and serves the next stage
        pids = {p.pid for p in _workers()}
        assert sess.workload("adi", size=12).run().backend == "multiprocess"
        assert {p.pid for p in _workers()} == pids
    else:
        with injected(FaultPlan([ShmAllocFailure(at_alloc=1)])):
            assert sess.workload("adi", size=12).run().backend == "serial"
        assert sess.poisoned
    assert _shm_leftovers() == []  # stage segments go with the stage
    assert len(_workers()) == 2  # ... the workers with the session
    sess.close()
    sess.close()  # idempotent
    assert _workers() == [] and _shm_leftovers() == []


def test_unrecoverable_fleet_is_replaced_for_the_next_stage():
    before = _first_use_starts()
    with repro.session(nprocs=2, seed=2) as serial:
        ref = serial.workload("adi", size=12).run()
    with _session(seed=2) as sess:
        handle = sess.workload("adi", size=12)
        # the kernel (op 2) and both of its replays (ops 4, 6) crash
        crashes = [WorkerCrash(rank=0, at_op=k) for k in (2, 4, 6)]
        with injected(FaultPlan(crashes)):
            degraded = handle.run()
        assert degraded.backend == "serial" and sess.poisoned
        assert degraded.solution.tobytes() == ref.solution.tobytes()
        assert _workers() == [] and sess.live_fleets == 0
        again = handle.run()
        assert again.backend == "multiprocess"
        assert again.solution.tobytes() == ref.solution.tobytes()
        assert len(_workers()) == 2
        assert _first_use_starts() - before == 2


def test_unpicklable_kernel_runs_in_the_master_mid_binding():
    with _session() as sess:
        vfe = sess.engine()
        v = vfe.declare("V", (8,), dist=dist_type("BLOCK"))
        v.from_global(np.zeros(8))
        seen = []

        def closure(rank, local, idx):  # not picklable by reference
            seen.append(rank)
            local += 10.0

        vfe.foreach_owned("V", _add_one)  # workers
        vfe.foreach_owned("V", closure)  # master, on the shared blocks
        vfe.foreach_owned("V", _add_one)  # workers again
        assert seen == [0, 1]
        assert np.array_equal(v.to_global(), np.full(8, 12.0))


def test_threads_share_one_fleet_one_op_at_a_time():
    """Three threads on one session — two running stages, one flipping
    an engine array — interleave their ops on the same two workers
    (the fleet lock, not luck): every result is the serial one."""
    import threading

    with repro.session(nprocs=2, seed=5) as serial:
        want = {name: serial.workload(name, size=16).run().solution.tobytes()
                for name in ("adi", "smoothing")}
    original = np.random.default_rng(5).standard_normal((16, 16))
    failures: list = []

    def stages(name):
        try:
            handle = sess.workload(name, size=16)
            for _ in range(6):
                run = handle.run()
                assert run.backend == "multiprocess"
                assert run.solution.tobytes() == want[name]
        except BaseException as exc:  # surfaced below, in the test thread
            failures.append(exc)

    def flips():
        try:
            for i in range(12):
                vfe.distribute("V", ROWS if i % 2 == 0 else COLS)
                assert np.array_equal(v.to_global(), original)
        except BaseException as exc:
            failures.append(exc)

    before = _first_use_starts()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with _session(seed=5) as sess:
            vfe = sess.engine()
            v = vfe.declare("V", (16, 16), dist=COLS, dynamic=True)
            v.from_global(original)
            threads = [threading.Thread(target=stages, args=("adi",)),
                       threading.Thread(target=stages, args=("smoothing",)),
                       threading.Thread(target=flips)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert failures == []
            assert len(_workers()) == 2
    finally:
        sys.setswitchinterval(interval)
    assert _first_use_starts() - before == 1


def test_recovery_is_fast_under_a_sigterm_handler_that_raises():
    """Forked workers inherit the host's SIGTERM handler; one that
    raises used to be swallowed by the command loop, so tearing a
    broken fleet down waited out a 5 s join per survivor."""
    with repro.session(nprocs=2, seed=4) as serial:
        ref = serial.workload("adi", size=16).run()
    previous = signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        with injected(FaultPlan([WorkerCrash(rank=1, at_op=3)])):
            with _session(seed=4) as sess:
                handle = sess.workload("adi", size=16)
                handle.run()  # pays the fleet start (and crashes too)
                t0 = time.perf_counter()
                crashed = handle.run()
                elapsed = time.perf_counter() - t0
                t0 = time.perf_counter()
            assert time.perf_counter() - t0 < 2.0  # close() does not wait
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert crashed.backend == "multiprocess"
    assert crashed.solution.tobytes() == ref.solution.tobytes()
    assert elapsed < 2.0


def test_plan_memos_stay_bounded_on_never_seen_shapes():
    """``distribute_cold`` on a session that lives: every shape is a new
    layout pair, so an unbounded memo would keep one plan per distribute
    forever.  The master's is the session's bounded ``PlanCache``; a
    worker keeps none — its share of the plan rides in every command."""
    ring = (ROWS, dist_type("CYCLIC", ":"), COLS)
    with _session() as sess:
        vfe = sess.engine()
        backend = vfe.machine.backend
        for n in range(4, 4 + 200):
            original = np.random.default_rng(n).standard_normal((n, 4))
            v = vfe.declare(f"V{n}", (n, 4), dist=COLS, dynamic=True)
            v.from_global(original)
            for layout in ring:
                vfe.distribute(v.name, layout)
            assert np.array_equal(v.to_global(), original), n
            for rank in range(2):  # keep /dev/shm and the workers small
                vfe.machine.memory(rank).free(v._block_name())
        cache = sess.plan_cache
        assert cache.stats()["plans"] == cache.capacity < cache.misses == 600
        for maps, bindings in backend.run_op(_op_remembered, [{}] * 2, ()):
            assert maps == 0 and bindings == 1


def test_a_stencil_step_checkpoints_its_segment_only():
    """The padded halo buffer is derived from the segment and the
    receives, so a smoothing run checkpoints one copy of the array's
    segments per step and nothing of the buffer."""
    snapshot = obs_metrics.counter("repro_backend_snapshot_bytes_total")
    size, steps = 24, 3
    with _session(nprocs=4) as sess:
        handle = sess.workload("smoothing", size=size, steps=steps)
        before = snapshot.value()
        run = handle.run()
        assert snapshot.value() - before == steps * size * size * 8
    assert run.backend == "multiprocess"
