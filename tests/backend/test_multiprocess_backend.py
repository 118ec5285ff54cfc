"""MultiprocessBackend: real SPMD workers, shared memory, transport.

The conformance *property* suite lives in
``tests/properties/test_backend_conformance.py``; these are the
mechanism tests — lifecycle, shared-memory hygiene, worker error
propagation, collectives, and the plan-cache sharing the reports
advertise.
"""

import os

import numpy as np
import pytest

import repro
from repro.backend import BackendError, MultiprocessBackend
from repro.backend.base import SERIAL
from repro.core.distribution import dist_type
from repro.machine import Machine, ProcessorArray
from repro.runtime.engine import Engine

R = ProcessorArray("R", (4,))


@pytest.fixture()
def backend():
    be = MultiprocessBackend(timeout=60.0)
    yield be
    be.close()


def _shm_leftovers(pid=None) -> list[str]:
    prefix = "vfe-" if pid is None else f"vfe-{pid}-"
    try:
        return [f for f in os.listdir("/dev/shm") if f.startswith(prefix)]
    except FileNotFoundError:  # non-Linux: rely on close() not raising
        return []


def test_lifecycle_and_cleanup(backend):
    m = Machine(R)
    backend.attach(m)
    assert m.backend is backend
    assert backend.nprocs == 4
    e = Engine(m)
    v = e.declare("V", (8, 8), dist=dist_type("BLOCK", ":"), dynamic=True)
    v.from_global(np.arange(64, dtype=float).reshape(8, 8))
    assert len(backend.allocator) > 0
    backend.close()
    assert m.backend is SERIAL
    assert _shm_leftovers() == []


def test_arrays_survive_backend_close():
    """Closing the backend withdraws the shared storage; array
    contents must remain readable (private copies), not segfault, and
    the machine carries on with the serial default."""
    m = Machine(R)
    be = MultiprocessBackend()
    be.attach(m)
    e = Engine(m)
    v = e.declare("V", (8, 8), dist=dist_type(":", "BLOCK"), dynamic=True)
    g = np.random.default_rng(2).standard_normal((8, 8))
    v.from_global(g)
    e.distribute("V", dist_type("BLOCK", ":"))
    be.close()
    assert _shm_leftovers() == []
    assert np.array_equal(v.to_global(), g)  # reads ordinary memory now
    v.set((0, 0), 42.0)
    assert v.get((0, 0)) == 42.0
    assert m.backend is SERIAL
    (report,) = e.distribute("V", dist_type(":", "BLOCK"))
    assert report.backend == "serial"
    g[0, 0] = 42.0
    assert np.array_equal(v.to_global(), g)


def test_attach_after_allocation_rejected(backend):
    m = Machine(R)
    Engine(m).declare("V", (8,), dist=dist_type("BLOCK"))
    with pytest.raises(RuntimeError, match="before declaring"):
        backend.attach(m)
    # failed attach must roll back completely: the machine stays a
    # perfectly usable serial machine
    assert m.backend is SERIAL
    assert backend.machine is None
    e = Engine(m)
    v = e.declare("W", (8, 4), dist=dist_type(":", "BLOCK"), dynamic=True)
    g = np.arange(32, dtype=float).reshape(8, 4)
    v.from_global(g)
    e.distribute("W", dist_type("BLOCK", ":"))
    assert np.array_equal(v.to_global(), g)


def test_distribute_roundtrip_preserves_data(backend):
    m = Machine(R)
    backend.attach(m)
    e = Engine(m)
    v = e.declare("V", (16, 8), dist=dist_type(":", "BLOCK"), dynamic=True)
    g = np.random.default_rng(7).standard_normal((16, 8))
    v.from_global(g)
    for spec in [("BLOCK", ":"), (":", "BLOCK"), ("CYCLIC", ":")]:
        e.distribute("V", dist_type(*spec))
        assert np.array_equal(v.to_global(), g)


def test_reports_name_backend_and_cache(backend):
    m = Machine(R)
    backend.attach(m)
    e = Engine(m)
    e.declare("V", (16, 4), dist=dist_type(":", "BLOCK"), dynamic=True)
    e.distribute("V", dist_type("BLOCK", ":"))
    e.distribute("V", dist_type(":", "BLOCK"))
    e.distribute("V", dist_type("BLOCK", ":"))
    first, _, third = e.reports[:3]
    assert first.backend == "multiprocess"
    # first flip computes the plan the master accounts and the workers
    # execute: one plan family, one lookup ...
    assert first.cache_misses == 1 and first.cache_hits == 0
    # ... the recurrence is served from the shared cache
    assert third.cache_hits == 1 and third.cache_misses == 0
    assert "multiprocess" in third.summary()
    assert "1 hit" in third.summary()
    assert "plan cache" in e.redistribution_summary()


@pytest.mark.parametrize("name", ["serial", "multiprocess"])
def test_one_plan_cache_lookup_per_communicate(name):
    """Accounting and data motion read one plan: a COMMUNICATE looks
    the cache up exactly once on either backend, hit or miss."""
    from repro.backend.base import attached_backend
    from repro.runtime.redistribute import communicate

    m = Machine(R)
    with attached_backend(m, name):
        v = Engine(m).declare(
            "V", (16, 4), dist=dist_type(":", "BLOCK"), dynamic=True)
        g = np.random.default_rng(5).standard_normal((16, 4))
        v.from_global(g)
        cache = m.plans
        for lookups, spec in enumerate(
            [("BLOCK", ":"), (":", "CYCLIC"), ("BLOCK", ":"), (":", "CYCLIC")], 1
        ):
            report = communicate(v, dist_type(*spec).apply((16, 4), R))
            assert report.backend == name
            assert report.cache_hits + report.cache_misses == 1
            assert cache.hits + cache.misses == lookups
            assert np.array_equal(v.to_global(), g)
        assert (cache.hits, cache.misses) == (1, 3)


def test_first_association_report_names_the_session_backend():
    """The first DISTRIBUTE of a dynamic array moves nothing, and its
    report still names the backend the session runs on."""
    with repro.session(nprocs=2, backend="multiprocess") as sess:
        vfe = sess.engine()
        vfe.declare("V", (8, 4), dynamic=True)
        (report,) = vfe.distribute("V", dist_type("BLOCK", ":"))
        assert (report.messages, report.elements_kept) == (0, 32)
        assert report.backend == "multiprocess"
        (moved,) = vfe.distribute("V", dist_type(":", "BLOCK"))
        assert moved.backend == "multiprocess"
    engine = Engine(Machine(R))
    engine.declare("V", (8, 4), dynamic=True)
    assert engine.distribute("V", dist_type("BLOCK", ":"))[0].backend == "serial"


def test_worker_error_propagates(backend):
    m = Machine(R)
    backend.attach(m)
    e = Engine(m)
    e.declare("V", (8,), dist=dist_type("BLOCK"))
    with pytest.raises(BackendError, match="_explode"):
        backend.run_kernel(e.arrays["V"], _explode)
    # the fleet survives a failed op
    e2 = Engine(m)
    e2.declare("W", (8,), dist=dist_type("BLOCK"))
    backend.run_kernel(e2.arrays["W"], _fill_with_rank)
    assert np.array_equal(
        e2.arrays["W"].to_global(),
        np.repeat(np.arange(4, dtype=float), 2),
    )


def test_partial_worker_error_fails_fast_and_fleet_recovers():
    """One failing rank aborts the collective barrier: peers bail out
    immediately (no timeout ride-out), and the re-armed barrier keeps
    the fleet usable for the next op."""
    be = MultiprocessBackend(timeout=30.0)
    try:
        m = Machine(R)
        be.attach(m)
        e = Engine(m)
        e.declare("V", (8,), dist=dist_type("BLOCK"))
        import time

        t0 = time.perf_counter()
        with pytest.raises(BackendError, match="rank 0 only"):
            be.run_kernel(e.arrays["V"], _explode_rank0)
        assert time.perf_counter() - t0 < 15.0  # no timeout ride-out
        # fleet recovered: barriers and acks still line up
        be.run_kernel(e.arrays["V"], _fill_with_rank)
        assert np.array_equal(
            e.arrays["V"].to_global(),
            np.repeat(np.arange(4, dtype=float), 2),
        )
    finally:
        be.close()


def test_plan_replay_on_recurring_flips(backend):
    """A steady-state flip replays its plan from the master's cache and
    carries each rank's share in every command (nothing is memoized
    worker-side) — contents stay bitwise-correct."""
    m = Machine(R)
    backend.attach(m)
    e = Engine(m)
    v = e.declare("V", (16, 8), dist=dist_type(":", "BLOCK"), dynamic=True)
    g = np.random.default_rng(13).standard_normal((16, 8))
    v.from_global(g)
    for i in range(6):
        target = ("BLOCK", ":") if i % 2 == 0 else (":", "BLOCK")
        e.distribute("V", dist_type(*target))
        assert np.array_equal(v.to_global(), g)


def test_a_flip_reuses_the_segment_it_released():
    """A (16, 8) ring on 2 ranks: the per-rank shapes are (16, 4) and
    (8, 8), the byte counts equal, so every move after the first two
    writes into the segment the move before last released — the same
    name, another shape — and the values stay exact."""
    m = Machine(ProcessorArray("R", (2,)))
    be = MultiprocessBackend(timeout=60.0)
    try:
        be.attach(m)
        e = Engine(m)
        v = e.declare("V", (16, 8), dist=dist_type(":", "BLOCK"), dynamic=True)
        g = np.random.default_rng(17).standard_normal((16, 8))
        v.from_global(g)
        names = []
        for layout in [dist_type("BLOCK", ":"), dist_type(":", "BLOCK")] * 3:
            e.distribute("V", layout)
            names.append([be.allocator.meta(r, v._block_name()) for r in range(2)])
            assert np.array_equal(v.to_global(), g)
        shapes = [[meta.shape for meta in metas] for metas in names]
        assert shapes[0] == [(8, 8)] * 2 and shapes[1] == [(16, 4)] * 2
        for k in range(2, len(names)):
            assert [meta.shm_name for meta in names[k]] == [
                meta.shm_name for meta in names[k - 2]]
        assert {meta.shm_name for meta in names[0]}.isdisjoint(
            meta.shm_name for meta in names[1])
        # nothing a DISTRIBUTE moved went through a worker's queue
        assert be.run_op(_op_transport_traffic, [{}] * 2, ()) == [(0, 0)] * 2
        assert _shm_leftovers(os.getpid())
    finally:
        be.close()
    assert _shm_leftovers(os.getpid()) == []


def test_move_onto_a_layout_where_a_rank_owns_nothing(backend):
    """(BLOCK, :) of 2 rows over 4 ranks leaves ranks 2 and 3 without a
    segment: they read nothing, their old segments are still read by
    the owners, and the way back fills them again."""
    m = Machine(R)
    backend.attach(m)
    e = Engine(m)
    v = e.declare("V", (2, 8), dist=dist_type(":", "BLOCK"), dynamic=True)
    g = np.arange(16, dtype=float).reshape(2, 8)
    v.from_global(g)
    for layout in [dist_type("BLOCK", ":"), dist_type(":", "BLOCK")] * 2:
        e.distribute("V", layout)
        assert np.array_equal(v.to_global(), g)
        owners = [r for r in range(4)
                  if backend.allocator.meta(r, v._block_name()) is not None]
        assert owners == ([0, 1] if layout == dist_type("BLOCK", ":")
                          else [0, 1, 2, 3])


def test_a_dropped_move_rectangle_fails_the_op_like_a_lost_message():
    """A by-reference rectangle is one message of its link: dropping the
    first one on 0 -> 1 fails the op with the error a lost queued
    message times out with, and the failure is not retryable."""
    from repro.faults import FaultPlan, TransportDrop, activate, deactivate

    m = Machine(ProcessorArray("R", (2,)))
    be = MultiprocessBackend(timeout=0.5)
    activate(FaultPlan([TransportDrop(src=0, dst=1, at_message=1)]))
    try:
        be.attach(m)  # latches the plan
        e = Engine(m)
        e.declare("V", (8, 4), dist=dist_type(":", "BLOCK"), dynamic=True)
        with pytest.raises(BackendError, match="TransportTimeout") as info:
            e.distribute("V", dist_type("BLOCK", ":"))
        assert not info.value.retryable
        assert "a message from 0 was lost in flight" in str(info.value)
    finally:
        deactivate()
        be.close()
    assert _shm_leftovers(os.getpid()) == []


def test_pulled_messages_keep_their_link_ordinals():
    """Reads by reference and queued messages share one ordinal stream
    per link on both ends: a drop addressed past the pulled ones lands
    on the queued message it always named."""
    import queue
    import threading

    from repro.backend import Transport, TransportTimeout
    from repro.faults import FaultPlan, TransportDrop

    plan = FaultPlan([TransportDrop(src=1, dst=0, at_message=3),
                      TransportDrop(src=0, dst=1, at_message=2)])
    boxes, bar = [queue.Queue(), queue.Queue()], threading.Barrier(2)
    t0, t1 = (Transport(r, 2, boxes[r], boxes, bar, 0.1, faults=plan)
              for r in range(2))
    t1.pulled({0: 2})  # rank 0 read two of rank 1's messages in place
    t0.pull(1)
    t0.pull(1)
    t1.send(0, "t", "third")  # message 3 of 1 -> 0: dropped
    assert t1.dropped_messages == 1
    t0.send(1, "t", "first")
    assert t1.recv(0, "t") == "first"
    with pytest.raises(TransportTimeout, match="from 0 was lost"):
        t1.pull(0)


def test_run_kernel_runs_in_workers_not_master(backend):
    """The worker executes in another process: master-side globals
    mutated by the kernel stay untouched in the master."""
    m = Machine(R)
    backend.attach(m)
    e = Engine(m)
    e.declare("V", (8,), dist=dist_type("BLOCK"))
    _MASTER_SENTINEL.clear()
    backend.run_kernel(e.arrays["V"], _poke_sentinel)
    assert _MASTER_SENTINEL == []  # mutated only in the workers
    # yet the shared-memory write IS visible to the master
    assert np.array_equal(
        e.arrays["V"].to_global(), np.full(8, 5.0)
    )


def test_foreach_owned_routes_through_workers(backend):
    m = Machine(R)
    backend.attach(m)
    e = Engine(m)
    e.declare("V", (12,), dist=dist_type("BLOCK"))
    e.foreach_owned("V", _fill_with_rank, flops_per_element=2.0)
    assert np.array_equal(
        e.arrays["V"].to_global(), np.repeat(np.arange(4, dtype=float), 3)
    )
    assert m.time > 0  # compute accounting still charged


def test_foreach_owned_falls_back_on_unpicklable(backend):
    m = Machine(R)
    backend.attach(m)
    e = Engine(m)
    e.declare("V", (8,), dist=dist_type("BLOCK"))
    seen = []

    def closure(rank, local, idx):  # closes over `seen`: unpicklable-by-ref
        seen.append(rank)
        local[...] = rank

    e.foreach_owned("V", closure)
    assert seen == [0, 1, 2, 3]  # ran in the master
    assert np.array_equal(
        e.arrays["V"].to_global(), np.repeat(np.arange(4, dtype=float), 2)
    )


def test_allgather_collective(backend):
    m = Machine(R)
    backend.attach(m)
    gathered = backend.run_op(
        _op_allgather_rank, [{} for _ in range(4)]
    )
    assert gathered == [[0, 1, 2, 3]] * 4


def test_run_op_after_close_rejected():
    be = MultiprocessBackend()
    be.attach(Machine(R))
    be.close()
    with pytest.raises(BackendError, match="closed"):
        be.run_op(_op_allgather_rank, [{} for _ in range(4)])


def test_forked_worker_imports_nothing_after_start(monkeypatch, tmp_path):
    """A fleet is forked once per session, so whatever a worker needs
    should be in the parent's ``sys.modules`` before the fork or come
    with the command that needs it: once the parent has run a workload,
    the workers of a fleet started afterwards gain no ``repro`` module
    between start and shutdown, however many workloads they serve."""
    import json
    import sys

    import repro
    from repro.backend import multiprocess

    if multiprocess._pick_start_method(None) != "fork":
        pytest.skip("spawned workers start from a fresh import")
    worker_main = multiprocess.worker_main

    def traced(rank, *args, **kwargs):
        before = set(sys.modules)
        try:
            worker_main(rank, *args, **kwargs)
        finally:
            gained = sorted(m for m in set(sys.modules) - before
                            if m.startswith("repro"))
            (tmp_path / f"{os.getpid()}.json").write_text(json.dumps(gained))

    def handles(sess):
        return [
            sess.workload("adi", size=16, iterations=1),
            sess.workload("pic", size=16, steps=2),
            sess.workload("smoothing", size=16, steps=2),
            sess.workload("irregular", size=16, steps=2),
        ]

    with repro.session(nprocs=2, backend="multiprocess") as sess:
        assert {h.name for h in handles(sess)} == set(sess.registry.names())
        for handle in handles(sess):
            handle.run()  # the parent imports the app
    monkeypatch.setattr(multiprocess, "worker_main", traced)
    with repro.session(nprocs=2, backend="multiprocess") as sess:
        for handle in handles(sess):
            handle.run()
    reports = sorted(tmp_path.iterdir())
    assert len(reports) == 2  # one fleet served all four workloads
    assert [json.loads(r.read_text()) for r in reports] == [[]] * len(reports)


# -- module-level worker payloads (picklable by reference) ---------------

_MASTER_SENTINEL: list = []


def _explode(rank, local, idx):
    raise RuntimeError(f"_explode on rank {rank}")


def _explode_rank0(rank, local, idx):
    if rank == 0:
        raise RuntimeError("_explode_rank0: rank 0 only")


def _fill_with_rank(rank, local, idx):
    local[...] = rank


def _poke_sentinel(rank, local, idx):
    _MASTER_SENTINEL.append(rank)
    local[...] = 5.0


def _op_allgather_rank(ctx):
    return ctx.transport.allgather(ctx.rank)


def _op_transport_traffic(ctx):
    return ctx.transport.sent_messages, ctx.transport.received_messages
