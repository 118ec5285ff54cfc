"""Backend conformance: MultiprocessBackend == SerialBackend, bitwise.

The multiprocess backend executes transfer plans, halo exchanges and
kernels in real worker processes over a real message-passing
transport; its *only* contract is that nobody can tell from the
results.  Two layers of evidence:

- every *registered* workload, at its registered defaults, measured on
  both backends (:func:`measure`): solution bytes, per-processor
  clocks, accounting, the typed event stream and the obs comm /
  redistribute / forall counters are equal, and the plan-cache lookup
  metric agrees with ``PlanCache.stats()`` — a workload registered
  tomorrow is covered by registering it.  The same measurement must
  reproduce ``fixtures/backend_seam_pin.json``, recorded on the tree
  before the execution seam moved behind ``repro.backend`` (run this
  file as a script to re-record);
- for random programs over random distributions, array contents after
  every operation are bitwise-identical to the serial reference, and
  the per-app strategies the registry defaults do not reach are
  smoke-covered under both backends;
- a line sweep reads the same as one stacked solve (serial), as the
  per-line oracle and as one kernel op of a worker fleet, over every
  kind of layout whose lines are local (``test_line_sweep_*``).
"""

import functools
import hashlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.api import REGISTRY
from repro.apps.tridiag import thomas_const
from repro.backend import MultiprocessBackend, attached_backend
from repro.backend.ops import op_local_kernel
from repro.compiler.codegen import lower_line_sweep
from repro.core.dimdist import Block, Cyclic, GenBlock, Replicated
from repro.core.distribution import dist_type
from repro.machine import Machine, PARAGON, ProcessorArray
from repro.obs import metrics as obs_metrics
from repro.runtime.engine import Engine
from repro.sim.events import record

P = 3
R = ProcessorArray("R", (P,))

PIN_PATH = Path(__file__).parent / "fixtures" / "backend_seam_pin.json"
BACKENDS = ("serial", "multiprocess")
NPROCS = (2, 4)
LOOKUPS = "repro_plan_cache_lookups_total"
OBS_SERIES = (
    "repro_comm_", "repro_redistribute_", "repro_forall_calls_total", LOOKUPS,
)


# -- every registered workload, both backends ----------------------------

def _obs_counters() -> dict:
    return {
        name + json.dumps(sample["labels"], sort_keys=True): sample["value"]
        for name, doc in obs_metrics.registry.snapshot().items()
        if name.startswith(OBS_SERIES)
        for sample in doc["samples"]
    }


def measure_session(names: tuple, backend: str, nprocs: int) -> list[dict]:
    """``run()`` of each named workload at its registered defaults,
    back to back on **one** session: per run, everything the
    conformance contract compares.

    ``plan_cache`` is what the run added to the ``hits``/``misses`` of
    the session's store — the one store every lookup of a run reaches;
    ``plan_cache_lookups`` is the same count as the obs metric saw it.
    """
    cells = []
    was_on = obs_metrics.set_enabled(True)
    try:
        with repro.session(
            nprocs=nprocs, backend=backend, record_events=True
        ) as sess:

            def lookups() -> dict:
                stats = sess.plan_cache.stats()
                return {k: stats[k] for k in ("hits", "misses")}

            for name in names:
                before, looked = _obs_counters(), lookups()
                run = sess.workload(name).run()
                after = _obs_counters()
                obs = {
                    series: value - before.get(series, 0.0)
                    for series, value in after.items()
                    if value != before.get(series, 0.0)
                }
                events = hashlib.sha256()
                for event in run.events.events:
                    events.update(repr(event).encode())
                cells.append({
                    "backend": run.backend,
                    "solution_sha256": run.solution_digest(),
                    "clocks": list(run.clocks),
                    "messages": run.messages,
                    "bytes": run.bytes,
                    "time": run.time,
                    "events": run.events.counts(),
                    "events_sha256": events.hexdigest(),
                    "plan_cache": {
                        k: v - looked[k] for k, v in lookups().items()
                    },
                    "plan_cache_lookups": {
                        "hits": int(obs.get(LOOKUPS + '{"result": "hit"}', 0)),
                        "misses": int(obs.get(LOOKUPS + '{"result": "miss"}', 0)),
                    },
                    "obs": {k: v for k, v in obs.items()
                            if not k.startswith(LOOKUPS)},
                })
    finally:
        obs_metrics.set_enabled(was_on)
    return cells


@functools.cache
def measure(name: str, backend: str, nprocs: int) -> dict:
    """One ``run()`` of a registered workload on a session of its own."""
    return measure_session((name,), backend, nprocs)[0]


@pytest.mark.parametrize("nprocs", NPROCS)
@pytest.mark.parametrize("name", REGISTRY.names())
def test_registered_workload_conforms(name, nprocs):
    serial = measure(name, "serial", nprocs)
    multi = measure(name, "multiprocess", nprocs)
    assert (serial["backend"], multi["backend"]) == BACKENDS
    # one plan family: the workers execute the plan the master accounts,
    # so the lookups agree across backends too
    for field in ("solution_sha256", "clocks", "messages", "bytes", "time",
                  "events", "events_sha256", "obs", "plan_cache"):
        assert multi[field] == serial[field], field
    # the metric and stats() must tell one story
    for cell in (serial, multi):
        assert cell["plan_cache_lookups"] == cell["plan_cache"]


@pytest.mark.parametrize("nprocs", NPROCS)
def test_one_session_runs_equal_fresh_session_runs(nprocs):
    """Nothing leaks from one binding of a session's worker fleet into
    the next: every registered workload, back to back on one
    multiprocess session, reads exactly as it does on a session of its
    own — and again on a second lap (each workload now runs after every
    other), where the only difference is the one a session exists for:
    its plan cache may answer the same lookups with fewer misses."""
    names = REGISTRY.names()
    fresh = [measure(name, "multiprocess", nprocs) for name in names]
    laps = measure_session(names * 2, "multiprocess", nprocs)
    first, second = laps[:len(names)], laps[len(names):]
    assert first == fresh
    for cell, want in zip(second, fresh):
        for counts in ("plan_cache", "plan_cache_lookups"):
            looked = cell.pop(counts)
            assert looked["misses"] <= want[counts]["misses"]
            assert sum(looked.values()) == sum(want[counts].values())
        assert cell == {k: v for k, v in want.items() if k in cell}


@pytest.mark.parametrize("backend", BACKENDS)
def test_second_run_on_a_session_plans_nothing(backend):
    """Inspector once, executor many, across ``run()``s: every lookup of
    a run reaches the session's store, so a workload's second run on
    one session looks up what its first did and misses nothing."""
    names = REGISTRY.names()
    laps = measure_session(names * 2, backend, 4)
    assert sum(cell["plan_cache"]["misses"] for cell in laps) > 0
    for first, second in zip(laps[:len(names)], laps[len(names):]):
        assert second["plan_cache"] == {
            "hits": sum(first["plan_cache"].values()), "misses": 0,
        }


PIN = json.loads(PIN_PATH.read_text())


@pytest.mark.parametrize("cell", sorted(PIN["cells"]))
def test_cell_reproduces_the_pin(cell):
    name, backend, nprocs = cell.split("/")
    want = dict(PIN["cells"][cell])
    if backend == "multiprocess":  # the header's permitted differences
        serial = PIN["cells"][f"{name}/serial/{nprocs}"]
        want["obs"] = serial["obs"]
        want["plan_cache"] = want["plan_cache_lookups"] = serial["plan_cache"]
    assert measure(name, backend, int(nprocs)) == want


# -- random redistribution chains ----------------------------------------

@st.composite
def dist_2d(draw, n):
    """A random distribution of an (n, 3) array over the 1-D array R:
    the distributed dimension, its distribution kind, and parameters
    all vary."""
    dim = draw(st.sampled_from([0, 1]))
    extent = n if dim == 0 else 3
    kind = draw(
        st.sampled_from(["block", "cyclic", "genblock", "replicated"])
    )
    if kind == "block":
        dd = Block()
    elif kind == "cyclic":
        dd = Cyclic(draw(st.integers(1, 4)))
    elif kind == "replicated":
        dd = Replicated()
    else:
        cuts = sorted(
            draw(
                st.lists(
                    st.integers(0, extent), min_size=P - 1, max_size=P - 1
                )
            )
        )
        bounds = [0] + cuts + [extent]
        dd = GenBlock([b - a for a, b in zip(bounds, bounds[1:])])
    dims = [":", ":"]
    dims[dim] = dd
    return dist_type(*dims)


def _run_program(n, layouts, values, backend):
    """Declare, fill, and chain-redistribute; return contents + stats."""
    machine = Machine(R, cost_model=PARAGON)
    if backend is not None:
        backend.attach(machine)
    engine = Engine(machine)
    arr = engine.declare("A", (n, 3), dist=layouts[0], dynamic=True)
    arr.from_global(values)
    snapshots = [arr.to_global().copy()]
    for layout in layouts[1:]:
        engine.distribute("A", layout)
        snapshots.append(arr.to_global().copy())
    return snapshots, machine.stats(), engine.reports


@given(st.data(), st.integers(4, 16))
@settings(max_examples=12, deadline=None)
def test_random_redistribution_chains_bitwise_identical(data, n):
    layouts = [
        data.draw(dist_2d(n)) for _ in range(data.draw(st.integers(2, 4)))
    ]
    values = np.random.default_rng(n).standard_normal((n, 3))

    backend = MultiprocessBackend(timeout=60.0)
    try:
        mp_snaps, mp_stats, mp_reports = _run_program(
            n, layouts, values, backend
        )
    finally:
        backend.close()
    ser_snaps, ser_stats, ser_reports = _run_program(
        n, layouts, values, None
    )

    assert len(mp_snaps) == len(ser_snaps)
    for mp_s, ser_s in zip(mp_snaps, ser_snaps):
        assert np.array_equal(mp_s, ser_s)  # bitwise, not allclose
    assert mp_stats.messages == ser_stats.messages
    assert mp_stats.bytes == ser_stats.bytes
    assert mp_stats.time == ser_stats.time
    for mp_r, ser_r in zip(mp_reports, ser_reports):
        assert mp_r.messages == ser_r.messages
        assert mp_r.elements_moved == ser_r.elements_moved
        assert mp_r.elements_kept == ser_r.elements_kept


# -- line sweeps: one stack == per-line oracle == one fleet kernel op ------

#: case -> (processor grid, section subscripts, array shape,
#: distribution, swept dim); four processors throughout
SWEEPS = {
    "(:,BLOCK)/0": ((4,), None, (9, 7), (":", "BLOCK"), 0),
    "(BLOCK,:)/1": ((4,), None, (9, 7), ("BLOCK", ":"), 1),
    "(:,CYCLIC(2))/0": ((4,), None, (9, 7), (":", Cyclic(2)), 0),
    "REPLICATED/0": ((4,), None, (6, 5), (Replicated(), ":"), 0),
    "3-D/middle": ((2, 2), None, (5, 6, 7), ("BLOCK", ":", "BLOCK"), 1),
    "R(1,:)": ((2, 2), (1, slice(None)), (9, 7), (":", "BLOCK"), 0),
    "extent<P": ((4,), None, (5, 3), (":", "BLOCK"), 0),
    # lines that cross processors: gathered, solved as one stack too
    "(BLOCK,:)/0": ((4,), None, (9, 7), ("BLOCK", ":"), 0),
}
LINE = functools.partial(thomas_const, a=-1.0, b=4.0)


@pytest.fixture(scope="module")
def sweep_sessions():
    """(serial, multiprocess): one worker fleet for every sweep case."""
    with repro.session(nprocs=4, cost_model="Paragon") as serial, \
            repro.session(nprocs=4, cost_model="Paragon",
                          backend="multiprocess") as multi:
        yield serial, multi


def _sweep_kernel(sess, case):
    grid, subs, shape, spec, dim = SWEEPS[case]
    engine = sess.engine(shape=grid, name="R")
    procs = engine.machine.processors
    values = np.random.default_rng(7).standard_normal(shape)
    arr = engine.declare(
        "V", shape, dist=dist_type(*spec),
        to=None if subs is None else procs.section(*subs),
    )
    arr.from_global(values)
    return values, arr, lower_line_sweep(engine, "V", dim, LINE)


def _sweep(sess, case, reference=False) -> dict:
    _values, arr, kernel = _sweep_kernel(sess, case)
    machine = arr.machine
    with record(machine) as log:
        stats = kernel.sweep(reference=reference)
    return {
        "solution": arr.to_global().tobytes(),
        "stats": stats,
        "clocks": list(machine.network.clocks),
        "messages": machine.stats().messages,
        "bytes": machine.stats().bytes,
        "events": [repr(event) for event in log.events],
    }


@pytest.mark.parametrize("case", sorted(SWEEPS))
def test_line_sweep_conforms(case, sweep_sessions):
    serial, multi = sweep_sessions
    stacked = _sweep(serial, case)
    assert _sweep(serial, case, reference=True) == stacked
    assert _sweep(multi, case) == stacked
    values, arr, kernel = _sweep_kernel(serial, case)
    want = np.apply_along_axis(LINE, kernel.dim, values)
    assert stacked["solution"] == want.tobytes()
    assert len(stacked["events"]) > 0


def test_line_sweep_is_one_fleet_kernel_op(sweep_sessions):
    """The multiprocess backend inherits the serial bodies, so it must
    keep overriding ``sweep_lines``: a local sweep is one op of the
    worker fleet, never a reassembly on the master."""
    _serial, multi = sweep_sessions
    _values, arr, kernel = _sweep_kernel(multi, "(:,BLOCK)/0")
    backend = arr.machine.backend
    assert backend.name == "multiprocess"
    with mock.patch.object(backend, "run_op", wraps=backend.run_op) as run_op:
        kernel.sweep()
    assert [call.args[0] for call in run_op.call_args_list] == [op_local_kernel]


# -- app smoke coverage: the strategies the registry defaults skip -------

def _on_both_backends(run, shape=(4,), name="R"):
    """``run(machine)`` on a fresh machine per backend: (serial, multi)."""
    results = []
    for backend in BACKENDS:
        machine = Machine(ProcessorArray(name, shape), cost_model=PARAGON)
        with attached_backend(machine, backend):
            results.append(run(machine))
    return results


def test_adi_conformance_all_strategies():
    from repro.apps.adi import execute_adi

    for strategy in ("dynamic", "planned", "static_cols", "two_arrays"):
        serial, multi = _on_both_backends(
            lambda m: execute_adi(m, 16, 16, 2, strategy, seed=1)
        )
        assert np.array_equal(serial.solution, multi.solution), strategy
        assert serial.total_messages == multi.total_messages
        assert serial.total_time == multi.total_time


def test_pic_conformance():
    from repro.apps.pic import PICConfig, execute_pic

    cfg = PICConfig(
        strategy="bblock", ncell=32, npart=400, max_time=12,
        nprocs=4, seed=5,
    )
    serial, multi = _on_both_backends(
        lambda m: execute_pic(m, cfg), name="P"
    )
    assert serial.redistributions == multi.redistributions
    assert serial.total_time == multi.total_time
    for s, m in zip(serial.steps, multi.steps):
        assert s.imbalance == m.imbalance
        assert s.motion_messages == m.motion_messages


def test_pic_explicit_rng_is_deterministic():
    from repro.apps.pic import PICConfig, execute_pic

    cfg = PICConfig(
        strategy="bblock", ncell=32, npart=400, max_time=8, nprocs=4,
        seed=9,
    )
    runs = [
        [s.imbalance for s in r.steps]
        for r in _on_both_backends(
            # a fresh generator per run overrides config.seed
            lambda m: execute_pic(m, cfg, rng=np.random.default_rng(1234)),
            name="P",
        )
    ]
    assert runs[0] == runs[1]


def test_smoothing_conformance_both_distributions():
    from repro.apps.smoothing import execute_smoothing

    for distribution, shape in (("columns", (4,)), ("blocks2d", (2, 2))):
        serial, multi = _on_both_backends(
            lambda m: execute_smoothing(
                16, 3, distribution, 4, PARAGON, seed=2, machine=m
            ),
            shape=shape, name="P",
        )
        assert np.array_equal(serial.solution, multi.solution)
        assert serial.messages == multi.messages
        assert serial.time == multi.time


def test_irregular_conformance():
    networkx = pytest.importorskip("networkx")  # noqa: F841
    from repro.apps.irregular import make_mesh, run_relaxation

    mesh = make_mesh(40, seed=4)
    serial, multi = _on_both_backends(
        lambda m: run_relaxation(m, mesh, "partitioned", sweeps=2, seed=4),
        name="P",
    )
    assert np.array_equal(serial.solution, multi.solution)
    assert serial.messages == multi.messages
    assert serial.cut_edges == multi.cut_edges


if __name__ == "__main__":  # re-record the pin (on the tree to pin)
    PIN_PATH.write_text(json.dumps({
        "recorded": (
            "on a124a04, the parent of PR 17, by running this file as a "
            "script: measure(name, backend, nprocs) for every registered "
            "workload at its registered defaults"
        ),
        "permitted_differences": [
            "multiprocess cells, 'obs': the parent posted a worker-executed "
            "stencil step's halo exchange to the network without the "
            "repro_comm_*{kind=halo} counters the serial path bumps; with "
            "one accounting site a multiprocess cell's 'obs' equals its "
            "serial cell's (the parent's reading is what is recorded here)",
            "multiprocess cells, 'plan_cache_lookups': the parent counted a "
            "replayed move plan with a bare `plan_cache.hits += 1`, which "
            "the metric never saw; it now equals the cell's 'plan_cache' "
            "(stats(), unchanged)",
            "multiprocess cells, 'plan_cache' (since PR 21): the parent "
            "looked a DISTRIBUTE up twice on this backend, the transfer "
            "matrix and the workers' segment moves; matrix and moves are "
            "one plan now, so the cell's 'plan_cache' equals its serial "
            "cell's (the parent's reading is what is recorded here)",
            "RunResult.backend names the backend that executed the stage: "
            "no cell degrades, so 'backend' reproduces on every cell",
        ],
        "cells": {
            f"{name}/{backend}/{nprocs}": measure(name, backend, nprocs)
            for name in REGISTRY.names()
            for backend in BACKENDS
            for nprocs in NPROCS
        },
    }, indent=1, sort_keys=True) + "\n")
