"""Backend conformance: MultiprocessBackend == SerialBackend, bitwise.

The multiprocess backend executes transfer plans, halo exchanges and
kernels in real worker processes over a real message-passing
transport; its *only* contract is that nobody can tell from the
results.  Property: for random programs over random distributions,
array contents after every operation are bitwise-identical to the
serial reference, and the simulated-network accounting is identical
too.  All four §4 apps are smoke-covered under both backends.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import MultiprocessBackend
from repro.core.dimdist import Block, Cyclic, GenBlock, Replicated
from repro.core.distribution import dist_type
from repro.machine import Machine, PARAGON, ProcessorArray
from repro.runtime.engine import Engine

P = 3
R = ProcessorArray("R", (P,))


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


# -- app smoke coverage: every §4 workload, both backends ----------------

def test_adi_conformance_all_strategies():
    from repro.apps.adi import execute_adi

    for strategy in ("dynamic", "planned", "static_cols", "two_arrays"):
        serial = execute_adi(
            Machine(ProcessorArray("R", (4,)), cost_model=PARAGON),
            16, 16, 2, strategy, seed=1,
        )
        multi = execute_adi(
            Machine(ProcessorArray("R", (4,)), cost_model=PARAGON),
            16, 16, 2, strategy, seed=1, backend="multiprocess",
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
    serial = execute_pic(
        Machine(ProcessorArray("P", (4,)), cost_model=PARAGON), cfg
    )
    multi = execute_pic(
        Machine(ProcessorArray("P", (4,)), cost_model=PARAGON), cfg,
        backend="multiprocess",
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
    runs = []
    for backend in (None, "multiprocess"):
        rng = np.random.default_rng(1234)  # overrides config.seed
        r = execute_pic(
            Machine(ProcessorArray("P", (4,)), cost_model=PARAGON),
            cfg, rng=rng, backend=backend,
        )
        runs.append([s.imbalance for s in r.steps])
    assert runs[0] == runs[1]


def test_smoothing_conformance_both_distributions():
    from repro.apps.smoothing import execute_smoothing

    for distribution, nprocs in (("columns", 4), ("blocks2d", 4)):
        serial = execute_smoothing(
            16, 3, distribution, nprocs, PARAGON, seed=2
        )
        multi = execute_smoothing(
            16, 3, distribution, nprocs, PARAGON, seed=2,
            backend="multiprocess",
        )
        assert np.array_equal(serial.solution, multi.solution)
        assert serial.messages == multi.messages
        assert serial.time == multi.time


def test_irregular_conformance():
    networkx = pytest.importorskip("networkx")  # noqa: F841
    from repro.apps.irregular import make_mesh, run_relaxation
    from repro.backend.base import attached_backend

    mesh = make_mesh(40, seed=4)
    results = []
    for backend in (None, "multiprocess"):
        machine = Machine(ProcessorArray("P", (4,)), cost_model=PARAGON)
        with attached_backend(machine, backend):
            results.append(
                run_relaxation(machine, mesh, "partitioned", sweeps=2, seed=4)
            )
    serial, multi = results
    assert np.array_equal(serial.solution, multi.solution)
    assert serial.messages == multi.messages
    assert serial.cut_edges == multi.cut_edges
