"""E11 (extension) — distributions onto processor *sections* (§2.2).

Paper feature: "the distribution of arrays to subsets of processors".
Sections enable functional decomposition (different arrays on
different machine halves) and shrink/grow patterns (move a phase's
working set onto fewer processors when that reduces communication).

Regenerated series: (a) redistribution between disjoint halves moves
everything (the analytic worst case); (b) shrinking an array from p
to p/2 processors halves the per-step boundary traffic of a stencil
but doubles per-processor memory — the locality/parallelism trade a
Vienna Fortran programmer can steer with `TO` clauses at run time.
"""

import numpy as np
import pytest

from conftest import emit_table
from repro.core.distribution import dist_type
from repro.machine import IPSC860, Machine, ProcessorArray
from repro.runtime.engine import Engine
from repro.runtime.overlap import OverlapManager

N = 64
P = 8


def build(section=None):
    machine = Machine(ProcessorArray("R", (P,)), cost_model=IPSC860)
    engine = Engine(machine)
    target = section(machine) if section else None
    arr = engine.declare(
        "A", (N, N), dist=dist_type("BLOCK", ":"), to=target, dynamic=True
    )
    arr.from_global(np.arange(N * N, dtype=float).reshape(N, N))
    return machine, engine, arr


def test_e11_disjoint_section_move():
    machine, engine, arr = build(
        lambda m: m.processors.section(slice(0, P // 2))
    )
    data = arr.to_global()
    lower = machine.processors.section(slice(0, P // 2))
    upper = machine.processors.section(slice(P // 2, P))
    rep = engine.distribute(
        "A", dist_type("BLOCK", ":"), to=upper
    )[0]
    emit_table(
        "E11: moving an array between disjoint machine halves",
        ["metric", "value"],
        [
            ["elements moved", rep.elements_moved],
            ["elements kept", rep.elements_kept],
            ["messages", rep.messages],
        ],
    )
    assert rep.elements_moved == N * N  # nothing can stay
    assert rep.elements_kept == 0
    assert np.array_equal(arr.to_global(), data)
    assert set(np.unique(arr.dist.rank_map())) == set(upper.ranks())
    del lower


def test_e11_shrink_tradeoff():
    """Fewer processors: fewer boundaries (less traffic), more memory."""
    rows = []
    for nprocs in (8, 4, 2):
        machine, engine, arr = build(
            lambda m, k=nprocs: m.processors.section(slice(0, k))
        )
        ov = OverlapManager(arr, (1, 0))
        ov.load_interior()
        before = machine.stats()
        ov.exchange()
        diff = machine.stats() - before
        mem = max(m.used for m in machine.memories)
        rows.append([nprocs, diff.messages, diff.bytes, mem])
    emit_table(
        f"E11: stencil boundary traffic vs active processors (N={N})",
        ["procs", "msgs/step", "bytes/step", "max_mem_B"],
        rows,
    )
    msgs = [r[1] for r in rows]
    mems = [r[3] for r in rows]
    assert msgs[0] > msgs[1] > msgs[2]   # fewer boundaries
    assert mems[0] < mems[1] < mems[2]   # bigger local blocks


def test_e11_grow_for_compute_phase():
    """The reverse move: spread onto the full machine for a
    compute-heavy phase, paying a one-time redistribution."""
    machine, engine, arr = build(
        lambda m: m.processors.section(slice(0, 2))
    )
    rep = engine.distribute("A", dist_type("BLOCK", ":"))[0]
    # only processor 0's leading N/P rows stay in place: on the old
    # half-machine layout rank 0 held rows [0, N/2) and keeps the
    # [0, N/P) prefix; every other new block lands on a new owner
    assert rep.elements_kept == (N // P) * N
    assert rep.elements_moved == N * N - (N // P) * N
    assert arr.dist.local_shape(7)[0] == N // P


@pytest.mark.parametrize("half", ["lower", "upper"])
def test_e11_section_benchmark(benchmark, half):
    def run():
        machine, engine, arr = build(
            lambda m: m.processors.section(slice(0, P // 2))
        )
        target = (
            machine.processors.section(slice(P // 2, P))
            if half == "upper"
            else machine.processors.section(slice(0, P // 2))
        )
        engine.distribute("A", dist_type("BLOCK", ":"), to=target)

    benchmark(run)
