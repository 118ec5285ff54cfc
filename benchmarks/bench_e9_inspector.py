"""E9 (extension) — the inspector/executor paradigm (§3.2, §4).

Paper claim: irregular accesses (the PIC particle reassignment) need
"runtime code using the inspector/executor paradigm [10, 15]".  The
pay-off of the paradigm is aggregation (one message per processor pair
instead of one per element) and schedule reuse across iterations.

Regenerated series: an irregular gather executed (a) element-by-
element, (b) through a freshly built schedule each step, (c) with the
schedule reused across steps — messages and modeled time per step.
This is the ablation for the "schedule reuse" design choice in
DESIGN.md §5.
"""

import numpy as np
import pytest

from conftest import emit_table
from repro.core.distribution import dist_type
from repro.machine import IPSC860, Machine, ProcessorArray
from repro.runtime.engine import Engine

N = 256
P = 4
STEPS = 10


def setup():
    machine = Machine(ProcessorArray("R", (P,)), cost_model=IPSC860)
    engine = Engine(machine)
    arr = engine.declare("X", (N,), dist=dist_type("BLOCK"), dynamic=True)
    arr.from_global(np.arange(N, dtype=float))
    rng = np.random.default_rng(0)
    # every processor reads 64 random global elements (indirection array)
    requests = {
        p: rng.integers(0, N, size=64).reshape(-1, 1) for p in range(P)
    }
    return machine, engine, arr, requests


def run_element_wise(machine, arr, requests):
    for p, idx in requests.items():
        for (g,) in idx:
            arr.read_remote(p, (int(g),))


def test_e9_aggregation_and_reuse():
    rows = []

    # (a) element-wise
    machine, engine, arr, requests = setup()
    t0, m0 = machine.time, machine.stats().messages
    for _ in range(STEPS):
        run_element_wise(machine, arr, requests)
    rows.append(
        ["element-wise",
         (machine.stats().messages - m0) // STEPS,
         (machine.time - t0) / STEPS * 1e3]
    )
    elem_msgs = (machine.stats().messages - m0) // STEPS

    # (b) inspector rebuilt every step
    machine, engine, arr, requests = setup()
    insp = engine.inspector("X")
    t0, m0 = machine.time, machine.stats().messages
    for _ in range(STEPS):
        sched = insp.inspect(requests)
        insp.gather(sched)
    rows.append(
        ["inspector (rebuild)",
         (machine.stats().messages - m0) // STEPS,
         (machine.time - t0) / STEPS * 1e3]
    )

    # (c) schedule reused
    machine, engine, arr, requests = setup()
    insp = engine.inspector("X")
    sched = insp.inspect(requests)
    t0, m0 = machine.time, machine.stats().messages
    for _ in range(STEPS):
        insp.gather(sched)
    reuse_msgs = (machine.stats().messages - m0) // STEPS
    rows.append(
        ["inspector (reused)",
         reuse_msgs,
         (machine.time - t0) / STEPS * 1e3]
    )

    emit_table(
        f"E9: irregular gather, {P} procs x 64 requests, per step",
        ["variant", "msgs/step", "ms/step"],
        rows,
    )
    # aggregation: at most one message per ordered processor pair
    assert reuse_msgs <= P * (P - 1)
    # versus hundreds of element messages
    assert elem_msgs > 10 * reuse_msgs


def test_e9_schedule_invalidated_by_redistribution():
    """The §1 bookkeeping cost: a DISTRIBUTE forces re-inspection."""
    machine, engine, arr, requests = setup()
    insp = engine.inspector("X")
    sched = insp.inspect(requests)
    insp.gather(sched)
    engine.distribute("X", dist_type("CYCLIC"))
    with pytest.raises(RuntimeError, match="stale"):
        insp.gather(sched)
    # re-inspect and carry on
    sched2 = insp.inspect(requests)
    vals = insp.gather(sched2)
    for p, idx in requests.items():
        assert np.array_equal(vals[p], idx[:, 0].astype(float))


@pytest.mark.parametrize("variant", ["rebuild", "reuse"])
def test_e9_gather_benchmark(benchmark, variant):
    machine, engine, arr, requests = setup()
    insp = engine.inspector("X")
    if variant == "reuse":
        sched = insp.inspect(requests)
        benchmark(insp.gather, sched)
    else:
        def run():
            insp.gather(insp.inspect(requests))

        benchmark(run)
