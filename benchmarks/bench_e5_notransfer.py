"""E5 — the NOTRANSFER attribute (§2.4, §3.2.2).

Paper claim: "If A is a member of NOTRANSFER, then only the access
function for A is changed and the elements of the array are not
physically moved" — a descriptor-only update, useful when the values
will be overwritten before being read.

Regenerated series: redistribute a primary with k connected
secondaries, with and without NOTRANSFER, and show the traffic saved.
"""

import pytest

from conftest import emit_table
from repro.core.distribution import dist_type
from repro.core.dynamic import DynamicAttr, Extraction
from repro.machine import Machine, PARAGON, ProcessorArray
from repro.runtime.engine import Engine

R = ProcessorArray("R", (4,))
N = 128


def build(n_secondaries):
    machine = Machine(R, cost_model=PARAGON)
    engine = Engine(machine)
    engine.declare(
        "B", (N, 8), dynamic=DynamicAttr(initial=dist_type("BLOCK", ":"))
    )
    for i in range(n_secondaries):
        engine.declare(
            f"A{i}", (N, 8), dynamic=True, connect=("B", Extraction())
        )
    return machine, engine


def test_e5_notransfer_saves_motion():
    rows = []
    for k in (1, 2, 4):
        # full transfer
        machine, engine = build(k)
        engine.distribute("B", dist_type(":", "BLOCK"))
        full = machine.stats()
        # NOTRANSFER on all secondaries
        machine2, engine2 = build(k)
        engine2.distribute(
            "B",
            dist_type(":", "BLOCK"),
            notransfer=[f"A{i}" for i in range(k)],
        )
        nt = machine2.stats()
        rows.append(
            [k, full.messages, full.bytes, nt.messages, nt.bytes,
             1 - nt.bytes / full.bytes]
        )
        # descriptor still updated for every member
        for i in range(k):
            assert engine2.arrays[f"A{i}"].dist.dtype == dist_type(":", "BLOCK")
        # traffic reduced to the primary's share alone
        assert nt.bytes * (k + 1) == full.bytes * 1
    emit_table(
        "E5: NOTRANSFER on k extraction-connected secondaries (N=128)",
        ["k", "full_msgs", "full_bytes", "nt_msgs", "nt_bytes", "saved"],
        rows,
    )


def test_e5_time_saved():
    machine, engine = build(4)
    t0 = machine.time
    engine.distribute("B", dist_type(":", "BLOCK"))
    t_full = machine.time - t0

    machine2, engine2 = build(4)
    t0 = machine2.time
    engine2.distribute(
        "B", dist_type(":", "BLOCK"), notransfer=[f"A{i}" for i in range(4)]
    )
    t_nt = machine2.time - t0
    emit_table(
        "E5: modeled redistribution time with/without NOTRANSFER",
        ["variant", "ms"],
        [["full", t_full * 1e3], ["notransfer", t_nt * 1e3]],
    )
    assert t_nt < t_full


@pytest.mark.parametrize("notransfer", [False, True], ids=["full", "notransfer"])
def test_e5_benchmark(benchmark, notransfer):
    def run():
        machine, engine = build(2)
        engine.distribute(
            "B",
            dist_type(":", "BLOCK"),
            notransfer=["A0", "A1"] if notransfer else [],
        )

    benchmark(run)
