"""Two ``run()``s on one multiprocess session, with and without faults.

A worker fleet that outlives a stage can silently change what the
*second* stage of a session sees: op sequence numbers, per-link message
ordinals, the latched fault plan and the allocation counter are all
coordinates fault plans address, and every one of them used to restart
because the whole fleet did.  ``fixtures/fleet_session_pin.json`` was
recorded on the tree that still forked a fleet per ``run()`` (run this
file as a script to re-record): for every registered workload at
smoke sizes on ``nprocs`` 2 and 4, two consecutive runs on
one session under each fault scenario — what ran, what it computed,
what it cost, how many fleet restarts it took and whether the session
ended up poisoned.  The second run seeing exactly what the first saw
is the property; the fixture makes it a number per cell.
"""

import json
from pathlib import Path

import pytest

import repro
from repro.api import REGISTRY
from repro.backend import MultiprocessBackend
from repro.faults import (
    FaultPlan,
    KernelStall,
    ShmAllocFailure,
    TransportDelay,
    TransportDrop,
    WorkerCrash,
    activate,
    deactivate,
)
from repro.obs import metrics as obs_metrics

PIN_PATH = Path(__file__).parent / "fixtures" / "fleet_session_pin.json"
NPROCS = (2, 4)
SMOKE = {"size": 12, "iterations": 2, "steps": 4}
RESTARTS = "repro_backend_fleet_restarts_total"


class Watchful(MultiprocessBackend):
    """Hang detection on: a stalled worker is replaced at ~0.3 s."""

    def __init__(self):
        super().__init__(timeout=20.0, hang_timeout=0.3)


class Impatient(MultiprocessBackend):
    """A dropped message costs half a second, not two minutes."""

    def __init__(self):
        super().__init__(timeout=0.5)


#: scenario -> (session backend spec, fault plan or None)
SCENARIOS = {
    "clean": ("multiprocess", None),
    **{
        f"crash@{k}": ("multiprocess", FaultPlan([WorkerCrash(rank=1, at_op=k)]))
        for k in range(2, 7)
    },
    "stall": (Watchful, FaultPlan([KernelStall(rank=0, at_op=3, seconds=5.0)])),
    "delay": ("multiprocess", FaultPlan(
        [TransportDelay(src=0, dst=1, seconds=0.001, last=16)])),
    "drop": (Impatient, FaultPlan([TransportDrop(src=0, dst=1, at_message=1)])),
    "shm": ("multiprocess", FaultPlan([ShmAllocFailure(at_alloc=1)])),
}


def measure(name: str, nprocs: int, scenario: str) -> list[dict]:
    """Both runs of one cell, in order."""
    backend, plan = SCENARIOS[scenario]
    params = REGISTRY.get(name).accepted(SMOKE)
    deactivate()
    was_on = obs_metrics.set_enabled(True)
    restarts = obs_metrics.counter(RESTARTS, labelnames=("cause",))
    runs = []
    try:
        if plan is not None:
            # left active across both runs: each attach latches it afresh
            activate(plan)
        with repro.session(nprocs=nprocs, backend=backend, seed=0) as sess:
            handle = sess.workload(name, **params)
            for _ in range(2):
                before = restarts.total()
                run = handle.run()
                runs.append({
                    "backend": run.backend,
                    "solution_sha256": run.solution_digest(),
                    "messages": run.messages,
                    "bytes": run.bytes,
                    "time": run.time,
                    "fleet_restarts": int(restarts.total() - before),
                    "poisoned": sess.poisoned,
                })
    finally:
        deactivate()
        obs_metrics.set_enabled(was_on)
    return runs


PIN = json.loads(PIN_PATH.read_text()) if PIN_PATH.exists() else {"cells": {}}


@pytest.mark.parametrize("cell", sorted(PIN["cells"]))
def test_cell_reproduces_the_pin(cell):
    name, nprocs, scenario = cell.split("/")
    assert measure(name, int(nprocs), scenario) == PIN["cells"][cell]


def test_pin_covers_every_workload_and_scenario():
    assert set(PIN["cells"]) == {
        f"{name}/{nprocs}/{scenario}"
        for name in REGISTRY.names()
        for nprocs in NPROCS
        for scenario in SCENARIOS
    }


def test_second_run_sees_what_the_first_saw():
    """The property itself, read off the pin: within every cell the two
    runs agree on everything but ``poisoned`` (which latches)."""
    for cell, (first, second) in PIN["cells"].items():
        assert {**first, "poisoned": None} == {**second, "poisoned": None}, cell
    crashed = [c for c, (first, _) in PIN["cells"].items()
               if first["fleet_restarts"]]
    assert any(c.endswith("crash@3") for c in crashed)
    assert any(c.endswith("stall") for c in crashed)


if __name__ == "__main__":  # re-record the pin (on the tree to pin)
    PIN_PATH.write_text(json.dumps({
        "recorded": (
            "on b033c2c, the parent of PR 18 (a fleet per run()), by "
            "running this file as a script: measure(name, nprocs, "
            "scenario) = two consecutive run()s on one multiprocess "
            "session at smoke sizes"
        ),
        "cells": {
            f"{name}/{nprocs}/{scenario}": measure(name, nprocs, scenario)
            for name in REGISTRY.names()
            for nprocs in NPROCS
            for scenario in SCENARIOS
        },
    }, indent=1, sort_keys=True) + "\n")
