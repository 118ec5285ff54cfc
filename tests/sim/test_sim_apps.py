"""End-to-end acceptance: all four §4 applications through the
simulator, plus the ``repro trace`` / ``--json`` CLI surfaces."""

import json

import pytest

from repro.machine import Machine, PARAGON, ProcessorArray
from repro.sim import EventLog, record, simulate


def _trace(app: str):
    m_kw = dict(cost_model=PARAGON)
    log = EventLog()
    if app == "adi":
        from repro.apps.adi import execute_adi

        machine = Machine(ProcessorArray("R", (4,)), **m_kw)
        with record(machine, log):
            execute_adi(machine, 24, 24, 2, strategy="dynamic", seed=0)
    elif app == "smoothing":
        from repro.apps.smoothing import execute_smoothing

        machine = Machine((4,), **m_kw)
        with record(machine, log):
            execute_smoothing(
                24, 4, "columns", 4, PARAGON, seed=0, machine=machine
            )
    elif app == "pic":
        from repro.apps.pic import PICConfig, execute_pic

        machine = Machine(ProcessorArray("P", (4,)), **m_kw)
        with record(machine, log):
            execute_pic(
                machine,
                PICConfig(
                    strategy="bblock", ncell=32, npart=256, max_time=5,
                    nprocs=4, seed=0,
                ),
            )
    else:
        from repro.apps.irregular import make_mesh, run_relaxation

        machine = Machine(ProcessorArray("P", (4,)), **m_kw)
        with record(machine, log):
            run_relaxation(
                machine, make_mesh(96, seed=0), "partitioned",
                sweeps=3, seed=0,
            )
    return machine, log


APPS = ("adi", "smoothing", "pic", "irregular")


@pytest.mark.parametrize("app", APPS)
class TestAppTraces:
    def test_blocking_reproduces_aggregate_accounting_bitwise(self, app):
        machine, log = _trace(app)
        tl = simulate(log, machine.cost_model, machine.nprocs)
        assert tl.clocks == machine.network.clocks
        assert tl.makespan == machine.time

    def test_split_phase_never_slower(self, app):
        machine, log = _trace(app)
        blocking = simulate(log, machine.cost_model, machine.nprocs)
        split = simulate(
            log, machine.cost_model, machine.nprocs, overlap=True
        )
        assert split.makespan <= blocking.makespan * (1 + 1e-9)

    def test_recorded_message_count_matches_machine(self, app):
        machine, log = _trace(app)
        assert len(log.messages()) == machine.stats().messages


def test_multiprocess_backend_trace_is_bitwise_identical():
    """The backend seam: SPMD backends drive the same master-side
    accounting, so a recorded trace replays bitwise regardless of
    which backend physically moved the data."""
    from repro.apps.adi import execute_adi
    from repro.backend import attached_backend

    machine = Machine(ProcessorArray("R", (2,)), cost_model=PARAGON)
    log = EventLog()
    with record(machine, log), attached_backend(machine, "multiprocess"):
        execute_adi(machine, 16, 16, 1, "dynamic", seed=0)
    tl = simulate(log, machine.cost_model, machine.nprocs)
    assert tl.clocks == machine.network.clocks
    assert len(log.messages()) == machine.stats().messages


def test_split_phase_strictly_reduces_on_adi_and_smoothing():
    for app in ("adi", "smoothing"):
        machine, log = _trace(app)
        blocking = simulate(log, machine.cost_model, machine.nprocs)
        split = simulate(
            log, machine.cost_model, machine.nprocs, overlap=True
        )
        assert split.makespan < blocking.makespan, app


class TestTraceCli:
    @pytest.mark.parametrize("app", APPS)
    def test_trace_smoke(self, app, capsys):
        from repro.__main__ import main

        main(
            ["trace", app, "--nprocs", "4", "--size", "24",
             "--iterations", "1", "--steps", "3", "--width", "48"]
        )
        out = capsys.readouterr().out
        assert "matches aggregate accounting bit for bit: True" in out
        assert "split-phase" in out and "critical path" in out

    def test_trace_json(self, capsys):
        from repro.__main__ import main

        main(["trace", "smoothing", "--size", "16", "--steps", "2",
              "--json", "--compact"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["matches_aggregate_accounting"] is True
        b = doc["blocking"]["metrics"]["makespan"]
        s = doc["split_phase"]["metrics"]["makespan"]
        assert s <= b
        assert "processors" not in doc["blocking"]  # --compact

    def test_trace_json_full_intervals(self, capsys):
        from repro.__main__ import main

        main(["trace", "irregular", "--size", "64", "--steps", "2",
              "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["blocking"]["processors"]) == 4


class TestRunPlanJsonCli:
    def test_run_json(self, capsys):
        from repro.__main__ import main

        main(["run", "smoothing", "--size", "16", "--steps", "2",
              "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["workload"] == "smoothing"
        assert doc["backend"] == "serial"
        # headline metrics live in their own object since the v1.5
        # session facade (workload-controlled names cannot collide
        # with the fixed report fields)
        assert doc["headline"]["modeled_time_ms"] > 0
        assert doc["modeled_time_s"] > 0

    def test_plan_json(self, capsys):
        from repro.__main__ import main

        main(["plan", "adi", "--iterations", "2", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["cost_mode"] == "model"
        assert doc["plan"]["steps"]
        assert doc["plan"]["total_cost"] >= 0

    def test_plan_json_simulated_mode(self, capsys):
        from repro.__main__ import main

        main(["plan", "adi", "--iterations", "2", "--json",
              "--cost-mode", "simulated"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["cost_mode"] == "simulated"
        assert doc["plan"]["total_cost"] >= 0
