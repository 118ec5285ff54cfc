"""E7 — explicit DISTRIBUTE vs. implicit procedure-boundary
redistribution vs. two static arrays (§4's alternatives discussion).

Paper claims: redistributing at procedure boundaries "may lead to an
explosion of subroutines which are different only in the distribution
specified for their arguments" and is "awkward ... if there is an
outer iterative loop around the phases"; the array-assignment
alternative "wastes storage space".  HPF-style restore-on-return (§5)
doubles the boundary traffic when the caller continues in the new
phase.

Regenerated series: the ADI phase flip implemented four ways, with
traffic, memory and modeled time per outer iteration.
"""

import numpy as np
import pytest

from conftest import emit_table
from repro.apps.adi import execute_adi
from repro.apps.tridiag import thomas_const
from repro.compiler.codegen import LineSweepKernel
from repro.core.distribution import dist_type
from repro.lang.procedures import FormalArg, Procedure
from repro.machine import Machine, PARAGON, ProcessorArray
from repro.runtime.engine import Engine

N, ITERS, P = 64, 3, 4


def _adi_via_procedures(restore: str):
    """ADI where each sweep is a procedure whose formal declares the
    distribution it wants — the implicit-redistribution style."""
    machine = Machine(ProcessorArray("R", (P,)), cost_model=PARAGON)
    engine = Engine(machine)
    v = engine.declare("V", (N, N), dist=dist_type(":", "BLOCK"), dynamic=True)
    v.from_global(np.random.default_rng(0).standard_normal((N, N)))
    line = lambda x: thomas_const(x, -1.0, 4.0)  # noqa: E731

    sweep_x = Procedure(
        "sweep_x",
        [FormalArg("X", "(:, BLOCK)")],
        lambda e, X: LineSweepKernel(X, 0, line).sweep(),
        restore=restore,
    )
    sweep_y = Procedure(
        "sweep_y",
        [FormalArg("X", "(BLOCK, :)")],
        lambda e, X: LineSweepKernel(X, 1, line).sweep(),
        restore=restore,
    )
    for _ in range(ITERS):
        sweep_x(engine, X=v)
        sweep_y(engine, X=v)
    return machine, v


def test_e7_alternatives_table():
    rows = []

    # (a) explicit DISTRIBUTE (Figure 1)
    machine = Machine(ProcessorArray("R", (P,)), cost_model=PARAGON)
    r = execute_adi(machine, N, N, ITERS, "dynamic", seed=0)
    rows.append(
        ["explicit DISTRIBUTE", r.total_messages,
         r.peak_memory, r.total_time * 1e3]
    )
    explicit_msgs = r.total_messages
    explicit_mem = r.peak_memory

    # (b) procedure boundaries, Vienna Fortran return semantics
    machine_vf, v_vf = _adi_via_procedures("vf")
    s = machine_vf.stats()
    rows.append(
        ["proc boundary (VF)", s.messages,
         max(m.high_water for m in machine_vf.memories),
         machine_vf.time * 1e3]
    )
    vf_msgs = s.messages

    # (c) procedure boundaries, HPF restore-on-return semantics
    machine_hpf, v_hpf = _adi_via_procedures("hpf")
    s = machine_hpf.stats()
    rows.append(
        ["proc boundary (HPF)", s.messages,
         max(m.high_water for m in machine_hpf.memories),
         machine_hpf.time * 1e3]
    )
    hpf_msgs = s.messages

    # (d) two static arrays + assignment
    machine2 = Machine(ProcessorArray("R", (P,)), cost_model=PARAGON)
    r2 = execute_adi(machine2, N, N, ITERS, "two_arrays", seed=0)
    rows.append(
        ["two static arrays", r2.total_messages,
         r2.peak_memory, r2.total_time * 1e3]
    )

    emit_table(
        f"E7: the ADI phase flip four ways (N={N}, {ITERS} iterations)",
        ["approach", "messages", "peak_mem", "ms"],
        rows,
    )

    # VF-return procedure boundaries cost the same traffic as the
    # explicit statement (each phase flip is one redistribution)
    assert vf_msgs == explicit_msgs
    # In a loop HPF's restores replace VF's flip-backs, so the loop
    # amortizes them: HPF pays only the trailing extra restore per
    # iteration pair.  It is still strictly worse.
    assert hpf_msgs > vf_msgs
    # two static arrays double the storage
    assert r2.peak_memory >= 2 * explicit_mem
    # results agree
    assert np.allclose(v_vf.to_global(), v_hpf.to_global())


def test_e7_single_call_hpf_doubles_traffic():
    """Without a surrounding loop the §5 difference is stark: a single
    call that redistributes on entry pays the restore in full — twice
    the traffic of Vienna Fortran's return-the-new-distribution."""
    line = lambda x: thomas_const(x, -1.0, 4.0)  # noqa: E731
    counts = {}
    for restore in ("vf", "hpf"):
        machine = Machine(ProcessorArray("R", (P,)), cost_model=PARAGON)
        engine = Engine(machine)
        v = engine.declare(
            "V", (N, N), dist=dist_type(":", "BLOCK"), dynamic=True
        )
        v.fill(1.0)
        proc = Procedure(
            "sweep_y",
            [FormalArg("X", "(BLOCK, :)")],
            lambda e, X: LineSweepKernel(X, 1, line).sweep(),
            restore=restore,
        )
        proc(engine, X=v)
        counts[restore] = machine.stats().messages
    emit_table(
        "E7: single procedure call, entry redistribution traffic",
        ["semantics", "messages"],
        [["VF (returns new dist)", counts["vf"]],
         ["HPF (restores on exit)", counts["hpf"]]],
    )
    assert counts["hpf"] == 2 * counts["vf"]


def test_e7_subroutine_explosion():
    """§4: one procedure per distribution — count the variants needed
    to cover the distribution types an argument may assume."""
    rows = []
    for n_types in (2, 4, 8):
        # without dynamic distributions: one subroutine per type
        rows.append([n_types, n_types, 1])
    emit_table(
        "E7: subroutine variants needed (static args) vs DYNAMIC (=1)",
        ["arg distribution types", "static variants", "with DYNAMIC"],
        rows,
    )


@pytest.mark.parametrize("restore", ["vf", "hpf"])
def test_e7_procedure_benchmark(benchmark, restore):
    benchmark(_adi_via_procedures, restore)
