"""Tests for SPMD lowering (stencil + line-sweep kernels)."""

import numpy as np
import pytest

from repro.compiler.codegen import lower_line_sweep, lower_stencil
from repro.core.distribution import dist_type
from repro.machine import IPSC860, Machine, ProcessorArray
from repro.runtime.engine import Engine


def smooth(padded, out, widths):
    w0, w1 = widths
    n0, n1 = out.shape
    out[...] = 0.25 * (
        padded[w0 - 1 : w0 - 1 + n0, w1 : w1 + n1]
        + padded[w0 + 1 : w0 + 1 + n0, w1 : w1 + n1]
        + padded[w0 : w0 + n0, w1 - 1 : w1 - 1 + n1]
        + padded[w0 : w0 + n0, w1 + 1 : w1 + 1 + n1]
    )


def seq_smooth(v):
    p = np.pad(v, 1)
    return 0.25 * (p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:])


class TestStencilKernel:
    def test_matches_sequential(self):
        machine = Machine(ProcessorArray("R", (4,)), cost_model=IPSC860)
        engine = Engine(machine)
        u = engine.declare("U", (16, 16), dist=dist_type("BLOCK", ":"))
        g = np.random.default_rng(0).standard_normal((16, 16))
        u.from_global(g)
        k = lower_stencil(engine, "U", (1, 1), smooth)
        k.step()
        assert np.allclose(u.to_global(), seq_smooth(g))

    def test_multiple_steps(self):
        machine = Machine(ProcessorArray("R", (2, 2)), cost_model=IPSC860)
        engine = Engine(machine)
        u = engine.declare("U", (8, 8), dist=dist_type("BLOCK", "BLOCK"))
        g = np.random.default_rng(1).standard_normal((8, 8))
        u.from_global(g)
        k = lower_stencil(engine, "U", (1, 1), smooth)
        expect = g
        for _ in range(3):
            k.step()
            expect = seq_smooth(expect)
        assert np.allclose(u.to_global(), expect)

    def test_communication_charged(self):
        machine = Machine(ProcessorArray("R", (4,)), cost_model=IPSC860)
        engine = Engine(machine)
        u = engine.declare("U", (16, 16), dist=dist_type("BLOCK", ":"))
        k = lower_stencil(engine, "U", (1, 1), smooth)
        before = machine.stats().messages
        k.step()
        assert machine.stats().messages - before == 6

    @pytest.mark.parametrize("grid, subs, spec", [
        ((2, 4), (1, slice(None)), ("BLOCK", ":")),  # ranks 4-7 of 0-7
        ((4, 2), (slice(0, 4, 2), slice(None)), ("BLOCK", "BLOCK")),
    ], ids=["R(1,:)", "R(0:4:2,:)"])
    def test_matches_sequential_on_a_section(self, grid, subs, spec):
        """A section that excludes ranks exchanges halos between the
        ranks it has (its halo plan used to stop at ``range(size)``, so
        the stencil read boundary fill instead of its neighbours)."""
        procs = ProcessorArray("R", grid)
        engine = Engine(Machine(procs, cost_model=IPSC860))
        u = engine.declare(
            "U", (12, 12), dist=dist_type(*spec), to=procs.section(*subs)
        )
        g = np.random.default_rng(5).standard_normal((12, 12))
        u.from_global(g)
        lower_stencil(engine, "U", (1, 1), smooth).step()
        assert np.allclose(u.to_global(), seq_smooth(g))

    def test_survives_redistribution(self):
        """The kernel rebuilds its overlap manager after a DISTRIBUTE."""
        machine = Machine(ProcessorArray("R", (4,)), cost_model=IPSC860)
        engine = Engine(machine)
        u = engine.declare(
            "U", (16, 16), dist=dist_type("BLOCK", ":"), dynamic=True
        )
        g = np.random.default_rng(2).standard_normal((16, 16))
        u.from_global(g)
        k = lower_stencil(engine, "U", (1, 1), smooth)
        k.step()
        engine.distribute("U", dist_type(":", "BLOCK"))
        k.step()
        assert np.allclose(u.to_global(), seq_smooth(seq_smooth(g)))


class TestLineSweepKernel:
    def line_negate(self, v):
        return -v

    def test_local_sweep_no_messages(self):
        machine = Machine(ProcessorArray("R", (4,)), cost_model=IPSC860)
        engine = Engine(machine)
        v = engine.declare("V", (8, 8), dist=dist_type(":", "BLOCK"))
        g = np.arange(64, dtype=float).reshape(8, 8)
        v.from_global(g)
        k = lower_line_sweep(engine, "V", 0, self.line_negate)
        stats = k.sweep()
        assert stats["remote_lines"] == 0
        assert machine.stats().messages == 0
        assert np.array_equal(v.to_global(), -g)

    def test_distributed_sweep_costs_messages(self):
        machine = Machine(ProcessorArray("R", (4,)), cost_model=IPSC860)
        engine = Engine(machine)
        v = engine.declare("V", (8, 8), dist=dist_type("BLOCK", ":"))
        g = np.arange(64, dtype=float).reshape(8, 8)
        v.from_global(g)
        k = lower_line_sweep(engine, "V", 0, self.line_negate)
        stats = k.sweep()
        assert stats["remote_lines"] == 8
        # per line: 3 gathers + 3 scatters
        assert machine.stats().messages == 8 * 6
        assert np.array_equal(v.to_global(), -g)

    def test_cumsum_line_order_preserved(self):
        """A recurrence along the line (like TRIDIAG) needs the whole
        line in order — verify gather preserves element order."""
        machine = Machine(ProcessorArray("R", (4,)))
        engine = Engine(machine)
        v = engine.declare("V", (8, 4), dist=dist_type("BLOCK", ":"))
        g = np.random.default_rng(3).standard_normal((8, 4))
        v.from_global(g)
        k = lower_line_sweep(engine, "V", 0, np.cumsum)
        k.sweep()
        assert np.allclose(v.to_global(), np.cumsum(g, axis=0))

    def test_dim_validation(self):
        machine = Machine(ProcessorArray("R", (4,)))
        engine = Engine(machine)
        engine.declare("V", (8, 8), dist=dist_type(":", "BLOCK"))
        with pytest.raises(ValueError):
            lower_line_sweep(engine, "V", 2, self.line_negate)

    def test_sweep_along_dim1(self):
        machine = Machine(ProcessorArray("R", (4,)))
        engine = Engine(machine)
        v = engine.declare("V", (8, 8), dist=dist_type("BLOCK", ":"))
        g = np.random.default_rng(4).standard_normal((8, 8))
        v.from_global(g)
        k = lower_line_sweep(engine, "V", 1, np.cumsum)
        stats = k.sweep()
        assert stats["remote_lines"] == 0  # dim 1 is local here
        assert np.allclose(v.to_global(), np.cumsum(g, axis=1))


class TestVectorizedSweepPlans:
    """PR-4: plan caching and batched solvers in the lowered kernels."""

    def test_shift_plan_cached_across_stencil_steps(self):
        machine = Machine(ProcessorArray("R", (4,)), cost_model=IPSC860)
        engine = Engine(machine)
        u = engine.declare("U", (16, 16), dist=dist_type("BLOCK", ":"))
        u.from_global(np.zeros((16, 16)))
        kernel = lower_stencil(engine, "U", (1, 1), smooth)
        assert kernel.plan_cache is engine.plan_cache
        kernel.step()
        s1 = engine.plan_cache.stats()
        assert s1["shift_plans"] == 2  # one per haloed dimension
        kernel.step()
        s2 = engine.plan_cache.stats()
        assert s2["shift_plans"] == 2
        assert s2["hits"] > s1["hits"]  # second step reused the plan

    def test_sweep_plan_cached_across_sweeps(self):
        from repro.apps.tridiag import thomas_const
        from functools import partial

        machine = Machine(ProcessorArray("R", (4,)), cost_model=IPSC860)
        engine = Engine(machine)
        v = engine.declare("V", (12, 6), dist=dist_type("BLOCK", ":"))
        v.from_global(np.linspace(0, 1, 72).reshape(12, 6))
        kernel = lower_line_sweep(
            engine, "V", 0, partial(thomas_const, a=-1.0, b=4.0)
        )
        kernel.sweep()
        assert engine.plan_cache.stats()["sweep_plans"] == 1
        before = engine.plan_cache.stats()["hits"]
        kernel.sweep()
        assert engine.plan_cache.stats()["sweep_plans"] == 1
        assert engine.plan_cache.stats()["hits"] > before

    def test_batched_line_solver_unwraps_partial(self):
        from functools import partial

        from repro.apps.tridiag import thomas_const, thomas_const_batch
        from repro.compiler.codegen import batched_line_solver

        line = partial(thomas_const, a=-1.0, b=4.0)
        batched = batched_line_solver(line)
        assert batched is not None
        rows = np.linspace(-1, 1, 24).reshape(4, 6)
        got = batched(rows)
        want = np.stack([thomas_const(r, -1.0, 4.0) for r in rows])
        assert np.array_equal(got, want)
        assert batched_line_solver(seq_smooth) is None

    def test_batched_thomas_bitwise_equals_scalar(self):
        from repro.apps.tridiag import thomas_const, thomas_const_batch

        rng = np.random.default_rng(3)
        rows = rng.normal(size=(7, 11))
        got = thomas_const_batch(rows, -0.5, 3.0)
        want = np.stack([thomas_const(r, -0.5, 3.0) for r in rows])
        assert got.tobytes() == want.tobytes()

    def test_local_sweep_is_one_batched_solve(self):
        """In one process the lines of every owner are one batch: the
        whole-batch solver runs once per sweep, on all of them (it ran
        once per owner, four times here)."""
        from repro.apps.tridiag import thomas_const, thomas_const_batch

        shapes = []

        def line(values):
            return thomas_const(values, -1.0, 4.0)

        def batched(rows):
            shapes.append(rows.shape)
            return thomas_const_batch(rows, -1.0, 4.0)

        line.batched = batched
        machine = Machine(ProcessorArray("R", (4,)), cost_model=IPSC860)
        engine = Engine(machine)
        v = engine.declare("V", (12, 8), dist=dist_type(":", "BLOCK"))
        g = np.random.default_rng(6).standard_normal((12, 8))
        v.from_global(g)
        stats = lower_line_sweep(engine, "V", 0, line).sweep()
        assert shapes == [(8, 12)]
        assert stats == {"lines": 8, "remote_lines": 0}
        want = np.stack([thomas_const(col, -1.0, 4.0) for col in g.T]).T
        assert v.to_global().tobytes() == want.tobytes()

    def test_engineless_kernel_uses_its_machines_store(self):
        """A kernel built without an engine looks its plans up in the
        store of its array's machine, and two machines do not share
        one: the same sweep on a second machine is a miss there."""
        from functools import partial

        from repro.apps.tridiag import thomas_const
        from repro.compiler.codegen import LineSweepKernel, StencilKernel

        machines = [
            Machine(ProcessorArray("R", (4,)), cost_model=IPSC860)
            for _ in range(2)
        ]
        assert machines[0].plans is not machines[1].plans
        for machine in machines:
            v = Engine(machine).declare(
                "V", (12, 6), dist=dist_type("BLOCK", ":"))
            v.from_global(np.zeros((12, 6)))
            kernel = LineSweepKernel(v, 0, partial(thomas_const, a=-1.0, b=4.0))
            kernel.sweep()
            kernel.sweep()
            stats = machine.plans.stats()
            assert (stats["sweep_plans"], stats["misses"], stats["hits"]) == (1, 1, 1)
            assert StencilKernel(v, (1, 1), smooth).plan_cache is machine.plans
