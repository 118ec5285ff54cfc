"""End-to-end reproductions of Figure 1 (ADI) and Figure 2 (PIC)
written through the surface-syntax layer, plus cross-layer checks
between the compiler's predictions and the runtime's measurements.
"""

import numpy as np
import pytest

from repro.apps.adi import adi_reference
from repro.apps.pic import PICConfig, execute_pic
from repro.apps.tridiag import thomas_const
from repro.compiler.codegen import LineSweepKernel
from repro.compiler.comm_analysis import estimate_ref
from repro.compiler.ir import AccessKind, ArrayRef
from repro.core.query import TypePattern
from repro.lang import VFProgram, parse_processors
from repro.machine import Machine, PARAGON


class TestFigure1Verbatim:
    """The Figure 1 code fragment, transcribed statement by statement."""

    def test_adi_fragment(self):
        NX = NY = 24
        machine = Machine(parse_processors("P(1:4)"), cost_model=PARAGON)
        prog = VFProgram(machine, env={"NX": NX, "NY": NY})

        prog.declare("REAL U(NX, NY) DIST (:, BLOCK)")
        prog.declare("REAL F(NX, NY) DIST (:, BLOCK)")
        v = prog.declare(
            "REAL V(NX, NY) DYNAMIC, RANGE ((:, BLOCK), (BLOCK, :)), "
            "DIST (:, BLOCK)"
        )

        rng = np.random.default_rng(0)
        grid = rng.standard_normal((NX, NY))
        v.from_global(grid)

        line = lambda x: thomas_const(x, -1.0, 4.0)  # noqa: E731

        # C Sweep over x-lines: DO J = 1, NY; CALL TRIDIAG(V(:, J), NX)
        before = machine.stats().messages
        LineSweepKernel(v, 0, line).sweep()
        assert machine.stats().messages == before  # communication-free

        # DISTRIBUTE V :: (BLOCK, :)
        prog.distribute("V", "(BLOCK, :)")

        # C Sweep over y-lines: DO I = 1, NX; CALL TRIDIAG(V(I, :), NY)
        before = machine.stats().messages
        LineSweepKernel(v, 1, line).sweep()
        assert machine.stats().messages == before  # still local

        ref = adi_reference(grid, 1, -1.0, 4.0)
        assert np.allclose(v.to_global(), ref)

    def test_range_forbids_other_distributions(self):
        machine = Machine(parse_processors("P(1:4)"), cost_model=PARAGON)
        prog = VFProgram(machine, env={"NX": 16, "NY": 16})
        prog.declare(
            "REAL V(NX, NY) DYNAMIC, RANGE ((:, BLOCK), (BLOCK, :)), "
            "DIST (:, BLOCK)"
        )
        with pytest.raises(ValueError, match="RANGE"):
            prog.distribute("V", "(CYCLIC, :)")


class TestFigure2Verbatim:
    """Figure 2's B_BLOCK(BOUNDS) redistribution via the parser."""

    def test_bblock_distribute_statement(self):
        machine = Machine(parse_processors("P(1:4)"), cost_model=PARAGON)
        prog = VFProgram(machine, env={"NCELL": 16, "NPART": 4})
        field = prog.declare(
            "REAL FIELD(NCELL, NPART) DYNAMIC, DIST (BLOCK, :)"
        )
        # balance() computed BOUNDS; splice through the env
        prog.env["BOUNDS"] = [2, 6, 6, 2]
        prog.distribute("FIELD", "(B_BLOCK(BOUNDS), :)")
        assert field.dist.local_shape(0) == (2, 4)
        assert field.dist.local_shape(1) == (6, 4)


class TestCompilerRuntimeAgreement:
    """The comm analysis (§3.1) must predict what the runtime does."""

    def test_sweep_estimates_match_measured_messages(self):
        n, p = 32, 4
        machine = Machine(parse_processors("P(1:4)"), cost_model=PARAGON)
        prog = VFProgram(machine, env={"N": n})
        v = prog.declare("REAL V(N, N) DYNAMIC, DIST (BLOCK, :)")
        v.from_global(np.zeros((n, n)))

        # compiler's prediction for a sweep along distributed dim 0
        ref = ArrayRef("V", AccessKind.ROW_SWEEP, dim=0)
        est = estimate_ref(ref, TypePattern(("BLOCK", ":")), (n, n), (p,))

        before = machine.stats().messages
        LineSweepKernel(v, 0, lambda x: x).sweep()
        measured = machine.stats().messages - before
        assert measured == est.messages

    def test_local_sweep_predicted_and_measured_free(self):
        n, p = 32, 4
        machine = Machine(parse_processors("P(1:4)"), cost_model=PARAGON)
        prog = VFProgram(machine, env={"N": n})
        v = prog.declare("REAL V(N, N) DYNAMIC, DIST (:, BLOCK)")
        v.from_global(np.zeros((n, n)))
        ref = ArrayRef("V", AccessKind.ROW_SWEEP, dim=0)
        est = estimate_ref(ref, TypePattern((":", "BLOCK")), (n, n), (p,))
        assert est.messages == 0
        before = machine.stats().messages
        LineSweepKernel(v, 0, lambda x: x).sweep()
        assert machine.stats().messages == before


class TestPICIntegration:
    def test_figure2_over_many_seeds(self):
        """The rebalancing advantage is robust, not a seed artifact."""
        wins = 0
        for seed in range(5):
            cfg = dict(ncell=48, npart=1200, max_time=30, nprocs=4, seed=seed)
            rb = execute_pic(
                Machine(parse_processors("P(1:4)"), cost_model=PARAGON),
                PICConfig(strategy="bblock", **cfg),
            )
            rs = execute_pic(
                Machine(parse_processors("P(1:4)"), cost_model=PARAGON),
                PICConfig(strategy="static", **cfg),
            )
            if rb.mean_imbalance < rs.mean_imbalance:
                wins += 1
        assert wins >= 4
