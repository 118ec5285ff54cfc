"""Tests for VFProgram-integrated procedure calls."""

import numpy as np
import pytest

from repro.core.dimdist import Block, Cyclic, NoDist
from repro.lang.program import VFProgram
from repro.machine import Machine, ProcessorArray


def make():
    machine = Machine(ProcessorArray("R", (4,)))
    return VFProgram(machine, env={"N": 16})


class TestProgramProcedures:
    def test_body_runs_in_fresh_scope(self):
        prog = make()
        prog.declare("REAL V(N,N) DYNAMIC, DIST (:, BLOCK)")
        seen = {}

        def body(p, X):
            # the callee scope sees the formal name, not the caller's
            assert p.scope.name.startswith("work#")
            seen["X"] = p.array("X")
            # callee-local declarations do not leak
            p.declare("REAL TMP(N) DYNAMIC, DIST (BLOCK)")

        prog.procedure("work", [("X", None)], body)
        prog.call("work", X="V")
        assert seen["X"] is prog.array("V")
        with pytest.raises(KeyError):
            prog.array("TMP")

    def test_formal_distribution_redistributes(self):
        prog = make()
        v = prog.declare("REAL V(N,N) DYNAMIC, DIST (:, BLOCK)")
        v.from_global(np.arange(256.0).reshape(16, 16))

        def body(p, X):
            assert X.dist.dtype.dims == (Block(), NoDist())

        prog.procedure("rows", [("X", "(BLOCK, :)")], body)
        prog.call("rows", X="V")
        # Vienna Fortran semantics: the new distribution returned
        assert v.dist.dtype.dims == (Block(), NoDist())
        assert np.array_equal(v.to_global(), np.arange(256.0).reshape(16, 16))

    def test_hpf_restore(self):
        prog = make()
        v = prog.declare("REAL V(N,N) DYNAMIC, DIST (:, BLOCK)")
        prog.procedure(
            "rows", [("X", "(BLOCK, :)")], lambda p, X: None, restore="hpf"
        )
        prog.call("rows", X="V")
        assert v.dist.dtype.dims == (NoDist(), Block())

    def test_formal_dist_uses_program_env(self):
        prog = make()
        prog.env["K"] = 3
        v = prog.declare("REAL V(N) DYNAMIC, DIST (BLOCK)")
        prog.procedure("c", [("X", "(CYCLIC(K))")], lambda p, X: None)
        prog.call("c", X="V")
        assert v.dist.dtype.dims == (Cyclic(3),)

    def test_unknown_procedure(self):
        prog = make()
        with pytest.raises(KeyError, match="no procedure"):
            prog.call("nope")

    def test_return_value(self):
        prog = make()
        prog.declare("REAL V(N) DYNAMIC, DIST (BLOCK)")
        prog.procedure("get", ["X"], lambda p, X: X.shape)
        assert prog.call("get", X="V") == (16,)

    def test_nested_calls(self):
        prog = make()
        prog.declare("REAL V(N) DYNAMIC, DIST (BLOCK)")
        depth = []

        def inner(p, Y):
            depth.append(p.scope.name)

        def outer(p, X):
            depth.append(p.scope.name)
            p.call2 = None  # noqa: B010 - just exercise nesting below
            prog.call("inner", Y="X")

        prog.procedure("inner", ["Y"], inner)
        prog.procedure("outer", ["X"], outer)
        prog.call("outer", X="V")
        assert len(depth) == 2
        assert depth[0] != depth[1]

