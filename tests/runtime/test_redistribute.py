"""Tests for the DISTRIBUTE implementation (paper §3.2.2)."""

import numpy as np
import pytest

from repro.backend.plan import oracle_matrix
from repro.core.dimdist import Cyclic, GenBlock, Replicated
from repro.core.distribution import dist_type
from repro.machine import Machine, PARAGON, ProcessorArray
from repro.runtime.engine import Engine
from repro.runtime.redistribute import communicate, transfer_matrix

P4 = ProcessorArray("R", (4,))


def bind(t, shape=(8, 8)):
    return t.apply(shape, P4)


class TestTransferMatrix:
    def test_identity_redistribution_moves_nothing(self):
        d = bind(dist_type("BLOCK", ":"))
        T = transfer_matrix(d, d, 4)
        assert T.sum() == 0

    def test_diagonal_always_zero(self):
        old = bind(dist_type("BLOCK", ":"))
        new = bind(dist_type(Cyclic(1), ":"))
        T = transfer_matrix(old, new, 4)
        assert (np.diag(T) == 0).all()

    def test_block_to_cyclic_counts(self):
        old = bind(dist_type("BLOCK"), (8,))
        new = bind(dist_type(Cyclic(1)), (8,))
        T = transfer_matrix(old, new, 4)
        # owner maps: block [0,0,1,1,2,2,3,3], cyclic [0,1,2,3,0,1,2,3];
        # indices 0 and 5 stay put, the other 6 move
        assert T.sum() == 6
        assert (T == oracle_matrix(old, new, 4)).all()

    @pytest.mark.parametrize(
        "old_t,new_t,shape",
        [
            (dist_type("BLOCK", ":"), dist_type(":", "BLOCK"), (8, 8)),
            (dist_type("BLOCK", ":"), dist_type(Cyclic(1), ":"), (8, 8)),
            (dist_type(Cyclic(2), ":"), dist_type(Cyclic(3), ":"), (12, 4)),
            (
                dist_type(GenBlock([1, 3, 2, 2]), ":"),
                dist_type("BLOCK", ":"),
                (8, 8),
            ),
        ],
    )
    def test_vectorized_matches_naive(self, old_t, new_t, shape):
        """The E4 ablation invariant: per-dimension plan == the
        flattened rank-map oracle."""
        old, new = bind(old_t, shape), bind(new_t, shape)
        T_fast = transfer_matrix(old, new, 4)
        T_slow = oracle_matrix(old, new, 4)
        assert (T_fast == T_slow).all()

    def test_replication_fanout(self):
        old = bind(dist_type("BLOCK"), (8,))
        new = bind(dist_type(Replicated()), (8,))
        T = transfer_matrix(old, new, 4)
        # every element goes to the 3 other processors
        assert T.sum() == 8 * 3
        assert (T == oracle_matrix(old, new, 4)).all()

    def test_domain_mismatch_rejected(self):
        old = bind(dist_type("BLOCK"), (8,))
        new = bind(dist_type("BLOCK"), (9,))
        with pytest.raises(ValueError):
            transfer_matrix(old, new, 4)


class TestCommunicate:
    def setup_method(self):
        self.machine = Machine(P4, cost_model=PARAGON)
        self.engine = Engine(self.machine)
        self.arr = self.engine.declare(
            "V", (8, 8), dist=dist_type("BLOCK", ":"), dynamic=True
        )
        self.data = np.arange(64, dtype=float).reshape(8, 8)
        self.arr.from_global(self.data)

    def test_data_preserved(self):
        communicate(self.arr, bind(dist_type(":", "BLOCK")))
        assert np.array_equal(self.arr.to_global(), self.data)

    def test_descriptor_updated(self):
        communicate(self.arr, bind(dist_type(":", "BLOCK")))
        assert self.arr.dist.dtype == dist_type(":", "BLOCK")

    def test_messages_aggregated_per_pair(self):
        rep = communicate(self.arr, bind(dist_type(":", "BLOCK")))
        T = transfer_matrix(
            bind(dist_type("BLOCK", ":")), bind(dist_type(":", "BLOCK")), 4
        )
        assert rep.messages == int((T > 0).sum())

    def test_report_volume(self):
        rep = communicate(self.arr, bind(dist_type(":", "BLOCK")))
        assert rep.bytes == rep.elements_moved * 8
        assert rep.elements_moved + rep.elements_kept == 64

    def test_identity_redistribution_free(self):
        rep = communicate(self.arr, bind(dist_type("BLOCK", ":")))
        assert rep.messages == 0
        assert rep.bytes == 0
        assert rep.elements_kept == 64

    def test_notransfer_skips_motion(self):
        rep = communicate(
            self.arr, bind(dist_type(":", "BLOCK")), transfer=False
        )
        assert rep.messages == 0
        assert self.arr.dist.dtype == dist_type(":", "BLOCK")
        # values are undefined but segments exist with the right shape
        assert self.arr.local(0).shape == (8, 2)

    def test_clock_advances(self):
        t0 = self.machine.time
        communicate(self.arr, bind(dist_type(":", "BLOCK")))
        assert self.machine.time > t0

    def test_version_bumped(self):
        v = self.arr.version
        communicate(self.arr, bind(dist_type(":", "BLOCK")))
        assert self.arr.version == v + 1

    def test_chained_redistributions_preserve_data(self):
        for t in (
            dist_type(":", "BLOCK"),
            dist_type(Cyclic(1), ":"),
            dist_type(Cyclic(3), ":"),
            dist_type(GenBlock([1, 3, 2, 2]), ":"),
            dist_type("BLOCK", ":"),
        ):
            communicate(self.arr, bind(t))
            assert np.array_equal(self.arr.to_global(), self.data)


class TestBBlockRedistribution:
    """The PIC pattern: regular BLOCK -> B_BLOCK(BOUNDS)."""

    def test_bblock_moves_only_boundary_cells(self):
        machine = Machine(P4)
        engine = Engine(machine)
        arr = engine.declare("F", (8,), dist=dist_type("BLOCK"), dynamic=True)
        arr.from_global(np.arange(8.0))
        # shift one cell from proc 0's block to proc 1's
        rep = communicate(arr, bind(dist_type(GenBlock([1, 3, 2, 2])), (8,)))
        assert rep.elements_moved == 1
        assert np.array_equal(arr.to_global(), np.arange(8.0))


class TestBruteforceIsolation:
    """The flattened rank-map planner (``transfer_plan``) is the oracle
    of the E4 bench, ``repro.perf`` and the tests — no production path
    (communicate, the planner's cost engines, anything
    PlanCache-mediated) plans per element or asks for an N-element
    ``rank_map``."""

    def test_production_paths_never_call_bruteforce(self, monkeypatch):
        import repro.backend.plan as plan_mod
        from repro.core.distribution import Distribution

        def _forbidden(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("per-element planning on a production path")

        monkeypatch.setattr(plan_mod, "transfer_plan", _forbidden)
        monkeypatch.setattr(Distribution, "rank_map", _forbidden)

        # 1. the run time: DISTRIBUTE through the engine (PlanCache path)
        machine = Machine(P4, cost_model=PARAGON)
        engine = Engine(machine)
        arr = engine.declare(
            "V", (8, 8), dist=dist_type("BLOCK", ":"), dynamic=True
        )
        arr.from_global(np.arange(64.0).reshape(8, 8))
        engine.distribute("V", dist_type(":", "BLOCK"))

        # 2. direct communicate, on the machine's store and a fresh one
        from repro.runtime.redistribute import PlanCache

        communicate(arr, bind(dist_type("CYCLIC", ":")))
        machine.plans = PlanCache()
        communicate(arr, bind(dist_type("BLOCK", ":")))
        assert np.array_equal(arr.to_global(), np.arange(64.0).reshape(8, 8))

        # 3. the planner's cost engines (model and simulated pricing)
        from repro.planner import CostEngine, SimulatedCostEngine

        old, new = bind(dist_type("BLOCK", ":")), bind(dist_type(":", "BLOCK"))
        CostEngine(machine).transition_cost(old, new)
        SimulatedCostEngine(machine).transition_cost(old, new)

        # 4. a full planning run
        from repro.planner import adi_workload, plan_workload

        plan_workload(adi_workload(16, 16, iterations=2, nprocs=4))
