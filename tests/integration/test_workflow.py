"""A complete user-session workflow exercising every layer together.

The scenario: an adaptive simulation whose working array is declared
DYNAMIC with a RANGE, initially distributed by a *generator* from
run-time weights; the program dispatches its kernel with DCASE, calls
a procedure whose formal forces a redistribution, rebalances with
B_BLOCK when a load check fires, and reads the machine reports at the
end.  Every interaction crosses at least two subpackages.
"""

import numpy as np
import pytest

from repro.apps.load_balance import balance_greedy, imbalance
from repro.core.dimdist import Block, GenBlock, NoDist
from repro.core.distribution import DistributionType, dist_type
from repro.core.dynamic import DynamicAttr
from repro.core.generators import get_generator
from repro.lang.procedures import FormalArg, Procedure
from repro.machine import Machine, PARAGON, ProcessorArray
from repro.runtime.engine import Engine


@pytest.fixture
def session():
    machine = Machine(ProcessorArray("R", (4,)), cost_model=PARAGON, trace=True)
    engine = Engine(machine)
    return machine, engine


class TestWorkflow:
    def test_full_session(self, session):
        machine, engine = session
        n = 64

        # 1. run-time weights drive the initial distribution
        rng = np.random.default_rng(0)
        weights = np.exp(rng.normal(0, 1.2, n))
        gen = get_generator("weighted_block")
        dd = gen(n, 4, weights=weights)
        assert isinstance(dd, GenBlock)

        work = engine.declare(
            "WORK",
            (n, 8),
            dynamic=DynamicAttr(
                # RANGE ((B_BLOCK(*)...), (BLOCK, :), (*, :))
                range_=[(GenBlock(dd.sizes), ":"), ("BLOCK", ":"), ("*", ":")],
            ),
        )
        engine.distribute("WORK", DistributionType((dd, NoDist())))
        data = rng.standard_normal((n, 8))
        work.from_global(data)

        # initial balance is good
        assert imbalance(weights, list(dd.sizes)) < imbalance(
            weights, [16, 16, 16, 16]
        )

        # 2. DCASE dispatches on the actual distribution
        dc = engine.dcase("WORK")
        chosen = []
        dc.case([(GenBlock(dd.sizes), ":")], lambda: chosen.append("irregular"))
        dc.case([("BLOCK", ":")], lambda: chosen.append("regular"))
        dc.default(lambda: chosen.append("generic"))
        dc.execute()
        assert chosen == ["irregular"]

        # 3. a procedure forces its declared distribution, VF-returns it
        def body(eng, X):
            assert eng.idt(X.name, ("BLOCK", ":"))
            return float(X.to_global().sum())

        proc = Procedure("analyze", [FormalArg("X", "(BLOCK, :)")], body)
        total = proc(engine, X=work)
        assert total == pytest.approx(float(data.sum()))
        assert work.dist.dtype == dist_type("BLOCK", ":")

        # 4. the weights shift; the load check fires; rebalance
        weights2 = np.roll(weights, n // 3)
        owners = np.asarray(work.dist.rank_map())[:, 0]
        loads = np.bincount(owners, weights=weights2, minlength=4)
        assert loads.max() / loads.mean() > 1.1  # imbalanced again
        sizes2 = balance_greedy(weights2, 4)
        engine.distribute(
            "WORK", DistributionType((GenBlock(sizes2), NoDist()))
        )
        assert np.array_equal(work.to_global(), data)

        # 5. the machine's counters reflect the session
        assert machine.stats().messages == len(machine.network.trace)
        # three distributions were installed after the initial one
        assert work.version == 3

    def test_session_is_deterministic(self, session):
        machine, engine = session
        arr = engine.declare(
            "A", (32, 4), dist=dist_type("BLOCK", ":"), dynamic=True
        )
        arr.from_global(np.arange(128.0).reshape(32, 4))
        for _ in range(3):
            engine.distribute("A", dist_type(":", "BLOCK"))
            engine.distribute("A", dist_type("BLOCK", ":"))
        t1 = machine.time

        machine2 = Machine(ProcessorArray("R", (4,)), cost_model=PARAGON)
        engine2 = Engine(machine2)
        arr2 = engine2.declare(
            "A", (32, 4), dist=dist_type("BLOCK", ":"), dynamic=True
        )
        arr2.from_global(np.arange(128.0).reshape(32, 4))
        for _ in range(3):
            engine2.distribute("A", dist_type(":", "BLOCK"))
            engine2.distribute("A", dist_type("BLOCK", ":"))
        assert machine2.time == t1
        assert np.array_equal(arr.to_global(), arr2.to_global())
