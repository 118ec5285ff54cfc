"""Property-based tests of the inspector/executor.

Invariants: gathers return exactly the requested global values
regardless of distribution; message pairs aggregate per processor
pair.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.dimdist import Block, Cyclic, GenBlock, Indirect
from repro.core.distribution import DistributionType
from repro.machine import Machine, ProcessorArray
from repro.runtime.engine import Engine

P = 4
R = ProcessorArray("R", (P,))


@st.composite
def dist_and_requests(draw):
    n = draw(st.integers(4, 40))
    kind = draw(st.sampled_from(["block", "cyclic", "indirect"]))
    if kind == "block":
        dd = Block()
    elif kind == "cyclic":
        dd = Cyclic(draw(st.integers(1, 4)))
    else:
        dd = Indirect(
            draw(st.lists(st.integers(0, P - 1), min_size=n, max_size=n))
        )
    requests = {
        p: np.asarray(
            draw(
                st.lists(st.integers(0, n - 1), min_size=0, max_size=12)
            ),
            dtype=np.int64,
        ).reshape(-1, 1)
        for p in range(P)
    }
    return DistributionType((dd,)), n, requests


@given(dist_and_requests())
@settings(max_examples=80, deadline=None)
def test_gather_returns_requested_values(dnr):
    dtype, n, requests = dnr
    machine = Machine(R)
    engine = Engine(machine)
    arr = engine.declare("X", (n,), dist=dtype, dynamic=True)
    values = np.random.default_rng(n).standard_normal(n)
    arr.from_global(values)
    insp = engine.inspector("X")
    sched = insp.inspect(requests)
    out = insp.gather(sched)
    for p, idx in requests.items():
        assert np.array_equal(out[p], values[idx[:, 0]])


@given(dist_and_requests())
@settings(max_examples=60, deadline=None)
def test_message_pairs_bounded(dnr):
    dtype, n, requests = dnr
    machine = Machine(R)
    engine = Engine(machine)
    engine.declare("X", (n,), dist=dtype, dynamic=True)
    insp = engine.inspector("X")
    sched = insp.inspect(requests)
    pairs = sched.message_pairs()
    # at most one aggregated entry per ordered pair, never self-pairs
    assert all(q != p for (q, p) in pairs)
    assert len(pairs) <= P * (P - 1)
    # counts match the nonlocal tally
    by_requester: dict[int, int] = {}
    for (q, p), c in pairs.items():
        by_requester[p] = by_requester.get(p, 0) + c
    assert by_requester == {
        p: c for p, c in sched.nonlocal_counts().items() if c
    }

