"""E4 — the cost of redistribution itself (§1's "significant costs").

Paper claim: dynamic distribution carries real run-time costs — "the
cost of performing the actual data transfers and the cost of
maintaining runtime information" — which judicious use amortizes.

Regenerated series: redistribution volume/messages/time per
distribution pair and array size, plus the ablation of the
per-dimension transfer-set computation against the flattened rank-map
(per-element) oracle.
"""

import time

import numpy as np
import pytest

from conftest import emit_table
from repro.backend.plan import oracle_matrix
from repro.core.dimdist import Cyclic, GenBlock
from repro.core.distribution import dist_type
from repro.machine import Machine, PARAGON, ProcessorArray
from repro.runtime.engine import Engine
from repro.runtime.redistribute import communicate, transfer_matrix

P = 4
R = ProcessorArray("R", (P,))

PAIRS = [
    ("BLOCK -> CYCLIC", dist_type("BLOCK", ":"), dist_type(Cyclic(1), ":")),
    ("BLOCK -> transposed", dist_type("BLOCK", ":"), dist_type(":", "BLOCK")),
    ("CYCLIC -> CYCLIC(3)", dist_type(Cyclic(1), ":"), dist_type(Cyclic(3), ":")),
    ("BLOCK -> B_BLOCK(shift)", dist_type("BLOCK", ":"), None),  # built per n
]


def _bblock_shift(n):
    b = n // P
    return dist_type(GenBlock([b - 1, b + 1, b, n - 3 * b]), ":")


def test_e4_cost_by_pair_and_size():
    rows = []
    for label, old_t, new_t in PAIRS:
        for n in (32, 128, 512):
            machine = Machine(R, cost_model=PARAGON)
            engine = Engine(machine)
            arr = engine.declare("A", (n, 8), dist=old_t, dynamic=True)
            arr.fill(1.0)
            nt = new_t or _bblock_shift(n)
            rep = communicate(arr, nt.apply((n, 8), R))
            frac = rep.elements_moved / arr.size
            rows.append(
                [label, n, rep.messages, rep.elements_moved,
                 f"{frac:.2f}", rep.time * 1e6]
            )
    emit_table(
        "E4: redistribution cost by pair and size (Paragon)",
        ["pair", "n", "msgs", "moved", "frac", "us"],
        rows,
    )
    # shape: transpose moves ~3/4 of data on 4 procs; the B_BLOCK
    # shift moves only a few boundary rows
    transpose = [r for r in rows if r[0] == "BLOCK -> transposed"]
    bblock = [r for r in rows if r[0] == "BLOCK -> B_BLOCK(shift)"]
    for t, b in zip(transpose, bblock):
        assert b[3] < t[3], "incremental B_BLOCK moves far less than transpose"


def test_e4_vectorized_vs_naive_ablation():
    """The design-choice ablation: the per-dimension plan (O(sum of
    extents)) vs. the flattened rank-map oracle (O(elements)),
    correctness-equal and faster by a margin that grows with the array."""
    rows = []
    for n in (64, 256, 512):
        old = dist_type("BLOCK", ":").apply((n, n), R)
        new = dist_type(Cyclic(1), ":").apply((n, n), R)
        t0 = time.perf_counter()
        T_fast = transfer_matrix(old, new, P)
        t_fast = time.perf_counter() - t0
        t0 = time.perf_counter()
        T_slow = oracle_matrix(old, new, P)
        t_slow = time.perf_counter() - t0
        assert (T_fast == T_slow).all()
        rows.append([n * n, t_fast * 1e6, t_slow * 1e6, t_slow / max(t_fast, 1e-12)])
    emit_table(
        "E4 ablation: per-dimension vs per-element transfer-set computation (us)",
        ["elements", "per_dimension_us", "per_element_us", "ratio"],
        rows,
    )
    # the per-dimension plan must win by a growing margin
    assert rows[-1][3] > 10


def test_e4_plan_cache_ablation():
    """§3.2 'run time optimization': phase-alternating programs reuse
    redistribution plans; measure the host-side cost saved."""
    import time as _time

    from repro.runtime.redistribute import PlanCache

    n = 256
    old = dist_type("BLOCK", ":").apply((n, n), R)
    new = dist_type(":", "BLOCK").apply((n, n), R)
    flips = 20

    t0 = _time.perf_counter()
    for _ in range(flips):
        transfer_matrix(old, new, P)
        transfer_matrix(new, old, P)
    t_nocache = _time.perf_counter() - t0

    cache = PlanCache()
    t0 = _time.perf_counter()
    for _ in range(flips):
        cache.transfer_matrix(old, new, P)
        cache.transfer_matrix(new, old, P)
    t_cache = _time.perf_counter() - t0

    emit_table(
        f"E4 ablation: plan cache over {flips} ADI-style flips (n={n})",
        ["variant", "total_us", "per_flip_us"],
        [
            ["no cache", t_nocache * 1e6, t_nocache / flips * 1e6],
            ["plan cache", t_cache * 1e6, t_cache / flips * 1e6],
        ],
    )
    assert cache.hits == 2 * flips - 2
    assert t_cache < t_nocache


def test_e4_bookkeeping_cost():
    """'the cost of maintaining runtime information about the current
    distribution': descriptor/translation-table rebuild sizes."""
    from repro.runtime.translation import TranslationTable

    rows = []
    for n in (64, 256, 1024):
        d = dist_type(Cyclic(3), ":").apply((n, 8), R)
        table = TranslationTable(d)
        rows.append([n, table.nbytes])
    emit_table(
        "E4: translation-table bytes rebuilt per redistribution",
        ["n", "table_bytes"],
        rows,
    )
    assert rows[1][1] > rows[0][1]


@pytest.mark.parametrize(
    "label,old_t,new_t",
    [(l, o, n) for l, o, n in PAIRS if n is not None],
    ids=[l for l, _, n in PAIRS if n is not None],
)
def test_e4_redistribute_benchmark(benchmark, label, old_t, new_t):
    n = 128
    machine = Machine(R, cost_model=PARAGON)
    engine = Engine(machine)
    arr = engine.declare("A", (n, 8), dist=old_t, dynamic=True)
    arr.fill(1.0)
    new_bound = new_t.apply((n, 8), R)
    old_bound = old_t.apply((n, 8), R)

    def roundtrip():
        communicate(arr, new_bound)
        communicate(arr, old_bound)

    benchmark(roundtrip)
