"""Tests for redistribution-plan caching (§3.2 run-time optimization)."""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.distribution import dist_type
from repro.machine import Machine, ProcessorArray
from repro.runtime.engine import Engine
from repro.runtime.redistribute import PlanCache, communicate, transfer_matrix

R = ProcessorArray("R", (4,))


class TestPlanCache:
    def test_hit_on_repeat(self):
        cache = PlanCache()
        old = dist_type("BLOCK", ":").apply((16, 4), R)
        new = dist_type(":", "BLOCK").apply((16, 4), R)
        T1 = cache.transfer_matrix(old, new, 4)
        T2 = cache.transfer_matrix(old, new, 4)
        assert T1 is T2
        assert cache.hits == 1 and cache.misses == 1

    def test_correctness(self):
        cache = PlanCache()
        old = dist_type("BLOCK", ":").apply((16, 4), R)
        new = dist_type(":", "BLOCK").apply((16, 4), R)
        assert (
            cache.transfer_matrix(old, new, 4)
            == transfer_matrix(old, new, 4)
        ).all()

    def test_distinct_pairs_distinct_plans(self):
        cache = PlanCache()
        a = dist_type("BLOCK", ":").apply((16, 4), R)
        b = dist_type(":", "BLOCK").apply((16, 4), R)
        cache.transfer_matrix(a, b, 4)
        cache.transfer_matrix(b, a, 4)
        assert cache.misses == 2
        assert len(cache) == 2

    def test_capacity_eviction(self):
        cache = PlanCache(capacity=1)
        a = dist_type("BLOCK", ":").apply((16, 4), R)
        b = dist_type(":", "BLOCK").apply((16, 4), R)
        cache.transfer_matrix(a, b, 4)
        cache.transfer_matrix(b, a, 4)
        assert len(cache) == 1
        cache.transfer_matrix(a, b, 4)  # evicted: miss again
        assert cache.misses == 3

    def test_clear(self):
        cache = PlanCache()
        a = dist_type("BLOCK", ":").apply((16, 4), R)
        cache.transfer_matrix(a, a, 4)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


class TestPlanCacheStats:
    """Direct coverage of the stats() surface (hit/miss counters plus
    the resident population of each plan family)."""

    def test_fresh_cache_stats(self):
        s = PlanCache().stats()
        assert s["hits"] == 0 and s["misses"] == 0
        assert s["plans"] == 0
        assert "matrices" not in s and "moves" not in s  # one plan family
        assert s["shift_plans"] == 0 and s["sweep_plans"] == 0
        # the shared owner-map LRU counters ride along (process-wide)
        for key in ("owners_vec_hits", "owners_vec_misses",
                    "rank_map_hits", "rank_map_misses"):
            assert key in s

    def test_matrix_lookups_update_counters(self):
        cache = PlanCache()
        old = dist_type("BLOCK", ":").apply((16, 4), R)
        new = dist_type(":", "BLOCK").apply((16, 4), R)
        cache.transfer_matrix(old, new, 4)
        s = cache.stats()
        assert s["hits"] == 0 and s["misses"] == 1
        assert s["plans"] == 1
        cache.transfer_matrix(old, new, 4)
        cache.transfer_matrix(old, new, 4)
        assert cache.stats()["hits"] == 2
        assert cache.stats()["misses"] == 1

    def test_matrix_and_moves_are_one_plan(self):
        cache = PlanCache()
        old = dist_type("BLOCK", ":").apply((16, 4), R)
        new = dist_type(":", "BLOCK").apply((16, 4), R)
        plan = cache.redistribution(old, new, 4)
        assert cache.redistribution(old, new, 4) is plan
        # the matrix of the same (old, new) pair is the same entry
        assert cache.transfer_matrix(old, new, 4) is plan.matrix
        s = cache.stats()
        assert s["hits"] == 2 and s["misses"] == 1 and s["plans"] == 1
        assert len(plan.moves) == 16 and plan.moved + plan.kept == 64

    def test_clear_resets_stats(self):
        cache = PlanCache()
        old = dist_type("BLOCK", ":").apply((16, 4), R)
        new = dist_type(":", "BLOCK").apply((16, 4), R)
        cache.transfer_matrix(old, new, 4)
        cache.clear()
        s = cache.stats()
        assert s["hits"] == 0 and s["misses"] == 0
        assert s["plans"] == 0
        assert s["shift_plans"] == 0 and s["sweep_plans"] == 0

    def test_engine_summary_reports_cache_stats(self):
        machine = Machine(R)
        engine = Engine(machine)
        v = engine.declare(
            "V", (16, 16), dist=dist_type(":", "BLOCK"), dynamic=True
        )
        v.from_global(np.zeros((16, 16)))
        engine.distribute("V", dist_type("BLOCK", ":"))
        text = engine.redistribution_summary()
        s = engine.plan_cache.stats()
        assert f"{s['hits']} hits / {s['misses']} misses" in text
        assert f"({s['plans']} plans resident)" in text


class TestRedistributionReportSummary:
    """Direct coverage of the PR-2 report fields (backend name and
    plan-cache hit/miss counts) and their summary() rendering."""

    def test_summary_renders_backend_and_cache_fields(self):
        from repro.runtime.redistribute import RedistributionReport

        rep = RedistributionReport(
            "V", 12, 960, 120, 136, 3.25e-4,
            cache_hits=5, cache_misses=1, backend="multiprocess",
        )
        text = rep.summary()
        assert text.startswith("V: 12 msgs, 960B")
        assert "moved=120" in text and "kept=136" in text
        assert "[backend=multiprocess, plan cache 5 hit / 1 miss]" in text

    def test_communicate_populates_cache_fields(self):
        machine = Machine(R)
        engine = Engine(machine)
        arr = engine.declare(
            "B", (16, 4), dist=dist_type("BLOCK", ":"), dynamic=True
        )
        arr.from_global(np.zeros((16, 4)))
        there = dist_type(":", "BLOCK")
        back = dist_type("BLOCK", ":")
        first = engine.distribute("B", there)[0]
        assert first.backend == "serial"
        assert first.cache_misses == 1 and first.cache_hits == 0
        engine.distribute("B", back)
        repeat = engine.distribute("B", there)[0]
        assert repeat.cache_hits == 1 and repeat.cache_misses == 0
        assert "plan cache 1 hit / 0 miss" in repeat.summary()

    def test_report_counts_its_own_lookup_on_a_shared_store(self, monkeypatch):
        """Every thread sharing a store (the serve pool's sessions do)
        bumps its totals; a report says what *its* lookup was.  Here a
        second thread looks three plans up between a COMMUNICATE's
        lookup and its report."""
        import threading

        machine = Machine(R)
        engine = Engine(machine)
        arr = engine.declare(
            "B", (16, 4), dist=dist_type("BLOCK", ":"), dynamic=True
        )
        arr.from_global(np.zeros((16, 4)))
        cache = engine.plan_cache
        posted, looked = threading.Event(), threading.Event()
        exchange = machine.network.exchange

        def exchange_then_wait(phase):
            exchange(phase)
            posted.set()
            assert looked.wait(10)

        monkeypatch.setattr(machine.network, "exchange", exchange_then_wait)

        def neighbour():
            assert posted.wait(10)
            for n in (8, 12, 8):
                cache.transfer_matrix(
                    dist_type("BLOCK").apply((n,), R),
                    dist_type("CYCLIC").apply((n,), R), 4,
                )
            looked.set()

        other = threading.Thread(target=neighbour)
        other.start()
        (report,) = engine.distribute("B", dist_type(":", "BLOCK"))
        other.join()
        assert (cache.hits, cache.misses) == (1, 3)
        assert (report.cache_hits, report.cache_misses) == (0, 1)

    def test_notransfer_report_carries_backend(self):
        machine = Machine(R)
        engine = Engine(machine)
        engine.declare(
            "P", (16,), dist=dist_type("BLOCK"), dynamic=True
        )
        engine.declare("S", (16,), dynamic=True, connect=("P", "="))
        reports = engine.distribute(
            "P", dist_type("CYCLIC"), notransfer=("S",)
        )
        by_name = {r.array_name: r for r in reports}
        assert by_name["S"].messages == 0
        assert by_name["S"].backend == "serial"
        assert "backend=serial" in by_name["S"].summary()


class TestEngineIntegration:
    def test_adi_flips_hit_cache(self):
        """The ADI outer loop reuses two plans after the first lap."""
        machine = Machine(R)
        engine = Engine(machine)
        v = engine.declare(
            "V", (16, 16), dist=dist_type(":", "BLOCK"), dynamic=True
        )
        data = np.random.default_rng(0).standard_normal((16, 16))
        v.from_global(data)
        for _ in range(5):
            engine.distribute("V", dist_type("BLOCK", ":"))
            engine.distribute("V", dist_type(":", "BLOCK"))
        assert engine.plan_cache.misses == 2
        assert engine.plan_cache.hits == 8
        assert np.array_equal(v.to_global(), data)

    def test_cached_communicate_preserves_data(self):
        machine = Machine(R)
        engine = Engine(machine)
        arr = engine.declare(
            "A", (16, 4), dist=dist_type("BLOCK", ":"), dynamic=True
        )
        data = np.arange(64.0).reshape(16, 4)
        arr.from_global(data)
        cache = machine.plans = PlanCache()
        for t in (dist_type(":", "BLOCK"), dist_type("BLOCK", ":")) * 3:
            communicate(arr, t.apply((16, 4), R))
            assert np.array_equal(arr.to_global(), data)
        assert cache.hits > 0


# -- one home: a machine's plans live on the machine ------------------------

def test_only_machines_and_sessions_make_plan_stores():
    """A lookup reaches ``machine.plans``; nothing else in ``src`` builds
    a store to hand around (``repro.perf`` times a cold one), and no
    process-wide default exists."""
    root = Path(repro.__file__).parent
    makers = set()
    for path in sorted(root.rglob("*.py")):
        source = path.read_text()
        assert "default_plan_cache" not in source, path
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and "PlanCache" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                makers.add(path.relative_to(root).as_posix())
    assert makers == {
        "machine/machine.py", "api/session.py", "serve/pool.py", "perf.py",
    }
