"""Work-unit declarations, cross-figure dedup, the prewarm scheduler
and the byte-identity of cached vs uncached experiment output."""

import os
import random

import pytest

import repro.store as store
from repro.experiments.common import (WorkUnit, chip_unit, dedup_units,
                                      execute_work_unit, parallel_map,
                                      schedule_units)
from repro.timing import CPU_CONFIG, RPU_CONFIG
from repro.workloads import get_service


@pytest.fixture
def fresh_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    store._instances.clear()
    yield store.get_store()
    store._instances.clear()


class TestWorkUnit:
    def test_cost_is_not_identity(self):
        svc = get_service("urlshort")
        a = chip_unit(svc, CPU_CONFIG, 1.0)
        b = chip_unit(svc, CPU_CONFIG, 1.0)
        object.__setattr__(b, "cost", a.cost + 99)
        assert a == b
        assert len(dedup_units([a, b])) == 1

    def test_dedup_keeps_first_seen_order(self):
        svc1, svc2 = get_service("urlshort"), get_service("post")
        u1 = chip_unit(svc1, CPU_CONFIG, 1.0)
        u2 = chip_unit(svc2, CPU_CONFIG, 1.0)
        u3 = chip_unit(svc1, RPU_CONFIG, 1.0)
        out = dedup_units([u1, u2, u1, u3, u2])
        assert out == [u1, u2, u3]

    def test_solo_units_cost_more_per_request(self):
        svc = get_service("urlshort")
        solo = chip_unit(svc, CPU_CONFIG, 1.0)
        simt = chip_unit(svc, RPU_CONFIG, 1.0)
        assert solo.cost > simt.cost

    def test_figures_share_units(self):
        """fig14 and fig15 both want (service, CPU) runs: the dedup
        must collapse them so each simulates once."""
        from repro.experiments import fig14_traffic, fig15_mpki

        units = fig14_traffic.work_units(0.25) + fig15_mpki.work_units(0.25)
        unique = dedup_units(units)
        assert len(unique) < len(units)


class TestParallelMapPriority:
    def test_results_keep_input_order(self):
        items = list(range(12))
        prio = [random.Random(5).random() for _ in items]
        serial = parallel_map(_square, items, jobs=1, priority=prio)
        fanned = parallel_map(_square, items, jobs=3, priority=prio)
        assert serial == fanned == [i * i for i in items]

    def test_priority_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            parallel_map(_square, [1, 2, 3], jobs=2, priority=[1.0])


def _square(x):
    return x * x


class TestScheduleUnits:
    def _units(self):
        svc = get_service("urlshort")
        requests_n = 6
        return [WorkUnit(service="urlshort", config=CPU_CONFIG,
                         n_requests=requests_n, seed=3, cost=2.0)]

    def test_execute_unit_populates_store(self, fresh_store):
        import dataclasses

        from repro.timing import run_chip

        (unit,) = self._units()
        execute_work_unit(unit)
        chip_entries = [f for f in os.listdir(fresh_store.root)
                        if f.startswith("chip-")]
        assert len(chip_entries) == 1
        # the consumer-side call must be served from that entry
        svc = get_service("urlshort")
        requests = svc.generate_requests(6, random.Random(3))
        hits_before = fresh_store.hits
        run_chip(svc, requests, CPU_CONFIG)
        assert fresh_store.hits == hits_before + 1

    def test_allocator_units_match_consumer(self, fresh_store):
        """fig16-style units name their allocator class; the prewarmed
        entry must satisfy the figure's own run_chip call."""
        from repro.memsys.alloc import DefaultAllocator
        from repro.timing import run_chip

        n_banks = max(RPU_CONFIG.l1_banks, 1)
        unit = WorkUnit(service="urlshort", config=RPU_CONFIG,
                        n_requests=8, seed=3,
                        allocator="DefaultAllocator", cost=1.0)
        execute_work_unit(unit)
        svc = get_service("urlshort")
        requests = svc.generate_requests(8, random.Random(3))
        hits_before = fresh_store.hits
        run_chip(svc, requests, RPU_CONFIG,
                 allocator_factory=lambda: DefaultAllocator(n_banks=n_banks),
                 allocator_signature=("DefaultAllocator", n_banks))
        assert fresh_store.hits == hits_before + 1

    def test_scheduler_dedups_and_warms(self, fresh_store):
        units = self._units() * 3
        n = schedule_units(units, jobs=2)
        assert n == 1
        assert [f for f in os.listdir(fresh_store.root)
                if f.startswith("chip-")]

    def test_noop_when_serial_or_disabled(self, fresh_store, monkeypatch):
        assert schedule_units(self._units(), jobs=1) == 0
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert schedule_units(self._units(), jobs=2) == 0
        assert schedule_units([], jobs=2) == 0


class TestRunAllByteIdentity:
    """The acceptance property at test scale: cold, warm and cache-off
    invocations of a run_all subset print identical bytes."""

    def _run_subset(self, capsys):
        from repro.experiments import run_all

        assert run_all.main(["--only", "cycle_stacks",
                             "--scale", "0.1"]) == 0
        return capsys.readouterr().out

    def test_cold_warm_and_bypass_agree(self, fresh_store, capsys,
                                        monkeypatch):
        cold = self._run_subset(capsys)
        hits_before = fresh_store.hits
        warm = self._run_subset(capsys)
        assert warm == cold
        assert fresh_store.hits > hits_before, "warm pass must hit disk"
        monkeypatch.setenv("REPRO_CACHE", "0")
        uncached = self._run_subset(capsys)
        assert uncached == cold
