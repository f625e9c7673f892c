"""Event-wheel scheduler tests: tie-break contract, wheel-vs-heap
differential, rotation/overflow mechanics, sanitizer invariants and the
keyed-draw fast path that rides along with it."""

import random

import pytest

from repro.sanitize import SanitizerError
from repro.system.scheduler import (
    HeapSimulator,
    SimulationLimitError,
    Simulator,
    WheelSimulator,
    wheel_enabled,
)
from repro.system.seeding import PrefixStream, stream_key, stream_u

IMPLS = [WheelSimulator, HeapSimulator]


class TestFactory:
    def test_default_is_wheel(self, monkeypatch):
        monkeypatch.delenv("REPRO_WHEEL", raising=False)
        assert wheel_enabled()
        assert type(Simulator()) is WheelSimulator

    def test_env_selects_heap_witness(self, monkeypatch):
        monkeypatch.setenv("REPRO_WHEEL", "0")
        assert not wheel_enabled()
        assert type(Simulator()) is HeapSimulator

    def test_direct_classes_ignore_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WHEEL", "0")
        assert type(WheelSimulator()) is WheelSimulator


class TestTieBreakContract:
    @pytest.mark.parametrize("impl", IMPLS)
    def test_equal_time_events_fire_in_insertion_order(self, impl):
        sim = impl()
        seen = []
        for i in range(20):
            sim.schedule1(10.0, lambda t, a: seen.append(a), i)
        sim.run()
        assert seen == list(range(20))

    @pytest.mark.parametrize("impl", IMPLS)
    def test_mid_callback_tie_joins_the_back_of_its_slot(self, impl):
        sim = impl()
        seen = []

        def first(t, _arg):
            seen.append("first")
            # same-timestamp schedule from inside a firing event must
            # run after every already-queued equal-time event
            sim.schedule1(t, lambda tt, a: seen.append("late"), None)

        sim.schedule1(5.0, first, None)
        sim.schedule1(5.0, lambda t, a: seen.append("second"), None)
        sim.run()
        assert seen == ["first", "second", "late"]

    @pytest.mark.parametrize("impl", IMPLS)
    def test_multi_arg_and_zero_arg_events(self, impl):
        sim = impl()
        seen = []
        sim.schedule(3.0, lambda t, a, b: seen.append((t, a, b)), 1, 2)
        sim.schedule(1.0, lambda t: seen.append((t,)))
        sim.schedule(2.0, lambda t, a: seen.append((t, a)), 9)
        sim.run()
        assert seen == [(1.0,), (2.0, 9), (3.0, 1, 2)]


def _differential_workload(sim, seed, spawn_budget=400):
    """A self-scheduling event storm whose spawn decisions are keyed
    hashes of the event tag (identical across scheduler impls)."""
    order = []
    state = {"next_tag": 0, "left": spawn_budget}

    def spawn(t, tag):
        order.append((t, tag))
        n = 1 + stream_key(seed, "fanout", tag) % 2
        for k in range(n):
            if state["left"] <= 0:
                return
            state["left"] -= 1
            child = state["next_tag"] = state["next_tag"] + 1
            # offsets cross bucket boundaries, land ties on the same
            # timestamp, and reach past the wheel horizon (overflow)
            dt = (0.0, 0.25, 1.0, 63.75, 64.0, 511.5, 40000.0)[
                stream_key(seed, "dt", tag, k) % 7]
            sim.schedule1(t + dt, spawn, child)

    for i in range(10):
        state["next_tag"] += 1
        sim.schedule1(float(stream_key(seed, "t0", i) % 128),
                      spawn, state["next_tag"])
    sim.run()
    return order


class TestWheelHeapDifferential:
    @pytest.mark.parametrize("seed", [1, 7, 13, 99])
    def test_randomized_firing_order_matches(self, seed):
        a = _differential_workload(WheelSimulator(), seed)
        b = _differential_workload(HeapSimulator(), seed)
        assert a == b
        assert len(a) > 100  # the storm actually fanned out

    @pytest.mark.parametrize("seed", [3, 21])
    def test_sanitized_wheel_matches_plain(self, seed, monkeypatch):
        plain = _differential_workload(WheelSimulator(), seed)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        guarded = _differential_workload(WheelSimulator(), seed)
        assert plain == guarded


def _fire_order(sim, events):
    """Schedule ``(time, tag)`` events in list order and run: the
    ``(time, tag)`` pairs in firing order."""
    order = []
    for t, tag in events:
        sim.schedule1(t, lambda tt, a: order.append((tt, a)), tag)
    sim.run()
    return order


def _wheel_and_heap(events, **geometry):
    """Firing order on a wheel of the given geometry, checked against
    the heap witness."""
    got = _fire_order(WheelSimulator(**geometry), events)
    assert got == _fire_order(HeapSimulator(), events)
    return got


class TestEventWheelMechanics:
    def test_rotation_across_many_buckets(self):
        times = [float(i * 97 % 5000) for i in range(300)]
        got = _wheel_and_heap(list(zip(times, range(300))),
                              width_us=64.0, n_buckets=256)
        assert got == sorted(zip(times, range(300)))

    def test_overflow_beyond_horizon_migrates_in_order(self):
        horizon = 64.0 * 256
        got = _wheel_and_heap([(horizon * 3 + 1.0, "far"), (5.0, "near"),
                               (horizon * 2 + 1.0, "mid")],
                              width_us=64.0, n_buckets=256)
        assert [tag for _t, tag in got] == ["near", "mid", "far"]

    def test_jump_ahead_over_empty_span(self):
        # the only event lies far past the horizon: the cursor jumps to
        # its bucket, and schedules made there land relative to it
        def run(sim):
            order = []

            def far(t, _a):
                order.append(("far", t))
                sim.schedule1(t + 64.0 * 300, lambda tt, a: order.append(
                    ("after", tt)), None)
                sim.schedule1(t + 10.0, lambda tt, a: order.append(
                    ("soon", tt)), None)

            sim.schedule1(1e6, far, None)
            sim.run()
            return order

        got = run(WheelSimulator(width_us=64.0, n_buckets=256))
        assert got == run(HeapSimulator())
        assert got == [("far", 1e6), ("soon", 1e6 + 10.0),
                       ("after", 1e6 + 64.0 * 300)]

    def test_fifo_ties_survive_overflow_migration(self):
        far = 64.0 * 256 * 2 + 3.0
        got = _wheel_and_heap([(far, i) for i in range(6)],
                              width_us=64.0, n_buckets=256)
        assert [tag for _t, tag in got] == list(range(6))

    def test_geometry_must_be_powers_of_two(self):
        with pytest.raises(ValueError):
            WheelSimulator(width_us=64.0, n_buckets=100)
        with pytest.raises(ValueError):
            # 1/49 is not exactly invertible, so bucket indices would
            # drift from the quantization the drain assertions assume
            WheelSimulator(width_us=49.0, n_buckets=256)


class TestSanitizerInvariants:
    @pytest.mark.parametrize("impl", IMPLS)
    def test_past_schedule_rejected_when_sanitized(self, impl,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sim = impl()
        sim.schedule1(100.0, lambda t, a: sim.schedule1(
            50.0, lambda tt, aa: None, None), None)
        with pytest.raises(SanitizerError):
            sim.run()

    @pytest.mark.parametrize("impl", IMPLS)
    def test_past_schedule_clamped_to_fire_next_unsanitized(self, impl,
                                                            monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        sim = impl()
        seen = []

        def boot(t, _a):
            seen.append("boot")
            sim.schedule1(t - 50.0, lambda tt, a: seen.append("past"),
                          None)

        sim.schedule1(100.0, boot, None)
        sim.schedule1(100.0, lambda t, a: seen.append("peer"), None)
        sim.schedule1(101.0, lambda t, a: seen.append("later"), None)
        sim.run()
        # both impls fire the invalid past event before moving on
        assert seen.index("past") < seen.index("later")
        assert seen[0] == "boot"

    def test_bucket_rotation_invariant_holds_over_a_storm(self,
                                                          monkeypatch):
        # the sanitized drain asserts every fired entry belongs to the
        # cursor's bucket; a randomized storm would trip it on any
        # rotation/admission bug
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        order = _differential_workload(WheelSimulator(), seed=5)
        assert order == sorted(order, key=lambda e: e[0])


class TestEventLimit:
    @pytest.mark.parametrize("impl", IMPLS)
    def test_runaway_loop_raises_with_diagnostics(self, impl):
        sim = impl(max_events=500)

        def storm(t, a):
            sim.schedule1(t + 1.0, storm, a)

        sim.schedule1(0.0, storm, None)
        with pytest.raises(SimulationLimitError) as exc:
            sim.run()
        assert "500" in str(exc.value)
        assert "storm" in str(exc.value)

    @pytest.mark.parametrize("impl", IMPLS)
    def test_limit_passed_to_run_overrides_ctor(self, impl):
        sim = impl()
        fired = []
        for i in range(10):
            sim.schedule1(float(i), lambda t, a: fired.append(t), None)
        with pytest.raises(SimulationLimitError):
            sim.run(max_events=3)


class TestPrefixStream:
    def test_matches_stream_key_and_u(self):
        rng = random.Random(7)
        for _ in range(200):
            prefix = (rng.randrange(-50, 50), "kind",
                      f"st{rng.randrange(8)}")
            ps = PrefixStream(*prefix)
            a, b = rng.randrange(-10, 10**6), rng.randrange(0, 40)
            assert ps.key2(a, b) == stream_key(*prefix, a, b)
            assert ps.u2(a, b) == stream_u(*prefix, a, b)
            assert ps.key(a) == stream_key(*prefix, a)
            assert ps.u(a, b, 3) == stream_u(*prefix, a, b, 3)

    def test_single_part_prefix(self):
        ps = PrefixStream(11)
        assert ps.key2(1, 2) == stream_key(11, 1, 2)

    def test_empty_prefix_or_suffix_rejected(self):
        with pytest.raises(ValueError):
            PrefixStream()
        with pytest.raises(ValueError):
            PrefixStream(1).key()


class TestBoundaryTimestamps:
    """Zone-kill schedules put events *exactly* on bucket boundaries
    (a planned onset at ``k * width``) and exactly one wheel horizon
    ahead (the restore at outage end).  The wheel must agree with the
    heap on every such edge, including mid-drain same-timestamp
    inserts and the unsanitized past-time clamp."""

    WIDTH = 64.0
    HORIZON = 64.0 * 512  # the default wheel span

    def _boundary_storm(self, sim):
        """An arrival chain marching one bucket per step past the
        wheel horizon; every step schedules a same-timestamp kill
        (mid-drain, boundary-aligned) and a restore exactly one
        horizon ahead (lands in the overflow heap on the wheel)."""
        order = []
        width, span = self.WIDTH, self.HORIZON

        def restore(t, k):
            order.append(("restore", t, k))

        def kill(t, k):
            order.append(("kill", t, k))

        def arrive(t, k):
            order.append(("arrive", t, k))
            if k < 600:  # crosses the 512-bucket horizon
                sim.schedule1(t + width, arrive, k + 1)
            sim.schedule1(t, kill, k)
            sim.schedule1(t + span, restore, k)

        sim.schedule1(0.0, arrive, 0)
        sim.run()
        return order

    def test_boundary_storm_wheel_matches_heap(self):
        a = self._boundary_storm(WheelSimulator())
        b = self._boundary_storm(HeapSimulator())
        assert a == b
        assert len(a) == 601 * 3
        # timestamps never regress and ties keep insertion order
        times = [t for _tag, t, _k in a]
        assert times == sorted(times)

    def test_boundary_storm_survives_the_sanitizer(self, monkeypatch):
        plain = self._boundary_storm(WheelSimulator())
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert self._boundary_storm(WheelSimulator()) == plain

    def test_same_timestamp_insert_at_boundary_fires_last_in_slot(self):
        # an onset event at an exact boundary scheduling its kill at
        # the same (boundary) timestamp joins the back of that slot
        for impl in IMPLS:
            sim = impl()
            seen = []
            t0 = self.WIDTH * 3
            sim.schedule1(t0, lambda t, a: (
                seen.append("onset"),
                sim.schedule1(t, lambda tt, aa: seen.append("kill"),
                              None)), None)
            sim.schedule1(t0, lambda t, a: seen.append("peer"), None)
            sim.schedule1(t0 + self.WIDTH,
                          lambda t, a: seen.append("next"), None)
            sim.run()
            assert seen == ["onset", "peer", "kill", "next"], impl

    def test_past_boundary_clamp_matches_across_impls(self, monkeypatch):
        # unsanitized: an onset computed one full bucket behind the
        # drain point clamps to "fire next" identically on both impls
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)

        def run(impl):
            sim = impl()
            seen = []

            def boot(t, _a):
                seen.append(("boot", t))
                sim.schedule1(t - self.WIDTH,
                              lambda tt, a: seen.append(("stale", tt)),
                              None)

            sim.schedule1(self.WIDTH * 2, boot, None)
            sim.schedule1(self.WIDTH * 2,
                          lambda t, a: seen.append(("peer", t)), None)
            sim.schedule1(self.WIDTH * 2 + 1.0,
                          lambda t, a: seen.append(("later", t)), None)
            sim.run()
            return seen

        # the clamp contract: the stale event fires before anything
        # strictly later (its order among equal-time peers is impl-
        # defined, like the pre-existing clamp test pins it)
        for impl in IMPLS:
            tags = [tag for tag, _t in run(impl)]
            assert tags[0] == "boot", impl
            assert tags.index("stale") < tags.index("later"), impl
            assert sorted(tags) == ["boot", "later", "peer", "stale"]

    def test_exact_horizon_event_is_overflow_then_migrates(self):
        # an event exactly one horizon ahead is the first overflow
        # slot; it must still fire after the wheel's last bucket
        got = _wheel_and_heap([(0.0, "now"), (self.HORIZON, "at-horizon"),
                               (self.HORIZON - self.WIDTH, "last-bucket")],
                              width_us=self.WIDTH, n_buckets=512)
        assert [tag for _t, tag in got] \
            == ["now", "last-bucket", "at-horizon"]
