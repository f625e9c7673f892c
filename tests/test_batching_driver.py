"""RPU driver tests: batch context switching and grouped I/O wakeups."""

import pytest

from repro.batching import (
    BatchTask,
    ComputePhase,
    IoPhase,
    RpuDriver,
    make_io_batch,
)


def test_single_compute_batch():
    driver = RpuDriver(context_switch_us=2.0)
    stats = driver.run([BatchTask(0, [ComputePhase(100.0)])])
    assert stats.makespan_us == pytest.approx(102.0)
    assert stats.context_switches == 1
    assert stats.busy_us == pytest.approx(100.0)


def test_grouped_wakeup_single_switch_per_io_phase():
    driver = RpuDriver(context_switch_us=2.0, wake_policy="grouped")
    io = [10.0] * 32
    stats = driver.run([make_io_batch(0, 50.0, io, post_compute_us=20.0)])
    # switch in, compute, block, wake once, switch in, finish
    assert stats.context_switches == 2
    assert stats.interrupts == 32


def test_eager_wakeup_pays_per_interrupt():
    grouped = RpuDriver(wake_policy="grouped")
    eager = RpuDriver(wake_policy="eager")
    io = [float(5 + i) for i in range(32)]
    g = grouped.run([make_io_batch(0, 50.0, io, post_compute_us=20.0)])
    e = eager.run([make_io_batch(0, 50.0, io, post_compute_us=20.0)])
    assert e.context_switches > g.context_switches + 20
    # 31 extra wakes, each a context switch (2.0) + handling slot (0.5);
    # grouped pays one handling slot for the whole phase
    assert e.makespan_us == pytest.approx(g.makespan_us + 31 * 2.5 - 0.5)


def test_eager_wakeup_charges_switch_per_extra_wake():
    """Regression: each extra eager wake costs a context switch *and* an
    interrupt handling slot (the code used to charge only the handling
    time while the docstring promised both)."""
    driver = RpuDriver(context_switch_us=2.0, interrupt_handling_us=0.5,
                       wake_policy="eager")
    stats = driver.run([make_io_batch(0, 10.0, [1.0, 2.0, 3.0],
                                      post_compute_us=4.0)])
    # switch in (2) + compute (10) + last completion (3)
    # + 2 extra wakes * (switch 2 + handling 0.5)
    # + switch back in (2) + post compute (4)
    assert stats.makespan_us == pytest.approx(2 + 10 + 3 + 2 * 2.5 + 2 + 4)
    assert stats.context_switches == 4  # in, 2 extra wakes, back in
    assert stats.interrupts == 3


def test_io_overlaps_with_other_batches():
    """While one batch waits on storage, the core runs another."""
    driver = RpuDriver(context_switch_us=1.0)
    a = make_io_batch(0, 10.0, [1000.0] * 8, post_compute_us=10.0)
    b = BatchTask(1, [ComputePhase(500.0)])
    stats = driver.run([a, b])
    # makespan ~ max(io wait path, serial compute), far below the sum
    assert stats.makespan_us < 10.0 + 1000.0 + 10.0 + 500.0
    assert stats.utilization > 0.4


def test_batches_finish_and_record_times():
    driver = RpuDriver()
    tasks = [BatchTask(i, [ComputePhase(10.0)]) for i in range(4)]
    driver.run(tasks)
    finishes = [t.finished_at for t in tasks]
    assert all(f > 0 for f in finishes)
    assert finishes == sorted(finishes)


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        RpuDriver(wake_policy="sometimes")


def test_grouped_wakeup_waits_for_slowest_thread():
    driver = RpuDriver(context_switch_us=0.0, interrupt_handling_us=0.0)
    stats = driver.run([make_io_batch(0, 0.0, [1.0, 2.0, 300.0],
                                      post_compute_us=5.0)])
    assert stats.makespan_us >= 305.0


def test_simultaneously_ready_batches_run_in_bid_order():
    """Equal ready times break by batch id, not by hand-in order."""
    driver = RpuDriver(context_switch_us=2.0)
    tasks = [BatchTask(b, [ComputePhase(10.0 * (b + 1))]) for b in (2, 0, 1)]
    driver.run(tasks)
    assert [t.bid for t in sorted(tasks, key=lambda t: t.finished_at)] \
        == [0, 1, 2]
    # two batches woken by I/O at the same instant: the lower id resumes
    # first (bid 3 blocks at t=2, bid 5 at t=4; both wake at 102.5)
    late = make_io_batch(5, 0.0, [98.0], post_compute_us=7.0)
    early = make_io_batch(3, 0.0, [100.0], post_compute_us=7.0)
    stats = driver.run([late, early])
    assert early.finished_at == pytest.approx(102.5 + 2.0 + 7.0)
    assert late.finished_at == pytest.approx(early.finished_at + 2.0 + 7.0)
    assert stats.context_switches == 4
