"""Edge cases of the kernel fast path: already-processed resume,
run_until after Deadlock, event accounting, interrupt-vs-resume races,
invalid delays and reference cycles on the hot path."""

import gc
import math
import weakref

import pytest

from repro.sim import Deadlock, Interrupt, SimulationError, Simulator


def test_resume_on_already_processed_event_delivers_value():
    sim = Simulator()
    flag = sim.event()
    got = {}

    def firer(sim):
        yield sim.timeout(1.0)
        flag.succeed("payload")

    def late_waiter(sim):
        yield sim.timeout(50.0)
        got["v"] = yield flag  # fired and processed 49 ns ago

    sim.process(firer(sim))
    sim.process(late_waiter(sim))
    sim.run()
    assert got["v"] == "payload"


def test_resume_on_already_processed_event_same_timestamp():
    sim = Simulator()
    flag = sim.event()
    got = {}

    def late_waiter(sim):
        yield sim.timeout(50.0)
        got["v"] = yield flag
        got["t"] = sim.now

    def firer(sim):
        yield sim.timeout(1.0)
        flag.succeed("go")

    sim.process(late_waiter(sim))
    sim.process(firer(sim))
    sim.run()
    # The resume happens AT the waiter's current time, not later.
    assert got["v"] == "go"
    assert got["t"] == 50.0


def test_resume_on_already_failed_event_raises_into_process():
    sim = Simulator()
    flag = sim.event()
    caught = {}

    def firer(sim):
        yield sim.timeout(1.0)
        flag.fail(RuntimeError("stale failure"))

    def observer(sim):
        # Witness the failure so it does not count as unhandled.
        try:
            yield flag
        except RuntimeError:
            pass

    def late_waiter(sim):
        yield sim.timeout(50.0)
        try:
            yield flag
        except RuntimeError as exc:
            caught["exc"] = str(exc)

    sim.process(firer(sim))
    sim.process(observer(sim))
    sim.process(late_waiter(sim))
    sim.run()
    assert caught["exc"] == "stale failure"


def test_resume_on_finished_process_event():
    sim = Simulator()
    got = {}

    def child(sim):
        yield sim.timeout(1.0)
        return "early"

    def parent(sim, process):
        yield sim.timeout(50.0)
        got["v"] = yield process

    child_process = sim.process(child(sim))
    sim.process(parent(sim, child_process))
    sim.run()
    assert got["v"] == "early"


def test_interrupt_cancels_pending_resume():
    sim = Simulator()
    flag = sim.event()
    trail = []

    def firer(sim):
        yield sim.timeout(1.0)
        flag.succeed("stale")

    def waiter(sim):
        yield sim.timeout(50.0)
        try:
            value = yield flag  # already processed -> resume queued
        except Interrupt as interrupt:
            trail.append(f"interrupted:{interrupt.cause}")
            yield sim.timeout(5.0)
            trail.append("resumed-after")
            return
        trail.append(f"value:{value}")

    def interrupter(sim, holder):
        yield sim.timeout(50.0)
        holder["victim"].interrupt(cause="now")

    sim.process(firer(sim))
    # Spawned BEFORE the waiter, so at t=50 the interrupter runs first and
    # its poke is enqueued ahead of the resume the waiter queues when it
    # reaches ``yield flag``.  The interrupt detaches the waiter, and the
    # stale resume left on the heap must NOT re-deliver "stale" into the
    # re-yielded timeout.
    holder = {}
    sim.process(interrupter(sim, holder))
    holder["victim"] = sim.process(waiter(sim))
    sim.run()
    assert trail == ["interrupted:now", "resumed-after"]
    assert sim.now == 55.0


def test_resume_enqueued_first_beats_interrupt():
    # Mirror ordering: the waiter reaches its yield (queueing the resume)
    # before the interrupter runs at the same timestamp.  FIFO order means
    # the resume legitimately wins and the interrupt lands on a finished
    # process as a no-op poke.
    sim = Simulator()
    flag = sim.event()
    trail = []

    def firer(sim):
        yield sim.timeout(1.0)
        flag.succeed("stale")

    def waiter(sim):
        yield sim.timeout(50.0)
        try:
            value = yield flag
        except Interrupt:  # pragma: no cover - must not happen
            trail.append("interrupted")
            return
        trail.append(f"value:{value}")

    def interrupter(sim, victim):
        yield sim.timeout(50.0)
        if victim.is_alive:
            victim.interrupt(cause="late")

    sim.process(firer(sim))
    victim = sim.process(waiter(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert trail == ["value:stale"]


def test_run_until_usable_after_deadlock():
    sim = Simulator()
    got = {}

    def stuck(sim, gate):
        got["v"] = yield gate

    gate = sim.event()
    sim.process(stuck(sim, gate))
    with pytest.raises(Deadlock):
        sim.run()
    # The kernel survives the deadlock: poke the model and drive it again.
    gate.succeed("released")
    done = sim.event()

    def closer(sim):
        yield sim.timeout(1.0)
        done.succeed("done")

    sim.process(closer(sim))
    assert sim.run_until(done) == "done"
    assert got["v"] == "released"


def test_events_processed_counts_resume_entries():
    sim = Simulator()
    flag = sim.event()

    def firer(sim):
        yield sim.timeout(1.0)
        flag.succeed()

    def late_waiter(sim):
        yield sim.timeout(2.0)
        yield flag

    sim.process(firer(sim))
    sim.process(late_waiter(sim))
    sim.run()
    # 2 bootstraps + 2 timeouts + flag + 1 resume + 2 process-end events.
    assert sim.events_processed == 8


def test_timeout_repr_shows_delay():
    sim = Simulator()
    timeout = sim.timeout(12.5)
    assert "timeout(12.5)" in repr(timeout)
    assert timeout.name == ""


def test_yield_non_event_still_rejected():
    sim = Simulator()

    def bad(sim):
        yield 42

    sim.process(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_nan_timeout_is_rejected_at_creation():
    # NaN compares false against everything, so ``delay < 0`` let it
    # through and the unmonitored loop then spun forever on the heap.
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(float("nan"))
    with pytest.raises(SimulationError):
        sim._enqueue(float("nan"), sim.event())
    assert not sim._heap


def test_infinite_timeout_stays_legal():
    sim = Simulator()
    timeout = sim.timeout(math.inf)
    assert sim.peek() == math.inf
    sim.run(until=10.0)
    assert not timeout.processed


def test_hot_path_objects_are_freed_by_refcount_alone():
    """A finished process, its generator and a fired timeout hold no
    reference cycle: with the cyclic collector off they still die."""
    sim = Simulator()
    refs = {}

    def body(sim):
        timeout = sim.timeout(5.0)
        refs["timeout"] = weakref.ref(timeout)
        yield timeout
        yield sim.timeout(1.0)
        return "done"

    enabled = gc.isenabled()
    gc.disable()
    try:
        generator = body(sim)
        refs["generator"] = weakref.ref(generator)
        process = sim.process(generator)
        refs["process"] = weakref.ref(process)
        assert sim.run_until(process) == "done"
        sim.run()
        del generator, process
        assert {name: ref() for name, ref in refs.items()} == {
            "timeout": None,
            "generator": None,
            "process": None,
        }
    finally:
        if enabled:
            gc.enable()
