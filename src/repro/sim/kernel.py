"""Generator-based discrete-event simulation kernel.

The kernel is deliberately small and explicit: a time-ordered heap of
:class:`Event` objects and generator-based :class:`Process` coroutines that
yield the events they want to wait for.  It is the substrate on which every
hardware model in this repository (AXI buses, DMA, ICAP, DRAM, ...) runs.

Time is a ``float`` measured in **nanoseconds**.  Events scheduled for the
same instant fire in FIFO order (a monotonically increasing sequence number
breaks heap ties), which makes simulations fully deterministic.

Typical use::

    sim = Simulator()

    def producer(sim, chan):
        for i in range(4):
            yield sim.timeout(10.0)
            yield chan.put(i)

    def consumer(sim, chan):
        while True:
            item = yield chan.get()
            ...

    sim.process(producer(sim, chan))
    sim.process(consumer(sim, chan))
    sim.run(until=1000.0)
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from .errors import Deadlock, Interrupt, SchedulingError, SimulationError

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "Simulator",
]

# Sentinel distinguishing "no value yet" from an event value of ``None``.
_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event goes through three states: *pending* (just created),
    *triggered* (scheduled on the heap with a value or an exception) and
    *processed* (callbacks have run).  Events may only be triggered once.
    """

    # ``__weakref__`` lets tests prove hot-path objects die by refcount.
    __slots__ = ("sim", "callbacks", "_value", "_exc", "_processed", "name", "__weakref__")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        #: Callables invoked with this event when it is processed.  ``None``
        #: once processed (further appends are a bug we want to surface).
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._exc: Optional[BaseException] = None
        self._processed = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value/exception (it is on the heap)."""
        return self._value is not _PENDING or self._exc is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        return self.triggered and self._exc is None

    @property
    def value(self) -> Any:
        if self._exc is not None:
            raise self._exc
        if self._value is _PENDING:
            raise SimulationError(f"event {self!r} has no value yet")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING or self._exc is not None:
            raise SchedulingError(f"event {self!r} already triggered")
        self._value = value
        # The hottest trigger in every model: push inline (what
        # ``Simulator._enqueue(0.0, self)`` does, minus the call).
        sim = self.sim
        heap = sim._heap
        sim._sequence += 1
        heappush(heap, (sim._now, sim._sequence, self))
        if len(heap) > sim.heap_high_water:
            sim.heap_high_water = len(heap)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception propagates into every waiting process.
        """
        if self.triggered:
            raise SchedulingError(f"event {self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() requires an exception, got {exc!r}")
        self._exc = exc
        self._value = None
        self.sim._enqueue(0.0, self)
        return self

    # -- internals ----------------------------------------------------------
    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or self.__class__.__name__
        state = (
            "processed" if self._processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{label} {state} at t={self.sim.now:.3f}ns>"


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        # ``not delay >= 0`` also rejects NaN, which would otherwise sit
        # on the heap at an unorderable time; ``inf`` stays legal.
        if not delay >= 0:
            raise SchedulingError(f"invalid timeout delay {delay!r}")
        # Timeouts are the hottest allocation in the kernel: set the
        # Event fields and push onto the heap inline, with no per-instance
        # name (the delay is rendered in __repr__ instead).
        self.sim = sim
        self.name = ""
        self.callbacks = []
        self._value = value
        self._exc = None
        self._processed = False
        self.delay = delay
        heap = sim._heap
        sim._sequence += 1
        heappush(heap, (sim._now + delay, sim._sequence, self))
        if len(heap) > sim.heap_high_water:
            sim.heap_high_water = len(heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self._processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<timeout({self.delay:g}) {state} at t={self.sim.now:.3f}ns>"


class _Resume:
    """Lightweight heap entry: resume a process from an already-processed event.

    Yielding an event that has already fired must resume the process at the
    *same* timestamp, after everything currently scheduled there (FIFO).
    Allocating a full replay :class:`Event` for that is wasteful — this
    carries just the captured value/exception and the target process.
    Interrupt delivery reuses it to carry the :class:`Interrupt` it throws.
    """

    # ``_value``/``_exc`` mirror an Event's outcome fields, so
    # :meth:`Process._resume` reads this entry exactly like an event.
    __slots__ = ("process", "_value", "_exc")

    #: ``Process._deliver_interrupt`` checks ``target.callbacks is not None``
    #: before detaching a waiter; ``None`` here means there is nothing to
    #: remove — cancellation is detected in :meth:`_process` instead, via
    #: the process' ``_waiting_on`` link.
    callbacks = None

    def __init__(self, process: "Process", value: Any, exc: Optional[BaseException]):
        self.process = process
        self._value = value
        self._exc = exc

    def _process(self) -> None:
        process = self.process
        if process._waiting_on is not self:
            # The process was interrupted (or re-targeted) while this entry
            # sat on the heap; the resume is stale.
            return
        process._resume(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<resume:{self.process.name}>"


class Process(Event):
    """A running coroutine.  Also an event that fires when the coroutine ends.

    The wrapped generator yields :class:`Event` instances; the process is
    resumed with the event's value (or the event's exception is thrown into
    the generator).  The generator's return value becomes this event's value.
    """

    __slots__ = ("_generator", "_waiting_on", "_interrupts", "daemon")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator,
        name: str = "",
        daemon: bool = False,
    ):
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        if not hasattr(generator, "send"):
            raise TypeError(f"Process requires a generator, got {generator!r}")
        self._generator = generator
        #: The Event (or _Resume entry) this process is currently waiting on.
        self._waiting_on: Optional[Any] = None
        self._interrupts: List[Interrupt] = []
        #: Daemon processes (infinite hardware server loops) do not count
        #: toward deadlock detection: a run that leaves only daemons
        #: waiting has simply finished its workload.
        self.daemon = daemon
        # Kick off the process at the current simulation time: an unnamed
        # bootstrap event, already triggered, pushed inline.
        bootstrap = Event(sim)
        bootstrap.callbacks.append(self._resume)
        bootstrap._value = None
        heap = sim._heap
        sim._sequence += 1
        heappush(heap, (sim._now, sim._sequence, bootstrap))
        if len(heap) > sim.heap_high_water:
            sim.heap_high_water = len(heap)
        sim.processes_spawned += 1
        if not daemon:
            sim._live_processes += 1

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def _process(self) -> None:
        had_waiters = bool(self.callbacks)
        super()._process()
        if self._exc is not None and not had_waiters:
            # A process died with an exception and nobody was waiting on it.
            # Surface the failure instead of letting it vanish.
            self.sim._unhandled.append(self)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting detaches it from the event it was waiting on.
        """
        if self.triggered:
            raise SchedulingError(f"cannot interrupt finished process {self!r}")
        interrupt = Interrupt(cause)
        self._interrupts.append(interrupt)
        poke = Event(self.sim, name=f"interrupt:{self.name}")
        poke.callbacks.append(self._deliver_interrupt)
        poke._value = None
        self.sim._enqueue(0.0, poke)

    # -- internals ----------------------------------------------------------
    def _deliver_interrupt(self, _poke: Event) -> None:
        if self.triggered or not self._interrupts:
            return
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._resume(_Resume(self, None, self._interrupts.pop(0)))

    def _resume(self, event: Any) -> None:
        """Advance the generator with ``event``'s outcome: its value is
        sent in, its exception thrown in.  ``event`` is the Event this
        process waited on (this method is its callback) or a
        :class:`_Resume` record carrying the outcome."""
        self._waiting_on = None
        sim = self.sim
        sim._active_process, previous = self, sim._active_process
        try:
            if event._exc is not None:
                target = self._generator.throw(event._exc)
            else:
                target = self._generator.send(event._value)
        except StopIteration as stop:
            if not self.daemon:
                sim._live_processes -= 1
            self._value = stop.value
            sim._enqueue(0.0, self)
            return
        except Interrupt as interrupt:
            # An un-caught interrupt terminates the process with its cause.
            if not self.daemon:
                sim._live_processes -= 1
            self._value = interrupt.cause
            sim._enqueue(0.0, self)
            return
        except BaseException as exc:
            if not self.daemon:
                sim._live_processes -= 1
            self._exc = exc
            self._value = None
            sim._enqueue(0.0, self)
            if not isinstance(exc, Exception):  # pragma: no cover
                raise
            return
        finally:
            sim._active_process = previous

        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                f"yield Event instances"
            )
        if target.sim is not sim:
            raise SimulationError(
                f"process {self.name!r} yielded an event from a different "
                f"simulator"
            )
        if target._processed:
            # The event already fired; resume immediately (same timestamp)
            # via a lightweight heap entry instead of a replay Event.
            resume = _Resume(self, target._value, target._exc)
            sim._enqueue(0.0, resume)
            self._waiting_on = resume
        else:
            target.callbacks.append(self._resume)
            self._waiting_on = target


class Condition(Event):
    """Base class for composite wait conditions (:class:`AllOf`/:class:`AnyOf`)."""

    def __init__(self, sim: "Simulator", events: Iterable[Event], name: str):
        super().__init__(sim, name=name)
        self.events: Tuple[Event, ...] = tuple(events)
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        self._remaining = len(self.events)
        if self._remaining == 0:
            self.succeed({})
            return
        for event in self.events:
            if event._processed:
                self._on_child(event)
                if self.triggered:
                    break
            else:
                event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError

    def _collect(self) -> dict:
        # ``_processed`` (not ``triggered``) is the "has fired" notion here:
        # a Timeout carries its value from creation, so it is "triggered"
        # long before its scheduled time arrives.
        return {
            event: event._value
            for event in self.events
            if event._processed and event._exc is None
        }


class AllOf(Condition):
    """Fires when every child event has fired; value maps event -> value."""

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, events, name="all_of")

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exc is not None:
            self.fail(event._exc)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class AnyOf(Condition):
    """Fires as soon as any child event fires; value maps event -> value."""

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, events, name="any_of")

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exc is not None:
            self.fail(event._exc)
            return
        self.succeed(self._collect())


class Simulator:
    """The event loop: a time-ordered heap of triggered events.

    ``now`` is the current simulation time in nanoseconds.  All model
    components hold a reference to a shared ``Simulator``.
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        # Heap entries hold Events or lightweight _Resume records; the
        # sequence number breaks ties so entries are never compared.
        self._heap: List[Tuple[float, int, Any]] = []
        self._sequence = 0
        self._live_processes = 0
        self._active_process: Optional[Process] = None
        self._running = False
        self._unhandled: List[Process] = []
        #: Every process that died unobserved, kept for post-mortem
        #: inspection even after :meth:`step` raised the first failure.
        self.unhandled_failures: List[Process] = []
        #: Execution statistics (exported by the observability layer).
        self.events_processed = 0
        self.heap_high_water = 0
        self.processes_spawned = 0
        #: Optional :class:`~repro.verify.InvariantMonitor` probing every
        #: step (time monotonicity, single-fire).  ``None`` costs one
        #: identity check per event.
        self.monitor = None

    # -- time ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def now_us(self) -> float:
        """Current simulation time in microseconds."""
        return self._now / 1e3

    @property
    def now_s(self) -> float:
        """Current simulation time in seconds."""
        return self._now / 1e9

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- event construction ---------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh, untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` ns from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator, name: str = "", daemon: bool = False
    ) -> Process:
        """Register ``generator`` as a new process starting now.

        ``daemon=True`` marks an infinite server loop (a hardware block
        waiting for requests): it is excluded from deadlock detection.
        """
        return Process(self, generator, name=name, daemon=daemon)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event firing when every one of ``events`` has fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event firing when the first of ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _enqueue(self, delay: float, event: Any) -> None:
        if not delay >= 0:  # also rejects NaN
            raise SchedulingError(f"cannot schedule {delay!r} ns in the past")
        self._sequence += 1
        heappush(self._heap, (self._now + delay, self._sequence, event))
        if len(self._heap) > self.heap_high_water:
            self.heap_high_water = len(self._heap)

    # -- execution -------------------------------------------------------------
    def step(self) -> None:
        """Process the single next event on the heap."""
        if not self._heap:
            raise Deadlock(self._live_processes)
        when, _seq, event = heappop(self._heap)
        if self.monitor is not None:
            self.monitor.on_kernel_event(self, when, event)
        if when < self._now:  # pragma: no cover - guarded by _enqueue
            raise SimulationError("time ran backwards")
        self._now = when
        self.events_processed += 1
        event._process()
        if self._unhandled:
            self._raise_unhandled()

    def _raise_unhandled(self) -> None:
        # One event can cascade into several unobserved process deaths
        # (e.g. a failing event with multiple waiters at the same
        # timestamp).  Sibling casualties are separate Process events
        # still sitting on the heap at this same timestamp — collect
        # them too, then raise the first but keep every casualty
        # inspectable instead of silently dropping the rest.
        same_time = []
        while self._heap and self._heap[0][0] == self._now:
            same_time.append(heappop(self._heap))
        for item in same_time:
            sibling = item[2]
            if (
                isinstance(sibling, Process)
                and sibling._exc is not None
                and not sibling.callbacks
            ):
                self.events_processed += 1
                sibling._process()
            else:
                heappush(self._heap, item)
        self.unhandled_failures.extend(self._unhandled)
        first = self._unhandled[0]
        self._unhandled.clear()
        raise first._exc

    def peek(self) -> float:
        """Time of the next event, or ``float('inf')`` if the heap is empty."""
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or ``until`` (absolute ns) is reached.

        Draining the heap with processes still waiting raises
        :class:`Deadlock` — silence would hide lost wakeups.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        try:
            # The per-event ``step()`` call collapses into a locals-bound
            # loop, and plain Event/Timeout callbacks run here instead of
            # through ``_process``.  Semantics — event order, processed
            # counts, the monitor probe, the unhandled-failure cascade,
            # ``until`` boundary handling — are identical to repeated
            # ``step()`` calls.
            heap = self._heap
            monitor = self.monitor
            while heap:
                if until is not None and heap[0][0] > until:
                    self._now = until
                    return
                when, _seq, event = heappop(heap)
                if monitor is not None:
                    monitor.on_kernel_event(self, when, event)
                self._now = when
                self.events_processed += 1
                kind = type(event)
                if kind is Timeout or kind is Event:
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    if callbacks:
                        for callback in callbacks:
                            callback(event)
                else:
                    event._process()
                if self._unhandled:
                    self._raise_unhandled()
            # A bounded run may legitimately drain the heap while processes
            # wait on external stimulus (the caller pokes the model and runs
            # again); only an unbounded run can never wake them.
            if until is None and self._live_processes > 0:
                raise Deadlock(self._live_processes)
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False

    def run_until(self, event: Event) -> Any:
        """Run until ``event`` fires; returns its value (or raises)."""
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        # Register as an observer so a failing process does not ALSO land
        # in the unhandled-failure list (its exception is delivered to the
        # caller through ``event.value`` below).
        if event.callbacks is not None:
            event.callbacks.append(lambda _event: None)
        self._running = True
        try:
            # Same dispatch loop as :meth:`run`; the target-event check
            # (``triggered``, read from the fields) stays per dispatched
            # event so the loop stops at exactly the same point as
            # repeated ``step()`` calls (later same-timestamp events
            # remain on the heap).
            heap = self._heap
            monitor = self.monitor
            while event._value is _PENDING and event._exc is None:
                if not heap:
                    raise Deadlock(self._live_processes)
                when, _seq, dispatched = heappop(heap)
                if monitor is not None:
                    monitor.on_kernel_event(self, when, dispatched)
                self._now = when
                self.events_processed += 1
                kind = type(dispatched)
                if kind is Timeout or kind is Event:
                    callbacks = dispatched.callbacks
                    dispatched.callbacks = None
                    dispatched._processed = True
                    if callbacks:
                        for callback in callbacks:
                            callback(dispatched)
                else:
                    dispatched._process()
                if self._unhandled:
                    self._raise_unhandled()
            return event.value
        finally:
            self._running = False
