"""External per-layer tracer for the PDR simulator.

The tracer times the simulator's layers from the outside: it patches
public entry points of the installed ``repro`` modules (and wraps
``PdrSystem.__init__`` to find the systems an op builds) for the duration
of a traced op and restores them afterwards, so the program itself
carries no tracing code and an untraced op runs the original functions.

Two kinds of span are recorded:

* **Process resumes.**  ``Simulator.process`` is patched so that every
  process generator is wrapped in :class:`TimedGenerator`, a proxy that
  forwards ``send``/``throw``/``close`` and ``__name__``.  Each resume is
  a span charged to the ``repro.<package>`` that owns the generator's
  code (``dma``, ``icap``, ``axi``, ...).
* **Synchronous calls** at layer boundaries (:data:`CALL_SPANS`), such as
  ``ConfigMemory.write_frame_packed`` or ``plan_fleet``.

Spans are ``(name, start, end, parent)`` and stay in memory until the run
ends.  A layer's *self time* is the time of its spans minus the time of
their child spans; the kernel's self time is what ``Simulator.run`` /
``run_until`` spend outside every process resume and call span.  Self
times are accumulated as spans close, so reading them costs nothing
extra at the end of an op.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable, Dict, List, Tuple

_now = time.perf_counter_ns

#: Synchronous call spans: (module, owner attribute path, span name).
#: The layer of a span is the part of its name before the first dot.
CALL_SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.kernel", "Simulator.run", "sim.run"),
    ("repro.sim.kernel", "Simulator.run_until", "sim.run"),
    ("repro.core.pdr_system", "PdrSystem.reconfigure", "core.reconfigure"),
    ("repro.core.pdr_system", "PdrSystem.reconfigure_batch", "core.reconfigure"),
    ("repro.core.pdr_system", "PdrSystem.make_bitstream", "bitstream.build"),
    ("repro.core.pdr_system", "PdrSystem.fork", "snapshot.fork"),
    ("repro.bitstream.crc", "ConfigCrc.update_run", "bitstream.crc"),
    ("repro.fabric.config_memory", "ConfigMemory.write_frame_packed", "fabric.write_frame"),
    ("repro.snapshot.templates", "template_snapshot", "snapshot.template"),
    ("repro.snapshot.templates", "point_template_snapshot", "snapshot.template"),
    ("repro.exec.runner", "SweepRunner.run", "exec.run"),
    ("repro.experiments.points", "reconfigure_point", "experiments.point"),
    ("repro.fleet.service", "run_fleet", "fleet.run"),
    ("repro.fleet.scheduler", "plan_fleet", "fleet.plan"),
    ("repro.fleet.service", "board_point", "fleet.board"),
    ("repro.chaos.soak", "run_soak", "chaos.soak"),
    ("repro.chaos.soak", "soak_case", "chaos.case"),
    ("repro.chaos.injector", "ChaosInjector.arm", "chaos.arm"),
    ("repro.resilience.reconfigurator", "ResilientReconfigurator.reconfigure", "resilience.reconfigure"),
    ("repro.resilience.reconfigurator", "ResilientReconfigurator.reconfigure_batch", "resilience.reconfigure"),
    ("repro.resilience.reconfigurator", "ResilientReconfigurator.repair_pending", "resilience.repair"),
    ("repro.verify.invariants", "InvariantMonitor.on_kernel_event", "verify.kernel_event"),
)


def package_of(filename: str) -> str:
    """The ``repro`` package that owns a source file (``other`` if none)."""
    parts = filename.replace("\\", "/").split("/")
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro":
            component = parts[index + 1]
            return component[:-3] if component.endswith(".py") else component
    return "other"


class TimedGenerator:
    """Generator proxy timing each resume as a span of its owning layer."""

    def __init__(self, generator, name_id: int, tracer: "Tracer"):
        self._generator = generator
        self._name_id = name_id
        self._tracer = tracer
        self.__name__ = getattr(generator, "__name__", "process")

    def send(self, value):
        tracer = self._tracer
        tracer.open(self._name_id)
        try:
            return self._generator.send(value)
        finally:
            tracer.close()

    def throw(self, *args):
        tracer = self._tracer
        tracer.open(self._name_id)
        try:
            return self._generator.throw(*args)
        finally:
            tracer.close()

    def close(self):
        return self._generator.close()


class Tracer:
    """Span recorder plus the patches that feed it.

    ``install()`` patches the program, ``uninstall()`` restores every
    original; a tracer can be installed and removed any number of times.
    Counters and self times accumulate across installs until
    :meth:`take_op` hands the per-op figures out and resets them.
    """

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # Span store: parallel arrays, one entry per span.
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        # Open spans: [name_id, start_ns, child_ns, span_index].
        self._stack: List[list] = []
        self._self_ns: Counter = Counter()
        self._total_ns: Counter = Counter()
        self._calls: Counter = Counter()
        self._resume_names: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        #: ``CALL_SPANS`` entries the program does not have.
        self.missing: set = set()
        #: Systems constructed while installed (counters are read per op).
        self.systems: List[Any] = []
        #: Template snapshots built (not served from the registry).
        self.template_builds = 0
        self.template_build_ns = 0

    # -- spans -------------------------------------------------------------
    def name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def open(self, name_id: int) -> None:
        stack = self._stack
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(stack[-1][3] if stack else -1)
        self.span_end.append(0)
        start = _now()
        self.span_start.append(start)
        stack.append([name_id, start, 0, index])

    def close(self) -> int:
        end = _now()
        name_id, start, child_ns, index = self._stack.pop()
        self.span_end[index] = end
        duration = end - start
        self._self_ns[name_id] += duration - child_ns
        self._total_ns[name_id] += duration
        self._calls[name_id] += 1
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    # -- patching ------------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        from repro.core.pdr_system import PdrSystem
        from repro.sim.kernel import Simulator

        for module_name, path, span_name in CALL_SPANS:
            self._patch_call(module_name, path, self.name_id(span_name))

        original_process = Simulator.process
        tracer = self

        def process(sim, generator, name="", daemon=False):
            code = getattr(generator, "gi_code", None)
            layer = package_of(code.co_filename) if code is not None else "other"
            name_id = tracer._resume_names.get(layer)
            if name_id is None:
                name_id = tracer._resume_names[layer] = tracer.name_id(
                    f"{layer}.resume"
                )
            return original_process(
                sim, TimedGenerator(generator, name_id, tracer), name, daemon
            )

        self._set(Simulator, "process", process)

        original_init = PdrSystem.__init__

        def __init__(system, *args, **kwargs):
            original_init(system, *args, **kwargs)
            tracer.systems.append(system)

        self._set(PdrSystem, "__init__", __init__)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _set(self, owner, attribute: str, value) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def _patch_call(self, module_name: str, path: str, name_id: int) -> None:
        owner_name, _, attribute = path.rpartition(".")
        try:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            owner.__dict__[attribute]
        except (ImportError, AttributeError, KeyError):
            # The program no longer has this entry point: its span is
            # missing (and reported), the rest of the trace still runs.
            self.missing.add(f"{module_name}:{path}")
            return
        if owner_name:
            self._set(owner, attribute, self._wrap_raw(owner.__dict__[attribute], name_id))
            return
        # A module-level function: rebind it in every module that imported
        # it by name (the program's and the benchmark's own), so callers
        # see the wrapper wherever they look it up.
        original = getattr(module, attribute)
        wrapper = self._wrap(
            original,
            name_id,
            module.template_count if module_name == "repro.snapshot.templates" else None,
        )
        for other in list(sys.modules.values()):
            if getattr(other, "__dict__", {}).get(attribute) is original:
                self._set(other, attribute, wrapper)

    def _wrap_raw(self, raw, name_id: int):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(raw.__func__, name_id))
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap(raw.__func__, name_id))
        return self._wrap(raw, name_id)

    def _wrap(self, function: Callable, name_id: int, template_count=None) -> Callable:
        """``function`` inside a span; with ``template_count``, calls that
        built a template snapshot are also counted and timed."""
        tracer = self

        def wrapper(*args, **kwargs):
            before = template_count() if template_count is not None else 0
            tracer.open(name_id)
            try:
                return function(*args, **kwargs)
            finally:
                duration = tracer.close()
                if template_count is not None and template_count() > before:
                    tracer.template_builds += 1
                    tracer.template_build_ns += duration

        return functools.update_wrapper(wrapper, function)

    # -- results ---------------------------------------------------------------
    def take_op(self) -> Dict[str, Any]:
        """Per-span-name self/total ns and calls since the last take; resets."""
        figures = {
            "self_ns": {self.names[k]: v for k, v in self._self_ns.items()},
            "total_ns": {self.names[k]: v for k, v in self._total_ns.items()},
            "calls": {self.names[k]: v for k, v in self._calls.items()},
            "systems": self.systems,
        }
        self._self_ns = Counter()
        self._total_ns = Counter()
        self._calls = Counter()
        self.systems = []
        return figures

    @property
    def span_count(self) -> int:
        return len(self.span_name)

    def export(self, first: int) -> Dict[str, Any]:
        """Spans from index ``first`` on, plus the state a parent needs.

        A forked child exports what it recorded; the parent, whose tracer
        the child's started as a copy of, takes it in with :meth:`absorb`.
        """
        return {
            "names": list(self.names),
            "name": self.span_name[first:],
            "start": self.span_start[first:],
            "end": self.span_end[first:],
            "parent": self.span_parent[first:],
            "template_builds": self.template_builds,
            "template_build_ns": self.template_build_ns,
        }

    def absorb(self, exported: Dict[str, Any]) -> None:
        for name in exported["names"][len(self.names):]:
            self.name_id(name)
        self.span_name.extend(exported["name"])
        self.span_start.extend(exported["start"])
        self.span_end.extend(exported["end"])
        self.span_parent.extend(exported["parent"])
        self.template_builds = exported["template_builds"]
        self.template_build_ns = exported["template_build_ns"]

    def write(self, path) -> None:
        """Write every recorded span as gzip JSON, times in ns from the first.

        Rows are streamed in chunks: a traced fleet run holds millions of
        spans, too many to build as one list first.
        """
        origin = self.span_start[0] if len(self.span_start) else 0
        rows = zip(self.span_name, self.span_start, self.span_end, self.span_parent)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write('{"fields":["name","start_ns","end_ns","parent"],"names":')
            handle.write(json.dumps(self.names))
            handle.write(',"spans":[')
            separator = ""
            while True:
                chunk = [
                    f"[{name},{start - origin},{end - origin},{parent}]"
                    for name, start, end, parent in itertools.islice(rows, 65536)
                ]
                if not chunk:
                    break
                handle.write(separator + ",".join(chunk))
                separator = ","
            handle.write("]}")
