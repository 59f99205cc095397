"""Per-layer host-time tracer, installed from outside the program.

The tracer patches the public entry points of each layer (the table
below) with wrappers that time every call and, for generators, every
resume.  Simulator processes are classified when they are created: the
wrapped :meth:`repro.sim.Engine.process` looks up the generator's
``gi_code.co_qualname`` in :data:`PROCESS_LAYERS`.  Nothing registers a
slice hook — a hook disables the Strobe Sender's idle fast-forward, and
the traced run would then be a different program.

Spans nest on one stack.  A layer's *self* time is the duration of its
spans minus the part covered by child spans, so every traced nanosecond
is counted exactly once; whatever no span covers (the event loop,
callbacks, resources) is the ``sim`` layer's self time.  Spans are kept
in memory as per-site aggregates (count and self time per entry point)
rather than one record per span: a dense run resumes generators
millions of times.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from types import GeneratorType
from typing import Callable, Dict, List, Optional

#: Layers in report order; ``sim`` is the remainder no span covers.
LAYERS = (
    "sim",
    "bcs.strobe",
    "bcs.threads",
    "bcs.matching",
    "bcs.scheduler",
    "network.fabric",
    "network.nic",
    "api",
    "core.gas",
    "apps",
)

#: Simulator processes, by the qualified name of their generator's code.
PROCESS_LAYERS = {
    "StrobeSender._run": "bcs.strobe",
    "StrobeReceiver._run": "bcs.strobe",
    "DmaHelper._move_chunk": "bcs.threads",
    "BcsCore.xfer_and_signal.<locals>.transfer": "core.gas",
    "BcsRuntime._rank_body": "apps",
}


def _slice_mark(tracer, args, kwargs, result, boundary):
    tracer.slice_marks.append(time.perf_counter_ns())


def _match_note(tracer, args, kwargs, result, boundary):
    # Only the outermost matcher call counts: a batch that falls back to
    # per-descriptor calls offers its descriptors once.
    if not boundary:
        return
    batch = args[1]
    if isinstance(result, list):
        tracer.counts["match_offered"] += len(batch)
        tracer.counts["match_returned"] += len(result)
    else:
        tracer.counts["match_offered"] += 1
        tracer.counts["match_returned"] += result is not None


def _grant_note(tracer, args, kwargs, result, boundary):
    tracer.counts["grants"] += len(result)


def _unicast_note(tracer, args, kwargs, result, boundary):
    tracer.counts["unicasts"] += 1
    tracer.counts["unicast_bytes"] += args[3] if len(args) > 3 else kwargs["size"]


#: (module, class, methods, layer, note) — the layer boundaries.
ENTRY_POINTS = (
    ("repro.bcs.runtime", "BcsRuntime", ("slice_work",), "bcs.strobe", _slice_mark),
    ("repro.bcs.runtime", "BcsRuntime",
     ("any_work", "dem_nodes", "msm_nodes", "bbm_nodes", "rm_nodes",
      "global_schedule", "idle"), "bcs.strobe", None),
    ("repro.bcs.threads", "BufferSender", ("dem_phase",), "bcs.threads", None),
    ("repro.bcs.threads", "BufferReceiver", ("dem_phase", "msm_phase"), "bcs.threads", None),
    ("repro.bcs.threads", "DmaHelper", ("p2p_phase",), "bcs.threads", None),
    ("repro.bcs.threads", "CollectiveHelper", ("bbm_phase",), "bcs.threads", None),
    ("repro.bcs.threads", "ReduceHelper", ("rm_phase",), "bcs.threads", None),
    ("repro.bcs.matching", "HashMatcher",
     ("add_send", "add_recv", "add_send_batch", "add_recv_batch"), "bcs.matching",
     _match_note),
    ("repro.bcs.scheduler", "SliceScheduler", ("schedule_slice",), "bcs.scheduler",
     _grant_note),
    ("repro.bcs.scheduler", "SliceScheduler", ("add_matches", "retire_finished"),
     "bcs.scheduler", None),
    ("repro.network.fabric", "Fabric", ("unicast",), "network.fabric", _unicast_note),
    ("repro.network.fabric", "Fabric",
     ("multicast", "control_multicast", "conditional", "strobe_latency"),
     "network.fabric", None),
    ("repro.network.nic", "Nic", ("compute", "compute_batch"), "network.nic", None),
    ("repro.mpi.bcs_backend", "BcsCommunicator",
     ("isend", "irecv", "send", "recv", "iprobe", "cancel", "wait", "waitall",
      "barrier", "bcast", "reduce", "allreduce", "split"), "api", None),
    ("repro.core.global_memory", "GlobalAddressSpace",
     ("read", "write", "write_all", "increment_batch", "gather"), "core.gas", None),
    ("repro.core.primitives", "BcsCore",
     ("xfer_and_signal", "test_event_poll", "test_event", "compare_and_write"),
     "core.gas", None),
)


class Layer:
    """Aggregates of one layer: self time and boundary crossings."""

    __slots__ = ("name", "self_ns", "calls", "resumes")

    def __init__(self, name: str):
        self.name = name
        self.self_ns = 0
        #: Calls into the layer from another layer (or from no span).
        self.calls = 0
        #: Generator resumes entering the layer from another layer.
        self.resumes = 0


class Site:
    """Aggregates of one entry point (a method or a process kind)."""

    __slots__ = ("name", "layer", "spans", "self_ns", "created")

    def __init__(self, name: str, layer: Layer):
        self.name = name
        self.layer = layer
        self.spans = 0
        self.self_ns = 0
        #: Processes of this kind created (process sites only).
        self.created = 0


class Tracer:
    """Times calls into each layer; install with :meth:`install`."""

    def __init__(self):
        self.layers: Dict[str, Layer] = {name: Layer(name) for name in LAYERS}
        self.sites: Dict[str, Site] = {}
        self.stack: List[list] = []
        self.counts: Counter = Counter()
        #: perf_counter_ns at each slice_work call (one per slice run).
        self.slice_marks: List[int] = []
        #: Processes no table entry classifies, by qualified name.
        self.unclassified: Counter = Counter()
        self.wall_ns = 0
        #: Layer self times (ns) frozen by :meth:`end`.
        self.self_ns: Dict[str, int] = {}
        self._t0 = 0
        self._patches: list = []

    # -- spans -----------------------------------------------------------------

    def site(self, name: str, layer: str) -> Site:
        """The aggregate for entry point ``name`` in ``layer``."""
        site = self.sites.get(name)
        if site is None:
            site = self.sites[name] = Site(name, self.layers[layer])
        return site

    def timed_generator(self, gen, site: Site):
        """Drive ``gen`` unchanged, timing each resume as a span of ``site``.

        Values, exceptions thrown in (``Interrupt``), return values and
        ``close()`` pass through, so the simulation cannot tell the
        wrapper from the generator it wraps.
        """
        stack = self.stack
        clock = time.perf_counter_ns
        layer = site.layer
        value = None
        exc: Optional[BaseException] = None
        while True:
            if not stack or stack[-1][0].layer is not layer:
                layer.resumes += 1
            frame = [site, 0]
            stack.append(frame)
            t0 = clock()
            try:
                if exc is None:
                    out = gen.send(value)
                else:
                    out, exc = gen.throw(exc), None
            except StopIteration as stop:
                return stop.value
            finally:
                dur = clock() - t0
                stack.pop()
                own = dur - frame[1]
                site.self_ns += own
                site.spans += 1
                layer.self_ns += own
                if stack:
                    stack[-1][1] += dur
            try:
                value = yield out
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as thrown:
                exc, value = thrown, None

    def timed_function(self, fn: Callable, site: Site, note=None) -> Callable:
        """``fn`` with each call timed as a span of ``site``.

        A returned generator is wrapped by :meth:`timed_generator`, so a
        generator method's body is timed where it actually runs: on each
        resume, under whatever span resumed it.  ``note`` sees every
        call's arguments and result for work counts.
        """
        tracer = self
        stack = self.stack
        clock = time.perf_counter_ns
        layer = site.layer

        def traced(*args, **kwargs):
            boundary = not stack or stack[-1][0].layer is not layer
            if boundary:
                layer.calls += 1
            frame = [site, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                own = dur - frame[1]
                site.self_ns += own
                site.spans += 1
                layer.self_ns += own
                if stack:
                    stack[-1][1] += dur
            if note is not None:
                note(tracer, args, kwargs, result, boundary)
            if type(result) is GeneratorType:
                return tracer.timed_generator(result, site)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    # -- installation ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        """Patch every entry point plus ``Engine.process``/``Engine.schedule``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from repro.sim import Engine

        for module, cls_name, methods, layer, note in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                fn = cls.__dict__[method]
                site = self.site(f"{cls_name}.{method}", layer)
                self._patch(cls, method, self.timed_function(fn, site, note))

        counts = self.counts
        process = Engine.process
        schedule = Engine.schedule
        tracer = self

        def traced_process(env, generator, name=""):
            counts["processes"] += 1
            code = getattr(generator, "gi_code", None)
            qualname = code.co_qualname if code is not None else type(generator).__name__
            layer = PROCESS_LAYERS.get(qualname)
            if layer is None:
                tracer.unclassified[qualname] += 1
                return process(env, generator, name)
            site = tracer.site(qualname, layer)
            site.created += 1
            wrapped = tracer.timed_generator(generator, site)
            wrapped.__name__ = generator.__name__
            return process(env, wrapped, name)

        def counted_schedule(env, event, delay=0, priority=0):
            counts["events"] += 1
            return schedule(env, event, delay, priority)

        self._patch(Engine, "process", traced_process)
        self._patch(Engine, "schedule", counted_schedule)
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- the traced region ----------------------------------------------------------

    def begin(self) -> None:
        """Zero every aggregate and start the traced wall clock."""
        for layer in self.layers.values():
            layer.self_ns = layer.calls = layer.resumes = 0
        for site in self.sites.values():
            site.spans = site.self_ns = site.created = 0
        self.counts.clear()
        self.unclassified.clear()
        self.slice_marks.clear()
        self._t0 = time.perf_counter_ns()

    def end(self) -> None:
        """Stop the traced wall clock, freeze self times, charge the rest to ``sim``."""
        self.wall_ns = time.perf_counter_ns() - self._t0
        self.self_ns = {
            name: layer.self_ns for name, layer in self.layers.items() if name != "sim"
        }
        self.self_ns["sim"] = self.wall_ns - sum(self.self_ns.values())

    def profile(self) -> dict:
        """Per-site aggregates, for the run's output file."""
        return {
            "sites": {
                s.name: {
                    "layer": s.layer.name,
                    "spans": s.spans,
                    "self_s": s.self_ns / 1e9,
                    "created": s.created,
                }
                for s in sorted(self.sites.values(), key=lambda s: -s.self_ns)
            },
            "unclassified_processes": dict(self.unclassified),
            "counts": dict(self.counts),
        }

