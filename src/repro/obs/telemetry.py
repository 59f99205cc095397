"""Slice-level telemetry: the hub the instrumented runtime reports into.

An :class:`Observability` instance bundles the sinks — a
:class:`~repro.obs.registry.MetricsRegistry`, a
:class:`~repro.obs.perfetto.PerfettoTrace`, a
:class:`~repro.obs.profiler.MpiProfiler`, and (opt-in via
``spans=True``) a :class:`~repro.obs.spans.SpanTracker` for causal
message-lifecycle tracing — and exposes the hook methods the BCS
runtime calls from its hot paths.

Wiring: ``runtime.attach_observability(obs)`` stores the hub on the
runtime, the slice scheduler, and every NIC; every instrumented call
site guards with a single ``if obs is not None`` so a run without
observability pays one attribute read per hook point and nothing else.
Hooks never yield into the simulator, so instrumentation cannot perturb
virtual time (the golden-timings tests pin this).

Metric catalog (see docs/OBSERVABILITY.md):

=================================  =========  ================================
metric                             kind       meaning
=================================  =========  ================================
``bcs.slice.count``                counter    slices, labeled kind=active/idle
``bcs.slice.utilization``          histogram  busy_ns / timeslice per slice
``bcs.slice.overruns``             counter    slices exceeding the timeslice
``bcs.microphase.duration_ns``     histogram  per-phase duration (labeled)
``bcs.strobe.skew_ns``             histogram  per-phase node completion skew
``bcs.queue.depth``                histogram  descriptor queue depth per slice
``bcs.match.unexpected``           gauge      unexpected sends queued (matcher)
``bcs.match.posted``               gauge      posted receives queued (matcher)
``bcs.sched.granted_bytes``        histogram  bytes granted per active slice
``bcs.sched.link_utilization``     histogram  per-source tx budget fraction
``bcs.sched.backlog_bytes``        gauge      current scheduler backlog
``nic.thread.busy_ns``             counter    NIC thread busy time (per node)
=================================  =========  ================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .perfetto import PerfettoTrace
from .profiler import MpiProfiler
from .registry import MetricsRegistry
from .spans import SpanTracker

if TYPE_CHECKING:  # pragma: no cover
    from ..bcs.runtime import BcsRuntime

__all__ = ["Observability", "PHASE_THREADS"]

#: Which NIC thread(s) a microphase wakes (paper §4.2, Figure 5) —
#: used to label NIC-thread occupancy spans.
PHASE_THREADS = {
    "DEM": "BS/BR",
    "MSM": "BR",
    "P2P": "DH",
    "BBM": "CH",
    "RM": "RH",
}

#: Thread-track ids inside each node's process group.
TID_MICROPHASES = 0
TID_NIC = 1


class Observability:
    """Telemetry hub: metrics registry + Perfetto trace + MPI profiler."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        perfetto: bool = True,
        profile: bool = True,
        spans: bool = False,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.perfetto: Optional[PerfettoTrace] = PerfettoTrace() if perfetto else None
        self.profiler: Optional[MpiProfiler] = MpiProfiler() if profile else None
        #: Causal message-lifecycle tracker (``spans=True``); feeds the
        #: critical-path extractor and the Perfetto flow events.
        self.spans: Optional[SpanTracker] = SpanTracker() if spans else None
        self.runtime: Optional["BcsRuntime"] = None
        self.timeslice = 0
        self.mgmt_pid = 0
        #: Microphase currently driven by the Strobe Sender (labels NIC
        #: occupancy spans with the thread that phase wakes).
        self.current_phase: Optional[str] = None
        #: (slice_no, phase) -> completion times of participating nodes.
        self._phase_done: Dict[Tuple[int, str], List[int]] = {}
        #: Busy nanoseconds accumulated in the current slice.
        self._slice_busy = 0

    # -- wiring -------------------------------------------------------------------

    def bind(self, runtime: "BcsRuntime") -> None:
        """Attach to a runtime: name tracks, hook scheduler and NICs."""
        from ..bcs.runtime import existing_node_runtimes

        self.runtime = runtime
        self.timeslice = runtime.config.timeslice
        self.mgmt_pid = runtime.cluster.management_node.id
        runtime.scheduler.obs = self
        # Materialized nodes get the hub here; lazily materialized ones
        # (the fast path) inherit it at construction from
        # ``runtime.obs`` — binding never forces a 64k table into being.
        for nrt in existing_node_runtimes(runtime.node_runtimes):
            nrt.nic.obs = self
        if self.spans is not None:
            self.spans.attach(runtime, self.perfetto)
        if self.perfetto is not None:
            self.perfetto.process_name(
                self.mgmt_pid, "slice machine (mgmt)", sort_index=-1
            )
            self.perfetto.thread_name(self.mgmt_pid, TID_MICROPHASES, "microphases")
            for nrt in existing_node_runtimes(runtime.node_runtimes):
                self.node_track(nrt.node_id)

    def node_track(self, node_id: int) -> None:
        """Register one node's Perfetto tracks.

        Called from :meth:`bind` for already-materialized nodes and from
        ``NodeRuntime`` construction for nodes materialized later (the
        fast path's lazy table), so every node that ever does
        anything gets named tracks regardless of when it came into being.
        """
        if self.perfetto is not None:
            self.perfetto.process_name(node_id, f"node {node_id}")
            self.perfetto.thread_name(
                node_id, TID_MICROPHASES, "microphases (SR)"
            )
            self.perfetto.thread_name(node_id, TID_NIC, "NIC threads")

    # -- slice lifecycle (called by the Strobe Sender) ------------------------------

    def slice_begin(self, slice_no: int, t: int) -> None:
        """Start of a slice: sample descriptor queue and matcher depths."""
        runtime = self.runtime
        self._slice_busy = 0
        if runtime is None:
            return
        # O(active nodes) + O(1) via the runtime's accessors (an idle
        # machine samples four empty sets and two integers), with the
        # same totals the original all-node poll produced.
        sends, recvs, colls, arrived = runtime.queue_depths()
        unexpected, posted = runtime.matcher_pending_totals()
        reg = self.registry
        reg.histogram("bcs.queue.depth", kind="posted_sends").observe(sends)
        reg.histogram("bcs.queue.depth", kind="posted_recvs").observe(recvs)
        reg.histogram("bcs.queue.depth", kind="posted_colls").observe(colls)
        reg.histogram("bcs.queue.depth", kind="arrived_sends").observe(arrived)
        reg.gauge("bcs.match.unexpected").set(unexpected)
        reg.gauge("bcs.match.posted").set(posted)
        if self.perfetto is not None:
            self.perfetto.counter(
                self.mgmt_pid,
                "descriptor queues",
                t,
                {
                    "posted_sends": sends,
                    "posted_recvs": recvs,
                    "posted_colls": colls,
                    "arrived_sends": arrived,
                },
            )

    def slice_end(
        self, slice_no: int, t0: int, t1: int, active: bool, overrun: bool
    ) -> None:
        """End of a slice: utilization sample plus the slice span."""
        reg = self.registry
        reg.counter("bcs.slice.count", kind="active" if active else "idle").inc()
        if overrun:
            reg.counter("bcs.slice.overruns").inc()
        utilization = self._slice_busy / self.timeslice if self.timeslice else 0.0
        reg.histogram("bcs.slice.utilization").observe(utilization)
        if self.perfetto is not None:
            self.perfetto.complete(
                self.mgmt_pid,
                TID_MICROPHASES,
                f"slice {slice_no}",
                "slice",
                t0,
                t1 - t0,
                args={"utilization": utilization, "active": active},
            )

    def idle_skip(
        self, first_slice: int, first_start: int, timeslice: int, count: int
    ) -> None:
        """Replay telemetry for ``count`` idle slices skipped in one jump.

        The Strobe Sender's idle fast-forward only fires when cluster
        state provably cannot change until the wake boundary, so every
        skipped slice would have produced the same samples: zero queue
        depths (``any_work`` was false), frozen matcher gauges, an idle
        slice count, zero utilization.  The sums are sampled once and the
        per-slice records emitted in exactly the order the non-skipping
        loop would have, keeping metric and trace output independent of
        whether the slices were skipped.
        """
        if count <= 0:
            return
        runtime = self.runtime
        unexpected = posted = 0
        if runtime is not None:
            unexpected, posted = runtime.matcher_pending_totals()
        reg = self.registry
        h_sends = reg.histogram("bcs.queue.depth", kind="posted_sends")
        h_recvs = reg.histogram("bcs.queue.depth", kind="posted_recvs")
        h_colls = reg.histogram("bcs.queue.depth", kind="posted_colls")
        h_arrived = reg.histogram("bcs.queue.depth", kind="arrived_sends")
        g_unexpected = reg.gauge("bcs.match.unexpected")
        g_posted = reg.gauge("bcs.match.posted")
        idle_counter = reg.counter("bcs.slice.count", kind="idle")
        utilization = reg.histogram("bcs.slice.utilization")
        perfetto = self.perfetto
        depths = {
            "posted_sends": 0,
            "posted_recvs": 0,
            "posted_colls": 0,
            "arrived_sends": 0,
        }
        for i in range(count):
            t = first_start + i * timeslice
            h_sends.observe(0)
            h_recvs.observe(0)
            h_colls.observe(0)
            h_arrived.observe(0)
            g_unexpected.set(unexpected)
            g_posted.set(posted)
            if perfetto is not None:
                perfetto.counter(self.mgmt_pid, "descriptor queues", t, depths)
            idle_counter.inc()
            utilization.observe(0.0)
            if perfetto is not None:
                perfetto.complete(
                    self.mgmt_pid,
                    TID_MICROPHASES,
                    f"slice {first_slice + i}",
                    "slice",
                    t,
                    timeslice,
                    args={"utilization": 0.0, "active": False},
                )
        self._slice_busy = 0

    # -- microphases ---------------------------------------------------------------

    def phase_begin(self, phase: str, slice_no: int, t: int) -> None:
        """Strobe Sender starts driving a microphase."""
        self.current_phase = phase

    def phase_end(
        self, phase: str, slice_no: int, t0: int, t1: int, n_nodes: int
    ) -> None:
        """Microphase complete (all nodes confirmed, padding applied)."""
        self.current_phase = None
        duration = t1 - t0
        self._slice_busy += duration
        reg = self.registry
        reg.histogram("bcs.microphase.duration_ns", phase=phase).observe(duration)
        reg.counter("bcs.microphase.nodes", phase=phase).inc(n_nodes)
        done = self._phase_done.pop((slice_no, phase), None)
        if done is not None and len(done) >= 2:
            reg.histogram("bcs.strobe.skew_ns", phase=phase).observe(
                max(done) - min(done)
            )
        if self.perfetto is not None:
            self.perfetto.complete(
                self.mgmt_pid,
                TID_MICROPHASES,
                phase,
                "microphase",
                t0,
                duration,
                args={"slice": slice_no, "nodes": n_nodes},
            )

    def node_phase(
        self, node_id: int, phase: str, slice_no: int, t0: int, t1: int
    ) -> None:
        """One Strobe Receiver finished its part of a microphase."""
        self._phase_done.setdefault((slice_no, phase), []).append(t1)
        if self.perfetto is not None:
            self.perfetto.complete(
                node_id,
                TID_MICROPHASES,
                phase,
                "microphase",
                t0,
                t1 - t0,
                args={"slice": slice_no},
            )

    # -- scheduler (called by SliceScheduler.schedule_slice) -------------------------

    def sched_slice(self, scheduler, granted) -> None:
        """Grant decisions of one Message Scheduling Microphase."""
        reg = self.registry
        granted_bytes = 0
        per_src: Dict[int, int] = {}
        for match in granted:
            chunk = match.scheduled_now
            if chunk <= 0:
                continue
            granted_bytes += chunk
            per_src[match.src_node] = per_src.get(match.src_node, 0) + chunk
        reg.histogram("bcs.sched.granted_bytes").observe(granted_bytes)
        budget = scheduler.budget_bytes
        for src in sorted(per_src):
            reg.histogram("bcs.sched.link_utilization").observe(
                per_src[src] / budget if budget else 0.0
            )
        backlog = scheduler.backlog_bytes
        reg.gauge("bcs.sched.backlog_bytes").set(backlog)
        if self.perfetto is not None and self.runtime is not None:
            self.perfetto.counter(
                self.mgmt_pid,
                "scheduler",
                self.runtime.env.now,
                {
                    "granted_bytes": granted_bytes,
                    "backlog_bytes": backlog,
                    "in_flight": len(scheduler.in_flight),
                },
            )
        if self.spans is not None:
            self.spans.sched_granted(granted)

    def sched_retired(self, finished) -> None:
        """Fully transferred matches dropped by the scheduler."""
        if self.spans is not None:
            self.spans.sched_retired(finished)

    # -- NIC threads (called by Nic.compute) -----------------------------------------

    def nic_busy(self, node_id: int, t0: int, t1: int, busy_ns: int) -> None:
        """One NIC-thread work item occupied the thread processor."""
        thread = PHASE_THREADS.get(self.current_phase or "", "misc")
        self.registry.counter("nic.thread.busy_ns", node=node_id).inc(busy_ns)
        if self.perfetto is not None:
            self.perfetto.complete(
                node_id, TID_NIC, thread, "nic", t0, t1 - t0
            )

    # -- reporting ----------------------------------------------------------------

    def nic_occupancy(self) -> Dict[int, float]:
        """Per-node NIC thread occupancy over the whole run."""
        if self.runtime is None or self.runtime.env.now == 0:
            return {}
        total = self.runtime.env.now
        out = {}
        for key, counter in sorted(self.registry.series("nic.thread.busy_ns").items()):
            node = int(dict(key)["node"])
            out[node] = counter.value / total
        return out

    def __repr__(self) -> str:
        bound = "bound" if self.runtime is not None else "unbound"
        return f"<Observability {bound} {self.registry!r}>"
