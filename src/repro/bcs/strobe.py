"""The global synchronization protocol (paper §4.2, Figure 5).

The **Strobe Sender** (SS), a NIC thread on the management node, drives
every time slice: it multicasts a *microstrobe* at the beginning of each
microphase, and before moving on checks that all nodes completed the
current microphase with a ``Compare-And-Write``.  The **Strobe Receiver**
(SR) on each compute node wakes the local NIC threads that must be active
in the new microphase and reports completion through global memory.

Slice structure (Figure 5):

    [ DEM | MSM ]  [ P2P | BBM | RM ]
    global message scheduling   message transmission
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List

from ..sim import Latch, ReusableLatch, ReusableTimeout, Store
from .threads import PhasePlan, solve_exchange, solve_scheduling, solve_transmission

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import BcsRuntime
    from .threads import NodeRuntime

#: Microphase names, in slice order.
DEM, MSM, P2P, BBM, RM = "DEM", "MSM", "P2P", "BBM", "RM"
MICROPHASES = (DEM, MSM, P2P, BBM, RM)

#: Microphases the batched engine solves in one pass, with their
#: ``(solved, fallback)`` counters in ``runtime.stats``.
_KERNEL_STATS = {
    DEM: ("dem_phases_solved", "dem_phases_fallback"),
    MSM: ("msm_phases_solved", "msm_phases_fallback"),
    P2P: ("p2p_phases_solved", "p2p_phases_fallback"),
}


@dataclass(slots=True)
class Strobe:
    """One microstrobe delivered to a Strobe Receiver.

    ``done`` is shared by every receiver of the same microphase: each SR
    counts it down once, and the Strobe Sender resumes when the last
    participant reports in.
    """

    phase: str
    slice_no: int
    payload: Any
    done: Latch


class StrobeReceiver:
    """SR: per-node dispatcher waking NIC threads per microphase."""

    def __init__(self, nrt: "NodeRuntime"):
        self.nrt = nrt
        self.inbox = Store(nrt.env, name=f"sr{nrt.node_id}")
        self.completed_phases = 0
        self._proc = nrt.env.process(self._run(), name=f"SR{nrt.node_id}")

    def _run(self):
        nrt = self.nrt
        reference = nrt.config.reference
        agents = nrt.runtime.agents[nrt.node_id]
        handlers = {
            DEM: lambda s: self._dem(agents),
            MSM: lambda s: agents.br.msm_phase(),
            P2P: lambda s: agents.dh.p2p_phase(s.payload),
            BBM: lambda s: agents.ch.bbm_phase(),
            RM: lambda s: agents.rh.rm_phase(),
        }
        while True:
            strobe = yield self.inbox.get()
            if strobe.phase == "STOP":
                strobe.done.count_down()
                return
            t0 = nrt.env.now
            yield from handlers[strobe.phase](strobe)
            self.completed_phases += 1
            # Report completion in global memory; the SS's
            # Compare-And-Write tests this counter.  On the fast path
            # the SS performs one batched arena increment for the whole
            # participant set instead of this per-node write — the
            # array-backed slot ends up with the identical value.
            if reference:
                nrt.runtime.core.gas.write(
                    nrt.node_id, "mphase_done", self.completed_phases
                )
            obs = nrt.runtime.obs
            if obs is not None:
                obs.node_phase(
                    nrt.node_id, strobe.phase, strobe.slice_no, t0, nrt.env.now
                )
            strobe.done.count_down()

    def _dem(self, agents):
        yield from agents.bs.dem_phase()
        yield from agents.br.dem_phase()


class StrobeSender:
    """SS: the management-node NIC thread driving the slice machine."""

    def __init__(self, runtime: "BcsRuntime"):
        self.runtime = runtime
        self.env = runtime.env
        self._proc = None
        # Reusable microphase plumbing: one latch, one strobe record and
        # two timeouts serve every microphase of every slice when tracing
        # is off.  Safe because the SS is the only holder across cycles —
        # it always yields the latch/timeouts to completion before
        # re-arming, and every receiver drops its strobe reference at
        # count_down time.
        self._latch = ReusableLatch(self.env)
        self._strobe = Strobe("", 0, None, self._latch)
        self._pad = ReusableTimeout(self.env)
        self._sleep = ReusableTimeout(self.env)
        #: ``config.reference``: walk every slice and every node, strobe
        #: per destination and run every microphase on the per-node
        #: threads.  The fast path instead solves a DEM, MSM or P2P
        #: microphase whose guards hold in one pass, replayed with one
        #: reusable timeout per distinct instant, and charges the
        #: microstrobe as one tree-shaped multicast whose duration is
        #: cached per active-set size — no per-strobe generator, no
        #: per-destination walk.
        self._reference = runtime.config.reference
        self._step_at = ReusableTimeout(self.env)
        self._strobe_timeout = ReusableTimeout(self.env)
        self._strobe_n = -1
        self._strobe_latency = 0
        #: "bcs.microphase" tracing, sampled once per strobe-loop launch
        #: (trace categories are fixed at cluster construction); gates
        #: the per-microphase trace emit and the named-latch allocation.
        self._trace_on = False

    def start(self) -> None:
        """Launch the strobe loop (idempotent)."""
        if self._proc is None or not self._proc.is_alive:
            self._trace_on = self.runtime.cluster.trace.enabled_for(
                "bcs.microphase"
            )
            self._proc = self.env.process(self._run(), name="SS")

    def _run(self):
        runtime = self.runtime
        cfg = runtime.config
        env = self.env
        timeslice = cfg.timeslice
        mins = {DEM: cfg.dem_min_duration, MSM: cfg.msm_min_duration}
        node_runtimes = runtime.node_runtimes
        hooks = runtime.on_slice_start
        reference = self._reference
        slice_waiters = runtime._slice_waiters

        while not runtime.stopped:
            start = env.now
            runtime.slice_no += 1
            runtime.stats["slices"] += 1
            runtime.slice_start_time = start
            if hooks:
                hooks.fire(runtime.slice_no)
            # Slice boundary: the NM restarts processes whose blocking
            # operations completed during the previous slice.  Only
            # signals with waiters are pulsed (ascending node id — the
            # historical wake order); the reference path pulses every
            # node, the original full-broadcast loop.
            if reference:
                for nrt in node_runtimes:
                    nrt.slice_start.pulse(runtime.slice_no)
                slice_waiters.clear()
            elif slice_waiters:
                for node_id in sorted(slice_waiters):
                    node_runtimes[node_id].slice_start.pulse(runtime.slice_no)
                slice_waiters.clear()

            # Idle short-circuit: settle ``active`` before any telemetry
            # bookkeeping.  slice_work() only reads queues (and prunes
            # the runtime's lazy sets), so sampling it ahead of
            # slice_begin is observationally identical to the historical
            # order.  It also answers the DEM node query in the same
            # pass — there is no yield point between here and the DEM
            # microphase, so the two-call sequence it replaces saw the
            # exact same state.
            active, dem_nodes = runtime.slice_work()
            obs = runtime.obs
            if obs is not None:
                obs.slice_begin(runtime.slice_no, start)

            if active:
                runtime.stats["active_slices"] += 1
                yield from self._microphase(DEM, dem_nodes, mins[DEM])
                yield from self._microphase(MSM, runtime.msm_nodes(), mins[MSM])
                granted = runtime.global_schedule()
                yield from self._microphase(
                    P2P, sorted(granted.by_dst), 0, payload=granted
                )
                retired = runtime.scheduler.retire_finished()
                if retired and not reference:
                    # A retired match was the last holder of its pair of
                    # descriptors (requests are completed at delivery and
                    # owned by the application): recycle them.
                    pools = runtime.pools
                    for m in retired:
                        pools.release_send(m.send)
                        pools.release_recv(m.recv)
                yield from self._microphase(BBM, runtime.bbm_nodes(), 0)
                yield from self._microphase(RM, runtime.rm_nodes(), 0)

            elapsed = env.now - start
            if elapsed < timeslice:
                if not (reference or active or hooks):
                    if cfg.auto_stop and runtime.idle():
                        # The loop exits after this slice anyway.
                        pass
                    else:
                        # Idle fast-forward.  No work exists now, no hook
                        # can create any at a boundary, and cluster state
                        # cannot change before the next queued event at
                        # t_next — so every boundary strictly before
                        # t_next replays this slice verbatim: same empty
                        # queues, same zero-waiter pulses, same idle
                        # bookkeeping.  Skip straight to the first
                        # boundary at or after t_next in one timeout;
                        # events firing in between land within the final
                        # (partial) slice and are observed at the wake
                        # boundary exactly as without the skip.
                        t_next = env.peek()
                        if t_next is not None and t_next - start > timeslice:
                            skipped = -(-(t_next - start) // timeslice) - 1
                            runtime.slice_no += skipped
                            runtime.stats["slices"] += skipped
                            runtime.stats["idle_slices_skipped"] += skipped
                            if obs is not None:
                                first = runtime.slice_no - skipped
                                obs.slice_end(
                                    first, start, start + timeslice, False, False
                                )
                                obs.idle_skip(
                                    first + 1, start + timeslice, timeslice, skipped
                                )
                            yield self._sleep.rearm(
                                (skipped + 1) * timeslice - elapsed
                            )
                            continue
                yield self._sleep.rearm(timeslice - elapsed)
                overrun = False
            else:
                runtime.stats["slice_overruns"] += 1
                overrun = True
            if obs is not None:
                obs.slice_end(runtime.slice_no, start, env.now, active, overrun)
            if cfg.auto_stop and runtime.idle():
                return

    def _microphase(self, phase: str, nodes: List[int], min_duration: int, payload=None):
        """Strobe, dispatch, await completion, CaW-confirm, pad.

        ``nodes`` is the set with actual work; nodes outside it would run
        an empty handler and complete at strobe time, so they are not
        simulated (the strobe itself is still a full multicast).
        """
        runtime = self.runtime
        env = self.env
        t0 = env.now
        mgmt = runtime.cluster.management_node.id
        obs = runtime.obs
        if obs is not None:
            obs.phase_begin(phase, runtime.slice_no, t0)

        # Microstrobe: Xfer-And-Signal to every compute node's SR.  The
        # active-node list is kept sorted and deduplicated by the
        # runtime, so its length is passed straight through.
        if self._reference:
            yield from runtime.cluster.fabric.control_multicast(
                mgmt,
                runtime.active_node_ids,
                runtime.config.strobe_bytes,
                n_dests=len(runtime.active_node_ids),
            )
        else:
            # One aggregated tree multicast: identical duration to the
            # reference's control_multicast (both are strobe_latency(n)),
            # but the duration is cached until the active set changes
            # size and the timeout object is re-armed in place.
            n_active = len(runtime.active_node_ids)
            if n_active:
                if n_active != self._strobe_n:
                    self._strobe_n = n_active
                    self._strobe_latency = runtime.cluster.fabric.strobe_latency(
                        runtime.config.strobe_bytes, n_active
                    )
                yield self._strobe_timeout.rearm(self._strobe_latency)

        if nodes:
            plan = None
            counters = None if self._reference else _KERNEL_STATS.get(phase)
            if counters is not None:
                if phase == P2P:
                    plan = solve_transmission(runtime, payload)
                elif phase == DEM:
                    plan = solve_exchange(runtime, nodes)
                else:
                    plan = solve_scheduling(runtime, nodes)
                runtime.stats[counters[plan is None]] += 1
            if plan is not None:
                yield from self._replay(plan, nodes)
            else:
                yield from self._dispatch(phase, nodes, payload)
            if not self._reference:
                # Batched completion report: every participant finished
                # exactly one microphase, so one arena-wide increment
                # replaces the per-node ``gas.write`` loop the receivers
                # perform on the reference path (same counters, same
                # values at the Compare-And-Write below).
                runtime.core.gas.increment_batch(nodes, "mphase_done")
            # SS verifies global completion with a Compare-And-Write on
            # the per-node microphase counters.
            yield from runtime.core.compare_and_write(
                mgmt, nodes, "mphase_done", ">=", 0, default=0
            )

        pad = min_duration - (env.now - t0)
        if pad > 0:
            yield self._pad.rearm(pad)

        if obs is not None:
            obs.phase_end(phase, runtime.slice_no, t0, env.now, len(nodes))
        if self._trace_on:
            trace = runtime.cluster.trace
            trace.emit(
                env.now,
                "bcs.microphase",
                slice=runtime.slice_no,
                phase=phase,
                start=t0,
                duration=env.now - t0,
                nodes=len(nodes),
            )

    def _dispatch(self, phase: str, nodes: List[int], payload):
        """Strobe every participant's SR and wait until all report in."""
        runtime = self.runtime
        # One latch shared by all participants: the SS resumes when the
        # count reaches zero, without an N-event AllOf fan-in.  With
        # tracing off, the latch and strobe record are re-armed in
        # place — every receiver drops its reference at count_down
        # time, and the SS yields the latch to completion before the
        # next microphase, so nothing can observe the reuse (the name
        # f-string only ever served trace debugging).
        if self._trace_on:
            done = Latch(self.env, len(nodes), name=f"{phase}:{runtime.slice_no}")
            strobe = Strobe(phase, runtime.slice_no, payload, done)
        else:
            done = self._latch.rearm(len(nodes))
            strobe = self._strobe
            strobe.phase = phase
            strobe.slice_no = runtime.slice_no
            strobe.payload = payload
        for node_id in nodes:
            runtime.receivers[node_id].inbox.put(strobe)
        yield done

    def _replay(self, plan: PhasePlan, nodes: List[int]):
        """Replay a solved microphase in place of the per-node threads.

        Each step runs at its solved instant, in the order the per-node
        processes would take it, so deliveries, matcher batches, request
        completion times and wake-ups are unchanged; steps a step
        discovers (a Buffer Receiver's next hold) join the same heap.
        When the last step is done — and not before ``plan.end`` —
        every participant counts the microphase done, as its SR would
        (the caller's batched increment publishes it to global memory).
        A DEM/MSM plan leaves its Buffer Receiver instants in
        ``runtime.br_window`` for the rank-side probe/cancel check.
        """
        runtime = self.runtime
        env = self.env
        heap = plan.heap
        pop = heapq.heappop
        if plan.br is not None:
            runtime.br_window = plan.br
        while heap:
            instant = heap[0][0]
            if instant > env.now:
                yield self._step_at.rearm(instant - env.now)
            _, _, step, arg = pop(heap)
            step(arg)
        if env.now < plan.end:
            yield self._step_at.rearm(plan.end - env.now)
        receivers = runtime.receivers
        for node_id in nodes:
            receivers[node_id].completed_phases += 1
