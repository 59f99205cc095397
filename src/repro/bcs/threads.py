"""Per-node runtime state and the five NIC threads (paper §4.1).

Each compute node runs, on its NIC:

- **BS** (Buffer Sender): during the Descriptor Exchange Microphase,
  delivers every send descriptor posted in the previous slice to the
  Buffer Receiver of the destination node.
- **BR** (Buffer Receiver): drains locally posted receive and collective
  descriptors; in the Message Scheduling Microphase matches remote send
  descriptors against local receives, chunks oversized messages, and for
  collectives issues the Compare-And-Write query broadcast.
- **DH** (DMA Helper): performs the scheduled point-to-point gets in the
  point-to-point microphase.
- **CH** (Collective Helper): performs barrier/broadcast in the
  broadcast-and-barrier microphase.
- **RH** (Reduce Helper): performs reduce/allreduce on the NIC (softfloat)
  in the reduce microphase, using a binomial tree.

The Strobe Receiver logic that wakes these threads per microphase lives
in :mod:`repro.bcs.strobe`; this module holds the thread bodies and the
:class:`NodeRuntime` state they share.
"""

from __future__ import annotations

import copy
import heapq
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from ..sim import Signal
from .config import BcsConfig
from .descriptors import (
    CollectiveDescriptor,
    Match,
    RecvDescriptor,
    RequestWait,
    SendDescriptor,
    payload_nbytes,
)
from .matching import HashMatcher, LinearMatcher
from .scheduler import Grants

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import BcsRuntime


def _copy_payload(payload):
    """Deep-enough copy of a message payload (arrays and bytes)."""
    if isinstance(payload, np.ndarray):
        return payload.copy()
    if isinstance(payload, (bytes, bytearray)):
        return bytes(payload)
    if payload is None:
        return None
    return copy.deepcopy(payload)


def _drainable(queue: list, cutoff: int) -> int:
    """How many descriptors at the head of a post FIFO were posted by ``cutoff``.

    ``posted_at`` is monotone nondecreasing along the FIFO (posts stamp
    ``env.now``; purges preserve order), so the common whole queue /
    empty cases are O(1) checks at the ends and the mixed case is a
    binary-search split instead of a full list scan.
    """
    if not queue or queue[0].posted_at > cutoff:
        return 0
    if queue[-1].posted_at <= cutoff:
        return len(queue)
    lo, hi = 0, len(queue)
    while lo < hi:
        mid = (lo + hi) // 2
        if queue[mid].posted_at <= cutoff:
            lo = mid + 1
        else:
            hi = mid
    return lo


class CollEpoch:
    """Per-(job, comm, epoch) collective state on one node."""

    __slots__ = (
        "epoch",
        "kind",
        "root",
        "op",
        "size",
        "descs",
        "executed",
        "scheduled",
    )

    def __init__(self, epoch: int):
        self.epoch = epoch
        self.kind: Optional[str] = None
        self.root: Optional[int] = None
        self.op: Optional[str] = None
        self.size: int = 0
        #: Local descriptors (one per local rank that has posted).
        self.descs: List[CollectiveDescriptor] = []
        self.executed = False
        self.scheduled = False

    def absorb(self, desc: CollectiveDescriptor) -> None:
        """Record one local rank's descriptor (consistency-checked)."""
        if self.kind is None:
            self.kind = desc.kind
            self.root = desc.root
            self.op = desc.op
            self.size = desc.size
        elif (self.kind, self.root) != (desc.kind, desc.root):
            raise RuntimeError(
                f"collective mismatch at epoch {self.epoch}: "
                f"{self.kind}/{self.root} vs {desc.kind}/{desc.root}"
            )
        self.descs.append(desc)


class _SliceSignal(Signal):
    """Slice-boundary signal that registers its node as a wake target.

    The Strobe Sender only pulses signals that have waiters (in
    ascending node id, preserving the historical wake order); pulsing a
    waiter-less signal is a no-op, so skipping it cannot change what any
    process observes.  The first ``wait()`` since the last boundary adds
    the node to the runtime's wake set.
    """

    __slots__ = ("_nrt",)

    def __init__(self, nrt: "NodeRuntime"):
        super().__init__(nrt.env, name=f"n{nrt.node_id}.slice")
        self._nrt = nrt

    def wait(self):
        if not self._waiters:
            nrt = self._nrt
            nrt.runtime._slice_waiters.add(nrt.node_id)
        return super().wait()


class NodeRuntime:
    """Everything the BCS runtime keeps on one compute node."""

    def __init__(self, runtime: "BcsRuntime", node_id: int):
        self.runtime = runtime
        self.node_id = node_id
        self.node = runtime.cluster.node(node_id)
        self.nic = self.node.nic
        self.config: BcsConfig = runtime.config
        self.env = runtime.env
        # Lazily materialized nodes (the fast path) can be created
        # after observability was attached; inherit the hub and
        # register this node's trace tracks so the fresh NIC reports
        # occupancy spans like its eager peers.  (During the reference
        # path's eager construction the runtime has no ``obs`` yet —
        # binding covers those nodes.)
        obs = getattr(runtime, "obs", None)
        if obs is not None:
            self.nic.obs = obs
            node_track = getattr(obs, "node_track", None)
            if node_track is not None:
                node_track(node_id)

        #: Pulsed by the Strobe Sender at every slice boundary; the Node
        #: Manager uses it to restart processes whose ops completed.
        self.slice_start = _SliceSignal(self)

        # Descriptor FIFOs (shared-memory post queues, paper §4.5).
        self.posted_sends: List[SendDescriptor] = []
        self.posted_recvs: List[RecvDescriptor] = []
        self.posted_colls: List[CollectiveDescriptor] = []

        # Active-set membership handles (shared with the runtime; a node
        # joins on the mutation that creates work, leaves lazily when a
        # query finds it idle — see repro.bcs.runtime).
        self._dem_set = runtime._dem_set
        self._arrived_set = runtime._arrived_set
        self._coll_set = runtime._coll_set

        # BR state.
        matcher = LinearMatcher if self.config.reference else HashMatcher
        self.matcher = matcher(node_id, runtime.matcher_totals)
        #: Send descriptors delivered by remote BS threads this slice.
        self.arrived_sends: List[SendDescriptor] = []
        #: Matches created in the current MSM (collected by the runtime).
        self.new_matches: List[Match] = []
        #: Collective bookkeeping per (job_id, comm_id).  Executed epochs
        #: are pruned; this only ever holds in-flight epochs.
        self.coll_state: Dict[tuple, Dict[int, CollEpoch]] = {}
        #: Count of in-flight (not yet executed) collective epochs.
        self.pending_epochs = 0
        #: Highest epoch with all local ranks posted, per (job, comm).
        self.local_flag: Dict[tuple, int] = {}
        #: Highest epoch already CaW-scheduled, per (job, comm) (root node).
        self.sched_flag: Dict[tuple, int] = {}
        #: Reduce partial buffers delivered by remote RH threads.
        self.reduce_inbox: Dict[tuple, list] = {}

    # -- host-side posting (called from application processes) ---------------------

    def post_send(self, desc: SendDescriptor) -> None:
        """Append a send descriptor to the NIC FIFO (no system call)."""
        desc.posted_at = self.env.now
        self.posted_sends.append(desc)
        self._dem_set.add(self.node_id)
        self.runtime.stats["descriptors_posted"] += 1

    def post_recv(self, desc: RecvDescriptor) -> None:
        """Append a receive descriptor to the NIC FIFO."""
        desc.posted_at = self.env.now
        self.posted_recvs.append(desc)
        self._dem_set.add(self.node_id)
        self.runtime.stats["descriptors_posted"] += 1

    def post_collective(self, desc: CollectiveDescriptor) -> None:
        """Append a collective descriptor to the NIC FIFO."""
        desc.posted_at = self.env.now
        self.posted_colls.append(desc)
        self._dem_set.add(self.node_id)
        self.runtime.stats["descriptors_posted"] += 1

    def deliver_send(self, desc: SendDescriptor) -> None:
        """Accept a send descriptor shipped by a remote Buffer Sender."""
        self.arrived_sends.append(desc)
        self._arrived_set.add(self.node_id)

    def has_work(self) -> bool:
        """Anything for the next slice's microphases to do on this node?"""
        return bool(
            self.posted_sends
            or self.posted_recvs
            or self.posted_colls
            or self.arrived_sends
            or self.pending_epochs
        )

    @property
    def slice_start_time(self) -> int:
        """Start time of the current slice.

        Shared machine state written once per slice by the Strobe Sender
        (``runtime.slice_start_time``) — the per-node ``begin_slice``
        loop it replaces cost O(nodes) per slice on idle clusters.
        """
        return self.runtime.slice_start_time

    def _drain_posted(self, queue: list) -> list:
        """Remove and return descriptors posted before this slice's DEM.

        A descriptor posted exactly at the slice boundary (a process
        restarted by the NM posts immediately) still precedes the DEM,
        which starts one strobe latency later, so the comparison is
        inclusive.
        """
        k = _drainable(queue, self.slice_start_time)
        if not k:
            return []
        take = queue[:k]
        del queue[:k]
        return take

    # -- collective helpers ------------------------------------------------------------

    def _epoch(self, job_id: int, comm_id: int, epoch: int) -> CollEpoch:
        epochs = self.coll_state.setdefault((job_id, comm_id), {})
        ep = epochs.get(epoch)
        if ep is None:
            ep = CollEpoch(epoch)
            epochs[epoch] = ep
            self.pending_epochs += 1
            self._coll_set.add(self.node_id)
        return ep

    def complete_collective(self, job_id: int, comm_id: int, epoch: int, value) -> None:
        """Finish every local request of one collective epoch.

        Invoked at data-commit time (broadcast payload writer, or the
        reduce finalization): each blocked local rank's request gets its
        result and its process becomes eligible for restart at the next
        slice boundary.  The epoch record is pruned afterwards so state
        stays bounded on long runs.
        """
        epochs = self.coll_state.get((job_id, comm_id), {})
        ep = epochs.get(epoch)
        if ep is None or ep.executed:
            return
        ep.executed = True
        self.pending_epochs -= 1
        del epochs[epoch]
        for desc in ep.descs:
            if desc.kind == "reduce":
                # Only the MPI root receives the reduced value.
                result = value if desc.rank == (desc.root or 0) else None
            else:
                result = value
            desc.request.payload = _copy_payload(result)
            desc.request._finish()
        self.runtime.stats["collectives_completed"] += 1
        obs = self.runtime.obs
        if obs is not None and obs.spans is not None:
            obs.spans.coll_completed(job_id, comm_id, epoch)
        if not self.config.reference:
            # The epoch record was the last holder of these descriptors.
            pools = self.runtime.pools
            for desc in ep.descs:
                pools.release_coll(desc)
            ep.descs.clear()

    def __repr__(self) -> str:
        return f"<NodeRuntime node={self.node_id}>"


# ---------------------------------------------------------------------------------
# NIC threads
# ---------------------------------------------------------------------------------


class BufferSender:
    """BS: ships posted send descriptors to destination BRs (DEM)."""

    def __init__(self, nrt: NodeRuntime):
        self.nrt = nrt

    def dem_phase(self):
        """Deliver each send descriptor posted in the previous slice."""
        nrt = self.nrt
        runtime = nrt.runtime
        obs = runtime.obs
        for desc in nrt._drain_posted(nrt.posted_sends):
            info = runtime.comm_info(desc.job_id, desc.comm_id)
            dst_node = info.node_of(desc.dst_rank)
            yield from nrt.nic.compute(nrt.config.nic_descriptor_cost)
            yield from runtime.cluster.fabric.unicast(
                nrt.node_id, dst_node, nrt.config.descriptor_bytes, label="desc"
            )
            runtime.node_rt(dst_node).deliver_send(desc)
            runtime.stats["descriptors_exchanged"] += 1
            if obs is not None and obs.spans is not None:
                obs.spans.msg_exchanged(desc, nrt.node_id, dst_node)


class BufferReceiver:
    """BR: drains local recv/collective descriptors (DEM) and matches (MSM)."""

    def __init__(self, nrt: NodeRuntime):
        self.nrt = nrt

    def dem_phase(self):
        """Pre-process local receive and collective descriptors.

        On the fast path the slice's descriptors are processed as one
        batch: a single NIC hold covers the whole run
        (the thread processor is uncontended during the BR's turn, so
        ``n`` sequential holds and one hold of ``n × cost`` end at the
        same instant) and the matcher consumes the receives through its
        vectorized batch API.  The per-descriptor loop below is the
        reference path.
        """
        nrt = self.nrt
        cost = nrt.config.nic_descriptor_cost
        if not nrt.config.reference:
            recvs = nrt._drain_posted(nrt.posted_recvs)
            if recvs:
                yield from nrt.nic.compute_batch(cost, len(recvs))
                for _, match in nrt.matcher.add_recv_batch(recvs):
                    self._register_match(match)
            colls = nrt._drain_posted(nrt.posted_colls)
            if colls:
                yield from nrt.nic.compute_batch(cost, len(colls))
                for desc in colls:
                    ep = nrt._epoch(desc.job_id, desc.comm_id, desc.epoch)
                    ep.absorb(desc)
            self._advance_local_flags()
            return

        for desc in nrt._drain_posted(nrt.posted_recvs):
            yield from nrt.nic.compute(cost)
            match = nrt.matcher.add_recv(desc)
            if match is not None:
                self._register_match(match)

        # Collectives: absorb descriptors; when all local ranks of a job
        # have posted an epoch, advance the node's local flag in global
        # memory (the variable the root's Compare-And-Write will test).
        for desc in nrt._drain_posted(nrt.posted_colls):
            yield from nrt.nic.compute(cost)
            ep = nrt._epoch(desc.job_id, desc.comm_id, desc.epoch)
            ep.absorb(desc)
        self._advance_local_flags()

    def _advance_local_flags(self):
        nrt = self.nrt
        runtime = nrt.runtime
        for (job_id, comm_id), epochs in nrt.coll_state.items():
            info = runtime.comm_info(job_id, comm_id)
            n_local = len(info.node_ranks.get(nrt.node_id, ()))
            flag = nrt.local_flag.get((job_id, comm_id), 0)
            while flag + 1 in epochs and len(epochs[flag + 1].descs) == n_local:
                flag += 1
            if flag != nrt.local_flag.get((job_id, comm_id), 0):
                nrt.local_flag[(job_id, comm_id)] = flag
                runtime.core.gas.write(
                    nrt.node_id, ("cflag", job_id, comm_id), flag
                )

    def msm_phase(self):
        """Match remote sends vs local recvs; CaW-schedule collectives."""
        nrt = self.nrt
        runtime = nrt.runtime

        arrived, nrt.arrived_sends = nrt.arrived_sends, []
        if arrived:
            if not nrt.config.reference:
                # Batched leg: one NIC hold, one vectorized matcher join.
                yield from nrt.nic.compute_batch(
                    nrt.config.nic_descriptor_cost, len(arrived)
                )
                for _, match in nrt.matcher.add_send_batch(arrived):
                    self._register_match(match)
            else:
                for send in arrived:
                    yield from nrt.nic.compute(nrt.config.nic_descriptor_cost)
                    match = nrt.matcher.add_send(send)
                    if match is not None:
                        self._register_match(match)

        # Collective scheduling: only the node hosting the communicator's
        # master process issues the query broadcast (paper §4.4).
        for (job_id, comm_id), epochs in nrt.coll_state.items():
            info = runtime.comm_info(job_id, comm_id)
            if info.root_node != nrt.node_id:
                continue
            next_epoch = nrt.sched_flag.get((job_id, comm_id), 0) + 1
            ep = epochs.get(next_epoch)
            if ep is None or ep.scheduled or not ep.descs:
                continue
            ready = yield from runtime.core.compare_and_write(
                nrt.node_id,
                info.nodes,
                ("cflag", job_id, comm_id),
                ">=",
                next_epoch,
                write_addr=("go", job_id, comm_id, next_epoch),
                write_value=True,
                default=0,
            )
            if ready:
                ep.scheduled = True
                nrt.sched_flag[(job_id, comm_id)] = next_epoch
                runtime.stats["collectives_scheduled"] += 1
                obs = runtime.obs
                if obs is not None and obs.spans is not None:
                    obs.spans.coll_scheduled(job_id, comm_id, next_epoch)

    def _register_match(self, match: Match) -> None:
        nrt = self.nrt
        info = nrt.runtime.comm_info(match.send.job_id, match.send.comm_id)
        match.src_node = info.node_of(match.send.src_rank)
        nrt.new_matches.append(match)
        nrt.runtime._match_set.add(nrt.node_id)
        nrt.runtime.stats["matches_created"] += 1
        obs = nrt.runtime.obs
        if obs is not None and obs.spans is not None:
            obs.spans.msg_matched(match)


class DmaHelper:
    """DH: executes the point-to-point gets scheduled for this slice.

    One process per granted chunk: the reference engine's path, and the
    batched engine's fallback when :func:`solve_transmission` declines.
    """

    def __init__(self, nrt: NodeRuntime):
        self.nrt = nrt

    def p2p_phase(self, granted: Grants):
        """Move every chunk whose destination is this node (in parallel)."""
        nrt = self.nrt
        mine = granted.by_dst.get(nrt.node_id)
        if not mine:
            return
        procs = [
            nrt.env.process(self._move_chunk(m), name=f"dh{nrt.node_id}")
            for m in mine
        ]
        yield nrt.env.all_of(procs)

    def _move_chunk(self, match: Match):
        nrt = self.nrt
        chunk = match.scheduled_now
        t0 = nrt.env.now
        yield from nrt.nic.compute(nrt.config.nic_descriptor_cost)
        # One-sided get: data flows src -> dst with no host involvement.
        yield from nrt.runtime.cluster.fabric.unicast(
            match.src_node, match.dst_node, chunk, label="p2p"
        )
        self.land(match, t0)

    def land(self, match: Match, t0: int = 0) -> None:
        """Account one moved chunk (started at ``t0``); deliver if it was the last."""
        runtime = self.nrt.runtime
        chunk = match.scheduled_now
        match.bytes_done += chunk
        match.scheduled_now = 0
        runtime.stats["bytes_transferred"] += chunk
        runtime.stats["chunks_moved"] += 1
        obs = runtime.obs
        if obs is not None and obs.spans is not None:
            obs.spans.msg_chunk(match, t0, self.nrt.env.now, chunk)
        if match.finished:
            self._deliver(match)

    def _deliver(self, match: Match) -> None:
        send, recv = match.send, match.recv
        recv.request.payload = _copy_payload(send.payload)
        recv.request.source = send.src_rank
        recv.request.tag = send.tag
        recv.request.size = send.size
        recv.request._finish()
        if not send.request.complete:  # strict (non-buffered) sends
            send.request._finish()
        runtime = self.nrt.runtime
        runtime.stats["messages_delivered"] += 1
        obs = runtime.obs
        if obs is not None and obs.spans is not None:
            obs.spans.msg_delivered(match)


class ScheduleWindowError(RuntimeError):
    """A rank read Buffer Receiver state on the nanosecond of a solved BR step.

    Inside a solved DEM/MSM window every Buffer Receiver step replays at
    its own instant, so a rank's ``probe``/``cancel_recv`` sees exactly
    what the per-node threads would show it — except on the instant of a
    step of its own node, where the order of the read and the step is
    not pinned down.  That case is refused by name instead of diverging.
    """

    def __init__(self, node_id: int, instant: int, call: str):
        self.node_id = node_id
        self.instant = instant
        self.call = call
        super().__init__(
            f"{call} on node {node_id} at t={instant} ns shares its instant with "
            "a Buffer Receiver step of a solved scheduling window "
            "(rule: no rank-visible BR state inside a batched DEM/MSM window)"
        )


class PhasePlan:
    """A microphase solved ahead of time (the batched engine's kernels).

    ``heap`` holds ``(instant, seq, step, arg)`` entries: the Strobe
    Sender's replay runs ``step(arg)`` at ``instant`` in heap order, one
    reusable timeout per distinct instant, and a step may push the next
    step of the same thread (a Buffer Receiver's drain discovers its
    hold).  ``end`` is a floor on the instant the microphase completes:
    the replay waits for it after the last step.  ``br`` maps each node
    to the instants of its Buffer Receiver steps (DEM/MSM plans only;
    see :class:`ScheduleWindowError`).
    """

    __slots__ = ("heap", "end", "br", "_seq")

    def __init__(self, end: int, br: Optional[Dict[int, set]] = None):
        self.heap: list = []
        self.end = end
        self.br = br
        self._seq = 0

    def push(self, instant: int, step, arg) -> None:
        """Run ``step(arg)`` at ``instant`` (after the steps already queued there)."""
        heapq.heappush(self.heap, (instant, self._seq, step, arg))
        self._seq += 1

    def push_br(self, instant: int, node_id: int, step, arg) -> None:
        """:meth:`push` a Buffer Receiver step of ``node_id``."""
        self.push(instant, step, arg)
        at = self.br.get(node_id)
        if at is None:
            self.br[node_id] = {instant}
        else:
            at.add(instant)


def _refuse(runtime: "BcsRuntime", family: str, reason: str) -> None:
    """Count why a microphase falls back to its per-node processes."""
    runtime.stats[f"{family}_fallback.{reason}"] += 1
    return None


def _unicast_traced(fabric) -> bool:
    trace = fabric.trace
    return trace is not None and trace.enabled_for("fabric.unicast")


def solve_transmission(runtime: "BcsRuntime", granted: Grants) -> Optional[PhasePlan]:
    """Solve a P2P microphase in one pass, or None if it must run as processes.

    Every granted chunk is normally its own DMA Helper process (NIC hold,
    then :meth:`Fabric.unicast`).  When the microphase's window is closed
    — nothing outside it can act before its last chunk lands — the same
    instants follow from :meth:`Fabric.solve_unicasts` and the Strobe
    Sender only has to replay the deliveries.  The window is closed when
    (each refusal is counted as ``p2p_fallback.<reason>``):

    1. ``obs`` — no telemetry is attached and unicasts are not traced
       (their records and spans come from the per-chunk path);
    2. ``system`` — no grant is system-class (a PFS drain may wait on its
       request; user requests are only awaited through
       ``NodeManager.block_on``, which parks the rank until the next
       slice boundary);
    3. ``busy`` — every thread processor and link half involved is idle
       with an empty wait queue (checked by the fabric solve, which also
       declines a negative NIC cost or a zero-delay last step);
    4. ``foreign_event`` — the next queued event comes strictly after
       the last chunk lands.

    On success the fabric's transfer counters are committed; the plan
    books the chunks that deliver nothing when the window opens and
    replays every delivery through :meth:`DmaHelper.land`.
    """
    hold = runtime.config.nic_descriptor_cost
    fabric = runtime.cluster.fabric
    if runtime.obs is not None or _unicast_traced(fabric):
        return _refuse(runtime, "p2p", "obs")
    by_dst = granted.by_dst
    nics = fabric.nics
    queues = []
    flat = []
    for dst in sorted(by_dst):
        mine = by_dst[dst]
        transfers = []
        for m in mine:
            if m.system:
                return _refuse(runtime, "p2p", "system")
            transfers.append((m.src_node, dst, m.scheduled_now))
        queues.append((nics[dst].thread_processor, transfers))
        flat.extend(mine)
    solved = fabric.solve_unicasts(queues, hold) if hold >= 0 else None
    if solved is None:
        return _refuse(runtime, "p2p", "busy")
    done, order, end = solved
    t_next = runtime.env.peek()
    if t_next is not None and t_next <= end:
        return _refuse(runtime, "p2p", "foreign_event")

    fabric.transfers += len(flat)
    fabric.bytes_moved += sum(m.scheduled_now for m in flat)
    agents = runtime.agents

    def land(matches):
        for m in matches:
            agents[m.dst_node].dh.land(m)

    plan = PhasePlan(end)
    rest = []
    plan.push(runtime.env.now, land, rest)
    last = None
    for k in order:
        m = flat[k]
        if m.bytes_done + m.scheduled_now < m.total_bytes:
            rest.append(m)
        elif done[k] == last:
            group.append(m)
        else:
            last = done[k]
            group = [m]
            plan.push(last, land, group)
    return plan


def _awaits_request(ev) -> bool:
    """Is ``ev`` a wait on an incomplete BCS request (``NodeManager.block_on``)?

    A wait whose last request has completed while its relay is still
    queued is not waiting any more.
    """
    return type(ev) is RequestWait and ev.remaining > 0


def _host_only(runtime: "BcsRuntime", end: int) -> Optional[str]:
    """Guards 4 and 5 of a scheduling window ``[now, end]``; a reason or None.

    ``foreign_event``: every event queued at or before ``end`` is inert or
    resumes a live rank process of this runtime that nothing waits on
    (ranks reach the NIC only through the post FIFOs), and the window opens
    after the slice boundary (so everything a rank posts inside it is
    stamped after the DEM cutoff).  ``job_may_finish``: every job with a
    rank event in the window keeps another live rank whose wake-up cannot
    come before ``end`` — its queued event is later, or it waits for the
    slice-boundary pulse or for a request completion (neither happens in
    DEM/MSM); a rank queued on the host CPU does not count.
    """
    env = runtime.env
    if env.now <= runtime.slice_start_time:
        return "foreign_event"
    ranks = runtime.rank_procs
    owner = None  # live rank process -> (job_id, rank), built on demand
    due = set()
    jobs = set()
    for _, ev in env.due(end):
        due.add(id(ev))
        if not ev.callbacks:
            continue
        if owner is None:
            owner = {proc: key for key, proc in ranks.items()}
        for cb in ev.callbacks:
            # A process registers only its own ``_resume`` as a callback;
            # one that others wait on would wake them if it finished.
            proc = getattr(cb, "__self__", None)
            key = owner.get(proc)
            if key is None or proc.callbacks:
                return "foreign_event"
            jobs.add(key[0])
    for job_id in jobs:
        placement = runtime.jobs[job_id].placement
        for (owner_job, rank), proc in ranks.items():
            if owner_job != job_id:
                continue
            ev = proc.target
            if ev is None:
                continue
            if ev.triggered:
                if ev.callbacks is not None and id(ev) not in due:
                    break
            elif _awaits_request(ev) or (
                ev in runtime.node_rt(placement[rank]).slice_start._waiters
            ):
                break
        else:
            return "job_may_finish"
    return None


def solve_exchange(runtime: "BcsRuntime", nodes: List[int]) -> Optional[PhasePlan]:
    """Solve a Descriptor Exchange Microphase in one pass, or None.

    Each node's Buffer Sender ships its drained send descriptors one
    after another (a ``nic_descriptor_cost`` hold, then a unicast of
    ``descriptor_bytes``), so the exchange is a set of chains that only
    meet on receive halves: :meth:`Fabric.solve_unicasts` in chained
    mode gives every arrival.  The plan delivers each descriptor at its
    arrival and runs each node's Buffer Receiver step as it is reached —
    drain at the chain end, the batch hold computed from the live drain,
    the matcher batch at the hold's end, the same for collectives, then
    the local flags — exactly as :meth:`BufferSender.dem_phase` followed
    by :meth:`BufferReceiver.dem_phase` would.

    Ranks may run inside the window.  It opens only when (each refusal
    is counted as ``sched_fallback.<reason>``): ``obs`` — no telemetry,
    unicasts untraced; ``br_observed`` — no rank has read BR state yet
    (``BcsApi.probe``/``cancel_recv``); ``system`` — no descriptor is
    system-class; ``busy`` — every thread processor and link half
    involved is idle with an empty wait queue; and the host-only guards
    of :func:`_host_only`.
    """
    fabric = runtime.cluster.fabric
    if runtime.obs is not None or _unicast_traced(fabric):
        return _refuse(runtime, "sched", "obs")
    if runtime.br_observed:
        return _refuse(runtime, "sched", "br_observed")
    cost = runtime.config.nic_descriptor_cost
    size = runtime.config.descriptor_bytes
    rts = runtime.node_runtimes
    nics = fabric.nics
    cutoff = runtime.slice_start_time
    queues = []
    taken = []
    for node in nodes:
        nrt = rts[node]
        sends = nrt.posted_sends[: _drainable(nrt.posted_sends, cutoff)]
        transfers = []
        for desc in sends:
            if desc.job_id < 0:
                return _refuse(runtime, "sched", "system")
            info = runtime.comm_info(desc.job_id, desc.comm_id)
            transfers.append((node, info.node_of(desc.dst_rank), size))
        queues.append((nics[node].thread_processor, transfers))
        taken.append(sends)
    solved = fabric.solve_unicasts(queues, cost, chained=True) if cost >= 0 else None
    if solved is None:
        return _refuse(runtime, "sched", "busy")
    done, order, _ = solved
    now = runtime.env.now
    end = now
    chain_end = []
    k = 0
    for node, sends in zip(nodes, taken):
        k += len(sends)
        t = done[k - 1] if sends else now
        chain_end.append(t)
        nrt = rts[node]
        t += cost * (_drainable(nrt.posted_recvs, cutoff) + _drainable(nrt.posted_colls, cutoff))
        if t > end:
            end = t
    reason = _host_only(runtime, end)
    if reason is not None:
        return _refuse(runtime, "sched", reason)

    flat = []
    for node, sends in zip(nodes, taken):
        if sends:
            del rts[node].posted_sends[: len(sends)]
            flat.extend(sends)
    fabric.transfers += len(flat)
    fabric.bytes_moved += len(flat) * size
    dst_of = [dst for _, transfers in queues for _, dst, _ in transfers]
    env = runtime.env
    agents = runtime.agents
    stats = runtime.stats
    plan = PhasePlan(now, {})

    def deliver(ks):
        for k in ks:
            rts[dst_of[k]].deliver_send(flat[k])
        stats["descriptors_exchanged"] += len(ks)

    def drain_recvs(nrt):
        recvs = nrt._drain_posted(nrt.posted_recvs)
        if not recvs:
            drain_colls(nrt)
        elif cost:
            plan.push_br(env.now + cost * len(recvs), nrt.node_id, match_recvs, (nrt, recvs))
        else:
            match_recvs((nrt, recvs))

    def match_recvs(arg):
        nrt, recvs = arg
        br = agents[nrt.node_id].br
        for _, match in nrt.matcher.add_recv_batch(recvs):
            br._register_match(match)
        drain_colls(nrt)

    def drain_colls(nrt):
        colls = nrt._drain_posted(nrt.posted_colls)
        if colls and cost:
            plan.push_br(env.now + cost * len(colls), nrt.node_id, absorb, (nrt, colls))
        else:
            absorb((nrt, colls))

    def absorb(arg):
        nrt, colls = arg
        for desc in colls:
            nrt._epoch(desc.job_id, desc.comm_id, desc.epoch).absorb(desc)
        agents[nrt.node_id].br._advance_local_flags()

    last = None
    for k in order:
        if done[k] == last:
            group.append(k)
        else:
            last = done[k]
            group = [k]
            plan.push(last, deliver, group)
    for node, t in zip(nodes, chain_end):
        plan.push_br(t, node, drain_recvs, rts[node])
    return plan


def solve_scheduling(runtime: "BcsRuntime", nodes: List[int]) -> Optional[PhasePlan]:
    """Solve a Message Scheduling Microphase in one pass, or None.

    Each node's Buffer Receiver takes the sends delivered in the DEM,
    holds its thread processor for one ``compute_batch`` and runs the
    matcher's ``add_send_batch`` at the hold's end — what
    :meth:`BufferReceiver.msm_phase` does when no collective is ready to
    schedule.  Refusals: ``collective`` — some node would issue a
    Compare-And-Write query; ``busy`` — a thread processor is held or
    queued; otherwise the guards of :func:`solve_exchange`.
    """
    if runtime.obs is not None:
        return _refuse(runtime, "sched", "obs")
    if runtime.br_observed:
        return _refuse(runtime, "sched", "br_observed")
    rts = runtime.node_runtimes
    for node in nodes:
        if runtime._msm_schedulable(rts[node]):
            return _refuse(runtime, "sched", "collective")
    cost = runtime.config.nic_descriptor_cost
    if cost < 0:
        return _refuse(runtime, "sched", "busy")
    nics = runtime.cluster.fabric.nics
    now = runtime.env.now
    end = now
    for node in nodes:
        tproc = nics[node].thread_processor
        if tproc.in_use or tproc.queue_length:
            return _refuse(runtime, "sched", "busy")
        t = now + cost * len(rts[node].arrived_sends)
        if t > end:
            end = t
    reason = _host_only(runtime, end)
    if reason is not None:
        return _refuse(runtime, "sched", reason)

    agents = runtime.agents
    plan = PhasePlan(now, {})

    def match_sends(arg):
        nrt, arrived = arg
        br = agents[nrt.node_id].br
        for _, match in nrt.matcher.add_send_batch(arrived):
            br._register_match(match)

    for node in nodes:
        nrt = rts[node]
        arrived, nrt.arrived_sends = nrt.arrived_sends, []
        if arrived:
            plan.push_br(now + cost * len(arrived), node, match_sends, (nrt, arrived))
    return plan


class CollectiveHelper:
    """CH: performs scheduled barriers and broadcasts (BBM)."""

    def __init__(self, nrt: NodeRuntime):
        self.nrt = nrt

    def bbm_phase(self):
        """Run every barrier/bcast epoch CaW-scheduled for this slice.

        Only the root node's CH drives the hardware multicast; the
        payload writer completes requests on every participating node at
        commit time.
        """
        nrt = self.nrt
        runtime = nrt.runtime
        for (job_id, comm_id), epochs in nrt.coll_state.items():
            info = runtime.comm_info(job_id, comm_id)
            for epoch, ep in sorted(epochs.items()):
                if ep.executed or ep.kind not in ("barrier", "bcast"):
                    continue
                if not runtime.core.gas.read(
                    nrt.node_id, ("go", job_id, comm_id, epoch), False
                ):
                    continue
                root = ep.root if ep.kind == "bcast" else 0
                if info.node_of(root or 0) != nrt.node_id:
                    continue
                yield from self._run_bcast(info, ep)

    def _run_bcast(self, info, ep: CollEpoch):
        nrt = self.nrt
        runtime = nrt.runtime
        job_id, comm_id = info.job.id, info.comm_id
        if ep.kind == "bcast":
            root_desc = next(d for d in ep.descs if d.rank == (ep.root or 0))
            value = root_desc.payload
            size = ep.size
        else:  # barrier: a broadcast with no data (paper §4.4)
            value = None
            size = 0
        yield from nrt.nic.compute(nrt.config.nic_descriptor_cost)

        done = f"ch:{job_id}:{comm_id}:{ep.epoch}"
        runtime.core.xfer_and_signal(
            nrt.node_id,
            info.nodes,
            size=size,
            local_event=done,
            payload_writer=lambda node: runtime.node_rt(node).complete_collective(
                job_id, comm_id, ep.epoch, value
            ),
        )
        yield from runtime.core.test_event(nrt.node_id, done)


class ReduceHelper:
    """RH: performs scheduled reduces on the NIC via a binomial tree (RM)."""

    def __init__(self, nrt: NodeRuntime):
        self.nrt = nrt

    def rm_phase(self):
        """Participate in every reduce epoch scheduled for this slice."""
        nrt = self.nrt
        runtime = nrt.runtime
        work = []
        for (job_id, comm_id), epochs in nrt.coll_state.items():
            info = runtime.comm_info(job_id, comm_id)
            for epoch, ep in sorted(epochs.items()):
                if ep.executed or ep.kind not in ("reduce", "allreduce"):
                    continue
                if not runtime.core.gas.read(
                    nrt.node_id, ("go", job_id, comm_id, epoch), False
                ):
                    continue
                work.append((info, ep))
        for info, ep in work:
            yield from self._reduce_part(info, ep)

    def _combine_cost(self, buf) -> int:
        n_elements = buf.size if isinstance(buf, np.ndarray) else 1
        return n_elements * self.nrt.config.nic_reduce_cost_per_element

    def _combine(self, op: str, a, b):
        from ..softfloat import reduce_buffers

        path = "nic" if self.nrt.config.reduce_use_softfloat else "host"
        if isinstance(a, np.ndarray):
            return reduce_buffers(op, [a, b], path=path)
        # Scalars ride through 0-d arrays.
        return reduce_buffers(op, [np.asarray(a), np.asarray(b)], path=path).item()

    def _reduce_part(self, info, ep: CollEpoch):
        """This node's role in the binomial gather tree rooted at the
        MPI root's node, followed by the result/notification multicast."""
        nrt = self.nrt
        runtime = nrt.runtime
        job_id, comm_id = info.job.id, info.comm_id
        nodes = info.nodes
        n = len(nodes)
        root_node = info.node_of(ep.root or 0)
        my_idx = nodes.index(nrt.node_id)
        vidx = (my_idx - nodes.index(root_node)) % n

        # Fold local ranks' contributions first (rank order).
        locals_sorted = sorted(ep.descs, key=lambda d: d.rank)
        partial = _copy_payload(locals_sorted[0].payload)
        for desc in locals_sorted[1:]:
            yield from nrt.nic.compute(self._combine_cost(partial))
            partial = self._combine(ep.op, partial, desc.payload)

        key = (job_id, comm_id, ep.epoch)
        rnd = 0
        while (1 << rnd) < n:
            step = 1 << rnd
            if vidx % (step << 1) == 0:
                peer = vidx + step
                if peer < n:
                    yield from runtime.core.test_event(
                        nrt.node_id, f"rh:{key}:{rnd}"
                    )
                    incoming = nrt.reduce_inbox.pop(key + (rnd,))
                    yield from nrt.nic.compute(self._combine_cost(partial))
                    partial = self._combine(ep.op, partial, incoming)
            elif vidx % (step << 1) == step:
                dst_idx = vidx - step
                dst_node = nodes[(dst_idx + nodes.index(root_node)) % n]

                def deposit(node, buf=partial, k=key, r=rnd):
                    runtime.node_rt(node).reduce_inbox[k + (r,)] = buf

                runtime.core.xfer_and_signal(
                    nrt.node_id,
                    dst_node,
                    size=payload_nbytes(partial, ep.size),
                    remote_event=f"rh:{key}:{rnd}",
                    payload_writer=deposit,
                )
                return  # sent up the tree; our part is done
            rnd += 1

        # Only the root's RH reaches this point with the final result.
        yield from self._distribute(info, ep, partial)

    def _distribute(self, info, ep: CollEpoch, result):
        """Root RH: broadcast the result (allreduce) or a completion
        notification (reduce) and complete every node's requests."""
        nrt = self.nrt
        runtime = nrt.runtime
        job_id, comm_id = info.job.id, info.comm_id
        done = f"rhfin:{job_id}:{comm_id}:{ep.epoch}"
        size = (
            payload_nbytes(result, ep.size)
            if ep.kind == "allreduce"
            else nrt.config.descriptor_bytes
        )
        runtime.core.xfer_and_signal(
            nrt.node_id,
            info.nodes,
            size=size,
            local_event=done,
            payload_writer=lambda node: runtime.node_rt(node).complete_collective(
                job_id, comm_id, ep.epoch, result
            ),
        )
        yield from runtime.core.test_event(nrt.node_id, done)
