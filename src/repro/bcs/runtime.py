"""The BCS-MPI runtime: wiring the whole machine together.

A :class:`BcsRuntime` owns, for one cluster:

- the BCS core primitive layer (:class:`repro.core.BcsCore`),
- one :class:`~repro.bcs.threads.NodeRuntime` (+ BS/BR/DH/CH/RH NIC
  threads, Strobe Receiver and Node Manager) per compute node,
- the Strobe Sender on the management node (the Machine Manager's NIC
  thread),
- the global slice scheduler and job/communicator registries.

Jobs are launched with :meth:`launch`; each rank runs as a simulation
process whose MPI calls go through the BCS API.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence

from ..core import BcsCore
from ..network import Cluster
from ..storm.job import Job, JobSpec, block_placement
from .config import BcsConfig
from .descriptors import DescriptorPools
from .matching import MatcherTotals
from .node_manager import NodeArena, NodeManager
from .scheduler import SliceScheduler
from .strobe import StrobeReceiver, StrobeSender
from .threads import (
    BufferReceiver,
    BufferSender,
    CollectiveHelper,
    DmaHelper,
    NodeRuntime,
    ReduceHelper,
)


# Retention predicates for the incrementally maintained active-node sets.
# A node *joins* a set when the corresponding state is created (descriptor
# post, remote delivery, epoch creation) and is *evicted lazily* when a
# query finds the predicate false.  Each predicate must be true whenever
# the set's query predicate is true (it may be a superset — e.g. a
# collective epoch can become schedulable without any new post, so the
# collective set retains nodes for as long as any epoch is in flight).


def _dem_pending(nrt) -> bool:
    return bool(nrt.posted_sends or nrt.posted_recvs or nrt.posted_colls)


def _arrived_pending(nrt) -> bool:
    return bool(nrt.arrived_sends)


def _coll_pending(nrt) -> bool:
    return nrt.pending_epochs > 0


class HookList:
    """Slice-boundary hook registry with mutation-safe firing.

    The Strobe Sender used to snapshot ``list(on_slice_start)`` on every
    slice so hooks could deregister themselves while running.  That copy
    is pure overhead in the steady state (hooks change rarely: gang
    scheduler setup, failure teardown).  Here the snapshot is a cached
    tuple, rebuilt only when the registry is mutated; :meth:`fire`
    iterates the cache, so a hook removed mid-fire still runs for the
    slice that started firing — byte-for-byte the old semantics — and an
    unchanged registry costs zero copies per slice.
    """

    __slots__ = ("_hooks", "_snapshot")

    def __init__(self):
        self._hooks: List = []
        self._snapshot: Optional[tuple] = ()

    def append(self, hook) -> None:
        """Register a hook (called with the slice number)."""
        self._hooks.append(hook)
        self._snapshot = None

    def remove(self, hook) -> None:
        """Deregister a hook; safe to call from inside :meth:`fire`."""
        self._hooks.remove(hook)
        self._snapshot = None

    def fire(self, slice_no: int) -> None:
        """Invoke every registered hook with ``slice_no``."""
        snap = self._snapshot
        if snap is None:
            snap = self._snapshot = tuple(self._hooks)
        for hook in snap:
            hook(slice_no)

    def __iter__(self):
        return iter(self._hooks)

    def __len__(self) -> int:
        return len(self._hooks)

    def __bool__(self) -> bool:
        return bool(self._hooks)

    def __contains__(self, hook) -> bool:
        return hook in self._hooks

    def __repr__(self) -> str:
        return f"<HookList n={len(self._hooks)}>"


class CommInfo:
    """One communicator's mapping onto the machine.

    Ranks inside descriptors are communicator-relative; this object maps
    them to world ranks and nodes.  The world communicator of a job is
    always ``comm_id == 0``.
    """

    def __init__(self, job: Job, comm_id: int, world_ranks: Sequence[int]):
        self.job = job
        self.comm_id = comm_id
        self.world_ranks = list(world_ranks)
        if len(set(self.world_ranks)) != len(self.world_ranks):
            raise ValueError("duplicate ranks in communicator")
        #: comm ranks hosted on each node.
        self.node_ranks: Dict[int, List[int]] = {}
        for crank, wrank in enumerate(self.world_ranks):
            node = job.placement[wrank]
            self.node_ranks.setdefault(node, []).append(crank)
        self.nodes = sorted(self.node_ranks)

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return len(self.world_ranks)

    def node_of(self, comm_rank: int) -> int:
        """Node hosting a communicator-relative rank."""
        return self.job.placement[self.world_ranks[comm_rank]]

    @property
    def root_node(self) -> int:
        """Node of the communicator's rank 0 (its master process)."""
        return self.node_of(0)

    def __repr__(self) -> str:
        return f"<CommInfo job={self.job.id} comm={self.comm_id} size={self.size}>"


class NodeAgents:
    """The five NIC threads plus the Node Manager of one node."""

    def __init__(self, nrt: NodeRuntime):
        self.bs = BufferSender(nrt)
        self.br = BufferReceiver(nrt)
        self.dh = DmaHelper(nrt)
        self.ch = CollectiveHelper(nrt)
        self.rh = ReduceHelper(nrt)
        self.nm = NodeManager(nrt)


class NodeTable:
    """Lazy list-like table of :class:`NodeRuntime` flyweights.

    Used in aggregated-strobe mode: indexing materializes the node's
    runtime on first access, so only nodes that host ranks or receive
    traffic ever exist as Python objects.  Iteration materializes every
    node — full-scan oracles and whole-machine sweeps stay correct (a
    just-materialized idle node contributes exactly what an eagerly
    built idle node would: nothing).  Materialization creates no
    simulation events, so it can never perturb virtual time.
    """

    __slots__ = ("_runtime", "_slots", "_count")

    def __init__(self, runtime: "BcsRuntime", n_nodes: int):
        self._runtime = runtime
        self._slots: List[Optional[NodeRuntime]] = [None] * n_nodes
        self._count = 0

    def __len__(self) -> int:
        return len(self._slots)

    def __getitem__(self, node_id: int) -> NodeRuntime:
        nrt = self._slots[node_id]
        if nrt is None:
            nrt = self._slots[node_id] = NodeRuntime(self._runtime, node_id)
            self._count += 1
        return nrt

    def __iter__(self):
        for i in range(len(self._slots)):
            yield self[i]

    def materialized(self):
        """Existing node runtimes in id order (no materialization)."""
        for nrt in self._slots:
            if nrt is not None:
                yield nrt

    @property
    def materialized_count(self) -> int:
        """How many node runtimes exist as Python objects right now."""
        return self._count

    def __repr__(self) -> str:
        return f"<NodeTable {self._count}/{len(self._slots)} materialized>"


def existing_node_runtimes(node_runtimes):
    """Materialized-only view of a runtime's node table.

    Whole-machine consumers that only care about nodes *with state*
    (telemetry binding, job purges, state snapshots, stall diagnostics)
    iterate this instead of the table itself, so they never force a 64k
    lazy table to materialize.  On an eager list it is the identity.
    """
    if isinstance(node_runtimes, NodeTable):
        return node_runtimes.materialized()
    return node_runtimes


class _LazyNodeMap:
    """Dict-like lazy map of per-node companions (agents/receivers).

    ``map[node_id]`` materializes on first access via the subclass
    factory; the view methods (``values``/``items``/``keys``/``len``)
    cover only materialized entries, which is exactly the population an
    eager dict would show for the nodes that ever did anything.
    """

    __slots__ = ("_runtime", "_entries")

    def __init__(self, runtime: "BcsRuntime"):
        self._runtime = runtime
        self._entries: Dict[int, object] = {}

    def _make(self, node_id: int):
        raise NotImplementedError

    def __getitem__(self, node_id: int):
        entry = self._entries.get(node_id)
        if entry is None:
            entry = self._entries[node_id] = self._make(node_id)
        return entry

    def get(self, node_id: int, default=None):
        return self._entries.get(node_id, default)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(sorted(self._entries))

    def keys(self):
        return sorted(self._entries)

    def values(self):
        return [self._entries[k] for k in sorted(self._entries)]

    def items(self):
        return [(k, self._entries[k]) for k in sorted(self._entries)]


class _AgentMap(_LazyNodeMap):
    """Lazy ``node_id -> NodeAgents``."""

    def _make(self, node_id: int):
        return NodeAgents(self._runtime.node_runtimes[node_id])


class _ReceiverMap(_LazyNodeMap):
    """Lazy ``node_id -> StrobeReceiver``.

    Materializing an entry spawns the receiver's simulation process, so
    hot paths never index this map for a node that might not exist yet:
    :meth:`BcsRuntime.launch` materializes every node a job touches
    up front (a fresh receiver's init event is inert — it blocks on an
    empty inbox — so launch-time creation is virtual-time neutral).
    """

    def _make(self, node_id: int):
        return StrobeReceiver(self._runtime.node_runtimes[node_id])


class RankHandle:
    """Runtime-side state of one application process (one rank)."""

    def __init__(self, runtime: "BcsRuntime", job: Job, world_rank: int):
        self.runtime = runtime
        self.job = job
        self.world_rank = world_rank
        self.node_id = job.placement[world_rank]
        self.nrt = runtime.node_rt(self.node_id)
        self.nm = runtime.agents[self.node_id].nm
        #: Per-(comm_id, dst) send sequence counters (non-overtaking order).
        self.send_seq: Dict[tuple, int] = {}
        #: Per-comm_id collective epoch counters.
        self.coll_seq: Dict[int, int] = {}
        #: Host-call overhead accumulated since the last yield point.
        self.pending_overhead = 0

    def next_send_seq(self, comm_id: int, dst: int) -> int:
        key = (comm_id, dst)
        seq = self.send_seq.get(key, 0)
        self.send_seq[key] = seq + 1
        return seq

    def next_epoch(self, comm_id: int) -> int:
        epoch = self.coll_seq.get(comm_id, 0) + 1
        self.coll_seq[comm_id] = epoch
        return epoch

    def take_overhead(self) -> int:
        t, self.pending_overhead = self.pending_overhead, 0
        return t

    def __repr__(self) -> str:
        return f"<RankHandle job={self.job.id} rank={self.world_rank}>"


class BcsRuntime:
    """The buffered-coscheduled MPI runtime for one cluster."""

    def __init__(self, cluster: Cluster, config: Optional[BcsConfig] = None):
        self.cluster = cluster
        self.env = cluster.env
        self.config = config or BcsConfig()
        self.core = BcsCore(cluster)
        self.scheduler = SliceScheduler(self.config, cluster.spec.model.link_bandwidth)

        #: Answer per-slice queries from incremental sets (config flag).
        self._incremental = self.config.incremental_active_sets
        #: Aggregated strobe + lazy arena node representation (config
        #: flag); False selects the eager per-destination oracle path.
        self._aggregated = self.config.aggregated_strobe
        #: Free-list pools for descriptors/requests (the batched slice
        #: engine's allocation leg; recycling only happens with
        #: ``config.batched_matching`` — acquire falls through to plain
        #: construction when the pools are empty).
        self.pools = DescriptorPools()
        #: Machine-wide matcher aggregates, shared by every node matcher.
        self.matcher_totals = MatcherTotals()
        # Incrementally maintained active-node id sets (see the module-
        # level retention predicates).  Maintained unconditionally — the
        # bookkeeping is O(1) per mutation — so the scan and incremental
        # query paths can be flipped per run and compared differentially.
        self._dem_set: set = set()
        self._arrived_set: set = set()
        self._coll_set: set = set()
        self._match_set: set = set()
        #: Nodes with at least one process waiting on their slice signal.
        self._slice_waiters: set = set()
        #: Start time of the current slice (shared by every NodeRuntime;
        #: written once per slice by the Strobe Sender instead of an
        #: O(nodes) begin_slice loop).
        self.slice_start_time = 0

        #: SoA arena for per-node scalars; the ``mphase_done`` counters
        #: are array-backed GAS slots, so the oracle path's per-node
        #: ``gas.write`` and the aggregated path's batched increment
        #: update identical storage.
        self.arena = NodeArena(len(cluster.nodes))
        self.core.gas.register_array("mphase_done", self.arena.mphase_done)

        n_compute = cluster.n_compute_nodes
        if self._aggregated:
            # Flyweight node machinery: materialized per node on first
            # touch (launch() pre-materializes a job's nodes).
            self.node_runtimes = NodeTable(self, n_compute)
            self.agents = _AgentMap(self)
            self.receivers = _ReceiverMap(self)
        else:
            self.node_runtimes: List[NodeRuntime] = [
                NodeRuntime(self, node.id) for node in cluster.compute_nodes
            ]
            self.agents: Dict[int, NodeAgents] = {
                nrt.node_id: NodeAgents(nrt) for nrt in self.node_runtimes
            }
            self.receivers: Dict[int, StrobeReceiver] = {
                nrt.node_id: StrobeReceiver(nrt) for nrt in self.node_runtimes
            }
        self.ss = StrobeSender(self)

        self.jobs: Dict[int, Job] = {}
        #: Per-job usage counters (cpu_ns, blocked_ns, messages, bytes,
        #: collectives) — STORM's accounting role (paper §1).
        self.job_stats: Dict[int, Counter] = {}
        self.comms: Dict[tuple, CommInfo] = {}
        self._comm_by_members: Dict[tuple, CommInfo] = {}
        #: Two-level (job -> comm -> info) mirror of ``comms``: the hot
        #: paths look a communicator up per descriptor, and the flat
        #: tuple key would allocate a fresh ``(job, comm)`` tuple each
        #: time.  Communicators are never unregistered, so this never
        #: goes stale.
        self._comm_cache: Dict[int, Dict[int, CommInfo]] = {}
        #: Live rank processes: (job_id, rank) -> sim Process (for
        #: failure injection / fault tolerance, and the batched
        #: scheduling phase's host-only window guard).
        self.rank_procs: Dict[tuple, object] = {}
        #: Set for good by the first rank read of Buffer Receiver state
        #: (``BcsApi.probe``/``cancel_recv``); the batched scheduling
        #: phase only solves windows while it is unset.
        self.br_observed = False
        #: Buffer Receiver step instants (node -> set) of the last solved
        #: DEM/MSM microphase (see ``BcsApi._observe_br``).
        self.br_window: Optional[Dict[int, set]] = None
        self.slice_no = 0
        self.stopped = False
        self.stats: Counter = Counter()
        #: Nodes hosting at least one rank of any job (strobe targets).
        self.active_node_ids: List[int] = []
        #: Hooks invoked at every slice boundary with the new slice number
        #: (gang scheduler, instrumentation, ...).  A non-empty registry
        #: also disables idle fast-forward: hooks may create work.
        self.on_slice_start = HookList()
        #: Telemetry hub (:class:`repro.obs.Observability`) or None.
        #: Hot paths guard on this — a bare runtime pays one attribute
        #: read per hook point and nothing else.
        self.obs = None

    def attach_observability(self, obs) -> "BcsRuntime":
        """Wire a telemetry hub into the runtime, scheduler, and NICs.

        Instrumentation is passive (it never enters the event queue), so
        attaching observability does not change simulated timings.
        Returns the runtime for chaining.
        """
        self.obs = obs
        obs.bind(self)
        return self

    # -- registry ------------------------------------------------------------------

    def node_rt(self, node_id: int) -> NodeRuntime:
        """NodeRuntime by node id."""
        return self.node_runtimes[node_id]

    def comm_info(self, job_id: int, comm_id: int) -> CommInfo:
        """Communicator metadata (allocation-free interned lookup)."""
        try:
            return self._comm_cache[job_id][comm_id]
        except KeyError:
            info = self.comms[(job_id, comm_id)]
            self._comm_cache.setdefault(job_id, {})[comm_id] = info
            return info

    def register_comm(self, job: Job, world_ranks: Sequence[int]) -> CommInfo:
        """Create (or fetch) the communicator over a subset of a job's ranks.

        Every member rank calls split() independently; deduplication by
        member set makes them all land on the same communicator, the way
        a real MPI_Comm_split agrees collectively.
        """
        member_key = (job.id, tuple(world_ranks))
        existing = self._comm_by_members.get(member_key)
        if existing is not None:
            return existing
        comm_id = sum(1 for key in self.comms if key[0] == job.id)
        info = CommInfo(job, comm_id, world_ranks)
        self.comms[(job.id, comm_id)] = info
        self._comm_cache.setdefault(job.id, {})[comm_id] = info
        self._comm_by_members[member_key] = info
        return info

    # -- job lifecycle ------------------------------------------------------------------

    def launch(self, spec: JobSpec, placement: Optional[List[int]] = None) -> Job:
        """Start a job: STORM-style gang launch of one process per rank.

        Each rank pays the one-time BCS runtime initialization cost, then
        starts executing at a slice boundary.
        """
        if placement is None:
            placement = block_placement(
                spec.n_ranks,
                self.cluster.n_compute_nodes,
                self.cluster.spec.cpus_per_node,
            )
        job = Job(self.env, spec, placement)
        job.started_at = self.env.now
        self.jobs[job.id] = job
        self.job_stats[job.id] = Counter()
        self.register_comm(job, range(spec.n_ranks))  # comm 0 = world
        self.arena.activate(job.nodes)
        self.active_node_ids = sorted(
            set(self.active_node_ids) | set(job.nodes)
        )
        if self._aggregated:
            # Materialize the per-node machinery (NodeRuntime + Strobe
            # Receiver) for every node the job touches, in ascending id
            # order, *before* the strobe loop and the rank processes
            # start.  A fresh receiver's init event is inert — it blocks
            # on an empty inbox, exactly like an eagerly built receiver
            # that has been idle — so launch-time materialization keeps
            # the event sequence, and therefore virtual time, identical
            # to the eager oracle.
            for node_id in job.nodes:
                self.receivers[node_id]
        self.stopped = False
        self.ss.start()

        from ..mpi.bcs_backend import BcsCommunicator  # avoid import cycle
        from ..mpi.context import AppContext

        for rank in range(spec.n_ranks):
            handle = RankHandle(self, job, rank)
            comm = BcsCommunicator(self, handle, self.comm_info(job.id, 0), rank)
            ctx = AppContext(
                self.env,
                comm,
                handle.node_id,
                compute_fn=self._make_compute(handle),
                job=job,
                params=spec.params,
            )
            proc = self.env.process(
                self._rank_body(job, rank, ctx, handle),
                name=f"{spec.name}.r{rank}",
            )
            self.rank_procs[(job.id, rank)] = proc
        return job

    def _make_compute(self, handle: RankHandle):
        def compute(node_id: int, duration: int):
            overhead = handle.take_overhead()
            yield from handle.nm.compute(handle.job.id, duration + overhead)

        return compute

    def _rank_body(self, job: Job, rank: int, ctx, handle: RankHandle):
        from ..sim.errors import Interrupt

        try:
            t_launch = self.env.now
            if self.config.init_cost:
                yield self.env.timeout(self.config.init_cost)
            # Processes start executing at a slice boundary (gang launch).
            yield handle.nrt.slice_start.wait()
            obs = self.obs
            if obs is not None and obs.spans is not None:
                obs.spans.rank_started(job.id, rank, t_launch, self.env.now)
            result = yield from job.spec.app(ctx, **job.spec.params)
        except Interrupt as intr:
            # Killed by failure injection: the job is torn down.
            self.stats["ranks_killed"] += 1
            job.mark_failed(intr.cause)
            return
        finally:
            self.rank_procs.pop((job.id, rank), None)
        job.rank_finished(rank, result)
        obs = self.obs
        if obs is not None and obs.spans is not None:
            obs.spans.rank_finished(job.id, rank, self.env.now)

    def run_job(
        self,
        spec: JobSpec,
        placement: Optional[List[int]] = None,
        max_time: Optional[int] = None,
    ) -> Job:
        """Launch a job and run the simulation until it completes.

        ``max_time`` (ns of simulated time) is a watchdog: an application
        deadlock (e.g. an unmatched blocking send) would otherwise spin
        the strobe loop forever.
        """
        job = self.launch(spec, placement)
        if max_time is None:
            self.env.run(until=job.done)
        else:
            self.env.run(until=self.env.any_of([job.done, self.env.timeout(max_time)]))
            if not job.complete:
                from ..debug.diagnostics import diagnose

                raise RuntimeError(
                    f"job {spec.name!r} did not finish within {max_time} ns "
                    "(likely an application communication deadlock).\n"
                    f"stall diagnosis:\n{diagnose(self)}"
                )
        return job

    def stop(self) -> None:
        """Ask the Strobe Sender to stop at the next slice boundary."""
        self.stopped = True

    def idle(self) -> bool:
        """Nothing left to do: no running jobs (failed count as
        terminal) and no backlog (e.g. system/PFS transfers)."""
        return (
            all(job.terminal for job in self.jobs.values()) and not self.any_work()
        )

    def kill_job(self, job: Job, cause: str = "failure") -> None:
        """Tear a job down: interrupt every live rank now, purge its
        runtime state at the next slice boundary.

        The deferral is the paper's checkpointing insight in action: in
        the middle of a slice, NIC threads may be blocked on partner
        events of an in-flight collective, and yanking that state would
        wedge the microphase barrier.  At the slice boundary the global
        communication state is consistent and can be dropped wholesale.
        """
        job.mark_failed(cause)
        for (job_id, rank), proc in list(self.rank_procs.items()):
            if job_id == job.id and proc.is_alive and proc.target is not None:
                proc.interrupt(cause)

        def purge_hook(_slice_no):
            self.purge_job(job.id)
            self.on_slice_start.remove(purge_hook)

        self.on_slice_start.append(purge_hook)

    def purge_job(self, job_id: int) -> None:
        """Drop every trace of a job from the runtime's queues.

        Used after a failure so a relaunched instance starts from clean
        communication state (the paper's checkpointing rationale: at a
        slice boundary the global communication state is known, so it
        can be discarded and rebuilt consistently).
        """

        def keep(desc) -> bool:
            return desc.job_id != job_id

        # Only materialized nodes can hold job state (descriptors are
        # posted and delivered through node runtimes), so the purge
        # never needs to force a lazy table.
        for nrt in existing_node_runtimes(self.node_runtimes):
            nrt.posted_sends = [d for d in nrt.posted_sends if keep(d)]
            nrt.posted_recvs = [d for d in nrt.posted_recvs if keep(d)]
            nrt.posted_colls = [d for d in nrt.posted_colls if keep(d)]
            nrt.arrived_sends = [d for d in nrt.arrived_sends if keep(d)]
            nrt.new_matches = [m for m in nrt.new_matches if keep(m.send)]
            nrt.matcher.purge_job(job_id)
            dropped = [
                key for key in nrt.coll_state if key[0] == job_id
            ]
            for key in dropped:
                nrt.pending_epochs -= sum(
                    0 if ep.executed else 1 for ep in nrt.coll_state[key].values()
                )
                del nrt.coll_state[key]
            nrt.reduce_inbox = {
                k: v for k, v in nrt.reduce_inbox.items() if k[0] != job_id
            }
        self.scheduler.in_flight = [
            m for m in self.scheduler.in_flight if keep(m.send)
        ]
        self.stats["jobs_purged"] += 1

    # -- slice coordination hooks (called by the Strobe Sender) -------------------------
    #
    # Every query below has two implementations returning identical
    # results: the incremental one reads the lazily pruned active-node
    # sets (O(members) per slice), the ``*_scan`` one recomputes from
    # every node runtime (O(cluster) per slice).  The scan path is the
    # reference oracle — selectable with
    # ``BcsConfig(incremental_active_sets=False)`` and pinned against the
    # incremental path by ``tests/bcs/test_active_sets.py``.

    def _prune_live(self, node_set: set, pred) -> bool:
        """Evict stale members of ``node_set``; True if any remain.

        Allocation-free in the steady state: the eviction list is only
        materialized when a stale member is actually found.
        """
        if not node_set:
            return False
        rts = self.node_runtimes
        dead = None
        for n in node_set:
            if not pred(rts[n]):
                if dead is None:
                    dead = [n]
                else:
                    dead.append(n)
        if dead is not None:
            node_set.difference_update(dead)
        return bool(node_set)

    def _live_sorted(self, node_set: set, pred) -> List[int]:
        """Sorted live members of ``node_set`` (stale ones evicted)."""
        self._prune_live(node_set, pred)
        return sorted(node_set)

    def any_work(self) -> bool:
        """Anything at all for this slice's microphases?"""
        if self.scheduler.in_flight:
            return True
        if self._incremental:
            return (
                self._prune_live(self._dem_set, _dem_pending)
                or self._prune_live(self._arrived_set, _arrived_pending)
                or self._prune_live(self._coll_set, _coll_pending)
            )
        return any(nrt.has_work() for nrt in self.node_runtimes)

    def any_work_scan(self) -> bool:
        """Full-scan oracle for :meth:`any_work`."""
        return bool(self.scheduler.in_flight) or any(
            nrt.has_work() for nrt in self.node_runtimes
        )

    def slice_work(self) -> tuple:
        """Combined per-slice query: ``(any_work(), dem_nodes())``.

        The Strobe Sender needs both answers back to back with no yield
        point in between, so one DEM-set prune can serve both instead of
        pruning it once for ``any_work`` and again for ``dem_nodes``.
        Results are identical to calling the two queries in sequence.
        """
        dem = self.dem_nodes()
        if dem or self.scheduler.in_flight:
            return True, dem
        if self._incremental:
            active = self._prune_live(
                self._arrived_set, _arrived_pending
            ) or self._prune_live(self._coll_set, _coll_pending)
        else:
            active = any(
                nrt.arrived_sends or nrt.pending_epochs
                for nrt in self.node_runtimes
            )
        return active, dem

    def dem_nodes(self) -> List[int]:
        """Nodes with descriptors to drain/exchange."""
        if self._incremental:
            return self._live_sorted(self._dem_set, _dem_pending)
        return self.dem_nodes_scan()

    def dem_nodes_scan(self) -> List[int]:
        """Full-scan oracle for :meth:`dem_nodes`."""
        return [
            nrt.node_id
            for nrt in self.node_runtimes
            if nrt.posted_sends or nrt.posted_recvs or nrt.posted_colls
        ]

    def _msm_schedulable(self, nrt) -> bool:
        """Does ``nrt`` host a root with an epoch ready to CaW-schedule?"""
        for (job_id, comm_id), epochs in nrt.coll_state.items():
            info = self.comm_info(job_id, comm_id)
            if info.root_node != nrt.node_id:
                continue
            nxt = nrt.sched_flag.get((job_id, comm_id), 0) + 1
            ep = epochs.get(nxt)
            if ep is not None and not ep.scheduled and ep.descs:
                return True
        return False

    def msm_nodes(self) -> List[int]:
        """Nodes with arrived sends to match or collectives to schedule."""
        if not self._incremental:
            return self.msm_nodes_scan()
        self._prune_live(self._arrived_set, _arrived_pending)
        out = set(self._arrived_set)
        if self._prune_live(self._coll_set, _coll_pending):
            rts = self.node_runtimes
            for node_id in self._coll_set:
                if node_id not in out and self._msm_schedulable(rts[node_id]):
                    out.add(node_id)
        return sorted(out)

    def msm_nodes_scan(self) -> List[int]:
        """Full-scan oracle for :meth:`msm_nodes`."""
        out = []
        for nrt in self.node_runtimes:
            if nrt.arrived_sends:
                out.append(nrt.node_id)
                continue
            if self._msm_schedulable(nrt):
                out.append(nrt.node_id)
        return out

    def _node_has_scheduled(self, nrt, kinds: tuple, driver_only: bool) -> bool:
        for (job_id, comm_id), epochs in nrt.coll_state.items():
            info = self.comm_info(job_id, comm_id)
            for epoch, ep in epochs.items():
                if ep.executed or ep.kind not in kinds:
                    continue
                if not self.core.gas.read(
                    nrt.node_id, ("go", job_id, comm_id, epoch), False
                ):
                    continue
                if driver_only:
                    root = ep.root or 0
                    if info.node_of(root) == nrt.node_id:
                        return True
                else:
                    return True
        return False

    def _nodes_with_scheduled(self, kinds: tuple, driver_only: bool) -> List[int]:
        rts = self.node_runtimes
        if self._incremental:
            if not self._prune_live(self._coll_set, _coll_pending):
                return []
            out = [
                node_id
                for node_id in self._coll_set
                if self._node_has_scheduled(rts[node_id], kinds, driver_only)
            ]
            out.sort()
            return out
        return [
            node_id
            for node_id in range(len(rts))
            if self._node_has_scheduled(rts[node_id], kinds, driver_only)
        ]

    def bbm_nodes(self) -> List[int]:
        """Nodes driving a scheduled barrier/broadcast this slice."""
        return self._nodes_with_scheduled(("barrier", "bcast"), driver_only=True)

    def rm_nodes(self) -> List[int]:
        """Nodes participating in a scheduled reduce this slice."""
        return self._nodes_with_scheduled(("reduce", "allreduce"), driver_only=False)

    def global_schedule(self):
        """Collect MSM matches and grant this slice's chunks."""
        rts = self.node_runtimes
        if self._incremental:
            for node_id in sorted(self._match_set):
                nrt = rts[node_id]
                if nrt.new_matches:
                    self.scheduler.add_matches(nrt.new_matches)
                    nrt.new_matches = []
        else:
            for nrt in rts:
                if nrt.new_matches:
                    self.scheduler.add_matches(nrt.new_matches)
                    nrt.new_matches = []
        self._match_set.clear()
        return self.scheduler.schedule_slice()

    # -- telemetry accessors (read-only; never enter the event queue) -------------------

    def queue_depths(self) -> tuple:
        """Machine totals ``(posted_sends, posted_recvs, posted_colls,
        arrived_sends)`` — O(active nodes) on the incremental path."""
        rts = self.node_runtimes
        if self._incremental:
            sends = recvs = colls = 0
            for node_id in self._live_sorted(self._dem_set, _dem_pending):
                nrt = rts[node_id]
                sends += len(nrt.posted_sends)
                recvs += len(nrt.posted_recvs)
                colls += len(nrt.posted_colls)
            arrived = sum(
                len(rts[n].arrived_sends)
                for n in self._live_sorted(self._arrived_set, _arrived_pending)
            )
            return sends, recvs, colls, arrived
        sends = recvs = colls = arrived = 0
        for nrt in rts:
            sends += len(nrt.posted_sends)
            recvs += len(nrt.posted_recvs)
            colls += len(nrt.posted_colls)
            arrived += len(nrt.arrived_sends)
        return sends, recvs, colls, arrived

    def matcher_pending_totals(self) -> tuple:
        """Machine totals ``(unexpected sends, posted receives)``.

        O(1) on the incremental path (the shared aggregate); the scan
        path polls every node's matcher, as telemetry originally did.
        """
        if self._incremental:
            totals = self.matcher_totals
            return totals.unexpected, totals.posted
        unexpected = posted = 0
        for nrt in self.node_runtimes:
            u, p = nrt.matcher.pending_counts
            unexpected += u
            posted += p
        return unexpected, posted

    def communication_state(self) -> dict:
        """Snapshot of the global communication state.

        The paper's §1 argument made concrete: "the fact that the
        communication state of all processes is known at the beginning
        of every time slice facilitates the implementation of
        checkpointing and debugging mechanisms."  At a slice boundary
        this dictionary *is* that state — everything in flight, per
        node, plus the scheduler backlog.  Deterministic runs produce
        identical snapshots at identical slices.
        """
        per_node = {}
        # Materialized-only: a node with no Python object by definition
        # has no in-flight state, and all-zero entries are filtered out
        # below anyway — the snapshot is byte-identical to a full scan.
        for nrt in existing_node_runtimes(self.node_runtimes):
            unexpected, posted = nrt.matcher.pending_counts
            entry = {
                "posted_sends": len(nrt.posted_sends),
                "posted_recvs": len(nrt.posted_recvs),
                "posted_collectives": len(nrt.posted_colls),
                "arrived_sends": len(nrt.arrived_sends),
                "unexpected": unexpected,
                "pending_recvs": posted,
                "pending_coll_epochs": nrt.pending_epochs,
            }
            if any(entry.values()):
                per_node[nrt.node_id] = entry
        return {
            "time": self.env.now,
            "slice": self.slice_no,
            "nodes": per_node,
            "in_flight_matches": len(self.scheduler.in_flight),
            "backlog_bytes": self.scheduler.backlog_bytes,
        }

    def __repr__(self) -> str:
        return (
            f"<BcsRuntime slice={self.slice_no} jobs={len(self.jobs)} "
            f"t={self.env.now}>"
        )
