"""The Node Manager dæmon: local process scheduling.

In the paper's user-level prototype the NM (not the kernel) schedules the
application processes at every time slice (§4.5).  Two consequences are
modelled here:

1. **Restart at slice boundaries** — a process whose blocking operation
   completed during slice *i* is restarted at the beginning of slice
   *i+1* (the 1.5-slice average delay of §3.1).  Implemented by
   :meth:`block_on`, which the BCS API uses for every blocking call.
2. **The scheduling tax** — the NM daemon steals host cycles every slice;
   computation is stretched by ``nm_compute_tax`` (this is the §4.5
   "noise" anomaly of the user-level implementation, and what a
   kernel-level implementation would remove).

With gang scheduling (STORM extension), the NM additionally only lets a
job's processes compute while that job holds the node — see
:mod:`repro.storm.gang`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Sequence

import numpy as np

from .descriptors import BcsRequest, RequestWait

if TYPE_CHECKING:  # pragma: no cover
    from .threads import NodeRuntime


class NodeArena:
    """SoA arena for per-node scalar state (flyweight node records).

    At 64k nodes, keeping one Python object graph per node just to hold
    a handful of scalars makes the GC trace millions of objects per
    gen-2 pass.  The arena hoists those scalars into flat numpy arrays
    owned by the runtime — O(1) objects regardless of machine size:

    - ``mphase_done``: the strobe protocol's per-node microphase
      completion counters.  Registered as an array-backed slot in the
      :class:`~repro.core.global_memory.GlobalAddressSpace`, so the
      Strobe Receivers' per-node ``gas.write`` (reference path) and the
      Strobe Sender's batched increment (fast path) update the
      same storage and every ``gas.read`` sees it transparently.
    - ``active``: which nodes host at least one rank of any job; the
      strobe multicast's destination set and the lazy materializer's
      "must exist" set.
    """

    __slots__ = ("n_nodes", "mphase_done", "active")

    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes
        self.mphase_done = np.zeros(n_nodes, dtype=np.int64)
        self.active = np.zeros(n_nodes, dtype=bool)

    def activate(self, node_ids: Iterable[int]) -> None:
        """Mark ``node_ids`` as hosting ranks (never un-set per job —
        matches the runtime's grow-only ``active_node_ids`` list)."""
        ids = list(node_ids)
        if ids:
            self.active[ids] = True

    def active_ids(self) -> List[int]:
        """Sorted ids of all active nodes."""
        return np.flatnonzero(self.active).tolist()

    @property
    def n_active(self) -> int:
        """Number of active nodes."""
        return int(self.active.sum())

    def __repr__(self) -> str:
        return f"<NodeArena n={self.n_nodes} active={self.n_active}>"


class NodeManager:
    """Per-node process scheduler of the BCS runtime."""

    def __init__(self, nrt: "NodeRuntime"):
        self.nrt = nrt
        self.env = nrt.env
        #: Optional gang-scheduling hook: job_id -> Gate (see storm.gang).
        self.job_gates: dict = {}

    # -- computation ------------------------------------------------------------

    def compute(self, job_id: int, duration: int):
        """Run ``duration`` ns of application computation.

        The effective duration includes the NM tax; the node's CPU
        resource serializes against other local processes and noise
        daemons.  Under gang scheduling the computation only progresses
        while the job holds the node.
        """
        if duration <= 0:
            return
        effective = duration + int(duration * self.nrt.config.nm_compute_tax)
        stats = self.nrt.runtime.job_stats.get(job_id)
        if stats is not None:
            stats["cpu_ns"] += effective
        gate = self.job_gates.get(job_id)
        if gate is None:
            yield from self.nrt.node.host_compute(effective)
            return
        # Gang-scheduled: compute in slice-bounded quanta while active.
        remaining = effective
        cfg = self.nrt.config
        while remaining > 0:
            yield gate.wait()
            quantum_end = self.nrt.slice_start_time + cfg.timeslice
            quantum = min(remaining, max(quantum_end - self.env.now, cfg.timeslice // 8))
            yield from self.nrt.node.cpu.held(quantum)
            remaining -= quantum

    # -- blocking -------------------------------------------------------------------

    def block_on(self, requests: Sequence["BcsRequest"]):
        """Suspend until every request completes, then restart the
        process at the next slice boundary.

        If everything is already complete the process continues
        immediately (this is what makes completed non-blocking
        communication free, §3.2).  Otherwise one :class:`RequestWait`
        covers the pending requests."""
        pending = [r for r in requests if r.completed_at is None]
        if not pending:
            return
        yield RequestWait(self.env, pending)
        # NM restarts us at the next slice start.
        yield self.nrt.slice_start.wait()

    def __repr__(self) -> str:
        return f"<NodeManager node={self.nrt.node_id}>"
