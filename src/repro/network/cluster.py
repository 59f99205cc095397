"""Cluster assembly: nodes, NICs, fabric.

A :class:`Cluster` is the simulated analogue of the paper's "crescendo"
testbed: ``n_nodes`` compute nodes (dual-CPU by default) plus one
management node, all on one interconnect.  The management node is always
the *last* index (``cluster.management_node``), mirroring the paper's
separate Dell 2550; compute ranks use indices ``0..n_nodes-1``.

The per-node ``Node``/``Nic`` objects are flyweights materialized on
first access: a 64k-node machine where one small job runs only ever
builds the node objects the job touches.  Construction of a ``Node``
creates no simulation events, so lazy assembly is observationally
identical to building every node up front.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional

from ..sim import Engine, NullTrace, Resource, RngRegistry, Trace
from .fabric import Fabric
from .model import NetworkModel, qsnet
from .nic import Nic


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of a cluster."""

    n_nodes: int = 32
    cpus_per_node: int = 2
    model: NetworkModel = field(default_factory=qsnet)
    #: Per-operation NIC thread cost, ns (0 disables the cost model).
    nic_thread_op_cost: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("need at least one compute node")
        if self.cpus_per_node < 1:
            raise ValueError("need at least one CPU per node")


class Node:
    """One compute (or management) node."""

    def __init__(self, env: Engine, node_id: int, cpus: int, nic: Nic):
        self.env = env
        self.id = node_id
        self.nic = nic
        #: Host CPUs; computation and host-side MPI overhead serialize here.
        self.cpu = Resource(env, capacity=cpus, name=f"node{node_id}.cpu")
        #: Arbitrary per-node key/value state (global memory attaches here).
        self.state: dict = {}
        #: When > 0, long computations release the CPU every this many ns
        #: so competing daemons (noise) can preempt.  Zero keeps compute
        #: monolithic and cheap; the noise injector turns this on.
        self.preempt_quantum = 0

    def host_compute(self, duration: int) -> Generator:
        """Occupy one host CPU for ``duration`` ns (quantized if enabled)."""
        if duration <= 0:
            return
        quantum = self.preempt_quantum
        if quantum <= 0 or duration <= quantum:
            yield from self.cpu.held(duration)
            return
        remaining = duration
        while remaining > 0:
            step = quantum if remaining > quantum else remaining
            yield from self.cpu.held(step)
            remaining -= step

    def __repr__(self) -> str:
        return f"<Node {self.id} cpus={self.cpu.capacity}>"


class NodeDirectory:
    """Lazy sequence of a cluster's nodes (flyweight materialization).

    Indexing materializes the node (and its NIC) on first access;
    iteration and slicing materialize everything they touch, so code
    that genuinely walks the whole machine (diagnostics, the reference
    runtime's full scans, fault-tolerance sweeps) still sees every node.
    """

    __slots__ = ("_cluster", "_slots", "_materialized")

    def __init__(self, cluster: "Cluster", total: int):
        self._cluster = cluster
        self._slots: List[Optional[Node]] = [None] * total
        self._materialized = 0

    def __len__(self) -> int:
        return len(self._slots)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._slots)))]
        if index < 0:
            index += len(self._slots)
        node = self._slots[index]
        if node is None:
            node = self._slots[index] = self._cluster._make_node(index)
            self._materialized += 1
        return node

    def __iter__(self):
        for i in range(len(self._slots)):
            yield self[i]

    @property
    def materialized_count(self) -> int:
        """How many nodes exist as Python objects right now."""
        return self._materialized

    def __repr__(self) -> str:
        return (
            f"<NodeDirectory {self._materialized}/{len(self._slots)} "
            "materialized>"
        )


class _NicView:
    """The fabric's view of the node directory: NICs by node id."""

    __slots__ = ("_nodes",)

    def __init__(self, nodes):
        self._nodes = nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __getitem__(self, index) -> Nic:
        return self._nodes[index].nic

    def __iter__(self):
        for node in self._nodes:
            yield node.nic


class Cluster:
    """A simulated cluster: engine + nodes + fabric + RNG + trace."""

    def __init__(self, spec: ClusterSpec | None = None, trace: Optional[Trace] = None):
        self.spec = spec or ClusterSpec()
        self.trace = trace if trace is not None else NullTrace()
        self.env = Engine(trace=self.trace)
        self.rng = RngRegistry(self.spec.seed)

        self.nodes = NodeDirectory(self, self.spec.n_nodes + 1)  # + management node
        self.fabric = Fabric(
            self.env, self.spec.model, _NicView(self.nodes), trace=self.trace
        )

    def _make_node(self, node_id: int) -> Node:
        nic = Nic(
            self.env, node_id, thread_op_cost=self.spec.nic_thread_op_cost
        )
        return Node(self.env, node_id, self.spec.cpus_per_node, nic)

    @property
    def n_compute_nodes(self) -> int:
        """Number of compute nodes (excludes the management node)."""
        return self.spec.n_nodes

    @property
    def management_node(self) -> Node:
        """The management node (runs the MM / Strobe Sender)."""
        return self.nodes[-1]

    @property
    def compute_nodes(self) -> List[Node]:
        """All compute nodes, in id order (materializes every node)."""
        return self.nodes[: self.spec.n_nodes]

    def node(self, node_id: int) -> Node:
        """Node by id (compute ids first, management node last)."""
        return self.nodes[node_id]

    def run(self, until=None):
        """Run the underlying engine (convenience passthrough)."""
        return self.env.run(until=until)

    def __repr__(self) -> str:
        return (
            f"<Cluster n={self.spec.n_nodes}+mgmt model={self.spec.model.name} "
            f"t={self.env.now}>"
        )
