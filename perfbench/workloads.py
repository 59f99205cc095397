"""The benchmark's workloads: seeded job plans and one simulated run of a plan.

A workload is a machine size plus a list of jobs.  The seed only moves
things the simulator must handle identically well (rank placement,
arrival offsets, compute jitter); the volume of work is fixed per
workload, so host-time metrics compare across seeds.

Every run is checked: each job completes, ``sage`` returns the analytic
global-minimum ``dt`` on every rank, and the virtual makespan plus the
exact ``runtime.stats`` counters are reported so the caller can compare
repeats of a seed (and the pinned values for seed 0).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.apps import (
    barrier_benchmark,
    nearest_neighbor_benchmark,
    sage,
    sweep3d_blocking,
)
from repro.bcs import BcsConfig, BcsRuntime
from repro.network import Cluster, ClusterSpec
from repro.storm import JobSpec
from repro.units import kib, ms, seconds

#: Counters that must repeat exactly for a seed (and match the pins).
COUNTERS = (
    "slices",
    "active_slices",
    "descriptors_posted",
    "matches_created",
    "chunks_moved",
    "bytes_transferred",
    "messages_delivered",
    "collectives_completed",
    "slice_overruns",
)

#: Virtual-time watchdog: a run still going after this is a failed run.
MAX_VIRTUAL = seconds(600)


@dataclass
class JobPlan:
    """One job of a workload: what runs where, and when it arrives."""

    name: str
    app: Callable
    n_ranks: int
    params: dict
    placement: List[int]
    offset: int = 0
    #: Value every rank must return (None: no output check).
    expect: Optional[float] = None


@dataclass
class Plan:
    """A workload instance generated from a seed."""

    workload: str
    n_nodes: int
    jobs: List[JobPlan]


def sage_dt(n_ranks: int, steps: int) -> float:
    """The analytic result of :func:`repro.apps.sage`: the last step's global-min dt."""
    last = steps - 1
    return min(1.0 + ((r * 31 + last * 17) % 100) / 1000.0 for r in range(n_ranks))


def _paired(nodes: List[int], n_ranks: int) -> List[int]:
    """Two ranks per node over ``nodes`` (dual-CPU nodes, paper testbed)."""
    return [nodes[r // 2] for r in range(n_ranks)]


def _nn_dense(rng: random.Random, tiny: bool) -> Plan:
    n_nodes = 8 if tiny else 128
    n_ranks = 2 * n_nodes
    placement = _paired(list(range(n_nodes)), n_ranks)
    rng.shuffle(placement)
    params = dict(
        granularity=ms(1),
        iterations=2 if tiny else 10,
        n_neighbors=4,
        message_bytes=kib(4),
    )
    job = JobPlan("nn", nearest_neighbor_benchmark, n_ranks, params, placement)
    return Plan("nn_dense", n_nodes, [job])


def _sparse_64k(rng: random.Random, tiny: bool) -> Plan:
    n_nodes = 1024 if tiny else 65536
    n_ranks = 4 if tiny else 8
    placement = rng.sample(range(n_nodes), n_ranks)
    params = dict(
        granularity=ms(100),
        iterations=5 if tiny else 200,
        n_neighbors=4,
        message_bytes=kib(4),
    )
    job = JobPlan("nn", nearest_neighbor_benchmark, n_ranks, params, placement)
    return Plan("sparse_64k", n_nodes, [job])


def _job_mix(rng: random.Random, tiny: bool) -> Plan:
    scale = 4 if tiny else 1
    sage_steps = 16 // scale
    loops = 50 // scale
    kinds = [
        ("sage", sage, 16 // scale,
         dict(steps=sage_steps, step_compute=ms(5), boundary_bytes=kib(128))),
        ("sweep3d", sweep3d_blocking, 16 // scale,
         dict(octants=8, kblocks=1 if tiny else 2, step_compute=ms(1))),
        ("barrier", barrier_benchmark, 8 // scale,
         dict(granularity=ms(1), iterations=loops)),
        ("nn", nearest_neighbor_benchmark, 16 // scale,
         dict(granularity=ms(1), iterations=loops, message_bytes=kib(4))),
    ]
    n_nodes = 64 // scale
    free = list(range(n_nodes))
    rng.shuffle(free)
    jobs = []
    for copy in range(2):
        for name, app, n_ranks, params in kinds:
            params = dict(params)
            if "iterations" in params:
                params["jitter"] = rng.uniform(0.02, 0.08)
            nodes, free = free[: n_ranks // 2], free[n_ranks // 2:]
            jobs.append(
                JobPlan(
                    f"{name}.{copy}",
                    app,
                    n_ranks,
                    params,
                    _paired(nodes, n_ranks),
                    offset=rng.randrange(ms(4)),
                    expect=sage_dt(n_ranks, params["steps"]) if app is sage else None,
                )
            )
    jobs.sort(key=lambda j: j.offset)
    jobs[0].offset = 0
    return Plan("job_mix", n_nodes, jobs)


_BUILDERS = {"nn_dense": _nn_dense, "sparse_64k": _sparse_64k, "job_mix": _job_mix}
WORKLOADS = tuple(_BUILDERS)


def make_plan(workload: str, seed: int, tiny: bool = False) -> Plan:
    """The seeded inputs of ``workload`` (``tiny`` for smoke tests)."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"), tiny)


@dataclass
class Outcome:
    """What one run produced, and every check it failed."""

    makespan: int
    counters: Dict[str, int]
    rank_slices: float
    #: Every job of the plan, by name.
    job_names: List[str]
    #: Names of jobs that failed a check.
    failed_jobs: set = field(default_factory=set)
    #: One line per failed check: workload, job, check, expected, observed.
    failures: List[str] = field(default_factory=list)

    def fail(self, workload: str, job: str, check: str, expected, observed) -> None:
        """Record a failed check (``job='*'`` fails every job of the run)."""
        self.failures.append(
            f"{workload} job={job} check={check} expected={expected!r} "
            f"observed={observed!r}"
        )
        self.failed_jobs.update(self.job_names if job == "*" else [job])

    @property
    def signature(self) -> dict:
        """The exact values that must repeat for a seed."""
        return {"makespan_ns": self.makespan, "counters": self.counters}


class Run:
    """One simulation of a :class:`Plan` on a fresh machine.

    :meth:`launch` is the last step of set-up (jobs arriving at offset 0
    start, the rest are released by an arrival process); :meth:`run`
    is the timed region's simulation; :meth:`outcome` checks results.
    """

    def __init__(self, plan: Plan, obs=None):
        self.plan = plan
        self.cluster = Cluster(ClusterSpec(n_nodes=plan.n_nodes))
        self.runtime = BcsRuntime(self.cluster, BcsConfig(init_cost=0))
        if obs is not None:
            self.runtime.attach_observability(obs)
        self.env = self.cluster.env
        self.jobs: list = []
        self._arrivals = None
        self.error: Optional[BaseException] = None

    def _launch(self, jp: JobPlan) -> None:
        spec = JobSpec(app=jp.app, n_ranks=jp.n_ranks, name=jp.name, params=jp.params)
        self.jobs.append(self.runtime.launch(spec, jp.placement))

    def launch(self) -> None:
        """Start the jobs due at time 0 and the arrival process for the rest."""
        jobs = sorted(self.plan.jobs, key=lambda jp: jp.offset)
        for jp in jobs:
            if jp.offset == 0:
                self._launch(jp)
        later = [jp for jp in jobs if jp.offset > 0]
        self._arrivals = self.env.process(self._arrive(later), name="arrivals")

    def _arrive(self, later: List[JobPlan]):
        env = self.env
        for jp in later:
            yield env.timeout(jp.offset - env.now)
            self._launch(jp)
        yield env.all_of([job.done for job in self.jobs])

    def run(self) -> None:
        """Simulate until every job is done (or the watchdog fires)."""
        env = self.env
        try:
            env.run(until=env.any_of([self._arrivals, env.timeout(MAX_VIRTUAL)]))
        except Exception as exc:  # a simulated failure is a failed run, not a crash
            self.error = exc

    def outcome(self) -> Outcome:
        """Makespan, counters and the per-job output checks."""
        jobs = self.jobs
        stats = self.runtime.stats
        done = [j for j in jobs if j.complete]
        makespan = max((j.finished_at for j in done), default=0)
        rank_slices = sum(
            j.n_ranks * j.runtime for j in done
        ) / self.runtime.config.timeslice
        out = Outcome(
            makespan=makespan,
            counters={k: int(stats[k]) for k in COUNTERS},
            rank_slices=rank_slices,
            job_names=[jp.name for jp in self.plan.jobs],
        )
        name = self.plan.workload
        if self.error is not None:
            out.fail(name, "*", "simulation", "no exception", repr(self.error))
        launched = {j.spec.name: j for j in jobs}
        for jp in self.plan.jobs:
            job = launched.get(jp.name)
            if job is None or not job.complete:
                out.fail(name, jp.name, "completes", "complete", "unfinished")
                continue
            if jp.expect is not None:
                bad = [r for r in job.results if r != jp.expect]
                if bad:
                    out.fail(name, jp.name, "sage_dt", jp.expect, bad[0])
        return out
