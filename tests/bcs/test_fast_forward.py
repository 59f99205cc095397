"""Idle-slice fast-forward: wall-clock only, never virtual time.

Every test here runs the same workload on the fast path with idle
skipping on and off — a registered no-op slice hook turns it off — and
asserts that everything observable from inside the simulation —
virtual runtimes, slice counters, telemetry output — is identical.
"""

from types import SimpleNamespace

import pytest

from repro.apps.sage import sage
from repro.apps.synthetic import barrier_benchmark
from repro.bcs import BcsConfig, BcsRuntime, HashMatcher, LinearMatcher
from repro.harness.runner import nodes_for
from repro.network import Cluster, ClusterSpec
from repro.obs import Observability
from repro.storm import JobSpec
from repro.units import ms, seconds, us

WORKLOADS = {
    "sage": (sage, 4, dict(steps=3, step_compute=ms(40))),
    "barrier": (barrier_benchmark, 4, dict(iterations=5, granularity=ms(3))),
}


def _run(name, fast_forward, reference=False, obs=None):
    app, n_ranks, params = WORKLOADS[name]
    runtime = BcsRuntime(
        Cluster(ClusterSpec(n_nodes=nodes_for(n_ranks))),
        BcsConfig(reference=reference),
    )
    if obs is not None:
        runtime.attach_observability(obs)
    if not fast_forward:
        runtime.on_slice_start.append(lambda s: None)
    job = runtime.run_job(
        JobSpec(app=app, n_ranks=n_ranks, name=name, params=params),
        max_time=seconds(30),
    )
    return SimpleNamespace(runtime_ns=job.runtime, stats=runtime.stats)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_virtual_time_and_stats_identical(name):
    on = _run(name, True)
    off = _run(name, False)
    assert on.runtime_ns == off.runtime_ns
    stats_on = dict(on.stats)
    skipped = stats_on.pop("idle_slices_skipped", 0)
    stats_off = dict(off.stats)
    assert stats_off.pop("idle_slices_skipped", 0) == 0
    assert stats_on == stats_off
    # The init_cost alone guarantees a long idle stretch to skip.
    assert skipped > 0


@pytest.mark.parametrize("matcher", ["hash", "linear"])
def test_matcher_choice_preserves_virtual_time(matcher):
    """The matcher comes with the path: ``hash`` is the fast path,
    ``linear`` the reference, which never skips an idle slice."""
    ref = _run("sage", True)
    got = _run("sage", True, reference=matcher == "linear")
    assert got.runtime_ns == ref.runtime_ns
    if matcher == "linear":
        assert got.stats["idle_slices_skipped"] == 0


def test_observability_output_identical():
    """Metric registry and Perfetto trace don't depend on fast-forward."""
    obs_on = Observability()
    obs_off = Observability()
    on = _run("sage", True, obs=obs_on)
    off = _run("sage", False, obs=obs_off)
    assert on.runtime_ns == off.runtime_ns
    assert obs_on.registry.snapshot() == obs_off.registry.snapshot()
    assert obs_on.perfetto.to_dict() == obs_off.perfetto.to_dict()


def test_matcher_gauges_exported():
    obs = Observability()
    _run("sage", True, obs=obs)
    snap = obs.registry.snapshot()
    assert "bcs.match.unexpected" in snap
    assert "bcs.match.posted" in snap


def test_hooks_disable_fast_forward():
    """A registered slice hook forces every boundary to run for real."""
    cluster = Cluster(ClusterSpec(n_nodes=2))
    runtime = BcsRuntime(cluster, BcsConfig(init_cost=0))
    calls = []
    runtime.on_slice_start.append(lambda s: calls.append(s))

    def app(ctx):
        yield from ctx.compute(us(5100))

    runtime.run_job(JobSpec(app=app, n_ranks=2), max_time=seconds(5))
    assert runtime.stats["idle_slices_skipped"] == 0
    assert len(calls) == runtime.stats["slices"]
    assert calls == list(range(1, len(calls) + 1))


def test_fast_forward_skips_only_provably_idle_slices():
    """Slice counters agree with the non-skipping run, and the skipped
    portion is strictly idle."""
    on = _run("sage", True)
    off = _run("sage", False)
    assert on.stats["slices"] == off.stats["slices"]
    assert on.stats["active_slices"] == off.stats["active_slices"]
    assert on.stats["idle_slices_skipped"] <= (
        on.stats["slices"] - on.stats["active_slices"]
    )


def test_config_selects_matcher_class():
    """``reference=True`` builds ``LinearMatcher``; the default hashes."""
    cluster = Cluster(ClusterSpec(n_nodes=2))
    runtime = BcsRuntime(cluster, BcsConfig(reference=True))
    assert isinstance(runtime.node_runtimes[0].matcher, LinearMatcher)
    cluster2 = Cluster(ClusterSpec(n_nodes=2))
    runtime2 = BcsRuntime(cluster2, BcsConfig())
    assert isinstance(runtime2.node_runtimes[0].matcher, HashMatcher)
