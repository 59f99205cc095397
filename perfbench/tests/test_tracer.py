"""The tracer: pass-through generators and exact self-time arithmetic."""

import time

import pytest

from perfbench.tracer import Tracer
from repro.sim import Engine
from repro.sim.errors import Interrupt


class FakeClock:
    """A ``perf_counter_ns`` that moves only when told to."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(time, "perf_counter_ns", fake)
    return fake


def test_interrupt_is_forwarded_into_wrapped_process():
    env = Engine()
    tracer = Tracer()
    seen = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt as intr:
            seen.append((env.now, intr.cause))
        yield env.timeout(5)
        return "done"

    proc = env.process(tracer.timed_generator(victim(), tracer.site("victim", "apps")))

    def killer():
        yield env.timeout(10)
        proc.interrupt("node failure")

    env.process(killer())
    assert env.run(until=proc) == "done"
    assert seen == [(10, "node failure")]
    assert env.now == 15
    assert tracer.stack == []


def test_throw_and_close_reach_the_inner_generator():
    tracer = Tracer()
    log = []

    def inner():
        try:
            while True:
                try:
                    value = yield "ready"
                    log.append(("sent", value))
                except ValueError as exc:
                    log.append(("caught", str(exc)))
        finally:
            log.append("closed")

    wrapped = tracer.timed_generator(inner(), tracer.site("inner", "bcs.threads"))
    assert next(wrapped) == "ready"
    assert wrapped.send(7) == "ready"
    assert wrapped.throw(ValueError("boom")) == "ready"
    wrapped.close()
    assert log == [("sent", 7), ("caught", "boom"), "closed"]
    with pytest.raises(KeyError):
        failing = tracer.timed_generator(iter_raising(), tracer.site("raise", "apps"))
        next(failing)
    assert tracer.stack == []


def iter_raising():
    raise KeyError("propagates")
    yield


def test_child_time_is_subtracted_exactly_once(clock):
    tracer = Tracer()

    def leaf():
        clock.advance(5)

    def same_layer_inner():
        clock.advance(2)
        traced_leaf()

    def outer():
        clock.advance(10)
        traced_inner()
        clock.advance(3)

    traced_leaf = tracer.timed_function(leaf, tracer.site("leaf", "network.fabric"))
    traced_inner = tracer.timed_function(
        same_layer_inner, tracer.site("inner", "bcs.threads")
    )
    traced_outer = tracer.timed_function(outer, tracer.site("outer", "bcs.threads"))

    tracer.begin()
    clock.advance(1)
    traced_outer()
    clock.advance(4)
    tracer.end()

    assert tracer.wall_ns == 25
    assert tracer.self_ns["network.fabric"] == 5
    # outer: 20 long, minus the 7 covered by inner; inner: 7 minus its 5 leaf.
    assert tracer.self_ns["bcs.threads"] == 13 + 2
    assert tracer.sites["outer"].self_ns == 13
    assert tracer.sites["inner"].self_ns == 2
    assert tracer.self_ns["sim"] == 1 + 4
    assert sum(tracer.self_ns.values()) == tracer.wall_ns
    # One call crossed into bcs.threads and one into network.fabric.
    assert tracer.layers["bcs.threads"].calls == 1
    assert tracer.layers["network.fabric"].calls == 1


def test_generator_resumes_are_spans_of_their_site(clock):
    tracer = Tracer()

    def body():
        clock.advance(3)
        yield "a"
        clock.advance(4)
        traced_leaf()
        return "r"

    def leaf():
        clock.advance(6)

    traced_leaf = tracer.timed_function(leaf, tracer.site("leaf", "network.nic"))
    traced_body = tracer.timed_function(body, tracer.site("body", "bcs.threads"))
    tracer.begin()
    gen = traced_body()
    assert next(gen) == "a"
    clock.advance(100)  # suspended: not the generator's time
    with pytest.raises(StopIteration) as stop:
        next(gen)
    tracer.end()
    assert stop.value.value == "r"
    assert tracer.self_ns["bcs.threads"] == 7
    assert tracer.self_ns["network.nic"] == 6
    assert tracer.layers["bcs.threads"].resumes == 2
    assert tracer.self_ns["sim"] == 100


def test_install_restores_every_patched_attribute():
    before = Engine.__dict__["process"], Engine.__dict__["schedule"]
    with Tracer():
        assert Engine.__dict__["process"] is not before[0]
    assert (Engine.__dict__["process"], Engine.__dict__["schedule"]) == before
