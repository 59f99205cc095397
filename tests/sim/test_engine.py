"""Unit tests for the DES engine and event primitives."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Deadlock,
    Engine,
    Event,
    EventAlreadyTriggered,
    Interrupt,
)


def test_timeout_advances_time():
    env = Engine()

    def body():
        yield env.timeout(10)
        yield env.timeout(5)
        return env.now

    proc = env.process(body())
    assert env.run(until=proc) == 15
    assert env.now == 15


def test_zero_timeout_runs_same_time():
    env = Engine()
    seen = []

    def body():
        yield env.timeout(0)
        seen.append(env.now)

    env.process(body())
    env.run()
    assert seen == [0]


def test_negative_timeout_rejected():
    env = Engine()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_process_return_value():
    env = Engine()

    def body():
        yield env.timeout(1)
        return "done"

    assert env.run(until=env.process(body())) == "done"


def test_events_fire_in_fifo_order_at_same_time():
    env = Engine()
    order = []

    def body(tag):
        yield env.timeout(7)
        order.append(tag)

    for tag in range(5):
        env.process(body(tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_time_stops_midway():
    env = Engine()
    hits = []

    def body():
        for _ in range(10):
            yield env.timeout(10)
            hits.append(env.now)

    env.process(body())
    env.run(until=35)
    assert hits == [10, 20, 30]
    assert env.now == 35


def test_run_until_past_time_raises():
    env = Engine()
    env.run(until=5)
    with pytest.raises(ValueError):
        env.run(until=3)


def test_event_succeed_once_only():
    env = Engine()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(EventAlreadyTriggered):
        ev.succeed(2)
    with pytest.raises(EventAlreadyTriggered):
        ev.fail(RuntimeError())


def test_event_value_propagates_to_process():
    env = Engine()
    ev = env.event()

    def waiter():
        got = yield ev
        return got

    def poker():
        yield env.timeout(3)
        ev.succeed("payload")

    proc = env.process(waiter())
    env.process(poker())
    assert env.run(until=proc) == "payload"
    assert env.now == 3


def test_failed_event_raises_in_process():
    env = Engine()
    ev = env.event()

    def waiter():
        try:
            yield ev
        except RuntimeError as exc:
            return f"caught:{exc}"

    def poker():
        yield env.timeout(1)
        ev.fail(RuntimeError("boom"))

    proc = env.process(waiter())
    env.process(poker())
    assert env.run(until=proc) == "caught:boom"


def test_unhandled_process_exception_propagates_through_run_until():
    env = Engine()

    def bad():
        yield env.timeout(1)
        raise ValueError("oops")

    proc = env.process(bad())
    with pytest.raises(ValueError, match="oops"):
        env.run(until=proc)


def test_unhandled_failure_without_waiters_crashes_run():
    env = Engine()

    def bad():
        yield env.timeout(1)
        raise ValueError("lost")

    env.process(bad())
    with pytest.raises(ValueError, match="lost"):
        env.run()


def test_yield_from_subgenerator():
    env = Engine()

    def sub():
        yield env.timeout(4)
        return 42

    def body():
        val = yield from sub()
        return val + env.now

    assert env.run(until=env.process(body())) == 46


def test_yielding_non_event_raises_inside_process():
    env = Engine()

    def bad():
        yield 5

    proc = env.process(bad())
    with pytest.raises(TypeError, match="must yield Event"):
        env.run(until=proc)


def test_process_waits_on_other_process():
    env = Engine()

    def child():
        yield env.timeout(9)
        return "child-value"

    def parent():
        val = yield env.process(child())
        return (val, env.now)

    assert env.run(until=env.process(parent())) == ("child-value", 9)


def test_waiting_on_finished_process_returns_immediately():
    env = Engine()

    def child():
        yield env.timeout(1)
        return 7

    def parent(cp):
        yield env.timeout(10)
        val = yield cp
        return (val, env.now)

    cp = env.process(child())
    assert env.run(until=env.process(parent(cp))) == (7, 10)


def test_all_of_collects_values():
    env = Engine()
    t1 = env.timeout(3, value="a")
    t2 = env.timeout(5, value="b")

    def body():
        got = yield AllOf(env, [t1, t2])
        return sorted(got.values()), env.now

    assert env.run(until=env.process(body())) == (["a", "b"], 5)


def test_any_of_fires_on_first():
    env = Engine()
    t1 = env.timeout(3, value="fast")
    t2 = env.timeout(50, value="slow")

    def body():
        got = yield AnyOf(env, [t1, t2])
        return list(got.values()), env.now

    assert env.run(until=env.process(body())) == (["fast"], 3)


def test_all_of_empty_triggers_immediately():
    env = Engine()

    def body():
        got = yield env.all_of([])
        return got

    assert env.run(until=env.process(body())) == {}


def test_condition_failure_propagates():
    env = Engine()
    ev = env.event()

    def body():
        with pytest.raises(RuntimeError):
            yield env.all_of([ev, env.timeout(100)])
        return "ok"

    def poker():
        yield env.timeout(1)
        ev.fail(RuntimeError("inner"))

    proc = env.process(body())
    env.process(poker())
    assert env.run(until=proc) == "ok"


def test_interrupt_wakes_blocked_process():
    env = Engine()

    def sleeper():
        try:
            yield env.timeout(1000)
            return "slept"
        except Interrupt as intr:
            return ("interrupted", intr.cause, env.now)

    def interrupter(victim):
        yield env.timeout(5)
        victim.interrupt("wakeup")

    victim = env.process(sleeper())
    env.process(interrupter(victim))
    assert env.run(until=victim) == ("interrupted", "wakeup", 5)


def test_interrupt_dead_process_raises():
    env = Engine()

    def quick():
        yield env.timeout(1)

    proc = env.process(quick())
    env.run()
    with pytest.raises(RuntimeError):
        proc.interrupt()


def test_run_until_event_deadlock_detected():
    env = Engine()
    never = env.event()

    def body():
        yield env.timeout(1)

    env.process(body())
    with pytest.raises(Deadlock):
        env.run(until=never)


def test_determinism_two_identical_runs():
    def run_once():
        env = Engine()
        log = []

        def worker(i):
            for k in range(3):
                yield env.timeout(7 * (i + 1))
                log.append((env.now, i, k))

        for i in range(4):
            env.process(worker(i))
        env.run()
        return log

    assert run_once() == run_once()


def test_peek_and_step():
    env = Engine()
    env.timeout(4)
    env.timeout(2)
    assert env.peek() == 2
    env.step()
    assert env.now == 2
    assert env.peek() == 4


def test_priority_orders_same_instant():
    env = Engine()
    order = []

    def make_cb(tag):
        def cb(_ev):
            order.append(tag)

        return cb

    low = env.event()
    high = env.event()
    low._ok = True
    low._value = None
    high._ok = True
    high._value = None
    low.callbacks.append(make_cb("low"))
    high.callbacks.append(make_cb("high"))
    env.schedule(low, delay=0, priority=5)
    env.schedule(high, delay=0, priority=1)
    env.run()
    assert order == ["high", "low"]


# -- Engine.due: the queued events due by an instant ------------------------------


def _processing_order(env):
    """Drain the engine, recording each event as :meth:`Engine.step` takes it."""
    seen = []
    while env.peek() is not None:
        seen.append((env.peek(), env._queue[0][3]))
        env.step()
    return seen


def test_due_yields_in_processing_order():
    env = Engine()
    events = [env.timeout(d) for d in (30, 10, 20, 10, 0, 25, 10, 5)]
    assert [e for _, e in env.due(30)] == [e for _, e in _processing_order(env)]
    assert len(events) == 8


def test_due_stops_at_the_instant_inclusive():
    env = Engine()
    early = [env.timeout(d) for d in (7, 3, 5)]
    at = env.timeout(10)
    late = [env.timeout(d) for d in (11, 40)]
    got = list(env.due(10))
    assert [t for t, _ in got] == [3, 5, 7, 10]
    assert [e for _, e in got] == [early[1], early[2], early[0], at]
    assert all(e not in {ev for _, ev in got} for e in late)
    assert list(env.due(2)) == []


def test_due_breaks_ties_by_priority_then_scheduling_order():
    env = Engine()
    first, second, urgent = Event(env), Event(env), Event(env)
    env.schedule(first, delay=4)
    env.schedule(second, delay=4)
    env.schedule(urgent, delay=4, priority=-1)
    assert [e for _, e in env.due(4)] == [urgent, first, second]


def test_due_includes_inert_events_and_leaves_the_queue_alone():
    env = Engine()
    inert = env.timeout(3)  # nobody waits on it: empty callbacks
    seen = []

    def body():
        yield env.timeout(3)
        seen.append(env.now)

    env.process(body())
    before = list(env._queue)
    got = list(env.due(3))
    assert env._queue == before
    assert inert in [e for _, e in got]
    assert [e.callbacks for _, e in got if e is inert] == [[]]
    env.run()
    assert seen == [3]


def test_due_on_an_empty_queue():
    assert list(Engine().due(100)) == []
