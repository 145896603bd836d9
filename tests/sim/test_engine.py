"""Discrete-event kernel tests."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine


class TestTimeouts:
    def test_timeout_advances_clock(self):
        engine = Engine()
        log = []

        def proc(engine):
            yield engine.timeout(1.5)
            log.append(engine.now)
            yield engine.timeout(2.5)
            log.append(engine.now)

        engine.process(proc(engine))
        engine.run()
        assert log == [1.5, 4.0]

    def test_timeout_carries_value(self):
        engine = Engine()
        seen = []

        def proc(engine):
            value = yield engine.timeout(1.0, value="payload")
            seen.append(value)

        engine.process(proc(engine))
        engine.run()
        assert seen == ["payload"]

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.timeout(-1.0)

    def test_zero_delay_runs_in_order(self):
        engine = Engine()
        order = []

        def a(engine):
            yield engine.timeout(0.0)
            order.append("a")

        def b(engine):
            yield engine.timeout(0.0)
            order.append("b")

        engine.process(a(engine))
        engine.process(b(engine))
        engine.run()
        assert order == ["a", "b"]  # FIFO among simultaneous events


class TestEvents:
    def test_event_wakes_waiter(self):
        engine = Engine()
        done = engine.event()
        seen = []

        def waiter(engine):
            value = yield done
            seen.append((engine.now, value))

        def trigger(engine):
            yield engine.timeout(3.0)
            done.succeed("ready")

        engine.process(waiter(engine))
        engine.process(trigger(engine))
        engine.run()
        assert seen == [(3.0, "ready")]

    def test_event_fires_once(self):
        engine = Engine()
        event = engine.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_failed_event_raises_in_process(self):
        engine = Engine()
        event = engine.event()
        caught = []

        def waiter(engine):
            try:
                yield event
            except RuntimeError as exc:
                caught.append(str(exc))

        def failer(engine):
            yield engine.timeout(1.0)
            event.fail(RuntimeError("boom"))

        engine.process(waiter(engine))
        engine.process(failer(engine))
        engine.run()
        assert caught == ["boom"]

    def test_unwaited_failure_surfaces(self):
        engine = Engine()
        event = engine.event()
        event.fail(RuntimeError("lost"))
        with pytest.raises(RuntimeError, match="lost"):
            engine.run()

    def test_yield_on_already_processed_event(self):
        engine = Engine()
        ready = engine.event()
        ready.succeed("early")
        engine.run()
        seen = []

        def late(engine):
            value = yield ready
            seen.append(value)

        engine.process(late(engine))
        engine.run()
        assert seen == ["early"]

    def test_value_before_trigger_raises(self):
        engine = Engine()
        event = engine.event()
        with pytest.raises(SimulationError):
            event.value
        with pytest.raises(SimulationError):
            event.ok


class TestProcesses:
    def test_process_is_waitable_with_return_value(self):
        engine = Engine()

        def child(engine):
            yield engine.timeout(2.0)
            return 42

        results = []

        def parent(engine):
            result = yield engine.process(child(engine))
            results.append((engine.now, result))

        engine.process(parent(engine))
        engine.run()
        assert results == [(2.0, 42)]

    def test_yielding_non_event_is_error(self):
        engine = Engine()

        def bad(engine):
            yield 1.5  # must yield events, not floats

        engine.process(bad(engine))
        with pytest.raises(SimulationError, match="must yield events"):
            engine.run()

    def test_non_generator_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.process(lambda: None)

    def test_is_alive(self):
        engine = Engine()

        def quick(engine):
            yield engine.timeout(1.0)

        proc = engine.process(quick(engine))
        assert proc.is_alive
        engine.run()
        assert not proc.is_alive


class TestRun:
    def test_run_until_time(self):
        engine = Engine()
        log = []

        def ticker(engine):
            while True:
                yield engine.timeout(1.0)
                log.append(engine.now)

        engine.process(ticker(engine))
        engine.run(until=3.5)
        assert log == [1.0, 2.0, 3.0]
        assert engine.now == 3.5

    def test_run_until_event(self):
        engine = Engine()
        done = engine.event()

        def proc(engine):
            yield engine.timeout(2.0)
            done.succeed()
            yield engine.timeout(50.0)

        engine.process(proc(engine))
        engine.run(until=done)
        assert engine.now == 2.0

    def test_run_until_event_never_fires(self):
        engine = Engine()
        orphan = engine.event()
        with pytest.raises(SimulationError):
            engine.run(until=orphan)

    def test_run_backwards_rejected(self):
        engine = Engine()
        engine.timeout(1.0)
        engine.run(until=5.0)
        with pytest.raises(SimulationError):
            engine.run(until=1.0)

    def test_step_on_empty_calendar(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.step()


class TestCalendarCallbacks:
    def test_at_fires_at_exact_time(self):
        engine = Engine()
        fired = []
        engine.at(3.0, lambda: fired.append(engine.now))
        engine.run(until=2.0)
        assert fired == []
        engine.run(until=3.0)
        assert fired == [3.0]

    def test_at_boundary_visible_before_next_interval(self):
        # The fault-injector contract: an event scheduled exactly at a
        # round boundary k*L is applied during run(until=k*L), so state
        # is flipped before round k is dispatched.
        engine = Engine()
        state = []
        engine.at(5.0, lambda: state.append("flipped"))
        engine.run(until=5.0)
        assert state == ["flipped"]

    def test_at_orders_against_process_events(self):
        engine = Engine()
        order = []

        def proc(engine):
            order.append(("proc", engine.now))
            yield engine.timeout(1.0)
            order.append(("proc", engine.now))

        engine.process(proc(engine))
        engine.at(1.0, lambda: order.append(("at", engine.now)))
        engine.run()
        # Same instant: the process's resumption is re-enqueued when its
        # timeout fires, so the already-queued callback runs first --
        # state flips apply before work scheduled at the same time, the
        # ordering MediaServer relies on for boundary fault events.
        assert order == [("proc", 0.0), ("at", 1.0), ("proc", 1.0)]

    def test_at_rejects_nan(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.at(float("nan"), lambda: None)

    def test_at_in_the_past_runs_now(self):
        engine = Engine()
        engine.timeout(4.0)
        engine.run(until=4.0)
        fired = []
        engine.at(1.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [4.0]

    def test_at_event_can_be_awaited(self):
        engine = Engine()
        seen = []

        def proc(engine, event):
            yield event
            seen.append(engine.now)

        event = engine.at(2.5, lambda: None)
        engine.process(proc(engine, event))
        engine.run()
        assert seen == [2.5]
