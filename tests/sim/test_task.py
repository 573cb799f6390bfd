"""Unit tests for generator-based tasks."""

import pytest

from repro.errors import SimulationError, TaskFailed
from repro.sim import AllOf, Simulator, all_done


def test_task_runs_and_returns_value():
    sim = Simulator()

    def worker():
        yield sim.timeout(100)
        return 42

    task = sim.spawn(worker())
    sim.run()
    assert task.done
    assert task.result == 42
    assert sim.now == 100


def test_yield_from_composes():
    sim = Simulator()

    def inner():
        yield sim.timeout(10)
        return "inner"

    def outer():
        value = yield from inner()
        yield sim.timeout(5)
        return value + "-outer"

    task = sim.spawn(outer())
    sim.run()
    assert task.result == "inner-outer"
    assert sim.now == 15


def test_join_returns_result():
    sim = Simulator()

    def producer():
        yield sim.timeout(50)
        return "data"

    def consumer(prod):
        value = yield prod.join()
        return value.upper()

    prod = sim.spawn(producer())
    cons = sim.spawn(consumer(prod))
    sim.run()
    assert cons.result == "DATA"


def test_join_already_finished_task():
    sim = Simulator()

    def quick():
        return "done"
        yield  # pragma: no cover

    def late(q):
        yield sim.timeout(100)
        value = yield q.join()
        return value

    q = sim.spawn(quick())
    waiter = sim.spawn(late(q))
    sim.run()
    assert waiter.result == "done"


def test_unjoined_failure_raises_task_failed():
    sim = Simulator()

    def boom():
        yield sim.timeout(10)
        raise ValueError("kaput")

    sim.spawn(boom())
    with pytest.raises(TaskFailed) as excinfo:
        sim.run()
    assert isinstance(excinfo.value.__cause__, ValueError)


def test_daemon_failure_is_recorded_not_raised():
    sim = Simulator()

    def boom():
        yield sim.timeout(10)
        raise ValueError("kaput")

    task = sim.spawn(boom(), daemon=True)
    sim.run()
    assert task.done
    assert isinstance(task.error, ValueError)


def test_joiner_receives_exception():
    sim = Simulator()

    def boom():
        yield sim.timeout(10)
        raise KeyError("gone")

    def watcher(b):
        try:
            yield b.join()
        except KeyError:
            return "caught"
        return "missed"

    b = sim.spawn(boom())
    w = sim.spawn(watcher(b))
    sim.run()
    assert w.result == "caught"


def test_yielding_non_waitable_fails_task():
    sim = Simulator()

    def bad():
        yield 17

    sim.spawn(bad())
    with pytest.raises(TaskFailed):
        sim.run()


def test_spawn_rejects_non_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.spawn(lambda: None)


def test_cancel_stops_task():
    sim = Simulator()
    progress = []

    def worker():
        for i in range(10):
            yield sim.timeout(10)
            progress.append(i)

    task = sim.spawn(worker())
    sim.run(until=35)
    task.cancel()
    sim.run()
    assert progress == [0, 1, 2]
    assert task.done


def test_all_of_gathers_results_in_order():
    sim = Simulator()

    def worker(delay, value):
        yield sim.timeout(delay)
        return value

    def main():
        tasks = [
            sim.spawn(worker(30, "a")),
            sim.spawn(worker(10, "b")),
            sim.spawn(worker(20, "c")),
        ]
        results = yield AllOf(tasks)
        return results

    m = sim.spawn(main())
    sim.run()
    assert m.result == ["a", "b", "c"]
    assert sim.now == 30


def test_all_of_propagates_failure():
    sim = Simulator()

    def ok():
        yield sim.timeout(5)

    def bad():
        yield sim.timeout(1)
        raise RuntimeError("nope")

    def main():
        tasks = [sim.spawn(ok()), sim.spawn(bad())]
        try:
            yield AllOf(tasks)
        except RuntimeError:
            return "failed"
        return "ok"

    m = sim.spawn(main())
    sim.run()
    assert m.result == "failed"


def test_task_name_defaults():
    sim = Simulator()

    def my_worker():
        yield sim.timeout(1)

    task = sim.spawn(my_worker(), name="explicit")
    assert task.name == "explicit"
    sim.run()


def test_current_task_visible_during_step():
    sim = Simulator()
    seen = []

    def worker():
        seen.append(sim.current_task)
        yield sim.timeout(1)
        seen.append(sim.current_task)

    task = sim.spawn(worker())
    sim.run()
    assert seen == [task, task]
    assert sim.current_task is None


@pytest.mark.parametrize("delays", [(30, 10, 20), (10, 20, 30), (30, 20, 10), ()])
def test_all_done_turns_true_exactly_when_the_last_task_finishes(delays):
    sim = Simulator()

    def worker(delay):
        yield sim.timeout(delay)

    tasks = [sim.spawn(worker(d)) for d in delays]
    sim.spawn(worker(100))  # outlives the group
    predicate = all_done(tasks)
    sim.run_until(predicate)
    assert all(t.done for t in tasks)
    assert sim.now == max(delays, default=0)
    assert predicate()
