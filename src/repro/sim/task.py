"""Generator-based simulated tasks.

A task is a Python generator that ``yield``\\ s :class:`Waitable` objects
(timeouts, events, lock acquisitions, CPU execution slots...).  Nested
simulated functions compose with ``yield from``, so only the leaves of
the call tree ever yield an actual waitable.

Example::

    def worker(sim):
        yield sim.timeout(us(10))
        yield from do_more_work(sim)
        return 42

    task = sim.spawn(worker(sim), name="worker")
    sim.run()
    assert task.result == 42

Failure semantics: an exception escaping a task is re-raised inside any
joiner.  If nobody is joining a non-daemon task, the exception propagates
out of :meth:`Simulator.run` wrapped in :class:`TaskFailed` — errors never
pass silently.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

from ..errors import SimulationError, TaskFailed
from .core import Simulator

__all__ = ["Waitable", "Timeout", "Task", "AllOf", "all_done"]


class Waitable:
    """Anything a task may ``yield``.

    Subclasses implement :meth:`_arm`, which is called exactly once with
    the yielding task; the waitable must eventually call
    ``task._resume(value)`` or ``task._throw(exc)``, or schedule
    ``task._step(None, None)`` itself as a CPU slot does.
    """

    __slots__ = ()

    def _arm(self, task: "Task") -> None:  # pragma: no cover - interface
        raise NotImplementedError


class Timeout(Waitable):
    """Fires after a fixed simulated delay."""

    __slots__ = ("_sim", "_delay")

    def __init__(self, sim: Simulator, delay: int):
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        self._sim = sim
        self._delay = delay

    def _arm(self, task: "Task") -> None:
        self._sim.call_after(self._delay, task._resume, None)


class Task(Waitable):
    """Drives a generator through the event loop.

    Yielding a task from another task joins it: the joiner resumes when
    the task finishes, receiving its return value (or its exception).
    """

    __slots__ = (
        "_sim",
        "_gen",
        "name",
        "daemon",
        "done",
        "result",
        "error",
        "_joiners",
        "_cancelled",
    )

    def __init__(
        self,
        sim: Simulator,
        generator,
        name: Optional[str] = None,
        daemon: bool = False,
    ):
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"spawn() needs a generator, got {type(generator).__name__}"
            )
        self._sim = sim
        self._gen = generator
        self.name = name or getattr(generator, "__name__", "task")
        self.daemon = daemon
        self.done = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._joiners: List["Task"] = []
        self._cancelled = False
        sim.call_after(0, self._step, None, None)

    # -- public ------------------------------------------------------------

    def join(self) -> "Task":
        """Waitable alias: ``yield task.join()`` reads naturally."""
        return self

    def cancel(self) -> None:
        """Stop the task by throwing GeneratorExit at its next step."""
        self._cancelled = True

    # -- Waitable ----------------------------------------------------------

    def _arm(self, task: "Task") -> None:
        if self.done:
            if self.error is not None:
                task._throw(self.error)
            else:
                task._resume(self.result)
        else:
            self._joiners.append(task)

    # -- machinery -----------------------------------------------------------

    def _resume(self, value: Any) -> None:
        self._sim.call_after(0, self._step, value, None)

    def _throw(self, exc: BaseException) -> None:
        self._sim.call_after(0, self._step, None, exc)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        if self.done:
            return
        if self._cancelled:
            self._gen.close()
            self._finish(None, None)
            return
        prev = self._sim.current_task
        self._sim.current_task = self
        try:
            if exc is not None:
                item = self._gen.throw(exc)
            else:
                item = self._gen.send(value)
        except StopIteration as stop:
            self._finish(getattr(stop, "value", None), None)
            return
        except BaseException as err:  # noqa: BLE001 - must capture task failures
            self._finish(None, err)
            return
        finally:
            self._sim.current_task = prev
        if not isinstance(item, Waitable):
            self._finish(
                None,
                SimulationError(
                    f"task {self.name!r} yielded {type(item).__name__}, "
                    "expected a Waitable"
                ),
            )
            return
        item._arm(self)

    def _finish(self, result: Any, error: Optional[BaseException]) -> None:
        self.done = True
        self.result = result
        self.error = error
        joiners, self._joiners = self._joiners, []
        if error is not None and not joiners and not self.daemon:
            raise TaskFailed(self.name, repr(error)) from error
        for joiner in joiners:
            if error is not None:
                joiner._throw(error)
            else:
                joiner._resume(result)


def all_done(tasks: Iterable[Task]) -> Callable[[], bool]:
    """A ``run_until`` predicate: true once every task has finished.

    Amortised O(1) per call where ``all(t.done for t in tasks)`` is
    O(tasks): ``done`` never reverts, so finished tasks are popped off
    the tail of a pending list and never looked at again.
    """
    pending = list(tasks)

    def predicate() -> bool:
        while pending and pending[-1].done:
            pending.pop()
        return not pending

    return predicate


class AllOf(Waitable):
    """Resumes once every given task has finished.

    The resume value is the list of task results in the given order.
    If any task fails, the first failure (in completion order) is
    re-raised in the waiter.
    """

    __slots__ = ("_tasks",)

    def __init__(self, tasks: List[Task]):
        self._tasks = list(tasks)

    def _arm(self, task: Task) -> None:
        remaining = [t for t in self._tasks if not t.done]
        failed = next((t for t in self._tasks if t.done and t.error), None)
        if failed is not None:
            task._throw(failed.error)  # type: ignore[arg-type]
            return
        if not remaining:
            task._resume([t.result for t in self._tasks])
            return
        state = {"left": len(remaining), "delivered": False}

        def plant(target: Task) -> None:
            waiter = _Notify(state, self._tasks, task)
            target._joiners.append(waiter)

        for t in remaining:
            plant(t)


class _Notify(Task):
    """Internal joiner used by :class:`AllOf` (duck-typed, never stepped)."""

    def __init__(self, state, tasks, waiter):  # noqa: D401 - internal
        # Deliberately does NOT call Task.__init__; only _resume/_throw
        # are ever invoked on it, via the joined task's completion path.
        self._state = state
        self._tasks = tasks
        self._waiter = waiter

    def _resume(self, value: Any) -> None:
        self._state["left"] -= 1
        if self._state["left"] == 0 and not self._state["delivered"]:
            self._state["delivered"] = True
            self._waiter._resume([t.result for t in self._tasks])

    def _throw(self, exc: BaseException) -> None:
        if not self._state["delivered"]:
            self._state["delivered"] = True
            self._waiter._throw(exc)
