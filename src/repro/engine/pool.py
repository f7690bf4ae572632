"""A worker pool that outlives individual runs and survives breakage.

:class:`~repro.engine.parallel.ParallelRunner` used to hold a bare
``ProcessPoolExecutor`` with ad-hoc lifecycle rules: ``shutdown()`` left the
runner in an undefined state for later ``run()`` calls, and a worker crash
(``BrokenProcessPool``) silently poisoned the executor so every subsequent
run failed too.  :class:`WorkerPool` pins the rules down:

* **Lazy spawn, persistent reuse.**  Workers are spawned on first use and
  reused across every later ``run()`` -- warm workers keep their per-process
  trace memos and shared-memory attachments, which is where the substrate's
  cross-run wins come from.
* **Shutdown is a pause, not an end.**  ``shutdown()`` releases the
  processes; the next ``submit`` transparently respawns them.  A runner can
  therefore be used, shut down and used again without surprises.
* **Breakage is contained.**  ``mark_broken()`` (called by the runner when a
  task comes back with ``BrokenProcessPool``) discards the poisoned
  executor immediately -- without waiting on its corpse -- so no worker
  processes leak and the next use starts a fresh pool.
* **Context-manager support.**  ``with WorkerPool(n) as pool: ...``
  guarantees the processes are released on the way out, exceptions included.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only; imported when the pool spawns
    from concurrent.futures import Future, ProcessPoolExecutor


class WorkerPool:
    """A respawnable ``ProcessPoolExecutor`` facade.

    Parameters
    ----------
    max_workers:
        Worker processes to spawn when the pool is (re)created.
    """

    def __init__(self, max_workers: int) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = max_workers
        self._executor: Optional[ProcessPoolExecutor] = None
        #: How many times the pool has been (re)spawned -- observability for
        #: tests and the curious.
        self.spawn_count = 0

    @property
    def alive(self) -> bool:
        """Whether worker processes are currently allocated."""
        return self._executor is not None

    def executor(self) -> ProcessPoolExecutor:
        """The live executor, spawning the workers if needed."""
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(max_workers=self.max_workers)
            self.spawn_count += 1
        return self._executor

    def submit(self, fn, /, *args, **kwargs) -> Future:
        """Submit one task, respawning the pool first if it was released."""
        return self.executor().submit(fn, *args, **kwargs)

    def mark_broken(self) -> None:
        """Discard a poisoned executor (after ``BrokenProcessPool``).

        The executor is shut down without waiting -- its workers are already
        dead or dying -- and dropped, so the next :meth:`submit` starts a
        fresh pool instead of failing forever.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def shutdown(self, wait: bool = True) -> None:
        """Release the worker processes (a later :meth:`submit` respawns)."""
        if self._executor is not None:
            self._executor.shutdown(wait=wait)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "idle"
        return f"WorkerPool(max_workers={self.max_workers}, {state}, spawns={self.spawn_count})"
