"""Job queue with pluggable worker backends and retry-on-worker-death.

The execution plan in :mod:`repro.experiments.runner` used to drive a
:class:`~concurrent.futures.ProcessPoolExecutor` directly; this module puts a
queue abstraction in between so that

* in-process and multi-process execution share one API (and future backends
  — a distributed pool, an async gateway — can slot in without touching the
  planner);
* a worker process dying (OOM kill, segfault, machine pressure) retries the
  affected tasks on a fresh pool instead of aborting the whole sweep, and
  falls back to in-process execution once retries are exhausted — a sweep
  always makes progress;
* completed tasks are surfaced *as they finish* via ``on_result``, which is
  what lets the runner checkpoint shard results into the result store
  incrementally — the crash-resume guarantee needs results persisted before
  the sweep ends, not after.

Retrying is sound because every task in this repository is deterministic:
batch shards carry their per-trial seeds (exact mode) or their own spawned
fast seed (fast mode), so a re-executed task reproduces the same bits the
dead worker would have produced.

Tasks and the mapped function must be picklable for the process backend
(module-level functions over dataclass payloads — exactly what the runner
submits).
"""

from __future__ import annotations

import abc
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro import telemetry


def _task_name(
    task_labels: Optional[Sequence[str]], index: int
) -> str:
    """The runner's label for a task (a shard cell digest) or a fallback."""
    if task_labels is not None:
        return task_labels[index]
    return f"task[{index}]"

__all__ = [
    "JobQueue",
    "QueueStats",
    "WorkerBackend",
    "InProcessBackend",
    "ProcessPoolBackend",
    "WorkerPoolError",
]

#: Callback invoked as each task completes: ``on_result(task_index, result)``.
ResultCallback = Callable[[int, object], None]


class WorkerPoolError(RuntimeError):
    """Worker pool kept dying and retries are exhausted.

    Raised (instead of silently falling back to in-process execution) when
    the backend was built with ``in_process_fallback=False``.  The message
    names the tasks that were pending when the pool died for the last time
    — with the runner's labels these are the poisoned cell digests, which
    is the first thing needed to reproduce a worker-killing shard.
    """


@dataclass
class QueueStats:
    """Counters describing what a queue did (read by tests and the CLI)."""

    submitted: int = 0
    completed: int = 0
    worker_deaths: int = 0
    retried_tasks: int = 0
    in_process_fallbacks: int = 0


class WorkerBackend(abc.ABC):
    """Executes an ordered list of tasks; results come back in task order.

    ``collect=False`` turns the call into a pure streaming pass: every
    completion still fires ``on_result``, but the backend drops the result
    afterwards and returns an empty list — the memory-flat mode the
    streaming aggregation rides (holding every result of a 10⁵-task sweep
    just to discard it would defeat the point).
    """

    def __init__(self) -> None:
        self.stats = QueueStats()

    @abc.abstractmethod
    def run(
        self,
        fn: Callable[[object], object],
        tasks: Sequence[object],
        on_result: Optional[ResultCallback] = None,
        *,
        collect: bool = True,
        task_labels: Optional[Sequence[str]] = None,
    ) -> List[object]:
        """Apply ``fn`` to every task; ``on_result`` fires per completion.

        ``task_labels`` (same length as ``tasks``) gives each task a stable
        human-readable name — e.g. the runner's cell digests — used in
        terminal errors when a task cannot be completed.
        """


class InProcessBackend(WorkerBackend):
    """Run every task in the calling process, in order."""

    def run(
        self,
        fn: Callable[[object], object],
        tasks: Sequence[object],
        on_result: Optional[ResultCallback] = None,
        *,
        collect: bool = True,
        task_labels: Optional[Sequence[str]] = None,
    ) -> List[object]:
        tasks = list(tasks)
        self.stats.submitted += len(tasks)
        results: List[object] = []
        for index, task in enumerate(tasks):
            result = fn(task)
            if collect:
                results.append(result)
            self.stats.completed += 1
            if on_result is not None:
                on_result(index, result)
        return results


class ProcessPoolBackend(WorkerBackend):
    """Fan tasks out over worker processes, surviving worker death.

    A :class:`BrokenProcessPool` (a worker was killed, not a Python exception
    in the task — those propagate unchanged) marks every not-yet-completed
    task for retry on a freshly built pool, sleeping ``retry_backoff *
    2**(deaths - 1)`` seconds first so a machine under memory pressure gets
    room to recover.  After ``max_retries`` pool deaths the remaining tasks
    run in-process (a pathological environment degrades to serial execution
    instead of failing the sweep) — or, with ``in_process_fallback=False``,
    the run aborts with a :class:`WorkerPoolError` naming the poisoned
    tasks.
    """

    def __init__(
        self,
        max_workers: int,
        *,
        max_retries: int = 2,
        retry_backoff: float = 0.5,
        in_process_fallback: bool = True,
    ) -> None:
        super().__init__()
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff < 0:
            raise ValueError(f"retry_backoff must be >= 0, got {retry_backoff}")
        self.max_workers = int(max_workers)
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self.in_process_fallback = bool(in_process_fallback)

    def run(
        self,
        fn: Callable[[object], object],
        tasks: Sequence[object],
        on_result: Optional[ResultCallback] = None,
        *,
        collect: bool = True,
        task_labels: Optional[Sequence[str]] = None,
    ) -> List[object]:
        tasks = list(tasks)
        self.stats.submitted += len(tasks)
        results: List[object] = [None] * len(tasks) if collect else []
        done = [False] * len(tasks)
        pending = list(range(len(tasks)))
        deaths = 0
        while pending:
            if deaths > self.max_retries:
                if not self.in_process_fallback:
                    names = ", ".join(
                        _task_name(task_labels, index) for index in pending
                    )
                    telemetry.event(
                        "queue.poisoned",
                        deaths=deaths,
                        tasks=[
                            _task_name(task_labels, index) for index in pending
                        ],
                    )
                    raise WorkerPoolError(
                        f"worker pool died {deaths} times "
                        f"(max_retries={self.max_retries}); "
                        f"{len(pending)} task(s) poisoned: {names}"
                    )
                self.stats.in_process_fallbacks += len(pending)
                if telemetry.enabled():
                    telemetry.event(
                        "queue.fallback",
                        deaths=deaths,
                        tasks=[
                            _task_name(task_labels, index) for index in pending
                        ],
                    )
                    telemetry.counter_inc(
                        "queue.in_process_fallbacks", len(pending)
                    )
                for index in pending:
                    result = fn(tasks[index])
                    if collect:
                        results[index] = result
                    done[index] = True
                    self.stats.completed += 1
                    if on_result is not None:
                        on_result(index, result)
                pending = []
                break
            if deaths and self.retry_backoff > 0:
                time.sleep(self.retry_backoff * 2 ** (deaths - 1))
            broke = False
            try:
                with ProcessPoolExecutor(
                    max_workers=min(self.max_workers, len(pending))
                ) as pool:
                    futures = {
                        pool.submit(fn, tasks[index]): index for index in pending
                    }
                    remaining = set(futures)
                    while remaining:
                        finished, remaining = wait(
                            remaining, return_when=FIRST_COMPLETED
                        )
                        for future in finished:
                            index = futures[future]
                            result = future.result()
                            if collect:
                                results[index] = result
                            done[index] = True
                            self.stats.completed += 1
                            if on_result is not None:
                                on_result(index, result)
            except BrokenProcessPool:
                broke = True
            if broke:
                deaths += 1
                self.stats.worker_deaths += 1
                pending = [index for index in pending if not done[index]]
                self.stats.retried_tasks += len(pending)
                if telemetry.enabled():
                    # One death event, then one retry event per affected
                    # task (labelled with its shard cell digest) — the
                    # sequence a liveness monitor needs to attribute the
                    # blast radius of a killed worker.
                    telemetry.event(
                        "queue.worker_death",
                        deaths=deaths,
                        pending_tasks=len(pending),
                    )
                    telemetry.counter_inc("queue.worker_deaths")
                    will_retry_on_pool = deaths <= self.max_retries
                    backoff = (
                        self.retry_backoff * 2 ** (deaths - 1)
                        if will_retry_on_pool and self.retry_backoff > 0
                        else 0.0
                    )
                    for index in pending:
                        telemetry.event(
                            "queue.retry",
                            task=_task_name(task_labels, index),
                            attempt=deaths,
                            backoff_seconds=backoff,
                            on_pool=will_retry_on_pool,
                        )
                        telemetry.counter_inc("queue.retried_tasks")
            else:
                pending = []
        return results


class JobQueue:
    """Ordered task execution behind one API, whatever the backend."""

    def __init__(self, backend: Optional[WorkerBackend] = None) -> None:
        self.backend = backend if backend is not None else InProcessBackend()

    @classmethod
    def for_workers(cls, workers: int) -> "JobQueue":
        """An in-process queue for one worker, a process pool otherwise."""
        if workers <= 1:
            return cls(InProcessBackend())
        return cls(ProcessPoolBackend(workers))

    @property
    def stats(self) -> QueueStats:
        """The backend's execution counters."""
        return self.backend.stats

    @property
    def in_process(self) -> bool:
        """Whether tasks run in the calling process.

        The continuous-batching path of the execution plan requires this:
        its refill loop feeds one live engine, which cannot span process
        boundaries.
        """
        return isinstance(self.backend, InProcessBackend)

    def run(
        self,
        fn: Callable[[object], object],
        tasks: Sequence[object],
        *,
        on_result: Optional[ResultCallback] = None,
        collect: bool = True,
        task_labels: Optional[Sequence[str]] = None,
    ) -> List[object]:
        """Apply ``fn`` to every task; returns results in task order.

        ``collect=False`` streams: ``on_result`` still fires once per task,
        but nothing is retained and the return value is an empty list.
        ``task_labels`` names tasks (e.g. cell digests) in terminal errors.
        """
        tasks = list(tasks)
        if task_labels is not None and len(task_labels) != len(tasks):
            raise ValueError(
                f"task_labels must have one entry per task "
                f"({len(tasks)}), got {len(task_labels)}"
            )
        return self.backend.run(
            fn, tasks, on_result, collect=collect, task_labels=task_labels
        )

    def __repr__(self) -> str:
        return f"JobQueue(backend={type(self.backend).__name__})"
