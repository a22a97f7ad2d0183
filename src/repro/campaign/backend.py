"""Pluggable campaign execution backends (the dispatch layer).

The robustness study is embarrassingly parallel: thousands of independent
``(graph, platform, heuristic, M)`` cases whose evaluations only meet at
aggregation time.  *Where* those cases run is therefore a policy, not a
property of the campaign — this module makes it one.

:class:`ExecutionBackend` is the protocol every execution strategy
implements:

* :meth:`~ExecutionBackend.submit` registers the pending work units as
  ``(suite_index, case)`` pairs (the index is the case's position in the
  full suite — the canonical fold order downstream aggregation relies on);
* :meth:`~ExecutionBackend.as_completed` yields ``(index, case, result)``
  triples as cases finish, in whatever order the backend completes them;
* :meth:`~ExecutionBackend.map` is the generic order-preserving fan-out
  primitive for work that is not :class:`CampaignCase`-shaped (e.g. the
  Figure 9 quadrant samplings).

Because every case derives its RNG stream from its own fields, **any**
backend produces bit-identical :class:`~repro.core.study.CaseResult`
objects and bit-identical cache artifacts; backends differ only in wall
clock and completion order (consumers needing a canonical order reorder by
``index`` — the aggregate layer does).

Implementations here:

* :class:`SerialBackend` — inline execution, case order, zero overhead;
* :class:`ProcessPoolBackend` — the historical ``ProcessPoolExecutor``
  fan-out: workers receive ``CampaignCase.to_dict()`` (plain JSON) and
  ship back the canonical result JSON, so only small payloads cross the
  process boundary.

:class:`~repro.campaign.queue.QueueBackend` (the file-based work queue:
shard manifests pulled by an elastic worker fleet, the multi-machine
pattern run locally) lives in :mod:`repro.campaign.queue` and satisfies
the same protocol.  Remote worker fleets are new implementations of this
protocol, not runner rewrites.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Protocol,
    Sequence,
    TypeVar,
    runtime_checkable,
)

from repro.campaign.spec import CampaignCase
from repro.core.study import CaseResult
from repro.io.json_io import case_result_from_json, case_result_to_json

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "get_backend",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Backend specifiers understood by :func:`get_backend` (and the CLI).
BACKEND_NAMES = ("serial", "process", "queue")


def _run_case_payload(case_dict: dict[str, Any]) -> str:
    """Worker entry point: evaluate one case, return its canonical JSON.

    Takes/returns plain JSON-compatible values so the pool pickles only
    small payloads.  The parent re-serializes the parsed result when it
    caches it; because the payload layout and float encoding are
    canonical, those bytes equal the worker's exactly (the cross-backend
    artifact byte-identity the test suite and CI assert).  This is the
    wire format the process pool ships across the process boundary.
    """
    case = CampaignCase.from_dict(case_dict)
    return case_result_to_json(case.run())


@runtime_checkable
class ExecutionBackend(Protocol):
    """Where and how a campaign's pending cases execute.

    A backend is handed the pending work once per campaign run via
    :meth:`submit` and then drained via :meth:`as_completed`; backends are
    reusable (each ``submit`` starts a fresh batch).  Yielded results must
    be bit-identical to ``case.run()`` in the parent process — the
    campaign determinism guarantee — but may arrive in any order.
    """

    name: str

    @property
    def workers(self) -> int:
        """Maximum concurrent workers this backend dispatches to."""
        ...  # pragma: no cover - protocol

    def submit(self, cases: Sequence[tuple[int, CampaignCase]]) -> None:
        """Register pending ``(suite_index, case)`` pairs for execution."""
        ...  # pragma: no cover - protocol

    def as_completed(self) -> Iterator[tuple[int, CampaignCase, CaseResult]]:
        """Yield ``(suite_index, case, result)`` as each case finishes."""
        ...  # pragma: no cover - protocol

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
        """Generic order-preserving map for non-case-shaped work."""
        ...  # pragma: no cover - protocol


class SerialBackend:
    """Inline execution in the calling process, in case order.

    The zero-overhead reference backend: no pickling, no subprocesses —
    every other backend must reproduce its results bit-for-bit.
    """

    name = "serial"
    workers = 1

    def __init__(self) -> None:
        self._pending: list[tuple[int, CampaignCase]] = []

    def submit(self, cases: Sequence[tuple[int, CampaignCase]]) -> None:
        """Register pending ``(suite_index, case)`` pairs."""
        self._pending = list(cases)

    def as_completed(self) -> Iterator[tuple[int, CampaignCase, CaseResult]]:
        """Run each case inline and yield it immediately."""
        pending, self._pending = self._pending, []
        for index, case in pending:
            yield index, case, case.run()

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
        """Plain in-process map."""
        return [fn(item) for item in items]


class ProcessPoolBackend:
    """``ProcessPoolExecutor`` fan-out (the historical ``jobs=N`` path).

    Cases cross the process boundary as ``CampaignCase.to_dict()`` JSON
    payloads and come back as canonical result JSON — the same wire format
    the artifact cache stores, so a pooled run's artifacts are
    byte-identical to a serial run's.  Single-case batches run inline (no
    pool spin-up for one unit of work).

    On a worker failure the batch's already-finished successes are yielded
    *before* the failure propagates, so a caching consumer persists them
    and a ``--resume`` re-run does not redo them.  An abandoned iterator
    (``GeneratorExit``) or Ctrl-C cancels the queued futures instead of
    draining them.
    """

    name = "process"

    def __init__(self, jobs: int = 2):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self._pending: list[tuple[int, CampaignCase]] = []

    @property
    def workers(self) -> int:
        """Worker process count."""
        return self.jobs

    def submit(self, cases: Sequence[tuple[int, CampaignCase]]) -> None:
        """Register pending ``(suite_index, case)`` pairs."""
        self._pending = list(cases)

    def as_completed(self) -> Iterator[tuple[int, CampaignCase, CaseResult]]:
        """Yield results in completion order across the pool."""
        pending, self._pending = self._pending, []
        if not pending:
            return
        if self.jobs <= 1 or len(pending) <= 1:
            for index, case in pending:
                yield index, case, case.run()
            return

        pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(pending)))
        futures = {
            pool.submit(_run_case_payload, case.to_dict()): (index, case)
            for index, case in pending
        }
        try:
            not_done = set(futures)
            while not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                failure: BaseException | None = None
                for fut in done:
                    error = fut.exception()
                    if error is not None:
                        failure = failure or error
                        continue
                    index, case = futures[fut]
                    yield index, case, case_result_from_json(fut.result())
                if failure is not None:
                    raise failure
        except BaseException:
            # Failure, abandoned consumer (GeneratorExit) or Ctrl-C:
            # cancel the queued futures instead of draining them.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown()

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
        """Order-preserving map, inline or across a process pool.

        ``fn`` must be picklable (module top-level) when ``jobs > 1``.
        """
        items = list(items)
        if self.jobs <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        with ProcessPoolExecutor(max_workers=min(self.jobs, len(items))) as pool:
            return list(pool.map(fn, items))


def get_backend(
    spec: "str | ExecutionBackend | None",
    jobs: int = 1,
    shards: int | None = None,
    queue_dir: "Any | None" = None,
    queue_config: "Any | None" = None,
) -> "ExecutionBackend":
    """Resolve a backend specifier into an :class:`ExecutionBackend`.

    ``spec`` may be an already-constructed backend (returned as-is), one
    of :data:`BACKEND_NAMES`, or ``None`` — the historical default policy:
    serial for ``jobs <= 1``, a process pool otherwise (which is what
    keeps every old ``jobs=`` call site working unchanged).

    ``shards``, ``queue_dir`` (a path) and ``queue_config`` (a
    :class:`repro.campaign.queue.QueueConfig`) apply only to the queue
    backend: ``shards`` sizes its partition (default: ``jobs`` when > 1,
    else 2), and a persistent queue directory enables shard-level resume
    and external workers joining the fleet.
    """
    if spec is None:
        return SerialBackend() if jobs <= 1 else ProcessPoolBackend(jobs)
    if not isinstance(spec, str):
        return spec
    if spec == "serial":
        return SerialBackend()
    if spec == "process":
        # An explicit jobs value is respected, including jobs=1 (a pool
        # of one runs its batch inline — same results, no pickling).
        return ProcessPoolBackend(jobs)
    if spec == "queue":
        # Imported lazily: queue.py builds on this module.
        from repro.campaign.queue import QueueBackend

        return QueueBackend(
            n_shards=shards or max(jobs, 2),
            jobs=jobs,
            queue_dir=queue_dir,
            config=queue_config,
        )
    raise ValueError(
        f"unknown backend {spec!r}; expected one of {', '.join(BACKEND_NAMES)}"
    )
