"""Span tracer for the benchmark's traced run.

Nothing inside ``src/`` is instrumented.  :func:`instrument` wraps the
public calls into each layer of the program from the outside (module
functions, class methods, generator functions) and records one span per
call: name, start, end, parent span and thread.  Counters are recorded
at the same boundaries.  Everything stays in memory until the run ends;
:meth:`Tracer.layer_times` turns the spans into per-layer self times.

A span's name is ``<layer>.<operation>``; the layer is the ``repro``
package the wrapped call belongs to (``bench`` for the benchmark's own
root spans).  A span's self time is its duration minus the durations of
its direct children, so the self times of one thread's span tree sum to
the root span's duration.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = ["Tracer", "instrument"]


class Tracer:
    """In-memory span and counter recorder, shared by every thread."""

    def __init__(self) -> None:
        #: ``(span id, parent id or None, name, start, end, thread id)``
        self.spans: list[tuple[int, int | None, str, float, float, int]] = []
        self.counters: Counter[str] = Counter()
        #: Named event timestamps (e.g. enqueue and landing per case key).
        self.marks: dict[str, dict[str, float]] = defaultdict(dict)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------ #

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the ``with`` body."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(
                (sid, parent, name, t0, t1, threading.get_ident())
            )

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` (thread-safe)."""
        with self._lock:
            self.counters[name] += n

    # -- patching ------------------------------------------------------- #

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def spanned(
        self,
        fn: Callable,
        name: str,
        after: "Callable[[tuple, Any], None] | None" = None,
    ) -> Callable:
        """``fn`` with a span around each call.

        ``after(args, result)`` runs outside the span, so what it costs is
        not charged to the layer.
        """
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: "Callable[[tuple, Any], None] | None" = None,
    ) -> None:
        """Replace ``owner.attr`` with a spanned wrapper."""
        self._set(owner, attr, self.spanned(getattr(owner, attr), name, after))

    def wrap_everywhere(
        self,
        func: Callable,
        name: str,
        after: "Callable[[tuple, Any], None] | None" = None,
    ) -> None:
        """Wrap a module-level function in every ``repro`` module holding it.

        Functions imported by name (``from repro.io.json_io import
        canonical_json``) are module globals of the importer, so each
        reference is replaced, not only the defining module's.
        """
        wrapper = self.spanned(func, name, after)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._set(module, attr, wrapper)

    def wrap_iter(self, owner: Any, attr: str, name: str) -> None:
        """Wrap a generator function: one span per item produced."""
        original = getattr(owner, attr)
        span = self.span

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            it = iter(original(*args, **kwargs))
            try:
                while True:
                    with span(name):
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    yield item
            finally:
                close = getattr(it, "close", None)
                if close is not None:
                    close()

        self._set(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------- #

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: ``(calls, total seconds, self seconds)``."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, t0, t1, _ in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, _, name, t0, t1, _ in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child_time.get(sid, 0.0)
        return {k: (int(v[0]), v[1], v[2]) for k, v in out.items()}

    def layer_times(self) -> dict[str, float]:
        """Self seconds per layer (the span-name prefix)."""
        layers: dict[str, float] = defaultdict(float)
        for name, (_, _, self_s) in self.self_times().items():
            layers[name.split(".", 1)[0]] += self_s
        return dict(layers)

    def durations(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in record order."""
        return [t1 - t0 for _, _, n, t0, t1, _ in self.spans if n == name]

    def to_payload(self) -> dict:
        """Spans and counters as one JSON-ready dict."""
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        base = min((s[3] for s in self.spans), default=0.0)
        threads = {t: i for i, t in enumerate(dict.fromkeys(s[5] for s in self.spans))}
        return {
            "format": "perfbench-trace-v1",
            "span_fields": ["id", "parent", "name", "start_us", "end_us", "thread"],
            "names": names,
            "spans": [
                [
                    sid,
                    parent,
                    index[name],
                    round((t0 - base) * 1e6, 1),
                    round((t1 - base) * 1e6, 1),
                    threads[tid],
                ]
                for sid, parent, name, t0, t1, tid in self.spans
            ],
            "counters": dict(sorted(self.counters.items())),
        }


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark measures.

    Call :meth:`Tracer.restore` to remove the wrappers.  The engine
    counters (``stochastic.*``) are read through the public
    :attr:`BatchedGridEngine.stats` property around each call.
    """
    import repro.core.metrics as core_metrics
    import repro.core.study as study
    import repro.campaign.spec as campaign_spec
    from repro.campaign.aggregate import SuiteAggregator
    from repro.campaign.cache import ArtifactCache
    from repro.campaign.queue import WorkQueue
    from repro.caseset import sets as caseset_sets
    from repro.core.panel import MetricPanel
    from repro.io import json_io
    from repro.service.admission import AdmissionGate
    from repro.service.server import RobustnessService, SweepStream
    from repro.stochastic.batch import BatchedGridEngine

    t = tracer

    # repro.stochastic: batched engine steps, with memo accounting.
    def engine_step(attr: str, memo_key: str, operands: Callable, asked: Callable) -> None:
        original = getattr(BatchedGridEngine, attr)
        name = f"stochastic.{attr}"

        @functools.wraps(original)
        def wrapper(self: Any, items: Any) -> Any:
            before = self.stats[memo_key]
            with t.span(name):
                result = original(self, items)
            requested = asked(items)
            t.count(f"{name}_calls")
            t.count(f"{name}_operands", operands(items))
            t.count("stochastic.memo_requested", requested)
            t.count(
                "stochastic.memo_served",
                requested - (self.stats[memo_key] - before),
            )
            return result

        t._set(BatchedGridEngine, attr, wrapper)

    engine_step(
        "add_pairs",
        "add_memo",
        lambda pairs: 2 * len(pairs),
        lambda pairs: sum(1 for a, b in pairs if not (a.is_point or b.is_point)),
    )
    engine_step(
        "max_groups", "max_memo", lambda groups: sum(map(len, groups)), len
    )

    # Engines live for one case; sum their stats when the case ends.
    engines: list[Any] = []
    init = BatchedGridEngine.__init__

    @functools.wraps(init)
    def engine_init(self: Any, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        engines.append(self)

    t._set(BatchedGridEngine, "__init__", engine_init)
    evaluate = study.evaluate_case

    @functools.wraps(evaluate)
    def evaluate_case(*args: Any, **kwargs: Any) -> Any:
        with t.span("core.evaluate_case"):
            result = evaluate(*args, **kwargs)
        while engines:
            stats = engines.pop().stats
            for key in ("value_pool", "conv_capped", "fft_convs"):
                t.count(f"stochastic.{key}", stats[key])
        return result

    t._set(study, "evaluate_case", evaluate_case)

    # repro.analysis / repro.core / repro.schedule / repro.platform
    t.wrap(core_metrics, "classical_makespan", "analysis.classical_makespan")
    t.wrap(core_metrics, "metrics_from_rv", "core.metrics_from_rv")
    t.wrap(MetricPanel, "pearson", "core.pearson")
    t.wrap_iter(study, "random_schedules", "schedule.random")
    t._set(
        study,
        "ALL_HEURISTICS",
        {
            name: t.spanned(fn, "schedule.heuristic")
            for name, fn in study.ALL_HEURISTICS.items()
        },
    )
    t.wrap(campaign_spec, "build_workload", "platform.build_workload")

    # repro.campaign
    def landed(args: tuple, result: Any) -> None:
        t.marks["landed"].setdefault(args[1].key, time.perf_counter())

    def enqueued(args: tuple, result: Any) -> None:
        t.marks["enqueued"].setdefault(args[1].key, time.perf_counter())

    t.wrap(ArtifactCache, "store", "campaign.cache_store", landed)
    t.wrap(ArtifactCache, "lookup", "campaign.cache_lookup")
    t.wrap(ArtifactCache, "load", "campaign.cache_load")
    t.wrap(WorkQueue, "enqueue_case", "campaign.queue_enqueue", enqueued)
    t.wrap(SuiteAggregator, "add_case", "campaign.aggregate_add")
    t.wrap(SuiteAggregator, "finalize", "campaign.aggregate_finalize")

    # repro.io
    t.wrap_everywhere(json_io.canonical_json, "io.canonical_json")
    t.wrap_everywhere(
        json_io.payload_digest,
        "io.payload_digest",
        lambda args, result: t.count("io.digest_calls"),
    )

    # repro.service / repro.caseset
    t.wrap(RobustnessService, "handle_case", "service.handle_case")
    t.wrap(RobustnessService, "handle_sweep", "service.handle_sweep")
    t.wrap_iter(SweepStream, "frames", "service.sweep_frame")
    t.wrap(AdmissionGate, "acquire", "service.admission_acquire")
    t.wrap_everywhere(caseset_sets.parse, "caseset.parse")
    t.wrap(caseset_sets.CaseSet, "cases", "caseset.cases")
    t.wrap(caseset_sets.CaseSet, "fold", "caseset.fold")



#: Per-layer time metric → the span names whose self time it sums.
SELF_TIME_METRICS: dict[str, tuple[str, ...]] = {
    "stochastic.add_pairs_s": ("stochastic.add_pairs",),
    "stochastic.max_groups_s": ("stochastic.max_groups",),
    "analysis.classical_self_s": ("analysis.classical_makespan",),
    "schedule.random_s": ("schedule.random",),
    "schedule.heuristic_s": ("schedule.heuristic",),
    "core.evaluate_self_s": ("core.evaluate_case",),
    "core.metrics_s": ("core.metrics_from_rv",),
    "core.pearson_s": ("core.pearson",),
    "platform.workload_build_s": ("platform.build_workload",),
    "campaign.cache_store_s": ("campaign.cache_store",),
    "campaign.cache_lookup_s": ("campaign.cache_lookup", "campaign.cache_load"),
    "campaign.aggregate_s": (
        "campaign.aggregate_add",
        "campaign.aggregate_finalize",
    ),
    "campaign.queue_enqueue_s": ("campaign.queue_enqueue",),
    "io.canonical_json_s": ("io.canonical_json",),
    "io.payload_digest_s": ("io.payload_digest",),
    "service.handle_case_s": ("service.handle_case",),
    "service.sweep_s": ("service.handle_sweep", "service.sweep_frame"),
    "service.admission_wait_s": ("service.admission_acquire",),
    "caseset.expand_s": ("caseset.parse", "caseset.cases", "caseset.fold"),
}

#: Counters reported as they were recorded.
COUNTERS = (
    "stochastic.add_pairs_calls",
    "stochastic.add_pairs_operands",
    "stochastic.max_groups_calls",
    "stochastic.max_groups_operands",
    "stochastic.value_pool",
    "stochastic.conv_capped",
    "stochastic.fft_convs",
    "io.digest_calls",
)

#: The program's layers (``bench`` is the benchmark's own root spans).
LAYERS = (
    "stochastic",
    "analysis",
    "schedule",
    "core",
    "platform",
    "campaign",
    "io",
    "service",
    "caseset",
    "bench",
)


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced window of ``wall`` seconds.

    ``<layer>.share_pct`` is the layer's self time as a share of the
    window; ``trace.attributed_pct`` is the share the program's layers
    account for (everything but the benchmark's own root spans).
    """
    self_times = tracer.self_times()
    out: dict[str, float] = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = sum(self_times.get(n, (0, 0.0, 0.0))[2] for n in names)
    for name in COUNTERS:
        out[name] = float(tracer.counters.get(name, 0))
    requested = tracer.counters.get("stochastic.memo_requested", 0)
    served = tracer.counters.get("stochastic.memo_served", 0)
    out["stochastic.memo_hit_ratio"] = served / requested if requested else 0.0
    layers = tracer.layer_times()
    for layer in LAYERS:
        out[f"{layer}.share_pct"] = 100.0 * layers.get(layer, 0.0) / wall
    program = sum(v for k, v in layers.items() if k != "bench")
    out["trace.wall_s"] = wall
    out["trace.attributed_pct"] = 100.0 * program / wall
    return out


def layer_table(tracer: Tracer, wall: float) -> list[str]:
    """Human-readable self time and share per layer."""
    layers = tracer.layer_times()
    lines = [f"{'layer':<12} {'self s':>10} {'share':>8}"]
    for layer, self_s in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<12} {self_s:>10.3f} {100 * self_s / wall:>7.1f}%")
    lines.append(f"{'(sum)':<12} {sum(layers.values()):>10.3f} of {wall:.3f} s traced wall")
    return lines
