"""Workload ``service_mix``: the ``serve`` front door over a warm cache.

Eighteen quick-scale-sized artifacts (~20 KB each) are computed into a
fresh cache, then the service answers three phases, each reported on
its own.  The phases alternate in short slices for ``--seconds``: on a
shared 2-vCPU VM host speed swings ~2x over a few seconds, so each phase is sampled
across the whole window rather than in one stretch of it.

(a) an open loop of ``/case`` hits at :data:`HIT_RATE` requests per
    second, each timed from the moment it was due;
(b) a closed loop (one client) of warm ``/sweep?format=ndjson`` calls
    over the eighteen cached cases;
(c) cold ``/sweep`` calls over sixteen fresh cheap cases each, which go
    enqueue → fleet worker → cache store → fold.

Untraced, ``serve`` runs as a subprocess with one fleet worker, as users
run it.  Traced, the service runs in-process with an in-thread queue
worker so that the wrappers see every layer.
"""

from __future__ import annotations

import http.client
import itertools
import json
import queue
import random
import re
import resource
import signal
import subprocess
import sys
import threading
import time
import urllib.parse
from pathlib import Path

from common import Checks, Context, Result, child_env, median, percentile

WARM = (
    "graph[rand10,chol10,ge9] x ul[1.01,1.1] x seed[0-2]"
    " x n_random[100] x grid_n[17] x base_seed[{seed}]"
)
COLD = (
    "graph[rand10] x ul[1.1] x seed[0-15] x n_random[5] x grid_n[17]"
    " x mc_realizations[50] x base_seed[{seed}]"
)
SMOKE_WARM = "graph[rand10,chol10] x ul[1.1] x seed[0-1] x n_random[5] x grid_n[17] x base_seed[{seed}]"
SMOKE_COLD = (
    "graph[rand10] x ul[1.1] x seed[0-3] x n_random[5] x grid_n[17]"
    " x mc_realizations[50] x base_seed[{seed}]"
)
#: Well under the knee (~250 req/s on a quiet host), so the hit path, not
#: a backlog, sets the latency: a shared 2-vCPU VM can run at half speed
#: for minutes, and at 100 req/s its p90 then grew from 5 to 22 ms.
HIT_RATE = 50.0
#: One client thread per core; each opens a fresh connection per request.
CLIENT_THREADS = 2
#: ``serve --queue-poll``'s default, in both topologies.
#: A fleet worker's idle poll lists the whole queue, so its cost grows with
#: every task the run has enqueued; polling at 0.05 s took ~10% of a core
#: by the end of a run and slowed the hits of its last slices by ~20%.
QUEUE_POLL_S = 0.25
#: Server starts timed per run; ``setup_s`` takes their median.
SERVER_STARTS = 3
#: Seconds of phase (a) and of phase (b) per slice; each slice ends with
#: one cold sweep, phase (c).
HITS_SLICE, WARM_SLICE = 1.0, 0.4
MIN_SLICES = 3


def get(port: int, path: str, timeout: float = 120.0) -> tuple[int, bytes]:
    """One GET on a fresh connection; status 0 when the connection fails."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path, headers={"Connection": "close"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    except (OSError, http.client.HTTPException):
        return 0, b""
    finally:
        conn.close()


def traced_get(port: int, path: str, tracer=None) -> tuple[int, bytes]:
    """:func:`get`, inside a ``bench.request`` span when tracing."""
    if tracer is None:
        return get(port, path)
    with tracer.span("bench.request"):
        return get(port, path)


def case_query(case) -> str:
    """The ``/case`` query naming ``case`` (``case_from_query`` rebuilds it)."""
    spec = case.spec
    return urllib.parse.urlencode(
        {
            "kind": spec.kind,
            "param": spec.param,
            "ul": f"{spec.ul:g}",
            "instance": spec.instance,
            "base_seed": case.base_seed,
            "n_random": case.n_random,
            "grid_n": case.grid_n,
            "mc_realizations": case.mc_realizations,
        }
    )


def sweep_path(expr: str) -> str:
    return "/sweep?" + urllib.parse.urlencode({"expr": expr, "format": "ndjson"})


def final_aggregate(body: bytes) -> "str | None":
    """Canonical aggregate of a sweep's ``done`` frame, else ``None``."""
    from repro.io.json_io import canonical_json

    lines = body.splitlines()
    if not lines:
        return None
    try:
        last = json.loads(lines[-1])
    except ValueError:
        return None
    if last.get("event") != "done":
        return None
    return canonical_json(last["aggregate"])


# ---------------------------------------------------------------------- #
# the two server topologies
# ---------------------------------------------------------------------- #


class SubprocessServer:
    """``repro.experiments.cli serve`` with one fleet worker."""

    def __init__(self, cache_dir: Path, queue_dir: Path, log: Path):
        cmd = [
            sys.executable, "-m", "repro.experiments.cli", "serve",
            "--cache-dir", str(cache_dir), "--queue-dir", str(queue_dir),
            "--port", "0", "--workers", "1", "--queue-poll", str(QUEUE_POLL_S),
        ]
        self._log = open(log, "w")
        self.proc = subprocess.Popen(
            cmd, env=child_env(), stdout=subprocess.PIPE, stderr=self._log, text=True
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            banner = self._lines.get(timeout=120)
        except queue.Empty:
            banner = ""
        match = re.search(r"http://[^:/]+:(\d+)", banner or "")
        if match is None:
            self.stop()
            raise RuntimeError(f"serve printed no address banner (see {log})")
        self.port = int(match.group(1))

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def peak_rss_mb(self) -> float:
        """Sum of the high-water RSS of the server and its fleet."""
        total_kb = 0
        pids = [self.proc.pid]
        while pids:
            pid = pids.pop()
            try:
                status = Path(f"/proc/{pid}/status").read_text()
                tasks = list(Path(f"/proc/{pid}/task").iterdir())
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
            for task in tasks:
                try:
                    pids += [int(c) for c in (task / "children").read_text().split()]
                except OSError:
                    pass
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM drains the server and its fleet; wait for both."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)
        self.proc.stdout.close()
        self._log.close()


class InProcessServer:
    """The service core, HTTP server and one queue worker as threads."""

    def __init__(self, cache_dir: Path, queue_dir: Path):
        from repro.campaign import QueueConfig
        from repro.campaign.queue import queue_worker
        from repro.service import RobustnessService, ServiceConfig, make_server

        config = ServiceConfig(
            cache_dir=cache_dir,
            queue_dir=queue_dir,
            port=0,
            workers=0,
            queue=QueueConfig(poll_seconds=QUEUE_POLL_S),
        )
        self.service = RobustnessService(config)
        self._httpd = make_server(self.service)
        self.port = self.service.port
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(
                target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05}
            ),
            threading.Thread(
                target=queue_worker,
                args=(self.service.queue, self.service.cache.root),
                kwargs={
                    "worker_id": "bench0",
                    "forever": True,
                    "stop": self._stop,
                    "env_faults": False,
                },
            ),
        ]
        for thread in self._threads:
            thread.start()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=60)


# ---------------------------------------------------------------------- #
# the phases
# ---------------------------------------------------------------------- #


def wait_ready(port: int, seed: int, k: int, checks: Checks) -> None:
    """Block until the fleet has computed one fresh miss.

    Only then is the worker imported and polling, so phase timings do
    not include its start-up.
    """
    query = urllib.parse.urlencode(
        {
            "kind": "random", "param": 10, "ul": "1.1", "instance": 100 + k,
            "n_random": 2, "grid_n": 17, "mc_realizations": 50,
            "base_seed": seed,
        }
    )
    status, body = get(port, "/case?" + query)
    checks.record(
        status == 200 and json.loads(body).get("source") == "miss",
        f"readiness probe {k} computed by the fleet",
    )


def open_loop(
    port: int, targets: list, seconds: float, rng: random.Random, tracer=None
) -> list[tuple[float, float, float, bool]]:
    """Phase (a): ``/case`` hits due every ``1/HIT_RATE`` s.

    Returns ``(due, sent, done, ok)`` per request; ``ok`` means a 200
    whose body equals the expected canonical bytes.
    """
    n = max(1, int(HIT_RATE * seconds))
    picks = [rng.randrange(len(targets)) for _ in range(n)]
    samples: list = [None] * n
    counter = itertools.count()
    start = time.perf_counter() + 0.05

    def client() -> None:
        while (i := next(counter)) < n:
            due = start + i / HIT_RATE
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            path, expected = targets[picks[i]]
            sent = time.perf_counter()
            status, body = traced_get(port, path, tracer)
            samples[i] = (due, sent, time.perf_counter(), status == 200 and body == expected)

    threads = [threading.Thread(target=client) for _ in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples


def warm_sweeps(
    port: int, expr: str, expected: str, seconds: float, checks: Checks, tracer=None
) -> list[float]:
    """Phase (b): back-to-back warm sweeps, at least one; returns their ms."""
    path = sweep_path(expr)
    times: list[float] = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        t0 = time.perf_counter()
        status, body = traced_get(port, path, tracer)
        times.append((time.perf_counter() - t0) * 1e3)
        checks.record(
            status == 200 and final_aggregate(body) == expected,
            "warm sweep aggregate equals the in-memory fold",
        )
    return times


def cold_sweep(
    port: int, cache_dir: Path, expr: str, checks: Checks, tracer=None
) -> float:
    """Phase (c): one cold sweep; returns its wall seconds.

    Its final aggregate must equal ``aggregate_from_cache`` over the same
    cases, read from the cache the fleet wrote.
    """
    from repro.campaign import ArtifactCache, suite_aggregate_to_payload
    from repro.caseset import parse
    from repro.experiments.fig6_aggregate import aggregate_from_cache
    from repro.io.json_io import canonical_json

    t0 = time.perf_counter()
    status, body = traced_get(port, sweep_path(expr), tracer)
    seconds = time.perf_counter() - t0
    try:
        oracle = aggregate_from_cache(
            cache=ArtifactCache(cache_dir), cases=parse(expr).cases()
        )
        expected = canonical_json(suite_aggregate_to_payload(oracle.suite_aggregate()))
    except ValueError:
        expected = None
    checks.record(
        status == 200 and expected is not None and final_aggregate(body) == expected,
        "cold sweep aggregate equals aggregate_from_cache",
    )
    return seconds


# ---------------------------------------------------------------------- #
# the workload
# ---------------------------------------------------------------------- #


def build_warm_cache(expr: str, cache_dir: Path) -> tuple[list, str]:
    """Compute the warm cases into ``cache_dir``.

    Returns the hit targets — ``(path, expected body bytes)`` per case,
    from the results in memory, not from the cache — and the canonical
    aggregate a warm sweep of ``expr`` must stream.
    """
    from repro.campaign import (
        ArtifactCache,
        Campaign,
        SerialBackend,
        SuiteAggregator,
        suite_aggregate_to_payload,
    )
    from repro.caseset import parse
    from repro.io.json_io import canonical_json, case_result_to_payload
    from repro.service import case_from_query

    cases = parse(expr).cases()
    cache = ArtifactCache(cache_dir)
    aggregator = SuiteAggregator()
    targets = []
    for index, case, result in Campaign(
        cases, cache=cache, backend=SerialBackend()
    ).iter_results():
        aggregator.add_case(index, case, result)
        query = case_query(case)
        if case_from_query(dict(urllib.parse.parse_qsl(query))).key != case.key:
            raise RuntimeError(f"/case query does not name {case.name}")
        body = {
            "case": case.to_dict(),
            "key": case.key,
            "source": "hit",
            "result": case_result_to_payload(result),
        }
        targets.append(("/case?" + query, canonical_json(body).encode()))
    cache.rebuild_index()
    return targets, canonical_json(suite_aggregate_to_payload(aggregator.finalize()))


def run(ctx: Context) -> Result:
    """One ``service_mix`` run (traced: in-process, every layer wrapped)."""
    warm_expr = (SMOKE_WARM if ctx.smoke else WARM).format(seed=ctx.seed)
    cold_exprs = (
        (SMOKE_COLD if ctx.smoke else COLD).format(seed=seed)
        for seed in itertools.count(ctx.seed + 1)
    )
    cache_dir = ctx.workdir / "cache"
    checks = Checks()
    report = [f"warm expression: {warm_expr}"]

    t0 = time.perf_counter()
    targets, warm_expected = build_warm_cache(warm_expr, cache_dir)
    build_s = time.perf_counter() - t0
    if ctx.after_setup is not None:
        ctx.after_setup(cache_dir)

    tracer = None
    server = None
    starts: list[float] = []
    untraced: list[float] = []
    try:
        if ctx.trace:
            from tracing import Tracer, instrument

            server = InProcessServer(cache_dir, ctx.workdir / "queue")
            wait_ready(server.port, ctx.seed, 0, checks)
            untraced = [
                cold_sweep(server.port, cache_dir, next(cold_exprs), checks)
                for _ in range(MIN_SLICES)
            ]
            tracer = Tracer()
            instrument(tracer)
            usage0 = resource.getrusage(resource.RUSAGE_SELF)
        else:
            for k in range(SERVER_STARTS):
                if server is not None:
                    server.stop()
                t0 = time.perf_counter()
                server = SubprocessServer(
                    cache_dir, ctx.workdir / f"queue{k}", ctx.workdir / f"serve{k}.log"
                )
                wait_ready(server.port, ctx.seed, k, checks)
                starts.append(time.perf_counter() - t0)
        port = server.port

        rng = random.Random(ctx.seed)
        hits: list = []
        sweeps: list[float] = []
        cold: list[float] = []
        t0 = time.perf_counter()
        while len(cold) < MIN_SLICES or time.perf_counter() - t0 < ctx.seconds:
            hits += open_loop(port, targets, HITS_SLICE, rng, tracer)
            sweeps += warm_sweeps(
                port, warm_expr, warm_expected, WARM_SLICE, checks, tracer
            )
            cold.append(cold_sweep(port, cache_dir, next(cold_exprs), checks, tracer))
        wall = time.perf_counter() - t0
        if tracer is None:
            rss = server.peak_rss_mb()
        else:
            usage1 = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        if tracer is not None:
            tracer.restore()
        if server is not None:
            server.stop()

    for *_, ok in hits:
        checks.record(ok, "/case hit body equals the expected canonical bytes")
    latency = [(done - due) * 1e3 for due, _, done, _ in hits]
    late = [(sent - due) * 1e3 for due, sent, _, _ in hits]
    report += [
        f"setup: warm cache built in {build_s:.3f} s; server start to ready "
        + ", ".join(f"{s:.3f}" for s in starts) + " s",
        f"(a) {len(hits)} hits at {HIT_RATE:g}/s: p50 {percentile(latency, 50):.3f} ms, "
        f"p90 {percentile(latency, 90):.3f} ms, p99 {percentile(latency, 99):.3f} ms; "
        f"generator late p99 {percentile(late, 99):.3f} ms",
        f"(b) {len(sweeps)} warm sweeps: median {median(sweeps):.3f} ms, "
        f"p90 {percentile(sweeps, 90):.3f} ms",
        "(c) cold sweeps s: " + ", ".join(f"{s:.3f}" for s in cold),
    ]
    if tracer is None:
        metrics = {
            "setup_s": build_s + median(starts),
            "suite_s": median(cold),
            "peak_rss_mb": rss,
            # Hits and sweeps cross three processes on two vCPUs, so their
            # times do not split between the host's two speeds as fig6's
            # reads do; their p50 is steady, their p90 carries the tail of
            # the host's worst stretches (see README.md).
            "hit_ms": percentile(latency, 50),
            "sweep_warm_ms": percentile(sweeps, 50),
        }
        return Result(metrics, checks, report)

    from tracing import layer_metrics, layer_table

    client_s = sum(done - sent for _, sent, done, _ in hits)
    handler_s = sum(tracer.durations("service.handle_case"))
    waits = [
        tracer.marks["landed"][key] - enqueued
        for key, enqueued in tracer.marks["enqueued"].items()
        if key in tracer.marks["landed"]
    ]
    overhead = median(cold) - median(untraced)
    metrics = layer_metrics(tracer, wall)
    metrics.update(
        {
            "process.minor_faults": float(usage1.ru_minflt - usage0.ru_minflt),
            "process.sys_s": usage1.ru_stime - usage0.ru_stime,
            "campaign.cache_scans": float(server.service.cache.stats.scans),
            "campaign.queue_task_s": median(waits) if waits else 0.0,
            "service.http_overhead_ms": 1e3 * (client_s - handler_s) / len(hits),
            "generator.late_p99_ms": percentile(late, 99),
            "trace.suite_untraced_s": median(untraced),
            "trace.overhead_s": overhead,
        }
    )
    report += layer_table(tracer, wall)
    report.append(
        f"tracing overhead: {overhead:+.3f} s (median traced minus untraced cold sweep)"
    )
    return Result(metrics, checks, report, tracer.to_payload())
