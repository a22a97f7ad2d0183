"""Shared pieces of the benchmark: output checks, statistics, set-up timing."""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: A hook the self-test uses to damage a freshly written artifact cache.
CacheHook = Callable[[Path], None]


@dataclass
class Context:
    """Everything one benchmark run is parameterized by."""

    seed: int
    seconds: float
    trace: bool
    workdir: Path
    smoke: bool = False
    after_setup: "CacheHook | None" = None


@dataclass
class Checks:
    """Tally of output checks: each is one attempted operation."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        """Count one check; keep a note of the first few failures."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(f"FAILED: {what}")
        return ok


@dataclass
class Result:
    """What a workload measured: metric values plus the check tally."""

    metrics: dict[str, float]
    checks: Checks
    #: Extra lines for the human-readable report.
    report: list[str] = field(default_factory=list)
    #: The tracer's JSON payload, for traced runs.
    trace: "dict | None" = None


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    """Median of a non-empty list."""
    return statistics.median(values)


def child_env() -> dict[str, str]:
    """Environment for subprocesses running the program from ``src``."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def time_cold_start(code: str, args: list[str], repeats: int = 3) -> float:
    """Median wall time of ``repeats`` fresh interpreters running ``code``.

    Each run pays interpreter start-up and the program's imports, which
    is what a user of the command line waits for before any work starts.
    """
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code, *args],
            env=child_env(),
            check=True,
            timeout=120,
            stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - t0)
    return median(samples)


def peak_rss_mb() -> float:
    """This process's resident-memory high-water mark, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
