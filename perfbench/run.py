"""The repository benchmark: one command, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig6_exact|fig6_fast|service_mix \\
        --seed N --seconds S --trace 0|1

The seed becomes the case sets' ``base_seed``, so the program receives
only generated inputs.  With ``--trace 0`` the run prints the end-to-end
metrics; with ``--trace 1`` it runs once untraced and once with every
layer wrapped, and prints the per-layer metrics.  Human-readable lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with the machine fingerprint, the source revision and (traced) the spans
and counters, is written to ``.perfbench_out/``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from common import ROOT, SRC, Context

WORKLOADS = ("fig6_exact", "fig6_fast", "service_mix")
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

#: End-to-end metrics (every workload reports each) and their units.
END_TO_END = {
    "setup_s": "s",
    "suite_s": "s",
    "peak_rss_mb": "MiB",
    "hit_ms": "ms",
    "sweep_warm_ms": "ms",
}


def per_layer_units() -> dict[str, str]:
    """Per-layer metrics of a traced run and their units."""
    from tracing import COUNTERS, LAYERS, SELF_TIME_METRICS

    names = [
        *SELF_TIME_METRICS,
        "campaign.queue_task_s",
        "process.sys_s",
        "trace.wall_s",
        "trace.suite_untraced_s",
        "trace.overhead_s",
        "service.http_overhead_ms",
        "generator.late_p99_ms",
        *COUNTERS,
        "campaign.cache_scans",
        "process.minor_faults",
        "stochastic.memo_hit_ratio",
        "trace.attributed_pct",
        *(f"{layer}.share_pct" for layer in LAYERS),
    ]
    suffix_units = {"_s": "s", "_ms": "ms", "_pct": "%", "_ratio": "ratio"}
    return {
        name: next(
            (u for sfx, u in suffix_units.items() if name.endswith(sfx)), "count"
        )
        for name in names
    }


def fingerprint() -> dict:
    """What must match before two results may be compared."""
    import numpy

    def first(path: str, prefix: str) -> str:
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(prefix):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mem_total": first("/proc/meminfo", "MemTotal:"),
        "cpu": first("/proc/cpuinfo", "model name"),
        "machine": platform.machine(),
    }


def revision() -> dict:
    """The git commit when there is one, and a digest of the source tree."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    smoke: bool = False,
    after_setup=None,
) -> dict:
    """Run one workload; returns the full result record."""
    import fig6
    import service_mix

    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    ctx = Context(seed, seconds, trace, workdir, smoke, after_setup)
    try:
        if workload == "service_mix":
            result = service_mix.run(ctx)
        else:
            result = fig6.run(ctx, fast=workload == "fig6_fast")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = per_layer_units() if trace else END_TO_END
    missing = [m for m in END_TO_END if not trace and m not in result.metrics]
    if missing:
        raise RuntimeError(f"workload {workload} did not measure {missing}")
    metrics = {
        name: {"value": float(result.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    checks = result.checks
    return {
        "format": "perfbench-result-v1",
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "fingerprint": fingerprint(),
        **revision(),
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "error_frac": checks.failed / max(1, checks.attempted),
        "notes": checks.notes,
        "report": result.report,
        "metrics": metrics,
        "trace_data": result.trace,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, separators=(",", ":")) + "\n")

    for line in record["report"] + record["notes"]:
        print(line)
    print(f"fingerprint: {json.dumps(record['fingerprint'], sort_keys=True)}")
    print(f"revision: git {record['git_sha']} source {record['source_sha256'][:16]}")
    print(
        f"checks: {record['attempted']} attempted, {record['failed']} failed, "
        f"error_frac {record['error_frac']:.6f}"
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']}")
    print(f"result written to {out.relative_to(ROOT)}")
    print(
        json.dumps(
            {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
