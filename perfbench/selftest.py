"""Smoke-size self-test of the benchmark.

Usage, from the repository root::

    python3 perfbench/selftest.py

For every workload, at smoke size: an untraced run must print every
``end_to_end`` metric of ``BENCHMARK.json`` with its unit, a traced run
every ``per_layer`` metric, and both must pass their output checks.  A
run whose artifact cache is deliberately corrupted must report failed
checks.  Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from common import ROOT, SRC

sys.path.insert(0, str(SRC))

import run  # noqa: E402


def corrupt_one(cache_dir: Path) -> None:
    """Change one value of one artifact and re-seal its digest.

    The artifact stays valid to the cache, so only a check against an
    independent expectation can notice it.
    """
    from repro.io.json_io import payload_digest

    path = sorted(cache_dir.glob("*.json"))[0]
    envelope = json.loads(path.read_text())
    envelope["result"]["panel"]["values"][0][0] += 1.0
    envelope["sha256"] = payload_digest(envelope["result"])
    path.write_text(json.dumps(envelope))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            record = run.measure(workload, 7, 2.0, trace, smoke=True)
            tag = f"{workload} trace={int(trace)}"
            if not record["correct"] or record["failed"]:
                problems.append(f"{tag}: checks failed: {record['notes']}")
            for metric in spec[section]:
                got = record["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{tag}: {metric['name']} missing or wrong unit")
            print(f"{tag}: {record['failed']} of {record['attempted']} checks failed", flush=True)
        record = run.measure(workload, 7, 2.0, False, smoke=True, after_setup=corrupt_one)
        if record["correct"] or not record["failed"]:
            problems.append(f"{workload}: a corrupted artifact was not reported")
        print(
            f"{workload} with a corrupted artifact: {record['failed']} of "
            f"{record['attempted']} checks failed",
            flush=True,
        )
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
