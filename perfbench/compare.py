"""Compare two benchmark result files, refusing across machines.

Usage, from the repository root::

    python3 perfbench/compare.py BASE.json NEW.json

Both files are records ``run.py`` wrote to ``.perfbench_out/``.  Results
whose machine fingerprints differ are never compared (exit 2); otherwise
each shared metric is printed with the new value as a share of the base.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(open(path).read()) for path in argv)
    if base["fingerprint"] != new["fingerprint"]:
        print("refusing to compare: machine fingerprints differ", file=sys.stderr)
        for key in sorted(set(base["fingerprint"]) | set(new["fingerprint"])):
            a, b = base["fingerprint"].get(key), new["fingerprint"].get(key)
            if a != b:
                print(f"  {key}: {a!r} vs {b!r}", file=sys.stderr)
        return 2
    if (base["workload"], base["trace"]) != (new["workload"], new["trace"]):
        print("refusing to compare: different workloads or trace modes", file=sys.stderr)
        return 2
    print(f"workload {new['workload']}: seed {base['seed']} -> {new['seed']}")
    print(f"source {base['source_sha256'][:16]} -> {new['source_sha256'][:16]}")
    for name, metric in base["metrics"].items():
        other = new["metrics"].get(name)
        if other is None:
            continue
        a, b = metric["value"], other["value"]
        ratio = f"{b / a:8.3f}x" if a else "       -"
        print(f"  {name:<32} {a:>14.6g} {b:>14.6g} {ratio} {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
