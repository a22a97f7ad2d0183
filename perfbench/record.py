"""Record the exact fig-6 aggregates the benchmark checks its outputs against.

Usage (from the repository root)::

    python3 perfbench/record.py SEED [SEED ...]

For each seed, runs the ``fig6_exact`` suite cold and stores in
``perfbench/expected.json`` the sha256 of the canonical aggregate bytes
(checked by ``fig6_exact``) and the aggregate's mean matrix and
``rel_mean`` (``fig6_fast`` must stay within ``fast_tolerance`` of
them).  Existing seeds are overwritten; others are kept.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile

from common import ROOT, SRC

sys.path.insert(0, str(SRC))

import fig6  # noqa: E402


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    from repro.campaign import ArtifactCache
    from repro.caseset import parse

    expected = fig6.load_expected()
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    for raw in argv:
        seed = int(raw)
        cases = parse(fig6.expression(seed, fast=False)).cases()
        tmp = tempfile.mkdtemp(dir=work)
        try:
            seconds, text, _ = fig6.cold_suite(cases, ArtifactCache(tmp))
        finally:
            shutil.rmtree(tmp)
        payload = json.loads(text)
        expected["seeds"][str(seed)] = {
            "digest": hashlib.sha256(text.encode()).hexdigest(),
            "mean": payload["mean"],
            "rel_mean": payload["rel_mean"],
        }
        fig6.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        print(f"seed {seed}: recorded in {seconds:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
