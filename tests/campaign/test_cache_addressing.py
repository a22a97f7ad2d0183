"""The content-addressed artifact path is the cache's only lookup.

An artifact's file name is a pure function of its case, so every point
lookup is one read and every presence probe one ``stat`` — the
``scans`` counter (the service's O(1) assertion) stays at zero.  These
tests pin what that design promises:

* a cache written by older versions, which also hold a ``cache.index``
  sidecar (valid or torn), loads fully warm, audits clean, and its
  sidecar is never parsed, counted or rewritten;
* ``load``/``lookup``/``has`` never scan the directory;
* a fresh cache holds exactly one ``*.json`` per stored case and
  nothing else;
* a misnamed or foreign artifact can never answer for another case.
"""

import pytest

from repro.campaign import ArtifactCache, Campaign, CampaignCase
from repro.experiments.cases import CaseSpec
from repro.experiments.cli import main
from repro.io.json_io import (
    canonical_json,
    case_result_to_json,
    case_result_to_payload,
    payload_digest,
)

#: File name older versions kept their advisory index under.
LEGACY_INDEX = "cache.index"


def _case(seed: int) -> CampaignCase:
    return CampaignCase(
        spec=CaseSpec("cholesky", 3, 1.1), base_seed=seed, n_random=5
    )


@pytest.fixture(scope="module")
def cases() -> list[CampaignCase]:
    return [_case(seed) for seed in (7, 8, 9)]


@pytest.fixture(scope="module")
def results(cases):
    return [case.run() for case in cases]


@pytest.fixture
def warm(tmp_path, cases, results) -> ArtifactCache:
    """A cache directory holding one stored artifact per case."""
    cache = ArtifactCache(tmp_path / "cache")
    for case, result in zip(cases, results):
        cache.store(case, result)
    return cache


def legacy_index_bytes(cases, results) -> str:
    """A ``cache.index`` exactly as older versions wrote it."""
    entries = {
        case.key: {
            "file": case.artifact_name,
            "sha256": payload_digest(case_result_to_payload(result)),
        }
        for case, result in zip(cases, results)
    }
    return canonical_json(
        {
            "format": "repro-cache-index-v1",
            "generation": len(entries),
            "entries": entries,
        }
    )


@pytest.fixture(params=["valid", "truncated"])
def legacy(request, warm, cases, results) -> ArtifactCache:
    """A warm cache in the older on-disk format: artifacts + sidecar."""
    text = legacy_index_bytes(cases, results)
    if request.param == "truncated":
        text = text[: len(text) // 2]
    (warm.root / LEGACY_INDEX).write_text(text)
    return warm


def names(cache: ArtifactCache) -> list[str]:
    return sorted(p.name for p in cache.root.iterdir())


class TestLegacyIndexFile:
    def test_loads_warm_through_campaign(self, legacy, cases, results):
        cache = ArtifactCache(legacy.root)
        campaign = Campaign(cases, cache=cache)
        loaded = campaign.run()
        assert campaign.stats.cached == len(cases)
        assert campaign.stats.computed == 0
        assert cache.stats.hits == len(cases)
        assert cache.stats.stores == 0
        assert cache.stats.corrupt == 0
        assert [case_result_to_json(r) for r in loaded] == [
            case_result_to_json(r) for r in results
        ]

    def test_audits_clean(self, legacy, cases):
        audit = ArtifactCache(legacy.root).verify(expected=cases)
        assert audit.ok
        assert sorted(p.name for p in audit.valid) == sorted(
            c.artifact_name for c in cases
        )
        assert not audit.orphans and not audit.stale_temp
        assert "index" not in audit.summary()

    def test_cli_verify_cache_exits_zero(self, legacy, capsys):
        code = main(
            ["campaign", "verify-cache", "--cache-dir", str(legacy.root)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "3 valid, 0 corrupt, 0 orphan, 0 stale temp files" in out
        assert LEGACY_INDEX not in out

    def test_iter_results_skips_the_file(self, legacy, cases):
        cache = ArtifactCache(legacy.root)
        yielded = sorted(c.name for _, c, _ in cache.iter_results())
        assert yielded == sorted(c.name for c in cases)
        assert cache.stats.corrupt == 0

    def test_stores_never_touch_the_file(self, legacy, cases, results):
        before = (legacy.root / LEGACY_INDEX).read_bytes()
        extra = _case(10)
        legacy.store(extra, results[0])
        legacy.store(cases[0], results[0])
        assert (legacy.root / LEGACY_INDEX).read_bytes() == before


class TestZeroScanLookups:
    def test_hit_does_no_scan(self, warm, cases, results):
        reader = ArtifactCache(warm.root)  # fresh stats
        loaded = reader.load(cases[1])
        assert case_result_to_json(loaded) == case_result_to_json(results[1])
        assert (reader.stats.hits, reader.stats.scans) == (1, 0)

    def test_miss_does_no_scan(self, warm):
        reader = ArtifactCache(warm.root)
        assert reader.load(_case(99)) is None
        assert (reader.stats.misses, reader.stats.scans) == (1, 0)

    def test_lookup_is_load(self, warm, cases):
        assert ArtifactCache.lookup is ArtifactCache.load
        reader = ArtifactCache(warm.root)
        assert reader.lookup(cases[0]) is not None
        assert (reader.stats.hits, reader.stats.scans) == (1, 0)

    def test_has_stats_one_path_and_reads_nothing(self, warm, cases):
        reader = ArtifactCache(warm.root)
        assert all(reader.has(c) for c in cases)
        assert not reader.has(_case(99))
        stats = reader.stats
        assert (stats.scans, stats.hits, stats.misses) == (0, 0, 0)

    def test_rebuild_index_is_a_noop(self, warm):
        before = names(warm)
        assert warm.rebuild_index() is None
        assert names(warm) == before
        assert warm.stats.scans == 0


class TestOnDiskLayout:
    def test_one_json_per_store_and_nothing_else(self, warm, cases):
        assert names(warm) == sorted(c.artifact_name for c in cases)


class TestNoCrossCaseAnswers:
    def test_foreign_artifact_under_a_case_path_is_a_miss(self, warm, cases):
        # Case 0's valid envelope planted under case 1's name: the
        # embedded key disagrees, so the read is corrupt, never a hit.
        warm.path_for(cases[1]).write_bytes(warm.path_for(cases[0]).read_bytes())
        reader = ArtifactCache(warm.root)
        assert reader.load(cases[1]) is None
        assert (reader.stats.corrupt, reader.stats.hits) == (1, 0)
        assert reader.has(cases[1])  # presence only; reads re-validate

    def test_misnamed_artifact_is_never_found(self, warm, cases):
        path = warm.path_for(cases[0])
        path.rename(warm.root / "renamed-000000000000.json")
        reader = ArtifactCache(warm.root)
        assert reader.load(cases[0]) is None
        assert not reader.has(cases[0])
        audit = reader.verify()
        assert audit.ok
        assert [(p.name, r.split(":")[0]) for p, r in audit.orphans] == [
            ("renamed-000000000000.json", "misnamed")
        ]
