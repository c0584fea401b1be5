"""The cross-branch 0-round memo: accounting, persistence, corruption.

Mirrors ``test_cache_robustness.py`` for the second persistent cache the
engine owns: every broken on-disk state must behave exactly like an absent
entry (the verdict is recomputed and the store overwrites the bad file), a
collided or mangled file must never yield a wrong verdict for the
requesting key, and hit/miss accounting must reflect the cross-branch
sharing the search driver relies on.
"""

import json

import pytest

from repro.core.zero_round import ZeroRoundMemo, is_zero_round_solvable
from repro.engine import Engine, EngineConfig


@pytest.fixture()
def engine():
    # Pinned to the serial backend: these tests assert exact hit/miss
    # accounting on the engine's *shared* memo, which process-pool workers
    # by design cannot see mid-batch (their verdicts merge in afterwards),
    # so memo-hit counts differ there.
    return Engine(
        EngineConfig(
            max_derived_labels=5_000,
            max_candidate_configs=100_000,
            executor="serial",
        )
    )


# -- in-memory accounting ------------------------------------------------------


def test_memo_hit_miss_accounting(sc3, mis_d3):
    memo = ZeroRoundMemo(maxsize=16)
    assert memo.stats() == {"hits": 0, "misses": 0, "entries": 0, "store_failures": 0}
    first = memo.check(sc3)
    assert memo.stats() == {"hits": 0, "misses": 1, "entries": 1, "store_failures": 0}
    assert memo.check(sc3) is first
    assert memo.stats() == {"hits": 1, "misses": 1, "entries": 1, "store_failures": 0}
    memo.check(mis_d3)
    assert memo.stats() == {"hits": 1, "misses": 2, "entries": 2, "store_failures": 0}
    assert memo.check(sc3) == is_zero_round_solvable(sc3)
    assert memo.check(mis_d3) == is_zero_round_solvable(mis_d3)


def test_memo_caches_both_verdicts(sc3):
    """False verdicts must be cached too (None-vs-False discipline)."""
    from repro.core.problem import Problem
    from repro.utils.multiset import multisets_of_size

    trivial = Problem.make(
        "trivial", 3, [("a", "a")], list(multisets_of_size(["a"], 3)), labels=["a"]
    )
    memo = ZeroRoundMemo(maxsize=16)
    assert memo.check(trivial) is True
    assert memo.check(sc3) is False
    assert memo.stats()["misses"] == 2
    assert memo.check(trivial) is True
    assert memo.check(sc3) is False
    assert memo.stats() == {"hits": 2, "misses": 2, "entries": 2, "store_failures": 0}


def test_memo_keys_are_setting_specific(sc3):
    memo = ZeroRoundMemo(maxsize=16)
    with_input = memo.check(sc3, orientations=True)
    without = memo.check(sc3, orientations=False)
    assert memo.stats()["misses"] == 2  # distinct keys, no cross-talk
    assert with_input == is_zero_round_solvable(sc3, orientations=True)
    assert without == is_zero_round_solvable(sc3, orientations=False)


def test_memo_renamed_twins_hit(sc3):
    memo = ZeroRoundMemo(maxsize=16)
    memo.check(sc3)
    renamed = sc3.renamed(
        {label: f"r{label}" for label in sorted(sc3.labels)}, name="twin"
    )
    assert memo.check(renamed) == is_zero_round_solvable(renamed)
    assert memo.stats() == {"hits": 1, "misses": 1, "entries": 1, "store_failures": 0}


def test_memo_lru_bound(sc3, mis_d3, so3):
    memo = ZeroRoundMemo(maxsize=2)
    memo.check(sc3)
    memo.check(mis_d3)
    memo.check(so3)  # evicts sc3
    assert memo.stats()["entries"] == 2
    memo.check(sc3)
    assert memo.stats()["misses"] == 4


def test_memo_rejects_bad_maxsize():
    with pytest.raises(ValueError):
        ZeroRoundMemo(maxsize=0)


# -- engine wiring and search accounting ---------------------------------------


def test_engine_shares_memo_across_searches_and_branches(engine, mis_d3):
    """Verdicts persist across branches and whole searches of renamed twins.

    The memo is keyed on canonical hashes, so a second search over a
    label-renamed copy of the same problem re-decides *nothing*: every
    0-round check of every branch hits the verdicts the first search stored.
    """
    first = engine.search_lower_bound(
        mis_d3, max_steps=2, beam_width=2, max_moves=6, budget=16
    )
    stats = first.stats
    assert stats.zero_round_checks > 0
    assert stats.zero_round_memo_hits < stats.zero_round_checks
    misses_after_first = engine.zero_round_stats()["misses"]

    renamed = mis_d3.renamed(
        {label: f"r{label}" for label in sorted(mis_d3.labels)}, name="mis-twin"
    )
    second = engine.search_lower_bound(
        renamed, max_steps=2, beam_width=2, max_moves=6, budget=16
    )
    assert second.stats.zero_round_checks == stats.zero_round_checks
    assert second.stats.zero_round_memo_hits == second.stats.zero_round_checks
    assert engine.zero_round_stats()["misses"] == misses_after_first
    assert second.kind == first.kind and second.bound == first.bound
    # The payload carries the accounting for reports.
    payload = second.stats.to_dict()
    assert payload["zero_round_checks"] == second.stats.zero_round_checks
    assert payload["zero_round_memo_hits"] == second.stats.zero_round_memo_hits


def test_search_results_identical_with_memo_disabled(mis_d3):
    base = EngineConfig(max_derived_labels=5_000, max_candidate_configs=100_000)
    with_memo = Engine(base).search_lower_bound(mis_d3, max_steps=2, budget=16)
    without = Engine(base.replace(zero_round_memo=False)).search_lower_bound(
        mis_d3, max_steps=2, budget=16
    )
    assert with_memo.kind == without.kind
    assert with_memo.certificate.to_dict() == without.certificate.to_dict()
    assert without.stats.zero_round_memo_hits == 0
    assert without.stats.zero_round_checks == with_memo.stats.zero_round_checks


def test_engine_without_memo_reports_zero_stats(sc3):
    engine = Engine(EngineConfig(zero_round_memo=False))
    assert engine.zero_round_memo is None
    assert engine.zero_round_solvable(sc3) == is_zero_round_solvable(sc3)
    assert engine.zero_round_stats() == {"hits": 0, "misses": 0, "entries": 0, "store_failures": 0}


def test_with_config_shares_memo_unless_cache_knobs_change(engine, sc3):
    engine.zero_round_solvable(sc3)
    shared = engine.with_config(search_beam_width=2)
    assert shared.zero_round_memo is engine.zero_round_memo
    fresh = engine.with_config(zero_round_memo_size=8)
    assert fresh.zero_round_memo is not engine.zero_round_memo
    disabled = engine.with_config(zero_round_memo=False)
    assert disabled.zero_round_memo is None


def test_clear_cache_clears_memo(engine, sc3):
    engine.zero_round_solvable(sc3)
    assert engine.zero_round_stats()["entries"] == 1
    engine.clear_cache()
    assert engine.zero_round_stats() == {"hits": 0, "misses": 0, "entries": 0, "store_failures": 0}


# -- persistence ---------------------------------------------------------------


def _memo_path(tmp_path, problem, orientations=True):
    key = ZeroRoundMemo.key_for(problem, orientations)
    return tmp_path / "zero_round" / (key.replace(":", "_") + ".json")


def _warm(tmp_path, problem):
    engine = Engine(EngineConfig(cache_dir=tmp_path))
    verdict = engine.zero_round_solvable(problem)
    path = _memo_path(tmp_path, problem)
    assert path.exists()
    return verdict, path


def test_memo_persists_across_engines(tmp_path, sc3):
    verdict, _ = _warm(tmp_path, sc3)
    fresh = Engine(EngineConfig(cache_dir=tmp_path))
    assert fresh.zero_round_solvable(sc3) == verdict
    assert fresh.zero_round_stats() == {"hits": 1, "misses": 0, "entries": 1, "store_failures": 0}


def test_memo_persistence_preserves_negative_verdicts(tmp_path, sc3):
    verdict, path = _warm(tmp_path, sc3)
    assert verdict is False  # sinkless coloring is the canonical non-trivial case
    payload = json.loads(path.read_text())
    assert payload["solvable"] is False
    fresh = Engine(EngineConfig(cache_dir=tmp_path))
    assert fresh.zero_round_solvable(sc3) is False
    assert fresh.zero_round_stats()["hits"] == 1


CORRUPTIONS = {
    "empty-file": b"",
    "not-json": b"\x00\x80garbage\xff",
    "json-null": b"null",
    "json-list": b"[true]",
    "missing-solvable": b"{}",
    "solvable-not-bool": None,  # filled in per-test from the real payload
    "wrong-key": None,  # filled in per-test from the real payload
    "truncated": None,  # filled in per-test from the real payload
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupt_memo_entry_is_a_miss_and_gets_overwritten(tmp_path, sc3, corruption):
    verdict, path = _warm(tmp_path, sc3)
    good_bytes = path.read_bytes()

    payload = CORRUPTIONS[corruption]
    if corruption == "solvable-not-bool":
        doc = json.loads(good_bytes)
        doc["solvable"] = "yes"
        payload = json.dumps(doc).encode()
    elif corruption == "wrong-key":
        doc = json.loads(good_bytes)
        doc["key"] = "orientations:0000collided"
        payload = json.dumps(doc).encode()
    elif corruption == "truncated":
        payload = good_bytes[: len(good_bytes) // 2]
    path.write_bytes(payload)

    engine = Engine(EngineConfig(cache_dir=tmp_path))
    assert engine.zero_round_solvable(sc3) == verdict
    assert engine.zero_round_stats() == {"hits": 0, "misses": 1, "entries": 1, "store_failures": 0}

    # The recomputation must have overwritten the bad file in place...
    restored = json.loads(path.read_text())
    assert restored["solvable"] == verdict
    assert restored["key"] == ZeroRoundMemo.key_for(sc3, True)

    # ...so the repaired entry hits from disk again.
    rewarmed = Engine(EngineConfig(cache_dir=tmp_path))
    assert rewarmed.zero_round_solvable(sc3) == verdict
    assert rewarmed.zero_round_stats()["hits"] == 1


def test_unreadable_memo_entry_is_a_miss(tmp_path, sc3):
    import os

    if os.geteuid() == 0:
        pytest.skip("permission bits do not bind for root")
    verdict, path = _warm(tmp_path, sc3)
    path.chmod(0o000)
    try:
        engine = Engine(EngineConfig(cache_dir=tmp_path))
        assert engine.zero_round_solvable(sc3) == verdict
        assert engine.zero_round_stats()["misses"] == 1
    finally:
        path.chmod(0o644)


def test_memo_survives_read_only_directory(tmp_path, sc3):
    import os

    if os.geteuid() == 0:
        pytest.skip("permission bits do not bind for root")
    memo = ZeroRoundMemo(maxsize=4, directory=tmp_path / "zero_round")
    (tmp_path / "zero_round").chmod(0o500)
    try:
        # Stores must not raise even though nothing can be written.
        assert memo.check(sc3) == is_zero_round_solvable(sc3)
        assert memo.check(sc3) == is_zero_round_solvable(sc3)
    finally:
        (tmp_path / "zero_round").chmod(0o755)
