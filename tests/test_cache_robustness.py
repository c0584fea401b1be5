"""On-disk cache robustness: corrupt entries are misses, never crashes.

The persistent cache shares its directory across processes; a crashed
writer, a full disk, or a concurrent truncation can leave an entry in any
broken state.  Every such state must behave exactly like an absent entry --
the engine recomputes and the subsequent store overwrites the bad file.
"""

import json

import pytest

from repro.core.canonical import canonical_form
from repro.engine import Engine, EngineConfig
from repro.engine.cache import SpeedupCache


def _entry_path(cache: SpeedupCache, problem, simplify=True):
    key = cache._key(canonical_form(problem), simplify)
    return cache.entries.path_for(key)


def _warm_path(tmp_path, problem):
    """Derive once through a disk-backed engine and return the entry's path."""
    engine = Engine(EngineConfig(cache_dir=tmp_path))
    result = engine.speedup(problem)
    path = _entry_path(engine.cache, problem)
    assert path.exists()
    return result, path


CORRUPTIONS = {
    "empty-file": b"",
    "truncated-json": None,  # filled in per-test from the real payload
    "not-json": b"\x00\x80garbage\xff",
    "json-null": b"null",
    "json-list": b"[1, 2, 3]",
    "missing-result": b"{}",
    "result-null": b'{"result": null}',
    "result-list": b'{"result": []}',
    "meaning-not-a-dict": None,  # filled in per-test from the real payload
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupt_entry_is_a_miss_and_gets_overwritten(tmp_path, sc3, corruption):
    original, path = _warm_path(tmp_path, sc3)
    good_bytes = path.read_bytes()

    payload = CORRUPTIONS[corruption]
    if corruption == "truncated-json":
        payload = good_bytes[: len(good_bytes) // 2]
    elif corruption == "meaning-not-a-dict":
        doc = json.loads(good_bytes)
        doc["result"]["half_meaning"] = ["not", "a", "dict"]
        payload = json.dumps(doc).encode()
    path.write_bytes(payload)

    # A fresh engine (cold memory cache) must treat the entry as a miss...
    engine = Engine(EngineConfig(cache_dir=tmp_path))
    result = engine.speedup(sc3)
    assert engine.cache_stats() == {"hits": 0, "misses": 1, "entries": 1, "store_failures": 0}
    assert result.full == original.full
    assert result.half == original.half

    # ...and the recomputation must have overwritten the bad file in place.
    restored = json.loads(path.read_text())
    assert restored["result"]["original"] == sc3.to_dict()

    # The repaired entry now hits from disk again.
    rewarmed = Engine(EngineConfig(cache_dir=tmp_path))
    rewarmed.speedup(sc3)
    assert rewarmed.cache_stats()["hits"] == 1


def test_unreadable_entry_is_a_miss(tmp_path, sc3):
    import os

    if os.geteuid() == 0:
        pytest.skip("permission bits do not bind for root")
    _, path = _warm_path(tmp_path, sc3)
    path.chmod(0o000)
    try:
        engine = Engine(EngineConfig(cache_dir=tmp_path))
        result = engine.speedup(sc3)
        assert result.full is not None
        assert engine.cache_stats()["misses"] == 1
    finally:
        path.chmod(0o644)


def test_wrong_problem_inside_entry_translates_or_misses_without_crash(tmp_path, sc3, mis_d3):
    """A payload that is a *valid* SpeedupResult for a different problem.

    The key embeds the canonical hash, so this simulates a hash collision or
    a manually mangled cache; the engine may either recompute or translate,
    but it must never crash and must still return a derivation of the
    requested problem.
    """
    _, sc3_path = _warm_path(tmp_path, sc3)
    mis_engine = Engine(EngineConfig(cache_dir=tmp_path))
    mis_engine.speedup(mis_d3)
    mis_path = _entry_path(mis_engine.cache, mis_d3)
    sc3_path.write_bytes(mis_path.read_bytes())

    engine = Engine(EngineConfig(cache_dir=tmp_path))
    result = engine.speedup(sc3)
    assert result.original == sc3


# -- stale temp-file sweeping -------------------------------------------------
#
# atomic_write_json writes via `<entry>.tmp.<pid>.<tid>` temp files; a writer
# that crashes between write_text and replace leaks one.  Cache open sweeps
# temp files whose writer pid is dead (or whose age exceeds the bound) and
# must never touch live writes or load a temp file as an entry.


import os
import time

from repro.core.zero_round import ZeroRoundMemo
from repro.utils.jsonio import sweep_stale_tmp_files


def _dead_pid():
    pid = 400_000
    while True:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return pid
        except PermissionError:
            pass
        pid += 1


def test_sweep_removes_dead_writer_tmp_keeps_live(tmp_path):
    dead = tmp_path / f"simplified_abc.tmp.{_dead_pid()}.1"
    dead.write_text("{}")
    live = tmp_path / f"simplified_def.tmp.{os.getpid()}.1"
    live.write_text("{}")
    entry = tmp_path / "simplified_abc.json"
    entry.write_text("{}")

    removed = sweep_stale_tmp_files(tmp_path)

    assert removed == 1
    assert not dead.exists()
    assert live.exists()  # young file of a running pid: a live write
    assert entry.exists()  # real entries are never temp-named


def test_sweep_removes_old_tmp_even_with_live_pid(tmp_path):
    # Pid reuse / another host's writer: age alone marks it stale.
    old = tmp_path / f"raw_xyz.tmp.{os.getpid()}.7"
    old.write_text("{}")
    ancient = time.time() - 7200
    os.utime(old, (ancient, ancient))

    assert sweep_stale_tmp_files(tmp_path) == 1
    assert not old.exists()


def test_sweep_ignores_non_tmp_names(tmp_path):
    for name in ("entry.json", "entry.tmp.notapid.1", "entry.tmp.1", "plain.txt"):
        (tmp_path / name).write_text("{}")
    assert sweep_stale_tmp_files(tmp_path) == 0
    assert len(list(tmp_path.iterdir())) == 4


def test_cache_open_sweeps_stale_tmp_and_never_loads_it(tmp_path, sc3):
    """A leaked temp file holding a full valid entry payload is swept, not read.

    Even if the sweep were skipped, temp names can never collide with the
    `*.json` entry names lookups read, so the engine still misses.
    """
    result, path = _warm_path(tmp_path, sc3)
    leaked = path.with_suffix(f".tmp.{_dead_pid()}.1")
    leaked.write_bytes(path.read_bytes())  # a valid entry payload, temp-named
    path.unlink()  # the real entry is gone; only the leak remains

    engine = Engine(EngineConfig(cache_dir=tmp_path))
    assert not leaked.exists()  # swept on open (dead writer pid)
    fresh = engine.speedup(sc3)
    assert engine.cache_stats()["misses"] == 1  # recomputed, not loaded
    assert fresh.full.node_constraint == result.full.node_constraint


def test_zero_round_memo_open_sweeps_stale_tmp(tmp_path):
    stale = tmp_path / f"orientations_abc.tmp.{_dead_pid()}.1"
    stale.write_text('{"solvable": true}')
    ZeroRoundMemo(directory=tmp_path)
    assert not stale.exists()
