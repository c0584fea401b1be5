"""The one keyed store under the speedup cache and the 0-round memo.

``JsonStore`` owns the storage contract both caches share: the bounded LRU,
one enveloped JSON file per entry, best-effort writes counted as
``store_failures``, untrusted files read as misses, and worker-delta
recording.  The owners' own suites (``test_cache_robustness.py``,
``test_zero_round_memo.py``, ``test_faults.py``) cover those behaviours
through the caches; these tests pin the store itself and the on-disk format
both caches must keep reading.
"""

import json
import sys
import threading

import pytest

from repro.core.canonical import canonical_form
from repro.core.speedup import compute_speedup
from repro.core.zero_round import ZeroRoundMemo, is_zero_round_solvable
from repro.engine import Engine, EngineConfig
from repro.engine.cache import SpeedupCache
from repro.utils import jsonio
from repro.utils.jsonio import JsonStore


def _decode_int(key, envelope):
    value = envelope.get("value")
    return value if isinstance(value, int) else None


def _store(directory=None, maxsize=8, **bounds):
    return JsonStore(
        "value", lambda value: value, _decode_int,
        maxsize=maxsize, directory=directory, **bounds,
    )


def test_store_evicts_the_least_recently_used_beyond_maxsize():
    store = _store(maxsize=2)
    store.put("a", 1)
    store.put("b", 2)
    assert store.get("a") == 1  # refreshes "a"
    store.put("c", 3)
    assert (store.get("a"), store.get("b"), store.get("c")) == (1, None, 3)
    assert len(store) == 2


def test_store_weight_bound_always_keeps_the_newest_entry():
    store = _store(weight=lambda value: value, max_weight=10)
    store.put("a", 4)
    store.put("b", 5)
    store.put("huge", 20)  # alone over the bound, yet it survives
    assert [store.get(key) for key in ("a", "b", "huge")] == [None, None, 20]
    store.put("c", 1)
    assert (store.get("huge"), store.get("c")) == (None, 1)
    store.put("c", 9)  # replacing re-weighs instead of double counting
    store.put("d", 1)
    assert (store.get("c"), store.get("d")) == (9, 1)


def test_store_writes_the_flattened_name_and_the_v1_envelope(tmp_path):
    store = _store(tmp_path)
    store.persist("kind:canon_abc", 7)
    path = tmp_path / "kind_canon_abc.json"
    assert store.path_for("kind:canon_abc") == path
    assert json.loads(path.read_text()) == {"key": "kind:canon_abc", "value": 7, "version": 1}
    assert len(store) == 0  # persisting alone never touches memory
    assert _store(tmp_path).get("kind:canon_abc") == 7


@pytest.mark.parametrize(
    "text", ["", "[7]", '{"value": "seven"}', "{not json", '{"version": 1}']
)
def test_store_reads_untrusted_files_as_misses(tmp_path, text):
    (tmp_path / "k.json").write_text(text)
    store = _store(tmp_path)
    assert store.get("k") is None
    assert len(store) == 0


def test_store_without_directory_never_touches_disk(tmp_path):
    store = _store()
    store.persist("k", 1)
    assert store.get("k") is None
    assert store.directory is None and store.store_failures == 0


def test_store_failed_write_only_counts(tmp_path):
    store = _store(tmp_path)
    store.put("k", 1)
    jsonio.set_write_fault_hook(lambda path: "enospc")
    try:
        store.persist("k", 1)
    finally:
        jsonio.set_write_fault_hook(None)
    assert store.store_failures == 1
    assert not (tmp_path / "k.json").exists()
    assert store.get("k") == 1
    store.clear()
    assert store.store_failures == 0 and len(store) == 0


def test_store_records_inserts_including_disk_loads(tmp_path):
    _store(tmp_path).persist("disk", 5)
    store = _store(tmp_path)
    assert store.drain_recorded() == ()  # not recording yet
    store.put("before", 1)
    store.start_recording()
    store.put("memory", 2)
    assert store.get("disk") == 5
    assert store.get("memory") == 2  # a memory hit is not an insert
    assert store.drain_recorded() == (("memory", 2), ("disk", 5))
    assert store.drain_recorded() == ()


def test_store_bookkeeping_survives_concurrent_writers():
    """More writers than cores, switching often: no lost or torn update."""
    store = _store(maxsize=16, weight=lambda value: value % 7, max_weight=40)
    store.start_recording()
    threads = [
        threading.Thread(
            target=lambda t=t: [store.put(f"{t}:{i % 24}", i) for i in range(400)]
        )
        for t in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(store.drain_recorded()) == 8 * 400
    live = dict(store._memory)
    assert 1 <= len(live) <= 16
    assert store._total_weight == sum(value % 7 for value in live.values())
    assert store._total_weight <= 40 or len(live) == 1


@pytest.mark.parametrize("owner", ["speedup", "zero_round"])
def test_hand_written_v1_envelope_is_a_hit(tmp_path, sc3, owner):
    """Files in the v1 format, however they were written, serve as hits."""
    if owner == "speedup":
        key = SpeedupCache._key(canonical_form(sc3), True)
        directory, field = tmp_path, "result"
        payload = compute_speedup(sc3).to_dict()
    else:
        key = ZeroRoundMemo.key_for(sc3, orientations=True)
        directory, field = tmp_path / "zero_round", "solvable"
        payload = is_zero_round_solvable(sc3, orientations=True)
    directory.mkdir(exist_ok=True)
    envelope = {"version": 1, "key": key, field: payload}
    (directory / (key.replace(":", "_") + ".json")).write_text(json.dumps(envelope))

    engine = Engine(EngineConfig(cache_dir=tmp_path))
    if owner == "speedup":
        assert engine.speedup(sc3).to_dict() == payload
        stats = engine.cache_stats()
    else:
        assert engine.zero_round_memo.check(sc3) is payload
        stats = engine.zero_round_stats()
    assert stats == {"hits": 1, "misses": 0, "entries": 1, "store_failures": 0}
