"""Chaos suite: scripted faults against the resilient execution tier.

Every test runs a *deterministic* fault plan (``repro.engine.faultinject``)
and asserts the recovery contract:

* worker crashes and hangs are survived -- results and cache accounting are
  byte-identical to a fault-free run, with the recovery work visible in
  ``last_batch_stats()``;
* poison tasks (faults on every attempt) are quarantined as structured
  :class:`~repro.engine.resilience.TaskFailure` slots instead of killing
  the batch;
* disk faults (ENOSPC, torn writes) never raise and never clobber the
  previously stored entry -- they surface as ``store_failures``;
* a dead single-flight leader cannot strand its waiters;
* interrupts leave no stale cache temp files behind;
* a checkpointed search killed mid-flight resumes to a byte-identical,
  independently verified result -- in both directions, since the lower-bound
  search and the upper-bound chase share one checkpoint implementation.

The CI ``fault-matrix`` job re-runs this file under
``REPRO_EXECUTOR=thread`` and ``=process``; tests that exercise
backend-generic behaviour deliberately use the environment's default
executor so both legs differ.
"""

from __future__ import annotations

import concurrent.futures
import json
import subprocess
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, fields
from typing import Any

import pytest

from repro.core.limits import EngineLimitError
from repro.engine import (
    Engine,
    EngineConfig,
    RetryPolicy,
    SpeedupCache,
    TaskFailure,
    parse_fault_plan,
)
from repro.engine import faultinject
from repro.engine.resilience import is_transient_fault
from repro.search import ChaseStats, SearchStats
from repro.problems import (
    coloring,
    mis,
    sinkless_coloring,
    sinkless_orientation,
)
from repro.utils.jsonio import TMP_MARKER


@pytest.fixture(autouse=True)
def _deactivate_fault_plan():
    """Fault plans activate process-globally; never leak across tests."""
    yield
    faultinject.activate(None)


def _cheap_batch():
    # Ten problems that each derive in well under a second, so injected
    # hangs/deadlines are unambiguous.
    return [
        sinkless_coloring(3),
        sinkless_orientation(3),
        mis(3),
        coloring(3, 2),
        coloring(4, 2),
        sinkless_coloring(5),
        sinkless_orientation(5),
        sinkless_coloring(4),
        sinkless_orientation(4),
        mis(2),
    ]


def _dicts(results):
    return [r.to_dict() for r in results]


# ------------------------------------------------------------ plan grammar --


def test_parse_fault_plan_grammar():
    plan = parse_fault_plan("crash@1, hang@3*2; flake@0")
    kinds = [(s.kind, s.index, s.count) for s in plan.specs]
    assert kinds == [("crash", 1, 1), ("hang", 3, 2), ("flake", 0, 1)]
    assert parse_fault_plan(None) is None
    assert parse_fault_plan("   ") is None
    assert parse_fault_plan(",,") is None


@pytest.mark.parametrize(
    "bad",
    ["bogus@1", "crash", "crash@", "crash@x", "crash@-1", "crash@1*0", "crash@1*x"],
)
def test_parse_fault_plan_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_fault_plan(bad)


def test_config_validates_fault_plan_loudly():
    with pytest.raises(ValueError):
        EngineConfig(fault_plan="nope@1")


def test_config_reads_fault_plan_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_PLAN", "flake@0")
    assert EngineConfig().fault_plan == "flake@0"
    monkeypatch.delenv("REPRO_FAULT_PLAN")
    assert EngineConfig().fault_plan is None


def test_task_faults_are_pure_in_index_and_attempt():
    plan = parse_fault_plan("crash@2*2")
    assert plan.task_fault(2, 0) == "crash"
    assert plan.task_fault(2, 1) == "crash"
    assert plan.task_fault(2, 2) is None  # later attempts run clean
    assert plan.task_fault(1, 0) is None
    # Re-asking is idempotent: the parent owns attempt accounting.
    assert plan.task_fault(2, 0) == "crash"


# ------------------------------------------------------------ retry policy --


def test_retry_policy_validation_and_backoff():
    policy = RetryPolicy(backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.3)
    assert [policy.backoff_s(a) for a in range(4)] == [0.1, 0.2, 0.3, 0.3]
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(task_timeout_s=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)


def test_transient_fault_taxonomy():
    assert is_transient_fault(OSError("disk"))
    assert is_transient_fault(faultinject.InjectedFault("scripted"))
    assert is_transient_fault(TimeoutError())
    assert is_transient_fault(concurrent.futures.TimeoutError())
    assert is_transient_fault(EOFError())
    assert is_transient_fault(concurrent.futures.BrokenExecutor())
    # Deterministic failures must NOT be retried: same input, same outcome.
    assert not is_transient_fault(EngineLimitError("budget"))
    assert not is_transient_fault(ValueError("bug"))
    assert not is_transient_fault(KeyboardInterrupt())


# ----------------------------------------------------- crash/hang recovery --


def test_crash_and_hang_batch_matches_fault_free():
    """Acceptance: 2 crashes + 1 hang into a 10-problem process batch."""
    probs = _cheap_batch()

    baseline = Engine(EngineConfig(executor="process", max_workers=4))
    expected = _dicts(baseline.speedup_many(probs))

    chaos = Engine(
        EngineConfig(
            executor="process",
            max_workers=4,
            fault_plan="crash@1,crash@4,hang@7",
            retry_policy=RetryPolicy(
                task_timeout_s=5.0, backoff_base_s=0.01, max_pool_rebuilds=10
            ),
        )
    )
    results = chaos.speedup_many(probs)

    assert _dicts(results) == expected
    assert chaos.cache_stats() == baseline.cache_stats()
    stats = chaos.last_batch_stats()
    assert stats.pool_rebuilds >= 2  # two crashes each broke a pool
    # The hang is reclaimed either by its deadline or by a crash-triggered
    # pool kill that caught the hung worker -- both end in a requeue.
    assert stats.retries + stats.requeues >= 3
    assert stats.quarantined == 0 and stats.degradations == 0


def test_fault_counters_zero_on_clean_run():
    engine = Engine(EngineConfig(executor="process", max_workers=2))
    engine.speedup_many(_cheap_batch()[:4])
    stats = engine.last_batch_stats()
    assert (
        stats.retries,
        stats.requeues,
        stats.pool_rebuilds,
        stats.deadline_hits,
        stats.quarantined,
        stats.degradations,
    ) == (0, 0, 0, 0, 0, 0)


def test_poison_task_quarantined_not_batch_fatal():
    """A task that crashes its worker on every attempt becomes a structured
    failure slot; every other task still completes."""
    probs = _cheap_batch()[:5]
    engine = Engine(
        EngineConfig(
            executor="process",
            max_workers=2,
            fault_plan="crash@2*9",  # far more crashes than retries
            retry_policy=RetryPolicy(max_retries=2, backoff_base_s=0.01),
        )
    )
    results = engine.speedup_many(probs)
    assert isinstance(results[2], TaskFailure)
    assert results[2].kind == "crash"
    assert results[2].index == 2
    assert results[2].attempts == 3  # initial + max_retries
    for i, value in enumerate(results):
        if i != 2:
            assert not isinstance(value, TaskFailure), i
    stats = engine.last_batch_stats()
    assert stats.quarantined == 1
    assert stats.pool_rebuilds >= 3
    # The failure is serializable for reports.
    assert results[2].to_dict()["kind"] == "crash"


def test_deadline_exceeded_task_quarantined():
    probs = _cheap_batch()[:4]
    engine = Engine(
        EngineConfig(
            executor="process",
            max_workers=2,
            fault_plan="hang@1*9",
            retry_policy=RetryPolicy(
                max_retries=1, task_timeout_s=1.0, backoff_base_s=0.01
            ),
        )
    )
    results = engine.speedup_many(probs)
    assert isinstance(results[1], TaskFailure)
    assert results[1].kind == "deadline"
    stats = engine.last_batch_stats()
    assert stats.deadline_hits >= 2
    assert stats.quarantined == 1


def test_flake_is_retried_in_band():
    """Transient in-task faults retry on EVERY backend (this test follows
    REPRO_EXECUTOR, so the CI fault matrix exercises thread and process)."""
    probs = _cheap_batch()[:4]
    serial = Engine(EngineConfig(executor="serial"))
    expected = _dicts(serial.speedup_many(probs))

    engine = Engine(
        EngineConfig(
            fault_plan="flake@2*2",
            retry_policy=RetryPolicy(max_retries=2, backoff_base_s=0.001),
        )
    )
    results = engine.speedup_many(probs)
    assert _dicts(results) == expected
    assert engine.last_batch_stats().retries == 2


def test_flake_exhaustion_is_structured_failure():
    probs = _cheap_batch()[:3]
    engine = Engine(
        EngineConfig(
            fault_plan="flake@0*9",
            retry_policy=RetryPolicy(max_retries=1, backoff_base_s=0.001),
        )
    )
    results = engine.speedup_many(probs)
    assert isinstance(results[0], TaskFailure)
    assert results[0].kind == "error"
    assert results[0].attempts == 2
    assert "injected transient fault" in results[0].message
    assert not isinstance(results[1], TaskFailure)
    assert engine.last_batch_stats().retries >= 1


def test_engine_limit_error_is_not_retried_or_quarantined():
    """Deterministic EngineLimitError must propagate exactly as before --
    resilience only absorbs *infrastructure* faults."""
    engine = Engine(
        EngineConfig(
            max_candidate_configs=1,
            retry_policy=RetryPolicy(max_retries=5, backoff_base_s=0.001),
        )
    )
    with pytest.raises(EngineLimitError):
        engine.speedup_many([sinkless_coloring(3)])


# --------------------------------------------------------------- interrupt --


def test_interrupt_propagates_and_leaves_no_stale_tmp_files(tmp_path):
    cache_dir = tmp_path / "cache"
    engine = Engine(
        EngineConfig(
            executor="process",
            max_workers=2,
            cache_dir=cache_dir,
            fault_plan="interrupt@2",
        )
    )
    # Plant a leftover temp file from a "previous" writer that is long dead.
    probe = subprocess.Popen([sys.executable, "-c", "pass"])
    probe.wait()
    cache_dir.mkdir(parents=True, exist_ok=True)
    stale = cache_dir / f"entry.json{TMP_MARKER}{probe.pid}.1"
    stale.write_text("{}")

    with pytest.raises(KeyboardInterrupt):
        engine.speedup_many(_cheap_batch()[:5])

    leftovers = [p.name for p in cache_dir.rglob(f"*{TMP_MARKER}*")]
    assert leftovers == []


# ------------------------------------------------------------- disk faults --


def test_enospc_keeps_prior_entry_and_counts_store_failure(tmp_path):
    cache_dir = tmp_path / "cache"
    prob = sinkless_coloring(3)
    other = sinkless_orientation(3)

    healthy = Engine(EngineConfig(cache_dir=cache_dir))
    healthy.speedup(prob)
    entry_files = {p: p.read_bytes() for p in cache_dir.glob("*.json")}
    assert entry_files, "healthy store produced no entry"

    sick = Engine(EngineConfig(cache_dir=cache_dir, fault_plan="enospc@0*100"))
    result = sick.speedup(other)  # derivation succeeds; only the store fails
    assert result.to_dict()
    assert sick.cache_stats()["store_failures"] >= 1
    # Every pre-existing entry is bit-for-bit intact.
    for path, payload in entry_files.items():
        assert path.read_bytes() == payload


def test_corrupt_write_reads_back_as_miss(tmp_path):
    cache_dir = tmp_path / "cache"
    prob = sinkless_coloring(3)

    sick = Engine(EngineConfig(cache_dir=cache_dir, fault_plan="corrupt@0*100"))
    expected = sick.speedup(prob).to_dict()
    faultinject.activate(None)

    fresh = Engine(EngineConfig(cache_dir=cache_dir))
    assert fresh.speedup(prob).to_dict() == expected
    # The torn entry was unreadable, so the fresh engine recomputed.
    assert fresh.cache_stats()["misses"] == 1
    assert fresh.cache_stats()["hits"] == 0


def test_zero_round_memo_counts_store_failures(tmp_path):
    engine = Engine(
        EngineConfig(
            cache_dir=tmp_path / "cache",
            zero_round_memo=True,
            fault_plan="enospc@0*100",
        )
    )
    engine.search_lower_bound(sinkless_orientation(3), max_steps=3)
    memo_stats = engine.zero_round_stats()
    assert memo_stats["store_failures"] >= 1


# ------------------------------------------------------------- latch death --


def test_dead_leader_does_not_strand_waiters(monkeypatch):
    """A single-flight leader whose thread dies without store/abandon is
    detected by its waiters, who inherit leadership instead of hanging."""
    monkeypatch.setattr("repro.engine.cache.LATCH_PROBE_S", 0.05)
    cache = SpeedupCache()
    prob = sinkless_coloring(3)

    def doomed_leader():
        hit, _form, _key = cache.acquire(prob, simplify=True)
        assert hit is None  # leadership taken...
        # ...and the thread dies here: no store(), no abandon().

    leader = threading.Thread(target=doomed_leader)
    leader.start()
    leader.join()

    outcome = {}

    def waiter():
        hit, _form, key = cache.acquire(prob, simplify=True)
        outcome["hit"] = hit
        outcome["key"] = key
        if hit is None:
            cache.abandon(key)

    rescue = threading.Thread(target=waiter)
    rescue.start()
    rescue.join(timeout=10.0)
    assert not rescue.is_alive(), "waiter stranded behind a dead leader"
    assert outcome["hit"] is None  # inherited leadership (no entry stored)
    assert cache.concurrency_stats()["latch_recoveries"] == 1.0


# ------------------------------------------------------- checkpoint/resume --


@dataclass(frozen=True)
class _Direction:
    """One search direction, as the checkpoint tests drive it."""

    prefix: str
    fanout: str
    stats: type
    run: Callable[..., Any]
    caps: dict[str, int]

    def engine(self, **config):
        return Engine(EngineConfig(**self.caps, **config))


_LOWER = _Direction(
    prefix="search",
    fanout="max_moves",
    stats=SearchStats,
    run=lambda engine, **knobs: engine.search_lower_bound(
        sinkless_orientation(3), max_steps=6, **knobs
    ),
    caps={},
)
# 3-coloring[d=2] under these caps exhausts after more than one depth, so an
# abort after depth 1 leaves a chase checkpoint behind.
_UPPER = _Direction(
    prefix="chase",
    fanout="max_hardenings",
    stats=ChaseStats,
    run=lambda engine, **knobs: engine.search_upper_bound(
        coloring(3, 2), max_steps=3, **knobs
    ),
    caps={"max_derived_labels": 2_000, "max_candidate_configs": 50_000},
)
_DIRECTIONS = [pytest.param(_LOWER, id="lower"), pytest.param(_UPPER, id="upper")]


def _result_json(outcome, *, memo_hits=True):
    payload = outcome.to_dict()
    if not memo_hits:
        # A fallback run reads the zero-round memo its aborted predecessor
        # persisted, so only its memo *hit* count may differ.
        del payload["stats"]["zero_round_memo_hits"]
    return json.dumps(payload, sort_keys=True)


def _abort_after_depth_1(direction, cache_dir, **knobs):
    doomed = direction.engine(cache_dir=cache_dir, fault_plan="searchabort@1")
    with pytest.raises(KeyboardInterrupt):
        direction.run(doomed, checkpoint=True, **knobs)
    faultinject.activate(None)
    (checkpoint,) = (cache_dir / "checkpoints").glob("*.json")
    return checkpoint


@pytest.mark.parametrize("direction", _DIRECTIONS)
def test_checkpoint_resume_reproduces_identical_certificate(tmp_path, direction):
    """Acceptance: a checkpointed run killed after depth 1 resumes to a
    byte-identical result whose certificate (if any) verifies."""
    ref = direction.run(direction.engine(cache_dir=tmp_path / "ref"))
    assert ref.stats.states_expanded >= 2

    cache_dir = tmp_path / "ck"
    _abort_after_depth_1(direction, cache_dir)
    resumed = direction.run(
        direction.engine(cache_dir=cache_dir), checkpoint=True, resume=True
    )
    assert _result_json(resumed) == _result_json(ref)
    if resumed.certificate is not None:
        assert resumed.certificate.verify().valid
    # Success consumes the checkpoint.
    assert list((cache_dir / "checkpoints").glob("*.json")) == []


@pytest.mark.parametrize("direction", _DIRECTIONS)
def test_checkpoint_payload_keys_and_filename_are_pinned(tmp_path, direction):
    """Resuming a checkpoint an earlier release wrote depends on this shape."""
    checkpoint = _abort_after_depth_1(direction, tmp_path / "c")
    assert checkpoint.name.startswith(f"{direction.prefix}_canon2_")
    payload = json.loads(checkpoint.read_text())
    top = {"version", "fingerprint", "depth", "beam", "counters"}
    state = {"problem", "steps", "chain_keys"}
    if direction is not _LOWER:
        top.add("visited")
    assert set(payload) == top
    assert payload["version"] == 1 and payload["depth"] == 1
    assert set(payload["fingerprint"]) == {
        "root_key", "max_steps", "beam_width", direction.fanout, "budget",
        "orientations",
    }
    assert checkpoint.name == f"{direction.prefix}_" + (
        payload["fingerprint"]["root_key"].replace(":", "_") + ".json"
    )
    assert all(set(entry) == state for entry in payload["beam"])
    assert set(payload["counters"]) == {f.name for f in fields(direction.stats)}


def test_resume_without_checkpoint_is_a_fresh_run(tmp_path):
    engine = Engine(EngineConfig(cache_dir=tmp_path / "c"))
    prob = sinkless_orientation(3)
    outcome = engine.search_lower_bound(prob, max_steps=4, checkpoint=True, resume=True)
    assert outcome.certificate is not None
    assert outcome.certificate.verify().valid


@pytest.mark.parametrize("direction", _DIRECTIONS)
def test_corrupt_checkpoint_falls_back_to_fresh_run(tmp_path, direction):
    cache_dir = tmp_path / "c"
    checkpoint = _abort_after_depth_1(direction, cache_dir)
    checkpoint.write_text("{not json")

    engine = direction.engine(cache_dir=cache_dir)
    outcome = direction.run(engine, checkpoint=True, resume=True)
    reference = direction.run(direction.engine())
    assert _result_json(outcome, memo_hits=False) == _result_json(
        reference, memo_hits=False
    )


@pytest.mark.parametrize("direction", _DIRECTIONS)
def test_checkpoint_fingerprint_mismatch_ignored(tmp_path, direction):
    """A checkpoint taken under different search parameters must not be
    resumed into -- wrong beam, wrong answer."""
    cache_dir = tmp_path / "c"
    _abort_after_depth_1(direction, cache_dir, beam_width=2)

    engine = direction.engine(cache_dir=cache_dir)
    outcome = direction.run(engine, checkpoint=True, resume=True, beam_width=3)
    reference = direction.run(direction.engine(), beam_width=3)
    assert _result_json(outcome, memo_hits=False) == _result_json(
        reference, memo_hits=False
    )
    if outcome.certificate is not None:
        assert outcome.certificate.verify().valid


def test_search_survives_quarantined_expansion_tasks():
    """A TaskFailure inside the expansion batch is counted and skipped, not
    fatal to the search.  ``flake`` fires on every backend, so this holds
    even when small expansion batches take the serial shortcut."""
    engine = Engine(
        EngineConfig(
            fault_plan="flake@0*99",
            retry_policy=RetryPolicy(max_retries=1, backoff_base_s=0.001),
        )
    )
    outcome = engine.search_lower_bound(sinkless_orientation(3), max_steps=4)
    assert outcome.stats.task_failures >= 1
    # Killing candidate 0 of every expansion starves the beam; the search
    # still terminates cleanly instead of raising.
    assert outcome.kind is not None
