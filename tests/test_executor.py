"""Execution backends: differential equivalence, coalescing, pickling.

The two backends (``serial`` / ``process``) must be observationally
equivalent: same results up to the canonical hash, same cache accounting,
same search outcomes.  ``serial`` is the reference; the differential tests
here hold ``process`` to it.  The coalescing tests prove that a batch of
renamed twins derives once on either backend, the thread-safety test that
caller threads racing on one engine get correct results, and the process
tests prove real pickle round-trips through real worker processes.
"""

import json
import os
import pickle
import threading

import pytest

from repro.core.canonical import canonical_hash
from repro.core.speedup import EngineLimitError
from repro.engine import Engine, EngineConfig
from repro.engine.executor import (
    BatchStats,
    ChasePayload,
    ChaseTask,
    ExpandTask,
    RunTask,
    SpeedupTask,
    execute_task,
)
from repro.problems.catalog import get_problem

BACKENDS = ("serial", "process")


def _engine(backend, **overrides):
    overrides.setdefault("max_workers", 2)
    return Engine(EngineConfig(executor=backend, **overrides))


def _renamed(problem, prefix):
    mapping = {label: f"{prefix}{i}" for i, label in enumerate(sorted(problem.labels))}
    return problem.renamed(mapping, name=f"{problem.name}-{prefix}")


# -- configuration -------------------------------------------------------------


def test_executor_name_validated():
    with pytest.raises(ValueError):
        EngineConfig(executor="bogus")
    with pytest.raises(ValueError):
        EngineConfig(executor="thread")


def test_executor_env_default(monkeypatch):
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    assert EngineConfig().executor == "serial"
    monkeypatch.setenv("REPRO_EXECUTOR", "process")
    assert EngineConfig().executor == "process"


# -- differential backend equivalence -----------------------------------------


@pytest.fixture()
def mixed_batch(sc3, so3, mis_d3):
    # Two distinct problems, a renamed twin, and an exact repeat: exercises
    # miss, coalesce, and hit paths in one batch.
    return [sc3, so3, _renamed(sc3, "z"), sc3, mis_d3]


def test_speedup_many_backends_agree(mixed_batch):
    reference = None
    for backend in BACKENDS:
        engine = _engine(backend)
        results = engine.speedup_many(mixed_batch)
        assert [r.original for r in results] == mixed_batch
        hashes = [canonical_hash(r.full) for r in results]
        stats = engine.cache_stats()
        if reference is None:
            reference = (hashes, stats)
        else:
            assert (hashes, stats) == reference, backend


def test_speedup_many_cache_accounting_matches_serial(mixed_batch):
    # hits/misses/entries must be what a sequential loop reports: one miss
    # per distinct canonical key, one hit per repeat (twins included).
    for backend in BACKENDS:
        engine = _engine(backend)
        engine.speedup_many(mixed_batch)
        assert engine.cache_stats() == {"hits": 2, "misses": 3, "entries": 3, "store_failures": 0}, backend


def test_run_many_backends_agree_per_step(sc3, so3):
    reference = None
    for backend in BACKENDS:
        engine = _engine(backend)
        results = engine.run_many([sc3, so3], max_steps=2)
        shape = [
            [
                (step.index, canonical_hash(step.problem), step.zero_round_solvable)
                for step in result.steps
            ]
            for result in results
        ]
        if reference is None:
            reference = shape
        else:
            assert shape == reference, backend


def _search_outcome(result, bound):
    stats = result.stats.to_dict()
    # Memo *hit* counts are timing-dependent under concurrency (two
    # simultaneous evaluations of one fresh key both miss); every other
    # counter -- and the certificate itself -- must match exactly.
    stats.pop("zero_round_memo_hits")
    certificate = result.certificate
    certificate_json = (
        None if certificate is None else json.dumps(certificate.to_dict(), sort_keys=True)
    )
    return (result.kind, bound, certificate_json, stats)


# Under these caps the superweak-2-coloring[2] chase generates hardenings,
# trips a size limit and prunes duplicates; indegree-handshake[2] reaches a
# 1-round upper bound.
_CHASE_CAPS = dict(max_derived_labels=500, max_candidate_configs=20_000)
_CHASED = (("superweak-2-coloring", 2), ("indegree-handshake", 2))


def test_search_backends_agree(so3):
    reference = None
    for backend in BACKENDS:
        result = _engine(backend).search_lower_bound(so3, max_steps=3)
        outcomes = [_search_outcome(result, result.bound)]
        chase_engine = _engine(backend, **_CHASE_CAPS)
        for name, delta in _CHASED:
            chase = chase_engine.search_upper_bound(get_problem(name, delta), max_steps=3)
            outcomes.append(_search_outcome(chase, chase.rounds))
        if reference is None:
            reference = outcomes
        else:
            assert outcomes == reference, backend
    superweak, handshake = reference[1], reference[2]
    assert superweak[3]["hardenings_generated"] > 0
    assert superweak[3]["limit_hits"] > 0
    assert superweak[3]["duplicates_pruned"] > 0
    assert handshake[:2] == ("upper-bound", 1)


def test_batch_stats_recorded_per_backend(mixed_batch):
    for backend in BACKENDS:
        engine = _engine(backend)
        assert engine.last_batch_stats() is None
        engine.speedup_many(mixed_batch)
        stats = engine.last_batch_stats()
        assert isinstance(stats, BatchStats)
        assert stats.backend == backend
        assert stats.tasks == len(mixed_batch)
        assert stats.wall_s > 0
        assert 0.0 <= stats.serial_fraction <= 1.0
        payload = stats.to_dict()
        assert payload["cache_misses"] == 3
        assert payload["backend"] == backend


# -- coalescing and thread safety ---------------------------------------------


def test_sixteen_simultaneous_renamed_twins_share_one_engine(sc3):
    """16 caller threads race 16 renamed twins on one engine.

    Misses on one key are not coalesced in-process, so several threads may
    derive; each must still get a correct result and the cache must end
    with the one entry.
    """
    engine = Engine(EngineConfig(executor="serial"))
    twins = [_renamed(sc3, f"t{i}x") for i in range(16)]
    barrier = threading.Barrier(16)
    results = [None] * 16
    errors = []

    def request(index):
        barrier.wait()
        try:
            results[index] = engine.speedup(twins[index])
        except BaseException as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=request, args=(i,)) for i in range(16)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors
    for twin, result in zip(twins, results):
        assert result.original == twin
    assert len({canonical_hash(result.full) for result in results}) == 1
    stats = engine.cache_stats()
    assert stats["entries"] == 1
    assert stats["hits"] + stats["misses"] == 16


def test_speedup_many_coalesces_twins(sc3):
    for backend in BACKENDS:
        engine = _engine(backend)
        twins = [_renamed(sc3, f"m{i}x") for i in range(8)]
        results = engine.speedup_many(twins)
        stats = engine.cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 7, backend
        assert len({canonical_hash(r.full) for r in results}) == 1, backend


# -- the process backend -------------------------------------------------------


def test_process_results_pickle_round_trip_through_worker(sc3, so3):
    engine = _engine("process")
    results = engine.speedup_many([sc3, so3])
    for result, problem in zip(results, [sc3, so3]):
        assert result.original == problem
        # The returned payload crossed a real process boundary already; it
        # must also survive another explicit round trip (frozen views and
        # all).
        clone = pickle.loads(pickle.dumps(result))
        assert clone.full == result.full
        assert dict(clone.full_meaning) == dict(result.full_meaning)


def test_process_merges_entries_into_parent_cache(sc3, so3):
    engine = _engine("process")
    engine.speedup_many([sc3, so3])
    assert engine.cache_stats() == {"hits": 0, "misses": 2, "entries": 2, "store_failures": 0}
    # Both entries now serve in-memory hits without new derivations.
    engine.speedup(sc3)
    engine.speedup(_renamed(so3, "q"))
    assert engine.cache_stats()["hits"] == 2
    assert engine.cache_stats()["misses"] == 2


def test_process_merges_memo_verdicts_from_search(so3):
    engine = _engine("process")
    result = engine.search_lower_bound(so3, max_steps=2)
    assert result.kind == "fixed-point"
    # The workers' 0-round verdicts were merged back into the parent memo.
    assert engine.zero_round_stats()["entries"] > 0


def test_process_limit_error_crosses_boundary_with_attributes(sc3):
    engine = _engine("process", max_derived_labels=1, cache=False)
    with pytest.raises(EngineLimitError) as excinfo:
        engine.speedup_many([sc3, _renamed(sc3, "w")])
    assert excinfo.value.limit_name == "max_derived_labels"
    assert excinfo.value.limit == 1
    assert excinfo.value.observed is not None


def test_process_shares_disk_cache_with_workers(tmp_path, sc3, so3):
    engine = _engine("process", cache_dir=tmp_path)
    engine.speedup_many([sc3, so3])
    # Workers persisted their derivations into the shared directory ...
    fresh = Engine(EngineConfig(cache_dir=tmp_path))
    fresh.speedup(sc3)
    # ... so a brand-new engine warm-starts from disk.
    assert fresh.cache_stats() == {"hits": 1, "misses": 0, "entries": 1, "store_failures": 0}


def test_tasks_and_payloads_pickle(sc3):
    for task in (
        SpeedupTask(sc3, True),
        RunTask(sc3, 2),
        ExpandTask(sc3, max_moves=4, beam_width=2),
        ChaseTask(sc3, max_hardenings=2),
    ):
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task


def test_execute_task_dispatch(sc3):
    engine = _engine("serial")
    speedup_value = execute_task(engine, SpeedupTask(sc3, True))
    assert speedup_value.original == sc3
    run_value = execute_task(engine, RunTask(sc3, 1))
    assert run_value.steps[0].problem == sc3
    expand_value = execute_task(engine, ExpandTask(sc3, max_moves=2, beam_width=2))
    assert expand_value.options[0].key == canonical_hash(
        expand_value.result.full.compressed()
    )
    chase_value = execute_task(engine, ChaseTask(sc3, max_hardenings=2))
    assert isinstance(chase_value, ChasePayload)
    assert len(chase_value.options) == chase_value.hardenings_generated + 1
    head = chase_value.options[0]
    assert head.move is None
    assert head.key == canonical_hash(head.result.full.compressed())
    assert pickle.loads(pickle.dumps(chase_value)).options[0].key == head.key


# -- parallel scaling (opt-in: needs real cores) -------------------------------


@pytest.mark.slow
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4 or os.environ.get("REPRO_BENCH_SCALING") != "1",
    reason="needs >=4 cores and REPRO_BENCH_SCALING=1",
)
def test_process_backend_scales_on_cpu_heavy_batch():
    import time

    from repro.problems.superweak import superweak
    from repro.problems.weak_coloring import weak_coloring_pointer

    base = [
        weak_coloring_pointer(3, 2),
        superweak(3, 2),
    ]
    problems = []
    for index in range(4):
        for problem in base:
            problems.append(_renamed(problem, f"s{index}x"))
    assert len(problems) >= 8

    def timed(workers):
        engine = Engine(
            EngineConfig(executor="process", max_workers=workers, cache=False)
        )
        start = time.perf_counter()
        engine.speedup_many(problems)
        return time.perf_counter() - start

    single = timed(1)
    quad = timed(4)
    assert single / quad >= 3.0, f"speedup only {single / quad:.2f}x"
