"""Tests for the unified Engine API: config, cache, batch, streaming."""

import pytest

from repro.core.canonical import are_isomorphic
from repro.core.speedup import EngineLimitError, compute_speedup
from repro.engine import Engine, EngineConfig, SpeedupCache, canonical_hash
from repro.problems.catalog import get_problem
from repro.problems.misc import mis
from repro.problems.sinkless import sinkless_coloring


@pytest.fixture()
def engine():
    return Engine()


def _renamed(problem, prefix="z", name=None):
    mapping = {label: f"{prefix}{i}" for i, label in enumerate(sorted(problem.labels))}
    return problem.renamed(mapping, name=name or f"{problem.name}-renamed")


# -- configuration ------------------------------------------------------------


def test_config_defaults_match_legacy_constants():
    from repro.core.speedup import MAX_CANDIDATE_CONFIGS, MAX_DERIVED_LABELS

    config = EngineConfig()
    assert config.max_derived_labels == MAX_DERIVED_LABELS
    assert config.max_candidate_configs == MAX_CANDIDATE_CONFIGS


def test_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(max_derived_labels=0)
    with pytest.raises(ValueError):
        EngineConfig(cache_size=0)
    with pytest.raises(ValueError):
        EngineConfig(max_workers=0)


def test_tight_limits_raise(sc3):
    tight = Engine(EngineConfig(max_candidate_configs=1))
    with pytest.raises(EngineLimitError) as excinfo:
        tight.speedup(sc3)
    error = excinfo.value
    assert error.limit_name == "max_candidate_configs"
    assert error.limit == 1
    assert error.observed > error.limit


def test_derived_label_limit_reports_observed_count(mis_d3):
    tight = Engine(EngineConfig(max_derived_labels=1))
    with pytest.raises(EngineLimitError) as excinfo:
        tight.speedup(mis_d3)
    error = excinfo.value
    assert error.limit_name == "max_derived_labels"
    assert error.limit == 1
    # The earliest derived-label guard is now the incremental closed-set
    # abort in the half step; only *usable* closed sets count against the
    # limit (mis has 3 usable sets among its initial generators).
    assert error.observed == 3
    assert "usable Galois-closed" in str(error)


def test_six_coloring_trips_the_derived_label_cap_under_default_caps():
    with pytest.raises(EngineLimitError) as excinfo:
        Engine().speedup(get_problem("6-coloring", 2))
    error = excinfo.value
    assert error.limit_name == "max_derived_labels"
    assert error.observed > error.limit == EngineConfig().max_derived_labels


def test_filter_enumeration_guard_still_fires(mis_d3):
    # With the usable closed-set count inside the limit (mis has 4), the
    # full step's filter enumeration guard keeps its legacy trip point and
    # observed count.
    tight = Engine(EngineConfig(max_derived_labels=4))
    with pytest.raises(EngineLimitError) as excinfo:
        tight.speedup(mis_d3)
    error = excinfo.value
    assert error.limit_name == "max_derived_labels"
    assert error.limit == 4
    assert error.observed == 5  # the guard fires on the fifth filter
    assert "filters" in str(error)


def test_with_config_shares_cache(engine):
    raw = engine.with_config(simplify=False)
    assert raw.cache is engine.cache
    assert raw.config.simplify is False
    assert engine.config.simplify is True


def test_with_config_new_cache_policy_allocates_fresh_cache(engine, tmp_path):
    other = engine.with_config(cache_dir=tmp_path)
    assert other.cache is not engine.cache


def test_with_config_cache_knob_keeps_zero_round_memo(engine):
    # Regression: overriding a speedup-cache knob used to rebuild the engine
    # wholesale, silently discarding the warm 0-round memo with it.
    assert engine.zero_round_memo is not None
    other = engine.with_config(cache_size=64)
    assert other.cache is not engine.cache
    assert other.zero_round_memo is engine.zero_round_memo


def test_with_config_memo_knob_keeps_speedup_cache(engine):
    other = engine.with_config(zero_round_memo_size=16)
    assert other.zero_round_memo is not engine.zero_round_memo
    assert other.cache is engine.cache


def test_with_config_restated_knob_shares_everything(engine):
    # An override restating the current value changes nothing, so both
    # caches stay shared.
    other = engine.with_config(cache_size=engine.config.cache_size)
    assert other.cache is engine.cache
    assert other.zero_round_memo is engine.zero_round_memo


def test_with_config_cache_dir_rebuilds_both(engine, tmp_path):
    # cache_dir governs both stores (the memo's directory nests under it).
    other = engine.with_config(cache_dir=tmp_path)
    assert other.cache is not engine.cache
    assert other.zero_round_memo is not engine.zero_round_memo


def test_with_config_warm_memo_survives_cache_override(engine, sc3):
    engine.zero_round_solvable(sc3)
    warm = engine.zero_round_stats()["entries"]
    assert warm == 1
    other = engine.with_config(cache_max_weight=123_456)
    assert other.zero_round_stats()["entries"] == warm


# -- the content-addressed cache ----------------------------------------------


def test_cache_hit_returns_same_result(engine, sc3):
    first = engine.speedup(sc3)
    second = engine.speedup(sc3)
    assert second is first
    stats = engine.cache_stats()
    assert stats["hits"] == 1 and stats["misses"] == 1


def test_cache_miss_for_different_problems(engine, sc3, mis_d3):
    engine.speedup(sc3)
    engine.speedup(mis_d3)
    assert engine.cache_stats()["misses"] == 2


def test_cache_miss_across_simplify_modes(engine, sc3):
    engine.speedup(sc3, simplify=True)
    engine.speedup(sc3, simplify=False)
    assert engine.cache_stats() == {"hits": 0, "misses": 2, "entries": 2, "store_failures": 0}


def test_renamed_problem_hits_via_canonical_hash(engine, sc3):
    base = engine.speedup(sc3)
    renamed = _renamed(sc3)
    assert canonical_hash(renamed) == canonical_hash(sc3)
    hit = engine.speedup(renamed)
    assert engine.cache_stats()["hits"] == 1
    # The translated result is a genuine derivation of the renamed problem.
    assert hit.original == renamed
    fresh = compute_speedup(renamed)
    assert hit.half == fresh.half
    assert hit.half_meaning == fresh.half_meaning
    assert are_isomorphic(hit.full.compressed(), base.full.compressed())
    assert hit.full.name == f"{renamed.name}+1"


@pytest.mark.parametrize(
    "name, delta", [("sinkless-coloring", 3), ("weak-2-coloring", 3), ("4-coloring", 2)]
)
def test_renamed_hit_translates_full_meaning(engine, name, delta):
    from repro.core.certificate import _structured_form
    from repro.core.speedup import SpeedupResult

    problem = get_problem(name, delta)
    stored = engine.speedup(problem)
    labels = sorted(problem.labels)
    # Reversing the name order makes the label correspondence non-monotone.
    mapping = {label: f"t{len(labels) - i:03d}" for i, label in enumerate(labels)}
    twin = problem.renamed(mapping, name=f"{name}-twin")
    hit = engine.speedup(twin)
    assert engine.cache_stats()["hits"] == 1

    # Mapped back through the renaming, the hit's meanings are the stored
    # ones as sets (the translation may compose the renaming with an
    # automorphism, which permutes meanings among labels).
    back = {new: old for old, new in mapping.items()}
    half_back = {
        half: frozenset(back[member] for member in members)
        for half, members in hit.half_meaning.items()
    }
    assert set(half_back.values()) == set(stored.half_meaning.values())
    assert {
        frozenset(half_back[half] for half in members)
        for members in hit.full_meaning.values()
    } == {
        frozenset(stored.half_meaning[half] for half in members)
        for members in stored.full_meaning.values()
    }
    assert _structured_form(hit) == _structured_form(compute_speedup(twin))
    assert SpeedupResult.from_dict(hit.to_dict()) == hit


def test_cache_disabled(sc3):
    engine = Engine(EngineConfig(cache=False))
    first = engine.speedup(sc3)
    second = engine.speedup(sc3)
    assert first == second
    assert first is not second
    assert engine.cache_stats() == {"hits": 0, "misses": 0, "entries": 0, "store_failures": 0}


def test_clear_cache(engine, sc3):
    engine.speedup(sc3)
    engine.clear_cache()
    assert engine.cache_stats() == {"hits": 0, "misses": 0, "entries": 0, "store_failures": 0}
    engine.speedup(sc3)
    assert engine.cache_stats()["misses"] == 1


def test_cache_lru_eviction(sc3, mis_d3):
    engine = Engine(EngineConfig(cache_size=1))
    engine.speedup(sc3)
    engine.speedup(mis_d3)  # evicts sc3
    assert engine.cache_stats()["entries"] == 1
    engine.speedup(sc3)
    assert engine.cache_stats()["misses"] == 3


def test_cache_weight_bound_evicts(sc3, mis_d3):
    # A bound smaller than any entry still keeps the newest entry alive.
    engine = Engine(EngineConfig(cache_max_weight=1))
    engine.speedup(sc3)
    engine.speedup(mis_d3)
    assert engine.cache_stats()["entries"] == 1
    engine.speedup(mis_d3)
    assert engine.cache_stats()["hits"] == 1


def test_cached_result_meanings_are_read_only(engine, sc3):
    import pickle

    from repro.core.speedup import SpeedupResult, half_step

    def assert_read_only(meaning):
        with pytest.raises(TypeError):
            meaning["X"] = frozenset()
        with pytest.raises(TypeError):
            del meaning[next(iter(meaning))]

    result = engine.speedup(sc3)
    hit = engine.speedup(_renamed(sc3))
    fresh = compute_speedup(sc3)
    loaded = SpeedupResult.from_dict(result.to_dict())
    unpickled = pickle.loads(pickle.dumps(hit))
    for each in (result, hit, fresh, loaded, unpickled):
        assert_read_only(each.half_meaning)
        assert_read_only(each.full_meaning)
    assert_read_only(half_step(sc3).meaning)
    # The cache entry stays intact for later hits.
    assert engine.speedup(sc3) is result


def test_disk_cache_survives_processes(tmp_path, sc3):
    warm = Engine(EngineConfig(cache_dir=tmp_path))
    first = warm.speedup(sc3)
    assert list(tmp_path.glob("*.json"))

    # A fresh engine (fresh memory cache) sharing the directory hits.
    cold = Engine(EngineConfig(cache_dir=tmp_path))
    second = cold.speedup(sc3)
    assert cold.cache_stats()["hits"] == 1
    assert cold.cache_stats()["misses"] == 0
    assert second == first


def test_disk_cache_tolerates_corruption(tmp_path, sc3):
    engine = Engine(EngineConfig(cache_dir=tmp_path))
    engine.speedup(sc3)
    for path in tmp_path.glob("*.json"):
        path.write_text("not json at all {")
    fresh = Engine(EngineConfig(cache_dir=tmp_path))
    result = fresh.speedup(sc3)  # falls back to recomputing
    assert result.original == sc3
    assert fresh.cache_stats()["misses"] == 1


def test_shared_cache_object_between_engines(sc3):
    cache = SpeedupCache(maxsize=8)
    a = Engine(cache=cache)
    b = Engine(cache=cache)
    a.speedup(sc3)
    b.speedup(sc3)
    assert cache.stats()["hits"] == 1


def test_kernel_stats_ride_only_on_the_derived_object(tmp_path, sc3):
    import pickle

    from repro.core.speedup import SpeedupResult

    engine = Engine(EngineConfig(cache_dir=tmp_path))
    cold = engine.speedup(sc3)
    assert cold.kernel_stats is not None
    # An identical in-memory hit returns the stored object, stats included.
    assert engine.speedup(sc3).kernel_stats is cold.kernel_stats
    # Every other route builds a new object, which carries no stats.
    twin = engine.speedup(_renamed(sc3))
    assert twin is not cold and twin.kernel_stats is None
    fresh = Engine(EngineConfig(cache_dir=tmp_path))
    loaded = fresh.speedup(sc3)
    assert fresh.cache_stats()["hits"] == 1 and loaded.kernel_stats is None
    assert SpeedupResult.from_dict(cold.to_dict()).kernel_stats is None
    assert pickle.loads(pickle.dumps(cold)).kernel_stats is None


# -- batch fan-out ------------------------------------------------------------


def test_speedup_many_matches_sequential(sc3, mis_d3):
    problems = [sc3, mis_d3, _renamed(sc3), sc3]
    parallel = Engine(EngineConfig(max_workers=4)).speedup_many(problems)
    sequential = Engine(EngineConfig(max_workers=1)).speedup_many(problems)
    assert len(parallel) == len(problems)
    for par, seq in zip(parallel, sequential):
        assert par.original == seq.original
        assert are_isomorphic(par.full.compressed(), seq.full.compressed())


def test_run_many_matches_sequential(sc3, mis_d3):
    problems = [sc3, mis_d3]
    parallel = Engine(EngineConfig(max_workers=2)).run_many(problems, max_steps=2)
    sequential = Engine(EngineConfig(max_workers=1)).run_many(problems, max_steps=2)
    assert parallel == sequential
    assert parallel[0].unbounded  # sinkless coloring's fixed point


# -- streaming pipeline -------------------------------------------------------


def test_iter_elimination_is_lazy(engine, sc3):
    stream = engine.iter_elimination(sc3, max_steps=5)
    first = next(stream)
    assert first.index == 0
    # No derivation has run yet: only step 0 (the input) was produced.
    assert engine.cache_stats()["misses"] == 0
    second = next(stream)
    assert second.index == 1
    assert engine.cache_stats()["misses"] == 1


def test_iter_elimination_progress_callback(engine, sc3):
    seen = []
    result = engine.run(sc3, max_steps=3, progress=lambda step: seen.append(step.index))
    assert seen == [step.index for step in result.steps]


def test_run_matches_legacy_run_round_elimination(sc3):
    from repro.core.sequence import run_round_elimination
    from repro.engine import get_default_engine, set_default_engine

    # Isolate the default engine: a pre-warmed cache may serve label-renamed
    # translations, which are correct but not bit-identical to a cold run.
    original = get_default_engine()
    set_default_engine(Engine())
    try:
        legacy = run_round_elimination(sc3, max_steps=3)
    finally:
        set_default_engine(original)
    modern = Engine().run(sc3, max_steps=3)
    assert modern == legacy
    assert modern.fixed_point_index == 1
    assert modern.unbounded


def test_run_reports_limit_stop(sc3):
    tiny = Engine(EngineConfig(max_candidate_configs=1))
    result = tiny.run(sc3, max_steps=3)
    assert result.stopped_by_limit
    assert len(result.steps) == 1


def test_run_honours_pipeline_policy(sc3):
    no_detect = Engine(EngineConfig(detect_fixed_points=False))
    result = no_detect.run(sc3, max_steps=3)
    assert len(result.steps) == 4
    assert result.fixed_point_index is None


# -- shims --------------------------------------------------------------------


def test_speedup_shim_uses_default_engine(sc3):
    from repro.core.speedup import speedup
    from repro.engine import get_default_engine, set_default_engine

    original = get_default_engine()
    set_default_engine(Engine())
    try:
        first = speedup(sc3)
        second = speedup(sc3)
        assert second is first
        assert get_default_engine().cache_stats() == {
            "hits": 1,
            "misses": 1,
            "entries": 1,
            "store_failures": 0,
        }
    finally:
        set_default_engine(original)


def test_set_default_engine_roundtrip():
    from repro.engine import get_default_engine, set_default_engine

    original = get_default_engine()
    replacement = Engine(EngineConfig(cache=False))
    set_default_engine(replacement)
    try:
        assert get_default_engine() is replacement
    finally:
        set_default_engine(original)


def test_iterate_speedup_shim_matches_engine(sc3):
    from repro.core.speedup import iterate_speedup

    results = iterate_speedup(sc3, 2)
    assert len(results) == 2
    assert results[1].original == results[0].full


# -- canonical hashing --------------------------------------------------------


def test_canonical_hash_ignores_name_and_renaming(sc3):
    renamed = _renamed(sc3, prefix="q", name="totally-different")
    assert canonical_hash(sc3) == canonical_hash(renamed)


def test_canonical_hash_separates_structures(sc3, so3):
    assert canonical_hash(sc3) != canonical_hash(so3)


def test_canonical_hash_on_symmetric_alphabet():
    # Fully symmetric labels (3-coloring on rings) exercise the tie-break
    # enumeration: all renamings must agree.
    from repro.problems.coloring import coloring

    problem = coloring(3, 2)
    renamed = _renamed(problem)
    assert canonical_hash(problem) == canonical_hash(renamed)
    assert canonical_hash(problem) != canonical_hash(coloring(4, 2))


def test_engine_half_step_respects_limits(sc3):
    tight = Engine(EngineConfig(max_candidate_configs=1))
    with pytest.raises(EngineLimitError) as excinfo:
        tight.half_step(sc3)
    assert excinfo.value.limit_name == "max_candidate_configs"
    assert excinfo.value.observed > 1
    assert Engine().half_step(sc3).problem.labels
