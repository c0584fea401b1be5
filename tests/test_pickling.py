"""Pickle round-trips for everything a process-pool backend would ship.

ROADMAP item (a) swaps the engine's thread pool for processes; that dies at
runtime if any object crossing the boundary -- problems, interned views,
speedup results (including renaming-translated cache hits, whose read-only
``MeaningMap`` meanings share the stored entry's masks), search results,
certificates -- drags along an unpicklable member.  The
``unpicklable-member`` lint rule guards the class definitions statically;
these tests hold the custom ``__reduce__`` / ``__getstate__``
implementations to their side of the bargain.

Two of these are regression tests for real bugs the static audit found:

* ``SpeedupResult`` returned by a cache *hit* once held mapping proxies and
  could not be pickled at all; its ``__reduce__`` now ships the fields
  (meaning maps included, still read-only) and leaves the out-of-band
  kernel stats behind;
* ``Problem.__getstate__`` now drops the memoised interned view and
  cached properties, which used to bloat every pickle (and silently
  shipped derived state that should be recomputed on the other side).
"""

from __future__ import annotations

import pickle
from copy import deepcopy
from dataclasses import fields

import pytest

from repro.core.alphabet import InternedProblem, intern
from repro.core.canonical import canonical_form
from repro.core.problem import Problem
from repro.core.speedup import speedup
from repro.engine import Engine
from repro.problems import indegree_handshake
from repro.problems.sinkless import sinkless_coloring, sinkless_orientation


@pytest.fixture()
def engine() -> Engine:
    return Engine()


def _roundtrip(obj: object) -> object:
    return pickle.loads(pickle.dumps(obj))


def test_problem_roundtrip_is_equal_and_lean() -> None:
    problem = sinkless_orientation(3)
    intern(problem)  # populate the memoised view
    _ = problem.usable_labels  # populate a cached_property
    blob = pickle.dumps(problem)
    clone = pickle.loads(blob)
    assert clone == problem
    # __getstate__ ships only the declared dataclass fields: no interned
    # view, no cached presentation strings.
    state = problem.__getstate__()
    assert set(state) == {f.name for f in fields(Problem)}


def test_problem_pickle_excludes_interned_cache() -> None:
    problem = sinkless_coloring(3)
    cold = len(pickle.dumps(problem))
    intern(problem)
    _ = problem.description_size
    form = canonical_form(problem)
    warm = len(pickle.dumps(problem))
    assert warm == cold, "interned view or canonical form leaked into the pickle"
    clone = pickle.loads(pickle.dumps(problem))
    assert "_interned" not in clone.__dict__
    assert canonical_form(clone) == form


def test_interned_problem_roundtrip() -> None:
    interned = intern(sinkless_orientation(3))
    clone = _roundtrip(interned)
    assert isinstance(clone, InternedProblem)
    assert clone.alphabet.names == interned.alphabet.names
    assert clone.adjacency == interned.adjacency
    assert clone.node_configs == interned.node_configs


def test_fresh_speedup_result_roundtrip() -> None:
    result = speedup(sinkless_orientation(3))
    clone = _roundtrip(result)
    assert clone.to_dict() == result.to_dict()


def test_cache_frozen_speedup_result_roundtrip(engine: Engine) -> None:
    """Cache hits pickle equal and read-only, without their kernel stats."""
    problem = sinkless_coloring(3)
    stored = engine.speedup(problem)
    assert stored.kernel_stats is not None
    labels = sorted(problem.labels)
    twin = problem.renamed({label: f"t{len(labels) - i}" for i, label in enumerate(labels)})
    hit = engine.speedup(twin)
    assert engine.cache_stats()["hits"] == 1
    assert hit.full_meaning.masks is stored.full_meaning.masks
    clone = _roundtrip(hit)
    assert clone == hit
    assert clone.to_dict() == hit.to_dict()
    # The identical problem's hit is the stored object, stats and all.
    assert engine.speedup(problem) is stored
    assert _roundtrip(stored).kernel_stats is None
    for meaning in (clone.half_meaning, clone.full_meaning):
        with pytest.raises(TypeError):
            meaning["X"] = frozenset()
    # A run served from the cache pickles too.
    engine.run(problem, max_steps=1)
    second = engine.run(problem, max_steps=1)
    assert _roundtrip(second.steps[1].problem) == second.steps[1].problem
    assert _roundtrip(second).to_dict() == second.to_dict()


def test_search_result_and_certificate_roundtrip(engine: Engine) -> None:
    result = engine.search_lower_bound(sinkless_orientation(3), max_steps=2)
    assert result.certificate is not None
    clone = _roundtrip(result)
    assert clone.certificate.to_dict() == result.certificate.to_dict()
    assert clone.certificate.verify()
    assert clone.stats == result.stats


def test_chase_result_and_certificate_roundtrip(engine: Engine) -> None:
    result = engine.search_upper_bound(indegree_handshake(2), max_steps=2)
    assert result.certificate is not None
    clone = _roundtrip(result)
    assert clone.to_dict() == result.to_dict()
    assert clone.stats == result.stats
    certificate = _roundtrip(result.certificate)
    assert certificate.to_dict() == result.certificate.to_dict()
    assert certificate.verify().valid


def test_deepcopy_uses_the_same_machinery(engine: Engine) -> None:
    problem = sinkless_orientation(3)
    engine.run(problem, max_steps=1)
    frozen = engine.run(problem, max_steps=1)
    assert deepcopy(frozen).to_dict() == frozen.to_dict()


def test_derived_edge_relation_pickles_condensed() -> None:
    """A derived Pi_1 ships its adjacency masks, never its string pairs."""
    from repro.core.problem import EdgeRelation
    from repro.core.speedup import compute_speedup
    from repro.problems.catalog import get_problem

    full = compute_speedup(get_problem("weak-3-coloring", 2)).full
    relation = full.edge_constraint
    assert isinstance(relation, EdgeRelation)
    blob = pickle.dumps(full)
    clone = pickle.loads(blob)
    restored = clone.edge_constraint
    assert isinstance(restored, EdgeRelation) and restored._pairs is None
    assert restored.names == relation.names and restored.masks == relation.masks
    assert clone == full
    assert restored._pairs is None  # mask equality: still unbuilt
    # The string pairs alone, as derived problems carried them before the
    # condensed relation, pickle ten times larger than the whole problem.
    assert len(blob) * 10 < len(pickle.dumps(frozenset(relation)))
