"""Pickle round-trips for everything a process-pool backend would ship.

ROADMAP item (a) swaps the engine's thread pool for processes; that dies at
runtime if any object crossing the boundary -- problems, interned views,
speedup results (including the *cache-frozen* variant whose meaning dicts
are ``MappingProxyType``), search results, certificates -- drags along an
unpicklable member.  The ``unpicklable-member`` lint rule guards the class
definitions statically; these tests hold the custom ``__reduce__`` /
``__getstate__`` implementations to their side of the bargain.

Two of these are regression tests for real bugs the static audit found:

* ``SpeedupResult`` returned by a cache *hit* holds mapping proxies and
  could not be pickled at all before ``__reduce__`` was added;
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
    assert clone.edge_pairs == interned.edge_pairs
    assert clone.node_configs == interned.node_configs


def test_fresh_speedup_result_roundtrip() -> None:
    result = speedup(sinkless_orientation(3))
    clone = _roundtrip(result)
    assert clone.to_dict() == result.to_dict()


def test_cache_frozen_speedup_result_roundtrip(engine: Engine) -> None:
    """The mappingproxy regression: a cache hit hands out a frozen result,
    which must still pickle (via __reduce__) to plain dicts."""
    problem = sinkless_orientation(3)
    engine.run(problem, max_steps=1)
    second = engine.run(problem, max_steps=1)  # served from the cache
    step = second.steps[1]
    clone = _roundtrip(step.problem)
    assert clone == step.problem
    clone_run = _roundtrip(second)
    assert clone_run.to_dict() == second.to_dict()


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
    # The same problem with a frozenset edge constraint, as derived problems
    # carried before the condensed relation.
    expanded = Problem(
        full.name, full.delta, full.labels, frozenset(relation), full.node_constraint
    )
    assert len(blob) * 10 < len(pickle.dumps(expanded))
