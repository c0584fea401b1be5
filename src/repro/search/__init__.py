"""Automated lower-bound search: beam search over speedup + relaxation chains.

This package automates the paper's Section 2.1 workflow -- iterated round
elimination *interleaved with relaxations* -- the technique the Round
Eliminator mechanises and the automata-theoretic view of Chang-Studeny-
Suomela systematises.  Given a problem, :func:`search_lower_bound` explores
bounded-size relaxations of each derived problem (merge / drop / addarrow
moves generated and applied on the interned bitmask view, with the strength
diagram computed once per derived problem, deduplicated by canonical hashes,
and 0-round checks memoised cross-branch through the engine) looking for
either

* a **pumpable fixed point** -- the unbounded / Omega(log n) outcome -- or
* the longest **chain** it can certify within its budget -- a concrete
  ``k``-round lower bound.

Either way the output is a machine-checkable
:class:`~repro.core.certificate.LowerBoundCertificate` whose ``verify()``
re-checks every link independently of the search.

The other direction lives in :mod:`repro.search.upper`:
:func:`search_upper_bound` chases speedup steps (interleaved with certified
hardening restrictions) toward a 0-round-solvable problem, certifying a
concrete O(k) *upper* bound with a recorded 0-round witness as the
terminal.  :func:`classify` (:mod:`repro.search.classify`) runs both and
brackets the complexity into a :class:`ComplexityBracket` with a
``tight`` / ``gap`` / ``open`` verdict.

Both directions run on one beam loop, :func:`repro.search.beam.beam_search`:
the budgeted depth loop, per-depth deduplication, checkpoint/resume and the
memoised 0-round verdict live there once.  :mod:`repro.search.driver` and
:mod:`repro.search.upper` each supply only a direction policy -- the
expansion task shipped to the executor, the terminal test (a chain revisit
or a witnessed 0-round-solvable problem), root handling, and the stats and
result types.

Quickstart::

    from repro import Engine, sinkless_orientation

    result = Engine().search_lower_bound(sinkless_orientation(3))
    assert result.certificate is not None and result.unbounded
    assert result.certificate.verify().valid

Shell surface: ``python -m repro search sinkless-orientation``.
"""

from repro.search.classify import (
    BracketCheck,
    ClassifyResult,
    ComplexityBracket,
    classify,
)
from repro.search.driver import SearchResult, SearchStats, search_lower_bound
from repro.search.moves import (
    RELAXATION_KINDS,
    RelaxationMove,
    generate_hardenings,
    generate_moves,
)
from repro.search.upper import (
    ChaseResult,
    ChaseStats,
    search_upper_bound,
)

__all__ = [
    "RELAXATION_KINDS",
    "BracketCheck",
    "ChaseResult",
    "ChaseStats",
    "ClassifyResult",
    "ComplexityBracket",
    "RelaxationMove",
    "SearchResult",
    "SearchStats",
    "classify",
    "generate_hardenings",
    "generate_moves",
    "search_lower_bound",
    "search_upper_bound",
]
