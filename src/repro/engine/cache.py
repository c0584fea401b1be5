"""The engine's content-addressed speedup cache.

Entries are keyed on the canonical problem hash
(:func:`repro.core.canonical.canonical_form`), so a hit fires for any problem
that is the stored one up to label renaming.  On a hit the stored
:class:`~repro.core.speedup.SpeedupResult` is *translated* into the
requesting problem's label space: the derivation is equivariant under
renaming, so mapping the stored meanings through the label bijection induced
by the two canonical orderings yields exactly the result the derivation
would have produced (up to the arbitrary short names of the derived
alphabet, which are kept as stored).

The cache is thread-safe (an engine may be shared across caller threads) and
optionally persistent: with a ``directory``, every stored entry is written as
one JSON file named by the key's digest, and misses consult the directory
before recomputing, so warm starts survive process boundaries.  The LRU, the
files, temp-file sweeping, ``store_failures`` and delta recording are the
shared :class:`repro.utils.jsonio.JsonStore` (:attr:`SpeedupCache.entries`);
this module adds the canonical keys, hit translation, freezing and the
meters, and decodes a file only when its stored original re-keys to the
requested key.

Misses are not coalesced in-process: caller threads that miss on one
canonical key at the same time each derive, and the derivation being
deterministic, they store results equal up to label renaming (the last
store wins).  Coalescing
lives where it pays -- the process backend's parent-side dispatcher
(:func:`repro.engine.executor.speedup_batch`), which sends one task per
missed key and counts the rest as ``coalesced``.

Keys are computed by the canonical labelling of :mod:`repro.core.canonical`
over the interned bitmask view (:mod:`repro.core.alphabet`); entries filed
under an earlier key format are simply never looked up.  Hit translation
renames set-valued labels with the kernel's collision-safe
:func:`~repro.core.alphabet.set_label_name`, the same naming a fresh
derivation would use, so translated and freshly derived results agree even
for problems whose user labels contain braces or commas.

For the Amdahl accounting the process-pool backend needs
(:mod:`repro.engine.executor`), the cache meters its serial components:
time spent canonicalising requests and waiting for the cache lock
(:meth:`SpeedupCache.concurrency_stats`).  Worker
processes record on :attr:`SpeedupCache.entries`, so every insert is
captured as a ``(key, CacheEntry)`` delta the parent merges back with
:meth:`merge`.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from types import MappingProxyType
from typing import Any, NamedTuple

from repro.core.alphabet import set_label_name
from repro.core.canonical import CanonicalForm, canonical_form
from repro.core.problem import Problem
from repro.core.speedup import SpeedupResult
from repro.utils.jsonio import JsonStore


class CacheEntry(NamedTuple):
    """One stored derivation plus the canonical form it was keyed under."""

    form: CanonicalForm
    result: SpeedupResult


def _weight(entry: CacheEntry) -> int:
    """Approximate footprint for the weight-aware LRU bound.

    The description sizes of the three problems dominate the meaning dicts.
    """
    result = entry.result
    return (
        result.original.description_size
        + result.half.description_size
        + result.full.description_size
    )


def _freeze(result: SpeedupResult) -> SpeedupResult:
    """Make the meaning dicts read-only before a result is shared.

    Cache hits hand the same object to every caller; read-only views turn a
    would-be silent cache poisoning (a caller mutating ``full_meaning``)
    into an immediate TypeError at the mutation site.  Equality with plain
    dicts is unaffected.
    """
    return dataclasses.replace(
        result,
        half_meaning=MappingProxyType(dict(result.half_meaning)),
        full_meaning=MappingProxyType(dict(result.full_meaning)),
    )


def _translate(
    entry: CacheEntry,
    problem: Problem,
    form: CanonicalForm,
    simplify: bool,
) -> SpeedupResult:
    """Re-express a stored result in the requesting problem's label space.

    Costs O(labels), not O(edge pairs): the derived Pi_1 keeps its stored
    short names, so it is shared under the request's name, unvalidated
    (the stored problem was valid when it was derived or loaded).
    """
    stored = entry.result
    # ordering[i] of the stored form corresponds to ordering[i] of the
    # request's form; compose to map stored original labels to request labels.
    to_request = {
        stored_label: form.ordering[i]
        for i, stored_label in enumerate(entry.form.ordering)
    }
    if stored.original == problem:
        return stored

    suffix = "" if simplify else "|raw"
    half_rename = {
        name: set_label_name(to_request[member] for member in members)
        for name, members in stored.half_meaning.items()
    }
    half = stored.half.renamed(half_rename, name=f"{problem.name}|half{suffix}")
    half_meaning = {
        half_rename[name]: frozenset(to_request[member] for member in members)
        for name, members in stored.half_meaning.items()
    }
    # One C-level map per label: a 976-label Pi_1 translates ~370k members.
    rename_half = half_rename.__getitem__
    full_meaning = {
        label: frozenset(map(rename_half, members))
        for label, members in stored.full_meaning.items()
    }
    return SpeedupResult(
        original=problem,
        half=half,
        half_meaning=half_meaning,
        full=stored.full.with_name(f"{problem.name}+1"),
        full_meaning=full_meaning,
        simplified=stored.simplified,
    )


class SpeedupCache:
    """Thread-safe LRU memo cache for speedup derivations.

    ``acquire`` (the engine's hot path) and ``probe`` (batch dispatchers,
    which account misses themselves) return ``(result, form, key)`` -- the
    translated result on a hit, else ``None`` plus the canonical form and
    key to pass back to ``store`` after computing (the form is memoised per
    instance anyway; perfbench's ``acquire`` hook reads the tuple).
    """

    def __init__(
        self,
        maxsize: int = 512,
        directory: str | Path | None = None,
        max_weight: int | None = 5_000_000,
    ):
        # Weight-bounded too: derived problems can be enormous, so counting
        # entries alone could pin gigabytes.
        self.entries: JsonStore[CacheEntry] = JsonStore(
            "result",
            lambda entry: entry.result.to_dict(),
            self._decode,
            maxsize=maxsize,
            directory=directory,
            weight=_weight,
            max_weight=max_weight,
        )
        self._lock = self.entries.lock
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self._canonical_s = 0.0
        self._lock_wait_s = 0.0

    # -- keying --------------------------------------------------------------

    @staticmethod
    def _key(form: CanonicalForm, simplify: bool) -> str:
        return ("simplified:" if simplify else "raw:") + form.key

    @staticmethod
    def _decode(key: str, envelope: dict[str, Any]) -> CacheEntry | None:
        """Rebuild one on-disk entry; any corruption means a plain miss.

        The exception net is deliberately wide: ``ValueError`` covers
        ``ProblemError``, ``TypeError``/``KeyError``/``AttributeError``
        cover payloads whose shape lies (e.g. a list for a meaning dict).
        """
        try:
            result = SpeedupResult.from_dict(envelope["result"])
        except (KeyError, TypeError, ValueError, AttributeError):
            return None
        form = canonical_form(result.original)
        # A structurally valid result for the *wrong* problem (a mangled or
        # collided file) would crash the renaming translation downstream;
        # re-keying the stored original catches it here and degrades to a miss.
        if SpeedupCache._key(form, key.startswith("simplified:")) != key:
            return None
        return CacheEntry(form, _freeze(result))

    # -- public API ----------------------------------------------------------

    def _canonicalize(self, problem: Problem, simplify: bool) -> tuple[CanonicalForm, str]:
        """Compute the canonical form and key, metering the serial cost."""
        start = time.perf_counter()
        form = canonical_form(problem)
        elapsed = time.perf_counter() - start
        with self._lock:
            self._canonical_s += elapsed
        return form, self._key(form, simplify)

    def probe(
        self, problem: Problem, simplify: bool
    ) -> tuple[SpeedupResult | None, CanonicalForm, str]:
        """Look ``problem`` up without miss accounting (hits still count).

        Batch dispatchers resolve misses through a worker pool themselves
        and account them via :meth:`note_dispatched_miss` /
        :meth:`note_coalesced`, so a probe that misses must not inflate the
        miss counter a sequential run would report.
        """
        form, key = self._canonicalize(problem, simplify)
        entry = self.entries.get(key)
        if entry is None:
            return None, form, key
        with self._lock:
            self.hits += 1
        return _translate(entry, problem, form, simplify), form, key

    def acquire(
        self, problem: Problem, simplify: bool
    ) -> tuple[SpeedupResult | None, CanonicalForm, str]:
        """Look ``problem`` up for a caller that derives on a miss.

        Like :meth:`probe`, but a miss counts: the caller is expected to
        derive and :meth:`store` the result.
        """
        form, key = self._canonicalize(problem, simplify)
        entry = self.entries.get(key)
        start = time.perf_counter()
        with self._lock:
            self._lock_wait_s += time.perf_counter() - start
            if entry is None:
                self.misses += 1
                return None, form, key
            self.hits += 1
        return _translate(entry, problem, form, simplify), form, key

    def store(
        self, key: str, form: CanonicalForm, result: SpeedupResult
    ) -> SpeedupResult:
        """Store a freshly computed result: :meth:`merge`, then write its file.

        Returns the frozen shared copy.
        """
        frozen = self.merge(key, form, result)
        self.entries.persist(key, CacheEntry(form, frozen))
        return frozen

    def merge(self, key: str, form: CanonicalForm, result: SpeedupResult) -> SpeedupResult:
        """Adopt an entry computed elsewhere (a worker process).

        No hit/miss accounting and no disk write: when a cache directory is
        configured the worker shares it and has already persisted the entry.
        Returns the frozen shared copy now serving hits.
        """
        entry = CacheEntry(form, _freeze(result))
        self.entries.put(key, entry)
        return entry.result

    def note_dispatched_miss(self) -> None:
        """Count a miss resolved by dispatching to an external worker."""
        with self._lock:
            self.misses += 1

    def note_coalesced(self) -> None:
        """Count a request coalesced onto another's pending derivation."""
        with self._lock:
            self.coalesced += 1

    def clear(self) -> None:
        with self._lock:
            self.entries.clear()
            self.hits = 0
            self.misses = 0
            self.coalesced = 0
            self._canonical_s = 0.0
            self._lock_wait_s = 0.0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self.entries),
                "store_failures": self.entries.store_failures,
            }

    def concurrency_stats(self) -> dict[str, float]:
        """The coalescing counter and the metered serial components.

        ``coalesced`` counts batch requests resolved from another request's
        dispatched derivation (:meth:`note_coalesced`); the ``*_s`` figures
        are cumulative seconds of canonicalisation and cache-lock waiting --
        the serial fraction the Amdahl accounting in
        :mod:`repro.engine.executor` reports per batch.
        """
        with self._lock:
            return {
                "coalesced": float(self.coalesced),
                "canonical_s": self._canonical_s,
                "lock_wait_s": self._lock_wait_s,
            }
