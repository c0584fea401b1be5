"""Repo-specific scoping knobs shared by the rule packs.

Everything a rule needs to know about *this* codebase -- which packages are
the hot kernel, which modules own certificate types, which classes must
stay picklable -- lives here so the rule logic itself stays generic.
"""

from __future__ import annotations

#: Packages whose modules form the hot derivation path.  The legacy string
#: kernel and per-label string algebra are banned here.
HOT_PACKAGES: tuple[str, ...] = ("core", "engine", "search")

#: Modules inside the hot packages where label work must stay on the mask
#: side: converting masks back to name/string surfaces (``label_set``,
#: ``members``, ``config``, ``set_label_name``, ``mask_name``) is legitimate
#: only at presentation depth -- never inside nested loops.
STRING_LABEL_MODULES: frozenset[str] = frozenset(
    {
        "speedup.py",
        "zero_round.py",
        "galois.py",
        "diagram.py",
        "canonical.py",
        "moves.py",
        "beam.py",
        "driver.py",
        "upper.py",
    }
)

#: Mask-to-name surface calls covered by the string-label rule.
NAME_SURFACE_CALLS: frozenset[str] = frozenset(
    {"label_set", "members", "config", "set_label_name", "mask_name"}
)

#: Modules holding the derivation's hot folds.  Per-candidate matching calls
#: inside loops here should go through the batched ``AllowsTable`` in
#: ``repro.core.vectorkernel`` instead; the scalar paths that legitimately
#: remain (memoised lookups, the ``delta > 16`` completion walk) carry
#: explicit ``allow[unbatched-matching]`` markers.
VECTORIZED_MODULES: frozenset[str] = frozenset({"speedup.py", "galois.py"})

#: Per-candidate matching entry points covered by the unbatched-matching
#: rule: the Hall-condition feasibility test and the full-membership oracle
#: built on it.  (``extendable`` prefix pruning is exempt: the backtracking
#: walk is prefix-shaped, one memoised query per prefix.)
MATCHING_CALLS: frozenset[str] = frozenset({"mask_matching_exists", "allows"})

#: Modules allowed to construct ``Problem(...)`` directly: the class's own
#: module plus ``repro.core`` at large (the kernel builds pre-canonicalised
#: tuples).  Everything in ``search``/``engine`` must go through
#: ``Problem.make`` / ``Problem.from_dict`` so validation + canonical
#: sorting cannot be bypassed.
RAW_PROBLEM_PACKAGES: tuple[str, ...] = ("search", "engine")

#: Modules (paths below ``repro/``) allowed to call the unvalidated
#: ``Problem._from_canonical``: the class's own invariant-preserving
#: transforms and the full step's canonical-by-construction materialisation.
TRUSTED_CONSTRUCTOR_MODULES: frozenset[str] = frozenset(
    {"core/problem.py", "core/speedup.py"}
)

#: Modules that define (and may therefore initialise) certificate types.
CERTIFICATE_MODULES: frozenset[str] = frozenset({"certificate.py", "relaxation.py"})

#: Identifier fragments that mark an expression as certificate-valued.
CERTIFICATE_TOKENS: tuple[str, ...] = ("cert",)

#: Lock factory names recognised by the concurrency rule.
LOCK_FACTORIES: frozenset[str] = frozenset({"Lock", "RLock"})

#: Classes that must stay cheaply picklable (search states, task payloads
#: and interned problems cross the process-pool boundary of
#: ``repro.engine.executor``).  A class defining ``__reduce__``/
#: ``__getstate__`` takes over responsibility and is skipped.
PICKLABLE_CLASSES: frozenset[str] = frozenset(
    {
        "InternedProblem",
        "Problem",
        "EdgeRelation",
        "SpeedupResult",
        "HalfStepResult",
        "RelaxationMove",
        "CertificateStep",
        "LowerBoundCertificate",
        "UpperBoundCertificate",
        "BeamState",
        "SearchResult",
        "SearchStats",
        "ChaseResult",
        "ChaseStats",
        # Executor task/payload shapes shipped through the process pool.
        "SpeedupTask",
        "RunTask",
        "ExpandTask",
        "ExpandOption",
        "ExpandPayload",
        "ChaseTask",
        "ChaseOption",
        "ChasePayload",
        "TaskResult",
    }
)

#: Calls whose results cannot cross a pickle boundary.
UNPICKLABLE_FACTORIES: frozenset[str] = frozenset(
    {
        "Lock",
        "RLock",
        "Condition",
        "Event",
        "Semaphore",
        "BoundedSemaphore",
        "Barrier",
        "local",
        "open",
        "MappingProxyType",
    }
)

#: Function names that are serialization contexts for the determinism rule,
#: in addition to any function that lexically calls ``json.dump(s)`` or
#: ``atomic_write_json``.
SERIALIZATION_FUNCTIONS: frozenset[str] = frozenset(
    {"to_dict", "to_json", "to_payload", "_digest"}
)

#: Callees that mark the enclosing function as a serialization context.
SERIALIZATION_SINKS: frozenset[str] = frozenset({"dump", "dumps", "atomic_write_json"})
