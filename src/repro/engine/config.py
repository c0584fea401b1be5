"""Engine configuration: every knob the derivations and pipelines honor.

Historically the derivation limits were module constants in
:mod:`repro.core.speedup` and the pipeline flags were per-call keyword
arguments of ``run_round_elimination``.  :class:`EngineConfig` gathers all of
them in one immutable object so an :class:`repro.engine.Engine` can be
configured once and reused across calls, batches, and caller threads.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.speedup import MAX_CANDIDATE_CONFIGS, MAX_DERIVED_LABELS, MAX_LIVE_CONFIGS
from repro.core.vectorkernel import resolve_kernel
from repro.engine.faultinject import parse_fault_plan
from repro.engine.resilience import RetryPolicy

#: Execution backends the batch APIs accept (see :mod:`repro.engine.executor`).
EXECUTOR_NAMES: tuple[str, ...] = ("serial", "process")


def _default_executor() -> str:
    """The default backend: ``REPRO_EXECUTOR`` when set, else ``serial``.

    The derivations are GIL-bound pure Python, so only a process pool adds
    compute.  The environment hook exists so whole test matrices (CI runs
    both backends over the engine suites) and deployments can switch
    backends without threading a flag through every construction site.
    """
    return os.environ.get("REPRO_EXECUTOR", "serial")


def _default_fault_plan() -> str | None:
    """The default fault plan: ``REPRO_FAULT_PLAN`` when set, else none.

    The environment hook lets the chaos-test matrix (and one-off debugging
    of the recovery paths) inject scripted faults into any entry point
    without threading a flag through construction sites.  An unset or empty
    variable means fault-free execution.
    """
    return os.environ.get("REPRO_FAULT_PLAN") or None


@dataclass(frozen=True)
class EngineConfig:
    """Immutable configuration for :class:`repro.engine.Engine`.

    Attributes
    ----------
    simplify:
        Use the maximality-simplified derivation (Theorem 2) by default.
    orientations:
        Test 0-round solvability in the orientation-input setting (the
        Theorem 2 setting) rather than with no input at all.
    detect_fixed_points:
        Test each pipeline step for isomorphism against all previous steps.
    stop_at_zero_round:
        Stop a pipeline as soon as a 0-round solvable problem appears.
    max_derived_labels / max_candidate_configs / max_live_configs:
        Size guards of the derivation (previously the hard-coded
        ``MAX_DERIVED_LABELS`` / ``MAX_CANDIDATE_CONFIGS`` constants),
        stated in bitmask-kernel terms: ``max_derived_labels`` bounds the
        interned derived-label masks materialised (filters of the half-label
        poset in the simplified path, raw subset masks in the Theorem 1
        path).  ``max_candidate_configs`` bounds the enumeration *work* of
        the streaming simplified full step (one unit per prefix extension
        and per completion); a step whose work would pass it before the
        frontier could pass ``max_live_configs`` is refused up front, by
        counting that work without computing a completion, with the same
        error and ``observed`` count the stream would report.  It remains
        the a-priori grid bound ``C(candidates + delta - 1, delta)`` on the
        half step and the unsimplified Theorem 1 path.  ``max_live_configs``
        caps the undominated candidate frontier the streaming full step
        holds in memory -- the retired grid refusal's replacement: huge-Pi_1
        derivations are attempted, and refused only when the *surviving*
        frontier (hence the derived node constraint) would actually exceed
        the cap.  Within the guards the kernel's pruned prefix search does
        orders of magnitude less work than the old exhaustive walk
        (superweak-3 / weak-3 coloring at delta=2 went from days of wall
        clock to seconds under the same defaults).
    kernel:
        A validated no-op.  Every derivation fold has one implementation,
        so there is no tier to pick; ``"auto"`` (the default) and
        ``"vector"`` are accepted, ``"mask"`` (the removed scalar tier)
        raises ``ValueError``.  The field stays only because
        ``perfbench/workload.py`` passes ``kernel="vector"``.
    cache:
        Memoise speedup derivations in a content-addressed cache keyed on the
        canonical problem hash (:mod:`repro.core.canonical`), so repeated --
        or label-renamed -- derivations are O(1) hits.
    cache_size:
        Maximum number of in-memory cache entries (LRU eviction).
    cache_max_weight:
        Aggregate bound on the cached problems' description sizes (derived
        problems can be enormous, so an entry count alone could pin
        gigabytes); ``None`` disables the weight bound.  The newest entry
        always survives eviction.
    cache_dir:
        Optional directory for a persistent JSON cache shared across
        processes; entries are loaded lazily on miss and written on store.
        Also the parent of the 0-round memo's ``zero_round/`` subdirectory
        when the memo is enabled.
    zero_round_memo:
        Memoise 0-round solvability verdicts in a cross-branch table keyed
        on canonical problem hashes (:class:`repro.core.zero_round.
        ZeroRoundMemo`) -- the search re-decides 0-round solvability for
        every candidate of every branch, and renamed twins are ubiquitous.
    zero_round_memo_size:
        Maximum number of memoised verdicts (LRU eviction; entries are
        single booleans, so no weight bound is needed).
    max_workers:
        Worker-pool width for the batch APIs (``speedup_many`` /
        ``run_many``) and the lower-bound search.  ``None`` picks
        ``min(8, cpu_count)``.
    executor:
        Execution backend the batch APIs fan out over
        (:mod:`repro.engine.executor`): ``"serial"`` (in-order, no pool)
        or ``"process"`` (a ``ProcessPoolExecutor`` that ships problem
        pickles to workers and merges the returned results into this
        engine's content-addressed cache and 0-round memo -- true
        parallelism for CPU-heavy batches).  The default honors the
        ``REPRO_EXECUTOR`` environment variable, else ``"serial"``.
    retry_policy:
        Fault-tolerance policy of the batch APIs
        (:class:`repro.engine.resilience.RetryPolicy`): bounded retries
        with deterministic backoff for transient faults (worker crashes,
        deadline kills, OS-level I/O errors), per-task deadlines under the
        process backend, and the quarantine/degradation thresholds.
        Deterministic :class:`~repro.core.limits.EngineLimitError`\\ s are
        never retried.
    fault_plan:
        Scripted fault injection for chaos testing
        (:mod:`repro.engine.faultinject`): a plan string like
        ``"crash@2,hang@5,enospc@0"`` makes worker crashes, task hangs, and
        cache-write failures fire at fixed, reproducible coordinates.
        ``None`` (the default, unless ``REPRO_FAULT_PLAN`` is set) runs
        fault-free; building an engine with a plan activates it
        process-wide, including in pool workers.
    search_beam_width:
        How many chain states the lower-bound search
        (:meth:`repro.engine.Engine.search_lower_bound`) keeps per depth.
    search_max_moves:
        Cap on relaxation moves generated per derived problem during the
        search.
    search_budget:
        Cap on speedup derivations attempted by one search run.
    chase_beam_width:
        How many chain states the upper-bound chase
        (:meth:`repro.engine.Engine.search_upper_bound`) keeps per depth.
    chase_max_hardenings:
        Cap on hardening restriction moves generated per chain state during
        the chase.
    chase_budget:
        Cap on speedup derivations attempted by one chase run (each
        expansion costs ``1 + #hardenings`` derivations).
    """

    simplify: bool = True
    orientations: bool = True
    detect_fixed_points: bool = True
    stop_at_zero_round: bool = True
    max_derived_labels: int = MAX_DERIVED_LABELS
    max_candidate_configs: int = MAX_CANDIDATE_CONFIGS
    max_live_configs: int = MAX_LIVE_CONFIGS
    kernel: str = "auto"  # no-op; perfbench/workload.py still passes it
    cache: bool = True
    cache_size: int = 512
    cache_max_weight: int | None = 5_000_000
    cache_dir: str | Path | None = None
    zero_round_memo: bool = True
    zero_round_memo_size: int = 4096
    max_workers: int | None = None
    executor: str = field(default_factory=_default_executor)
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    fault_plan: str | None = field(default_factory=_default_fault_plan)
    search_beam_width: int = 4
    search_max_moves: int = 24
    search_budget: int = 256
    chase_beam_width: int = 4
    chase_max_hardenings: int = 8
    chase_budget: int = 128

    def __post_init__(self) -> None:
        if self.max_derived_labels < 1:
            raise ValueError("max_derived_labels must be positive")
        if self.max_candidate_configs < 1:
            raise ValueError("max_candidate_configs must be positive")
        if self.max_live_configs < 1:
            raise ValueError("max_live_configs must be positive")
        resolve_kernel(self.kernel)
        if self.cache_size < 1:
            raise ValueError("cache_size must be positive")
        if self.cache_max_weight is not None and self.cache_max_weight < 1:
            raise ValueError("cache_max_weight must be positive when given")
        if self.zero_round_memo_size < 1:
            raise ValueError("zero_round_memo_size must be positive")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be positive when given")
        if self.executor not in EXECUTOR_NAMES:
            raise ValueError(
                f"executor must be one of {EXECUTOR_NAMES}, got {self.executor!r}"
            )
        if not isinstance(self.retry_policy, RetryPolicy):
            raise ValueError("retry_policy must be a RetryPolicy")
        # A typo'd plan must fail construction loudly, not run a silently
        # fault-free "chaos" test; parsing validates the whole grammar.
        parse_fault_plan(self.fault_plan)
        if self.search_beam_width < 1:
            raise ValueError("search_beam_width must be positive")
        if self.search_max_moves < 0:
            raise ValueError("search_max_moves must be non-negative")
        if self.search_budget < 1:
            raise ValueError("search_budget must be positive")
        if self.chase_beam_width < 1:
            raise ValueError("chase_beam_width must be positive")
        if self.chase_max_hardenings < 0:
            raise ValueError("chase_max_hardenings must be non-negative")
        if self.chase_budget < 1:
            raise ValueError("chase_budget must be positive")

    def replace(self, **overrides: object) -> "EngineConfig":
        """A copy of this configuration with the given fields changed."""
        return dataclasses.replace(self, **overrides)
