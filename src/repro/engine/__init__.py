"""The unified engine API: configurable, cached, batch/streaming derivations.

Quickstart::

    from repro.engine import Engine, EngineConfig

    engine = Engine(EngineConfig(executor="process", max_workers=4))
    result = engine.speedup(problem)          # content-addressed memo cache
    results = engine.speedup_many(problems)   # batch fan-out, chosen backend
    print(engine.last_batch_stats())          # measured serial fraction
    for step in engine.iter_elimination(problem, max_steps=10):
        print(step.index, step.problem.name)  # streaming pipeline

The classic module-level functions (``repro.speedup``,
``repro.iterate_speedup``, ``repro.run_round_elimination``) are thin shims
over the process-wide default engine, so old call sites transparently share
the cache.
"""

from repro.core.canonical import CanonicalForm, canonical_form, canonical_hash
from repro.core.speedup import EngineLimitError
from repro.engine.cache import SpeedupCache
from repro.engine.config import EXECUTOR_NAMES, EngineConfig
from repro.engine.engine import (
    Engine,
    get_default_engine,
    set_default_engine,
)
from repro.engine.executor import (
    BatchStats,
    ExpandTask,
    RunTask,
    SpeedupTask,
)
from repro.engine.faultinject import FaultPlan, InjectedFault, parse_fault_plan
from repro.engine.resilience import RetryPolicy, TaskFailure

__all__ = [
    "BatchStats",
    "CanonicalForm",
    "EXECUTOR_NAMES",
    "Engine",
    "EngineConfig",
    "EngineLimitError",
    "ExpandTask",
    "FaultPlan",
    "InjectedFault",
    "RetryPolicy",
    "RunTask",
    "SpeedupCache",
    "SpeedupTask",
    "TaskFailure",
    "canonical_form",
    "canonical_hash",
    "get_default_engine",
    "parse_fault_plan",
    "set_default_engine",
]
