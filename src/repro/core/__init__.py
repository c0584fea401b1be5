"""The round-elimination engine: problems, speedup, simplification, pipelines.

This package is the reproduction of the paper's core contribution
(Theorems 1 and 2 and the Section 2.1 workflow):

* :mod:`repro.core.problem` -- locally checkable problems at fixed degree;
* :mod:`repro.core.alphabet` -- the bitmask kernel: interned alphabets,
  label sets as integer masks, the engine's derivation hot paths;
* :mod:`repro.core.family` -- degree-indexed families (the paper's f, g, h);
* :mod:`repro.core.format` -- textual syntax (Round-Eliminator compatible);
* :mod:`repro.core.galois` -- the compatibility Galois connection;
* :mod:`repro.core.speedup` -- the Pi -> Pi_{1/2} -> Pi_1 derivations;
* :mod:`repro.core.zero_round` -- 0-round solvability decision procedures;
* :mod:`repro.core.canonical` -- canonical forms: cache keys, isomorphisms,
  fixed-point tests;
* :mod:`repro.core.relaxation` -- certified relaxations and hardenings;
* :mod:`repro.core.sequence` -- the iterated pipeline with lower-bound output.
"""

from repro.core.alphabet import Alphabet, InternedProblem, intern, short_names
from repro.core.canonical import (
    CanonicalForm,
    are_isomorphic,
    canonical_form,
    canonical_hash,
    find_isomorphism,
)
from repro.core.certificate import (
    HARDENING,
    RELAXATION,
    SPEEDUP,
    TERMINAL_FIXED_POINT,
    TERMINAL_UNSOLVABLE,
    CertificateCheck,
    CertificateError,
    CertificateStep,
    LowerBoundCertificate,
    UpperBoundCertificate,
)
from repro.core.diagram import Diagram, compute_diagram, replaceable
from repro.core.family import ProblemFamily
from repro.core.format import format_problem, parse_problem
from repro.core.galois import Compatibility
from repro.core.problem import (
    EdgeConfig,
    Label,
    NodeConfig,
    Problem,
    ProblemError,
    edge_config,
    node_config,
)
from repro.core.relaxation import (
    RelaxationCertificate,
    certify_relaxation,
    find_relaxation_map,
    is_harder_restriction,
    is_relaxation_map,
)
from repro.core.sequence import EliminationResult, SequenceStep, run_round_elimination
from repro.core.speedup import (
    EngineLimitError,
    HalfStepResult,
    SpeedupResult,
    compute_speedup,
    full_step,
    half_step,
    iterate_speedup,
    set_label_name,
    speedup,
)
from repro.core.zero_round import (
    ZeroRoundWitness,
    check_zero_round_witness,
    is_zero_round_solvable,
    zero_round_no_input,
    zero_round_with_orientations,
)

__all__ = [
    "HARDENING",
    "RELAXATION",
    "SPEEDUP",
    "TERMINAL_FIXED_POINT",
    "TERMINAL_UNSOLVABLE",
    "Alphabet",
    "CanonicalForm",
    "CertificateCheck",
    "CertificateError",
    "CertificateStep",
    "Compatibility",
    "Diagram",
    "EdgeConfig",
    "EliminationResult",
    "EngineLimitError",
    "HalfStepResult",
    "InternedProblem",
    "Label",
    "LowerBoundCertificate",
    "NodeConfig",
    "Problem",
    "ProblemError",
    "ProblemFamily",
    "RelaxationCertificate",
    "SequenceStep",
    "SpeedupResult",
    "UpperBoundCertificate",
    "ZeroRoundWitness",
    "are_isomorphic",
    "canonical_form",
    "canonical_hash",
    "certify_relaxation",
    "check_zero_round_witness",
    "compute_diagram",
    "compute_speedup",
    "edge_config",
    "find_isomorphism",
    "find_relaxation_map",
    "format_problem",
    "full_step",
    "half_step",
    "intern",
    "is_harder_restriction",
    "is_relaxation_map",
    "is_zero_round_solvable",
    "iterate_speedup",
    "node_config",
    "parse_problem",
    "replaceable",
    "run_round_elimination",
    "set_label_name",
    "short_names",
    "speedup",
    "zero_round_no_input",
    "zero_round_with_orientations",
]
