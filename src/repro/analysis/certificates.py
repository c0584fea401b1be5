"""The paper's flagship certificate, built on :mod:`repro.core.certificate`.

The certificate *type* (an alternating chain of re-derivable speedup steps
and label-map-certified relaxations, with an independent ``verify()`` and a
JSON wire format) lives in :mod:`repro.core.certificate`; this module keeps
the analysis-facing conveniences:

* :func:`sinkless_certificate` constructs the Section 4.4 proof object --
  sinkless coloring speeds up to (an isomorphic copy of) itself, and the
  isomorphism, being in particular a relaxation map, closes the loop -- as
  an explicit ``rounds``-deep chain;
* :func:`check_certificate` is the re-verification entry point the
  experiment drivers and benchmarks call.
"""

from __future__ import annotations

from repro.core.canonical import find_isomorphism
from repro.core.certificate import (
    RELAXATION,
    SPEEDUP,
    TERMINAL_FIXED_POINT,
    TERMINAL_UNSOLVABLE,
    CertificateCheck,
    CertificateError,
    CertificateStep,
    LowerBoundCertificate,
)
from repro.core.relaxation import certify_relaxation
from repro.core.speedup import speedup


def check_certificate(certificate: LowerBoundCertificate) -> CertificateCheck:
    """Re-verify every link and the terminal claim from scratch."""
    return certificate.verify()


def sinkless_certificate(delta: int, rounds: int) -> LowerBoundCertificate:
    """Build the Section 4.4 certificate: sinkless coloring needs > ``rounds`` rounds.

    Each speedup step lands on a problem isomorphic to sinkless coloring
    (the fixed point), which is then *relaxed back* to the canonical
    sinkless coloring via the isomorphism, letting the chain repeat
    indefinitely.  Since the fixed point is never 0-round solvable, every
    ``rounds`` yields a valid certificate -- on girth-(2t+2) classes this is
    the Omega(log n) bound.
    """
    from repro.problems.sinkless import sinkless_coloring

    base = sinkless_coloring(delta)
    steps: list[CertificateStep] = []
    current = base
    for _ in range(rounds):
        result = speedup(current)
        derived = result.full
        steps.append(CertificateStep(kind=SPEEDUP, problem=derived, speedup=result))
        mapping = find_isomorphism(derived.compressed(), base.compressed())
        if mapping is None:
            raise AssertionError("sinkless fixed point failed -- engine regression")
        steps.append(
            CertificateStep(
                kind=RELAXATION,
                problem=base,
                relaxation=certify_relaxation(derived, base, mapping),
            )
        )
        current = base
    return LowerBoundCertificate(
        initial=base, steps=tuple(steps), terminal=TERMINAL_UNSOLVABLE
    )
