"""Minimal additive complements of eventually periodic integer sets.

Decide whether a set bounded below with an eventually periodic pattern
admits a minimal additive complement, produce machine-checkable
certificates and windowed complement witnesses, and generate the
non-eventually-periodic example set that still has one.
"""

from .check import Certificate, cond_a, cond_b_necessary, cond_b_sufficient
from .criteria import Outcome, Reason, SearchConfig, Verdict, decide, find_certificate
from .generator import GeneratorState, generate
from .residues import ResidueSubset
from .sets import (
    CanonicalSet,
    ConditionContext,
    Margins,
    RawSet,
    canonicalize,
    lift_period,
    margins,
    validate_canonical,
)
from .witness import WitnessWindow, build_witness, verify_coverage, verify_local_minimality

__all__ = [
    "Certificate",
    "CanonicalSet",
    "ConditionContext",
    "GeneratorState",
    "Margins",
    "Outcome",
    "RawSet",
    "Reason",
    "ResidueSubset",
    "SearchConfig",
    "Verdict",
    "WitnessWindow",
    "build_witness",
    "canonicalize",
    "cond_a",
    "cond_b_necessary",
    "cond_b_sufficient",
    "decide",
    "find_certificate",
    "generate",
    "lift_period",
    "margins",
    "validate_canonical",
    "verify_coverage",
    "verify_local_minimality",
]

__version__ = "0.1.0"
