"""Toolkit for a CCS-style process algebra with preemptive and conservative
actions: parsing, exhaustive transition derivation, bounded state-space
construction, and higher-order bisimulation checking."""

from .errors import (
    CapExceeded,
    DuplicateDefinition,
    IllFormedPlacement,
    NoRoot,
    PapcError,
    ParseError,
    TauInPrefix,
    UnguardedRecursion,
)
from .syntax import (
    Action,
    TAU,
    MAX_IDENT,
    Term,
    Nil,
    NIL,
    PrefixConsume,
    PrefixConserve,
    Sum,
    Par,
    Const,
    FrozenConsume,
    FrozenConserve,
    subterms,
    is_process,
    format_term,
    format_action,
    Definitions,
    EMPTY_DEFINITIONS,
    ValidationReport,
    validate,
)
from .parsing import parse_definitions, parse_model, parse_process
from .semantics import (
    INTERRUPT_CAP,
    Handshake,
    Interrupt,
    CompletePreemptive,
    CompleteConservative,
    Label,
    Transition,
    label_text,
    transition_sort_key,
    handshake_steps,
    interrupt_steps,
    preemptive_completions,
    conservative_completions,
    all_steps,
    is_system_step,
    system_steps,
)
from .lts import Bounds, Lts, build, export
from .equivalence import (
    Verdict,
    WitnessStep,
    bisimilar,
    verify_witness,
)

__version__ = "0.1.0"
