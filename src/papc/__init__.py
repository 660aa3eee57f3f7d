"""Toolkit for a CCS-style process algebra with preemptive and conservative
actions: parsing, exhaustive transition derivation, bounded state-space
construction, and higher-order bisimulation checking."""

from .errors import (
    CapExceeded,
    ComplementOfTau,
    DuplicateDefinition,
    IdentifierCollision,
    IllFormedPlacement,
    NoRoot,
    PapcError,
    ParseError,
    TauInPrefix,
    UnboundConstant,
    UnguardedRecursion,
)
from .syntax import (
    Action,
    TAU,
    complement,
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
    Hole,
    HOLE,
    subterms,
    is_process,
    format_term,
    format_action,
    Definitions,
    EMPTY_DEFINITIONS,
    ValidationReport,
    validate,
)
from .parsing import parse_context, parse_definitions, parse_model, parse_process
from .semantics import (
    DEFAULT_INTERRUPT_CAP,
    Handshake,
    Interrupt,
    CompletePreemptive,
    CompleteConservative,
    Label,
    Transition,
    label_text,
    actions_at,
    rename_id,
    fresh_id,
    handshake_steps,
    interrupt_steps,
    preemptive_completions,
    conservative_completions,
    all_steps,
    is_system_step,
    system_steps,
)
from .lts import Bounds, Lts, LtsStats, build, export, stats
from .equivalence import (
    Verdict,
    WitnessStep,
    bisimilar,
    verify_witness,
    apply_context,
    random_context,
    CongruenceReport,
    congruence_probe,
)

__version__ = "0.1.0"
