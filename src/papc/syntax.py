"""Terms of the calculus: actions, processes, configurations, definitions.

A *process* is built from the inert term ``0``, two kinds of action prefix
(consuming ``a.P`` and conserving ``a:P``), binary sum and parallel
composition, and named constants.  A *configuration* extends processes with
frozen prefixes ``[a#3].P`` / ``[a#3]:P`` recording actions that have started
but not yet completed; the number after ``#`` identifies the running action
so that its partner in another parallel component can be interrupted
together with it.  Continuations under any prefix are always plain
processes: a frozen prefix can never sit under another prefix, and the node
constructors enforce that.

Every process is a configuration, so a single node hierarchy (`Term`)
represents both; `is_process` tells them apart.  All nodes are immutable,
hashable and compared structurally, which is the only term identity used in
this package.

Traversal: each node class states its shape once, as ``children()`` (its
direct subterms, left to right) and ``rebuild(children)`` (the same node over
new subterms).  `subterms` walks a term in pre-order on an explicit stack,
visiting a node's children only where ``descend(node)`` holds.  Helpers that
collect from a term filter that walk; helpers that rewrite a term recurse
through ``children``/``rebuild``; hot paths prune on ``ids`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import (
    ComplementOfTau,
    IllFormedPlacement,
    ParseError,
    TauInPrefix,
    UnboundConstant,
)

__all__ = [
    "Action",
    "TAU",
    "complement",
    "Term",
    "Nil",
    "NIL",
    "PrefixConsume",
    "PrefixConserve",
    "Sum",
    "Par",
    "Const",
    "FrozenConsume",
    "FrozenConserve",
    "Hole",
    "HOLE",
    "subterms",
    "hole_count",
    "check_context",
    "is_process",
    "frozen_prefix_count",
    "constants_of",
    "action_names_of",
    "format_term",
    "format_action",
    "Definitions",
    "EMPTY_DEFINITIONS",
    "ValidationReport",
    "validate",
]


# ---------------------------------------------------------------------------
# actions


@dataclass(frozen=True)
class Action:
    """A channel name with a polarity, or the internal action tau.

    ``name is None`` encodes tau, which carries no polarity and cannot be
    complemented.
    """

    name: Optional[str]
    complemented: bool = False

    def __post_init__(self) -> None:
        if self.name is None and self.complemented:
            raise ValueError("tau has no complemented form")

    @property
    def is_tau(self) -> bool:
        return self.name is None

    def __str__(self) -> str:
        return format_action(self)


TAU = Action(None)


def complement(action: Action) -> Action:
    """Flip the polarity of a named action; complementing twice is identity."""
    if action.name is None:
        raise ComplementOfTau("tau has no complement")
    return Action(action.name, not action.complemented)


def format_action(action: Action) -> str:
    if action.name is None:
        return "tau"
    return "~" + action.name if action.complemented else action.name


# ---------------------------------------------------------------------------
# terms

class Term:
    """Base class of all process/configuration nodes.

    Each node carries ``ids``, the set of identifiers of its running (frozen)
    prefixes, precomputed at construction so that the semantics can test for
    identifier collisions in O(1).  ``children`` and ``rebuild`` give generic
    traversals a node's shape: ``t.rebuild(t.children()) == t``.
    """

    ids: frozenset[int] = frozenset()

    def children(self) -> tuple[Term, ...]:
        return ()

    def rebuild(self, children: Sequence[Term]) -> Term:
        return self

    def __str__(self) -> str:
        return format_term(self)


@dataclass(frozen=True)
class Nil(Term):
    """The inert process ``0``."""


NIL = Nil()


class _Prefix(Term):
    """The four prefix forms: a named action over a plain continuation."""

    action: Action
    cont: Term

    def __post_init__(self) -> None:
        if self.action.name is None:
            raise TauInPrefix("prefix actions range over named actions, not tau")
        # Holes pass; the check is redone once the hole is filled.
        if self.cont.ids:
            raise IllFormedPlacement(
                "a prefix continuation must be a plain process, "
                f"but {format_term(self.cont)} contains running prefixes"
            )

    def children(self) -> tuple[Term, ...]:
        return (self.cont,)


@dataclass(frozen=True)
class _Idle(_Prefix):
    action: Action
    cont: Term

    def rebuild(self, children: Sequence[Term]) -> Term:
        return type(self)(self.action, children[0])


@dataclass(frozen=True)
class _Running(_Prefix):
    action: Action
    ident: int
    cont: Term

    def __post_init__(self) -> None:
        _Prefix.__post_init__(self)
        if self.ident < 1:
            raise ValueError("running-action identifiers start at 1")
        object.__setattr__(self, "ids", frozenset((self.ident,)))

    def rebuild(self, children: Sequence[Term]) -> Term:
        return type(self)(self.action, self.ident, children[0])


@dataclass(frozen=True)
class PrefixConsume(_Idle):
    """``a.P``: performing ``a`` replaces the whole prefix by ``P``."""


@dataclass(frozen=True)
class PrefixConserve(_Idle):
    """``a:P``: performing ``a`` re-arms the prefix and emits ``P`` alongside."""


@dataclass(frozen=True)
class FrozenConsume(_Running):
    """``[a#l].P``: a started consuming action, identified by ``l >= 1``."""


@dataclass(frozen=True)
class FrozenConserve(_Running):
    """``[a#l]:P``: a started conserving action, identified by ``l >= 1``."""


@dataclass(frozen=True)
class _Binary(Term):
    left: Term
    right: Term

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", self.left.ids | self.right.ids)

    def children(self) -> tuple[Term, ...]:
        return (self.left, self.right)

    def rebuild(self, children: Sequence[Term]) -> Term:
        return type(self)(*children)


@dataclass(frozen=True)
class Sum(_Binary):
    """``P + Q``: choice."""


@dataclass(frozen=True)
class Par(_Binary):
    """``P | Q``: parallel composition."""


@dataclass(frozen=True)
class Const(Term):
    """A reference to a defining equation ``name := body``."""

    name: str


@dataclass(frozen=True)
class Hole(Term):
    """The single hole of a context; never part of a configuration."""


HOLE = Hole()


# ---------------------------------------------------------------------------
# traversal


def subterms(term: Term, descend: Optional[Callable[[Term], bool]] = None) -> Iterator[Term]:
    """Every node of ``term`` in pre-order, the term itself first; with
    ``descend``, only the children of nodes it accepts are visited."""
    stack = [term]
    while stack:
        node = stack.pop()
        yield node
        if descend is None or descend(node):
            stack.extend(reversed(node.children()))


def hole_count(term: Term) -> int:
    """Number of context holes in the term."""
    return sum(1 for t in subterms(term) if isinstance(t, Hole))


def check_context(term: Term) -> None:
    """Raise ParseError unless the term is a context: exactly one hole and
    no running prefixes."""
    holes = hole_count(term)
    if holes != 1:
        raise ParseError(f"a context needs exactly one hole, found {holes}")
    if term.ids:
        raise ParseError("contexts are process-shaped; no running prefixes allowed")


def is_process(term: Term) -> bool:
    """True when the term has no running prefixes (and no hole)."""
    return not term.ids and not hole_count(term)


def frozen_prefix_count(term: Term) -> int:
    """Number of frozen prefix occurrences (duplicated identifiers count)."""
    # pruned on ``ids`` and kept free of the generic walk: the interrupt cap
    # calls this on every derivation
    if not term.ids:
        return 0
    if isinstance(term, _Running):
        return 1
    return sum(map(frozen_prefix_count, term.children()))


def constants_of(term: Term) -> Iterator[str]:
    """Yield every constant name occurring in the term (with repeats)."""
    return (t.name for t in subterms(term) if isinstance(t, Const))


def action_names_of(term: Term) -> set[str]:
    """The channel names syntactically present in the term."""
    return {t.action.name for t in subterms(term) if isinstance(t, _Prefix)}


# ---------------------------------------------------------------------------
# printing

# Binding strength, loosest to tightest: `|` < `+` < prefix.  Both binary
# operators associate to the right, so a left operand of its own kind needs
# parentheses while a right operand does not.
_PREC_PAR = 1
_PREC_SUM = 2
_PREC_ATOM = 3


def _prec(term: Term) -> int:
    if isinstance(term, Par):
        return _PREC_PAR
    if isinstance(term, Sum):
        return _PREC_SUM
    return _PREC_ATOM


def _fmt(term: Term, min_prec: int) -> str:
    text = _fmt_raw(term)
    if _prec(term) < min_prec:
        return f"({text})"
    return text


def _fmt_raw(term: Term) -> str:
    if isinstance(term, Nil):
        return "0"
    if isinstance(term, Const):
        return term.name
    if isinstance(term, Hole):
        return "[]"
    if isinstance(term, PrefixConsume):
        return f"{format_action(term.action)}.{_fmt(term.cont, _PREC_ATOM)}"
    if isinstance(term, PrefixConserve):
        return f"{format_action(term.action)}:{_fmt(term.cont, _PREC_ATOM)}"
    if isinstance(term, FrozenConsume):
        return f"[{format_action(term.action)}#{term.ident}].{_fmt(term.cont, _PREC_ATOM)}"
    if isinstance(term, FrozenConserve):
        return f"[{format_action(term.action)}#{term.ident}]:{_fmt(term.cont, _PREC_ATOM)}"
    if isinstance(term, Sum):
        return f"{_fmt(term.left, _PREC_ATOM)} + {_fmt(term.right, _PREC_SUM)}"
    if isinstance(term, Par):
        return f"{_fmt(term.left, _PREC_SUM)} | {_fmt(term.right, _PREC_PAR)}"
    raise TypeError(f"not a term: {term!r}")


def format_term(term: Term) -> str:
    """Canonical text of a term; reparsing it yields a structurally equal AST."""
    return _fmt(term, _PREC_PAR)


# ---------------------------------------------------------------------------
# definitions and validation


@dataclass(frozen=True, eq=True)
class Definitions:
    """Constant defining equations, mapping each name to a plain process body.

    Constants without a binding are allowed: they behave as inert processes
    (useful for pure product species that never interact again).
    """

    bindings: Mapping[str, Term]

    def get(self, name: str) -> Optional[Term]:
        return self.bindings.get(name)

    def body(self, name: str) -> Term:
        try:
            return self.bindings[name]
        except KeyError:
            raise UnboundConstant(f"no defining equation for constant {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.bindings

    def names(self) -> tuple[str, ...]:
        return tuple(self.bindings)


EMPTY_DEFINITIONS = Definitions({})


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking a model: errors block evaluation, warnings do not.

    Unbound constants are warnings (inert species are legitimate); unguarded
    recursion is an error because unfolding it never terminates.
    """

    unbound: tuple[str, ...]
    unguarded: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.unguarded

    @property
    def errors(self) -> tuple[str, ...]:
        return tuple(
            f"unguarded occurrence of {ref!r} in definition of {owner!r}"
            for owner, ref in self.unguarded
        )

    @property
    def warnings(self) -> tuple[str, ...]:
        return tuple(f"unbound constant {name!r}" for name in self.unbound)


def _unguarded_refs(term: Term) -> set[str]:
    # constants reachable without passing a prefix
    return {t.name for t in subterms(term, lambda t: isinstance(t, _Binary))
            if isinstance(t, Const)}


def _cyclic_edges(edges: dict[str, set[str]]) -> set[tuple[str, str]]:
    # Tarjan's SCC with an explicit call stack, so that long alias chains do
    # not overflow Python's; an edge is cyclic when both endpoints share a
    # component (self-loops included).
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    comp: dict[str, str] = {}
    nodes = set(edges) | {w for ws in edges.values() for w in ws}
    for root in sorted(nodes):
        if root in index:
            continue
        calls = [(root, None)]
        while calls:
            v, successors = calls.pop()
            if successors is None:
                index[v] = low[v] = len(index)
                stack.append(v)
                on_stack.add(v)
                successors = iter(sorted(edges.get(v, ())))
            for w in successors:
                if w not in index:
                    calls += [(v, successors), (w, None)]
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                if low[v] == index[v]:  # v roots a component; name it by v
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp[w] = v
                        if w == v:
                            break
                if calls:
                    caller = calls[-1][0]
                    low[caller] = min(low[caller], low[v])
    bad = set()
    for v, ws in edges.items():
        for w in ws:
            if v == w or comp[v] == comp[w]:
                bad.add((v, w))
    return bad


def validate(defs: Definitions, roots: Iterable[Term] = ()) -> ValidationReport:
    """Check a definitions set (and optional root configurations).

    Reports every constant without a binding (warning) and every constant
    reference that closes an unfolding cycle without passing a prefix
    (error).  Plain aliases such as ``S := C | A | B`` are fine as long as
    the referenced definitions are themselves guarded.
    """
    unbound: set[str] = set()
    for body in defs.bindings.values():
        unbound.update(n for n in constants_of(body) if n not in defs)
    for root in roots:
        unbound.update(n for n in constants_of(root) if n not in defs)

    edges = {
        name: {ref for ref in _unguarded_refs(body) if ref in defs}
        for name, body in defs.bindings.items()
    }
    bad = _cyclic_edges(edges)
    unguarded = tuple(sorted(bad))
    return ValidationReport(unbound=tuple(sorted(unbound)), unguarded=unguarded)
