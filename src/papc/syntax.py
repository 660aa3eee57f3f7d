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
represents both; `is_process` tells them apart.  Nodes and actions are
immutable and hash-consed by one constructor: equal values are one interned
object, so they compare and hash by identity.  Each node also keeps its
identifiers and its running-prefix count.  Printing goes by chains:
a right-nested run of one binary operator (``a | b | c``), or a run of
prefixes (``a.b:c.0``), prints in one pass, and only the chain's head keeps
the text, so a printed chain holds text in proportion to its length, not to
its square.

Traversal: each node class states its shape once, as ``children()`` (its
direct subterms, left to right) and ``rebuild(children)`` (the same node over
new subterms).  `subterms` walks a term in pre-order on an explicit stack,
visiting a node's children only where ``descend(node)`` holds.  Helpers that
collect from a term filter that walk; helpers that rewrite a term recurse
through ``children``/``rebuild``; hot paths prune on ``ids`` directly.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, fields
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
    "check_context",
    "is_process",
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
# interning
#
# Actions and terms are hash-consed (Filliatre & Conchon, "Type-safe modular
# hash-consing", ML 2006): a constructor returns the live value of the same
# class with the same fields when there is one, and builds, checks and enters
# a new value otherwise.  The table is keyed by the class and the fields, and
# holds its values through weak references that drop their entry when the
# value dies.  Values compare and hash by identity, which varies from run to
# run, so no output order may depend on their hash: derived transitions are
# sorted by a total key instead.
#
# ``find`` is the lookup half alone: where no value is live it returns the key
# itself as a *stand-in*, which builds nothing.  A stand-in equals the
# stand-ins of the same value and no live value; a subterm of a live term is
# never one, and until a value is made no stand-in's value comes alive.


class _Ref(weakref.ref):
    __slots__ = ("key",)


_TABLE: dict[tuple, _Ref] = {}
_made = 0  # values built so far; while it stays put, no stand-in comes alive


def _forget(ref: _Ref, table: dict = _TABLE) -> None:
    if table.get(ref.key) is ref:  # a newer value may hold the key by now
        del table[ref.key]


class _Interned:
    """Built positionally from its dataclass fields, which ``_init`` checks."""

    __slots__ = ("__weakref__",)

    def __new__(cls, *fields):
        key = (cls, *fields)
        ref = _TABLE.get(key)  # the live value under the key, else a new one
        return ref and ref() or cls._make(key, fields)

    @classmethod
    def find(cls, *fields):
        """The live value with these fields, else its stand-in ``(cls, *fields)``."""
        key = (cls, *fields)
        ref = _TABLE.get(key)
        return ref and ref() or key

    @classmethod
    def _make(cls, key: tuple, fields: tuple):
        """Build and check a value, then enter it under ``key``."""
        global _made
        _made += 1
        value = object.__new__(cls)
        value._init(*fields)
        ref = _Ref(value, _forget)
        ref.key = key
        _TABLE[key] = ref
        return value

    def __reduce__(self):  # copying or unpickling yields the interned value
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


# ---------------------------------------------------------------------------
# actions


@dataclass(init=False, eq=False)
class Action(_Interned):
    """A channel name with a polarity, or the internal action tau.

    ``name is None`` encodes tau, which carries no polarity and cannot be
    complemented.  Actions are interned: they compare and hash by identity.
    """

    __slots__ = ("name", "complemented")
    name: Optional[str]
    complemented: bool

    def __new__(cls, name: Optional[str], complemented: bool = False) -> Action:
        return super().__new__(cls, name, complemented)

    def _init(self, name: Optional[str], complemented: bool) -> None:
        if name is not None:
            _check_name(name)
        elif complemented:
            raise ValueError("tau has no complemented form")
        self.name, self.complemented = name, complemented

    @property
    def is_tau(self) -> bool:
        return self.name is None

    def __str__(self) -> str:
        return format_action(self)


TAU = Action(None)


def _check_name(name: str) -> None:
    word = name.replace("_", "a")  # the lexer's name: a letter or '_', then alphanumerics or '_'
    if name == "tau" or not (word[:1].isalpha() and word.isalnum()):
        raise ValueError(f"{name!r} is not a name: it would not parse back as one")


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


_NO_IDS: frozenset[int] = frozenset()

# Binding strength, loosest to tightest: `|` < `+` < prefix.  Both binary
# operators associate to the right, so a left operand of its own kind needs
# parentheses while a right operand does not.
_PREC_PAR = 1
_PREC_SUM = 2
_PREC_ATOM = 3


class Term(_Interned):
    """Base class of all process/configuration nodes.

    Nodes are interned like actions and never change after construction:
    building a node equal to a live one returns that one, so ``==`` is
    ``is`` and ``hash`` is the identity hash.  Next to its fields each node
    carries, fixed at construction, ``ids`` (the identifiers of its running
    prefixes, so that the semantics can test for identifier collisions in
    O(1)) and ``n_frozen`` (its running prefixes, repeated identifiers
    counted); holes are counted by walking.  A node that ``format_term``
    printed as the head of a chain keeps the chain's text; the nodes inside
    the chain keep none.  ``children`` and ``rebuild`` give generic
    traversals a node's shape: ``t.rebuild(t.children()) is t``.
    """

    __slots__ = ("ids", "n_frozen", "_text")
    _prec = _PREC_ATOM

    def _init(self) -> None:  # the leaves
        self.ids, self.n_frozen, self._text = _NO_IDS, 0, None

    def children(self) -> tuple[Term, ...]:
        return ()

    def rebuild(self, children: Sequence[Term]) -> Term:
        return self

    def __str__(self) -> str:
        return format_term(self)


@dataclass(init=False, eq=False)
class Nil(Term):
    """The inert process ``0``."""

    __slots__ = ()

    def _show(self) -> str:
        return "0"


NIL = Nil()


@dataclass(init=False, eq=False)
class Hole(Term):
    """The single hole of a context; never part of a configuration."""

    __slots__ = ()

    def _show(self) -> str:
        return "[]"


HOLE = Hole()


@dataclass(init=False, eq=False)
class Const(Term):
    """A reference to a defining equation ``name := body``."""

    __slots__ = ("name",)
    name: str

    def _init(self, name: str) -> None:
        _check_name(name)
        self.name = name
        Term._init(self)

    def _show(self) -> str:
        return self.name


def _wrap(term: Term, min_prec: int) -> str:
    # a printed operand, parenthesized when it binds looser than required
    return f"({term._text})" if term._prec < min_prec else term._text


class _Prefix(Term):
    """The four prefix forms: a named action over a plain continuation."""

    __slots__ = ("action", "cont")

    def _init(self, action: Action, cont: Term) -> None:
        if action.name is None:
            raise TauInPrefix("prefix actions range over named actions, not tau")
        # Holes pass; the check is redone once the hole is filled.
        if cont.ids:
            raise IllFormedPlacement(
                "a prefix continuation must be a plain process, "
                f"but {format_term(cont)} contains running prefixes"
            )
        self.action, self.cont = action, cont
        self.ids, self.n_frozen, self._text = _NO_IDS, 0, None

    def children(self) -> tuple[Term, ...]:
        return (self.cont,)

    def _show(self) -> str | list[Term]:
        # this prefix and the ones under it, up to the first continuation
        # that is no prefix or has text
        heads, node = [self._head()], self.cont
        while isinstance(node, _Prefix) and node._text is None:
            heads.append(node._head())
            node = node.cont
        if node._text is None:
            return [node]
        return "".join(heads) + _wrap(node, _PREC_ATOM)


@dataclass(init=False, eq=False)
class _Idle(_Prefix):
    __slots__ = ()
    action: Action
    cont: Term

    def rebuild(self, children: Sequence[Term]) -> Term:
        return type(self)(self.action, children[0])

    def _head(self) -> str:
        return f"{format_action(self.action)}{self._sep}"


@dataclass(init=False, eq=False)
class _Running(_Prefix):
    __slots__ = ("ident",)
    action: Action
    ident: int
    cont: Term

    def _init(self, action: Action, ident: int, cont: Term) -> None:
        _Prefix._init(self, action, cont)
        if ident < 1:
            raise ValueError("running-action identifiers start at 1")
        self.ident = ident
        self.ids, self.n_frozen = frozenset((ident,)), 1

    def rebuild(self, children: Sequence[Term]) -> Term:
        return type(self)(self.action, self.ident, children[0])

    def _head(self) -> str:
        return f"[{format_action(self.action)}#{self.ident}]{self._sep}"


@dataclass(init=False, eq=False)
class PrefixConsume(_Idle):
    """``a.P``: performing ``a`` replaces the whole prefix by ``P``."""

    __slots__ = ()
    _sep = "."


@dataclass(init=False, eq=False)
class PrefixConserve(_Idle):
    """``a:P``: performing ``a`` re-arms the prefix and emits ``P`` alongside."""

    __slots__ = ()
    _sep = ":"


@dataclass(init=False, eq=False)
class FrozenConsume(_Running):
    """``[a#l].P``: a started consuming action, identified by ``l >= 1``."""

    __slots__ = ()
    _sep = "."


@dataclass(init=False, eq=False)
class FrozenConserve(_Running):
    """``[a#l]:P``: a started conserving action, identified by ``l >= 1``."""

    __slots__ = ()
    _sep = ":"


@dataclass(init=False, eq=False)
class _Binary(Term):
    __slots__ = ("left", "right")
    left: Term
    right: Term

    def _init(self, left: Term, right: Term) -> None:
        self.left, self.right, self._text = left, right, None
        lids, rids = left.ids, right.ids
        self.ids = lids | rids if lids and rids else lids or rids
        self.n_frozen = left.n_frozen + right.n_frozen

    def children(self) -> tuple[Term, ...]:
        return (self.left, self.right)

    def rebuild(self, children: Sequence[Term]) -> Term:
        return type(self)(*children)

    def _show(self) -> str | list[Term]:
        # the left operands down the right-nested chain of this operator,
        # then its tail: the first right operand of another kind or with text
        operands, node, kind = [self.left], self.right, type(self)
        while type(node) is kind and node._text is None:
            operands.append(node.left)
            node = node.right
        operands.append(node)
        for t in operands:
            if t._text is None:
                return [t for t in operands if t._text is None]
        # _wrap inlined over a wide chain: a left operand is parenthesized
        # unless it binds tighter, the tail only when it binds looser
        prec = self._prec
        parts = [t._text if t._prec > prec else f"({t._text})" for t in operands]
        if node._prec == prec:
            parts[-1] = node._text
        return self._op.join(parts)


@dataclass(init=False, eq=False)
class Sum(_Binary):
    """``P + Q``: choice."""

    __slots__ = ()
    _op = " + "
    _prec = _PREC_SUM


@dataclass(init=False, eq=False)
class Par(_Binary):
    """``P | Q``: parallel composition."""

    __slots__ = ()
    _op = " | "
    _prec = _PREC_PAR


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


def check_context(term: Term) -> None:
    """Raise ParseError unless the term is a context: exactly one hole and
    no running prefixes."""
    holes = sum(isinstance(t, Hole) for t in subterms(term))
    if holes != 1:
        raise ParseError(f"a context needs exactly one hole, found {holes}")
    if term.ids:
        raise ParseError("contexts are process-shaped; no running prefixes allowed")


def is_process(term: Term) -> bool:
    """True when the term has no running prefixes (and no hole)."""
    return not term.ids and not any(isinstance(t, Hole) for t in subterms(term))


def constants_of(term: Term) -> Iterator[str]:
    """Yield every constant name occurring in the term (with repeats)."""
    return (t.name for t in subterms(term) if isinstance(t, Const))


def action_names_of(term: Term) -> set[str]:
    """The channel names syntactically present in the term."""
    return {t.action.name for t in subterms(term) if isinstance(t, _Prefix)}


# ---------------------------------------------------------------------------
# printing


def format_term(term: Term) -> str:
    """Canonical text of a term; reparsing it yields the same term.

    A node prints a whole chain in one pass: a binary node the right-nested
    operands of its own operator, a prefix the prefixes under it.  Only the
    chain's head keeps the text, so a printed chain holds text in proportion
    to its length, and printing a node costs about the length of its text.
    Printing runs bottom-up on an explicit stack and stops at subterms that
    already have their text."""
    if term._text is None:
        stack = [term]
        while stack:
            node = stack[-1]
            shown = node._show()  # its text, or the subterms to print first
            if type(shown) is str:
                stack.pop()
                node._text = shown
            else:
                stack += shown
    return term._text


# ---------------------------------------------------------------------------
# definitions and validation


@dataclass(frozen=True, eq=True)
class Definitions:
    """Constant defining equations, mapping each name to a plain process body.

    Constants without a binding are allowed: they behave as inert processes
    (useful for pure product species that never interact again).  A binding
    name must be one that a ``Const`` can reference.
    """

    bindings: Mapping[str, Term]

    def __post_init__(self) -> None:
        for name in self.bindings:
            _check_name(name)

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
