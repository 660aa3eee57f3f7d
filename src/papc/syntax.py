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
immutable and interned (see "interning" below).  Each node class states its
shape once, as ``children()`` (its direct subterms, left to right), which
`subterms` walks; helpers that collect from a term filter that walk, and hot
paths prune on ``mask`` directly.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .errors import IllFormedPlacement, TauInPrefix

__all__ = [
    "Action",
    "TAU",
    "MAX_IDENT",
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
    "subterms",
    "is_process",
    "constants_of",
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
# run, so no output order may depend on their hash: derived steps are
# collected in insertion order, never in a set, and sorted by a total key
# wherever an order is shown.
#
# ``find`` is the lookup half alone: where no value is live it returns the key
# itself as a *stand-in*, which builds nothing.  A stand-in equals the
# stand-ins of the same value and no live value; a subterm of a live term is
# never one, and until a value is made no stand-in's value comes alive.  So a
# node with a stand-in child is never live, and ``find`` on a ``Sum`` or
# ``Par`` returns its stand-in without looking anything up.
#
# A constructor is ``__new__`` itself: lookup, ``_init`` to check and set the
# fields, then the ``_made`` count and the entry, so a construction that raises
# changes neither.  ``Sum`` and ``Par``, most of the nodes a derivation
# builds, set theirs in ``_Binary.__new__``: one frame.  ``make`` is that
# ``__new__`` bound to its class: ``Sum.make(p, q) is Sum(p, q)`` without the
# class call's ``type.__call__`` layer.  Derivation and parsing call it; class
# calls still work everywhere else.


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
        if ref is not None and (value := ref()) is not None:
            return value
        value = object.__new__(cls)
        value._init(*fields)
        global _made
        _made += 1
        ref = _TABLE[key] = _Ref(value, _forget)
        ref.key = key
        return value

    make = classmethod(__new__)

    @classmethod
    def find(cls, *fields):
        """The live value with these fields, else its stand-in ``(cls, *fields)``."""
        key = (cls, *fields)
        ref = _TABLE.get(key)
        return ref and ref() or key

    def __reduce__(self):  # copying or unpickling yields the interned value
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


# ---------------------------------------------------------------------------
# actions


@dataclass(init=False, eq=False)
class Action(_Interned):
    """A channel name with a polarity, or the internal action tau.

    ``name is None`` encodes tau, which carries no polarity and cannot be
    complemented.  A named action is made together with its complement, the
    complement once the action's own fields have passed the checks, and each
    holds the other as ``partner``, so while one is live so is the other, and
    coupling compares ``partner`` by identity and looks nothing up;
    ``TAU.partner`` is None.  The pair is a reference cycle, which the cyclic
    collector frees: the table's weak references keep neither alive.
    ``partner`` is a slot, not a field: it takes no part in construction,
    copying or ``repr``.
    """

    __slots__ = ("name", "complemented", "partner")
    name: Optional[str]
    complemented: bool

    def __new__(cls, name: Optional[str], complemented: bool = False) -> Action:
        action = super().__new__(cls, name, complemented)
        if action.partner is None and name is not None:  # new: make its complement too
            action.partner = super().__new__(cls, name, not complemented)
            action.partner.partner = action
        return action

    make = classmethod(__new__)

    def _init(self, name: Optional[str], complemented: bool) -> None:
        if name is not None:
            _check_name(name)
        elif complemented:
            raise ValueError("tau has no complemented form")
        self.name, self.complemented, self.partner = name, complemented, None

    def __str__(self) -> str:
        return format_action(self)


TAU = Action(None)


def _check_name(name: str) -> None:
    word = name.replace("_", "a")  # the lexer's name: a letter or '_', then alphanumerics or '_'
    if name == "tau" or not (word[:1].isalpha() and word.isalnum()):
        raise ValueError(f"{name!r} is not a name: it would not parse back as one")


def format_action(action: Action) -> str:
    if action.name is None:
        return "tau"
    return "~" + action.name if action.complemented else action.name


# ---------------------------------------------------------------------------
# terms


MAX_IDENT = 2 ** 16  # the largest running-action identifier


# Binding strength, loosest to tightest: `|` < `+` < prefix.  Both binary
# operators associate to the right, so a left operand of its own kind needs
# parentheses while a right operand does not.
_PREC_PAR = 1
_PREC_SUM = 2
_PREC_ATOM = 3


class Term(_Interned):
    """Base class of all process/configuration nodes.

    Next to its fields each node carries, fixed at construction, ``mask``
    (bit *i* set where a running prefix has identifier *i*, so that the
    semantics combines identifier sets in int operations) and ``n_frozen``
    (its running prefixes, repeated identifiers counted).  ``_text`` is set
    by ``format_term``.
    """

    __slots__ = ("mask", "n_frozen", "_text")
    _prec = _PREC_ATOM

    def _init(self) -> None:  # the leaves
        self.mask, self.n_frozen, self._text = 0, 0, None

    def children(self) -> tuple[Term, ...]:
        return ()

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
        if cont.mask:
            raise IllFormedPlacement(
                "a prefix continuation must be a plain process, "
                f"but {format_term(cont)} contains running prefixes"
            )
        self.action, self.cont = action, cont
        self.mask, self.n_frozen, self._text = 0, 0, None

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
        if not 1 <= ident <= MAX_IDENT:
            raise ValueError(f"running-action identifiers run from 1 to {MAX_IDENT}")
        self.ident = ident
        self.mask, self.n_frozen = 1 << ident, 1

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

    def __new__(cls, left: Term, right: Term):
        # _Interned.__new__ with the fields set inline (see "interning")
        key = (cls, left, right)
        ref = _TABLE.get(key)
        if ref is not None and (value := ref()) is not None:
            return value
        global _made
        _made += 1
        value = object.__new__(cls)
        value.left, value.right, value._text = left, right, None
        value.mask = left.mask | right.mask
        value.n_frozen = left.n_frozen + right.n_frozen
        ref = _TABLE[key] = _Ref(value, _forget)
        ref.key = key
        return value

    make = classmethod(__new__)

    @classmethod
    def find(cls, left, right):
        """``_Interned.find``; a node with a stand-in child is one itself."""
        key = (cls, left, right)
        if type(left) is tuple or type(right) is tuple:
            return key  # the children of a live node are live: no lookup
        ref = _TABLE.get(key)
        return ref and ref() or key

    def children(self) -> tuple[Term, ...]:
        return (self.left, self.right)

    def _show(self) -> str | list[Term]:
        # one pass down the right-nested chain of this operator: each left
        # operand's text, parenthesized unless it binds tighter, or else the
        # operands still to print; then the tail, the first right operand of
        # another kind or with text, parenthesized only if it binds looser
        kind, prec = type(self), self._prec
        parts: list[str] = []
        missing: list[Term] = []
        node = self
        while True:
            left = node.left
            text = left._text
            if text is None:
                missing.append(left)
            else:
                parts.append(text if left._prec > prec else f"({text})")
            node = node.right
            if type(node) is not kind or node._text is not None:
                break
        text = node._text
        if text is None:
            missing.append(node)
        if missing:
            return missing
        parts.append(text if node._prec >= prec else f"({text})")
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


def is_process(term: Term) -> bool:
    """True when the term has no running prefixes."""
    return not term.mask


def constants_of(term: Term) -> Iterator[str]:
    """Yield every constant name occurring in the term (with repeats)."""
    return (t.name for t in subterms(term) if isinstance(t, Const))


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

    Callers read ``bindings`` directly.  Constants without a binding are
    allowed: they behave as inert processes (useful for pure product species
    that never interact again), so a lookup is ``bindings.get(name)``.  A
    binding name must be one that a ``Const`` can reference.
    """

    bindings: Mapping[str, Term]

    def __post_init__(self) -> None:
        for name, body in self.bindings.items():
            _check_name(name)
            if not is_process(body):  # completions never unfold a constant
                raise ValueError(f"the body of {name!r} is not a plain process: "
                                 f"{format_term(body)}")


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
        unbound.update(n for n in constants_of(body) if n not in defs.bindings)
    for root in roots:
        unbound.update(n for n in constants_of(root) if n not in defs.bindings)

    edges = {
        name: {ref for ref in _unguarded_refs(body) if ref in defs.bindings}
        for name, body in defs.bindings.items()
    }
    bad = _cyclic_edges(edges)
    unguarded = tuple(sorted(bad))
    return ValidationReport(unbound=tuple(sorted(unbound)), unguarded=unguarded)
