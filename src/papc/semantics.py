"""Derivation of the five transition relations over configurations.

The relations, and the transition label each one carries:

* ``H``  (handshake)     -- ``(l, a+)``: action ``a`` started with identifier
  ``l``.  A start at a prefix always picks identifier 1; the enclosing sum
  and parallel operators rename it to the least identifier unused in the
  whole composite whenever it collides with a sibling's running actions,
  which keeps reachable state spaces finite.  Two complementary starts in
  parallel components couple into a single tau handshake sharing one fresh
  identifier.
* ``I``  (interrupt)     -- a set of identifiers: every running prefix
  independently either rolls back to its re-startable form (contributing its
  identifier) or stays put.  The relation is total: terms without running
  prefixes have exactly the empty self-loop.
* ``CP`` (preemptive completion) -- ``(l, a-, N)``: the running action ``l``
  finished and consumed its host; ``N`` demands the interruption of the
  competing actions that died with it.  Sums discard the losing summand and
  demand its running actions; parallel siblings must interrupt at least the
  demanded actions they hold.  Coupled completions (preemptive/preemptive,
  conservative/conservative with nothing demanded, or mixed with the
  conservative side's demands covered) fuse into tau completions.
* ``CC`` (conservative completion) -- ``(l, a-, N, P)``: the running action
  finished, its prefix re-armed, and the continuation ``P`` rides in the
  label until a parallel composition can place it alongside.

Constants unfold through every relation except ``I``, where plain processes
(constants and the inert term included) keep the empty self-loop untouched.
All functions are pure; transition sets come back deterministically ordered.

Successive states of a build share most of their subterms as the same
interned nodes, so ``all_steps``, ``system_steps``, ``handshake_steps`` and
``interrupt_steps`` take an optional memo: each relation stores what its
non-trivial subterms derive (with the part of the budget they hold), never
the state itself, so states derive a shared subterm once.  Derivation stays
pure: ``lts.build`` owns one memo for one call and drops it on return.

CP and CC come from one completion pass under a demand budget: steps whose
demand can no longer be cancelled on the way to the root are never built.
``system_steps`` runs it with an empty budget, so closed-system steps are
derived directly rather than filtered out of ``all_steps``.  Interrupt
choices multiply per running prefix, so I, CP, CC, ``all_steps`` and
``system_steps`` all first check the same cap over the top-level parallel
components, and raise ``CapExceeded`` instead of sampling.

A caller that keeps only transitions into targets it already knows passes
them as ``known`` to the same four functions: the steps into other targets
are then derived but never built as terms or transitions, printed or sorted,
and each is counted by a None after the ordered transitions that relation
kept.  ``lts.build`` does this once its state bound is reached.  Such a
derivation builds its targets with ``find`` and makes no node: a known
state is alive and so are all its subterms, so a target that needs a node
no one holds cannot be known, and it is carried as a stand-in instead.
Renaming a stand-in looks its renamed form up again, which may be live and
known.  The counts stay exact: steps are collected in sets, and a stand-in
equals exactly the stand-ins of the same term, so equal steps still merge.

Labels and ``Transition`` are named tuples that compare and hash in C.  A
label equals the plain tuple of its fields; labels of different relations
differ in arity, so never compare equal.  Each label prints and orders itself.
"""

from __future__ import annotations

import itertools
from typing import Collection, Container, Iterable, NamedTuple, Optional, Union

from . import syntax
from .errors import CapExceeded, IdentifierCollision, UnguardedRecursion
from .syntax import (
    TAU,
    Action,
    Const,
    Definitions,
    EMPTY_DEFINITIONS,
    FrozenConserve,
    FrozenConsume,
    Par,
    PrefixConserve,
    PrefixConsume,
    Sum,
    Term,
    format_action,
    format_term,
    subterms,
)

__all__ = [
    "INTERRUPT_CAP",
    "Handshake",
    "Interrupt",
    "CompletePreemptive",
    "CompleteConservative",
    "Label",
    "Transition",
    "label_text",
    "transition_sort_key",
    "actions_at",
    "rename_id",
    "fresh_id",
    "handshake_steps",
    "interrupt_steps",
    "preemptive_completions",
    "conservative_completions",
    "all_steps",
    "is_system_step",
    "system_steps",
]

INTERRUPT_CAP = 16  # running prefixes per top-level parallel component

# Subterm derivations as tuples, keyed by the unfolded Sum or Par node (``_h``),
# ``(node, allowed & node.ids)`` (``_interrupts``) or ``(outer & node.ids, node)``
# (``_completions``; reversed, so never equal).  The public functions pass ``top``:
# storing each state's own derivation too made builds about 9% slower.  Full and
# ``known`` calls share every entry: a full entry holds only live nodes, which
# the memo keeps alive, and a stand-in stored by a known call can only go stale
# once a value is made.  So a full call empties a memo last used by a known
# call, and so does a known call once a value has been made since the last one.
Memo = dict

# The only targets a caller keeps, or None for all.  Steps into other targets
# are derived with ``find``: no node is made for them.
Known = Optional[Container[Term]]

_KNOWN = object()  # the memo key of ``syntax._made`` as of its last known call


# ---------------------------------------------------------------------------
# labels and transitions


class Handshake(NamedTuple):
    ident: int
    action: Action
    relation = "H"

    def _show(self) -> str:
        return f"H {self.ident} {format_action(self.action)}+"

    def _key(self) -> tuple:
        return (0, self.ident, _action_key(self.action))


class Interrupt(NamedTuple):
    idents: frozenset[int]
    relation = "I"

    def _show(self) -> str:
        return f"I {_set_text(self.idents)}"

    def _key(self) -> tuple:
        return (1, tuple(sorted(self.idents)))


class CompletePreemptive(NamedTuple):
    ident: int
    action: Action
    demanded: frozenset[int]
    relation = "CP"

    def _show(self) -> str:
        return f"CP {self.ident} {format_action(self.action)}- {_set_text(self.demanded)}"

    def _key(self) -> tuple:
        return (2, self.ident, _action_key(self.action), tuple(sorted(self.demanded)))


class CompleteConservative(NamedTuple):
    ident: int
    action: Action
    demanded: frozenset[int]
    continuation: Term
    relation = "CC"

    def _show(self) -> str:
        return (f"CC {self.ident} {format_action(self.action)}- "
                f"{_set_text(self.demanded)} -> {format_term(self.continuation)}")

    def _key(self) -> tuple:
        return (3, self.ident, _action_key(self.action), tuple(sorted(self.demanded)),
                format_term(self.continuation))


Label = Union[Handshake, Interrupt, CompletePreemptive, CompleteConservative]


class Transition(NamedTuple):
    source: Term
    label: Label
    target: Term

    def __str__(self) -> str:
        return f"{label_text(self.label)} -> {format_term(self.target)}"


def _set_text(idents: Iterable[int]) -> str:
    return "{" + ",".join(str(i) for i in sorted(idents)) + "}"


def _action_key(action: Action) -> tuple:
    if action.name is None:
        return (0, "", False)
    return (1, action.name, action.complemented)


def label_text(label: Label) -> str:
    """Deterministic one-line serialization used by exports and the CLI."""
    return label._show()


def transition_sort_key(t: Transition) -> tuple:
    """Relation first, then the label's fields, then the printed target."""
    return (t.label._key(), format_term(t.target))


# ---------------------------------------------------------------------------
# auxiliary functions over configurations


def actions_at(ident: int, config: Term) -> frozenset[Action]:
    """Actions currently running in the configuration under identifier ``ident``."""
    return frozenset(t.action for t in subterms(config, lambda t: ident in t.ids)
                     if isinstance(t, (FrozenConsume, FrozenConserve)) and t.ident == ident)


def rename_id(config: Term, old: int, new: int) -> Term:
    """Replace identifier ``old`` by ``new`` on every running prefix.

    ``new`` must not already identify a different running action.
    """
    if new == old:
        return config
    if new in config.ids:
        raise IdentifierCollision(
            f"renaming {old} to {new} would collide in {format_term(config)}"
        )
    return _rename(config, old, new)


def _rename(config: Term | tuple, old: int, new: int, find: bool = False) -> Term | tuple:
    if new == old:
        return config
    if type(config) is tuple:  # a stand-in from _h: a running prefix, a Sum or a Par
        if config[0] in _IDLE:
            node, action, ident, cont = config
            return node.find(action, new, cont) if ident == old else config
        node, left, right = config
        return node.find(_rename(left, old, new, True), _rename(right, old, new, True))
    if old not in config.ids:
        return config
    node = type(config)
    make = node.find if find else node
    if node in _IDLE:
        return make(config.action, new, config.cont)
    # Sum or Par, the only other id holders; direct, as every start renames
    return make(_rename(config.left, old, new, find), _rename(config.right, old, new, find))


def fresh_id(used: Iterable[int]) -> int:
    """The least positive identifier not in ``used``."""
    taken = used if isinstance(used, (set, frozenset)) else set(used)
    i = 1
    while i in taken:
        i += 1
    return i


# ---------------------------------------------------------------------------
# handshake relation

_HStep = tuple[int, Action, Term]


_STARTED = {PrefixConsume: FrozenConsume, PrefixConserve: FrozenConserve}
_IDLE = {FrozenConsume: PrefixConsume, FrozenConserve: PrefixConserve}


def _h(config: Term, defs: Definitions, unfolding: frozenset[str],
       memo: Memo | None = None, top: bool = False, find: bool = False) -> Iterable[_HStep]:
    while isinstance(config, Const):  # a chain of aliases unfolds in a loop
        body = defs.get(config.name)
        if body is None:
            return ()
        if config.name in unfolding:
            raise UnguardedRecursion(
                f"constant {config.name!r} unfolds to itself without passing a prefix"
            )
        unfolding = unfolding | {config.name}
        config = body
    started = _STARTED.get(type(config))
    if started is not None:
        make = started.find if find else started
        return ((1, config.action, make(config.action, 1, config.cont)),)
    if not isinstance(config, (Sum, Par)):
        return ()  # inert and running prefixes
    # keyed by the node alone: a raising call stores nothing, and a node that
    # derived once reaches no unguarded cycle, so no ``unfolding`` makes it raise
    if memo is not None and (steps := memo.get(config)) is not None:
        return steps
    node = type(config)
    make = node.find if find else node
    left, right = config.left, config.right
    fresh = fresh_id(config.ids)  # the least identifier unused in the composite
    out: set[_HStep] = set()
    left_steps = _h(left, defs, unfolding, memo, find=find)
    right_steps = _h(right, defs, unfolding, memo, find=find)
    for steps, other, flip in ((left_steps, right, False), (right_steps, left, True)):
        for ident, action, target in steps:
            if ident in other.ids:
                ident, target = fresh, _rename(target, ident, fresh, find)
            out.add((ident, action, make(other, target) if flip else make(target, other)))
    if node is Par:
        # complementary starts couple into one tau start with a shared
        # identifier fresh for the whole composite
        for lid, laction, ltarget in left_steps:
            if laction.is_tau:
                continue
            # the complement if it is live, else its stand-in, which equals no
            # derived action; either way no action is made
            partner = Action.find(laction.name, not laction.complemented)
            for rid, raction, rtarget in right_steps:
                if raction == partner:
                    out.add((fresh, TAU, make(_rename(ltarget, lid, fresh, find),
                                              _rename(rtarget, rid, fresh, find))))
    if memo is not None and not top:
        memo[config] = out = tuple(out)
    return out


# ---------------------------------------------------------------------------
# interrupt relation

_IStep = tuple[frozenset[int], Term]

_EMPTY: frozenset[int] = frozenset()


def _check_cap(config: Term) -> None:
    """Raise ``CapExceeded`` when a top-level parallel component of the
    configuration runs more than ``INTERRUPT_CAP`` prefixes; the leftmost
    such component is named."""
    if config.n_frozen <= INTERRUPT_CAP:
        return  # no component can exceed the cap
    stack = [config]  # a loop, not recursion: the spine may be arbitrarily wide
    while stack:
        config = stack.pop()
        if config.n_frozen <= INTERRUPT_CAP:
            continue
        if not isinstance(config, Par):
            raise CapExceeded(
                f"component {format_term(config)} has {config.n_frozen} "
                f"running prefixes; interrupt enumeration is capped at {INTERRUPT_CAP}"
            )
        stack += (config.right, config.left)  # the left one is checked first


def _interrupts(config: Term, allowed: frozenset[int], memo: Memo | None = None,
                top: bool = False, find: bool = False) -> Iterable[_IStep]:
    """Every rollback choice among the running prefixes whose identifier is in
    ``allowed``; the others stay put, so ``allowed >= config.ids`` gives the
    whole relation."""
    if config.ids.isdisjoint(allowed):
        return ((_EMPTY, config),)
    idle = _IDLE.get(type(config))
    if idle is not None:
        make = idle.find if find else idle
        return ((config.ids, make(config.action, config.cont)), (_EMPTY, config))
    if memo is not None and (steps := memo.get(key := (config, allowed & config.ids))) is not None:
        return steps
    node = type(config)  # Sum or Par, the only other nodes holding running prefixes
    make = node.find if find else node
    steps = {(lids | rids, make(ltarget, rtarget))
             for (lids, ltarget), (rids, rtarget) in itertools.product(
                 _interrupts(config.left, allowed, memo, find=find),
                 _interrupts(config.right, allowed, memo, find=find))}
    if memo is not None and not top:
        memo[key] = steps = tuple(steps)
    return steps


# ---------------------------------------------------------------------------
# completion relations

_CPStep = tuple[int, Action, frozenset[int], Term]
_CCStep = tuple[int, Action, frozenset[int], Term, Term]  # (l, a, N, continuation, target)


def _completions(config: Term, outer: frozenset[int], memo: Memo | None = None,
                 top: bool = False, find: bool = False) -> tuple[Iterable[_CPStep], Iterable[_CCStep]]:
    """The preemptive and conservative completions of ``config`` whose demand
    is a subset of ``outer``.

    A demand is always a subset of its own subterm's identifiers, and it only
    loses identifiers at a parallel composition, those the sibling holds.
    With ``outer`` the identifiers held by the parallel siblings of every
    enclosing composition, a step demanding anything else can never reach
    the root demanding nothing, so it is pruned: the interrupts that would
    add such an identifier are not enumerated at all.  ``outer = config.ids``
    prunes nothing.  Only ``outer & config.ids`` matters.
    """
    if not config.ids:
        return (), ()
    if isinstance(config, FrozenConsume):
        return ((config.ident, config.action, _EMPTY, config.cont),), ()
    if isinstance(config, FrozenConserve):
        rearmed = (PrefixConserve.find if find else PrefixConserve)(config.action, config.cont)
        return (), ((config.ident, config.action, _EMPTY, config.cont, rearmed),)
    if memo is not None and (found := memo.get(key := (outer & config.ids, config))) is not None:
        return found
    node = type(config)
    make = node.find if find else node
    left, right = config.left, config.right
    cp: set[_CPStep] = set()
    cc: set[_CCStep] = set()
    if node is Sum:
        # the losing summand disappears: a preemptive winner demands all its
        # running actions (so fits the budget only if they do), a
        # conservative one those it chose to interrupt
        for this, other, flip in ((left, right, False), (right, left, True)):
            this_cp, this_cc = _completions(this, outer, memo, find=find)
            if other.ids <= outer:
                for ident, action, demanded, target in this_cp:
                    cp.add((ident, action, demanded | other.ids, target))
            choices = _interrupts(other, other.ids & outer, memo, find=find) if this_cc else ()
            for ident, action, demanded, cont, target in this_cc:
                for interrupted, rest in choices:
                    cc.add((ident, action, demanded | interrupted, cont,
                            make(rest, target) if flip else make(target, rest)))
    else:  # Par
        cp_left, cc_left = _completions(left, outer | right.ids, memo, find=find)
        cp_right, cc_right = _completions(right, outer | left.ids, memo, find=find)
        for this_cp, this_cc, other, flip in ((cp_left, cc_left, right, False),
                                              (cp_right, cc_right, left, True)):
            # a completion on one side; the other side interrupts at least the
            # demanded actions it hosts, and demands satisfied inside vanish
            choices_for: dict[frozenset[int], Iterable[_IStep]] = {}
            for ident, action, demanded, target in this_cp:
                required = other.ids & demanded
                allowed = other.ids & (demanded | outer)
                choices = choices_for.get(allowed)
                if choices is None:
                    choices = choices_for[allowed] = _interrupts(other, allowed, memo, find=find)
                for interrupted, rest in choices:
                    if interrupted >= required:
                        cp.add((ident, action, (demanded | interrupted) - required,
                                make(rest, target) if flip else make(target, rest)))
            for ident, action, demanded, cont, target in this_cc:
                if demanded <= outer:
                    cc.add((ident, action, demanded, cont,
                            make(other, target) if flip else make(target, other)))
        # coupled preemptive completions: shared demands cancel out
        for lident, laction, ldem, ltarget in cp_left:
            if laction.is_tau:
                continue
            partner = Action.find(laction.name, not laction.complemented)
            for rident, raction, rdem, rtarget in cp_right:
                visible = ldem ^ rdem
                if rident == lident and raction == partner and visible <= outer:
                    cp.add((lident, TAU, visible, make(ltarget, rtarget)))
        # coupled conservative completions with nothing demanded: both
        # continuations land in parallel at this level
        for lident, laction, ldem, lcont, ltarget in cc_left:
            if ldem:
                continue
            partner = Action.find(laction.name, not laction.complemented)
            for rident, raction, rdem, rcont, rtarget in cc_right:
                if rident == lident and raction == partner and not rdem:
                    cp.add((lident, TAU, _EMPTY,
                            make(make(make(ltarget, rtarget), lcont), rcont)))
        # mixed coupling: the conservative side's demands must all be covered by
        # the preemptive side's, and only the difference stays visible, within
        # the budget
        for this_cc, other_cp, flip in ((cc_left, cp_right, False), (cc_right, cp_left, True)):
            for ident, action, cdem, cont, ctarget in this_cc:
                partner = Action.find(action.name, not action.complemented)
                for pident, paction, pdem, ptarget in other_cp:
                    if pident == ident and paction == partner and cdem <= pdem <= outer | cdem:
                        pair = make(ptarget, ctarget) if flip else make(ctarget, ptarget)
                        cp.add((ident, TAU, pdem - cdem, make(pair, cont)))
    if memo is not None and not top:
        memo[key] = cp, cc = tuple(cp), tuple(cc)
    return cp, cc


# ---------------------------------------------------------------------------
# public operations


def _memo_for(memo: Memo | None, known: Known) -> Memo | None:
    # the memo, emptied first where it may hold a stale stand-in (see Memo)
    if memo is not None:
        made = memo.get(_KNOWN)
        if made is not None and (known is None or made != syntax._made):
            memo.clear()
        if known is not None:
            memo[_KNOWN] = syntax._made
    return memo


def _sorted_transitions(source: Term, label_class: type, steps: Collection[tuple],
                        known: Known = None) -> tuple[Transition | None, ...]:
    # each step holds its label's fields, then its target; steps are distinct.
    # With ``known``, a step into another target is counted by a trailing None
    kept = steps if known is None else [step for step in steps if step[-1] in known]
    transitions = [Transition(source, label_class(*step[:-1]), step[-1]) for step in kept]
    return tuple(sorted(transitions, key=transition_sort_key)) + (None,) * (len(steps) - len(kept))


def handshake_steps(config: Term, defs: Definitions = EMPTY_DEFINITIONS,
                    memo: Memo | None = None, known: Known = None) -> tuple[Transition | None, ...]:
    """Every start derivable from the configuration, coupled starts included."""
    steps = _h(config, defs, frozenset(), _memo_for(memo, known), True, known is not None)
    return _sorted_transitions(config, Handshake, steps, known)


def interrupt_steps(config: Term, defs: Definitions = EMPTY_DEFINITIONS,
                    memo: Memo | None = None, known: Known = None) -> tuple[Transition | None, ...]:
    """Every rollback combination: one transition per subset of running prefixes."""
    del defs  # interruption never unfolds constants
    _check_cap(config)
    steps = _interrupts(config, config.ids, _memo_for(memo, known), True, known is not None)
    return _sorted_transitions(config, Interrupt, steps, known)


def preemptive_completions(config: Term, defs: Definitions = EMPTY_DEFINITIONS) -> tuple[Transition, ...]:
    """Every consuming completion, including coupled tau completions."""
    del defs  # completions fire on running prefixes only, never on constants
    _check_cap(config)
    return _sorted_transitions(config, CompletePreemptive, _completions(config, config.ids)[0])


def conservative_completions(config: Term, defs: Definitions = EMPTY_DEFINITIONS) -> tuple[Transition, ...]:
    """Every re-arming completion, the continuation riding in the label."""
    del defs
    _check_cap(config)
    return _sorted_transitions(config, CompleteConservative, _completions(config, config.ids)[1])


def all_steps(config: Term, defs: Definitions = EMPTY_DEFINITIONS,
              memo: Memo | None = None, known: Known = None) -> tuple[Transition | None, ...]:
    """The union of the four relations, deterministically ordered.

    The relation comes first in the sort key, so the four sorted tuples
    concatenate in order."""
    starts = handshake_steps(config, defs, memo, known)
    interrupts = interrupt_steps(config, defs, memo, known)
    cp, cc = _completions(config, config.ids, _memo_for(memo, known), True, known is not None)
    return (starts + interrupts + _sorted_transitions(config, CompletePreemptive, cp, known)
            + _sorted_transitions(config, CompleteConservative, cc, known))


def is_system_step(t: Transition) -> bool:
    """A closed-system move: a tau start, or a tau completion demanding nothing."""
    if isinstance(t.label, Handshake):
        return t.label.action.is_tau
    if isinstance(t.label, CompletePreemptive):
        return t.label.action.is_tau and not t.label.demanded
    return False


def system_steps(config: Term, defs: Definitions = EMPTY_DEFINITIONS,
                 memo: Memo | None = None, known: Known = None) -> tuple[Transition | None, ...]:
    """The steps of ``all_steps`` that ``is_system_step`` keeps, derived
    directly: completions run under an empty demand budget."""
    # starts before the cap check, as in all_steps, so the same error wins
    find = known is not None
    memo = _memo_for(memo, known)
    starts = [step for step in _h(config, defs, frozenset(), memo, True, find) if step[1].is_tau]
    _check_cap(config)
    cp = [step for step in _completions(config, _EMPTY, memo, True, find)[0] if step[1].is_tau]
    return (_sorted_transitions(config, Handshake, starts, known)
            + _sorted_transitions(config, CompletePreemptive, cp, known))
