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
All functions are pure, and each returns its transitions in derivation
order.  Steps are collected in insertion order, never in a set, so that order
is a function of the term alone; a caller that shows transitions sorts them
by ``transition_sort_key``.

Successive states of a build share most of their subterms as the same
interned nodes, so ``all_steps``, ``system_steps``, ``handshake_steps`` and
``interrupt_steps`` take an optional ``Memo`` in which states derive a shared
subterm once.  Identifier sets are ints there, bit *i* for identifier *i* as
in ``Term.mask`` (``a & ~b`` is ``a - b``), so steps and memo keys hold no
set; a label gets its frozensets in ``_transitions``.  A start whose fresh
identifier would pass ``MAX_IDENT`` raises ``CapExceeded``.

CP and CC come from one completion pass under a demand budget: steps whose
demand can no longer be cancelled on the way to the root are never built.
``system_steps`` runs it with an empty budget, so closed-system steps are
derived directly rather than filtered out of ``all_steps``.  Its root frame
keeps only closed-system steps: it wraps only tau starts and tau preemptive
completions, enumerates no interrupt for a visible completion and builds no
conservative one.  The root's children are derived in full, as a coupling at
the root reads their visible steps, and a root that hits the memo filters the
full entry it reads.  Interrupt choices multiply per running prefix, so I, CP,
CC, ``all_steps`` and ``system_steps`` all first check the same cap over the
top-level parallel components, and raise ``CapExceeded`` instead of sampling.

A caller that keeps only transitions into targets it already knows passes
them as ``known`` to the same four functions: the steps into other targets
are then never built as terms or transitions, printed or sorted, and a None
after the transitions a relation kept marks that it left some out.
``lts.build`` does this once its state bound is reached.  Such a derivation
builds its targets with ``find`` and makes no node: a known state is alive
and so are all its subterms, so a target that needs a node no one holds
cannot be known, and it is carried as a stand-in instead.  A node over a
stand-in is a stand-in too, made with no lookup, and no stand-in is tested
against ``known``.  Renaming a stand-in looks its renamed form up again,
which may be live and known.  ``all_steps`` and ``interrupt_steps`` also
drop most steps into stand-ins below the root (see ``_pruned``).

Labels and ``Transition`` are named tuples that compare and hash in C.  A
label equals the plain tuple of its fields; labels of different relations
differ in arity, so never compare equal.
"""

from __future__ import annotations

import itertools
from typing import Collection, Container, Iterable, NamedTuple, Optional, Union

from . import syntax
from .errors import CapExceeded, UnguardedRecursion
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
    "handshake_steps",
    "interrupt_steps",
    "preemptive_completions",
    "conservative_completions",
    "all_steps",
    "is_system_step",
    "system_steps",
]

INTERRUPT_CAP = 16  # running prefixes per top-level parallel component

# What the non-trivial subterms of states derive, with the part of the budget
# they hold.  Entries depend on the definitions, so a memo serves one owner,
# which drops it: ``lts.build`` per build and the ``bisimilar`` explorer per
# check.  Tuples in derivation order, keyed by the unfolded Sum or Par node
# (``_h``), ``(node, allowed & node.mask)`` (``_interrupts``) or
# ``(outer & node.mask, node)`` (``_completions``; reversed, so never equal).
# An entry keeps the order its steps were first derived in, so a memo never
# changes derivation order.  The public functions pass ``top``: a state's own
# derivation is never stored, so every entry is a full result, or a pruned
# one where a known call prunes.  ``_memo_for`` keeps a pruned entry from a
# call that does not prune; every other entry serves every call.
Memo = dict

# The only targets a caller keeps, or None for all.  Steps into other targets
# are derived with ``find``: no node is made for them.
Known = Optional[Container[Term]]

_KNOWN = object()  # the memo key of ``(syntax._made, system)`` as of its last known call


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
    entry = _shared_labels.get(label)
    if entry is None:  # a CC label, or one not in the table
        return label._show()
    if entry[1] is None:
        entry[1] = label._show()
    return entry[1]


def transition_sort_key(t: Transition) -> tuple:
    """Relation first, then the label's fields, then the printed target."""
    label = t.label
    entry = _shared_labels.get(label)
    if entry is None:
        return (label._key(), format_term(t.target))
    if entry[2] is None:
        entry[2] = label._key()
    return (entry[2], format_term(t.target))


# ---------------------------------------------------------------------------
# identifiers


def _rename(config: Term | tuple, old: int, new: int, find: bool = False) -> Term | tuple:
    if new == old:
        return config
    if type(config) is tuple:  # a stand-in from _h: a running prefix, a Sum or a Par
        if config[0] in _IDLE:
            node, action, ident, cont = config
            return node.find(action, new, cont) if ident == old else config
        node, left, right = config
        return node.find(_rename(left, old, new, True), _rename(right, old, new, True))
    if not config.mask >> old & 1:
        return config
    node = type(config)
    make = node.find if find else node.make
    if node in _IDLE:
        return make(config.action, new, config.cont)
    # Sum or Par, the only other id holders; only a child holding ``old``
    # changes, and both do where a coupled start shares it
    left, right = config.left, config.right
    if left.mask >> old & 1:
        left = _rename(left, old, new, find)
    if right.mask >> old & 1:
        right = _rename(right, old, new, find)
    return make(left, right)


def _fresh(config: Term) -> int:
    # the least identifier unused in ``config``: the lowest clear bit above bit 0
    mask = config.mask | 1
    fresh = (~mask & (mask + 1)).bit_length() - 1
    if fresh > syntax.MAX_IDENT:
        raise CapExceeded(f"a start in {format_term(config)} needs an identifier past the bound")
    return fresh


# ---------------------------------------------------------------------------
# handshake relation

_HStep = tuple[int, Action, Term]


_STARTED = {PrefixConsume: FrozenConsume, PrefixConserve: FrozenConserve}
_IDLE = {FrozenConsume: PrefixConsume, FrozenConserve: PrefixConserve}


def _tau(steps: Iterable[tuple]) -> list[tuple]:
    return [step for step in steps if step[1] is TAU]  # starts and completions alike


def _h(config: Term, defs: Definitions, unfolding: tuple[str, ...], memo: Memo | None = None,
       top: bool = False, find: bool = False, system: bool = False) -> Iterable[_HStep]:
    """The starts of ``config``; a root frame with ``system`` wraps tau ones only."""
    while isinstance(config, Const):  # a chain of aliases unfolds in a loop
        body = defs.bindings.get(config.name)
        if body is None:
            return ()
        if config.name in unfolding:
            raise UnguardedRecursion(
                f"constant {config.name!r} unfolds to itself without passing a prefix"
            )
        unfolding += (config.name,)
        config = body
    started = _STARTED.get(type(config))
    if started is not None:
        if system and config.action is not TAU:
            return ()
        make = started.find if find else started.make
        return ((1, config.action, make(config.action, 1, config.cont)),)
    if not isinstance(config, (Sum, Par)):
        return ()  # inert and running prefixes
    # keyed by the node alone: a raising call stores nothing, and a node that
    # derived once reaches no unguarded cycle, so no ``unfolding`` makes it raise
    if memo is not None and (steps := memo.get(config)) is not None:
        return _tau(steps) if system else steps
    node = type(config)
    make = node.find if find else node.make
    left, right = config.left, config.right
    out: dict[_HStep, None] = {}  # insertion-ordered, merging equal steps
    left_steps = _h(left, defs, unfolding, memo, find=find)
    right_steps = _h(right, defs, unfolding, memo, find=find)
    wraps = (((_tau(left_steps), right, False), (_tau(right_steps), left, True)) if system
             else ((left_steps, right, False), (right_steps, left, True)))
    for steps, other, flip in wraps:
        for ident, action, target in steps:
            if other.mask >> ident & 1:
                fresh = _fresh(config)
                ident, target = fresh, _rename(target, ident, fresh, find)
            out[ident, action, make(other, target) if flip else make(target, other)] = None
    if node is Par:
        # complementary starts couple into one tau start with a shared
        # identifier fresh for the whole composite
        for lid, laction, ltarget in left_steps:
            if laction is TAU:
                continue
            # a named action holds its complement: no lookup, no action made
            partner = laction.partner
            for rid, raction, rtarget in right_steps:
                if raction is partner:
                    fresh = _fresh(config)
                    out[fresh, TAU, make(_rename(ltarget, lid, fresh, find),
                                         _rename(rtarget, rid, fresh, find))] = None
    if memo is not None and not top:
        memo[config] = out = tuple(out)
    return out


# ---------------------------------------------------------------------------
# interrupt relation

_IStep = tuple[int, Term]  # (the mask of the rolled-back identifiers, target)

_EMPTY: frozenset[int] = frozenset()


def _set_of(mask: int) -> frozenset[int]:
    # the indices of the set bits of ``mask``; every empty set is the one _EMPTY
    if not mask:
        return _EMPTY
    return frozenset(i for i, bit in enumerate(reversed(bin(mask))) if bit == "1")


# Equal H, I and CP labels are one object from this table, keyed by the label.
# An interrupt fan-out over n running prefixes may build 2^n labels, so a miss
# on a full table empties it first.  Each entry is ``[label, text, sort key]``,
# the last two computed on first use, so a label prints and orders once while
# it stays in the table.  ``_transitions`` finds an entry by the step's fields,
# masks for sets, in ``_step_labels``, emptied with it.  CC labels never enter,
# so they print and order at every call: they hold their continuation, which
# the table would keep alive.
_SHARED_CAP = 1024
_shared_labels: dict[Label, list] = {}
_step_labels: dict[tuple, list] = {}


def _new_label(label_class: type, fields: tuple) -> list:
    # on a miss: the entry of a new label, in tables emptied first when full
    if len(_shared_labels) >= _SHARED_CAP:
        _shared_labels.clear()
        _step_labels.clear()
    label = tuple.__new__(label_class, fields if label_class is Handshake  # H holds no set
                          else (*fields[:-1], _set_of(fields[-1])))  # I and CP end in a mask
    entry = _shared_labels[label] = _step_labels[fields] = [label, None, None]
    return entry


def _check_cap(config: Term) -> None:
    """Raise ``CapExceeded`` when a top-level parallel component of the
    configuration runs more than ``INTERRUPT_CAP`` prefixes; the leftmost
    such component is named."""
    if config.n_frozen <= INTERRUPT_CAP:
        return  # no component can exceed the cap
    # a loop, not recursion: the spine may be arbitrarily wide; pre-order
    # meets the leftmost over-cap component first
    for node in subterms(config, descend=lambda t: t.n_frozen > INTERRUPT_CAP):
        if node.n_frozen > INTERRUPT_CAP and not isinstance(node, Par):
            raise CapExceeded(
                f"component {format_term(node)} has {node.n_frozen} "
                f"running prefixes; interrupt enumeration is capped at {INTERRUPT_CAP}"
            )


def _pruned(steps: Iterable[tuple]) -> list[tuple]:
    # The I, CP or CC steps a known-mode frame below the root of ``all_steps``
    # or ``interrupt_steps`` passes up: those into live targets, and the first
    # into a stand-in, which only marks that the others were left out.  I, CP
    # and CC never rename a target, so a node over a stand-in is never known.
    # The mark reaches the root, as a kept stand-in step always yields one at
    # its parent.  All mode's demand budget covers every identifier, so a CP
    # at a Sum and a CC at a Par pass as they are.  An interrupt and a CC at a
    # Sum combine with the sibling's choice that rolls back nothing, whose
    # target is the live sibling, and a CP at a Par with its full rollback,
    # the first step of every interrupt list and so always kept.  Starts are
    # not pruned, as renaming a stand-in may bring it alive, nor is
    # ``system_steps``: its root keeps closed-system steps only, so a dropped
    # step might leave no None there.
    kept = []
    marked = False
    for step in steps:
        if type(step[-1]) is not tuple:
            kept.append(step)
        elif not marked:
            kept.append(step)
            marked = True
    return kept


def _interrupts(config: Term, allowed: int, memo: Memo | None = None, top: bool = False,
                find: bool = False, prune: bool = False) -> Iterable[_IStep]:
    """Every rollback choice among the running prefixes whose identifier is in
    ``allowed``; the others stay put, so ``allowed = config.mask`` gives the
    whole relation.  For ``prune`` see ``_pruned``."""
    mask = config.mask & allowed
    if not mask:
        return ((0, config),)
    idle = _IDLE.get(type(config))
    if idle is not None:
        make = idle.find if find else idle.make
        return ((mask, make(config.action, config.cont)), (0, config))
    if memo is not None and (steps := memo.get(key := (config, mask))) is not None:
        return steps
    node = type(config)  # Sum or Par, the only other nodes holding running prefixes
    make = node.find if find else node.make
    # a list: no two steps are equal.  Each choice rolls back its own subset
    # of the allowed prefixes, so one side's targets all differ, and ``make``
    # is injective (nodes are interned by their children, and a stand-in, the
    # tuple of class and children, equals no node), so these differ too.  The
    # choice that rolls back nothing leaves ``config`` itself: no lookup.
    steps = [(lids | rids, make(ltarget, rtarget)) if lids or rids else (0, config)
             for (lids, ltarget), (rids, rtarget) in itertools.product(
                 _interrupts(config.left, allowed, memo, False, find, prune),
                 _interrupts(config.right, allowed, memo, False, find, prune))]
    if prune and not top:
        steps = _pruned(steps)
    if memo is not None and not top:
        memo[key] = steps = tuple(steps)
    return steps


# ---------------------------------------------------------------------------
# completion relations

_CPStep = tuple[int, Action, int, Term]  # (l, a, the mask of N, target)
_CCStep = tuple[int, Action, int, Term, Term]  # (l, a, the mask of N, continuation, target)


def _completions(config: Term, outer: int, memo: Memo | None = None, top: bool = False,
                 find: bool = False, prune: bool = False,
                 system: bool = False) -> tuple[Iterable[_CPStep], Iterable[_CCStep]]:
    """The preemptive and conservative completions of ``config`` whose demand
    is a subset of ``outer``.

    A demand is always a subset of its own subterm's identifiers, and it only
    loses identifiers at a parallel composition, those the sibling holds.
    With ``outer`` the identifiers held by the parallel siblings of every
    enclosing composition, a step demanding anything else can never reach
    the root demanding nothing, so it is pruned: the interrupts that would
    add such an identifier are not enumerated at all.  ``outer = config.mask``
    prunes nothing.  Only ``outer & config.mask`` matters.  A root frame with
    ``system`` builds tau preemptive completions only; for ``prune`` see
    ``_pruned``.
    """
    if not config.mask:
        return (), ()
    if isinstance(config, FrozenConsume):
        if system and config.action is not TAU:
            return (), ()
        return ((config.ident, config.action, 0, config.cont),), ()
    if isinstance(config, FrozenConserve):
        if system:
            return (), ()
        rearmed = (PrefixConserve.find if find else PrefixConserve.make)(config.action, config.cont)
        return (), ((config.ident, config.action, 0, config.cont, rearmed),)
    if memo is not None and (found := memo.get(key := (outer & config.mask, config))) is not None:
        return (_tau(found[0]), ()) if system else found
    node = type(config)
    make = node.find if find else node.make
    left, right = config.left, config.right
    cp: dict[_CPStep, None] = {}  # insertion-ordered, merging equal steps
    cc: dict[_CCStep, None] = {}
    if node is Sum:
        # the losing summand disappears: a preemptive winner demands all its
        # running actions (so fits the budget only if they do), a
        # conservative one those it chose to interrupt
        for this, other, flip in ((left, right, False), (right, left, True)):
            this_cp, this_cc = _completions(this, outer, memo, False, find, prune)
            if system:
                this_cp, this_cc = _tau(this_cp), ()
            if not other.mask & ~outer:
                for ident, action, demanded, target in this_cp:
                    cp[ident, action, demanded | other.mask, target] = None
            choices = (_interrupts(other, other.mask & outer, memo, False, find, prune)
                       if this_cc else ())
            for ident, action, demanded, cont, target in this_cc:
                for interrupted, rest in choices:
                    cc[ident, action, demanded | interrupted, cont,
                       make(rest, target) if flip else make(target, rest)] = None
    else:  # Par
        cp_left, cc_left = _completions(left, outer | right.mask, memo, False, find, prune)
        cp_right, cc_right = _completions(right, outer | left.mask, memo, False, find, prune)
        wraps = (((_tau(cp_left), (), right, False), (_tau(cp_right), (), left, True)) if system
                 else ((cp_left, cc_left, right, False), (cp_right, cc_right, left, True)))
        for this_cp, this_cc, other, flip in wraps:
            # a completion on one side; the other side interrupts at least the
            # demanded actions it hosts, and demands satisfied inside vanish
            choices_for: dict[int, Iterable[_IStep]] = {}
            held = other.mask
            for ident, action, demanded, target in this_cp:
                required = held & demanded
                allowed = held & (demanded | outer)
                choices = choices_for.get(allowed)
                if choices is None:
                    choices = choices_for[allowed] = _interrupts(other, allowed, memo, False, find,
                                                                 prune)
                for interrupted, rest in choices:
                    if not required & ~interrupted:
                        cp[ident, action, (demanded | interrupted) & ~required,
                           make(rest, target) if flip else make(target, rest)] = None
            for ident, action, demanded, cont, target in this_cc:
                if not demanded & ~outer:
                    cc[ident, action, demanded, cont,
                       make(other, target) if flip else make(target, other)] = None
        # coupled preemptive completions: shared demands cancel out
        for lident, laction, ldem, ltarget in cp_left:
            if laction is TAU:
                continue
            partner = laction.partner
            for rident, raction, rdem, rtarget in cp_right:
                visible = ldem ^ rdem
                if rident == lident and raction is partner and not visible & ~outer:
                    cp[lident, TAU, visible, make(ltarget, rtarget)] = None
        # coupled conservative completions with nothing demanded: both
        # continuations land in parallel at this level
        for lident, laction, ldem, lcont, ltarget in cc_left:
            if ldem:
                continue
            partner = laction.partner  # None for tau, which matches no action
            for rident, raction, rdem, rcont, rtarget in cc_right:
                if rident == lident and raction is partner and not rdem:
                    cp[lident, TAU, 0,
                       make(make(make(ltarget, rtarget), lcont), rcont)] = None
        # mixed coupling: the conservative side's demands must all be covered by
        # the preemptive side's, and only the difference stays visible, within
        # the budget
        for this_cc, other_cp, flip in ((cc_left, cp_right, False), (cc_right, cp_left, True)):
            for ident, action, cdem, cont, ctarget in this_cc:
                partner = action.partner
                for pident, paction, pdem, ptarget in other_cp:
                    if (pident == ident and paction is partner and not cdem & ~pdem
                            and not pdem & ~(outer | cdem)):
                        pair = make(ptarget, ctarget) if flip else make(ctarget, ptarget)
                        cp[ident, TAU, pdem & ~cdem, make(pair, cont)] = None
    if prune and not top:
        cp, cc = _pruned(cp), _pruned(cc)
    if memo is not None and not top:
        memo[key] = cp, cc = tuple(cp), tuple(cc)
    return cp, cc


# ---------------------------------------------------------------------------
# public operations


def _memo_for(memo: Memo | None, known: Known, system: bool = False) -> Memo | None:
    # The memo, emptied first where it may hold a stale stand-in or a pruned
    # entry.  A full entry holds only live nodes, which the memo keeps alive,
    # and a stand-in stored by a known call can only go stale once a value is
    # made.  A known call outside ``system_steps`` stores pruned entries, which
    # only such calls may read.  So a full call empties a memo last used by a
    # known call, and so does a known call once a value has been made since the
    # last one, or when the last one was of the other kind.
    if memo is not None:
        last = memo.get(_KNOWN)
        if last is not None and (known is None or last != (syntax._made, system)):
            memo.clear()
        if known is not None:
            memo[_KNOWN] = (syntax._made, system)
    return memo


def _transitions(source: Term, label_class: type, steps: Collection[tuple],
                 known: Known = None) -> tuple[Transition | None, ...]:
    # each step holds its label's fields, then its target; steps are distinct.
    # With ``known``, a trailing None marks that a step into another target was
    # left out; a stand-in is never looked up, as every known target is live.
    # A named tuple's generated ``__new__`` only calls ``tuple.__new__``, and no
    # label class or Transition overrides it: this builds the same values in C.
    if not steps:
        return ()
    new = tuple.__new__
    transitions = []
    if label_class is CompleteConservative:  # never shared, see _shared_labels
        for l, a, n, cont, target in steps:
            if known is None or type(target) is not tuple and target in known:
                label = new(label_class, (l, a, _set_of(n), cont))
                transitions.append(new(Transition, (source, label, target)))
    else:
        get = _step_labels.get
        for step in steps:
            target = step[-1]
            if known is None or type(target) is not tuple and target in known:
                entry = get(step[:-1]) or _new_label(label_class, step[:-1])
                transitions.append(new(Transition, (source, entry[0], target)))
    if known is not None and len(transitions) < len(steps):
        transitions.append(None)
    return tuple(transitions)


def handshake_steps(config: Term, defs: Definitions = EMPTY_DEFINITIONS, memo: Memo | None = None,
                    known: Known = None) -> tuple[Transition | None, ...]:
    """Every start derivable from the configuration, coupled starts included."""
    steps = _h(config, defs, (), _memo_for(memo, known), True, known is not None)
    return _transitions(config, Handshake, steps, known)


def interrupt_steps(config: Term, defs: Definitions = EMPTY_DEFINITIONS, memo: Memo | None = None,
                    known: Known = None) -> tuple[Transition | None, ...]:
    """Every rollback combination: one transition per subset of running prefixes."""
    del defs  # interruption never unfolds constants
    _check_cap(config)
    find = known is not None
    steps = _interrupts(config, config.mask, _memo_for(memo, known), True, find, find)
    return _transitions(config, Interrupt, steps, known)


def preemptive_completions(config: Term, defs: Definitions = EMPTY_DEFINITIONS) -> tuple[Transition, ...]:
    """Every consuming completion, including coupled tau completions."""
    del defs  # completions fire on running prefixes only, never on constants
    _check_cap(config)
    return _transitions(config, CompletePreemptive, _completions(config, config.mask)[0])


def conservative_completions(config: Term, defs: Definitions = EMPTY_DEFINITIONS) -> tuple[Transition, ...]:
    """Every re-arming completion, the continuation riding in the label."""
    del defs
    _check_cap(config)
    return _transitions(config, CompleteConservative, _completions(config, config.mask)[1])


def all_steps(config: Term, defs: Definitions = EMPTY_DEFINITIONS,
              memo: Memo | None = None, known: Known = None) -> tuple[Transition | None, ...]:
    """The union of the four relations: H, I, CP and CC in turn, each in
    derivation order, which is a function of the term alone; sort by
    ``transition_sort_key`` to show them.

    H and I go through their public functions, so a tracer that wraps those
    names sees every derivation."""
    starts = handshake_steps(config, defs, memo, known)
    interrupts = interrupt_steps(config, defs, memo, known)
    find = known is not None
    cp, cc = _completions(config, config.mask, _memo_for(memo, known), True, find, find)
    return (starts + interrupts + _transitions(config, CompletePreemptive, cp, known)
            + _transitions(config, CompleteConservative, cc, known))


def is_system_step(t: Transition) -> bool:
    """A closed-system move: a tau start, or a tau completion demanding nothing."""
    if isinstance(t.label, Handshake):
        return t.label.action is TAU
    if isinstance(t.label, CompletePreemptive):
        return t.label.action is TAU and not t.label.demanded
    return False


def system_steps(config: Term, defs: Definitions = EMPTY_DEFINITIONS,
                 memo: Memo | None = None, known: Known = None) -> tuple[Transition | None, ...]:
    """The steps of ``all_steps`` that ``is_system_step`` keeps, in the same
    order, derived directly: completions run under an empty demand budget,
    and the root builds only tau starts and tau completions, while its
    children are derived in full."""
    # starts before the cap check, as in all_steps, so the same error wins
    find = known is not None
    memo = _memo_for(memo, known, system=True)
    starts = _h(config, defs, (), memo, True, find, system=True)
    _check_cap(config)
    cp = _completions(config, 0, memo, True, find, system=True)[0]
    return (_transitions(config, Handshake, starts, known)
            + _transitions(config, CompletePreemptive, cp, known))
