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

CP and CC come from one completion pass under a demand budget: steps whose
demand can no longer be cancelled on the way to the root are never built.
``system_steps`` runs it with an empty budget, so closed-system steps are
derived directly rather than filtered out of ``all_steps``.  Interrupt
choices multiply per running prefix, so I, CP, CC, ``all_steps`` and
``system_steps`` all first check the same cap over the top-level parallel
components, and raise ``CapExceeded`` instead of sampling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Union

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
    complement,
    format_action,
    format_term,
    frozen_prefix_count,
    subterms,
)

__all__ = [
    "DEFAULT_INTERRUPT_CAP",
    "Handshake",
    "Interrupt",
    "CompletePreemptive",
    "CompleteConservative",
    "Label",
    "Transition",
    "RELATIONS",
    "label_text",
    "label_sort_key",
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

DEFAULT_INTERRUPT_CAP = 16


# ---------------------------------------------------------------------------
# labels and transitions


@dataclass(frozen=True)
class Handshake:
    ident: int
    action: Action


@dataclass(frozen=True)
class Interrupt:
    idents: frozenset[int]


@dataclass(frozen=True)
class CompletePreemptive:
    ident: int
    action: Action
    demanded: frozenset[int]


@dataclass(frozen=True)
class CompleteConservative:
    ident: int
    action: Action
    demanded: frozenset[int]
    continuation: Term


Label = Union[Handshake, Interrupt, CompletePreemptive, CompleteConservative]

RELATIONS = ("H", "I", "CP", "CC")
_RELATION_OF = {
    Handshake: "H",
    Interrupt: "I",
    CompletePreemptive: "CP",
    CompleteConservative: "CC",
}
_RELATION_RANK = {tag: i for i, tag in enumerate(RELATIONS)}


@dataclass(frozen=True)
class Transition:
    source: Term
    label: Label
    target: Term

    @property
    def relation(self) -> str:
        return _RELATION_OF[type(self.label)]

    def __str__(self) -> str:
        return f"{label_text(self.label)} -> {format_term(self.target)}"


def _set_text(idents: Iterable[int]) -> str:
    return "{" + ",".join(str(i) for i in sorted(idents)) + "}"


def label_text(label: Label) -> str:
    """Deterministic one-line serialization used by exports and the CLI."""
    if isinstance(label, Handshake):
        return f"H {label.ident} {format_action(label.action)}+"
    if isinstance(label, Interrupt):
        return f"I {_set_text(label.idents)}"
    if isinstance(label, CompletePreemptive):
        return f"CP {label.ident} {format_action(label.action)}- {_set_text(label.demanded)}"
    if isinstance(label, CompleteConservative):
        return (
            f"CC {label.ident} {format_action(label.action)}- "
            f"{_set_text(label.demanded)} -> {format_term(label.continuation)}"
        )
    raise TypeError(f"not a label: {label!r}")


def _action_key(action: Action):
    if action.name is None:
        return (0, "", False)
    return (1, action.name, action.complemented)


def label_sort_key(label: Label):
    if isinstance(label, Handshake):
        return (label.ident, _action_key(label.action))
    if isinstance(label, Interrupt):
        return (tuple(sorted(label.idents)),)
    if isinstance(label, CompletePreemptive):
        return (label.ident, _action_key(label.action), tuple(sorted(label.demanded)))
    return (
        label.ident,
        _action_key(label.action),
        tuple(sorted(label.demanded)),
        format_term(label.continuation),
    )


def transition_sort_key(t: Transition):
    return (_RELATION_RANK[t.relation], label_sort_key(t.label), format_term(t.target))


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
    if new != old and new in config.ids:
        raise IdentifierCollision(
            f"renaming {old} to {new} would collide in {format_term(config)}"
        )
    return _rename(config, old, new)


def _rename(config: Term, old: int, new: int) -> Term:
    if old not in config.ids:
        return config
    if isinstance(config, (FrozenConsume, FrozenConserve)):
        return type(config)(config.action, new, config.cont)
    # Sum or Par, the only other id holders; direct, as every start renames
    return type(config)(_rename(config.left, old, new), _rename(config.right, old, new))


def fresh_id(used: Iterable[int]) -> int:
    """The least positive identifier not in ``used``."""
    taken = set(used)
    i = 1
    while i in taken:
        i += 1
    return i


# ---------------------------------------------------------------------------
# handshake relation

_HStep = tuple[int, Action, Term]


_STARTED = {PrefixConsume: FrozenConsume, PrefixConserve: FrozenConserve}
_IDLE = {FrozenConsume: PrefixConsume, FrozenConserve: PrefixConserve}


def _h(config: Term, defs: Definitions, unfolding: frozenset[str]) -> set[_HStep]:
    started = _STARTED.get(type(config))
    if started is not None:
        return {(1, config.action, started(config.action, 1, config.cont))}
    if isinstance(config, Const):
        body = defs.get(config.name)
        if body is None:
            return set()
        if config.name in unfolding:
            raise UnguardedRecursion(
                f"constant {config.name!r} unfolds to itself without passing a prefix"
            )
        return _h(body, defs, unfolding | {config.name})
    if isinstance(config, (Sum, Par)):
        node = type(config)
        left, right = config.left, config.right
        used = left.ids | right.ids
        out: set[_HStep] = set()
        left_steps = _h(left, defs, unfolding)
        right_steps = _h(right, defs, unfolding)
        for ident, action, target in left_steps:
            if ident not in right.ids:
                out.add((ident, action, node(target, right)))
            else:
                fresh = fresh_id(used)
                out.add((fresh, action, node(rename_id(target, ident, fresh), right)))
        for ident, action, target in right_steps:
            if ident not in left.ids:
                out.add((ident, action, node(left, target)))
            else:
                fresh = fresh_id(used)
                out.add((fresh, action, node(left, rename_id(target, ident, fresh))))
        if isinstance(config, Par):
            # complementary starts couple into one tau start with a shared
            # identifier fresh for the whole composite
            for lid, laction, ltarget in left_steps:
                if laction.is_tau:
                    continue
                partner = complement(laction)
                for rid, raction, rtarget in right_steps:
                    if raction == partner:
                        fresh = fresh_id(used)
                        out.add((
                            fresh,
                            TAU,
                            Par(rename_id(ltarget, lid, fresh),
                                rename_id(rtarget, rid, fresh)),
                        ))
        return out
    return set()  # inert, running prefixes and unbound constants


# ---------------------------------------------------------------------------
# interrupt relation

_IStep = tuple[frozenset[int], Term]

_EMPTY: frozenset[int] = frozenset()


def _check_cap(config: Term, cap: int) -> None:
    """Raise ``CapExceeded`` when a top-level parallel component of the
    configuration runs more than ``cap`` prefixes."""
    if isinstance(config, Par):
        _check_cap(config.left, cap)
        _check_cap(config.right, cap)
    elif frozen_prefix_count(config) > cap:
        raise CapExceeded(
            f"component {format_term(config)} has {frozen_prefix_count(config)} "
            f"running prefixes; interrupt enumeration is capped at {cap}"
        )


def _interrupts(config: Term, allowed: frozenset[int]) -> set[_IStep]:
    """Every rollback choice among the running prefixes whose identifier is in
    ``allowed``; the others stay put, so ``allowed >= config.ids`` gives the
    whole relation."""
    if config.ids.isdisjoint(allowed):
        return {(_EMPTY, config)}
    idle = _IDLE.get(type(config))
    if idle is not None:
        return {(config.ids, idle(config.action, config.cont)), (_EMPTY, config)}
    node = type(config)  # Sum or Par, the only other nodes holding running prefixes
    return {
        (lids | rids, node(ltarget, rtarget))
        for (lids, ltarget), (rids, rtarget) in itertools.product(
            _interrupts(config.left, allowed), _interrupts(config.right, allowed)
        )
    }


# ---------------------------------------------------------------------------
# completion relations

_CPStep = tuple[int, Action, frozenset[int], Term]
_CCStep = tuple[int, Action, frozenset[int], Term, Term]  # (l, a, N, continuation, target)


def _completions(config: Term, outer: frozenset[int]) -> tuple[set[_CPStep], set[_CCStep]]:
    """The preemptive and conservative completions of ``config`` whose demand
    is a subset of ``outer``.

    A demand is always a subset of its own subterm's identifiers, and it only
    loses identifiers at a parallel composition, those the sibling holds.
    With ``outer`` the identifiers held by the parallel siblings of every
    enclosing composition, a step demanding anything else can never reach
    the root demanding nothing, so it is pruned: the interrupts that would
    add such an identifier are not enumerated at all.  ``outer = config.ids``
    prunes nothing.
    """
    if not config.ids:
        return set(), set()
    if isinstance(config, FrozenConsume):
        return {(config.ident, config.action, _EMPTY, config.cont)}, set()
    if isinstance(config, FrozenConserve):
        rearmed = PrefixConserve(config.action, config.cont)
        return set(), {(config.ident, config.action, _EMPTY, config.cont, rearmed)}
    left, right = config.left, config.right
    cp: set[_CPStep] = set()
    cc: set[_CCStep] = set()
    if isinstance(config, Sum):
        # the losing summand disappears: a preemptive winner demands all its
        # running actions (so fits the budget only if they do), a
        # conservative one those it chose to interrupt
        for this, other, flip in ((left, right, False), (right, left, True)):
            this_cp, this_cc = _completions(this, outer)
            if other.ids <= outer:
                for ident, action, demanded, target in this_cp:
                    cp.add((ident, action, demanded | other.ids, target))
            choices = _interrupts(other, other.ids & outer) if this_cc else ()
            for ident, action, demanded, cont, target in this_cc:
                for interrupted, rest in choices:
                    cc.add((ident, action, demanded | interrupted, cont,
                            Sum(rest, target) if flip else Sum(target, rest)))
        return cp, cc
    cp_left, cc_left = _completions(left, outer | right.ids)
    cp_right, cc_right = _completions(right, outer | left.ids)
    for this_cp, this_cc, other, flip in ((cp_left, cc_left, right, False),
                                          (cp_right, cc_right, left, True)):
        # a completion on one side; the other side interrupts at least the
        # demanded actions it hosts, and demands satisfied inside vanish
        choices_for: dict[frozenset[int], set[_IStep]] = {}
        for ident, action, demanded, target in this_cp:
            required = other.ids & demanded
            allowed = other.ids & (demanded | outer)
            choices = choices_for.get(allowed)
            if choices is None:
                choices = choices_for[allowed] = _interrupts(other, allowed)
            for interrupted, rest in choices:
                if interrupted >= required:
                    cp.add((ident, action, (demanded | interrupted) - required,
                            Par(rest, target) if flip else Par(target, rest)))
        for ident, action, demanded, cont, target in this_cc:
            if demanded <= outer:
                cc.add((ident, action, demanded, cont,
                        Par(other, target) if flip else Par(target, other)))
    # coupled preemptive completions: shared demands cancel out
    for lident, laction, ldem, ltarget in cp_left:
        if laction.is_tau:
            continue
        partner = complement(laction)
        for rident, raction, rdem, rtarget in cp_right:
            visible = ldem ^ rdem
            if rident == lident and raction == partner and visible <= outer:
                cp.add((lident, TAU, visible, Par(ltarget, rtarget)))
    # coupled conservative completions with nothing demanded: both
    # continuations land in parallel at this level
    for lident, laction, ldem, lcont, ltarget in cc_left:
        if ldem:
            continue
        partner = complement(laction)
        for rident, raction, rdem, rcont, rtarget in cc_right:
            if rident == lident and raction == partner and not rdem:
                cp.add((lident, TAU, _EMPTY,
                        Par(Par(Par(ltarget, rtarget), lcont), rcont)))
    # mixed coupling: the conservative side's demands must all be covered by
    # the preemptive side's, and only the difference stays visible, within
    # the budget
    for this_cc, other_cp, flip in ((cc_left, cp_right, False), (cc_right, cp_left, True)):
        for ident, action, cdem, cont, ctarget in this_cc:
            partner = complement(action)
            for pident, paction, pdem, ptarget in other_cp:
                if pident == ident and paction == partner and cdem <= pdem <= outer | cdem:
                    pair = Par(ptarget, ctarget) if flip else Par(ctarget, ptarget)
                    cp.add((ident, TAU, pdem - cdem, Par(pair, cont)))
    return cp, cc


# ---------------------------------------------------------------------------
# public operations


def _sorted_transitions(source: Term, labelled: Iterable[tuple[Label, Term]]) -> tuple[Transition, ...]:
    transitions = {Transition(source, label, target) for label, target in labelled}
    return tuple(sorted(transitions, key=transition_sort_key))


def handshake_steps(config: Term, defs: Definitions = EMPTY_DEFINITIONS) -> tuple[Transition, ...]:
    """Every start derivable from the configuration, coupled starts included."""
    steps = _h(config, defs, frozenset())
    return _sorted_transitions(
        config, ((Handshake(i, a), t) for i, a, t in steps)
    )


def interrupt_steps(
    config: Term,
    defs: Definitions = EMPTY_DEFINITIONS,
    *,
    interrupt_cap: int = DEFAULT_INTERRUPT_CAP,
) -> tuple[Transition, ...]:
    """Every rollback combination: one transition per subset of running prefixes."""
    del defs  # interruption never unfolds constants
    _check_cap(config, interrupt_cap)
    steps = _interrupts(config, config.ids)
    return _sorted_transitions(config, ((Interrupt(ids), t) for ids, t in steps))


def _preemptive(config: Term, steps: Iterable[_CPStep]) -> tuple[Transition, ...]:
    return _sorted_transitions(
        config, ((CompletePreemptive(i, a, n), t) for i, a, n, t in steps)
    )


def _conservative(config: Term, steps: Iterable[_CCStep]) -> tuple[Transition, ...]:
    return _sorted_transitions(
        config, ((CompleteConservative(i, a, n, c), t) for i, a, n, c, t in steps)
    )


def preemptive_completions(
    config: Term,
    defs: Definitions = EMPTY_DEFINITIONS,
    *,
    interrupt_cap: int = DEFAULT_INTERRUPT_CAP,
) -> tuple[Transition, ...]:
    """Every consuming completion, including coupled tau completions."""
    del defs  # completions fire on running prefixes only, never on constants
    _check_cap(config, interrupt_cap)
    return _preemptive(config, _completions(config, config.ids)[0])


def conservative_completions(
    config: Term,
    defs: Definitions = EMPTY_DEFINITIONS,
    *,
    interrupt_cap: int = DEFAULT_INTERRUPT_CAP,
) -> tuple[Transition, ...]:
    """Every re-arming completion, the continuation riding in the label."""
    del defs
    _check_cap(config, interrupt_cap)
    return _conservative(config, _completions(config, config.ids)[1])


def all_steps(
    config: Term,
    defs: Definitions = EMPTY_DEFINITIONS,
    *,
    interrupt_cap: int = DEFAULT_INTERRUPT_CAP,
) -> tuple[Transition, ...]:
    """The union of the four relations, deterministically ordered.

    The relation comes first in the sort key, so the four sorted tuples
    concatenate in order."""
    starts = handshake_steps(config, defs)
    interrupts = interrupt_steps(config, interrupt_cap=interrupt_cap)
    cp, cc = _completions(config, config.ids)
    return starts + interrupts + _preemptive(config, cp) + _conservative(config, cc)


def is_system_step(t: Transition) -> bool:
    """A closed-system move: a tau start, or a tau completion demanding nothing."""
    if isinstance(t.label, Handshake):
        return t.label.action.is_tau
    if isinstance(t.label, CompletePreemptive):
        return t.label.action.is_tau and not t.label.demanded
    return False


def system_steps(
    config: Term,
    defs: Definitions = EMPTY_DEFINITIONS,
    *,
    interrupt_cap: int = DEFAULT_INTERRUPT_CAP,
) -> tuple[Transition, ...]:
    """The steps of ``all_steps`` that ``is_system_step`` keeps, derived
    directly: completions run under an empty demand budget."""
    # starts before the cap check, as in all_steps, so the same error wins
    starts = [(Handshake(i, a), t) for i, a, t in _h(config, defs, frozenset()) if a.is_tau]
    _check_cap(config, interrupt_cap)
    cp, _ = _completions(config, _EMPTY)
    return _sorted_transitions(config, starts + [
        (CompletePreemptive(i, a, n), t) for i, a, n, t in cp if a.is_tau
    ])
