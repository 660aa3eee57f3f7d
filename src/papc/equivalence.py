"""Bisimulation checking with distinguishing evidence.

Two configurations are bisimilar when every handshake, interrupt and
preemptive-completion transition of one is matched by the other with the
*same* label (identifiers and demanded sets compared verbatim) into related
targets, and every conservative completion is matched with the same
identifier, action and demanded set into a related target *and* a related
continuation.  Continuations ride in labels, so they are injected into the
state space as ordinary states and compared up to the relation itself rather
than syntactically.

One engine serves every check: a breadth-first explorer of the joint space,
signature-based partition refinement that keeps every round's partition, and
a witness reader over that history.  Round ``k`` splits exactly the pairs on
which the attacker of the distinguishing game wins within ``k`` moves, so a
split pair comes with a replayable ``k``-step witness.  Each depth ``d``
explores one level more and adds round ``d``, over what a ``d``-move game
reaches, to a history never rebuilt.  Once the whole joint space is known,
the rounds cover it up to the fixpoint: the answer is exact, whatever its
size.  A space not derived in full is played to ``max_depth`` and explored
past it only while it fits within ``max_states``: ``not-bisimilar`` (with a
witness) or ``unknown``, never a guess.

The explorer numbers the states it discovers and keeps each state's steps
as ints only (label number and state numbers) in derivation order, never
sorted: refinement compares sets.  It keeps no transitions, so the witness
reader derives again the states its line visits, and it alone orders their
transitions.  The explorer derives through one memo per check, dropped with
it, as its entries depend on the definitions; ``verify_witness`` derives
without one.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .lts import Bounds
from .semantics import CompleteConservative, Transition, all_steps, label_text, transition_sort_key
from .syntax import Definitions, EMPTY_DEFINITIONS, Term, format_term

__all__ = [
    "BISIMILAR",
    "NOT_BISIMILAR",
    "UNKNOWN",
    "Verdict",
    "WitnessStep",
    "bisimilar",
    "verify_witness",
]

BISIMILAR = "bisimilar"
NOT_BISIMILAR = "not-bisimilar"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class WitnessStep:
    """One round of the distinguishing game.

    ``attacker`` names the side ("left"/"right") whose transition the other
    side must answer.  The final step carries no response: the defender has
    no transition with a matching label.  When a conservative completion is
    answered, ``follow`` records whether the game continued on the targets or
    on the continuations.
    """

    attacker: str
    move: Transition
    response: Optional[Transition]
    follow: Optional[str]

    def describe(self) -> str:
        side = self.attacker
        head = f"{side} plays {label_text(self.move.label)} from {format_term(self.move.source)}"
        if self.response is None:
            return head + "\n  no transition with a matching label on the other side"
        tail = f"\n  answered by {label_text(self.response.label)}; game follows the {self.follow}s"
        return head + tail


@dataclass(frozen=True)
class Verdict:
    """Outcome of a bisimilarity check; ``unknown`` marks bound exhaustion."""

    outcome: str
    witness: tuple[WitnessStep, ...] = ()
    detail: str = ""

    @property
    def is_bisimilar(self) -> bool:
        return self.outcome == BISIMILAR


# ---------------------------------------------------------------------------
# joint state space and partition refinement


class _Explorer:
    """Breadth-first exploration of the joint space from the roots.

    ``states`` lists every known state in discovery order, which numbers
    them; ``index`` maps a state to its number, and ``level[i]`` is state
    ``i``'s distance from the nearest root.  ``steps[i]`` holds the steps of
    expanded state ``i`` in derivation order, as ints only: ``(label, target)``,
    or ``(label, continuation, target)`` for a conservative completion, whose
    label is its matched fields (identifier, action, demanded set).
    ``labels`` numbers labels for this check in the order first seen.  A
    preemptive completion's label equals the matched fields of a
    conservative one with the same identifier, action and demanded set, so
    both get one number; their steps still differ in length.  Each call
    resumes where the last stopped.  ``memo`` holds what shared subterms
    derive under ``defs``, for this check.

    Derivation order is fixed by the terms alone, so discovery order is
    too, but it is not the sorted order.  No verdict, detail or witness
    depends on it:

    * each level holds the same states in every order, and levels never
      decrease along discovery order.  So the states a ``d``-move game
      reaches and the size of a fully explored space are the same in every
      order, and a call of ``expand`` that stops partway through a level
      ends the check: no round reads that partial level;
    * ``_extend`` signs a state by a frozenset of items.  It numbers blocks
      in discovery order, but only which states share a block is read, and
      that partition is the same in every order, as is its block count;
    * ``_distinguished`` sorts the transitions it reads.
    """

    def __init__(self, roots: Iterable[Term], defs: Definitions):
        self.defs = defs
        self.memo: dict = {}
        self.states: list[Term] = list(dict.fromkeys(roots))
        self.index: dict[Term, int] = {s: i for i, s in enumerate(self.states)}
        self.level: list[int] = [0] * len(self.states)
        self.steps: list[tuple[tuple[int, ...], ...]] = []
        self.labels: dict[tuple, int] = {}

    def expand(self, max_level: float, limit: int) -> bool:
        """Derive the steps of every state up to ``max_level``, stopping once
        more than ``limit`` states are known; false if so."""
        states, index, level, steps, labels = (self.states, self.index, self.level, self.steps,
                                               self.labels)
        i, known = len(steps), len(states)
        while i < known and level[i] <= max_level and known <= limit:
            below = level[i] + 1
            row = []
            for t in all_steps(states[i], self.defs, self.memo):
                target, label = t.target, t.label
                n = index.setdefault(target, known)
                if n == known:
                    states.append(target)
                    level.append(below)
                    known += 1
                if isinstance(label, CompleteConservative):
                    c = index.setdefault(label.continuation, known)
                    if c == known:
                        states.append(label.continuation)
                        level.append(below)
                        known += 1
                    row.append((labels.setdefault(label[:3], len(labels)), c, n))
                else:
                    row.append((labels.setdefault(label, len(labels)), n))
            steps.append(tuple(row))
            i += 1
        return known <= limit

    def transitions(self, i: int) -> list[tuple[Transition, tuple[int, ...]]]:
        """State ``i``'s transitions, derived again, each with its step, in
        ``transition_sort_key`` order."""
        derived = all_steps(self.states[i], self.defs, self.memo)
        return sorted(zip(derived, self.steps[i]), key=lambda pair: transition_sort_key(pair[0]))


def _after(t: Transition) -> tuple[Term, ...]:
    """The states a transition leads to: its target, and the continuation of
    a conservative completion."""
    if isinstance(t.label, CompleteConservative):
        return (t.target, t.label.continuation)
    return (t.target,)


def _item(step: tuple[int, ...], blocks: list[int]) -> tuple[int, ...]:
    """A step's part of its source's signature: its label number and the
    blocks of the states it leads to."""
    if len(step) == 2:
        return (step[0], blocks[step[1]])
    return (step[0], blocks[step[1]], blocks[step[2]])


def _extend(explorer: _Explorer, history: list, keys: list, depth: int, exact: bool) -> bool:
    """Add round ``depth`` to the refinement history: ``history[r][i]`` is
    state ``i``'s round-``r`` block, and ``keys[r]`` numbers round ``r``'s
    signatures, a state's block plus its set of items.

    Round ``r`` covers the states at most ``depth - r`` levels from the
    roots, all that a ``depth``-move game reaches, or every state when
    ``exact``; round 0, one block, covers every known state.  Then true as
    soon as a round splits no block: the fixpoint.  Levels never decrease
    along discovery order, so each round signs only the states past those
    it signed at a smaller depth.
    """
    level, steps = explorer.level, explorer.steps
    history[0].extend([0] * (len(level) - len(history[0])))
    history.append([])
    keys.append({})
    for r in range(1, depth + 1):
        blocks, signed, numbers = history[r - 1], history[r], keys[r]
        reach = len(level) if exact else bisect_right(level, depth - r)
        for i in range(len(signed), reach):
            signed.append(numbers.setdefault(
                (blocks[i], frozenset([_item(step, blocks) for step in steps[i]])), len(numbers)))
        if exact and len(numbers) == len(keys[r - 1]):
            return True
    return False


# ---------------------------------------------------------------------------
# matching and witnesses


def _matching_responses(move: Transition, defender_steps: Sequence[Transition]):
    """Defender transitions whose label matches the attacker's move.

    Conservative completions match on (identifier, action, demanded set);
    every other relation matches on the full label.
    """
    label = move.label
    if isinstance(label, CompleteConservative):
        return [t for t in defender_steps
                if isinstance(t.label, CompleteConservative) and t.label[:3] == label[:3]]
    return [t for t in defender_steps if t.label == label]


def _pairs_after(move: Transition, response: Transition):
    """The pairs the defender must keep related, tagged by what they follow."""
    return list(zip(("target", "continuation"), _after(move), _after(response)))


def _distinguished(left: int, right: int, explorer: _Explorer, history: list) -> Verdict:
    """The verdict on a pair of states the refinement split, with a
    distinguishing line read off the refinement history (Cleaveland,
    "On automatically explaining bisimulation inequivalence", CAV 1990).

    A pair first split in round ``k`` differs in its round ``k-1``
    signatures.  The attacker plays the first move, left side first, whose
    item the other side lacks.  Every matching response then leads to a pair
    split by round ``k-1``; the defender keeps the first response none of
    whose pairs split earlier, and the line follows the first of its pairs
    split in round ``k-1``.  The line therefore has exactly ``k`` steps, and
    "left" always descends from the original left configuration.
    The explorer keeps no transitions, so the two states of each step are
    derived again, and their moves and responses are tried in
    ``transition_sort_key`` order.
    """
    depth = k = next(r for r, blocks in enumerate(history) if blocks[left] != blocks[right])
    index = explorer.index
    line: list[WitnessStep] = []
    while True:
        blocks = history[k - 1]
        derived = {i: explorer.transitions(i) for i in (left, right)}
        for side, attacker, defender in (("left", left, right), ("right", right, left)):
            answers = {_item(step, blocks) for _, step in derived[defender]}
            move = next((t for t, step in derived[attacker]
                         if _item(step, blocks) not in answers), None)
            if move is not None:
                break
        responses = _matching_responses(move, [t for t, _ in derived[defender]])
        if not responses:
            line.append(WitnessStep(side, move, None, None))
            return Verdict(NOT_BISIMILAR, witness=tuple(line),
                           detail=f"distinguished at game depth {depth}")
        before = history[k - 2]
        response = next(t for t in responses if all(before[index[a]] == before[index[b]]
                                                    for _, a, b in _pairs_after(move, t)))
        follow, a, b = next(p for p in _pairs_after(move, response)
                            if blocks[index[p[1]]] != blocks[index[p[2]]])
        line.append(WitnessStep(side, move, response, follow))
        left, right = (index[a], index[b]) if side == "left" else (index[b], index[a])
        k -= 1


def bisimilar(
    left: Term,
    right: Term,
    defs: Definitions = EMPTY_DEFINITIONS,
    bounds: Bounds = Bounds(),
) -> Verdict:
    """Decide bisimilarity within bounds.

    Exact whenever the joint reachable space is derived in full: within
    ``bounds.max_depth`` levels, or deeper while it fits in
    ``bounds.max_states``.  Otherwise a game bounded by ``bounds.max_depth``
    moves, which can only answer ``not-bisimilar`` (with a witness) or
    ``unknown``, the latter also once more than ``64 * bounds.max_states``
    states are known.
    Bisimilarity compares every transition, so ``bounds.step_mode`` must be
    ``"all"``; any other mode raises ``ValueError``.
    """
    if bounds.step_mode != "all":
        raise ValueError(f"bisimilarity compares all transitions, not step mode "
                         f"{bounds.step_mode!r}")
    if left == right:
        return Verdict(BISIMILAR, detail="identical configurations")
    explorer = _Explorer((left, right), defs)
    history, keys = [[]], [{(): 0}]  # round 0: one block
    limit = bounds.max_states * 64
    for depth in itertools.count(1):
        if depth > bounds.max_depth:
            if not explorer.expand(math.inf, bounds.max_states):
                break
        elif not explorer.expand(depth - 1, limit):
            return Verdict(UNKNOWN, detail=(f"game budget exhausted: more than {limit} joint "
                                            f"states known before a difference was found"))
        exact = len(explorer.steps) == len(explorer.states)
        # no earlier round split the roots, so the fixpoint holds them in one block
        if _extend(explorer, history, keys, depth, exact):
            return Verdict(BISIMILAR, detail=f"exact over {len(explorer.states)} joint states")
        if history[-1][0] != history[-1][1]:  # the roots, numbered 0 and 1
            return _distinguished(0, 1, explorer, history)
    return Verdict(UNKNOWN, detail=(f"joint space exceeds {bounds.max_states} states and the "
                                    f"game found no difference within depth {bounds.max_depth}"))


def verify_witness(
    left: Term,
    right: Term,
    witness: Sequence[WitnessStep],
    defs: Definitions = EMPTY_DEFINITIONS,
) -> bool:
    """Replay a witness against the engine.

    Every claimed move must exist among its source's transitions, every
    recorded response must match the move's label, and the final move must
    have no matching response at all.  Malformed evidence is rejected too.
    """
    if not all(step.attacker in ("left", "right") and isinstance(step.move, Transition)
               and (step.response is None or isinstance(step.response, Transition))
               and step.follow in (None, "target", "continuation") for step in witness):
        return False
    current = {"left": left, "right": right}
    for i, step in enumerate(witness):
        attacker = current[step.attacker]
        defender = current["right" if step.attacker == "left" else "left"]
        if step.move.source != attacker:
            return False
        attacker_steps = all_steps(attacker, defs)
        if step.move not in attacker_steps:
            return False
        defender_steps = all_steps(defender, defs)
        responses = _matching_responses(step.move, defender_steps)
        if step.response is None:
            return not responses and i == len(witness) - 1
        if step.response not in responses:
            return False
        pairs = dict((f, (a, b)) for f, a, b in _pairs_after(step.move, step.response))
        if step.follow not in pairs:
            return False
        a, b = pairs[step.follow]
        if step.attacker == "left":
            current = {"left": a, "right": b}
        else:
            current = {"left": b, "right": a}
    return False  # a witness must end with an unanswered move

