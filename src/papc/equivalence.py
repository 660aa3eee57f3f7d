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
split pair comes with a replayable ``k``-step witness.  When the joint space
fits within ``max_states`` refinement runs to its fixpoint: the answer is
exact.  Otherwise each depth ``d`` up to ``max_depth`` explores one level
more and runs ``d`` rounds over what a ``d``-move game reaches; this answers
``not-bisimilar`` (with a witness) or ``unknown``, and never guesses.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import IllFormedPlacement
from .lts import Bounds
from .semantics import CompleteConservative, Transition, all_steps, label_text
from .syntax import (
    Action,
    Definitions,
    EMPTY_DEFINITIONS,
    HOLE,
    Hole,
    NIL,
    Par,
    PrefixConserve,
    PrefixConsume,
    Sum,
    Term,
    action_names_of,
    check_context,
    format_term,
)

__all__ = [
    "BISIMILAR",
    "NOT_BISIMILAR",
    "UNKNOWN",
    "Verdict",
    "WitnessStep",
    "bisimilar",
    "verify_witness",
    "apply_context",
    "random_context",
    "CongruenceReport",
    "congruence_probe",
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

    ``level`` maps every known state, in discovery order, to its distance
    from the nearest root; ``steps`` holds the transitions of every expanded
    state.  Each call resumes where the last stopped.
    """

    def __init__(self, roots: Iterable[Term], defs: Definitions):
        self.defs = defs
        self.level: dict[Term, int] = dict.fromkeys(roots, 0)
        self.steps: dict[Term, tuple[Transition, ...]] = {}
        self._queue = deque(self.level)

    def expand(self, max_level: float, limit: int) -> bool:
        """Derive the transitions of every state up to ``max_level``,
        stopping once more than ``limit`` states are known; false if so."""
        queue, level = self._queue, self.level
        while queue and level[queue[0]] <= max_level and len(level) <= limit:
            state = queue.popleft()
            steps = all_steps(state, self.defs)
            self.steps[state] = steps
            below = level[state] + 1
            for t in steps:
                for succ in _after(t):
                    if succ not in level:
                        level[succ] = below
                        queue.append(succ)
        return len(level) <= limit


def _after(t: Transition) -> tuple[Term, ...]:
    """The states a transition leads to: its target, and the continuation of
    a conservative completion."""
    if isinstance(t.label, CompleteConservative):
        return (t.target, t.label.continuation)
    return (t.target,)


def _item(t: Transition, blocks: dict[Term, int]) -> tuple:
    """A transition's part of its source's signature: its label and target
    block, or for a conservative completion the matched label fields
    (identifier, action, demanded set) and the continuation and target blocks."""
    label = t.label
    if isinstance(label, CompleteConservative):
        return (label[:3], blocks[label.continuation], blocks[t.target])
    return (label, blocks[t.target])


def _refine(explorer: _Explorer, rounds: Optional[int] = None) -> list[dict[Term, int]]:
    """The partition after every round of signature refinement, round 0 (one
    block) first: a state's next block is its block plus its set of items.

    With ``rounds`` unset, over a fully expanded space, refinement runs until
    a round leaves the block count unchanged.  Otherwise round ``r`` of
    ``rounds`` re-signs only the states at most ``rounds - r`` levels from
    the roots, which is all that a ``rounds``-move game can reach.
    """
    states = list(explorer.level)
    levels = list(explorer.level.values())
    steps = explorer.steps
    history = [dict.fromkeys(states, 0)]
    while len(history) - 1 != rounds:
        blocks = history[-1]
        reach = len(states) if rounds is None else bisect_right(levels, rounds - len(history))
        keys: dict = {}
        history.append({
            s: keys.setdefault((blocks[s], frozenset([_item(t, blocks) for t in steps[s]])),
                               len(keys))
            for s in states[:reach]
        })
        if rounds is None and len(keys) == len(set(blocks.values())):
            break
    return history


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


def _distinguished(left: Term, right: Term, steps: dict, history: list) -> Verdict:
    """The verdict on a pair the refinement split, with a distinguishing line
    read off the refinement history (Cleaveland,
    "On automatically explaining bisimulation inequivalence", CAV 1990).

    A pair first split in round ``k`` differs in its round ``k-1``
    signatures.  The attacker plays the first move, left side first, whose
    item the other side lacks.  Every matching response then leads to a pair
    split by round ``k-1``; the defender keeps the first response none of
    whose pairs split earlier, and the line follows the first of its pairs
    split in round ``k-1``.  The line therefore has exactly ``k`` steps, and
    "left" always descends from the original left configuration.
    """
    depth = k = next(r for r, blocks in enumerate(history) if blocks[left] != blocks[right])
    line: list[WitnessStep] = []
    while True:
        blocks = history[k - 1]
        for side, attacker, defender in (("left", left, right), ("right", right, left)):
            answers = {_item(t, blocks) for t in steps[defender]}
            move = next((t for t in steps[attacker] if _item(t, blocks) not in answers), None)
            if move is not None:
                break
        responses = _matching_responses(move, steps[defender])
        if not responses:
            line.append(WitnessStep(side, move, None, None))
            return Verdict(NOT_BISIMILAR, witness=tuple(line),
                           detail=f"distinguished at game depth {depth}")
        before = history[k - 2]
        response = next(t for t in responses
                        if all(before[a] == before[b] for _, a, b in _pairs_after(move, t)))
        follow, a, b = next(p for p in _pairs_after(move, response) if blocks[p[1]] != blocks[p[2]])
        line.append(WitnessStep(side, move, response, follow))
        left, right = (a, b) if side == "left" else (b, a)
        k -= 1


def _check_step_mode(bounds: Bounds) -> None:
    if bounds.step_mode != "all":
        raise ValueError(f"bisimilarity compares all transitions, not step mode "
                         f"{bounds.step_mode!r}")


def bisimilar(
    left: Term,
    right: Term,
    defs: Definitions = EMPTY_DEFINITIONS,
    bounds: Bounds = Bounds(),
) -> Verdict:
    """Decide bisimilarity within bounds.

    Exact when the joint reachable space fits in ``bounds.max_states``;
    otherwise refinement bounded by ``bounds.max_depth`` levels, which can
    only answer ``not-bisimilar`` (with a witness) or ``unknown``, the latter
    also once more than ``64 * bounds.max_states`` states are known.
    Bisimilarity compares every transition, so ``bounds.step_mode`` must be
    ``"all"``; any other mode raises ``ValueError``.
    """
    _check_step_mode(bounds)
    if left == right:
        return Verdict(BISIMILAR, detail="identical configurations")
    explorer = _Explorer((left, right), defs)
    if explorer.expand(math.inf, bounds.max_states):
        history = _refine(explorer)
        if history[-1][left] == history[-1][right]:
            return Verdict(BISIMILAR, detail=f"exact over {len(explorer.level)} joint states")
        return _distinguished(left, right, explorer.steps, history)
    # the space is too large for an exact answer: one more level per depth
    limit = bounds.max_states * 64
    for depth in range(1, bounds.max_depth + 1):
        if not explorer.expand(depth - 1, limit):
            return Verdict(UNKNOWN, detail=(f"game budget exhausted: more than {limit} joint "
                                            f"states known before a difference was found"))
        history = _refine(explorer, depth)
        if history[-1][left] != history[-1][right]:
            return _distinguished(left, right, explorer.steps, history)
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


# ---------------------------------------------------------------------------
# contexts


def apply_context(context: Term, filler: Term) -> Term:
    """Replace the unique hole of a process-shaped context by ``filler``.

    Raises ParseError on a non-context, and IllFormedPlacement when the filler
    carries running prefixes under a prefix, where only plain processes fit.
    """
    check_context(context)
    return _fill(context, filler)


def _fill(term: Term, filler: Term) -> Term:
    if isinstance(term, Hole):
        return filler
    return term.rebuild([_fill(c, filler) for c in term.children()])


def random_context(rng: random.Random, alphabet: Sequence[str], max_depth: int = 3) -> Term:
    """A random process-shaped context: operators drawn uniformly from sum,
    parallel and the two prefixes; actions from ``alphabet`` plus polarity;
    the hole equally likely on either side of each branch."""
    names = list(alphabet) or ["a"]

    def rand_action() -> Action:
        return Action(rng.choice(names), rng.random() < 0.5)

    nodes = (Sum, Par, PrefixConsume, PrefixConserve)

    def rand_process(depth: int) -> Term:
        if depth <= 0 or rng.random() < 0.3:
            return NIL
        node = nodes[rng.randrange(4)]
        if node in (Sum, Par):
            return node(rand_process(depth - 1), rand_process(depth - 1))
        return node(rand_action(), rand_process(depth - 1))

    def rand_ctx(depth: int) -> Term:
        if depth <= 0 or rng.random() < 0.25:
            return HOLE
        node = nodes[rng.randrange(4)]
        if node not in (Sum, Par):
            return node(rand_action(), rand_ctx(depth - 1))
        if rng.random() < 0.5:
            return node(rand_ctx(depth - 1), rand_process(depth - 1))
        return node(rand_process(depth - 1), rand_ctx(depth - 1))

    return rand_ctx(max_depth)


# ---------------------------------------------------------------------------
# congruence probing


@dataclass(frozen=True)
class CongruenceFinding:
    pair_index: int
    context: Term
    verdict: Verdict


@dataclass(frozen=True)
class CongruenceReport:
    """Result of searching for congruence violations on verified pairs.

    Any counterexample means an engine bug: bisimilarity is preserved by
    every operator of the calculus.
    """

    verified_pairs: int
    rejected_pairs: tuple[int, ...]
    contexts_per_pair: int
    checks: int
    bisimilar_checks: int
    unknown_checks: int
    counterexamples: tuple[CongruenceFinding, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def congruence_probe(
    pairs: Sequence[tuple[Term, Term]],
    defs: Definitions = EMPTY_DEFINITIONS,
    n_contexts: int = 25,
    seed: int = 0,
    bounds: Bounds = Bounds(),
) -> CongruenceReport:
    """Check verified-bisimilar pairs under random contexts.

    Pairs that the engine cannot verify as bisimilar are rejected up front.
    A filled pair judged not bisimilar is reported as a counterexample;
    ``unknown`` verdicts are counted but are not counterexamples.  As for
    `bisimilar`, ``bounds.step_mode`` must be ``"all"``.
    """
    _check_step_mode(bounds)
    rng = random.Random(seed)
    rejected: list[int] = []
    verified: list[tuple[int, Term, Term]] = []
    for i, (p, q) in enumerate(pairs):
        verdict = bisimilar(p, q, defs, bounds)
        if verdict.is_bisimilar:
            verified.append((i, p, q))
        else:
            rejected.append(i)
    checks = 0
    agreeing = 0
    unknown = 0
    findings: list[CongruenceFinding] = []
    for i, p, q in verified:
        alphabet = sorted(action_names_of(p) | action_names_of(q) | {"z"})
        for _ in range(n_contexts):
            ctx = random_context(rng, alphabet)
            try:
                filled_p = apply_context(ctx, p)
                filled_q = apply_context(ctx, q)
            except IllFormedPlacement:
                continue
            checks += 1
            verdict = bisimilar(filled_p, filled_q, defs, bounds)
            if verdict.is_bisimilar:
                agreeing += 1
            elif verdict.outcome == UNKNOWN:
                unknown += 1
            else:
                findings.append(CongruenceFinding(i, ctx, verdict))
    return CongruenceReport(
        verified_pairs=len(verified),
        rejected_pairs=tuple(rejected),
        contexts_per_pair=n_contexts,
        checks=checks,
        bisimilar_checks=agreeing,
        unknown_checks=unknown,
        counterexamples=tuple(findings),
    )
