"""Bisimulation checking with distinguishing evidence.

Two configurations are bisimilar when every handshake, interrupt and
preemptive-completion transition of one is matched by the other with the
*same* label (identifiers and demanded sets compared verbatim) into related
targets, and every conservative completion is matched with the same
identifier, action and demanded set into a related target *and* a related
continuation.  Continuations ride in labels, so they are injected into the
state space as ordinary states and compared up to the relation itself rather
than syntactically.

The checker is exact when the joint reachable space (continuations included)
fits within ``max_states``: signature-based partition refinement iterates to
a fixpoint, continuation blocks feeding back into the splitting.  Otherwise
a depth-bounded game over the two configurations either finds a
distinguishing strategy (returned as a replayable witness) or gives up with
an ``unknown`` verdict; it never guesses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import IllFormedPlacement
from .lts import Bounds
from .semantics import (
    DEFAULT_INTERRUPT_CAP,
    CompleteConservative,
    Transition,
    all_steps,
    label_text,
)
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
    hole_count,
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
    "hole_count",
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


def _joint_space(
    roots: Iterable[Term],
    defs: Definitions,
    max_states: int,
    interrupt_cap: int,
) -> Optional[dict[Term, tuple[Transition, ...]]]:
    """All states reachable from the roots, conservative continuations
    included; ``None`` when the space does not fit within ``max_states``."""
    space: dict[Term, tuple[Transition, ...]] = {}
    frontier = [r for r in roots]
    while frontier:
        state = frontier.pop()
        if state in space:
            continue
        if len(space) >= max_states:
            return None
        steps = all_steps(state, defs, interrupt_cap=interrupt_cap)
        space[state] = steps
        for t in steps:
            if t.target not in space:
                frontier.append(t.target)
            if isinstance(t.label, CompleteConservative):
                if t.label.continuation not in space:
                    frontier.append(t.label.continuation)
    return space


def _refine(space: dict[Term, tuple[Transition, ...]]) -> dict[Term, int]:
    """Coarsest partition stable under the matching clauses.

    Blocks split on full labels for handshakes, interrupts and preemptive
    completions, and on (identifier, action, demanded set, continuation
    block, target block) for conservative completions; splitting repeats
    until a round leaves the block count unchanged.
    """
    blocks = {s: 0 for s in space}
    while True:
        signatures: dict[Term, frozenset] = {}
        for state, steps in space.items():
            items = set()
            for t in steps:
                if isinstance(t.label, CompleteConservative):
                    items.add((
                        "CC",
                        t.label.ident,
                        t.label.action,
                        t.label.demanded,
                        blocks[t.label.continuation],
                        blocks[t.target],
                    ))
                else:
                    items.add((t.relation, t.label, blocks[t.target]))
            signatures[state] = frozenset(items)
        keys: dict = {}
        next_blocks: dict[Term, int] = {}
        for state in space:
            key = (blocks[state], signatures[state])
            if key not in keys:
                keys[key] = len(keys)
            next_blocks[state] = keys[key]
        if len(set(next_blocks.values())) == len(set(blocks.values())):
            return next_blocks
        blocks = next_blocks


# ---------------------------------------------------------------------------
# matching and the distinguishing game


def _matching_responses(move: Transition, defender_steps: Sequence[Transition]):
    """Defender transitions whose label matches the attacker's move.

    Conservative completions match on (identifier, action, demanded set);
    every other relation matches on the full label.
    """
    label = move.label
    if isinstance(label, CompleteConservative):
        return [
            t for t in defender_steps
            if isinstance(t.label, CompleteConservative)
            and t.label.ident == label.ident
            and t.label.action == label.action
            and t.label.demanded == label.demanded
        ]
    return [t for t in defender_steps if t.label == label]


def _pairs_after(move: Transition, response: Transition):
    """The pairs the defender must keep related, tagged by what they follow."""
    pairs = [("target", move.target, response.target)]
    if isinstance(move.label, CompleteConservative):
        assert isinstance(response.label, CompleteConservative)
        pairs.append(("continuation", move.label.continuation, response.label.continuation))
    return pairs


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self) -> bool:
        self.used += 1
        return self.used <= self.limit


class _BudgetExhausted(Exception):
    pass


def _attack(
    left: Term,
    right: Term,
    depth: int,
    steps_of,
    distinct,
    memo: dict,
    budget: _Budget,
) -> Optional[tuple[WitnessStep, ...]]:
    """A winning attacker strategy from (left, right) within ``depth`` moves,
    linearized against best defense, or ``None``.

    ``distinct`` prunes with an exact inequivalence oracle when one is
    available (partition blocks); the game never claims a win the oracle
    rules out, and never explores pairs the oracle declares equivalent.
    Witness steps keep a stable orientation: "left" always descends from the
    original left configuration.
    """
    if depth <= 0:
        return None
    if distinct is not None and not distinct(left, right):
        return None
    key = (left, right, depth)
    if key in memo:
        return memo[key]
    if not budget.spend():
        raise _BudgetExhausted
    result: Optional[tuple[WitnessStep, ...]] = None
    for side, attacker, defender in (("left", left, right), ("right", right, left)):
        defender_steps = steps_of(defender)
        for move in steps_of(attacker):
            responses = _matching_responses(move, defender_steps)
            if not responses:
                result = (WitnessStep(side, move, None, None),)
                break
            # the move wins when every response leaves some followable pair
            # distinguishable one level down; keep the defender's best line
            best: Optional[tuple[Transition, str, tuple[WitnessStep, ...]]] = None
            all_refuted = True
            for response in responses:
                refutation = None
                for follow, move_next, response_next in _pairs_after(move, response):
                    if side == "left":
                        next_pair = (move_next, response_next)
                    else:
                        next_pair = (response_next, move_next)
                    sub = _attack(next_pair[0], next_pair[1], depth - 1,
                                  steps_of, distinct, memo, budget)
                    if sub is not None:
                        refutation = (response, follow, sub)
                        break
                if refutation is None:
                    all_refuted = False
                    break
                if best is None or len(refutation[2]) > len(best[2]):
                    best = refutation
            if all_refuted and best is not None:
                candidate = (WitnessStep(side, move, best[0], best[1]),) + best[2]
                if result is None or len(candidate) < len(result):
                    result = candidate
        if result is not None and len(result) == 1:
            break
    memo[key] = result
    return result


def bisimilar(
    left: Term,
    right: Term,
    defs: Definitions = EMPTY_DEFINITIONS,
    bounds: Bounds = Bounds(),
    *,
    interrupt_cap: int = DEFAULT_INTERRUPT_CAP,
) -> Verdict:
    """Decide bisimilarity within bounds.

    Exact (partition refinement) when the joint reachable space fits in
    ``bounds.max_states``; otherwise a game bounded by ``bounds.max_depth``
    that can only answer ``not-bisimilar`` (with a witness) or ``unknown``.
    """
    if left == right:
        return Verdict(BISIMILAR, detail="identical configurations")
    space = _joint_space((left, right), defs, bounds.max_states, interrupt_cap)
    if space is not None:
        blocks = _refine(space)
        if blocks[left] == blocks[right]:
            return Verdict(BISIMILAR, detail=f"exact over {len(space)} joint states")
        def distinct(a: Term, b: Term) -> bool:
            return blocks[a] != blocks[b]

        memo: dict = {}
        budget = _Budget(10_000_000)
        for depth in range(1, len(space) + 2):
            witness = _attack(left, right, depth, space.__getitem__,
                              distinct, memo, budget)
            if witness is not None:
                return Verdict(NOT_BISIMILAR, witness=witness,
                               detail=f"distinguished at game depth {depth}")
        raise AssertionError("refinement split the pair but no witness was found")
    # the space is too large for an exact answer: bounded game
    cache: dict[Term, tuple[Transition, ...]] = {}

    def steps_of(state: Term) -> tuple[Transition, ...]:
        if state not in cache:
            cache[state] = all_steps(state, defs, interrupt_cap=interrupt_cap)
        return cache[state]

    budget = _Budget(max(bounds.max_states, 1) * 64)
    memo = {}
    try:
        for depth in range(1, bounds.max_depth + 1):
            witness = _attack(left, right, depth, steps_of, None, memo, budget)
            if witness is not None:
                return Verdict(NOT_BISIMILAR, witness=witness,
                               detail=f"distinguished at game depth {depth}")
    except _BudgetExhausted:
        return Verdict(UNKNOWN, detail="game budget exhausted before a difference was found")
    return Verdict(
        UNKNOWN,
        detail=(f"joint space exceeds {bounds.max_states} states and the game "
                f"found no difference within depth {bounds.max_depth}"),
    )


def verify_witness(
    left: Term,
    right: Term,
    witness: Sequence[WitnessStep],
    defs: Definitions = EMPTY_DEFINITIONS,
    *,
    interrupt_cap: int = DEFAULT_INTERRUPT_CAP,
) -> bool:
    """Replay a witness against the engine.

    Every claimed move must exist among its source's transitions, every
    recorded response must match the move's label, and the final move must
    have no matching response at all.
    """
    current = {"left": left, "right": right}
    for i, step in enumerate(witness):
        attacker = current[step.attacker]
        defender = current["right" if step.attacker == "left" else "left"]
        if step.move.source != attacker:
            return False
        attacker_steps = all_steps(attacker, defs, interrupt_cap=interrupt_cap)
        if step.move not in attacker_steps:
            return False
        defender_steps = all_steps(defender, defs, interrupt_cap=interrupt_cap)
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
    *,
    interrupt_cap: int = DEFAULT_INTERRUPT_CAP,
) -> CongruenceReport:
    """Check verified-bisimilar pairs under random contexts.

    Pairs that the engine cannot verify as bisimilar are rejected up front.
    A filled pair judged not bisimilar is reported as a counterexample;
    ``unknown`` verdicts are counted but are not counterexamples.
    """
    rng = random.Random(seed)
    rejected: list[int] = []
    verified: list[tuple[int, Term, Term]] = []
    for i, (p, q) in enumerate(pairs):
        verdict = bisimilar(p, q, defs, bounds, interrupt_cap=interrupt_cap)
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
            verdict = bisimilar(filled_p, filled_q, defs, bounds,
                                interrupt_cap=interrupt_cap)
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
