"""Random contexts and a congruence probe over bisimilar pairs.

A context is text with one hole ``[]``; filling it substitutes a process's
printed form, parenthesized, and parses the result, so the parser's checks
apply to every filled term.  A filler with running prefixes under a prefix
of the context does not parse, and the probe skips that context.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from papc.equivalence import UNKNOWN, Verdict, bisimilar
from papc.errors import ParseError
from papc.lts import Bounds
from papc.parsing import parse_process
from papc.syntax import EMPTY_DEFINITIONS, Definitions, Term, format_term, subterms

# the text of sum, parallel and the two prefixes, in the order they are drawn
_OPERATORS = (" + ", " | ", ".", ":")


def random_context(rng: random.Random, alphabet: Sequence[str], max_depth: int = 3) -> str:
    """A random process-shaped context: operators drawn uniformly from sum,
    parallel and the two prefixes; actions from ``alphabet`` plus polarity;
    the hole equally likely on either side of each branch."""
    names = list(alphabet) or ["a"]

    def rand_action() -> str:
        name = rng.choice(names)
        return "~" + name if rng.random() < 0.5 else name

    def rand_process(depth: int) -> str:
        if depth <= 0 or rng.random() < 0.3:
            return "0"
        kind = rng.randrange(4)
        if kind < 2:
            return f"({rand_process(depth - 1)}){_OPERATORS[kind]}({rand_process(depth - 1)})"
        return f"{rand_action()}{_OPERATORS[kind]}({rand_process(depth - 1)})"

    def rand_ctx(depth: int) -> str:
        if depth <= 0 or rng.random() < 0.25:
            return "[]"
        kind = rng.randrange(4)
        if kind >= 2:
            return f"{rand_action()}{_OPERATORS[kind]}({rand_ctx(depth - 1)})"
        if rng.random() < 0.5:
            return f"({rand_ctx(depth - 1)}){_OPERATORS[kind]}({rand_process(depth - 1)})"
        return f"({rand_process(depth - 1)}){_OPERATORS[kind]}({rand_ctx(depth - 1)})"

    return rand_ctx(max_depth)


def fill(context: str, filler: Term) -> Term:
    """The context with ``filler`` in its hole; ParseError where it does not fit."""
    return parse_process(context.replace("[]", f"({format_term(filler)})"))


def _action_names(term: Term) -> set[str]:
    return {t.action.name for t in subterms(term) if hasattr(t, "action")}


@dataclass(frozen=True)
class CongruenceFinding:
    pair_index: int
    context: str
    verdict: Verdict


@dataclass(frozen=True)
class CongruenceReport:
    """Result of searching for congruence violations on verified pairs.

    A counterexample is a finding, not a known engine bug: no proof that
    every operator of the calculus preserves bisimilarity is at hand.  Check
    each against ``bisim_oracle``, which tells an engine fault from a context
    that really separates the pair.
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
    ``unknown`` verdicts are counted but are not counterexamples.
    """
    rng = random.Random(seed)
    rejected: list[int] = []
    verified: list[tuple[int, Term, Term]] = []
    for i, (p, q) in enumerate(pairs):
        if bisimilar(p, q, defs, bounds).is_bisimilar:
            verified.append((i, p, q))
        else:
            rejected.append(i)
    checks = agreeing = unknown = 0
    findings: list[CongruenceFinding] = []
    for i, p, q in verified:
        alphabet = sorted(_action_names(p) | _action_names(q) | {"z"})
        for _ in range(n_contexts):
            ctx = random_context(rng, alphabet)
            try:
                filled_p, filled_q = fill(ctx, p), fill(ctx, q)
            except ParseError:
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
