"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Expected values are frozen from hand derivation cross-checked against the
naive rule-by-rule oracle; nothing here is tuned to the engine.
"""

import random
import time

import oracle
from bisim_oracle import joint_space, largest_bisimulation
from congruence import congruence_probe
from gen import STANDARD_DEFS, random_configuration, random_process
from papc.equivalence import (
    BISIMILAR,
    NOT_BISIMILAR,
    bisimilar,
    verify_witness,
)
from papc.lts import Bounds, build, export
from papc.parsing import parse_definitions, parse_process
from papc.semantics import (
    CompleteConservative,
    CompletePreemptive,
    Handshake,
    Interrupt,
    all_steps,
    conservative_completions,
    handshake_steps,
    interrupt_steps,
    preemptive_completions,
    system_steps,
)
from papc.syntax import (
    Action,
    FrozenConserve,
    FrozenConsume,
    Par,
    PrefixConsume,
    Sum,
    TAU,
    format_term,
)

pp = parse_process

S = pp("C | A | B")
S1 = pp("[a#1].(C | C) + g:P | [~a#1].(A | A) | B")
S2 = pp("[a#1].(C | C) + [g#2]:P | [~a#1].(A | A) | [~g#2]:0")
DIVIDE_FIRST = pp("(C | C) | (A | A) | ~g:0")
PRODUCE_FIRST = pp("(([a#1].(C | C) + g:P | [~a#1].(A | A) | ~g:0) | P) | 0")


def report(number: int, name: str, started: float, limit: float) -> None:
    elapsed = time.monotonic() - started
    line = f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s, limit {limit:.0f}s)"
    print("\n" + line)
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget"


def labelled(transitions):
    return {(t.label, t.target) for t in transitions}


def test_criterion_1_golden_chain_replay():
    started = time.monotonic()
    # the displayed chain: coupled start of the division, coupled start of
    # the transcription (renamed to 2), then both completion orders
    got_s = labelled(system_steps(S, STANDARD_DEFS))
    assert (Handshake(1, TAU), S1) in got_s
    assert got_s == {
        (Handshake(1, TAU), S1),
        (Handshake(1, TAU), pp("a.(C | C) + [g#1]:P | A | [~g#1]:0")),
    }
    got_s1 = labelled(system_steps(S1, STANDARD_DEFS))
    assert (Handshake(2, TAU), S2) in got_s1
    assert got_s1 == {
        (Handshake(2, TAU), S2),
        (CompletePreemptive(1, TAU, frozenset()), pp("(C | C) | (A | A) | B")),
    }
    got_s2 = labelled(system_steps(S2, STANDARD_DEFS))
    assert got_s2 == {
        (CompletePreemptive(1, TAU, frozenset()), DIVIDE_FIRST),
        (CompletePreemptive(2, TAU, frozenset()), PRODUCE_FIRST),
    }
    report(1, "golden chain replay", started, 1.0)


def test_criterion_2_sub_derivation_replay():
    started = time.monotonic()
    a, g = Action("a"), Action("g")
    # leaf starts of the two division partners
    assert labelled(handshake_steps(pp("C"), STANDARD_DEFS)) == {
        (Handshake(1, a), pp("[a#1].(C | C) + g:P")),
        (Handshake(1, g), pp("a.(C | C) + [g#1]:P")),
    }
    assert labelled(handshake_steps(pp("A"), STANDARD_DEFS)) == {
        (Handshake(1, Action("a", True)), pp("[~a#1].(A | A)")),
    }
    # the transcription start renamed to 2 against the running division
    assert labelled(handshake_steps(pp("[a#1].(C | C) + g:P"), STANDARD_DEFS)) == {
        (Handshake(2, g), pp("[a#1].(C | C) + [g#2]:P")),
    }
    # completion of the division alone, then demanding the competing action
    assert labelled(preemptive_completions(pp("[a#1].(C | C)"))) == {
        (CompletePreemptive(1, a, frozenset()), pp("C | C")),
    }
    assert labelled(preemptive_completions(pp("[a#1].(C | C) + [g#2]:P"))) == {
        (CompletePreemptive(1, a, frozenset({2})), pp("C | C")),
    }
    # the transcription slot rolls back under interruption
    assert (Interrupt(frozenset({2})), pp("~g:0")) in labelled(
        interrupt_steps(pp("[~g#2]:0"))
    )
    # conservative completions: the slot re-arms, the cell keeps its summand
    assert labelled(conservative_completions(pp("[~g#2]:0"))) == {
        (CompleteConservative(2, Action("g", True), frozenset(), pp("0")),
         pp("~g:0")),
    }
    assert (
        CompleteConservative(2, g, frozenset(), pp("P")),
        pp("[a#1].(C | C) + g:P"),
    ) in labelled(conservative_completions(pp("[a#1].(C | C) + [g#2]:P")))
    report(2, "sub-derivation replay", started, 1.0)


def test_criterion_3_replicators_distinguished():
    started = time.monotonic()
    defs = parse_definitions("C1 := a.(C1 | C1); C2 := a:C2;")
    p, q = pp("C1"), pp("C2")
    verdict = bisimilar(p, q, defs, Bounds(max_states=40, max_depth=2))
    assert verdict.outcome == NOT_BISIMILAR
    assert len(verdict.witness) <= 2
    first, last = verdict.witness[0], verdict.witness[-1]
    assert isinstance(first.move.label, Handshake)
    assert first.response is not None
    assert isinstance(last.move.label, CompletePreemptive)
    assert last.response is None
    # the defender is stuck with a conservative completion under the same
    # identifier, action and demand: a CP-versus-CC mismatch
    stuck = pp("[a#1]:C2")
    cc = [t.label for t in all_steps(stuck, defs)
          if isinstance(t.label, CompleteConservative)]
    assert any(l.ident == last.move.label.ident
               and l.action == last.move.label.action
               and l.demanded == last.move.label.demanded for l in cc)
    assert verify_witness(p, q, verdict.witness, defs)
    report(3, "replicator inequivalence at depth 2", started, 1.0)


def test_criterion_4_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(2024)
    relations = (
        (handshake_steps, oracle.h_steps),
        (interrupt_steps, oracle.i_steps),
        (preemptive_completions, oracle.cp_steps),
        (conservative_completions, oracle.cc_steps),
    )
    checked = 0
    for i in range(500):
        config = random_configuration(rng, depth=5, max_frozen=4,
                                      distinct_ids=(i % 3 != 0))
        for engine_fn, oracle_fn in relations:
            got = oracle.engine_view(engine_fn(config, STANDARD_DEFS))
            want = oracle_fn(config, STANDARD_DEFS)
            assert got == want, format_term(config)
        checked += 1
    assert checked >= 500
    report(4, f"oracle equivalence on {checked} configurations", started, 60.0)


def _actions_with(term, ident):
    # the actions of the running prefixes identified by ``ident``, one per prefix
    if isinstance(term, (FrozenConsume, FrozenConserve)):
        return [term.action] if term.ident == ident else []
    if isinstance(term, (Sum, Par)):
        return _actions_with(term.left, ident) + _actions_with(term.right, ident)
    return []


def test_criterion_5_invariant_suite():
    started = time.monotonic()
    rng = random.Random(5)
    n = 10_000

    # complement is an involution
    for _ in range(n):
        action = Action(rng.choice("abgxyz"), rng.random() < 0.5)
        assert action.partner.partner is action
        assert action.partner.name == action.name
        assert action.partner.complemented != action.complemented

    # printing then reparsing is the identity
    for i in range(n):
        config = random_configuration(rng, depth=4, max_frozen=3,
                                      distinct_ids=(i % 2 == 0))
        assert pp(format_term(config)) == config

    # every configuration reachable from a plain process branches finitely
    branch_checks = 0
    for _ in range(n // 2):
        config = random_process(rng, 3)
        for _ in range(2):
            steps = all_steps(config, STANDARD_DEFS)
            assert isinstance(steps, tuple)
            branch_checks += 1
            candidates = [t.target for t in steps]
            if not candidates:
                break
            config = rng.choice(candidates)
    assert branch_checks >= n

    # handshake labels are fresh and register exactly once
    for _ in range(n):
        config = random_configuration(rng, depth=4, max_frozen=3)
        for t in handshake_steps(config, STANDARD_DEFS):
            label = t.label
            assert label.ident not in oracle.ids(config)
            assert oracle.ids(t.target) == oracle.ids(config) | {label.ident}

    # coupled tau starts freeze one complementary prefix on each side
    coupling_checks = 0
    while coupling_checks < n:
        left = PrefixConsume(Action("a"), random_process(rng, 2))
        right = PrefixConsume(Action("a", True), random_process(rng, 2))
        config = Par(
            Sum(left, random_configuration(rng, 2, max_frozen=2)) if rng.random() < 0.5 else left,
            Sum(right, random_configuration(rng, 2, max_frozen=2)) if rng.random() < 0.5 else right,
        )
        for t in handshake_steps(config, STANDARD_DEFS):
            if t.label.action is not TAU:
                continue
            ident = t.label.ident
            assert ident not in oracle.ids(config)
            assert isinstance(t.target, Par)
            # a tau start couples at this composition only when both sides
            # gained the identifier; otherwise one side propagated a nested
            # coupling and holds both ends itself
            sides_gained = [ident in oracle.ids(t.target.left),
                            ident in oracle.ids(t.target.right)]
            if not all(sides_gained):
                assert any(sides_gained)
                continue
            left_actions = _actions_with(t.target.left, ident)
            right_actions = _actions_with(t.target.right, ident)
            assert len(left_actions) == 1 and len(right_actions) == 1
            (la,), (ra,) = left_actions, right_actions
            assert ra is la.partner
            coupling_checks += 1

    # interrupt labels say exactly which identifiers were rolled back
    for _ in range(n):
        config = random_configuration(rng, depth=4, max_frozen=3)
        for t in interrupt_steps(config, STANDARD_DEFS):
            rolled = t.label.idents
            assert rolled <= oracle.ids(config)
            assert oracle.ids(t.target) == oracle.ids(config) - rolled

    report(5, "invariant suite (6 x >= 10^4 instances)", started, 60.0)


def test_criterion_6_congruence_probe():
    started = time.monotonic()
    rng = random.Random(99)
    bounds = Bounds(max_states=250, max_depth=8)
    pairs = []
    # reflexive pairs always verify; algebraic variants join once the engine
    # confirms them
    while len(pairs) < 10:
        p = random_process(rng, 2, constants=False)
        pairs.append((p, p))
    candidates = 0
    while len(pairs) < 20 and candidates < 200:
        candidates += 1
        p = random_process(rng, 2, constants=False)
        q = random_process(rng, 2, constants=False)
        variant = rng.randrange(4)
        if variant == 0:
            pair = (Sum(p, q), Sum(q, p))
        elif variant == 1:
            pair = (Par(p, q), Par(q, p))
        elif variant == 2:
            pair = (Sum(p, pp("0")), p)
        else:
            pair = (Par(pp("0"), p), p)
        if pair[0] == pair[1]:
            continue
        if bisimilar(pair[0], pair[1], STANDARD_DEFS, bounds).is_bisimilar:
            pairs.append(pair)
    assert len(pairs) >= 20
    probe = congruence_probe(pairs, STANDARD_DEFS, n_contexts=25, seed=7,
                             bounds=bounds)
    assert probe.verified_pairs >= 20
    assert probe.checks >= 20 * 25
    assert probe.counterexamples == (), [
        (f.context, f.verdict.detail) for f in probe.counterexamples
    ]
    assert probe.bisimilar_checks > probe.checks // 2
    report(
        6,
        f"congruence probe ({probe.verified_pairs} pairs x "
        f"{probe.contexts_per_pair} contexts, {probe.bisimilar_checks} decisive)",
        started,
        120.0,
    )


def test_criterion_7_export_determinism():
    started = time.monotonic()

    def snapshot():
        defs = parse_definitions("C := a.(C | C) + g:P; A := ~a.(A | A); B := ~g:0;")
        root = parse_process("C | A | B")
        lts = build(root, defs, Bounds(max_states=120, max_depth=4))
        return export(lts, "aut"), export(lts, "json")

    first = snapshot()
    second = snapshot()
    assert first[0] == second[0]
    assert first[1] == second[1]
    report(7, "byte-identical exports", started, 60.0)
