"""Bisimilarity checking, witnesses, contexts and the congruence probe."""

import collections
import dataclasses
import random

import pytest
from hypothesis import given, reject, settings

import bisim_oracle
import strategies
from gen import random_process
from papc.equivalence import (
    BISIMILAR,
    NOT_BISIMILAR,
    UNKNOWN,
    WitnessStep,
    apply_context,
    bisimilar,
    congruence_probe,
    random_context,
    verify_witness,
)
from papc.errors import IllFormedPlacement, ParseError
from papc.lts import Bounds
from papc.parsing import parse_context, parse_definitions, parse_process
from papc.semantics import (
    CompleteConservative,
    CompletePreemptive,
    Handshake,
    all_steps,
    label_text,
)
from papc.syntax import (HOLE, NIL, Action, EMPTY_DEFINITIONS, FrozenConsume, Hole, Par, Sum,
                         format_term, subterms)

REPLICATOR_DEFS = parse_definitions("C1 := a.(C1 | C1); C2 := a:C2;")
SMALL = Bounds(max_states=60, max_depth=6)
ROOMY = Bounds(max_states=400, max_depth=10)


# ---------------------------------------------------------------------------
# the flagship inequivalence: consuming vs conserving replication


def test_replicators_are_not_bisimilar():
    p = parse_process("a.(C1 | C1)")
    q = parse_process("a:C2")
    verdict = bisimilar(p, q, REPLICATOR_DEFS, SMALL)
    assert verdict.outcome == NOT_BISIMILAR
    steps = verdict.witness
    assert len(steps) == 2
    assert isinstance(steps[0].move.label, Handshake)
    assert steps[0].response is not None
    final = steps[1]
    assert final.response is None
    assert final.move.label == CompletePreemptive(1, Action("a"), frozenset())


def test_replicator_witness_is_cp_versus_cc():
    p = parse_process("a.(C1 | C1)")
    q = parse_process("a:C2")
    verdict = bisimilar(p, q, REPLICATOR_DEFS, SMALL)
    final = verdict.witness[-1]
    label = final.move.label
    assert isinstance(label, CompletePreemptive)
    # the defender is stuck because its only completion is conservative
    defender = parse_process("[a#1]:C2")
    kinds = {type(t.label) for t in all_steps(defender, REPLICATOR_DEFS)}
    assert CompleteConservative in kinds and CompletePreemptive not in kinds
    assert verify_witness(p, q, verdict.witness, REPLICATOR_DEFS)


@pytest.mark.parametrize("bounds", [Bounds(), Bounds(max_states=2, max_depth=6)],
                         ids=["exact", "bounded"])
def test_witness_follows_a_continuation(bounds):
    p, q = parse_process("a:b.0"), parse_process("a:c.0")
    verdict = bisimilar(p, q, EMPTY_DEFINITIONS, bounds)
    assert verdict.outcome == NOT_BISIMILAR
    assert verdict.detail == "distinguished at game depth 3"
    assert [(s.attacker, label_text(s.move.label), s.follow) for s in verdict.witness] == [
        ("left", "H 1 a+", "target"),
        ("left", "CC 1 a- {} -> b.0", "continuation"),
        ("left", "H 1 b+", None),
    ]
    assert verdict.witness[-1].response is None
    assert verify_witness(p, q, verdict.witness, EMPTY_DEFINITIONS)


def test_verify_witness_rejects_malformed_steps():
    p, q = parse_process("a:b.0"), parse_process("a:c.0")
    witness = bisimilar(p, q, EMPTY_DEFINITIONS, Bounds()).witness
    first, rest = witness[0], witness[1:]
    assert verify_witness(p, q, witness)
    # an unknown side, a missing move, an unknown follow and a response that
    # only equals a transition as a plain tuple
    assert not verify_witness(p, q, (WitnessStep("up", first.move, None, None),))
    for bad in (dataclasses.replace(first, attacker="up"),
                dataclasses.replace(first, move=None),
                dataclasses.replace(first, follow="targets"),
                dataclasses.replace(first, response=tuple(first.response))):
        assert verify_witness(p, q, (bad, *rest)) is False


def test_identical_configurations_are_bisimilar():
    p = parse_process("[a#1].(C1 | C1) + g:P")
    assert bisimilar(p, p, REPLICATOR_DEFS, SMALL).outcome == BISIMILAR


def test_bound_exhaustion_yields_unknown():
    p = parse_process("C1")
    q = parse_process("C2")
    verdict = bisimilar(p, q, REPLICATOR_DEFS, Bounds(max_states=5, max_depth=1))
    assert verdict.outcome == UNKNOWN


def test_a_system_step_mode_is_refused():
    # bisimilarity compares all four relations, so a system-mode bound would
    # be ignored; it is refused instead, also by a probe with no pairs
    p = parse_process("a.0")
    system = Bounds(step_mode="system")
    with pytest.raises(ValueError, match="step mode 'system'"):
        bisimilar(p, p, EMPTY_DEFINITIONS, system)
    with pytest.raises(ValueError, match="step mode 'system'"):
        congruence_probe([], EMPTY_DEFINITIONS, bounds=system)


# ---------------------------------------------------------------------------
# agreement with the enumerative oracle


def oracle_verdict(p, q, defs):
    return bisim_oracle.bisimilar_by_enumeration(p, q, defs, limit=400)


def test_two_copies_of_a_sum_differ_from_one():
    p = parse_process("a.0 + a.0")
    q = parse_process("a.0")
    verdict = bisimilar(p, q, EMPTY_DEFINITIONS, ROOMY)
    assert verdict.outcome == NOT_BISIMILAR
    assert verify_witness(p, q, verdict.witness, EMPTY_DEFINITIONS)
    assert oracle_verdict(p, q, EMPTY_DEFINITIONS) is False


@pytest.mark.parametrize("left,right,expected", [
    ("0", "0 | 0", True),
    ("a.0", "a.0 + a.0", False),
    ("a.0 + b.0", "b.0 + a.0", True),
    ("a.0 | b.0", "b.0 | a.0", True),
    ("a.0 + 0", "a.0", True),
    ("0 | a.0", "a.0", True),
    ("a.0", "a:0", False),
    ("[a#1].0", "[a#2].0", False),
])
def test_engine_and_oracle_agree_on_small_pairs(left, right, expected):
    p, q = parse_process(left), parse_process(right)
    verdict = bisimilar(p, q, EMPTY_DEFINITIONS, ROOMY)
    assert verdict.outcome == (BISIMILAR if expected else NOT_BISIMILAR)
    assert oracle_verdict(p, q, EMPTY_DEFINITIONS) is expected
    if verdict.outcome == NOT_BISIMILAR:
        assert verify_witness(p, q, verdict.witness, EMPTY_DEFINITIONS)


def test_engine_and_oracle_agree_on_random_pairs():
    rng = random.Random(11)
    checked = 0
    while checked < 25:
        p = random_process(rng, 2, constants=False)
        q = random_process(rng, 2, constants=False)
        try:
            space = bisim_oracle.joint_space((p, q), EMPTY_DEFINITIONS, limit=50)
        except RuntimeError:
            continue
        rel = bisim_oracle.largest_bisimulation(space)
        verdict = bisimilar(p, q, EMPTY_DEFINITIONS, ROOMY)
        assert verdict.outcome in (BISIMILAR, NOT_BISIMILAR)
        assert verdict.is_bisimilar == ((p, q) in rel), (format_term(p), format_term(q))
        checked += 1


def test_bounded_path_agrees_with_the_oracle():
    # max_states=3 sends all but the smallest spaces down the depth-bounded
    # path; a depth of one move per joint state is enough to split any
    # inequivalent pair
    rng = random.Random(19)
    outcomes = collections.Counter()
    while sum(outcomes.values()) < 200:
        p = random_process(rng, 2, constants=False)
        q = random_process(rng, 2, constants=False)
        try:
            space = bisim_oracle.joint_space((p, q), EMPTY_DEFINITIONS, limit=50)
        except RuntimeError:
            continue
        equivalent = (p, q) in bisim_oracle.largest_bisimulation(space)
        verdict = bisimilar(p, q, EMPTY_DEFINITIONS, Bounds(max_states=3, max_depth=len(space)))
        pair = (format_term(p), format_term(q))
        if equivalent:
            assert verdict.outcome != NOT_BISIMILAR, pair
        else:
            assert verdict.outcome == NOT_BISIMILAR, pair
        if verdict.outcome == NOT_BISIMILAR:
            assert verify_witness(p, q, verdict.witness, EMPTY_DEFINITIONS), pair
            assert verdict.detail == f"distinguished at game depth {len(verdict.witness)}"
        outcomes[verdict.detail.split()[0]] += 1
    assert outcomes["distinguished"] > 100 and outcomes["joint"] + outcomes["game"] > 0


def test_demanded_set_differences_distinguish():
    p = parse_process("[a#1].0 + [b#2].0")
    q = parse_process("[a#1].0 + [b#3].0")
    verdict = bisimilar(p, q, EMPTY_DEFINITIONS, ROOMY)
    assert verdict.outcome == NOT_BISIMILAR
    assert len(verdict.witness) == 1


# ---------------------------------------------------------------------------
# equivalence laws on samples


def test_symmetry_on_samples():
    rng = random.Random(3)
    for _ in range(15):
        p = random_process(rng, 2, constants=False)
        q = random_process(rng, 2, constants=False)
        a = bisimilar(p, q, EMPTY_DEFINITIONS, ROOMY)
        b = bisimilar(q, p, EMPTY_DEFINITIONS, ROOMY)
        assert a.outcome == b.outcome


def test_transitivity_on_a_triple():
    p = parse_process("a.0 + 0")
    q = parse_process("a.0")
    r = parse_process("0 + a.0")
    assert bisimilar(p, q, EMPTY_DEFINITIONS, ROOMY).is_bisimilar
    assert bisimilar(q, r, EMPTY_DEFINITIONS, ROOMY).is_bisimilar
    assert bisimilar(p, r, EMPTY_DEFINITIONS, ROOMY).is_bisimilar


# ---------------------------------------------------------------------------
# the laws of | and +
#
# Identifiers are compared verbatim, and where a start, a demand or a
# coupled continuation lands depends on how `|` is bracketed, so `|` is
# neither associative nor commutative up to bisimilarity, on plain processes
# too.  The engine and the rule oracle agree on this: it is the rules as
# written, not a defect of either.


@pytest.mark.parametrize("left,right,moves,finite", [
    ("(a.0 | a.0) | ~a.0", "a.0 | (a.0 | ~a.0)", 4, True),
    # the conserving prefix spawns copies without end: no finite joint space
    ("g:g:0 | ~g:b.0", "~g:b.0 | g:g:0", 5, False),
])
def test_par_is_neither_associative_nor_commutative(left, right, moves, finite):
    p, q = parse_process(left), parse_process(right)
    verdict = bisimilar(p, q, EMPTY_DEFINITIONS, ROOMY)
    assert verdict.outcome == NOT_BISIMILAR
    assert len(verdict.witness) == moves
    assert verify_witness(p, q, verdict.witness, EMPTY_DEFINITIONS)
    if finite:
        assert oracle_verdict(p, q, EMPTY_DEFINITIONS) is False


LAWS = {
    "par-unit-right": lambda p, q, r: (Par(p, NIL), p),
    "par-unit-left": lambda p, q, r: (Par(NIL, p), p),
    "sum-unit-right": lambda p, q, r: (Sum(p, NIL), p),
    "sum-unit-left": lambda p, q, r: (Sum(NIL, p), p),
    "sum-commutative": lambda p, q, r: (Sum(p, q), Sum(q, p)),
    "sum-associative": lambda p, q, r: (Sum(Sum(p, q), r), Sum(p, Sum(q, r))),
}


@pytest.mark.parametrize("law", LAWS)
@settings(max_examples=15, deadline=None)
@given(p=strategies.pure_terms, q=strategies.pure_terms, r=strategies.pure_terms)
def test_laws_that_hold_on_small_spaces(law, p, q, r):
    left, right = LAWS[law](p, q, r)
    try:
        space = bisim_oracle.joint_space((left, right), EMPTY_DEFINITIONS, limit=40)
    except RuntimeError:
        reject()
    assert (left, right) in bisim_oracle.largest_bisimulation(space)
    assert bisimilar(left, right, EMPTY_DEFINITIONS, ROOMY).outcome == BISIMILAR


# ---------------------------------------------------------------------------
# contexts


def test_apply_context_fills_the_hole():
    ctx = parse_context("[] + b.0")
    assert format_term(apply_context(ctx, parse_process("a.0"))) == "a.0 + b.0"


def test_apply_context_parallel():
    ctx = parse_context("[] | ~a.0")
    assert format_term(apply_context(ctx, parse_process("a.0"))) == "a.0 | ~a.0"


def test_apply_context_rejects_frozen_under_prefix():
    ctx = parse_context("c.[]")
    with pytest.raises(IllFormedPlacement):
        apply_context(ctx, parse_process("[a#1].0"))


def test_apply_context_rejects_what_parse_context_rejects():
    running = FrozenConsume(Action("a"), 1, NIL)
    filler = parse_process("b.0")
    for ctx in (FrozenConsume(Action("a"), 1, HOLE), Par(running, HOLE)):
        assert sum(isinstance(t, Hole) for t in subterms(ctx)) == 1
        with pytest.raises(ParseError):
            parse_context(format_term(ctx))
        with pytest.raises(ParseError):
            apply_context(ctx, filler)


def test_random_contexts_have_one_hole():
    rng = random.Random(5)
    for _ in range(200):
        ctx = random_context(rng, ["a", "b"])
        assert sum(isinstance(t, Hole) for t in subterms(ctx)) == 1


# ---------------------------------------------------------------------------
# congruence probing


def test_probe_reflexive_pair_yields_no_counterexamples():
    p = parse_process("a.0 + g:0")
    report = congruence_probe([(p, p)], EMPTY_DEFINITIONS, n_contexts=10, seed=4,
                              bounds=Bounds(max_states=150, max_depth=8))
    assert report.verified_pairs == 1
    assert report.ok
    assert report.checks == 10


def test_probe_rejects_inequivalent_pairs():
    report = congruence_probe(
        [(parse_process("C1"), parse_process("C2")),
         (parse_process("a.0 + a.0"), parse_process("a.0"))],
        REPLICATOR_DEFS,
        n_contexts=5,
        seed=4,
        bounds=SMALL,
    )
    assert report.verified_pairs == 0
    assert report.rejected_pairs == (0, 1)
    assert report.checks == 0
