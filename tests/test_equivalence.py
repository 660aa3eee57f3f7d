"""Bisimilarity checking, witnesses, contexts and the congruence probe."""

import random

import pytest

import bisim_oracle
from gen import random_process
from papc.equivalence import (
    BISIMILAR,
    NOT_BISIMILAR,
    UNKNOWN,
    apply_context,
    bisimilar,
    congruence_probe,
    hole_count,
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
)
from papc.syntax import HOLE, NIL, Action, EMPTY_DEFINITIONS, FrozenConsume, Par, format_term

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


def test_identical_configurations_are_bisimilar():
    p = parse_process("[a#1].(C1 | C1) + g:P")
    assert bisimilar(p, p, REPLICATOR_DEFS, SMALL).outcome == BISIMILAR


def test_bound_exhaustion_yields_unknown():
    p = parse_process("C1")
    q = parse_process("C2")
    verdict = bisimilar(p, q, REPLICATOR_DEFS, Bounds(max_states=5, max_depth=1))
    assert verdict.outcome == UNKNOWN


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
        assert hole_count(ctx) == 1
        with pytest.raises(ParseError):
            parse_context(format_term(ctx))
        with pytest.raises(ParseError):
            apply_context(ctx, filler)


def test_random_contexts_have_one_hole():
    rng = random.Random(5)
    for _ in range(200):
        ctx = random_context(rng, ["a", "b"])
        assert hole_count(ctx) == 1


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
