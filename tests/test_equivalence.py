"""Bisimilarity checking, witnesses, and the congruence probe over text
contexts (``congruence``)."""

import collections
import dataclasses
import gc
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, reject, settings

import bisim_oracle
import strategies
from congruence import congruence_probe, random_context
from gen import STANDARD_DEFS, random_process
from papc.equivalence import (
    BISIMILAR,
    NOT_BISIMILAR,
    UNKNOWN,
    WitnessStep,
    _Explorer,
    bisimilar,
    verify_witness,
)
from papc.lts import Bounds
from papc.parsing import parse_definitions, parse_process
from papc.semantics import (
    CompleteConservative,
    CompletePreemptive,
    Handshake,
    all_steps,
    label_text,
)
from papc.syntax import NIL, Action, EMPTY_DEFINITIONS, Par, Sum, format_term

REPLICATOR_DEFS = parse_definitions("C1 := a.(C1 | C1); C2 := a:C2;")
SMALL = Bounds(max_states=60, max_depth=6)
ROOMY = Bounds(max_states=400, max_depth=10)


@pytest.fixture
def explorers(monkeypatch):
    """The explorers that bisimilar creates while the test runs."""
    import papc.equivalence as eq

    made = []

    class Recorded(_Explorer):
        def __init__(self, roots, defs):
            super().__init__(roots, defs)
            made.append(self)

    monkeypatch.setattr(eq, "_Explorer", Recorded)
    return made


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


def test_the_explorer_derives_through_the_module_name(monkeypatch, explorers):
    # a tracer that wraps equivalence.all_steps sees one call per expanded
    # joint state, then one per state the witness reads
    import papc.equivalence as eq

    calls, memos = [], []

    def counted(config, defs, *memo):
        calls.append(config)
        memos.append(memo)
        return all_steps(config, defs, *memo)

    monkeypatch.setattr(eq, "all_steps", counted)
    p, q = parse_process("a.(C1 | C1)"), parse_process("a:C2")
    verdict = bisimilar(p, q, REPLICATOR_DEFS, SMALL)
    assert verdict.outcome == NOT_BISIMILAR
    [explorer] = explorers
    expanded = len(explorer.steps)
    assert calls[:expanded] == explorer.states[:expanded] and expanded > 2
    # then the witness derives the two states of each of its steps again
    read = calls[expanded:]
    assert len(read) == 2 * len(verdict.witness) and set(read) <= set(calls[:expanded])
    assert all(step.move.source in read[2 * j:2 * j + 2] for j, step in enumerate(verdict.witness))
    # every derivation of the check shares one memo
    [memo] = memos[0]
    assert isinstance(memo, dict) and all(len(m) == 1 and m[0] is memo for m in memos)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_the_explorer_memo_lasts_one_check(order):
    # The memo keys on Sum and Par nodes, whose derivation depends on the
    # definitions.  The same constant names bound to swapped bodies in one
    # process must each get the verdict the memo-less oracle gives.
    defs = [parse_definitions("X := a.0; Y := a:0;"), parse_definitions("X := a:0; Y := a.0;")]
    pairs = [(parse_process(p), parse_process(q)) for p, q in
             [("(X | X) | d.0", "(a.0 | a.0) | d.0"), ("(X + X) | d.0", "(a.0 + a.0) | d.0")]]
    for i in order:
        for p, q in pairs:
            verdict = bisimilar(p, q, defs[i], ROOMY)
            assert verdict.outcome != UNKNOWN
            assert verdict.is_bisimilar == bisim_oracle.bisimilar_by_enumeration(p, q, defs[i])


# exact-past-depth: the space fits in max_states, so the 3-move witness is
# found although it lies past max_depth
@pytest.mark.parametrize("bounds", [Bounds(), Bounds(max_states=2, max_depth=6),
                                    Bounds(max_depth=2)],
                         ids=["exact", "bounded", "exact-past-depth"])
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


@pytest.mark.parametrize("max_states,outcome,detail", [
    (100, BISIMILAR, "exact over 13 joint states"),
    (10, UNKNOWN, "joint space exceeds 10 states and the game found no difference within depth 2"),
])
def test_a_space_deeper_than_the_game_is_exact_when_it_fits(max_states, outcome, detail):
    p, q = parse_process("a.b.c.d.e.0 + 0"), parse_process("a.b.c.d.e.0")
    verdict = bisimilar(p, q, EMPTY_DEFINITIONS, Bounds(max_states=max_states, max_depth=2))
    assert (verdict.outcome, verdict.detail) == (outcome, detail)


def test_a_space_derived_in_full_is_exact_beyond_max_states():
    # the game's levels reach all 23 joint states within max_depth, so the
    # fixpoint answers although the space is larger than max_states
    p, q = parse_process("a.b.c.d.e.f.g.h.i.j.0 + 0"), parse_process("a.b.c.d.e.f.g.h.i.j.0")
    verdict = bisimilar(p, q, EMPTY_DEFINITIONS, Bounds(max_states=10))
    assert (verdict.outcome, verdict.detail) == (BISIMILAR, "exact over 23 joint states")


# Runs bisimilar in a fresh interpreter and prints the verdict, the detail,
# the witness and the explorer's discovery order.  Terms hash by address,
# which changes from process to process, so any set order that reaches the
# derivation shows up as a difference between two runs.
_DETERMINISM_SCRIPT = """
import papc.equivalence as eq
from papc.lts import Bounds
from papc.parsing import parse_definitions, parse_process
from papc.syntax import format_term

explorers = []

class Recorded(eq._Explorer):
    def __init__(self, roots, defs):
        super().__init__(roots, defs)
        explorers.append(self)

eq._Explorer = Recorded
for defs, left, right, max_states in (
        # a four-move witness on the exact path
        ("", "(a.0 | a.0) | ~a.0", "a.0 | (a.0 | ~a.0)", 400),
        # the game decides at depth 2, before the space is known
        ("C1 := a.(C1 | C1); C2 := a:C2;", "C1", "C2", 20)):
    verdict = eq.bisimilar(parse_process(left), parse_process(right),
                           parse_definitions(defs), Bounds(max_states=max_states))
    print(verdict.outcome, verdict.detail)
    for step in verdict.witness:
        print(step.describe())
    print(len(explorers[-1].states), *map(format_term, explorers[-1].states), sep="\\n")
"""


def test_verdicts_and_discovery_order_are_identical_across_processes():
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = [subprocess.run([sys.executable, "-c", _DETERMINISM_SCRIPT], capture_output=True,
                           env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed)),
                           check=True, text=True).stdout
            for seed in (0, 1)]
    assert runs[0] == runs[1]
    lines = runs[0].splitlines()
    assert lines[0] == "not-bisimilar distinguished at game depth 4"
    assert "not-bisimilar distinguished at game depth 2" in lines


def test_the_game_derives_only_the_levels_it_reads(explorers):
    # the replicators split at game depth 2, so only the states at most one
    # move from the roots are derived, although the space exceeds max_states
    verdict = bisimilar(parse_process("C1"), parse_process("C2"), REPLICATOR_DEFS,
                        Bounds(max_states=20))
    assert len(verdict.witness) == 2
    [explorer] = explorers
    expanded = explorer.states[:len(explorer.steps)]
    assert expanded == [s for s, d in zip(explorer.states, explorer.level) if d <= 1]


def test_a_finished_explorer_stores_no_step_the_collector_tracks(explorers):
    # steps hold ints only, so the collector untracks them and no longer
    # rescans them on every full collection
    p, q = parse_process("a:b.0 | C1"), parse_process("a:c.0 | C1")
    assert bisimilar(p, q, REPLICATOR_DEFS, SMALL).outcome == NOT_BISIMILAR
    [explorer] = explorers
    assert explorer.steps and any(len(step) == 3 for row in explorer.steps for step in row)
    gc.collect()
    assert not any(gc.is_tracked(step) for row in explorer.steps for step in row)
    # a collection untracks a tuple once its items are untracked, and it
    # reaches a state's row before the step tuples in it, so the rows go in
    # the next one
    gc.collect()
    assert not any(map(gc.is_tracked, explorer.steps))


def test_a_system_step_mode_is_refused():
    # bisimilarity compares all four relations, so a system-mode bound would
    # be ignored; it is refused instead
    p = parse_process("a.0")
    with pytest.raises(ValueError, match="step mode 'system'"):
        bisimilar(p, p, EMPTY_DEFINITIONS, Bounds(step_mode="system"))


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
    # max_states=3 is smaller than most of these spaces, but a depth of one
    # move per joint state derives each in full: an inequivalent pair is
    # split, and an equivalent one is answered exact beyond max_states
    rng = random.Random(19)
    outcomes, beyond = collections.Counter(), 0
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
        beyond += verdict.detail.startswith("exact over") and int(verdict.detail.split()[2]) > 3
    assert outcomes["distinguished"] > 100 and beyond > 0


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
# text contexts and congruence probing


def test_random_contexts_have_one_hole():
    rng = random.Random(5)
    for _ in range(200):
        ctx = random_context(rng, ["a", "b"])
        assert ctx.count("[]") == 1


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


# ---------------------------------------------------------------------------
# a golden digest of verdicts, details and witnesses
#
# verify_witness accepts any valid witness, so only a digest notices a change
# in which witness is chosen.  Seeded random pairs, the law P ~ P + 0 and the
# replicator pair run under three bounds that between them give every kind
# of detail.  The digest changes only with an intended change of output.

GOLDEN_DIGEST = "ca6fbe0651e4ab90ebb00c6c3325b57c294297ea311e248d67876b218fee6671"


def test_verdicts_details_and_witnesses_match_the_golden_digest():
    rng = random.Random(1919)
    pairs = [(random_process(rng, 3), random_process(rng, 3), STANDARD_DEFS) for _ in range(200)]
    pairs += [(p, Sum(p, NIL), defs) for p, _, defs in pairs[:40]]
    pairs.append((parse_process("a.(C1 | C1)"), parse_process("a:C2"), REPLICATOR_DEFS))
    digest, kinds = hashlib.sha256(), set()
    for bounds in (Bounds(max_states=40, max_depth=6), Bounds(max_states=12, max_depth=3),
                   Bounds(max_states=2, max_depth=12)):
        for p, q, defs in pairs:
            verdict = bisimilar(p, q, defs, bounds)
            kinds.add(verdict.detail.split()[0])
            for line in (verdict.outcome, verdict.detail, *(s.describe() for s in verdict.witness)):
                digest.update(line.encode() + b"\n")
    assert kinds == {"identical", "exact", "distinguished", "joint", "game"}
    assert digest.hexdigest() == GOLDEN_DIGEST
