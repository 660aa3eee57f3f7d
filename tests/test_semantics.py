"""Transition derivation: auxiliary functions and the five relations."""

import collections
import copy
import gc
import os
import pickle
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracle
import strategies
from gen import random_configuration
from papc import semantics, syntax
from papc.errors import CapExceeded, PapcError, UnguardedRecursion
from papc.lts import Bounds, build, export
from papc.parsing import parse_definitions, parse_process
from papc.semantics import (
    CompleteConservative,
    CompletePreemptive,
    Handshake,
    Interrupt,
    Transition,
    all_steps,
    conservative_completions,
    handshake_steps,
    interrupt_steps,
    label_text,
    preemptive_completions,
    system_steps,
    transition_sort_key,
)
from papc.syntax import (
    NIL,
    Action,
    FrozenConserve,
    FrozenConsume,
    Par,
    PrefixConserve,
    PrefixConsume,
    Sum,
    TAU,
    Term,
    format_term,
)

DEFS = parse_definitions("C := a.(C | C) + g:P; A := ~a.(A | A); B := ~g:0;")

S = parse_process("C | A | B")
S1 = parse_process("[a#1].(C | C) + g:P | [~a#1].(A | A) | B")
S2 = parse_process("[a#1].(C | C) + [g#2]:P | [~a#1].(A | A) | [~g#2]:0")


def labelled(transitions):
    return {(t.label, t.target) for t in transitions}


# ---------------------------------------------------------------------------
# auxiliary functions


def test_id_set_collects_running_identifiers():
    config = parse_process("[a#1].P + b:Q | [g#2].T")
    assert config.mask == 1 << 1 | 1 << 2


def test_id_set_of_plain_process_is_empty():
    assert parse_process("a.(C|C) + g:P").mask == 0


def test_id_set_merges_duplicates():
    assert parse_process("[a#3].0 + [b#3]:0").mask == 1 << 3


def test_rename_id_single_occurrence():
    assert semantics._rename(parse_process("[a#1].0"), 1, 3) is parse_process("[a#3].0")


def test_rename_id_no_running_prefixes():
    term = parse_process("a.0")
    assert semantics._rename(term, 5, 6) is term


def test_rename_id_renames_coupled_sides():
    got = semantics._rename(parse_process("[a#1].0 | [~a#1].0"), 1, 2)
    assert got is parse_process("[a#2].0 | [~a#2].0")
    assert got.mask == 1 << 2


def _renamed(term, old, new):
    # the reference: rebuild every node through its class, renaming each
    # running prefix on ``old``
    if isinstance(term, (FrozenConsume, FrozenConserve)):
        return type(term)(term.action, new if term.ident == old else term.ident, term.cont)
    if isinstance(term, (Sum, Par)):
        return type(term)(_renamed(term.left, old, new), _renamed(term.right, old, new))
    if isinstance(term, (PrefixConsume, PrefixConserve)):
        return type(term)(term.action, _renamed(term.cont, old, new))
    return term


def _made_from(found):
    # the node a stand-in stands for, built; a node is itself
    if type(found) is not tuple:
        return found
    return found[0](*(_made_from(f) if isinstance(f, (tuple, Term)) else f for f in found[1:]))


@given(strategies.configurations, strategies.actions, strategies.pure_terms,
       strategies.idents, st.integers(min_value=1, max_value=12), st.booleans())
def test_rename_agrees_with_a_rewrite_of_every_node(config, action, cont, old, new, coupled):
    if coupled:  # a second running prefix on ``old``, as a coupled start leaves
        config = Par(config, FrozenConserve(action, old, cont))
    assume(new == old or new not in oracle.ids(config))
    found = semantics._rename(config, old, new, True)  # before the renamed term is made
    want = _renamed(config, old, new)
    assert semantics._rename(config, old, new) is want
    assert _made_from(found) is want
    assert oracle.ids(want) == {new if i == old else i for i in oracle.ids(config)}


@pytest.mark.parametrize("derive", [handshake_steps, all_steps, system_steps])
def test_a_start_past_the_identifier_bound_raises(monkeypatch, derive):
    # every identifier up to the bound runs: a start that collides needs a
    # fresh one past it, in all_steps; at a system root only the coupling of
    # two visible starts needs one.  Known mode builds no node, so the
    # constructor's own check would not fire there.
    config = parse_process("([a#1].0 | zc.0) | ([b#2].0 | ~zc.0)")
    monkeypatch.setattr(syntax, "MAX_IDENT", 2)
    for known in (None, {config}):
        with pytest.raises(CapExceeded, match="identifier past the bound"):
            derive(config, DEFS, {}, known)
    monkeypatch.setattr(syntax, "MAX_IDENT", 3)  # the fresh identifier at the bound
    steps = derive(config, DEFS)
    assert derive(config, DEFS, {}, {t.target for t in steps}) == steps
    assert 3 in {t.label.ident for t in steps if isinstance(t.label, Handshake)}


def test_a_term_with_every_identifier_running_derives_while_no_start_needs_one(monkeypatch):
    config = parse_process("[a#1].0 | [b#2].0 + [zc#3]:0")
    steps = all_steps(config, DEFS)
    monkeypatch.setattr(syntax, "MAX_IDENT", 3)
    assert all_steps(config, DEFS, {}) == steps


# ---------------------------------------------------------------------------
# handshakes


def test_start_of_a_prefix_uses_identifier_one():
    got = labelled(handshake_steps(parse_process("a.P")))
    assert got == {(Handshake(1, Action("a")), parse_process("[a#1].P"))}


def test_coupled_start_from_the_cell_system():
    got = labelled(handshake_steps(S, DEFS))
    assert (Handshake(1, TAU), S1) in got


def test_colliding_start_renamed_to_least_unused():
    # the conserving prefix starts with identifier 1, which the running
    # consuming prefix already holds, so the sum renames the start to 2
    got = labelled(handshake_steps(parse_process("[a#1].(C | C) + g:P"), DEFS))
    assert got == {
        (Handshake(2, Action("g")), parse_process("[a#1].(C | C) + [g#2]:P"))
    }


def test_coupled_start_after_renaming():
    got = labelled(handshake_steps(S1, DEFS))
    assert (Handshake(2, TAU), S2) in got


def test_unbound_constants_are_inert():
    assert handshake_steps(parse_process("P"), DEFS) == ()


def test_unguarded_recursion_detected():
    defs = parse_definitions("X := X + a.0;")
    with pytest.raises(UnguardedRecursion):
        handshake_steps(parse_process("X"), defs)


# ---------------------------------------------------------------------------
# interrupts


def test_interrupt_choices_of_a_running_conserve():
    config = parse_process("[~g#2]:0")
    got = labelled(interrupt_steps(config))
    assert got == {
        (Interrupt(frozenset({2})), parse_process("~g:0")),
        (Interrupt(frozenset()), config),
    }


def test_plain_prefix_has_only_the_empty_interrupt():
    config = parse_process("a.0")
    assert labelled(interrupt_steps(config)) == {(Interrupt(frozenset()), config)}


def test_interrupts_combine_independently():
    got = interrupt_steps(parse_process("[a#1].P + [b#2]:Q"))
    assert sorted(t.label.idents for t in got) == [
        frozenset(),
        frozenset({1}),
        frozenset({2}),
        frozenset({1, 2}),
    ]


def test_interrupt_cap_is_per_component():
    wide = " | ".join(f"[a#{i}].0" for i in range(1, 18))
    interrupt_steps(parse_process(wide))  # 17 components of 1
    deep = " + ".join(f"[a#{i}].0" for i in range(1, 18))
    with pytest.raises(CapExceeded):
        interrupt_steps(parse_process(deep))


def test_every_empty_identifier_set_in_a_label_is_the_one_empty_set(monkeypatch):
    # label tables that hold no label yet, so every I and CP label is made here
    monkeypatch.setattr(semantics, "_shared_labels", {})
    monkeypatch.setattr(semantics, "_step_labels", {})
    steps = all_steps(parse_process("[a#1].0 | [b#2].0 + c:0 | [~c#3]:0 | [d#4].0"))
    assert {type(t.label) for t in steps} == {
        Handshake, Interrupt, CompletePreemptive, CompleteConservative}
    sets = [t.label.idents if isinstance(t.label, Interrupt) else t.label.demanded
            for t in steps if not isinstance(t.label, Handshake)]
    assert any(sets) and not all(sets)
    assert all(s is semantics._EMPTY for s in sets if not s)


_RELATIONS = (handshake_steps, interrupt_steps, preemptive_completions, conservative_completions)


def _printed_and_ordered_as_uncached(t):
    # the reference: each label prints and orders itself, at every call
    return (label_text(t.label) == t.label._show()
            and transition_sort_key(t) == (t.label._key(), format_term(t.target)))


@given(strategies.configurations)
def test_shared_labels_print_order_and_compare_as_fresh_ones(config):
    # each relation alone, then all four again through a memo: two
    # derivations, on a table that starts empty
    semantics._shared_labels.clear()
    first = [t for derive in _RELATIONS for t in derive(config, DEFS)]
    assert all(_printed_and_ordered_as_uncached(t) for t in first)
    again = all_steps(config, DEFS, {})
    assert again == tuple(first)
    assert all(_printed_and_ordered_as_uncached(t) for t in again)
    if len({t.label for t in first}) < semantics._SHARED_CAP:  # no clear in between
        assert all(a.label is b.label for a, b in zip(first, again)
                   if not isinstance(a.label, CompleteConservative))


def test_a_conservative_label_keeps_its_continuation_no_longer_than_its_transitions():
    config = parse_process("[g#1]:(zq.0 | ~zq.0) | [a#2].0")
    continuation = weakref.ref(config.left.cont)
    steps = [*conservative_completions(config), *all_steps(config, DEFS, {})]
    assert any(isinstance(t.label, CompleteConservative) for t in steps)
    assert all(_printed_and_ordered_as_uncached(t) for t in steps)
    lts = build(config, DEFS, Bounds(max_states=5))
    export(lts, "aut")  # prints every edge's label
    del config, steps, lts
    gc.collect()
    assert continuation() is None


def test_the_label_table_stays_within_its_cap_under_a_wide_fan_out():
    # 2^12 distinct interrupt labels at the root, more than the cap
    wide = parse_process(" | ".join(f"[a#{i}].0" for i in range(1, 13)))
    steps = interrupt_steps(wide)
    assert len({t.label for t in steps}) == 2 ** 12 > semantics._SHARED_CAP
    assert len(semantics._shared_labels) <= semantics._SHARED_CAP
    assert all(_printed_and_ordered_as_uncached(t) for t in steps)
    assert len(semantics._shared_labels) <= semantics._SHARED_CAP
    assert interrupt_steps(wide) == steps  # through the clears again


@pytest.mark.parametrize("derive", [preemptive_completions, conservative_completions])
def test_completions_check_the_interrupt_cap_up_front(derive):
    deep = " + ".join(f"[a#{i}].0" for i in range(1, 18))
    with pytest.raises(CapExceeded):
        derive(parse_process(deep))


def _wide(last, width=1_500):
    # a.0 | (a.0 | ... (a.0 | last)), built directly: deeper than the
    # interpreter's recursion limit
    term = last
    for _ in range(width - 1):
        term = Par(PrefixConsume(Action("a"), NIL), term)
    return term


@pytest.mark.parametrize("derive", [interrupt_steps, preemptive_completions,
                                    conservative_completions])
def test_the_cap_check_walks_a_wide_parallel_in_a_loop(derive):
    plain = _wide(PrefixConsume(Action("a"), NIL))
    got = derive(plain)
    assert [t.target for t in got] == ([plain] if derive is interrupt_steps else [])
    capped = parse_process(" + ".join(f"[a#{i}].0" for i in range(1, 18)))
    message = (f"component {format_term(capped)} has 17 running prefixes; "
               f"interrupt enumeration is capped at 16")
    with pytest.raises(CapExceeded) as raised:
        derive(_wide(capped))
    assert str(raised.value) == message


def test_the_cap_check_names_the_leftmost_component_over_the_cap():
    left = parse_process(" + ".join(f"[a#{i}].0" for i in range(1, 18)))
    right = parse_process(" + ".join(f"[b#{i}].0" for i in range(18, 36)))
    with pytest.raises(CapExceeded, match=r"^component \[a#1\]"):
        interrupt_steps(Par(right.left, Par(left, right)))


# ---------------------------------------------------------------------------
# preemptive completions


def test_completion_of_a_running_consume():
    got = labelled(preemptive_completions(parse_process("[a#1].(C | C)")))
    assert got == {
        (CompletePreemptive(1, Action("a"), frozenset()), parse_process("C | C"))
    }


def test_completion_demands_the_losing_summand():
    got = labelled(preemptive_completions(parse_process("[a#1].(C | C) + [g#2]:P")))
    assert (CompletePreemptive(1, Action("a"), frozenset({2})),
            parse_process("C | C")) in got


def test_cell_division_completes_with_nothing_left_demanded():
    got = labelled(preemptive_completions(S2, DEFS))
    target = parse_process("(C | C) | (A | A) | ~g:0")
    assert (CompletePreemptive(1, TAU, frozenset()), target) in got


# ---------------------------------------------------------------------------
# conservative completions


def test_conserving_completion_rearms_and_lifts_continuation():
    got = labelled(conservative_completions(parse_process("[~g#2]:0")))
    assert got == {
        (CompleteConservative(2, Action("g", True), frozenset(), parse_process("0")),
         parse_process("~g:0"))
    }


def test_conserving_completion_keeps_the_summand():
    got = labelled(conservative_completions(parse_process("[a#1].(C | C) + [g#2]:P")))
    keep = (CompleteConservative(2, Action("g"), frozenset(), parse_process("P")),
            parse_process("[a#1].(C | C) + g:P"))
    rollback = (CompleteConservative(2, Action("g"), frozenset({1}), parse_process("P")),
                parse_process("a.(C | C) + g:P"))
    assert keep in got and rollback in got
    assert len(got) == 2


# ---------------------------------------------------------------------------
# unions and the system filter


def test_inert_term_has_only_the_empty_interrupt():
    config = parse_process("0")
    assert labelled(all_steps(config)) == {(Interrupt(frozenset()), config)}


def test_all_steps_of_a_single_prefix():
    config = parse_process("a.0")
    assert labelled(all_steps(config)) == {
        (Handshake(1, Action("a")), parse_process("[a#1].0")),
        (Interrupt(frozenset()), config),
    }


def test_all_steps_contains_both_completion_orders():
    got = labelled(all_steps(S2, DEFS))
    divide_first = (CompletePreemptive(1, TAU, frozenset()),
                    parse_process("(C | C) | (A | A) | ~g:0"))
    produce_first = (
        CompletePreemptive(2, TAU, frozenset()),
        parse_process("(([a#1].(C | C) + g:P | [~a#1].(A | A) | ~g:0) | P) | 0"),
    )
    assert divide_first in got and produce_first in got


def test_system_steps_from_the_initial_system():
    # both reactions may start first; each start is a coupled tau handshake
    got = labelled(system_steps(S, DEFS))
    assert got == {
        (Handshake(1, TAU), S1),
        (Handshake(1, TAU), parse_process("a.(C | C) + [g#1]:P | A | [~g#1]:0")),
    }


def test_system_steps_when_everything_is_running():
    got = labelled(system_steps(S2, DEFS))
    assert got == {
        (CompletePreemptive(1, TAU, frozenset()),
         parse_process("(C | C) | (A | A) | ~g:0")),
        (CompletePreemptive(2, TAU, frozenset()),
         parse_process("(([a#1].(C | C) + g:P | [~a#1].(A | A) | ~g:0) | P) | 0")),
    }


def test_unsynchronized_start_is_not_a_system_step():
    assert system_steps(parse_process("a.0")) == ()


def test_system_steps_share_an_identifier_across_nesting_levels():
    # identifier 1 runs at two nesting levels: the inner tau completion may
    # interrupt [a#1] beside it, and the outer composition cancels that
    # demand by interrupting [~a#1]
    config = parse_process("[a#1].0 | ([b#2].0 | [~b#2].0) | [~a#1].0")
    assert (CompletePreemptive(2, TAU, frozenset()),
            parse_process("a.0 | (0 | 0) | ~a.0")) in labelled(system_steps(config))


@pytest.mark.parametrize("text", [
    "xa.0 | xb.0",       # visible starts
    "[xa#1]:0 | xb.0",   # a conservative completion, placed beside its sibling
    "[xa#1]:0 + xb.0",   # a conservative completion that discards a summand
])
def test_a_system_derivation_builds_nothing_for_the_steps_it_drops(text):
    # every root step here is visible; with the children's whole derivation
    # held alive, any value made would be built at the root for a dropped step
    config = parse_process(text)
    held = [all_steps(child, DEFS) for child in (config.left, config.right)]
    gc.collect()
    made = syntax._made
    assert system_steps(config, DEFS) == ()
    assert syntax._made == made
    assert held


def test_transition_order_is_deterministic():
    # derivation order depends on the term alone, not on a memo's contents
    steps = all_steps(S2, DEFS)
    memo = {}
    for state in build(S2, DEFS, Bounds(max_states=30)).states:
        all_steps(state, DEFS, memo)
    assert all_steps(S2, DEFS, memo) == steps
    assert all_steps(parse_process(format_term(S2)), DEFS) == steps


# Prints the derivation order of all_steps and system_steps over the first
# 30 states of a cell-model build.  Terms hash by address and names through
# seeded string hashes, so a set order that reached derivation would show
# up as a difference between two interpreters.
_DERIVATION_ORDER_SCRIPT = """
import sys
from papc.cli import load_model
from papc.lts import Bounds, build
from papc.semantics import all_steps, system_steps

model = load_model(sys.argv[1])
for state in build(model.root, model.definitions, Bounds(max_states=30)).states:
    for derive in (all_steps, system_steps):
        print(derive.__name__, *derive(state, model.definitions), sep="\\n")
"""


def test_derivation_order_is_identical_across_processes():
    root = Path(__file__).resolve().parents[1]
    runs = [subprocess.run([sys.executable, "-c", _DERIVATION_ORDER_SCRIPT,
                            str(root / "models" / "cell_protein.papc")],
                           capture_output=True, check=True, text=True,
                           env=dict(os.environ, PYTHONPATH=str(root / "src"),
                                    PYTHONHASHSEED=str(seed))).stdout
            for seed in (0, 1)]
    assert runs[0] == runs[1]
    assert runs[0].count("all_steps") == runs[0].count("system_steps") == 30


def test_labels_of_different_relations_never_compare_equal():
    ident, action, demanded = 1, Action("a"), frozenset({1})
    labels = [
        Handshake(ident, action),
        Interrupt(demanded),
        CompletePreemptive(ident, action, demanded),
        CompleteConservative(ident, action, demanded, parse_process("0")),
    ]
    assert all(a != b for i, a in enumerate(labels) for b in labels[i + 1:])
    assert len(set(labels)) == 4
    transition = Transition(parse_process("a.0"), labels[0], parse_process("[a#1].0"))
    assert all(label != transition for label in labels)


def test_transitions_survive_pickle_and_deepcopy():
    for t in all_steps(S2, DEFS):
        assert pickle.loads(pickle.dumps(t)) == t
        assert copy.deepcopy(t) == t


_LABEL_FIELDS = {
    Handshake: ("ident", "action"),
    Interrupt: ("idents",),
    CompletePreemptive: ("ident", "action", "demanded"),
    CompleteConservative: ("ident", "action", "demanded", "continuation"),
}


def test_transitions_built_in_c_are_the_named_tuples_their_constructors_make():
    relations = ((handshake_steps, Handshake), (interrupt_steps, Interrupt),
                 (preemptive_completions, CompletePreemptive),
                 (conservative_completions, CompleteConservative))
    seen = set()
    for state in build(S, DEFS, Bounds(max_states=60)).states:
        for derive, label_class in relations:
            for t in derive(state, DEFS):
                seen.add(label_class)
                label = t.label
                assert type(t) is Transition and type(label) is label_class
                assert isinstance(t, Transition) and isinstance(label, label_class)
                assert t._fields == ("source", "label", "target")
                assert label._fields == _LABEL_FIELDS[label_class]
                assert label == tuple(label) == label_class(*label)
                made = Transition(state, label_class(*label), t.target)
                assert t == made and repr(t) == repr(made)
                assert t._replace(target=NIL) == Transition(state, label, NIL)
                assert label._replace() == label and type(label._replace()) is label_class
                assert pickle.loads(pickle.dumps(t)) == t
    assert seen == set(_LABEL_FIELDS)


_RANK = {Handshake: 0, Interrupt: 1, CompletePreemptive: 2, CompleteConservative: 3}


def _field_key(value):
    if isinstance(value, frozenset):
        return tuple(sorted(value))
    if isinstance(value, Action):  # tau first, then by name and polarity
        return (value.name is not None, value.name or "", value.complemented)
    if isinstance(value, Term):
        return format_term(value)
    return value


@given(strategies.configurations)
def test_transition_order_matches_an_independent_key(config):
    # relation, then the label fields in order (sets sorted, the
    # continuation printed), then the printed target
    keys = [(_RANK[type(t.label)], tuple(_field_key(v) for v in t.label),
             format_term(t.target))
            for t in sorted(all_steps(config, DEFS), key=transition_sort_key)]
    assert all(a < b for a, b in zip(keys, keys[1:]))


@given(strategies.configurations, st.data())
def test_known_targets_keep_the_ordered_transitions_into_them(config, data):
    # the kept transitions are the full ones into known targets, in order,
    # and a None marks exactly that some other step was left out; it trails
    # its own relation's transitions
    for derive in (handshake_steps, interrupt_steps, all_steps, system_steps):
        full = derive(config, DEFS)
        targets = sorted({t.target for t in full}, key=format_term)
        known = set(data.draw(st.lists(st.sampled_from(targets), unique=True)
                              if targets else st.just([])))
        memo = {} if data.draw(st.booleans()) else None
        kept = [t for t in full if t.target in known]
        steps = derive(config, DEFS, memo, known)
        assert [t for t in steps if t is not None] == kept
        assert (None in steps) == (len(kept) < len(full))
        if derive in (handshake_steps, interrupt_steps):
            assert steps == (*kept, *[None] * (len(kept) < len(full)))


@given(strategies.configurations, st.data())
def test_known_targets_reparsed_after_the_full_result_died_keep_its_transitions(config, data):
    # with the full results kept only as text, the targets outside ``known``
    # are dead, so the known calls meet them as stand-ins
    derivations = (handshake_steps, interrupt_steps, all_steps, system_steps)
    full = [derive(config, DEFS) for derive in derivations]
    full_texts = [[(label_text(t.label), format_term(t.target)) for t in steps] for steps in full]
    del full
    gc.collect()
    for derive, texts in zip(derivations, full_texts):
        targets = sorted({target for _, target in texts})
        known_texts = set(data.draw(st.lists(st.sampled_from(targets), unique=True)
                                    if targets else st.just([])))
        known = {parse_process(text) for text in known_texts}
        memo = {} if data.draw(st.booleans()) else None
        steps = derive(config, DEFS, memo, known)
        kept = [(label_text(t.label), format_term(t.target)) for t in steps if t is not None]
        assert kept == [step for step in texts if step[1] in known_texts]
        assert (None in steps) == (len(kept) < len(texts))


def test_a_completion_left_out_below_the_root_is_still_marked():
    # the completion of a#4 ends in g.0 | 0, which nothing holds, and no other
    # step is left out, so the stand-in the Par frame keeps must reach the root
    config = parse_process("0 + (g.0 | [a#4].0)")
    texts = [str(t) for t in all_steps(config, DEFS)]
    assert "CP 4 a- {} -> g.0 | 0" in texts
    gc.collect()
    assert type(Par.find(config.right.left, NIL)) is tuple
    known = {config, parse_process("0 + ([g#1].0 | [a#4].0)"), parse_process("0 + (g.0 | a.0)")}
    steps = all_steps(config, DEFS, None, known)
    assert [str(t) for t in steps if t is not None] == [t for t in texts if not t.startswith("CP")]
    assert None in steps


def test_a_system_call_reads_no_entry_a_pruning_call_stored():
    # [a#2].0 + [g#1]:0 completes g#1 interrupting a#2 or leaving it running.
    # Nothing holds either target, so the entry all_steps stores keeps only
    # the first, but system_steps needs the second: only a completion that
    # demands nothing couples with that of ~g#1
    text = "([a#2].0 + [g#1]:0) | ([~a#2].0 | [~g#1]:0)"
    assert [str(t) for t in system_steps(parse_process(text), DEFS)] == [
        "CP 2 tau- {} -> 0 | 0 | ~g:0", "CP 1 tau- {} -> (([a#2].0 + g:0 | [~a#2].0 | ~g:0) | 0) | 0"]
    gc.collect()
    config, kept = parse_process(text), parse_process("0 | 0 | ~g:0")
    memo = {}
    all_steps(config, DEFS, memo, {config})
    steps = system_steps(config, DEFS, memo, {kept})
    assert [str(t) for t in steps[:-1]] == ["CP 2 tau- {} -> 0 | 0 | ~g:0"] and steps[-1] is None


def test_a_start_renamed_on_its_way_up_reaches_a_known_target_through_a_dead_node():
    # the start of sa first builds [sa#1].0 | sb.0, which nothing holds; its
    # renamed target ([sa#2].0 | sb.0) | [sc#1].0 is known all the same
    config = parse_process("(sa.0 | sb.0) | [sc#1].0")
    known = {parse_process("([sa#2].0 | sb.0) | [sc#1].0")}
    gc.collect()
    assert type(FrozenConsume.find(Action("sa"), 1, NIL)) is tuple
    steps = handshake_steps(config, DEFS, None, known)
    assert [str(t) for t in steps if t is not None] == ["H 2 sa+ -> ([sa#2].0 | sb.0) | [sc#1].0"]
    assert None in steps  # the start of sb


# cell-model states with starts in several components, and a mixed
# conservative/preemptive coupling beside coupled completions of both kinds
_COUPLING_HEAVY = [
    "C | A | B | C | A | B",
    "[a#1].(C | C) + g:P | [~a#1].(A | A) | B | C | A | B",
    "[a#1].(C | C) + [g#2]:P | [~a#1].(A | A) | [~g#2]:0 | C | A",
    "[a#1]:C + g.0 | [~a#1].A | [g#2].0 | [~g#2]:B | C | A | B",
]


def test_coupling_looks_no_action_up(monkeypatch):
    configs = [parse_process(text) for text in _COUPLING_HEAVY]
    expected = {}
    for config in configs:
        for derive in (all_steps, system_steps):
            full = derive(config, DEFS)
            known = {t.target for t in full[::2]}
            expected[config, derive] = full, known, derive(config, DEFS, {}, known)

    def coupled(config, kind):
        return any(isinstance(t.label, kind) and t.label.action is TAU
                   for t in expected[config, all_steps][0])
    assert all(coupled(config, Handshake) for config in configs)
    assert all(coupled(config, CompletePreemptive) for config in configs[2:])

    def find(*fields):
        raise AssertionError(f"Action.find{fields} during a derivation")

    monkeypatch.setattr(syntax.Action, "find", find)
    for (config, derive), (full, known, kept) in expected.items():
        assert derive(config, DEFS) == full and derive(config, DEFS, {}) == full
        assert derive(config, DEFS, {}, known) == kept
        assert any(t is None for t in kept) and any(t is not None for t in kept)


def _term_keys():
    return {key for key in syntax._TABLE if issubclass(key[0], Term)}


def test_a_known_call_makes_no_term():
    # reachable states, and generated ones whose rolled-back prefixes and
    # re-armed conserves are not subterms of any definition
    rng = random.Random(14)
    configs = [*build(S, DEFS, Bounds(max_states=60)).states,
               *(random_configuration(rng, depth=5, max_frozen=4) for _ in range(100))]
    known = set(configs)
    memo = {}
    gc.collect()
    before, made = _term_keys(), syntax._made
    for config in configs:
        for derive in (handshake_steps, interrupt_steps, all_steps, system_steps):
            derive(config, DEFS, memo, known)
    assert syntax._made == made
    assert not _term_keys() - before


# ---------------------------------------------------------------------------
# invariant properties


def _frozen_idents(config):
    from papc.syntax import FrozenConserve, FrozenConsume, Par, Sum

    if isinstance(config, (FrozenConsume, FrozenConserve)):
        return [config.ident]
    if isinstance(config, (Sum, Par)):
        return _frozen_idents(config.left) + _frozen_idents(config.right)
    return []


@given(strategies.configurations)
def test_interrupt_labels_are_sound(config):
    idents = _frozen_idents(config)
    for t in interrupt_steps(config):
        assert t.label.idents <= oracle.ids(config)
        if len(idents) == len(set(idents)):
            assert oracle.ids(t.target) == oracle.ids(config) - t.label.idents


@given(strategies.configurations, st.data())
def test_interrupts_never_yield_a_duplicate_step(config, data):
    # the fan-out is a list that merges nothing, so its steps must be distinct,
    # for any allowed subset, in full and in known mode (whose targets are
    # stand-ins where no term is live), with and without a shared memo
    allowed = sum(1 << i for i in data.draw(st.sets(st.sampled_from(sorted(oracle.ids(config)) or [1]))))
    memo = {}
    for known in ((), None, ()):
        for shared in (None, semantics._memo_for(memo, known)):
            steps = list(semantics._interrupts(config, allowed, shared, True, known is not None))
            assert len(set(steps)) == len(steps)


@given(strategies.configurations)
def test_handshake_identifiers_are_fresh(config):
    for t in handshake_steps(config, DEFS):
        assert t.label.ident not in oracle.ids(config)
        assert oracle.ids(t.target) == oracle.ids(config) | {t.label.ident}


def test_every_start_takes_the_least_identifier_its_term_leaves_unused():
    # in the whole configuration and in each Sum and Par subterm, so a parent
    # renames a child's start exactly where the other child holds its identifier
    rng = random.Random(3)
    configs = [*(random_configuration(rng) for _ in range(300)),
               *build(S, DEFS, Bounds(max_states=300)).states]
    renamed = 0
    for config in configs:
        for term in (config, *(t for t in syntax.subterms(config) if isinstance(t, (Sum, Par)))):
            fresh = oracle.least_unused(oracle.ids(term))
            idents = [t.label.ident for t in handshake_steps(term, DEFS)]
            assert idents == [fresh] * len(idents), format_term(term)
            renamed += fresh > 1 and len(idents)
    assert renamed


@given(strategies.summations)
def test_sum_completions_consume_the_whole_summation(config):
    # without parallel siblings a completion survives only as its own
    # continuation, so nothing stays running and nothing demanded survives
    for t in preemptive_completions(config):
        assert t.label.ident in oracle.ids(config)
        assert t.label.ident not in oracle.ids(t.target)
        assert not (t.label.demanded & oracle.ids(t.target))


@given(strategies.configurations)
def test_conserving_completions_rearm_their_action(config):
    for t in conservative_completions(config):
        restarts = {u.label.action for u in handshake_steps(t.target, DEFS)}
        assert t.label.action in restarts


# ---------------------------------------------------------------------------
# the derivation memo a build shares between its states


def _outcome(derive, config, defs, *memo):
    try:
        return derive(config, defs, *memo)
    except PapcError as exc:
        return "raised", type(exc), str(exc)


# One memo serves both step modes.  Their completions run under different
# demand budgets, and system_steps goes first, so an entry keyed without its
# budget would hand all_steps completions pruned for the closed system.


@pytest.mark.parametrize("mode", ["all", "system"])
def test_a_shared_memo_derives_what_each_state_derives_alone(mode):
    states = build(S, DEFS, Bounds(max_states=200, step_mode=mode)).states
    memo = {}
    for state in states:
        for derive in (system_steps, all_steps):
            assert derive(state, DEFS, memo) == derive(state, DEFS), format_term(state)
    assert memo


def test_a_shared_memo_never_holds_the_state_itself():
    # only the state's subterms are stored, never its own derivation
    memo = {}
    for derive in (all_steps, system_steps):
        derive(S2, DEFS, memo)
    assert memo
    assert all(key is not S2 and not (isinstance(key, tuple) and S2 in key) for key in memo)


@given(strategies.configurations)
def test_a_memo_shared_with_known_calls_derives_what_each_call_derives_alone(config):
    for derive in (all_steps, system_steps):
        memo = {}
        derive(config, DEFS, memo, {config})  # its other targets are dead: stand-ins
        full = derive(config, DEFS, memo)
        assert full == derive(config, DEFS)
        # every target is live now, so none of them may be met as a stand-in
        assert derive(config, DEFS, memo, {t.target for t in full}) == full


def _sum_and_par_terms(config):
    return [config, *(t for t in syntax.subterms(config) if isinstance(t, (syntax.Sum, Par)))]


@given(strategies.configurations, st.data())
def test_a_memo_shared_by_both_step_modes_derives_what_a_fresh_memo_derives(config, data):
    # system_steps filters only its root frame, so a filtered result stored
    # in the memo would reach a later call on the same term or a larger one.
    # A known call keeps the same transitions either way, but how many Nones
    # mark the steps it left out depends on what the memo held
    terms = _sum_and_par_terms(config)
    memo = {}
    for _ in range(data.draw(st.integers(2, 6))):
        derive = data.draw(st.sampled_from([all_steps, system_steps]))
        term = data.draw(st.sampled_from(terms))
        known = None
        if data.draw(st.booleans()):
            targets = sorted({t.target for t in derive(term, DEFS)}, key=format_term)
            known = set(data.draw(st.lists(st.sampled_from(targets), unique=True)
                                  if targets else st.just([])))
        steps, fresh = derive(term, DEFS, memo, known), derive(term, DEFS, {}, known)
        if known is None:
            assert steps == fresh, format_term(term)
        else:
            assert [t for t in steps if t is not None] == [t for t in fresh if t is not None]
            assert (None in steps) == (None in fresh), format_term(term)


@given(strategies.configurations, st.data())
def test_known_calls_sharing_a_memo_mark_a_left_out_step_as_a_full_derivation_does(config, data):
    # all_steps and interrupt_steps store pruned entries, which must leave no
    # later known call of either, or of system_steps, without the None a
    # fresh full derivation calls for.  The full results are kept as text,
    # so the targets outside ``known`` die and the known calls meet them as
    # stand-ins; every known set is parsed first, as making a term empties
    # the memo
    terms = _sum_and_par_terms(config)
    calls = []
    for _ in range(data.draw(st.integers(2, 8))):
        derive = data.draw(st.sampled_from([all_steps, interrupt_steps, system_steps]))
        term = data.draw(st.sampled_from(terms))
        texts = [(label_text(t.label), format_term(t.target)) for t in derive(term, DEFS)]
        targets = sorted({target for _, target in texts})
        known_texts = set(data.draw(st.lists(st.sampled_from(targets), unique=True)
                                    if targets else st.just([])))
        calls.append((derive, term, texts, known_texts))
    gc.collect()
    knowns = [{parse_process(text) for text in known_texts} for *_, known_texts in calls]
    memo = {}
    for (derive, term, texts, known_texts), known in zip(calls, knowns):
        steps = derive(term, DEFS, memo, known)
        kept = [(label_text(t.label), format_term(t.target)) for t in steps if t is not None]
        assert kept == [step for step in texts if step[1] in known_texts], format_term(term)
        assert (None in steps) == (len(kept) < len(texts)), format_term(term)


def test_a_known_call_derives_no_subterm_a_full_call_stored(monkeypatch):
    # as in a build past its state bound: full calls on the first states warm
    # the memo, then known calls on later states read what they stored
    states = build(S, DEFS, Bounds(max_states=60)).states
    known = set(states)
    warm = {}
    for state in states[:30]:
        all_steps(state, DEFS, warm)
        system_steps(state, DEFS, warm)
    calls = collections.Counter()
    for name in ("_h", "_interrupts", "_completions"):
        def counted(*args, derive=getattr(semantics, name), name=name, **kwargs):
            calls[name] += 1
            return derive(*args, **kwargs)
        monkeypatch.setattr(semantics, name, counted)

    def calls_made(derive, *args):
        calls.clear()
        return derive(*args), dict(calls)

    saved = 0
    for state in states[30:]:
        for derive in (all_steps, system_steps):
            alone = derive(state, DEFS, None, known)
            _, full_calls = calls_made(derive, state, DEFS, dict(warm))
            steps, known_calls = calls_made(derive, state, DEFS, dict(warm), known)
            assert steps == alone, format_term(state)
            assert known_calls == full_calls, format_term(state)
            saved += known_calls != calls_made(derive, state, DEFS, {}, known)[1]
    assert saved  # the warm memo spared some of those calls


def test_a_known_call_meets_no_stand_in_whose_term_was_made_since():
    # the first call stores the starts of xa.0 | xb.0 with dead targets, as
    # stand-ins; parsing then makes one of them, which the second call keeps
    config = parse_process("(xa.0 | xb.0) | xc.0")
    target = "([xa#1].0 | xb.0) | xc.0"
    gc.collect()
    memo = {}
    handshake_steps(config, DEFS, memo, {config})
    assert all(type(step[-1]) is tuple for step in memo[config.left])
    known = {parse_process(target)}
    steps = handshake_steps(config, DEFS, memo, known)
    assert steps == handshake_steps(config, DEFS, {}, known)
    assert [format_term(t.target) for t in steps if t is not None] == [target]


def test_a_known_call_meets_no_stand_in_whose_par_alone_was_made_since():
    # as above, but the started prefix stays alive, so making the target
    # makes only Par nodes: their count alone must empty the memo
    config = parse_process("(xa.0 | xb.0) | xc.0")
    started = FrozenConsume(Action("xa"), 1, config.left.left.cont)
    gc.collect()
    memo = {}
    handshake_steps(config, DEFS, memo, {config})
    assert (Par, started, config.left.right) in memo[config.left][0]
    made = syntax._made
    known = {Par(Par(started, config.left.right), config.right)}
    assert syntax._made == made + 2
    steps = handshake_steps(config, DEFS, memo, known)
    assert steps == handshake_steps(config, DEFS, {}, known)
    assert [format_term(t.target) for t in steps if t is not None] == ["([xa#1].0 | xb.0) | xc.0"]


def test_a_shared_memo_derives_what_generated_terms_derive_alone(monkeypatch):
    # a small cap on every fifth term must still raise
    cap = semantics.INTERRUPT_CAP
    rng = random.Random(12)
    memo = {}
    capped = 0
    for i in range(300):
        config = random_configuration(rng, depth=5, max_frozen=4,
                                      distinct_ids=(i % 3 != 0))
        monkeypatch.setattr(semantics, "INTERRUPT_CAP", 2 if i % 5 == 0 else cap)
        for derive in (system_steps, all_steps):
            alone = _outcome(derive, config, DEFS)
            assert _outcome(derive, config, DEFS, memo) == alone, format_term(config)
            capped += alone[:2] == ("raised", CapExceeded)
    assert capped


def test_a_shared_memo_keeps_unguarded_recursion_loud():
    defs = parse_definitions("X := X + a.0; Y := b.0 | Z; Z := c.0 + ~b.0; W := Y | W;")
    memo = {}
    raised = []
    # siblings stored first, then states that reach a cycle beside them
    for text in ("Y | a.0", "Y | X", "(b.0 | Z) | X", "Z + X", "Y | a.0",
                 "W", "Y | W", "X | W", "W | X", "Y | X"):
        config = parse_process(text)
        alone = _outcome(all_steps, config, defs)
        assert _outcome(all_steps, config, defs, memo) == alone, text
        if alone[:2] == ("raised", UnguardedRecursion):
            raised.append(alone[2].split()[1])
    assert raised == ["'X'", "'X'", "'X'", "'W'", "'W'", "'X'", "'W'", "'X'"]
