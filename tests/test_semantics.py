"""Transition derivation: auxiliary functions and the five relations."""

import pytest
from hypothesis import given

import strategies
from papc.errors import CapExceeded, IdentifierCollision, UnguardedRecursion
from papc.parsing import parse_definitions, parse_process
from papc.semantics import (
    CompleteConservative,
    CompletePreemptive,
    Handshake,
    Interrupt,
    actions_at,
    all_steps,
    conservative_completions,
    fresh_id,
    handshake_steps,
    interrupt_steps,
    preemptive_completions,
    rename_id,
    system_steps,
    transition_sort_key,
)
from papc.syntax import Action, TAU, format_term

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
    assert config.ids == {1, 2}


def test_id_set_of_plain_process_is_empty():
    assert parse_process("a.(C|C) + g:P").ids == frozenset()


def test_id_set_merges_duplicates():
    assert parse_process("[a#3].0 + [b#3]:0").ids == {3}


def test_actions_at():
    config = parse_process("[a#1].P + b:Q | [g#2].T")
    assert actions_at(1, config) == {Action("a")}
    assert actions_at(2, config) == {Action("g")}
    assert actions_at(7, config) == frozenset()


def test_rename_id_single_occurrence():
    assert rename_id(parse_process("[a#1].0"), 1, 3) == parse_process("[a#3].0")


def test_rename_id_no_running_prefixes():
    term = parse_process("a.0")
    assert rename_id(term, 5, 6) == term


def test_rename_id_renames_coupled_sides():
    got = rename_id(parse_process("[a#1].0 | [~a#1].0"), 1, 2)
    assert got == parse_process("[a#2].0 | [~a#2].0")
    assert got.ids == {2}


def test_rename_id_collision_rejected():
    with pytest.raises(IdentifierCollision):
        rename_id(parse_process("[a#1].0 | [b#2].0"), 1, 2)


def test_fresh_id():
    assert fresh_id(frozenset()) == 1
    assert fresh_id({1, 2}) == 3
    assert fresh_id({1, 3}) == 2


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
    interrupt_steps(parse_process(wide), interrupt_cap=16)  # 17 components of 1
    deep = " + ".join(f"[a#{i}].0" for i in range(1, 18))
    with pytest.raises(CapExceeded):
        interrupt_steps(parse_process(deep), interrupt_cap=16)


@pytest.mark.parametrize("derive", [preemptive_completions, conservative_completions])
def test_completions_check_the_interrupt_cap_up_front(derive):
    deep = " + ".join(f"[a#{i}].0" for i in range(1, 18))
    with pytest.raises(CapExceeded):
        derive(parse_process(deep), interrupt_cap=16)


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


def test_transition_order_is_deterministic():
    steps = all_steps(S2, DEFS)
    assert list(steps) == sorted(steps, key=transition_sort_key)
    assert all_steps(parse_process(format_term(S2)), DEFS) == steps


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
        assert t.label.idents <= config.ids
        if len(idents) == len(set(idents)):
            assert t.target.ids == config.ids - t.label.idents


@given(strategies.configurations)
def test_handshake_identifiers_are_fresh(config):
    for t in handshake_steps(config, DEFS):
        assert t.label.ident not in config.ids
        assert t.target.ids == config.ids | {t.label.ident}


@given(strategies.summations)
def test_sum_completions_consume_the_whole_summation(config):
    # without parallel siblings a completion survives only as its own
    # continuation, so nothing stays running and nothing demanded survives
    for t in preemptive_completions(config):
        assert t.label.ident in config.ids
        assert t.label.ident not in t.target.ids
        assert not (t.label.demanded & t.target.ids)


@given(strategies.configurations)
def test_conserving_completions_rearm_their_action(config):
    for t in conservative_completions(config):
        restarts = {u.label.action for u in handshake_steps(t.target, DEFS)}
        assert t.label.action in restarts
