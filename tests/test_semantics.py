"""Transition derivation: auxiliary functions and the five relations."""

import collections
import copy
import gc
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import strategies
from gen import random_configuration
from papc import semantics, syntax
from papc.errors import CapExceeded, IdentifierCollision, PapcError, UnguardedRecursion
from papc.lts import Bounds, build
from papc.parsing import parse_definitions, parse_process
from papc.semantics import (
    CompleteConservative,
    CompletePreemptive,
    Handshake,
    Interrupt,
    Transition,
    actions_at,
    all_steps,
    conservative_completions,
    fresh_id,
    handshake_steps,
    interrupt_steps,
    label_text,
    preemptive_completions,
    rename_id,
    system_steps,
    transition_sort_key,
)
from papc.syntax import NIL, Action, FrozenConsume, Par, PrefixConsume, TAU, Term, format_term

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
    interrupt_steps(parse_process(wide))  # 17 components of 1
    deep = " + ".join(f"[a#{i}].0" for i in range(1, 18))
    with pytest.raises(CapExceeded):
        interrupt_steps(parse_process(deep))


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


def test_transition_order_is_deterministic():
    steps = all_steps(S2, DEFS)
    assert list(steps) == sorted(steps, key=transition_sort_key)
    assert all_steps(parse_process(format_term(S2)), DEFS) == steps


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
             format_term(t.target)) for t in all_steps(config, DEFS)]
    assert all(a < b for a, b in zip(keys, keys[1:]))


@given(strategies.configurations, st.data())
def test_known_targets_keep_the_ordered_transitions_into_them(config, data):
    # the steps into other targets are each counted by a None, which trails
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
        assert steps.count(None) == len(full) - len(kept)
        if derive in (handshake_steps, interrupt_steps):
            assert steps == (*kept, *[None] * (len(full) - len(kept)))


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
        assert steps.count(None) == len(texts) - len(kept)


def test_a_start_renamed_on_its_way_up_reaches_a_known_target_through_a_dead_node():
    # the start of sa first builds [sa#1].0 | sb.0, which nothing holds; its
    # renamed target ([sa#2].0 | sb.0) | [sc#1].0 is known all the same
    config = parse_process("(sa.0 | sb.0) | [sc#1].0")
    known = {parse_process("([sa#2].0 | sb.0) | [sc#1].0")}
    gc.collect()
    assert type(FrozenConsume.find(Action("sa"), 1, NIL)) is tuple
    steps = handshake_steps(config, DEFS, None, known)
    assert [str(t) for t in steps if t is not None] == ["H 2 sa+ -> ([sa#2].0 | sb.0) | [sc#1].0"]
    assert steps.count(None) == 1  # the start of sb


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
