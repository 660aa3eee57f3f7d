"""The engine must agree with the naive rule-by-rule transcription."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import strategies
from gen import STANDARD_DEFS, random_configuration
from papc import semantics
from papc.errors import PapcError
from papc.lts import Bounds, build
from papc.parsing import parse_process
from papc.semantics import (
    all_steps,
    conservative_completions,
    handshake_steps,
    interrupt_steps,
    is_system_step,
    preemptive_completions,
    system_steps,
)
from papc.syntax import TAU, format_term

RELATION_PAIRS = (
    ("handshake", handshake_steps, oracle.h_steps),
    ("interrupt", interrupt_steps, oracle.i_steps),
    ("preemptive", preemptive_completions, oracle.cp_steps),
    ("conservative", conservative_completions, oracle.cc_steps),
)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_engine_matches_oracle_on_random_configurations(seed):
    rng = random.Random(seed)
    for i in range(150):
        config = random_configuration(
            rng, depth=5, max_frozen=4, distinct_ids=(i % 3 != 0)
        )
        for name, engine_fn, oracle_fn in RELATION_PAIRS:
            got = oracle.engine_view(engine_fn(config, STANDARD_DEFS))
            want = oracle_fn(config, STANDARD_DEFS)
            assert got == want, f"{name} differs on {format_term(config)}"


def test_engine_matches_oracle_on_the_cell_system():
    for text in (
        "C | A | B",
        "[a#1].(C | C) + g:P | [~a#1].(A | A) | B",
        "[a#1].(C | C) + [g#2]:P | [~a#1].(A | A) | [~g#2]:0",
    ):
        from papc.parsing import parse_process

        config = parse_process(text)
        for name, engine_fn, oracle_fn in RELATION_PAIRS:
            got = oracle.engine_view(engine_fn(config, STANDARD_DEFS))
            want = oracle_fn(config, STANDARD_DEFS)
            assert got == want, f"{name} differs on {text}"


def test_system_filter_matches_oracle_union():
    rng = random.Random(7)
    for _ in range(60):
        config = random_configuration(rng, depth=4, max_frozen=3)
        union = oracle.engine_view(all_steps(config, STANDARD_DEFS))
        per_relation = set()
        for _, engine_fn, _ in RELATION_PAIRS:
            per_relation |= oracle.engine_view(engine_fn(config, STANDARD_DEFS))
        assert union == per_relation
        oracle_union = set()
        for _, _, oracle_fn in RELATION_PAIRS:
            oracle_union |= oracle_fn(config, STANDARD_DEFS)
        # closed-system moves: tau starts (l, tau) and tau completions
        # (l, tau, {}) that demand nothing
        closed = {(label, target) for label, target in oracle_union
                  if isinstance(label, tuple) and label[1] == TAU
                  and (len(label) == 2 or (len(label) == 3 and not label[2]))}
        filtered = oracle.engine_view(system_steps(config, STANDARD_DEFS))
        assert filtered == closed, format_term(config)


def _outcome(derive, config):
    try:
        return derive(config, STANDARD_DEFS)
    except PapcError as exc:
        return type(exc)


def _filtered_all_steps(config, defs):
    return tuple(t for t in all_steps(config, defs) if is_system_step(t))


def _assert_system_steps_are_the_filtered_union(config):
    assert _outcome(system_steps, config) == \
        _outcome(_filtered_all_steps, config), format_term(config)


def test_system_steps_are_the_filtered_union(monkeypatch):
    # a small cap on every fifth term makes both sides raise now and then
    cap = semantics.INTERRUPT_CAP
    rng = random.Random(11)
    for i in range(500):
        config = random_configuration(rng, depth=5, max_frozen=4,
                                      distinct_ids=(i % 3 != 0))
        monkeypatch.setattr(semantics, "INTERRUPT_CAP", 2 if i % 5 == 0 else cap)
        _assert_system_steps_are_the_filtered_union(config)


def test_system_steps_are_the_filtered_union_on_reachable_states():
    # generated terms rarely share an identifier between complementary
    # running prefixes; reachable states of the cell model do, so coupled
    # completions with demands get checked here
    lts = build(parse_process("C | A | B"), STANDARD_DEFS, Bounds(max_states=200))
    for state in lts.states:
        _assert_system_steps_are_the_filtered_union(state)


# all_steps on a sum of ten running prefixes takes about half a second
@settings(deadline=None)
@given(st.one_of(strategies.configurations, strategies.wide_configurations))
def test_system_steps_are_the_filtered_union_on_generated_terms(config):
    _assert_system_steps_are_the_filtered_union(config)


@settings(deadline=None)
@given(strategies.wide_configurations)
def test_engine_matches_oracle_on_identifiers_across_int_digits(config):
    # identifier masks span several int digits here, up to MAX_IDENT; the
    # oracle keeps identifiers in frozensets
    for name, engine_fn, oracle_fn in RELATION_PAIRS:
        got = oracle.engine_view(engine_fn(config, STANDARD_DEFS))
        assert got == oracle_fn(config, STANDARD_DEFS), f"{name} differs on {format_term(config)}"
