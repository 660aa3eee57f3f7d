"""Parser, printer, action algebra, term traversal and model validation."""

import dataclasses
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
import strategies
from papc.errors import (
    ComplementOfTau,
    DuplicateDefinition,
    IllFormedPlacement,
    ParseError,
    TauInPrefix,
    UnboundConstant,
)
from papc.parsing import parse_context, parse_definitions, parse_model, parse_process
from papc.syntax import (
    Action,
    Const,
    FrozenConserve,
    FrozenConsume,
    NIL,
    Par,
    PrefixConserve,
    PrefixConsume,
    Sum,
    TAU,
    Term,
    action_names_of,
    complement,
    constants_of,
    format_term,
    frozen_prefix_count,
    is_process,
    subterms,
    validate,
)

A = Action("a")
B = Action("b")
G = Action("g")


# ---------------------------------------------------------------------------
# actions


def test_complement_flips_polarity():
    assert complement(Action("a")) == Action("a", True)
    assert complement(Action("a", True)) == Action("a")


def test_complement_is_an_involution():
    assert complement(complement(Action("g"))) == Action("g")


def test_tau_has_no_complement():
    with pytest.raises(ComplementOfTau):
        complement(TAU)


def test_tau_carries_no_polarity():
    with pytest.raises(ValueError):
        Action(None, True)


# ---------------------------------------------------------------------------
# parsing


def test_parse_nil():
    assert parse_process("0") == NIL


def test_parse_cell_body():
    got = parse_process("a.(C | C) + g:P")
    want = Sum(
        PrefixConsume(A, Par(Const("C"), Const("C"))),
        PrefixConserve(G, Const("P")),
    )
    assert got == want


def test_parse_frozen_configuration():
    got = parse_process("[a#1].(C|C) + g:P")
    want = Sum(
        FrozenConsume(A, 1, Par(Const("C"), Const("C"))),
        PrefixConserve(G, Const("P")),
    )
    assert got == want


def test_binary_operators_nest_to_the_right():
    assert parse_process("a.0 + b.0 + g.0") == Sum(
        PrefixConsume(A, NIL), Sum(PrefixConsume(B, NIL), PrefixConsume(G, NIL))
    )
    assert parse_process("C | A | B") == Par(Const("C"), Par(Const("A"), Const("B")))


def test_sum_binds_tighter_than_par():
    got = parse_process("a.0 + b.0 | g.0")
    assert isinstance(got, Par)
    assert isinstance(got.left, Sum)


def test_prefix_binds_tightest():
    got = parse_process("a.b.0 + g:0")
    assert got == Sum(
        PrefixConsume(A, PrefixConsume(B, NIL)),
        PrefixConserve(G, NIL),
    )


def test_complemented_actions_and_brackets():
    got = parse_process("[~g#2]:0")
    assert got == FrozenConserve(Action("g", True), 2, NIL)


def test_comments_and_whitespace_are_insignificant():
    text = """
    # leading comment
    a.( C | C )   # trailing comment
      + g:P
    """
    assert parse_process(text) == parse_process("a.(C|C)+g:P")


def test_hash_inside_brackets_is_not_a_comment():
    got = parse_process("[a#3].0  # but this is")
    assert got == FrozenConsume(A, 3, NIL)


def test_tau_rejected_as_prefix():
    with pytest.raises(TauInPrefix):
        parse_process("tau.0")
    with pytest.raises(TauInPrefix):
        parse_process("[tau#1].0")


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_process("a.0 +\n  )")
    assert err.value.line == 2


@pytest.mark.parametrize("bad", ["", "5", "~a", "[a#0].0", "(a.0", "a..0", "[]", "tau"])
def test_rejected_inputs(bad):
    with pytest.raises(ParseError):
        parse_process(bad)


def test_bare_constant_parses():
    assert parse_process("SomeName") == Const("SomeName")


# ---------------------------------------------------------------------------
# printing


def test_format_nil():
    assert format_term(NIL) == "0"


def test_format_frozen_conserve():
    assert format_term(FrozenConserve(G, 2, Const("P"))) == "[g#2]:P"


def test_format_parenthesizes_left_nesting():
    term = Sum(Sum(PrefixConsume(A, NIL), PrefixConsume(B, NIL)), PrefixConsume(G, NIL))
    assert format_term(term) == "(a.0 + b.0) + g.0"
    assert parse_process(format_term(term)) == term


def test_format_prefix_continuation_parentheses():
    term = PrefixConsume(A, Sum(Const("C"), Const("D")))
    assert format_term(term) == "a.(C + D)"
    assert parse_process(format_term(term)) == term


@given(strategies.configurations)
def test_print_parse_round_trip(term):
    assert parse_process(format_term(term)) == term


@given(strategies.actions)
def test_complement_involution_property(action):
    assert complement(complement(action)) == action


# ---------------------------------------------------------------------------
# terms


def test_every_process_is_a_configuration():
    assert is_process(parse_process("a.(C|C) + g:P"))
    assert not is_process(parse_process("[a#1].0"))


def _fields_preorder(term):
    # reference pre-order over the dataclass fields, independent of children()
    nodes = [term]
    for field in dataclasses.fields(term):
        value = getattr(term, field.name)
        if isinstance(value, Term):
            nodes.extend(_fields_preorder(value))
    return nodes


@given(st.one_of(strategies.configurations, strategies.pure_terms))
def test_traversal_agrees_with_independent_views(config):
    walked = list(subterms(config))
    assert [id(t) for t in walked] == [id(t) for t in _fields_preorder(config)]
    for node in walked:
        assert node.rebuild(node.children()) == node
    text = format_term(config)
    assert frozen_prefix_count(config) == text.count("#")
    assert config.ids == oracle.ids(config)
    assert is_process(config) == oracle.is_plain(config)
    # strategy constants are capitalized, action names are not
    assert sorted(constants_of(config)) == sorted(re.findall(r"[A-Z]", text))
    assert action_names_of(config) == set(re.findall(r"[a-z]\w*(?=[.:#])", text))


def test_frozen_prefix_rejected_under_prefix():
    frozen = FrozenConsume(A, 1, NIL)
    with pytest.raises(IllFormedPlacement):
        PrefixConsume(B, frozen)
    with pytest.raises(ParseError):
        parse_process("b.[a#1].0")


# ---------------------------------------------------------------------------
# definitions and validation


def test_parse_definitions_bindings():
    defs = parse_definitions("C := a.(C|C) + g:P; A := ~a.(A|A); B := ~g:0;")
    assert set(defs.names()) == {"C", "A", "B"}
    assert defs.body("B") == PrefixConserve(Action("g", True), NIL)


def test_parse_definitions_empty():
    assert parse_definitions("").names() == ()


def test_unbound_lookup_raises():
    defs = parse_definitions("C := a.C;")
    assert defs.get("P") is None
    with pytest.raises(UnboundConstant):
        defs.body("P")


def test_duplicate_definition_rejected():
    with pytest.raises(DuplicateDefinition):
        parse_definitions("X := a.X; X := b.X;")


def test_definition_bodies_must_be_plain():
    with pytest.raises(ParseError):
        parse_definitions("X := [a#1].0;")


def test_validate_reports_unbound_as_warning():
    defs = parse_definitions("C := a.(C|C) + g:P; A := ~a.(A|A); B := ~g:0;")
    report = validate(defs)
    assert report.ok
    assert report.unbound == ("P",)
    assert report.warnings and not report.errors


def test_validate_guarded_self_reference_ok():
    report = validate(parse_definitions("X := a.X;"))
    assert report.ok and not report.unbound


def test_validate_flags_unguarded_cycle():
    report = validate(parse_definitions("X := X + a.0;"))
    assert not report.ok
    assert ("X", "X") in report.unguarded


def test_validate_allows_plain_aliases():
    defs = parse_definitions("C := a.C; S := C | C;")
    assert validate(defs).ok


def test_validate_flags_mutual_unguarded_cycle():
    report = validate(parse_definitions("X := Y + a.0; Y := X;"))
    assert not report.ok
    assert ("X", "Y") in report.unguarded and ("Y", "X") in report.unguarded


def test_validate_checks_roots():
    defs = parse_definitions("C := a.C;")
    report = validate(defs, [parse_process("C | Q")])
    assert report.unbound == ("Q",)


# ---------------------------------------------------------------------------
# model files


def test_parse_model_extracts_system():
    defs, root = parse_model("C := a.C; system := C | C;")
    assert set(defs.names()) == {"C"}
    assert root == Par(Const("C"), Const("C"))


def test_parse_model_allows_frozen_root():
    _, root = parse_model("system := [a#1].0;")
    assert root == FrozenConsume(A, 1, NIL)


def test_parse_model_duplicate_system_rejected():
    with pytest.raises(DuplicateDefinition):
        parse_model("system := 0; system := 0;")


def test_parse_context_examples():
    ctx = parse_context("[] + b.0")
    assert isinstance(ctx, Sum)
    with pytest.raises(ParseError):
        parse_context("a.0 + b.0")  # no hole
    with pytest.raises(ParseError):
        parse_context("[] + []")  # two holes
