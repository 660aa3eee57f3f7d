"""Parser, printer, action algebra, term traversal and model validation."""

import contextlib
import copy
import dataclasses
import gc
import pickle
import random
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
import strategies
from gen import random_configuration
from papc import syntax
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
    Definitions,
    FrozenConserve,
    FrozenConsume,
    HOLE,
    Hole,
    NIL,
    Nil,
    Par,
    PrefixConserve,
    PrefixConsume,
    Sum,
    TAU,
    Term,
    action_names_of,
    check_context,
    complement,
    constants_of,
    format_term,
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


@pytest.mark.parametrize("name", ["tau", "", "x y", "1x", "a.b", "~a", "a#1", " a", "²a"])
def test_names_that_would_not_print_back_are_rejected(name):
    for build in (Action, Const, lambda n: Action(n, True)):
        with pytest.raises(ValueError):
            build(name)


@given(st.one_of(st.text(max_size=4), st.from_regex(r"\w+", fullmatch=True)))
def test_accepted_names_print_and_parse_back(name):
    try:
        terms = (Const(name), PrefixConsume(Action(name), NIL),
                 PrefixConserve(Action(name, True), NIL))
    except ValueError:
        return
    for term in terms:
        assert parse_process(format_term(term)) is term


def test_actions_are_interned():
    a = Action("a")
    assert Action("a", False) is a and Action("a", True) is not a
    assert complement(complement(a)) is a
    assert copy.deepcopy(a) is a
    assert pickle.loads(pickle.dumps(a)) is a and pickle.loads(pickle.dumps(TAU)) is TAU
    assert Action.__eq__ is object.__eq__ and Action.__hash__ is object.__hash__


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


@pytest.mark.parametrize("bad", ["", "5", "~a", "[a#0].0", "(a.0", "a..0", "[]", "tau",
                                 "[a#²].0", "[a#١].0"])
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
    assert format_term(term) == reference_text(term)
    assert parse_process(format_term(term)) == term


# A recursive printer with one rule per node, kept as the reference for the
# chain printer: both binary operators associate to the right, so a left
# operand binding no tighter than its parent is parenthesised, a right one
# only when it binds looser; prefix continuations bind tightest.
_PREC = {Par: 1, Sum: 2}
_OP = {Par: " | ", Sum: " + "}


def _action_text(action):
    return ("~" if action.complemented else "") + action.name


def reference_text(term, min_prec=0):
    prec = _PREC.get(type(term), 3)
    if type(term) in _OP:
        text = (reference_text(term.left, prec + 1) + _OP[type(term)]
                + reference_text(term.right, prec))
    elif isinstance(term, (PrefixConsume, PrefixConserve)):
        sep = "." if isinstance(term, PrefixConsume) else ":"
        text = _action_text(term.action) + sep + reference_text(term.cont, 3)
    elif isinstance(term, (FrozenConsume, FrozenConserve)):
        sep = "." if isinstance(term, FrozenConsume) else ":"
        text = f"[{_action_text(term.action)}#{term.ident}]{sep}" + reference_text(term.cont, 3)
    else:
        text = {Nil: "0", Hole: "[]"}.get(type(term)) or term.name
    return f"({text})" if prec < min_prec else text


@contextlib.contextmanager
def recursion_limit(limit):
    # the reference printer and the prefix parser recurse once per level
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def _component(i):
    # prefixes, running prefixes, sums and a parenthesised parallel in turn
    return [PrefixConsume(A, NIL), FrozenConserve(B, i + 1, Const("C")),
            Sum(PrefixConserve(G, NIL), Const("D")), Par(PrefixConsume(B, NIL), Const("E")),
            Sum(Sum(Const("C"), Const("D")), PrefixConsume(A, Par(NIL, NIL)))][i % 5]


def _right_fold(node, operands):
    term = operands[-1]
    for operand in reversed(operands[:-1]):
        term = node(operand, term)
    return term


def _prefix_chain(length, tail):
    term = tail
    for i in range(length):
        term = (PrefixConsume, PrefixConserve)[i % 2](A if i % 3 else B, term)
    return FrozenConsume(G, 1, term)


WIDE_TERMS = {
    "wide par": lambda: _right_fold(Par, [_component(i) for i in range(1000)]),
    "sum chain": lambda: _right_fold(Sum, [_component(i) for i in range(60)]),
    "par of sum chains": lambda: _right_fold(Par, [
        _right_fold(Sum, [_component(i + j) for j in range(5)]) for i in range(40)]),
    "left-nested operands": lambda: _right_fold(Par, [
        _right_fold(Par, [_component(i), _component(i + 1), _component(i + 2)])
        for i in range(50)] + [_right_fold(Sum, [Sum(Const("C"), Const("D"))] * 3)]),
    "prefix chain": lambda: _prefix_chain(3000, Sum(Const("C"), Par(NIL, Const("D")))),
}


@pytest.mark.parametrize("name", WIDE_TERMS)
def test_chains_print_as_the_reference_and_reparse(name):
    term = WIDE_TERMS[name]()
    printed = format_term(term)  # iterative: within the default limit
    with recursion_limit(10_000):
        assert printed == reference_text(term)
        assert parse_process(printed) is term


@pytest.mark.parametrize("name", WIDE_TERMS)
def test_chains_printed_after_their_parts_print_the_same(name):
    # a chain whose inner nodes already hold text stops there and uses it
    term = WIDE_TERMS[name]()
    nodes = list(subterms(term))
    for node in random.Random(name).sample(nodes, 20):
        format_term(node)
    printed = format_term(term)
    with recursion_limit(10_000):
        assert printed == reference_text(term)


def test_a_printed_prefix_chain_holds_text_in_proportion_to_its_length():
    chain = _prefix_chain(3000, PrefixConsume(Action("held"), NIL))
    printed = format_term(chain)
    held = sum(len(node._text) for node in subterms(chain) if node._text is not None)
    assert held <= 2 * len(printed)


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
    assert config.n_frozen == text.count("#")
    assert config.ids == oracle.ids(config)
    assert is_process(config) == oracle.is_plain(config)
    # strategy constants are capitalized, action names are not
    assert sorted(constants_of(config)) == sorted(re.findall(r"[A-Z]", text))
    assert action_names_of(config) == set(re.findall(r"[a-z]\w*(?=[.:#])", text))


# ---------------------------------------------------------------------------
# interning

terms = st.one_of(strategies.configurations, strategies.pure_terms)


@given(terms, terms)
def test_equal_terms_are_one_interned_object(config, other):
    assert parse_process(format_term(config)) is config
    assert copy.deepcopy(config) is config
    assert (config == other) == (config is other) == (format_term(config) == format_term(other))


@given(terms)
def test_cached_counts_agree_with_the_walk(config):
    for term in (config, Sum(config, HOLE), Par(HOLE, config)):
        nodes = list(subterms(term))
        assert term.n_frozen == sum(isinstance(t, (FrozenConsume, FrozenConserve))
                                    for t in nodes)


@given(terms, st.lists(st.tuples(st.sampled_from((Sum, Par)), st.booleans()), max_size=2))
def test_hole_checks_agree_with_the_walk(config, wraps):
    term = config
    for node, hole_first in wraps:  # each wrap adds one hole
        term = node(HOLE, term) if hole_first else node(term, HOLE)
    holes = sum(isinstance(t, Hole) for t in subterms(term))
    running = any(isinstance(t, (FrozenConsume, FrozenConserve)) for t in subterms(term))
    assert holes == len(wraps)
    try:
        check_context(term)
        is_context = True
    except ParseError:
        is_context = False
    assert is_context == (holes == 1 and not running)
    assert is_process(term) == (holes == 0 and not running)


@given(strategies.actions, strategies.idents, strategies.pure_terms, terms)
def test_constructors_return_the_requested_node(action, ident, cont, other):
    built = []  # kept alive, so that every node below is in the table at once
    for a in (action, complement(action)):
        for cls, args in ((PrefixConsume, (a, cont)), (PrefixConserve, (a, cont)),
                          (FrozenConsume, (a, ident, cont)),
                          (FrozenConserve, (a, ident + 1, cont)),
                          (Sum, (cont, other)), (Par, (cont, other)), (Const, (a.name,))):
            node = cls(*args)
            built.append(node)
            assert type(node) is cls
            assert tuple(getattr(node, f.name) for f in dataclasses.fields(node)) == args
    assert len({format_term(n) for n in built}) == len(set(map(id, built)))


def test_ill_formed_constructions_raise_every_time():
    raised = []  # each failure's traceback stays alive through the next attempt
    for _ in range(2):
        for build, error in ((lambda: PrefixConsume(A, FrozenConsume(B, 1, NIL)),
                              IllFormedPlacement),
                             (lambda: PrefixConserve(TAU, NIL), TauInPrefix),
                             (lambda: FrozenConsume(A, 0, NIL), ValueError),
                             (lambda: Action(None, True), ValueError)):
            with pytest.raises(error) as info:
                build()
            raised.append(info)
    assert len(raised) == 8


def test_the_intern_table_keeps_no_term_alive():
    gc.collect()
    before = len(syntax._TABLE)
    rng = random.Random(6)
    generated = [random_configuration(rng) for _ in range(10_000)]
    assert len(syntax._TABLE) > before
    del generated
    gc.collect()
    assert len(syntax._TABLE) == before


def test_dropping_a_deep_term_empties_the_intern_table(capfd):
    # keys hold their fields, so each entry goes only with its node; an
    # error in a removal callback would be printed, not raised
    leaf = PrefixConsume(Action("deep"), NIL)  # no other test builds on it
    gc.collect()
    before = len(syntax._TABLE)
    for wrap in (lambda t: PrefixConsume(leaf.action, t), lambda t: Par(leaf, t)):
        term = leaf
        for _ in range(100_000):
            term = wrap(term)
        assert len(syntax._TABLE) == before + 100_000
        del term
        gc.collect()
        assert len(syntax._TABLE) == before
    assert capfd.readouterr().err == ""


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


@pytest.mark.parametrize("name", ["x y", "tau"])
def test_definitions_refuse_a_name_no_constant_can_reference(name):
    # such a binding could never be unfolded, yet validate found nothing wrong
    with pytest.raises(ValueError, match="is not a name"):
        Definitions({name: NIL})


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
