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

import gen
import oracle
import strategies
from gen import random_configuration
from papc import syntax
from papc.errors import (
    DuplicateDefinition,
    IllFormedPlacement,
    ParseError,
    TauInPrefix,
)
from papc.parsing import parse_definitions, parse_model, parse_process
from papc.syntax import (
    Action,
    Const,
    Definitions,
    FrozenConserve,
    FrozenConsume,
    NIL,
    Nil,
    Par,
    PrefixConserve,
    PrefixConsume,
    Sum,
    TAU,
    Term,
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
    assert Action("a").partner is Action("a", True)
    assert Action("a", True).partner is Action("a")


def test_complement_is_an_involution():
    assert Action("g").partner.partner is Action("g")


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
    assert a.partner.partner is a
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
    assert (err.value.line, err.value.column) == (2, 3)
    with pytest.raises(ParseError) as err:
        parse_model("C := a.0;\n\nD := [a#0].0;")
    assert (err.value.line, err.value.column) == (3, 9)


# (reader, text, error class, message, line, column) for every place the
# parser raises, as the recursive-descent parser reported them
PARSE_ERRORS = [
    ("process", "2", ParseError, "a bare number other than 0 is not a process: '2'", 1, 1),
    ("process", "a.0 + 07", ParseError, "a bare number other than 0 is not a process: '07'", 1, 7),
    ("process", "a.[]", ParseError, "context hole '[]' is not allowed here", 1, 3),
    ("process", "tau", ParseError, "tau is not a process", 1, 1),
    ("process", "a.0 | tau", ParseError, "tau is not a process", 1, 7),
    ("process", "tau.0", TauInPrefix, "tau cannot be used as a prefix action", 1, 1),
    ("process", "a.~tau:0", TauInPrefix, "tau cannot be used as a prefix action", 1, 4),
    ("process", "[tau#1].0", TauInPrefix, "tau cannot be used as a prefix action", 1, 2),
    ("process", "[a#0].0", ParseError, "running-action identifiers start at 1", 1, 4),
    ("process", "[a#65537].0", ParseError, "running-action identifiers stop at 65536", 1, 4),
    ("process", "a.0 |\n [b#99999999999999999999]:0", ParseError,
     "running-action identifiers stop at 65536", 2, 5),
    ("process", "~a 0", ParseError, "an action must be followed by '.' or ':'", 1, 4),
    ("process", "a.~b", ParseError, "an action must be followed by '.' or ':'", 1, 5),
    ("process", "[a#1] 0", ParseError, "a running prefix must be followed by '.' or ':'", 1, 7),
    ("process", "[a#1]", ParseError, "a running prefix must be followed by '.' or ':'", 1, 6),
    ("process", "[a 1].0", ParseError, "expected '#', found '1'", 1, 4),
    ("process", "[a#].0", ParseError, "expected 'int', found ']'", 1, 4),
    ("process", "[a#1.0", ParseError, "expected ']', found '.'", 1, 5),
    ("process", "~(a.0)", ParseError, "expected 'name', found '('", 1, 2),
    ("process", "(a.0 | b.0", ParseError, "expected ')', found 'end of input'", 1, 11),
    ("process", "((a.0)\n + (b.0 X", ParseError, "expected ')', found 'X'", 2, 9),
    ("process", "a.0)", ParseError, "expected 'eof', found ')'", 1, 4),
    ("process", "(a.0))", ParseError, "expected 'eof', found ')'", 1, 6),
    ("process", "a.0 +", ParseError, "expected a process, found 'end of input'", 1, 6),
    ("process", "a.0 |\n  ", ParseError, "expected a process, found 'end of input'", 2, 3),
    ("process", "a.0 + | b.0", ParseError, "expected a process, found '|'", 1, 7),
    ("process", "a.0 b.0", ParseError, "expected 'eof', found 'b'", 1, 5),
    # columns count tabs and '\r' as one character each; the end of input
    # after a trailing comment is reported at its '#'
    ("process", "a.0 +  # tail", ParseError, "expected a process, found 'end of input'", 1, 8),
    ("process", "a.0 +\t|", ParseError, "expected a process, found '|'", 1, 7),
    ("process", "a.0 |\r\n  +", ParseError, "expected a process, found '+'", 2, 3),
    ("process", "# c\na.0 b.0", ParseError, "expected 'eof', found 'b'", 2, 5),
    ("process", "a.0 | ²", ParseError, "unexpected character '²'", 1, 7),
    ("process", "a.0 | @", ParseError, "unexpected character '@'", 1, 7),
    ("process", "a.b.[c#1].0", ParseError, "a prefix continuation must be a plain process, "
     "but [c#1].0 contains running prefixes", 1, 4),
    ("process", "a:\n  b.[c#1]:0 | d.0", ParseError, "a prefix continuation must be a plain "
     "process, but [c#1]:0 contains running prefixes", 2, 4),
    ("process", "a.([b#1].0 | c.0)", ParseError, "a prefix continuation must be a plain "
     "process, but [b#1].0 | c.0 contains running prefixes", 1, 2),
    ("process", "[a#1].(b.0 + ([c#2].0))", ParseError, "a prefix continuation must be a plain "
     "process, but b.0 + [c#2].0 contains running prefixes", 1, 6),
    ("process", "a.(b.[c#1].0 + d.(\n", ParseError, "a prefix continuation must be a plain "
     "process, but [c#1].0 contains running prefixes", 1, 5),
    ("process", "[] + b.0", ParseError, "context hole '[]' is not allowed here", 1, 1),
    ("model", "X := a.[] + b.0;", ParseError, "context hole '[]' is not allowed here", 1, 8),
    ("model", "X := (a.0;", ParseError, "expected ')', found ';'", 1, 10),
    ("model", "X := a.0 | ;", ParseError, "expected a process, found ';'", 1, 12),
    ("model", "X := a.b.[c#1].0;", ParseError, "a prefix continuation must be a plain "
     "process, but [c#1].0 contains running prefixes", 1, 9),
    ("model", "system := a.0 + ;", ParseError, "expected a process, found ';'", 1, 17),
    ("model", "X := a.0 : = b.0;", ParseError, "unexpected character '='", 1, 12),
]
READERS = {"process": parse_process, "model": parse_model}


@pytest.mark.parametrize("reader, text, error, message, line, column", PARSE_ERRORS)
def test_parse_errors_keep_their_class_message_and_position(reader, text, error, message,
                                                            line, column):
    with pytest.raises(ParseError) as err:
        READERS[reader](text)
    assert type(err.value) is error
    assert str(err.value) == f"{line}:{column}: {message}"
    assert (err.value.line, err.value.column) == (line, column)


def test_an_identifier_longer_than_int_reads_is_a_parse_error():
    # int() refuses literals past 4,300 digits, so the parser compares lengths first
    with pytest.raises(ParseError) as err:
        parse_process(f"[a#{'9' * 5000}].0")
    assert str(err.value) == "1:4: running-action identifiers stop at 65536"


def test_any_depth_parses_at_the_default_recursion_limit():
    depth = 10_000
    assert sys.getrecursionlimit() < depth
    assert parse_process("(" * depth + "a.0 | b.0" + ")" * depth) is Par(
        PrefixConsume(A, NIL), PrefixConsume(B, NIL))
    chain = NIL
    for i in range(depth):
        chain = (PrefixConsume, PrefixConserve)[i % 2](A, chain)
    text = "".join(("a.", "a:")[i % 2] for i in reversed(range(depth))) + "0"
    assert parse_process(text) is chain
    assert parse_model(f"system := ({text});")[1] is chain


# whole units for the layout test below: a running prefix's [action#ident],
# where '#' is no comment, an action or name, or one character
_UNITS = re.compile(r"\[~?\w+#\d+\]|~?\w+|\S")
_LAYOUT = st.lists(st.one_of(
    st.sampled_from([" ", "\t", "\r\n", "\n"]),
    st.text(st.characters(blacklist_characters="\n"), max_size=6).map("#{}\n".format),
), max_size=3).map("".join)


@given(strategies.configurations, st.data())
def test_layout_between_tokens_leaves_the_term_unchanged(term, data):
    units = _UNITS.findall(format_term(term))
    gaps = data.draw(st.lists(_LAYOUT, min_size=len(units), max_size=len(units)))
    tail = data.draw(st.sampled_from(["", "# end", "\n"]))
    assert parse_process("".join(gap + unit for gap, unit in zip(gaps, units)) + tail) is term


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
        text = "0" if type(term) is Nil else term.name
    return f"({text})" if prec < min_prec else text


@contextlib.contextmanager
def recursion_limit(limit):
    # the reference printer recurses once per level
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


# ``tests/oracle.py`` builds the complement by name, as it must not share the
# engine's links; the two must agree on every action the generators draw.
@given(strategies.actions)
def test_complement_involution_property(action):
    assert action.partner.partner is action
    assert Action(action.name, not action.complemented) is action.partner


def test_a_named_action_and_its_complement_link_each_other():
    a = Action("a")
    assert a.partner is Action("a", True) and a.partner.partner is a
    assert Action("a", True).partner is a
    assert TAU.partner is None
    for action in (a, a.partner, TAU):
        assert copy.deepcopy(action) is action and copy.copy(action) is action
        assert pickle.loads(pickle.dumps(action)) is action
        assert pickle.loads(pickle.dumps(action)).partner is action.partner


def test_the_link_is_no_dataclass_field():
    # a ``partner`` field would recurse through the pair in ``repr``
    assert [f.name for f in dataclasses.fields(Action)] == ["name", "complemented"]
    assert repr(Action("a")) == "Action(name='a', complemented=False)"
    assert repr(Action("a", True)) == "Action(name='a', complemented=True)"
    assert repr(TAU) == "Action(name=None, complemented=False)"


def test_a_new_name_enters_the_linked_pair_and_a_failed_one_enters_nothing():
    name = "linked_pair"  # no other test builds on it
    gc.collect()
    gc.disable()  # no collection may drop a table entry between the snapshots
    try:
        table, made = dict(syntax._TABLE), syntax._made
        for args in (("tau",), ("tau", True), (None, True)):
            with pytest.raises(ValueError):
                Action(*args)
            assert syntax._TABLE == table and syntax._made == made
        assert Action.find(name, False) == (Action, name, False)
        action = Action(name, True)
        assert syntax._made == made + 2 and len(syntax._TABLE) == len(table) + 2
        assert Action.find(name, False) is action.partner and not action.partner.complemented
    finally:
        gc.enable()
    del action
    gc.collect()  # the pair is a reference cycle: the collector frees both
    assert Action.find(name, False) == (Action, name, False)
    assert Action.find(name, True) == (Action, name, True)


def test_complement_is_the_partner_on_every_generated_action():
    rng = random.Random(29)
    drawn = [gen.random_action(rng) for _ in range(200)]
    assert {(a.name, a.complemented) for a in drawn} == {
        (name, polarity) for name in gen.ACTION_NAMES for polarity in (False, True)}
    for action in drawn:
        assert Action(action.name, not action.complemented) is action.partner


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


@given(st.one_of(strategies.configurations, strategies.wide_configurations,
                 strategies.pure_terms))
def test_traversal_agrees_with_independent_views(config):
    walked = list(subterms(config))
    assert [id(t) for t in walked] == [id(t) for t in _fields_preorder(config)]
    text = format_term(config)
    assert config.n_frozen == text.count("#")
    assert config.mask == sum(1 << i for i in oracle.ids(config))
    assert is_process(config) == oracle.is_plain(config)
    # strategy constants are capitalized, action names are not
    assert sorted(constants_of(config)) == sorted(re.findall(r"[A-Z]", text))


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
    for term in (config, Sum(config, NIL), Par(NIL, config)):
        nodes = list(subterms(term))
        assert term.n_frozen == sum(isinstance(t, (FrozenConsume, FrozenConserve))
                                    for t in nodes)


@given(strategies.actions, strategies.idents, strategies.pure_terms, terms)
def test_constructors_return_the_requested_node(action, ident, cont, other):
    built = []  # kept alive, so that every node below is in the table at once
    for a in (action, action.partner):
        for cls, args in ((PrefixConsume, (a, cont)), (PrefixConserve, (a, cont)),
                          (FrozenConsume, (a, ident, cont)),
                          (FrozenConserve, (a, ident + 1, cont)),
                          (Sum, (cont, other)), (Par, (cont, other)), (Const, (a.name,))):
            node = cls(*args)
            built.append(node)
            assert type(node) is cls
            assert tuple(getattr(node, f.name) for f in dataclasses.fields(node)) == args
    assert len({format_term(n) for n in built}) == len(set(map(id, built)))


@given(strategies.actions, strategies.idents, strategies.pure_terms, terms)
def test_the_bound_constructor_returns_the_class_calls_value(action, ident, cont, other):
    # make is __new__ bound to the class: the same interned object as the
    # class call, one count when it builds, none on a hit, and find unchanged
    for cls, args in ((PrefixConsume, (action, cont)), (PrefixConserve, (action, cont)),
                      (FrozenConsume, (action, ident, cont)),
                      (FrozenConserve, (action, ident, cont)),
                      (Sum, (cont, other)), (Par, (other, cont)), (Const, (action.name,)),
                      (Action, (action.name, action.complemented)), (Nil, ())):
        found = cls.find(*args)
        made = syntax._made
        value = cls.make(*args)
        assert type(value) is cls and value is cls(*args) is cls.make(*args)
        assert found is value or found == (cls, *args) and syntax._made == made + 1
        assert cls.find(*args) is value
    assert Action.make(action.name) is Action(action.name) is Action.make(action.name, False)


_RUNNING = FrozenConsume(B, 1, NIL)  # no prefix may hold it


@given(st.sampled_from([
    (PrefixConsume, lambda name: (TAU, NIL)),  # a tau prefix
    (PrefixConserve, lambda name: (A, _RUNNING)),  # a running prefix under a prefix
    (FrozenConsume, lambda name: (A, 0, NIL)),  # identifier 0
    (FrozenConserve, lambda name: (A, 0, NIL)),
    (Const, lambda name: (name,)),  # a name that does not lex
    (Action, lambda name: (name, False)),
    (Action, lambda name: (None, True)),  # a complemented tau
]), st.sampled_from(["tau", "", "x y", "1x", "a.b", "~a", "a#1"]))
def test_a_failed_construction_raises_alike_and_enters_nothing(construction, name):
    cls, fields = construction
    args = fields(name)
    errors = []
    gc.collect()
    gc.disable()  # no collection may drop a table entry between the snapshots
    try:
        table, made = dict(syntax._TABLE), syntax._made
        for build in (cls, cls.make):
            with pytest.raises((IllFormedPlacement, TauInPrefix, ValueError)) as info:
                build(*args)
            errors.append((type(info.value), str(info.value)))
            assert syntax._TABLE == table and syntax._made == made
    finally:
        gc.enable()
    assert errors[0] == errors[1]
    assert cls.find(*args) == (cls, *args)


@given(terms | st.just(NIL), terms | st.just(NIL), st.sampled_from((Sum, Par)))
def test_a_binary_node_is_counted_once_and_entered_while_it_lives(left, right, node):
    # Sum and Par build in their own __new__; it must keep the interning
    # protocol: one count per new value (the memo guard reads it), none on a
    # hit, a table entry that goes with the value, and find's stand-in rule
    stand_in = (node, left, right)
    new = node.find(left, right) == stand_in  # else some other test holds it
    made = syntax._made
    value = node(left, right)
    assert syntax._made == made + new
    assert node(left, right) is value and syntax._made == made + new
    assert node.find(left, right) is value and syntax._TABLE[stand_in]() is value
    assert copy.copy(value) is value and pickle.loads(pickle.dumps(value)) is value
    running = [t for t in subterms(value) if isinstance(t, (FrozenConsume, FrozenConserve))]
    assert value.mask == sum(1 << i for i in {t.ident for t in running})
    assert value.n_frozen == len(running)
    if new:
        del value
        assert stand_in not in syntax._TABLE
        assert node.find(left, right) == stand_in and syntax._made == made + 1


def test_ill_formed_constructions_raise_every_time():
    raised = []  # each failure's traceback stays alive through the next attempt
    for _ in range(2):
        for build, error in ((lambda: PrefixConsume(A, FrozenConsume(B, 1, NIL)),
                              IllFormedPlacement),
                             (lambda: PrefixConserve(TAU, NIL), TauInPrefix),
                             (lambda: FrozenConsume(A, 0, NIL), ValueError),
                             (lambda: FrozenConserve(A, syntax.MAX_IDENT + 1, NIL), ValueError),
                             (lambda: Action(None, True), ValueError)):
            with pytest.raises(error) as info:
                build()
            raised.append(info)
    assert len(raised) == 10


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
    assert set(defs.bindings) == {"C", "A", "B"}
    assert defs.bindings["B"] == PrefixConserve(Action("g", True), NIL)


def test_parse_definitions_empty():
    assert parse_definitions("").bindings == {}


def test_an_unbound_constant_has_no_binding():
    defs = parse_definitions("C := a.C;")
    assert defs.bindings.get("P") is None


def test_duplicate_definition_rejected():
    with pytest.raises(DuplicateDefinition):
        parse_definitions("X := a.X; X := b.X;")


def test_definition_bodies_must_be_plain():
    with pytest.raises(ParseError):
        parse_definitions("X := [a#1].0;")


@pytest.mark.parametrize("body", ["[b#1].0"])
def test_definitions_refuse_a_body_that_is_not_a_plain_process(body):
    # completions never unfold a constant: with X := [b#1].0, X | X derived
    # no completion of the running b, yet validate found nothing wrong
    with pytest.raises(ValueError, match="not a plain process"):
        Definitions({"X": parse_process(body)})


def test_definitions_check_bodies_without_walking_them(monkeypatch):
    # a body's running prefixes are its cached mask, so the check reads that
    # and walks no body
    def no_walk(*args, **kwargs):
        raise AssertionError("Definitions walked a body")

    monkeypatch.setattr(syntax, "subterms", no_walk)
    body = parse_process("a.(b.0 | c:(C + ~d.0)) + (e.0 | f.0)")
    assert Definitions({"X": body}).bindings["X"] is body
    with pytest.raises(ValueError, match="not a plain process"):
        Definitions({"X": parse_process("[b#1].0")})


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
    assert set(defs.bindings) == {"C"}
    assert root == Par(Const("C"), Const("C"))


def test_parse_model_allows_frozen_root():
    _, root = parse_model("system := [a#1].0;")
    assert root == FrozenConsume(A, 1, NIL)


def test_parse_model_duplicate_system_rejected():
    with pytest.raises(DuplicateDefinition):
        parse_model("system := 0; system := 0;")
