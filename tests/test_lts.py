"""Bounded state-space construction and exports."""

import collections
import gc
import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import STANDARD_DEFS, random_configuration, random_process
from papc import semantics, syntax
from papc.cli import load_model
from papc.lts import Bounds, build, export
from papc.parsing import parse_definitions, parse_process
from papc.semantics import all_steps, label_text, system_steps, transition_sort_key
from papc.syntax import format_term

DEFS = parse_definitions("C := a.(C | C) + g:P; A := ~a.(A | A); B := ~g:0;")
EMPTY = parse_definitions("")


def edge_set(lts):
    return {(format_term(lts.states[s]), label_text(label), format_term(lts.states[d]))
            for s, label, _, d in lts.edges}


def test_inert_root_builds_a_single_state():
    lts = build(parse_process("0"), EMPTY, Bounds(step_mode="system"))
    assert len(lts.states) == 1
    assert lts.edges == ()
    assert not lts.truncated


def test_single_prefix_state_space():
    # start, run, complete: three states plus rollback and idle self-loops
    lts = build(parse_process("a.0"), EMPTY, Bounds())
    relations = collections.Counter(relation for _, _, relation, _ in lts.edges)
    # one idle loop per state plus the rollback
    assert relations == {"H": 1, "I": 4, "CP": 1}
    assert [format_term(c) for c in lts.states] == ["a.0", "[a#1].0", "0"]


def test_handshake_pair_round_trip_paths():
    root = parse_process("a.0 | ~a.0")
    lts = build(root, EMPTY, Bounds())
    assert not lts.truncated
    edges = edge_set(lts)
    # coupled start, coupled completion, and the paired rollback
    assert ("a.0 | ~a.0", "H 1 tau+", "[a#1].0 | [~a#1].0") in edges
    assert ("[a#1].0 | [~a#1].0", "CP 1 tau- {}", "0 | 0") in edges
    assert ("[a#1].0 | [~a#1].0", "I {1}", "a.0 | ~a.0") in edges
    # solo starts and their renamed interleavings widen the open-system space
    assert len(lts.states) == 15


def test_handshake_pair_observable_path_is_start_then_complete():
    lts = build(parse_process("a.0 | ~a.0"), EMPTY, Bounds(step_mode="system"))
    assert [format_term(s) for s in lts.states] == [
        "a.0 | ~a.0", "[a#1].0 | [~a#1].0", "0 | 0"
    ]
    assert edge_set(lts) == {
        ("a.0 | ~a.0", "H 1 tau+", "[a#1].0 | [~a#1].0"),
        ("[a#1].0 | [~a#1].0", "CP 1 tau- {}", "0 | 0"),
    }


def test_cell_system_contains_both_scenarios():
    lts = build(parse_process("C | A | B"), DEFS,
                Bounds(max_states=500, max_depth=3, step_mode="system"))
    edges = edge_set(lts)
    s1 = "[a#1].(C | C) + g:P | [~a#1].(A | A) | B"
    s2 = "[a#1].(C | C) + [g#2]:P | [~a#1].(A | A) | [~g#2]:0"
    assert ("C | A | B", "H 1 tau+", s1) in edges
    assert (s1, "H 2 tau+", s2) in edges
    assert (s2, "CP 1 tau- {}", "(C | C) | (A | A) | ~g:0") in edges
    assert (s2, "CP 2 tau- {}",
            "(([a#1].(C | C) + g:P | [~a#1].(A | A) | ~g:0) | P) | 0") in edges


def test_truncation_at_the_state_budget():
    lts = build(parse_process("C | A | B"), DEFS, Bounds(max_states=1, max_depth=3,
                                                         step_mode="system"))
    assert lts.truncated == {0}


def test_expanded_states_carry_their_full_step_sets():
    lts = build(parse_process("a.0 | ~a.0"), EMPTY, Bounds())
    by_source = {}
    for src, label, _, dst in lts.edges:
        by_source.setdefault(src, set()).add((label_text(label),
                                              format_term(lts.states[dst])))
    for i, state in enumerate(lts.states):
        if i in lts.truncated:
            continue
        want = {(label_text(t.label), format_term(t.target))
                for t in all_steps(state, EMPTY)}
        assert by_source.get(i, set()) == want


def test_exports_are_deterministic():
    def snapshot():
        lts = build(parse_process("C | A | B"), DEFS,
                    Bounds(max_states=60, max_depth=4))
        return export(lts, "aut"), export(lts, "json")

    first, second = snapshot(), snapshot()
    assert first == second


# sha256 of the system-mode exports of `C | A | B` at max_states=300
GOLDEN_SYSTEM_DIGESTS = {
    "aut": "2693a2a27a72f9b688cc13f651f655e10475fe1bd614e8d2d513ec1df601cdd7",
    "json": "9c4979f4822846d7238067d644f7969b3a2eae7da5ea5132be741c37ac6b0cc1",
}


def test_system_mode_exports_match_the_golden_digests():
    lts = build(parse_process("C | A | B"), DEFS,
                Bounds(max_states=300, step_mode="system"))
    assert (len(lts.states), len(lts.edges)) == (300, 621)
    for fmt, digest in GOLDEN_SYSTEM_DIGESTS.items():
        assert hashlib.sha256(export(lts, fmt)).hexdigest() == digest


# sha256 of the all-mode exports of `C | A | B` at max_states=300
GOLDEN_ALL_DIGESTS = {
    "aut": "3bca262f000fedd7bcf70c731de23b6f2424a328582224eabff0ba2ffdf7935d",
    "json": "5e8944efb0af59e18aeac040d65811f0e6bb2544185183ed6e7238bdd001f001",
}


def test_all_mode_exports_match_the_golden_digests():
    lts = build(parse_process("C | A | B"), DEFS, Bounds(max_states=300))
    assert (len(lts.states), len(lts.edges), len(lts.truncated)) == (300, 2181, 197)
    for fmt, digest in GOLDEN_ALL_DIGESTS.items():
        assert hashlib.sha256(export(lts, fmt)).hexdigest() == digest


# sha256 of the exports of `papc lts models/cell_protein.papc --max-states 5000`,
# and the states truncated: most states are expanded past the state bound
CELL_MODEL = Path(__file__).resolve().parent.parent / "models" / "cell_protein.papc"
CELL_MODEL_5000 = {
    "all": (3799, {
        "aut": "246cd22dfbbae3c34b9f746e11d1c2633b8c9c705e469e6ef8c2eb24ba4bfee3",
        "json": "7cc54ccf2cc10fe9ff26244e8d02440af92028973bc5628c9ef27cb4dc0c55b3",
    }),
    "system": (4029, {
        "aut": "538ab3ec3eea12f8fff2c8eb5b09b1c199661ab58930f2ba8ec6c8584e3e35f1",
        "json": "73375155ecc2d6b47e6d7f1db8538a75b9210b7d271a9576ddccd8ca803d486a",
    }),
}


@pytest.mark.parametrize("mode", ["all", "system"])
def test_the_cell_model_past_its_state_bound_matches_the_golden_digests(mode):
    model = load_model(str(CELL_MODEL))
    lts = build(model.root, model.definitions, Bounds(max_states=5000, step_mode=mode))
    truncated, digests = CELL_MODEL_5000[mode]
    assert (len(lts.states), len(lts.truncated)) == (5000, truncated)
    for fmt, digest in digests.items():
        assert hashlib.sha256(export(lts, fmt)).hexdigest() == digest


class _CountingTable(dict):
    """The term table, counting its lookups and those of a node with a
    stand-in (a plain tuple) among its fields."""

    def __init__(self, entries):
        super().__init__(entries)
        self.lookups = self.stand_in_lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        self.stand_in_lookups += any(type(field) is tuple for field in key)
        return super().get(key, default)


class _CountingKnown(set):
    def __init__(self, items):
        super().__init__(items)
        self.stand_in_tests = 0

    def __contains__(self, item):
        self.stand_in_tests += type(item) is tuple
        return super().__contains__(item)


@pytest.mark.parametrize("mode", ["all", "system"])
def test_a_build_past_its_bound_looks_up_no_node_with_a_stand_in_child(mode):
    # a node with a stand-in child is never live, and a stand-in is never a
    # known target, so neither is looked up
    model = load_model(str(CELL_MODEL))
    bounds = Bounds(max_states=40, step_mode=mode)
    derive = system_steps if mode == "system" else all_steps
    original = syntax._TABLE
    table = _CountingTable(original)
    syntax._TABLE, syntax._forget.__defaults__ = table, (table,)
    try:
        lts = build(model.root, model.definitions, bounds)
        known = _CountingKnown(lts.states)
        dropped = sum(derive(state, model.definitions, None, known).count(None)
                      for state in lts.states)
    finally:
        original.clear()
        original.update(table)
        syntax._TABLE, syntax._forget.__defaults__ = original, (original,)
    assert len(lts.states) == 40 and lts.truncated and dropped
    assert table.lookups and table.stand_in_lookups == 0
    assert known.stand_in_tests == 0


def test_a_build_keeps_no_term_alive_once_dropped():
    # the derivation memo lives for one build call only; names no other
    # test uses, so no term of this build was alive before it.  The label
    # table may hold the last actions of earlier tests, and a build that
    # fills it empties it, so it starts empty here
    defs = parse_definitions("Cx := x.(Cx | Cx) + y:0; Ax := ~x.(Ax | Ax); Bx := ~y:0;")
    semantics._shared_labels.clear()
    semantics._step_labels.clear()
    gc.collect()
    before = len(syntax._TABLE)
    lts = build(parse_process("Cx | Ax | Bx"), defs, Bounds(max_states=200))
    assert len(syntax._TABLE) > before + 200
    del lts
    gc.collect()
    assert len(syntax._TABLE) == before


def _reference_json(lts):
    doc = {
        "root": 0,
        "step_mode": lts.bounds.step_mode,
        "max_states": lts.bounds.max_states,
        "max_depth": lts.bounds.max_depth,
        "states": [format_term(s) for s in lts.states],
        "edges": [{"source": s, "relation": r, "label": label_text(label), "target": d}
                  for s, label, r, d in lts.edges],
        "truncated": sorted(lts.truncated),
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


@pytest.mark.parametrize("mode", ["all", "system"])
@pytest.mark.parametrize("root, max_states", [
    ("0", 1),              # no edges, nothing truncated
    ("C | A | B", 1),      # a single truncated state
    ("C | A | B", 40),
    ("Zellé | Ω", 300),    # non-ASCII names print as \u escapes
])
def test_json_export_matches_the_standard_encoder(mode, root, max_states):
    defs = parse_definitions("C := a.(C | C) + g:P; A := ~a.(A | A); B := ~g:0;"
                             "Zellé := a.(Zellé | Ω); Ω := ~a.0;")
    lts = build(parse_process(root), defs, Bounds(max_states=max_states, step_mode=mode))
    out = export(lts, "json")
    assert out == _reference_json(lts)
    assert out.isascii()


def test_aut_shape():
    lts = build(parse_process("0"), EMPTY, Bounds(step_mode="system"))
    assert export(lts, "aut") == b"des (0, 0, 1)\n"
    lts = build(parse_process("a.0"), EMPTY, Bounds())
    text = export(lts, "aut").decode()
    assert '(0,"H 1 a+",1)' in text.splitlines()
    assert text.startswith("des (0, ")


def test_json_export_embeds_configuration_texts():
    import json

    lts = build(parse_process("a.0"), EMPTY, Bounds())
    doc = json.loads(export(lts, "json"))
    assert doc["states"][0] == "a.0"
    assert doc["root"] == 0
    assert {e["relation"] for e in doc["edges"]} == {"H", "I", "CP"}


def test_system_mode_edges_are_a_subset_of_all_mode():
    bounds = Bounds(max_states=80, max_depth=4)
    full = build(parse_process("C | A | B"), DEFS, bounds)
    system = build(parse_process("C | A | B"), DEFS,
                   Bounds(max_states=80, max_depth=4, step_mode="system"))
    full_expanded = {format_term(s) for i, s in enumerate(full.states)
                     if i not in full.truncated}
    sys_expanded = {format_term(s) for i, s in enumerate(system.states)
                    if i not in system.truncated}
    full_edges = edge_set(full)
    for edge in edge_set(system):
        if edge[0] in full_expanded and edge[0] in sys_expanded:
            assert edge in full_edges


def test_raising_the_state_budget_is_monotone():
    small = build(parse_process("C | A | B"), DEFS, Bounds(max_states=10, max_depth=6))
    big = build(parse_process("C | A | B"), DEFS, Bounds(max_states=40, max_depth=6))
    assert list(big.states[: len(small.states)]) == list(small.states)
    assert edge_set(small) <= edge_set(big)


def test_bounds_validation():
    with pytest.raises(ValueError):
        Bounds(max_states=0)
    with pytest.raises(ValueError):
        Bounds(step_mode="everything")


@pytest.mark.parametrize("field,value", [
    ("max_states", True), ("max_depth", False), ("max_depth", 2.5),
    ("max_states", 10.0), ("max_states", "10"), ("max_depth", None),
])
def test_bounds_must_be_ints(field, value):
    with pytest.raises(TypeError, match=f"{field} must be an int"):
        Bounds(**{field: value})


# ---------------------------------------------------------------------------
# the builder against a naive one


def reference_build(root, defs, bounds):
    """Breadth-first, each state's complete step set sorted, with no memo
    and no ``known``, keeping the edges into indexed states."""
    derive = system_steps if bounds.step_mode == "system" else all_steps
    states, index, depth, edges, truncated = [root], {root: 0}, [0], [], set()
    for i, state in enumerate(states):  # states grows as it is read: a FIFO queue
        if depth[i] >= bounds.max_depth:
            truncated.add(i)
            continue
        for t in sorted(derive(state, defs), key=transition_sort_key):
            if t.target not in index:
                if len(states) >= bounds.max_states:
                    truncated.add(i)
                    continue
                index[t.target] = len(states)
                states.append(t.target)
                depth.append(depth[i] + 1)
            edges.append((i, t.label, t.label.relation, index[t.target]))
    return tuple(states), tuple(edges), frozenset(truncated)


def assert_builds_like_the_reference(root, defs, bounds):
    lts = build(root, defs, bounds)
    assert (lts.states, lts.edges, lts.truncated) == reference_build(root, defs, bounds)
    return lts


@pytest.mark.parametrize("mode", ["all", "system"])
@pytest.mark.parametrize("max_states", [1, 2, 7, 40, 300])
@pytest.mark.parametrize("root", ["C | A | B", "a.0 | ~a.0"])
def test_build_matches_a_naive_builder(root, max_states, mode):
    assert_builds_like_the_reference(parse_process(root), DEFS,
                                     Bounds(max_states=max_states, step_mode=mode))


def test_the_bound_reached_partway_through_a_state():
    # the root's first new target takes the last free index; its later new
    # targets are dropped after the full sort, its self-loop is kept
    lts = assert_builds_like_the_reference(parse_process("a.0 | ~a.0"), EMPTY,
                                           Bounds(max_states=2))
    assert len(all_steps(lts.states[0], EMPTY)) > 2
    assert {dst for src, _, _, dst in lts.edges if src == 0} == {0, 1}
    assert lts.truncated == {0, 1}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_states=st.integers(1, 30),
       mode=st.sampled_from(["all", "system"]))
def test_build_matches_a_naive_builder_on_random_processes(seed, max_states, mode):
    root = random_process(random.Random(seed), 3)
    assert_builds_like_the_reference(root, STANDARD_DEFS,
                                     Bounds(max_states=max_states, max_depth=6, step_mode=mode))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_states=st.integers(1, 30),
       mode=st.sampled_from(["all", "system"]))
def test_build_matches_a_naive_builder_on_random_configurations(seed, max_states, mode):
    # roots with running prefixes: rollbacks and completions from the root on
    root = random_configuration(random.Random(seed))
    assert_builds_like_the_reference(root, STANDARD_DEFS,
                                     Bounds(max_states=max_states, max_depth=6, step_mode=mode))
