"""Bounded breadth-first construction and export of transition systems.

Recursive definitions make most interesting state spaces infinite, so the
builder stops at configurable bounds and records which states it did not
expand.  States are deduplicated by term equality only (equal terms are one
interned object): two configurations differing in identifier values are
distinct states (the least-unused identifier policy already canonicalizes
generated identifiers).

Exports are byte-exact across runs: an ``aut``-style text form with one line
per edge, and a structured JSON form embedding full configuration texts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from json import dumps
from json.encoder import encode_basestring_ascii
from typing import Literal

from .semantics import Label, all_steps, label_text, system_steps, transition_sort_key
from .syntax import Definitions, EMPTY_DEFINITIONS, Term, format_term

__all__ = ["Bounds", "Lts", "build", "export"]


@dataclass(frozen=True)
class Bounds:
    """Exploration limits; ``step_mode`` selects the transition relation union
    ("all") or the closed-system observable subset ("system")."""

    max_states: int = 10_000
    max_depth: int = 64
    step_mode: Literal["all", "system"] = "all"

    def __post_init__(self) -> None:
        for name in ("max_states", "max_depth"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an int, got {value!r}")
        if self.max_states < 1 or self.max_depth < 1:
            raise ValueError("bounds must be at least 1")
        if self.step_mode not in ("all", "system"):
            raise ValueError(f"unknown step mode {self.step_mode!r}")


@dataclass(frozen=True)
class Lts:
    """States (index 0 is the root), labelled edges, and the indices whose
    outgoing transitions were not fully expanded because a bound was hit.

    A state is truncated when it lies at ``max_depth`` (it is not expanded)
    or when it has a step into a new state while ``max_states`` states are
    known (that step's edge is left out; its edges into known states are
    kept)."""

    states: tuple[Term, ...]
    edges: tuple[tuple[int, Label, str, int], ...]
    truncated: frozenset[int]
    bounds: Bounds


def build(root: Term, defs: Definitions = EMPTY_DEFINITIONS, bounds: Bounds = Bounds()) -> Lts:
    """Breadth-first exploration from ``root`` with structural deduplication.

    State numbering follows BFS discovery order, each state's transitions
    sorted by ``transition_sort_key``: identical inputs build identical systems.

    Once ``bounds.max_states`` states are known when a state's expansion
    starts, only its edges into known states can be kept: the derivation is
    given the state index as ``known``, so only those edges are built and
    sorted, and the state is truncated if it had any other step.  The
    targets of the other steps are not even built as terms: they are only
    looked up among the live ones, as every known state is live, and a None
    tells that some step was left out.  A sorted list filtered to known
    targets equals the filter of the fully sorted list, so the edges are
    those a full sort would keep.
    """
    derive = system_steps if bounds.step_mode == "system" else all_steps
    memo: dict = {}  # subterm derivations shared by the states; dropped on return
    states: list[Term] = [root]
    index: dict[Term, int] = {root: 0}
    depth: list[int] = [0]
    edges: list[tuple[int, Label, str, int]] = []
    truncated: set[int] = set()
    queue: deque[int] = deque([0])
    while queue:
        i = queue.popleft()
        if depth[i] >= bounds.max_depth:
            truncated.add(i)
            continue
        known = index if len(states) >= bounds.max_states else None
        steps = derive(states[i], defs, memo, known)
        if None in steps:  # a step into a new state, left out at the bound
            truncated.add(i)
        for t in sorted(filter(None, steps), key=transition_sort_key):
            j = index.get(t.target)
            if j is None:
                if len(states) >= bounds.max_states:
                    truncated.add(i)
                    continue
                j = len(states)
                states.append(t.target)
                index[t.target] = j
                depth.append(depth[i] + 1)
                queue.append(j)
            edges.append((i, t.label, t.label.relation, j))
    return Lts(tuple(states), tuple(edges), frozenset(truncated), bounds)


def _export_aut(lts: Lts) -> bytes:
    lines = [f"des (0, {len(lts.edges)}, {len(lts.states)})"]
    for src, label, _, dst in lts.edges:
        lines.append(f'({src},"{label_text(label)}",{dst})')
    return ("\n".join(lines) + "\n").encode("utf-8")


def _export_json(lts: Lts) -> bytes:
    # the bytes of json.dumps(doc, indent=2, sort_keys=True), written
    # directly: the indenting encoder runs in pure Python; the bounds are
    # whatever the caller passed, so they keep the encoder's form
    text = encode_basestring_ascii
    edges = [
        f'    {{\n      "label": {text(label_text(label))},\n'
        f'      "relation": {text(relation)},\n'
        f'      "source": {src},\n      "target": {dst}\n    }}'
        for src, label, relation, dst in lts.edges
    ]
    states = [f"    {text(format_term(s))}" for s in lts.states]
    truncated = [f"    {i}" for i in sorted(lts.truncated)]
    return (
        f'{{\n  "edges": {_json_list(edges)},\n'
        f'  "max_depth": {dumps(lts.bounds.max_depth)},\n'
        f'  "max_states": {dumps(lts.bounds.max_states)},\n'
        f'  "root": 0,\n'
        f'  "states": {_json_list(states)},\n'
        f'  "step_mode": {text(lts.bounds.step_mode)},\n'
        f'  "truncated": {_json_list(truncated)}\n}}\n'
    ).encode("ascii")


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def export(lts: Lts, fmt: Literal["aut", "json"]) -> bytes:
    """Serialize the system; two builds from identical inputs export
    byte-identical results."""
    if fmt == "aut":
        return _export_aut(lts)
    if fmt == "json":
        return _export_json(lts)
    raise ValueError(f"unknown export format {fmt!r}")
