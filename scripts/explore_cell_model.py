#!/usr/bin/env python3
"""Walk the two-scale cell/protein model and report its observable behavior.

Shows the coupled starts of division and transcription, the two completion
orders (division interrupts transcription; transcription leaves division
running), and how the reachable state space grows with the exploration
budget.
"""

import argparse
from collections import Counter
from pathlib import Path

from papc.cli import load_model
from papc.lts import Bounds, build
from papc.semantics import label_text, system_steps, transition_sort_key
from papc.syntax import format_term

DEFAULT_MODEL = Path(__file__).resolve().parent.parent / "models" / "cell_protein.papc"


def show_frontier(config, defs, depth, max_depth, seen):
    if depth > max_depth or config in seen:
        return
    seen.add(config)
    indent = "  " * depth
    for t in sorted(system_steps(config, defs), key=transition_sort_key):
        print(f"{indent}{label_text(t.label):<16} {format_term(t.target)}")
        show_frontier(t.target, defs, depth + 1, max_depth, seen)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default=str(DEFAULT_MODEL))
    parser.add_argument("--depth", type=int, default=3,
                        help="observable tree depth to print")
    args = parser.parse_args()

    model = load_model(args.model)
    root = model.root
    print(f"root: {format_term(root)}\n")
    print("observable steps (system mode), nested by depth:")
    show_frontier(root, model.definitions, 0, args.depth, set())

    print("\nstate-space growth (all transitions):")
    for max_states in (10, 100, 1000, 5000):
        lts = build(root, model.definitions,
                    Bounds(max_states=max_states, max_depth=64))
        edges = Counter(relation for _, _, relation, _ in lts.edges)
        print(f"  budget {max_states:>5}: {len(lts.states):>5} states, {len(lts.edges):>6} edges "
              f"(H {edges['H']}, I {edges['I']}, CP {edges['CP']}, CC {edges['CC']}), "
              f"{len(lts.truncated)} truncated")


if __name__ == "__main__":
    main()
