"""Command-line front door.

Commands:

* ``check``  -- parse and validate a model file.
* ``steps``  -- list the one-step transitions of a configuration.
* ``lts``    -- build a bounded transition system and export it.
* ``repl``   -- step through a model interactively, writing a transcript.
* ``bisim``  -- decide bisimilarity of two configurations.
* ``replay`` -- re-derive a recorded transcript step by step.

Exit codes: 0 success (or bisimilar), 1 not bisimilar or validation/model
error, 2 unknown verdict or an exhausted bound, 3 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, TextIO

from .errors import CapExceeded, NoRoot, PapcError, ParseError, UsageError
from .equivalence import NOT_BISIMILAR, UNKNOWN, bisimilar
from .lts import Bounds, build, export, stats
from .parsing import parse_model, parse_process
from .semantics import all_steps, is_system_step, label_text, system_steps
from .syntax import Definitions, Term, format_term, validate

__all__ = ["ModelFile", "load_model", "main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3


@dataclass(frozen=True)
class ModelFile:
    """A parsed model: defining equations plus an optional root entry."""

    path: str
    definitions: Definitions
    root: Optional[Term]


def load_model(path: str) -> ModelFile:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    defs, root = parse_model(text)
    return ModelFile(path=path, definitions=defs, root=root)


def _resolve_root(model: ModelFile, from_text: Optional[str]) -> Term:
    if from_text is not None:
        return parse_process(from_text)
    if model.root is None:
        raise NoRoot(f"{model.path} declares no 'system' entry and no --from was given")
    return model.root


def _steps_for(mode: str):
    return system_steps if mode == "system" else all_steps


# ---------------------------------------------------------------------------
# commands


def cmd_check(args, out: TextIO) -> int:
    model = load_model(args.model)
    roots = [model.root] if model.root is not None else []
    report = validate(model.definitions, roots)
    for message in report.errors:
        print(f"error: {message}", file=out)
    for message in report.warnings:
        print(f"warning: {message}", file=out)
    if model.root is None:
        print("note: no 'system' entry; commands will need --from", file=out)
    n = len(model.definitions.names())
    print(f"{model.path}: {n} definition(s), "
          f"{len(report.errors)} error(s), {len(report.warnings)} warning(s)", file=out)
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_steps(args, out: TextIO) -> int:
    model = load_model(args.model)
    config = _resolve_root(model, args.from_text)
    for t in _steps_for(args.mode)(config, model.definitions):
        print(f"{label_text(t.label)} -> {format_term(t.target)}", file=out)
    return EXIT_OK


def cmd_lts(args, out: TextIO) -> int:
    model = load_model(args.model)
    config = _resolve_root(model, args.from_text)
    bounds = Bounds(max_states=args.max_states, max_depth=args.max_depth,
                    step_mode=args.mode)
    lts = build(config, model.definitions, bounds)
    payload = export(lts, args.format)
    if args.out:
        with open(args.out, "wb") as handle:
            handle.write(payload)
    else:
        out.write(payload.decode("utf-8"))
    s = stats(lts)
    print(
        f"states {s.states}  edges {s.edges} "
        f"(H {s.h_edges}, I {s.i_edges}, CP {s.cp_edges}, CC {s.cc_edges})  "
        f"truncated {s.truncated}",
        file=sys.stderr if not args.out else out,
    )
    return EXIT_OK


def cmd_bisim(args, out: TextIO) -> int:
    model = load_model(args.model)
    left = parse_process(args.left)
    right = parse_process(args.right)
    bounds = Bounds(max_states=args.max_states, max_depth=args.max_depth)
    verdict = bisimilar(left, right, model.definitions, bounds)
    print(f"{verdict.outcome}: {verdict.detail}", file=out)
    for step in verdict.witness:
        print(step.describe(), file=out)
    if verdict.outcome == NOT_BISIMILAR:
        return EXIT_FAIL
    if verdict.outcome == UNKNOWN:
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_repl(args, out: TextIO, in_stream: Optional[TextIO] = None) -> int:
    model = load_model(args.model)
    config = _resolve_root(model, args.from_text)
    source = in_stream if in_stream is not None else sys.stdin
    history: list[Term] = [config]
    records: list[dict] = []
    show_system_only = False
    print("commands: <number> step, u undo, f filter system steps, q quit", file=out)
    while True:
        current = history[-1]
        transitions = all_steps(current, model.definitions)
        shown = [t for t in transitions if not show_system_only or is_system_step(t)]
        print(f"\nat: {format_term(current)}", file=out)
        if not shown:
            print("  (no transitions shown)", file=out)
        for i, t in enumerate(shown):
            marker = "*" if is_system_step(t) else " "
            print(f"  [{i}]{marker} {label_text(t.label)} -> {format_term(t.target)}",
                  file=out)
        print("> ", end="", file=out, flush=True)
        line = source.readline()
        if not line:
            break
        choice = line.strip()
        if choice == "q":
            break
        if choice == "f":
            show_system_only = not show_system_only
            continue
        if choice == "u":
            if len(history) > 1:
                history.pop()
                records.pop()
            else:
                print("nothing to undo", file=out)
            continue
        try:
            index = int(choice)
            chosen = shown[index]
        except (ValueError, IndexError):
            print(f"bad choice {choice!r}; pick an index, u or q", file=out)
            continue
        records.append({"config": format_term(current),
                        "label": label_text(chosen.label)})
        history.append(chosen.target)
    records.append({"config": format_term(history[-1])})
    transcript_path = args.transcript or "papc-repl-transcript.jsonl"
    with open(transcript_path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"\ntranscript written to {transcript_path}", file=out)
    return EXIT_OK


def cmd_replay(args, out: TextIO) -> int:
    model = load_model(args.model)
    with open(args.transcript, "r", encoding="utf-8") as handle:
        lines = [(n, line) for n, line in enumerate(handle, 1) if line.strip()]
    if not lines:
        print("empty transcript", file=out)
        return EXIT_FAIL
    configs, labels = [], []
    for n, line in lines:
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"transcript record is not JSON: {exc.msg}", n, exc.colno) from None
        if not isinstance(record, dict) or not isinstance(record.get("config"), str):
            raise ParseError("transcript record has no 'config' text", n)
        last = n == lines[-1][0]
        if ("label" in record) == last:
            raise ParseError("transcript record carries a label but has no successor" if last
                             else "transcript record has a successor but no label", n)
        configs.append(parse_process(record["config"]))
        labels.append(record.get("label"))
    current = configs[0]
    for i, (wanted, target) in enumerate(zip(labels, configs[1:])):
        if not any(label_text(t.label) == wanted and t.target == target
                   for t in all_steps(current, model.definitions)):
            print(f"step {i}: no transition {wanted!r} to the recorded successor "
                  f"from {format_term(current)}", file=out)
            return EXIT_FAIL
        current = target
    print(f"replayed {len(configs) - 1} step(s) from {format_term(configs[0])}", file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2); keep code 3
        raise UsageError(message)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="papc", description=__doc__,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and validate a model file")
    p.add_argument("model")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("steps", help="list one-step transitions")
    p.add_argument("model")
    p.add_argument("--from", dest="from_text", default=None,
                   help="configuration text (defaults to the model's system entry)")
    p.add_argument("--mode", choices=("all", "system"), default="all")
    p.set_defaults(func=cmd_steps)

    p = sub.add_parser("lts", help="build and export a bounded transition system")
    p.add_argument("model")
    p.add_argument("--from", dest="from_text", default=None)
    p.add_argument("--mode", choices=("all", "system"), default="all")
    p.add_argument("--max-states", type=int, default=10_000)
    p.add_argument("--max-depth", type=int, default=64)
    p.add_argument("--format", choices=("aut", "json"), default="aut")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=cmd_lts)

    p = sub.add_parser("repl", help="interactive stepping session")
    p.add_argument("model")
    p.add_argument("--from", dest="from_text", default=None)
    p.add_argument("--transcript", default=None,
                   help="transcript path (default: papc-repl-transcript.jsonl)")
    p.set_defaults(func=cmd_repl)

    p = sub.add_parser("bisim", help="decide bisimilarity of two configurations")
    p.add_argument("model")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--max-states", type=int, default=10_000)
    p.add_argument("--max-depth", type=int, default=64)
    p.set_defaults(func=cmd_bisim)

    p = sub.add_parser("replay", help="re-derive a recorded transcript")
    p.add_argument("model")
    p.add_argument("transcript")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv: Optional[Sequence[str]] = None, out: TextIO = sys.stdout) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except PapcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
