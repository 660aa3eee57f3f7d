"""End-to-end command-line behavior, exit codes included."""

import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from papc.cli import main
from papc.parsing import parse_process
from papc.semantics import all_steps, label_text, system_steps, transition_sort_key
from papc.syntax import format_term
from test_lts import GOLDEN_SYSTEM_DIGESTS

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"
CELL = str(MODELS / "cell_protein.papc")
PAIR = str(MODELS / "handshake_pair.papc")


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def run_process(argv, hash_seed=0):
    """Run papc in a fresh interpreter under the given hash seed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hash_seed))
    return subprocess.run(
        [sys.executable, "-m", "papc.cli", *argv], capture_output=True, env=env, check=False)


# ---------------------------------------------------------------------------
# check


def test_check_accepts_the_cell_model_with_a_warning():
    code, output = run(["check", CELL])
    assert code == 0
    assert "warning: unbound constant 'P'" in output


def test_check_rejects_duplicate_definitions(tmp_path):
    bad = tmp_path / "dup.papc"
    bad.write_text("X := a.X; X := b.X;")
    code, _ = run(["check", str(bad)])
    assert code == 1


def test_check_rejects_unguarded_recursion(tmp_path):
    bad = tmp_path / "loop.papc"
    bad.write_text("X := X + a.0; system := X;")
    code, output = run(["check", str(bad)])
    assert code == 1
    assert "unguarded" in output


def test_missing_file_is_an_io_error():
    code, _ = run(["check", "no-such-model.papc"])
    assert code == 3


def test_bad_usage_exits_three():
    assert main(["steps"]) == 3
    assert main(["no-such-command"]) == 3


@pytest.mark.parametrize("argv", [
    ["lts", CELL, "--max-states", "0"],
    ["lts", CELL, "--max-depth", "-1"],
    ["bisim", CELL, "C", "C", "--max-states", "-5"],
    ["bisim", CELL, "C", "C", "--max-depth", "0"],
])
def test_bounds_below_one_are_usage_errors(capsys, argv):
    assert main(argv) == 3
    assert "bounds must be at least 1" in capsys.readouterr().err


def test_bounds_from_the_command_line_reach_the_export(capsys):
    code, output = run(["lts", CELL, "--max-states", "3", "--max-depth", "2",
                        "--format", "json"])
    assert code == 0
    record = json.loads(output)
    assert (record["max_states"], record["max_depth"]) == (3, 2)
    assert len(record["states"]) == 3
    assert main(["lts", CELL, "--max-depth", "2.5"]) == 3
    assert "invalid positive_int value: '2.5'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "replay"])
def test_undecodable_input_is_an_io_error(tmp_path, capsys, command):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfeC := a.0;\n")
    argv = ["check", str(bad)] if command == "check" else ["replay", CELL, str(bad)]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("i/o error: ")


# Fragments of the model and configuration syntax, malformed ones included,
# so that generated texts parse now and then.
_TEXTS = st.lists(st.sampled_from(
    ["a", "~a", "b", "C", "X", "0", ".", ":", " | ", " + ", "(", ")", " := ", ";",
     "[a#1]", "[~a#1]", "[a#0]", "system", "tau", "#", "\n"]), max_size=12).map("".join)
_BYTES = st.one_of(_TEXTS.map(str.encode), st.binary(max_size=12),
                   st.tuples(_TEXTS, st.binary(max_size=3)).map(lambda p: p[0].encode() + p[1]))
_RECORDS = st.lists(st.one_of(
    st.fixed_dictionaries({"config": _TEXTS}, optional={"label": st.sampled_from(
        ["H 1 a+", "H 1 tau+", "I {}", "CP 1 a- {}", "CP 1 tau- {}"])}).map(json.dumps),
    _TEXTS), max_size=3).map(lambda lines: "\n".join(lines).encode())
_BOUNDS = st.one_of(st.integers(-2, 6).map(str), st.sampled_from(["", "x", "1.5"]))


@st.composite
def _invocations(draw):
    """argv over a model and a transcript file, and the bytes of both."""
    command = draw(st.sampled_from(["check", "steps", "lts", "bisim", "replay"]))
    args = {"bisim": [draw(_TEXTS), draw(_TEXTS)], "replay": ["{transcript}"]}.get(command, [])
    flags = {"steps": ["--from", "--mode"], "lts": ["--from", "--mode", "--format"]}
    values = {"--from": _TEXTS, "--mode": st.sampled_from(["all", "system", "none"]),
              "--format": st.sampled_from(["aut", "json", "dot"])}
    for flag in draw(st.lists(st.sampled_from(flags.get(command, ["--mode"])), max_size=2)):
        args += [flag, draw(values[flag])]
    if command in ("lts", "bisim"):  # always bounded, so every run stays small
        args += ["--max-states", draw(_BOUNDS), "--max-depth", draw(_BOUNDS)]
    return [command, "{model}", *args], draw(_BYTES), draw(_RECORDS)


@settings(deadline=None)
@given(_invocations())
def test_main_keeps_the_exit_code_contract(invocation):
    argv, model, transcript = invocation
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"model": Path(tmp, "model.papc"), "transcript": Path(tmp, "run.jsonl")}
        paths["model"].write_bytes(model)
        paths["transcript"].write_bytes(transcript)
        assert run([arg.format(**paths) for arg in argv])[0] in (0, 1, 2, 3)


def test_empty_model_has_no_root(tmp_path):
    empty = tmp_path / "empty.papc"
    empty.write_text("")
    code, _ = run(["steps", str(empty)])
    assert code == 1  # NoRoot


def test_long_alias_chain_is_checked_and_stepped(tmp_path):
    chain = tmp_path / "chain.papc"
    chain.write_text(" ".join(f"C{i} := C{i + 1};" for i in range(1500)) + " C1500 := a.C0;")
    code, _ = run(["check", str(chain)])
    assert code == 0
    code, output = run(["steps", str(chain), "--from", "C0"])
    assert code == 0
    assert "H 1 a+ -> [a#1].C0" in output.splitlines()


WIDE = " | ".join(["a.0"] * 1000)

# the command that goes too deep on each input: a wide parallel parses and
# prints, but its derivation still recurses down the spine
TOO_DEEP = {
    "wide": ("steps", WIDE),
}


@pytest.mark.parametrize("name", TOO_DEEP)
def test_too_deep_input_exits_two_without_a_traceback(tmp_path, name):
    command, text = TOO_DEEP[name]
    model = tmp_path / f"{name}.papc"
    model.write_text(f"W := {text};")
    extra = ["--from", text] if command == "steps" else []
    result = run_process([command, str(model), *extra])
    assert result.returncode == 2
    assert b"Traceback" not in result.stderr
    assert b"error: the input nests deeper than the nesting limit" in result.stderr


CHAIN = "a." * 10_000 + "0"

# deep input is parsed in a loop: each command with its exit code
DEEP = {
    "nested": ("(" * 10_000 + "a.0" + ")" * 10_000, [(["check"], 0)]),
    "long": (CHAIN, [
        (["check"], 0),
        (["steps", "--from", CHAIN], 0),
        (["lts", "--from", CHAIN], 0),  # truncated at the state bound
        (["bisim", CHAIN, f"{CHAIN} + 0"], 2),  # unknown within the bounds
    ]),
}


@pytest.mark.parametrize("name", DEEP)
def test_deep_input_is_read_without_a_traceback(tmp_path, name):
    text, commands = DEEP[name]
    model = tmp_path / f"{name}.papc"
    model.write_text(f"W := {text};")
    for (command, *extra), code in commands:
        result = run_process([command, str(model), *extra])
        assert result.returncode == code, (command, result.stderr[-300:])
        assert b"Traceback" not in result.stderr


def test_a_wide_parallel_is_checked(tmp_path):
    model = tmp_path / "wide.papc"
    model.write_text(f"W := {WIDE};")
    result = run_process(["check", str(model)])
    assert result.returncode == 0
    assert result.stdout.endswith(b": 1 definition(s), 0 error(s), 0 warning(s)\n")


# ---------------------------------------------------------------------------
# steps


def test_steps_system_mode_from_the_root():
    code, output = run(["steps", CELL, "--mode", "system"])
    assert code == 0
    lines = output.strip().splitlines()
    assert lines == [
        "H 1 tau+ -> [a#1].(C | C) + g:P | [~a#1].(A | A) | B",
        "H 1 tau+ -> a.(C | C) + [g#1]:P | A | [~g#1]:0",
    ]


def test_steps_match_the_engine_in_content_and_order():
    # the engine derives in its own order; the listing shows the sorted one
    from papc.cli import load_model

    model = load_model(CELL)
    config_text = "[a#1].(C | C) + [g#2]:P | [~a#1].(A | A) | [~g#2]:0"
    for mode, derive in (("all", all_steps), ("system", system_steps)):
        code, output = run(["steps", CELL, "--from", config_text, "--mode", mode])
        assert code == 0
        steps = derive(parse_process(config_text), model.definitions)
        want = [f"{label_text(t.label)} -> {format_term(t.target)}"
                for t in sorted(steps, key=transition_sort_key)]
        assert output.strip().splitlines() == want


class _Writes(io.StringIO):
    """A text stream that counts its writes."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("from_text", [None, " | ".join(["C | A | B"] * 16)])
def test_steps_writes_the_per_line_listing_in_one_write(from_text):
    from papc.cli import load_model

    model = load_model(CELL)
    config = model.root if from_text is None else parse_process(from_text)
    want = io.StringIO()
    for t in sorted(all_steps(config, model.definitions), key=transition_sort_key):
        print(f"{label_text(t.label)} -> {format_term(t.target)}", file=want)
    out = _Writes()
    assert main(["steps", CELL, *(["--from", from_text] if from_text else [])], out=out) == 0
    assert out.getvalue() == want.getvalue() and out.writes == 1


def test_steps_with_no_transition_writes_nothing():
    argv = ["steps", CELL, "--mode", "system", "--from", "a.0"]
    assert run(argv) == (0, "")
    result = run_process(argv)
    assert (result.returncode, result.stdout, result.stderr) == (0, b"", b"")


def test_steps_of_inert_system_is_empty(tmp_path):
    model = tmp_path / "noop.papc"
    model.write_text("system := 0;")
    code, output = run(["steps", str(model), "--mode", "system"])
    assert code == 0
    assert output.strip() == ""


def test_identifiers_past_the_bound_fail_loudly(tmp_path):
    big = "[a#99999999999999999999].0"
    model = tmp_path / "big.papc"
    model.write_text(f"system := {big};")
    for argv in (["check", str(model)], ["lts", str(model)],
                 ["steps", CELL, "--from", big], ["bisim", CELL, "a.0", big]):
        result = run_process(argv)
        assert result.returncode == 1, argv
        assert b"Traceback" not in result.stderr
        assert result.stderr.count(b"error:") == 1
        assert b"running-action identifiers stop at 65536" in result.stderr


def test_steps_interrupt_blowup_exits_two(tmp_path):
    model = tmp_path / "wide.papc"
    wide = " + ".join(f"[a#{i}].0" for i in range(1, 18))
    model.write_text(f"system := {wide};")
    for argv in (["steps"], ["steps", "--mode", "system"], ["lts", "--mode", "system"]):
        code, _ = run([argv[0], str(model), *argv[1:]])
        assert code == 2, argv  # enumeration cap, a bound like any other


# ---------------------------------------------------------------------------
# lts


def test_lts_export_to_file_and_stats(tmp_path):
    out_path = tmp_path / "pair.aut"
    code, output = run(["lts", PAIR, "--format", "aut", "--out", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("des (0, ")
    assert "states 15" in output


def test_lts_summary_line(tmp_path, capsys):
    # the whole line, to the spaces: with --out it goes to the output, else to stderr
    code, output = run(["lts", PAIR, "--format", "aut", "--out", str(tmp_path / "pair.aut")])
    assert code == 0
    assert output == "states 15  edges 62 (H 9, I 32, CP 21, CC 0)  truncated 0\n"
    code, _ = run(["lts", CELL, "--max-states", "300", "--format", "aut"])
    assert code == 0
    assert capsys.readouterr().err == (
        "states 300  edges 2181 (H 508, I 976, CP 462, CC 235)  truncated 197\n")


def test_lts_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.aut", tmp_path / "b.aut"
    for path in (a, b):
        code, _ = run(["lts", CELL, "--mode", "system", "--max-depth", "3",
                       "--max-states", "200", "--format", "aut", "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"CP 2 tau- {}" in a.read_bytes()


def test_lts_json_to_stdout(tmp_path):
    model = tmp_path / "noop.papc"
    model.write_text("system := 0;")
    code, output = run(["lts", str(model), "--mode", "system", "--format", "json"])
    assert code == 0
    doc = json.loads(output[: output.rindex("}") + 1])
    assert doc["states"] == ["0"]


def test_outputs_are_identical_across_hash_seeds(tmp_path):
    model = tmp_path / "repl.papc"
    model.write_text("C1 := a.(C1 | C1); C2 := a:C2;")
    runs = {(mode, fmt): ["lts", CELL, "--mode", mode, "--max-states", "300",
                          "--format", fmt]
            for mode in ("all", "system") for fmt in ("aut", "json")}
    runs["bisim"] = ["bisim", str(model), "C1", "C2", "--max-states", "40",
                     "--max-depth", "4"]
    for name, argv in runs.items():
        first, second = (run_process(argv, hash_seed=seed) for seed in (0, 1))
        assert (first.returncode, first.stdout) == (second.returncode, second.stdout), name
        if name == "bisim":
            assert first.returncode == 1 and b"no transition with a matching label" in first.stdout
        else:
            assert first.returncode == 0
        if name[0] == "system":
            assert hashlib.sha256(first.stdout).hexdigest() == GOLDEN_SYSTEM_DIGESTS[name[1]]


# ---------------------------------------------------------------------------
# bisim


def test_bisim_not_bisimilar_exits_one(tmp_path):
    model = tmp_path / "repl.papc"
    model.write_text("C1 := a.(C1 | C1); C2 := a:C2;")
    code, output = run(["bisim", str(model), "C1", "C2",
                        "--max-states", "40", "--max-depth", "4"])
    assert code == 1
    assert "not-bisimilar" in output
    assert "CP 1 a- {}" in output


def test_bisim_reflexive_exits_zero():
    code, output = run(["bisim", CELL, "a.0 + g:0", "a.0 + g:0"])
    assert code == 0
    assert "bisimilar" in output


def test_bisim_unknown_exits_two(tmp_path):
    model = tmp_path / "repl.papc"
    model.write_text("C1 := a.(C1 | C1); C2 := a:C2;")
    code, output = run(["bisim", str(model), "C1", "C2",
                        "--max-states", "5", "--max-depth", "1"])
    assert code == 2
    assert "unknown" in output


# ---------------------------------------------------------------------------
# repl and replay


def test_repl_steps_and_writes_a_replayable_transcript(tmp_path):
    import argparse

    from papc.cli import cmd_repl

    transcript = tmp_path / "session.jsonl"
    # two steps survive: step, undo, step, step, bad input, filter toggle, quit
    stdin = io.StringIO("0\nu\n0\n0\nbogus\nf\nq\n")
    args = argparse.Namespace(model=CELL, from_text=None,
                              transcript=str(transcript))
    out = io.StringIO()
    code = cmd_repl(args, out, in_stream=stdin)
    assert code == 0
    assert "bad choice" in out.getvalue()
    records = [json.loads(line) for line in transcript.read_text().splitlines()]
    assert len(records) == 3  # two surviving steps plus the final state
    code, output = run(["replay", CELL, str(transcript)])
    assert code == 0
    assert "replayed 2 step(s)" in output


def test_repl_undo_returns_to_the_previous_state(tmp_path):
    import argparse

    from papc.cli import cmd_repl

    transcript = tmp_path / "session.jsonl"
    stdin = io.StringIO("0\nu\nq\n")
    args = argparse.Namespace(model=CELL, from_text=None,
                              transcript=str(transcript))
    out = io.StringIO()
    assert cmd_repl(args, out, in_stream=stdin) == 0
    records = [json.loads(line) for line in transcript.read_text().splitlines()]
    assert records == [{"config": "C | A | B"}]


def test_repl_rejects_a_negative_choice(tmp_path):
    import argparse

    from papc.cli import cmd_repl

    transcript = tmp_path / "session.jsonl"
    stdin = io.StringIO("-1\nq\n")
    args = argparse.Namespace(model=PAIR, from_text=None,
                              transcript=str(transcript))
    out = io.StringIO()
    assert cmd_repl(args, out, in_stream=stdin) == 0
    assert "bad choice '-1'" in out.getvalue()
    records = [json.loads(line) for line in transcript.read_text().splitlines()]
    assert records == [{"config": "a.0 | ~a.0"}]


def test_golden_scenarios_replay(tmp_path):
    for name in ("cell_protein_divide_first.replay", "cell_protein_produce_first.replay"):
        code, output = run(["replay", CELL, str(MODELS / name)])
        assert code == 0, (name, output)
        assert "replayed 3 step(s)" in output


def test_replay_detects_a_forged_step(tmp_path):
    forged = tmp_path / "forged.jsonl"
    forged.write_text(
        '{"config": "C | A | B", "label": "CP 9 tau- {}"}\n'
        '{"config": "0"}\n'
    )
    code, output = run(["replay", CELL, str(forged)])
    assert code == 1
    assert "no transition" in output


@pytest.mark.parametrize("lines, message", [
    (['{"config": "C | A | B", "label": "H 1 tau+"}', "not json"], "not JSON"),
    (['{"config": "C | A | B", "label": "H 1 tau+"}', '{"state": "0"}'], "no 'config'"),
    (['{"config": "C | A | B", "label": "H 1 tau+"}'], "no successor"),
    (['{"config": "C | A | B"}',
      '{"config": "[a#1].(C | C) + g:P | [~a#1].(A | A) | B"}'], "no label"),
    # the transcript line, then the position inside the config
    (['{"config": "C | A | B", "label": "H 1 tau+"}', "", '{"config": "C | A | (B"}'],
     "error: 3: transcript record's config does not parse: 1:11: expected ')'"),
])
def test_replay_rejects_malformed_transcripts(tmp_path, capsys, lines, message):
    transcript = tmp_path / "bad.jsonl"
    transcript.write_text("\n".join(lines) + "\n")
    code, _ = run(["replay", CELL, str(transcript)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert ":0:" not in err  # no column is printed where none is known
