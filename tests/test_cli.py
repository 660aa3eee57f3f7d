"""End-to-end command-line behavior, exit codes included."""

import io
import json
from pathlib import Path

import pytest

from papc.cli import main
from papc.parsing import parse_process
from papc.semantics import all_steps, label_text, system_steps
from papc.syntax import format_term

MODELS = Path(__file__).resolve().parent.parent / "models"
CELL = str(MODELS / "cell_protein.papc")
PAIR = str(MODELS / "handshake_pair.papc")


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


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


def test_empty_model_has_no_root(tmp_path):
    empty = tmp_path / "empty.papc"
    empty.write_text("")
    code, _ = run(["steps", str(empty)])
    assert code == 1  # NoRoot


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
    from papc.cli import load_model

    model = load_model(CELL)
    config_text = "[a#1].(C | C) + [g#2]:P | [~a#1].(A | A) | [~g#2]:0"
    for mode, derive in (("all", all_steps), ("system", system_steps)):
        code, output = run(["steps", CELL, "--from", config_text, "--mode", mode])
        assert code == 0
        want = [f"{label_text(t.label)} -> {format_term(t.target)}"
                for t in derive(parse_process(config_text), model.definitions)]
        assert output.strip().splitlines() == want


def test_steps_of_inert_system_is_empty(tmp_path):
    model = tmp_path / "noop.papc"
    model.write_text("system := 0;")
    code, output = run(["steps", str(model), "--mode", "system"])
    assert code == 0
    assert output.strip() == ""


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
])
def test_replay_rejects_malformed_transcripts(tmp_path, capsys, lines, message):
    transcript = tmp_path / "bad.jsonl"
    transcript.write_text("\n".join(lines) + "\n")
    code, _ = run(["replay", CELL, str(transcript)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
