"""Run one papc benchmark workload and print its metrics.

From the root of a checkout:

    python3 bench/run.py --workload lts_all --seed 1 --seconds 15 --trace 0

A run sets up several times (fresh import of ``src/papc``, model parse, input
generation) and reports the median set-up time.  Every time it reports is
scaled to a reference machine speed (see ``workloads.Timings``); the raw
times are in the run record.  It then repeats timed passes
over the workload's seeded operations, closed loop in one thread, until the
next pass would overrun ``--seconds``.  Outside the timed phase it checks every
output: pass digests against each other, each operation's output against
``bench/pins.json``, a sample against the naive oracles in ``tests/``, and
every witness by replay.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
passes for half the time, then one pass with spans around each layer's calls,
and prints the per-layer metrics, including the tracing overhead and the size
ladder.  The last line of output is one JSON object; the exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter

import tracing
from workloads import (CLOCK, REF_SECONDS, WORKLOADS, Program, Timings, reference_loop,
                       term_nodes)

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 7
OUT_DIR = ".bench_out"

LAYERS = ("syntax", "parsing", "semantics", "lts", "equivalence", "cli")
OUTPUT_METRICS = (
    "lts.dedup_hit_ratio", "lts.truncated", "lts.export_bytes",
    "equivalence.outcome.bisimilar", "equivalence.outcome.not-bisimilar",
    "equivalence.outcome.unknown", "equivalence.path.identical",
    "equivalence.path.exact", "equivalence.path.distinguished",
    "equivalence.path.exceeded", "equivalence.path.budget",
    "equivalence.witness_len_max", "equivalence.decided_ratio",
)


def tail(values):
    """The highest order statistic with ten samples beyond it, and its
    percentile; the maximum when there are ten samples or fewer."""
    s = sorted(values)
    k = len(s) - 11 if len(s) > 10 else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s)


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu or "unknown"}


class Oracles:
    """The repo's naive oracles, imported once the last set-up is done so that
    they see the same papc classes as the program under test."""

    def __init__(self) -> None:
        sys.path.insert(0, os.path.abspath("tests"))
        import bisim_oracle
        import oracle

        self.rules = oracle
        self.bisim = bisim_oracle


def one_pass(workload, prog, inputs, timings: Timings):
    """Run a pass; returns its outputs, its seconds as measured (reference
    loops left out), and the sum of its operations' scaled latencies."""
    gc.collect()
    n_ref, first = len(timings.ref_s), len(timings.entries)
    t0 = CLOCK()
    outs = workload.run_pass(prog, inputs, timings)
    raw = CLOCK() - t0 - sum(timings.ref_s[n_ref:])
    return outs, raw, sum(d for _, d in timings.scaled(first))


def timed_passes(workload, prog, inputs, seconds, timings: Timings, digests):
    raw: list[float] = []
    scaled: list[float] = []
    start = CLOCK()
    while True:
        outs, r, s = one_pass(workload, prog, inputs, timings)
        raw.append(r)
        scaled.append(s)
        digests.append(workload.digest(outs))
        if CLOCK() - start + statistics.mean(raw) > seconds:
            return outs, raw, scaled


def patch_layers(tracer: tracing.Tracer, prog: Program) -> list[str]:
    """Route each cross-layer call through a span; returns missing names."""
    missing = []

    def patch(module, attr, name, count=None):
        if not tracer.patch(module, attr, name, count):
            missing.append(f"{module.__name__}.{attr}")

    sem, lts, eq, cli = prog.semantics, prog.lts, prog.equivalence, prog.cli
    for tag, attr in (("H", "handshake_steps"), ("I", "interrupt_steps"),
                      ("CP", "preemptive_completions"), ("CC", "conservative_completions")):
        patch(sem, attr, f"semantics.{tag}", len)
    patch(sem, "all_steps", "semantics.all_steps", len)
    for module in (lts, cli):
        patch(module, "all_steps", "semantics.all_steps", len)
        patch(module, "system_steps", "semantics.system_steps", len)
        patch(module, "label_text", "semantics.label_text")
    patch(eq, "all_steps", "equivalence.derive", len)
    for module in (sem, lts, eq, cli):
        patch(module, "format_term", "syntax.format_term")
    patch(cli, "parse_process", "parsing.parse")
    patch(cli, "parse_model", "parsing.parse")
    # the benchmark's own calls into the top layer
    prog.build = tracer.wrap("lts.build", prog.build)
    prog.export = tracer.wrap(lambda lts, fmt: f"lts.export.{fmt}", prog.export)
    prog.bisimilar = tracer.wrap("equivalence.bisimilar", prog.bisimilar)
    prog.verify_witness = tracer.wrap("equivalence.verify_witness", prog.verify_witness)
    prog.cli_main = tracer.wrap("cli.steps", prog.cli_main)
    return missing


def size_ladder(prog: Program, failures: Counter) -> tuple[int, int]:
    """Largest population width and parenthesis nesting that parse, print,
    hash and reparse to the same term, on doubling ladders."""

    def survives(text: str) -> bool:
        try:
            term = prog.parse(text)
            printed = prog.format_term(term)
            hash(term)
            again = prog.parse(printed)
            if again == term and prog.format_term(again) == printed:
                return True
            failures["RoundTripMismatch"] += 1
        except Exception as exc:  # the failure class is the measurement
            failures[type(exc).__name__] += 1
        return False

    width_ok = 0
    for width in (8 << k for k in range(11)):  # 8 .. 8192 components
        if not survives(" | ".join("CAB"[i % 3] for i in range(width))):
            break
        width_ok = width
    nesting_ok = 0
    for depth in (25 << k for k in range(9)):  # 25 .. 6400 levels
        if not survives("(" * depth + "C | A" + ")" * depth):
            break
        nesting_ok = depth
    return width_ok, nesting_ok


def layer_metrics(tr: tracing.Tracer, workload, prog, inputs, outs, traced_s: float,
                  spans_s: float, overhead: float, failed_ratio: float) -> dict:
    m: dict = {}
    for tag in ("H", "I", "CP", "CC"):
        name = f"semantics.{tag}"
        m[f"{name}.calls"] = tr.calls(name)
        m[f"{name}.self_s"] = tr.self_s(name)
        m[f"{name}.transitions"] = tr.items(name)
    m["semantics.all_steps.self_s"] = tr.self_s("semantics.all_steps")
    derive = tr.derive_s or [0.0]
    m["semantics.derive_p50_us"] = statistics.median(derive) * 1e6
    m["semantics.derive_tail_us"] = tail(derive)[0] * 1e6
    derived = tr.items("semantics.all_steps", parent="semantics.system_steps")
    m["semantics.system_keep_ratio"] = (tr.items("semantics.system_steps") / derived
                                        if derived else 0.0)
    m["syntax.format_term.calls"] = tr.calls("syntax.format_term")
    m["syntax.format_term.self_s"] = tr.self_s("syntax.format_term")
    states = workload.states(prog, inputs, outs)
    hash_s = []
    for _ in range(3):
        t0 = CLOCK()
        for s in states:
            hash(s)
        hash_s.append(CLOCK() - t0)
    m["syntax.hash_us_per_state"] = statistics.median(hash_s) / max(len(states), 1) * 1e6
    m["syntax.term_nodes_max"] = max((term_nodes(prog.format_term(s)) for s in states),
                                     default=0)
    m["parsing.parse.calls"] = tr.calls("parsing.parse")
    m["parsing.parse.self_s"] = tr.self_s("parsing.parse")
    m["lts.build.self_s"] = tr.self_s("lts.build")
    m["lts.export.aut_s"] = tr.self_s("lts.export.aut")
    m["lts.export.json_s"] = tr.self_s("lts.export.json")
    m.update(dict.fromkeys(OUTPUT_METRICS, 0))
    m.update(workload.layer_metrics(outs))
    m["equivalence.bisimilar.self_s"] = tr.self_s("equivalence.bisimilar")
    m["equivalence.derive.calls"] = tr.calls("equivalence.derive")
    m["equivalence.derive.self_s"] = tr.self_s("equivalence.derive")
    m["equivalence.verify_witness.self_s"] = tr.self_s("equivalence.verify_witness")
    m["cli.steps.self_s"] = tr.self_s("cli.steps")
    per_layer = tr.layer_self_s()
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = per_layer.get(layer, 0.0)
    m["layer.harness.self_s"] = traced_s - spans_s
    m["trace.overhead_ratio"] = overhead
    m["trace.spans"] = tr.next_id
    m["run.failed_ratio"] = failed_ratio
    return m


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "papc", "__init__.py")):
        print("bench: no src/papc here; run from the root of a papc checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as handle:
        pins = json.load(handle)
    workload = WORKLOADS[args.workload]
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              **machine()}

    setup_raw, setup_s = [], []
    for _ in range(SETUPS):
        before = reference_loop()
        t0 = CLOCK()
        prog = Program()
        inputs = workload.setup(prog, args.seed)
        setup_raw.append(CLOCK() - t0)
        speed = (before + reference_loop()) / 2
        setup_s.append(setup_raw[-1] * REF_SECONDS / speed)
    oracles = Oracles()
    k = workload.op_count(inputs)
    timings = Timings(k)
    digests: list[str] = []
    seconds = args.seconds / 2 if args.trace else args.seconds
    outs, raw_passes, passes = timed_passes(workload, prog, inputs, seconds, timings, digests)
    failures = timings.failures

    if args.trace:
        tracer = tracing.Tracer()
        missing = patch_layers(tracer, prog)
        if missing:
            print(f"bench: not traced, missing: {', '.join(missing)}")
        traced = Timings(k)
        tracer.enabled = True
        outs, traced_raw, traced_s = one_pass(workload, prog, inputs, traced)
        spans_s = tracer.top_level_s()
        failures.update(traced.failures)
        if workload.name == "bisim":  # witness replay, traced for its self time
            for c, v in zip(inputs, outs):
                if v is not None and v.outcome == "not-bisimilar":
                    prog.verify_witness(c.left, c.right, v.witness, c.defs)
        tracer.enabled = False
        tracer.unpatch()
        digests.append(workload.digest(outs))

    # -- checks, outside the timed phase
    check_start = CLOCK()
    problems = []
    if len(set(digests)) != 1:
        problems.append(f"pass digests differ: {sorted(set(digests))}")
    pinned = pins.get(workload.name, {})
    for key, digest in workload.op_pins(inputs, outs).items():
        if digest != pinned.get(key):
            problems.append(f"{key!r}: output {digest} != pinned {pinned.get(key)}")
    problems += workload.check(prog, inputs, outs, oracles, args.seed)
    check_s = CLOCK() - check_start
    attempted = len(timings.entries) + (len(traced.entries) if args.trace else 0)
    failed = sum(failures.values()) + len(problems)
    correct = failed == 0

    record.update({
        "ops_per_pass": k, "passes": len(passes), "attempted": attempted,
        "failed": failed, "failures": dict(failures), "problems": problems[:20],
        "digest": digests[0],
        "setup_s_all": setup_s, "setup_s_raw": setup_raw,
        "pass_s_all": passes, "pass_s_raw": raw_passes,
        "ref_loop_s_median": statistics.median(timings.ref_s), "check_s": check_s,
        **workload.extra(outs, statistics.median(raw_passes)),
    })
    if args.trace:
        ladder_failures: Counter = Counter()
        width_ok, nesting_ok = size_ladder(prog, ladder_failures)
        values = layer_metrics(tracer, workload, prog, inputs, outs, traced_raw, spans_s,
                               traced_s / statistics.median(passes) - 1.0,
                               failed / attempted)
        values["parsing.max_width_ok"] = width_ok
        values["parsing.max_nesting_ok"] = nesting_ok
        values["parsing.ladder_failed"] = sum(ladder_failures.values())
        record["ladder_failures"] = dict(ladder_failures)
        declared = spec["per_layer"]
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{workload.name}-{args.seed}.jsonl"))
    else:
        per_op = timings.per_op_medians(scaled=True)
        per_op_raw = timings.per_op_medians(scaled=False)
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": sum(per_op),
            "op_p50_ms": statistics.median(per_op) * 1e3,
            "op_tail_ms": tail(per_op)[0] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["op_tail_percentile"] = tail(per_op)[1]
        record["raw"] = {"setup_s": statistics.median(setup_raw),
                         "wall_s": sum(per_op_raw),
                         "op_p50_ms": statistics.median(per_op_raw) * 1e3,
                         "op_tail_ms": tail(per_op_raw)[0] * 1e3}
        declared = spec["end_to_end"]
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}
    record["metrics"] = {name: v["value"] for name, v in metrics.items()}

    for problem in problems:
        print(f"bench: FAILED CHECK: {problem}")
    print("record " + json.dumps(record, sort_keys=True))
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"record-{workload.name}-{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
