"""Run bench/run.py in two checkouts in alternating pairs and summarize them.

From the root of a checkout:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload lts_system --workload bisim --pairs 10 --seconds 20 --out BENCH.json

Each pair runs ``python3 bench/run.py --trace 0`` once in each checkout, with
one seed per pair, distinct across the whole run; even pairs run the parent
first, odd pairs the change.  Pairs go round the workloads in turn, so a slow
spell of the machine touches every workload alike.  Each run's last line and
its ``.bench_out`` record are kept, so both checkouts may be the same
directory.  The output holds ``description``, ``machine``, ``runs`` and a
per-workload ``summary``: pairs, exit codes, whether every run read correct,
whether each pair's pass digests are equal, failed operations per side, and
for each end-to-end metric of ``BENCHMARK.json`` its bound, each side's median
and quartiles, the pairs the change reads lower, the ratio of the medians and
whether the change's median stays within the bound.  ``peak_rss_mb`` also lists
each pair with the passes each run fitted, as peak RSS grows with the passes.
The script exits 0 once the output is written, whatever the runs read.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--parent", required=True, help="checkout measured as the baseline")
    parser.add_argument("--change", required=True, help="checkout measured against it")
    parser.add_argument("--workload", required=True, action="append",
                        help="a workload of BENCHMARK.json; repeat for several")
    parser.add_argument("--pairs", type=int, required=True, help="pairs per workload")
    parser.add_argument("--seconds", type=float, required=True, help="bench/run.py --seconds")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    return parser.parse_args(argv)


def revision(checkout: str) -> str:
    """The checkout's commit, marked when its files differ from it; else its path."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=checkout, capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return os.path.abspath(checkout)
    return rev + (" with uncommitted changes" if dirty.strip() else "")


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py run: its exit code, parsed last line and record."""
    path = os.path.join(checkout, ".bench_out", f"record-{workload}-{seed}-t0.json")
    if os.path.exists(path):
        os.remove(path)  # a run that writes none must not read a stale one
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, ValueError):
        last = None
    try:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, ValueError):
        record = None
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
    return {"exit_code": done.returncode, "last_line": last, "record": record}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """The summary of one workload's runs."""
    by_seed: dict[int, dict] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run
    pairs = [p for p in by_seed.values() if all(p.get(side, {}).get("record") for side in SIDES)]
    summary = {
        "pairs": len(by_seed),
        "exit_codes": sorted({run["exit_code"] for run in runs}),
        "correct": all(run["exit_code"] == 0 and (run["last_line"] or {}).get("correct") is True
                       for run in runs),
        "digests_equal": len(pairs) == len(by_seed) and all(
            p["parent"]["record"]["digest"] == p["change"]["record"]["digest"] for p in pairs),
        "failed": {side: sum(run["record"]["failed"] if run["record"] else 1
                             for run in runs if run["side"] == side) for side in SIDES},
    }
    for metric in metrics:
        if not pairs:
            break
        name = metric["name"]
        values = {side: [p[side]["record"]["metrics"][name] for p in pairs] for side in SIDES}
        lower = metric["better"] == "lower"
        parent, change = (statistics.median(values[side]) for side in SIDES)
        entry = {"bound": metric["bound"]}
        for side, median in zip(SIDES, (parent, change)):
            q1, q3 = quartiles(values[side])
            entry.update({f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3})
        entry["change_wins"] = sum((c < p) if lower else (c > p)
                                   for p, c in zip(values["parent"], values["change"]))
        entry["ratio"] = change / parent if parent else None
        entry["within_bound"] = (change <= parent * (1 + metric["bound"]) if lower
                                 else change >= parent * (1 - metric["bound"]))
        if name == "peak_rss_mb":
            entry["per_pair"] = [
                {"seed": p["parent"]["seed"],
                 **{side: {name: p[side]["record"]["metrics"][name],
                           "passes": p[side]["record"]["passes"]} for side in SIDES}}
                for p in pairs]
        summary[name] = entry
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    unknown = set(args.workload) - {w["name"] for w in spec["workloads"]}
    if unknown:
        print(f"bench_pairs: no such workload: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    checkouts = {"parent": args.parent, "change": args.change}
    runs: list[dict] = []
    seed = 0
    for pair in range(args.pairs):
        for workload in args.workload:
            seed += 1
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                print(f"bench_pairs: {workload} seed {seed} {side}", file=sys.stderr, flush=True)
                run = run_once(checkouts[side], workload, seed, args.seconds)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "ran_first": side == order[0], **run})
    first = next((run["record"] for run in runs if run["record"]), {})
    output = {
        "description": (
            f"bench/run.py records, parent ({revision(args.parent)}) vs change "
            f"({revision(args.change)}); {args.pairs} pairs per workload, "
            f"--seconds {args.seconds:g} --trace 0, one seed per pair (1 to {seed}), "
            "even pairs parent first, odd pairs change first, "
            "run with PYTHONDONTWRITEBYTECODE=1. Times are scaled by the benchmark's "
            "reference loop; raw times are in each record. Quartiles: "
            "statistics.quantiles(n=4, method='inclusive') over the runs of a side; "
            "within_bound: change median <= parent median * (1 + bound); change_wins: "
            "pairs where the change reads lower; digests_equal: each seed's pass digest "
            "is the same on both sides."),
        "machine": {key: first.get(key) for key in ("cpu", "nproc", "python")},
        "runs": runs,
        "summary": {w: summarize([run for run in runs if run["workload"] == w], spec["end_to_end"])
                    for w in args.workload},
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(output, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
