"""Regenerate bench/pins.json from the program in src/.

From the root of a checkout:

    python3 bench/pin.py

Every seed runs the same catalogue of operations in another order, so this
pins the output of every operation any run can make: the aut and json
exports of every lts root in both step modes, the outcome of every bisim
check, and the transcript of every steps_wide walk.  Run it only
when an output change is intended and justified; the oracle checks of
bench/run.py do not read the pins and must still pass.
"""

from __future__ import annotations

import json
import os
import sys

from workloads import WORKLOADS, Program, Timings

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    sys.path.insert(0, os.path.abspath("src"))
    prog = Program()
    pins = {}
    for name, workload in sorted(WORKLOADS.items()):
        inputs = workload.setup(prog, 0)  # every seed runs the whole catalogue
        timings = Timings(workload.op_count(inputs))
        outs = workload.run_pass(prog, inputs, timings)
        if timings.failures:
            raise SystemExit(f"{name}: operations failed: {dict(timings.failures)}")
        pins[name] = workload.op_pins(inputs, outs)
        print(f"pinned {name}: {len(pins[name])} operations", flush=True)
    with open(os.path.join(HERE, "pins.json"), "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
