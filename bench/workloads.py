"""The four workloads: seeded inputs, one timed pass, digests and checks.

Inputs are generated as text and parsed by the program, so the benchmark
depends only on papc's public functions and concrete syntax.  A pass runs the
workload's operations once, in order, each waiting for the one before it.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import importlib
import io
import itertools
import random
import re
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

MODEL = "models/cell_protein.papc"
REPLICATORS = "C1 := a.(C1 | C1); C2 := a:C2;"

# lts_*: roots (see lts_roots) and state bound shared by both step modes.
ROOTS_PER_MIX = 5
LTS_MAX_STATES = 40

# bisim: acceptance-6 style probe (a pair equal by an algebraic law, in a
# random context) at bounds small enough that the game-path checks, which end
# `unknown`, number in the dozens per pass rather than a handful per run.
# Unrelated pairs are consuming-only, so their joint spaces are finite and
# they are decided on the exact path.
PROBE_CHECKS = 240
PROBE_BOUNDS = (30, 4)
UNRELATED_PAIRS = 40
UNRELATED_BOUNDS = (200, 8)
REPLICATOR_LADDER = (20, 40, 60, 80)
ORACLE_LIMIT = 64  # joint states the naive bisimulation oracle is run on

# steps_wide: walks over a population of WIDE_GROUPS copies of `C | A | B`.
WIDE_GROUPS = 8
WALKS = 20
WALK_LENGTH = 4

# Reference loop, see Timings.  REF_SECONDS is about the loop's median time
# on the 2-vCPU Xeon machine the benchmark was tuned on, so scaled times read
# close to raw times there.  Over 90 s next to papc builds and derivations,
# the ratio of slowest to fastest 5% block of scaled latencies was 1.05-1.07
# with this loop, 1.13-1.21 with a dict-and-string loop, 1.20-1.24 with a
# loop over a 60,000-item list, and 1.4-1.7 unscaled.
REF_TREES = 40
REF_SECONDS = 0.0009
REF_EVERY = 0.05
REF_WINDOW = 0.25

CLOCK = time.perf_counter


def sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


class Program:
    """One fresh import of papc from ``src/``, plus the parsed cell model.

    The functions the benchmark calls are attributes here, so the traced run
    can route them through spans.
    """

    def __init__(self) -> None:
        for name in [m for m in sys.modules if m == "papc" or m.startswith("papc.")]:
            del sys.modules[name]
        self.syntax = importlib.import_module("papc.syntax")
        self.parsing = importlib.import_module("papc.parsing")
        self.semantics = importlib.import_module("papc.semantics")
        self.lts = importlib.import_module("papc.lts")
        self.equivalence = importlib.import_module("papc.equivalence")
        self.cli = importlib.import_module("papc.cli")
        self.parse = self.parsing.parse_process
        self.format_term = self.syntax.format_term
        self.build = self.lts.build
        self.export = self.lts.export
        self.bisimilar = self.equivalence.bisimilar
        self.verify_witness = self.equivalence.verify_witness
        self.cli_main = self.cli.main
        with open(MODEL, encoding="utf-8") as handle:
            self.model_defs, _ = self.parsing.parse_model(handle.read())

    def bounds(self, max_states: int, max_depth: int = 64, mode: str = "all"):
        return self.lts.Bounds(max_states=max_states, max_depth=max_depth,
                               step_mode=mode)


@dataclass(frozen=True)
class _Leaf:
    name: str


@dataclass(frozen=True)
class _Node:
    op: str
    left: object
    right: object


def _text(t) -> str:
    if isinstance(t, _Leaf):
        return t.name
    return f"({_text(t.left)} {t.op} {_text(t.right)})"


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop that does what papc mostly
    does: build small frozen-dataclass trees, hash them structurally, print
    them recursively and sort the results.  It shares no code with papc.
    The cyclic collector is paused, so the size of papc's heap does not leak
    into the measure."""
    gc.disable()
    try:
        start = CLOCK()
        seen: set = set()
        for i in range(REF_TREES):
            t = _Leaf("a")
            for j in range(6):
                t = _Node("|" if (i + j) % 2 else "+", t, _Leaf("bcd"[(i * j) % 3]))
            seen.add((_text(t), hash(t)))
        sorted(seen)
        return CLOCK() - start
    finally:
        gc.enable()


class Timings:
    """Operation latencies and failures for one or more passes.

    Shared machines change speed by tens of percent within seconds.  So a
    reference loop is timed between operations, at most every REF_EVERY
    seconds, and each latency can be scaled to the speed at which the loop
    takes REF_SECONDS: the latency times REF_SECONDS over the median loop
    time within REF_WINDOW seconds of the operation.
    """

    def __init__(self, n_ops: int):
        self.n_ops = n_ops
        self.entries: list[tuple[int, float, float]] = []  # (op, start, seconds)
        self.failures: Counter = Counter()
        self.ref_at: list[float] = []
        self.ref_s: list[float] = []
        self._next_ref = 0.0

    def run(self, i: int, fn):
        """Time operation ``i``; an exception counts as a failure of its class."""
        if CLOCK() >= self._next_ref:
            self.ref_at.append(CLOCK())
            self.ref_s.append(reference_loop())
            self._next_ref = CLOCK() + REF_EVERY
        start = CLOCK()
        try:
            out = fn()
        except Exception as exc:  # every failure is counted, none stops the pass
            self.failures[type(exc).__name__] += 1
            out = None
        self.entries.append((i, start, CLOCK() - start))
        return out

    def speed(self, t0: float, t1: float) -> float:
        """Median reference-loop time from REF_WINDOW before t0 to after t1."""
        lo = bisect.bisect_left(self.ref_at, t0 - REF_WINDOW)
        hi = bisect.bisect_right(self.ref_at, t1 + REF_WINDOW)
        if lo == hi:  # no sample that close: take the nearest one
            lo = min(max(lo - 1, 0), len(self.ref_s) - 1)
            hi = lo + 1
        return statistics.median(self.ref_s[lo:hi])

    def scaled(self, first: int = 0) -> list[tuple[int, float]]:
        """(op, scaled seconds) for the entries from ``first`` on."""
        return [(i, d * REF_SECONDS / self.speed(t, t + d))
                for i, t, d in self.entries[first:]]

    def per_op_medians(self, scaled: bool) -> list[float]:
        """Each operation's median latency over the passes that ran it."""
        by_op: list[list[float]] = [[] for _ in range(self.n_ops)]
        for i, d in (self.scaled() if scaled else [(i, d) for i, _, d in self.entries]):
            by_op[i].append(d)
        return [statistics.median(x) for x in by_op if x]


# ---------------------------------------------------------------------------
# text generators

_NODE = re.compile(r"\[~?\w+#\d+\][.:]|~?\w+[.:]|[+|]|\b0\b|\b[A-Z]\w*\b")


def term_nodes(text: str) -> int:
    """Syntax-tree size of a printed term: prefixes, operators and leaves."""
    return len(_NODE.findall(text))


def lts_roots() -> list[str]:
    """The model's own root, then ROOTS_PER_MIX orderings of every population
    with one or two cells, partners and slots, drawn once from a fixed seed."""
    rng = random.Random("lts catalogue")
    texts = ["C | A | B"]
    for counts in itertools.product((1, 2), repeat=3):
        species = [n for n, c in zip("CAB", counts) for _ in range(c)]
        for _ in range(ROOTS_PER_MIX):
            rng.shuffle(species)
            texts.append(" | ".join(species))
    return texts


def _action(rng: random.Random) -> str:
    return ("~" if rng.random() < 0.5 else "") + rng.choice("abg")


def finite_process(rng: random.Random, depth: int, conserving: bool = True) -> str:
    if depth <= 0 or rng.random() < 0.25:
        return "0"
    kind = rng.randrange(4)
    if kind == 1 and not conserving:
        kind = 0
    if kind == 0:
        return f"{_action(rng)}.({finite_process(rng, depth - 1, conserving)})"
    if kind == 1:
        return f"{_action(rng)}:({finite_process(rng, depth - 1, conserving)})"
    op = "+" if kind == 2 else "|"
    return (f"({finite_process(rng, depth - 1, conserving)}) {op} "
            f"({finite_process(rng, depth - 1, conserving)})")


def context(rng: random.Random, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.25:
        return "[]"
    kind = rng.randrange(4)
    if kind < 2:
        op = "+" if kind == 0 else "|"
        if rng.random() < 0.5:
            return f"({context(rng, depth - 1)}) {op} ({finite_process(rng, depth - 1)})"
        return f"({finite_process(rng, depth - 1)}) {op} ({context(rng, depth - 1)})"
    return f"{_action(rng)}{'.' if kind == 2 else ':'}({context(rng, depth - 1)})"


def variant_pair(rng: random.Random) -> tuple[str, str]:
    """Two processes equal by an algebraic law, hence bisimilar."""
    p, q = finite_process(rng, 2), finite_process(rng, 2)
    kind = rng.randrange(4)
    if kind == 0:
        return f"({p}) + ({q})", f"({q}) + ({p})"
    if kind == 1:
        return f"({p}) | ({q})", f"({q}) | ({p})"
    if kind == 2:
        return f"({p}) + 0", p
    return f"0 | ({p})", p


# ---------------------------------------------------------------------------
# lts_all / lts_system


class LtsWorkload:
    def __init__(self, mode: str):
        self.mode = mode
        self.name = f"lts_{mode}"

    def setup(self, prog: Program, seed: int):
        """The seed orders a fixed catalogue of roots.  Orderings drawn per
        seed made the median build spread by 7% from seed to seed, since one
        ordering of a population can cost 50% more than another."""
        texts = lts_roots()
        random.Random(f"lts:{seed}").shuffle(texts)
        return [(t, prog.parse(t)) for t in texts]

    def run_pass(self, prog: Program, roots, timings: Timings):
        bounds = prog.bounds(LTS_MAX_STATES, mode=self.mode)
        defs = prog.model_defs

        def op(root):
            lts = prog.build(root, defs, bounds)
            return lts, prog.export(lts, "aut"), prog.export(lts, "json")

        return [timings.run(i, lambda: op(root)) for i, (_, root) in enumerate(roots)]

    @staticmethod
    def _op_digest(out) -> str:
        return "-" if out is None else sha(out[1]) + sha(out[2])

    def digest(self, outs) -> str:
        return sha("\n".join(self._op_digest(o) for o in outs))

    def op_pins(self, roots, outs) -> dict:
        return {text: self._op_digest(o) for (text, _), o in zip(roots, outs)}

    def op_count(self, roots) -> int:
        return len(roots)

    def states(self, prog: Program, roots, outs):
        return [s for o in outs if o is not None for s in o[0].states]

    def layer_metrics(self, outs) -> dict:
        done = [o for o in outs if o is not None]
        edges = sum(len(o[0].edges) for o in done)
        # every state but the root is entered by exactly one first edge;
        # every other edge found its target already indexed
        hits = edges - sum(len(o[0].states) - 1 for o in done)
        return {
            "lts.dedup_hit_ratio": hits / edges if edges else 0.0,
            "lts.truncated": sum(len(o[0].truncated) for o in done),
            "lts.export_bytes": sum(len(o[1]) + len(o[2]) for o in done),
        }

    def check(self, prog: Program, roots, outs, oracles, seed: int) -> list[str]:
        """A seeded sample of expanded states: each relation against the
        naive oracle, and the state's exported edges against their union."""
        oracle = oracles.rules
        relations = (
            ("H", prog.semantics.handshake_steps, oracle.h_steps),
            ("I", prog.semantics.interrupt_steps, oracle.i_steps),
            ("CP", prog.semantics.preemptive_completions, oracle.cp_steps),
            ("CC", prog.semantics.conservative_completions, oracle.cc_steps),
        )
        defs = prog.model_defs
        rng = random.Random(f"lts-check:{seed}")
        problems = []
        candidates = [(k, i) for k, o in enumerate(outs) if o is not None
                      for i in range(len(o[0].states)) if i not in o[0].truncated]
        for k, i in rng.sample(candidates, min(30, len(candidates))):
            lts = outs[k][0]
            state = lts.states[i]
            union = set()
            for tag, engine, naive in relations:
                want = naive(state, defs)
                union |= want
                if oracle.engine_view(engine(state, defs)) != want:
                    problems.append(f"{self.name}: root {k} state {i}: {tag} differs from the oracle")
            if self.mode == "system":
                union = {(lab, t) for lab, t in union if _is_system(lab)}
            got = {(lab, t) for lab, t in _edge_view(oracle, lts, i)}
            if got != union:
                problems.append(f"{self.name}: root {k} state {i}: edges differ from the oracle")
        return problems

    def extra(self, outs, wall_s: float) -> dict:
        edges = sum(len(o[0].edges) for o in outs if o is not None)
        return {"edges_per_pass": edges, "edges_per_s": edges / wall_s}


class _Edge:
    __slots__ = ("label", "target")

    def __init__(self, label, target):
        self.label, self.target = label, target


def _edge_view(oracle, lts, i: int):
    return oracle.engine_view([_Edge(label, lts.states[dst])
                               for src, label, _, dst in lts.edges if src == i])


def _is_system(label) -> bool:
    """A tau start, or a tau preemptive completion demanding nothing."""
    if isinstance(label, frozenset) or len(label) not in (2, 3):
        return False
    action = label[1]
    return action.name is None and (len(label) == 2 or not label[2])


# ---------------------------------------------------------------------------
# bisim


class Check(NamedTuple):
    key: str  # catalogue entry, the same under every seed
    kind: str
    left: object
    right: object
    defs: object
    bounds: object


def catalogue() -> list[tuple[str, str, str]]:
    """(kind, left, right) texts, drawn once from a fixed seed."""
    rng = random.Random("bisim catalogue")
    out = []
    while len(out) < PROBE_CHECKS:
        left, right = variant_pair(rng)
        if left == right:
            continue  # reflexive pairs are decided without any work
        ctx = context(rng, 3)
        out.append(("probe", ctx.replace("[]", f"({left})"), ctx.replace("[]", f"({right})")))
    while len(out) < PROBE_CHECKS + UNRELATED_PAIRS:
        left = finite_process(rng, 3, conserving=False)
        right = finite_process(rng, 3, conserving=False)
        if left != right:
            out.append(("unrelated", left, right))
    return out


_ACTION = re.compile(r"(~?)([abg])(?=[.:])")


def relabel(text: str, names: dict, flip: bool) -> str:
    """Rename actions injectively and optionally swap every polarity; both
    preserve complements, hence verdicts and the cost of each check."""
    return _ACTION.sub(lambda m: ("~" if bool(m.group(1)) != flip else "") + names[m.group(2)],
                       text)


class BisimWorkload:
    """The seed relabels actions and orders the checks of one fixed
    catalogue.  A catalogue drawn per seed made the pass time and the median
    check spread by 20-36% from seed to seed: check costs are heavy-tailed,
    and a few hundred draws do not average that out."""

    name = "bisim"

    def setup(self, prog: Program, seed: int):
        rng = random.Random(f"bisim:{seed}")
        names = dict(zip("abg", rng.sample("abg", 3)))
        flip = rng.random() < 0.5
        empty = prog.syntax.EMPTY_DEFINITIONS
        bounds = {"probe": prog.bounds(*PROBE_BOUNDS),
                  "unrelated": prog.bounds(*UNRELATED_BOUNDS)}
        checks = [Check(f"{kind} {i}", kind, prog.parse(relabel(left, names, flip)),
                        prog.parse(relabel(right, names, flip)), empty, bounds[kind])
                  for i, (kind, left, right) in enumerate(catalogue())]
        replicators = prog.parsing.parse_definitions(REPLICATORS)
        c1, c2 = prog.parse("C1"), prog.parse("C2")
        checks += [Check(f"replicator {m}", "replicator", c1, c2, replicators, prog.bounds(m))
                   for m in REPLICATOR_LADDER]
        rng.shuffle(checks)
        return checks

    def run_pass(self, prog: Program, checks, timings: Timings):
        bisimilar = prog.bisimilar
        return [timings.run(i, lambda: bisimilar(c.left, c.right, c.defs, c.bounds))
                for i, c in enumerate(checks)]

    def digest(self, verdicts) -> str:
        return sha("\n".join("-" if v is None else v.outcome for v in verdicts))

    def op_pins(self, checks, verdicts) -> dict:
        return {c.key: "-" if v is None else v.outcome for c, v in zip(checks, verdicts)}

    def op_count(self, checks) -> int:
        return len(checks)

    def states(self, prog: Program, checks, verdicts):
        return [t for c in checks for t in (c.left, c.right)]

    def layer_metrics(self, verdicts) -> dict:
        done = [v for v in verdicts if v is not None]
        out = {f"equivalence.outcome.{o}": 0 for o in ("bisimilar", "not-bisimilar", "unknown")}
        out.update({f"equivalence.path.{p}": 0 for p in _PATHS.values()})
        for v in done:
            out[f"equivalence.outcome.{v.outcome}"] += 1
            out[f"equivalence.path.{_path(v)}"] += 1
        out["equivalence.witness_len_max"] = max((len(v.witness) for v in done), default=0)
        out["equivalence.decided_ratio"] = _decided(verdicts)
        return out

    def check(self, prog: Program, checks, verdicts, oracles, seed: int) -> list[str]:
        problems = []
        for (key, kind, left, right, defs, _), v in zip(checks, verdicts):
            if v is None:
                continue
            where = f"bisim: {key}"
            if kind == "probe" and v.outcome == "not-bisimilar":
                problems.append(f"{where}: a pair equal by an algebraic law was distinguished")
            if kind == "replicator" and (v.outcome != "not-bisimilar" or len(v.witness) > 2):
                problems.append(f"{where}: expected a witness of at most two steps")
            if v.outcome == "not-bisimilar" and not prog.verify_witness(left, right, v.witness, defs):
                problems.append(f"{where}: the witness does not replay")
            if v.outcome != "unknown" and _path(v) != "identical":
                try:
                    space = oracles.bisim.joint_space((left, right), defs, ORACLE_LIMIT)
                except RuntimeError as exc:
                    if type(exc) is not RuntimeError:
                        raise
                    continue  # joint space beyond the oracle's limit
                want = (left, right) in oracles.bisim.largest_bisimulation(space)
                if want != v.is_bisimilar:
                    problems.append(f"{where}: {v.outcome}, but the oracle disagrees")
        return problems

    def extra(self, verdicts, wall_s: float) -> dict:
        return {"checks_per_s": len(verdicts) / wall_s,
                "decided_ratio": _decided(verdicts)}


_PATHS = {"identical": "identical", "exact": "exact", "distinguished": "distinguished",
          "joint": "exceeded", "game": "budget"}


def _path(verdict) -> str:
    return _PATHS.get(verdict.detail.split(" ", 1)[0], "other")


def _decided(verdicts) -> float:
    return sum(v is not None and v.outcome != "unknown" for v in verdicts) / len(verdicts)


# ---------------------------------------------------------------------------
# steps_wide


class StepsWorkload:
    """Each walk's picks come from a fixed per-walk seed; the run's seed
    orders the walks.  Walks drawn per seed spread the median step by 10-20%
    from seed to seed, more than the bounds allow."""

    name = "steps_wide"

    def setup(self, prog: Program, seed: int):
        start = " | ".join(["C | A | B"] * WIDE_GROUPS)
        prog.parse(start)  # fail in set-up, not in the first step
        walks = list(range(WALKS))
        random.Random(f"steps:{seed}").shuffle(walks)
        return {"start": start, "walks": walks}

    def run_pass(self, prog: Program, inputs, timings: Timings):
        """``papc steps`` calls along the walks; the next configuration is
        picked from the printed lines, so every step parses what the one
        before it printed."""
        outs = []
        main = prog.cli_main
        for walk in inputs["walks"]:
            rng = random.Random(f"steps walk {walk}")
            config = inputs["start"]
            for _ in range(WALK_LENGTH):
                if config is None:  # the walk broke off at a failed step
                    outs.append(None)
                    continue
                buf = io.StringIO()
                argv = ["steps", MODEL, "--from", config]
                code = timings.run(len(outs), lambda: main(argv, out=buf))
                text = buf.getvalue()
                lines = text.splitlines()
                if code != 0 or not lines:
                    if code is not None:
                        timings.failures[f"exit{code}"] += 1
                    outs.append(None)
                    config = None
                    continue
                pick = rng.randrange(len(lines))
                outs.append((config, text, pick))
                config = lines[pick].rsplit(" -> ", 1)[1]
        return outs

    def op_count(self, inputs) -> int:
        return WALKS * WALK_LENGTH

    def digest(self, outs) -> str:
        return sha("\n".join("-" if o is None else f"{o[0]}\n{o[1]}{o[2]}" for o in outs))

    def op_pins(self, inputs, outs) -> dict:
        return {f"walk {w}": self.digest(outs[i * WALK_LENGTH:(i + 1) * WALK_LENGTH])
                for i, w in enumerate(inputs["walks"])}

    def states(self, prog: Program, inputs, outs):
        return [prog.parse(o[0]) for o in outs if o is not None]

    def layer_metrics(self, outs) -> dict:
        return {}

    def check(self, prog: Program, inputs, outs, oracles, seed: int) -> list[str]:
        """A seeded sample of steps: printed lines against the oracle."""
        oracle = oracles.rules
        defs = prog.model_defs
        rng = random.Random(f"steps-check:{seed}")
        done = [k for k, o in enumerate(outs) if o is not None]
        problems = []
        for k in sorted(rng.sample(done, min(4, len(done)))):
            config_text, text, _ = outs[k]
            config = prog.parse(config_text)
            want = (oracle.h_steps(config, defs) | oracle.i_steps(config, defs)
                    | oracle.cp_steps(config, defs) | oracle.cc_steps(config, defs))
            lines = text.splitlines()
            got = {_read_line(prog, line) for line in lines}
            if got != want or len(lines) != len(want):
                problems.append(f"steps_wide: step {k}: printed transitions differ from the oracle")
        return problems

    def extra(self, outs, wall_s: float) -> dict:
        lines = sum(o[1].count("\n") for o in outs if o is not None)
        return {"transitions_per_s": lines / wall_s}


def _read_action(prog: Program, text: str):
    if text == "tau":
        return prog.syntax.TAU
    return prog.syntax.Action(text.lstrip("~"), text.startswith("~"))


def _read_ids(text: str) -> frozenset:
    return frozenset(int(x) for x in text.strip("{}").split(",") if x)


def _read_line(prog: Program, line: str):
    """A printed transition as the oracle's (label tuple, target) pair."""
    label, target = line.rsplit(" -> ", 1)
    target = prog.parse(target)
    head, _, cont = label.partition(" -> ")
    parts = head.split(" ")
    if parts[0] == "I":
        return _read_ids(parts[1]), target
    ident, action = int(parts[1]), _read_action(prog, parts[2][:-1])
    if parts[0] == "H":
        return (ident, action), target
    if parts[0] == "CP":
        return (ident, action, _read_ids(parts[3])), target
    return (ident, action, _read_ids(parts[3]), prog.parse(cont)), target


WORKLOADS = {w.name: w for w in (LtsWorkload("all"), LtsWorkload("system"),
                                 BisimWorkload(), StepsWorkload())}
