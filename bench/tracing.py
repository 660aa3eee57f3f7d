"""Spans around the calls each papc layer makes into the next.

The tracer replaces module attributes (``papc.lts.all_steps``,
``papc.semantics.format_term``, ...) with timing wrappers, so no file under
``src/`` changes.  Each span has a name, start, end and parent.  Self time is
a span's duration minus the time its child spans cover; it is accumulated as
spans close, keyed by (name, parent name).  Raw spans are kept in memory, up
to a cap, and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# Top-level derivations: one call per state (lts), per step (cli) or per
# joint state (equivalence).
DERIVE_SPANS = ("semantics.all_steps", "semantics.system_steps", "equivalence.derive")

# Where a span's self time is booked when self time is summed per layer.
# equivalence.derive is the semantics code equivalence calls, so its self
# time is union, sort and dedup done in semantics.
_LAYER_OF = {"equivalence.derive": "semantics", "semantics.label_text": "semantics"}


def layer_of(name: str) -> str:
    return _LAYER_OF.get(name, name.split(".", 1)[0])


class Tracer:
    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.next_id = 0
        self.stack: list[list] = []  # [span id, name, child seconds]
        # (name, parent name) -> [calls, total s, self s, items]
        self.agg: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.derive_s: list[float] = []
        self.enabled = False
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, count=None):
        """A callable that runs ``fn`` inside a span; ``name`` may be a
        function of the call's arguments; ``count`` maps the result to the
        number of items it carries (transitions, say)."""

        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_name = name(*args, **kwargs) if callable(name) else name
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1] if stack else None
            frame = [sid, span_name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent_name = parent[1] if parent else ""
                entry = self.agg[(span_name, parent_name)]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if span_name in DERIVE_SPANS and parent_name not in DERIVE_SPANS:
                    self.derive_s.append(duration)
                if sid < self.span_cap:
                    self.spans.append((sid, span_name, start, end,
                                       parent[0] if parent else -1))
            if count is not None:
                entry[3] += count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr: str, name, count=None) -> bool:
        """Replace ``module.attr`` by a traced wrapper; False when missing."""
        fn = getattr(module, attr, None)
        if fn is None:
            return False
        self._patched.append((module, attr, fn))
        setattr(module, attr, self.wrap(name, fn, count))
        return True

    def unpatch(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # -- summaries

    def calls(self, name: str) -> int:
        return sum(v[0] for (n, _), v in self.agg.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(v[2] for (n, _), v in self.agg.items() if n == name)

    def items(self, name: str, parent: str | None = None) -> int:
        return sum(v[3] for (n, p), v in self.agg.items()
                   if n == name and (parent is None or p == parent))

    def top_level_s(self) -> float:
        return sum(v[1] for (_, p), v in self.agg.items() if p == "")

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for (n, _), v in self.agg.items():
            out[layer_of(n)] += v[2]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent in self.spans:
                handle.write(json.dumps({"id": sid, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")
