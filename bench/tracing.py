"""In-memory span tracing around the program's public functions.

`Tracer.install()` replaces each traced function at the name its caller looks
up (for example `mplr.training.rank_among`, which `evaluate` calls) with a
wrapper that records a span: name, start, end and the index of the enclosing
span. `uninstall()` puts the originals back. Spans stay in memory until
`dump()` writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import mplr.indicators
import mplr.operators
import mplr.training


def _batch_counts(args, kwargs):
    queries = args[2] if len(args) > 2 else kwargs["queries"]
    return {
        "model.target_pairs": sum(len(q.targets) for q in queries),
        "model.predicate_groups": len({q.query for q in queries}),
    }


def _rule_counts(args, kwargs):
    params = args[0]
    return {"model.rule_sequences": params.num_operators ** params.max_len}


# span name -> counts taken from the call's arguments
COUNTERS = {
    "model.loss_and_gradients": _batch_counts,
    "model.extract_rules": _rule_counts,
}

# functions called inside the program: (owner, attribute, span name)
TRACED = (
    (mplr.operators.OperatorSet, "combine", "operators.combine"),
    (mplr.operators.OperatorSet, "combine_t", "operators.combine"),
    (mplr.indicators, "count_paths", "operators.count_paths"),
    (mplr.training, "loss_and_gradients", "model.loss_and_gradients"),
    (mplr.training, "attention_forward", "model.attention_forward"),
    (mplr.training, "score_entities", "model.score_entities"),
    (mplr.training, "rank_among", "training.rank_among"),
    (mplr.training.AdamOptimizer, "step", "training.adam_step"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self._pending: list[list] = []
        self._originals = []

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named `name`; returns fn's result."""
        if name in COUNTERS:
            for key, n in COUNTERS[name](args, kwargs).items():
                self.counts[key] += n
        slot = len(self._pending)
        parent = self._open[-1] if self._open else -1
        self._pending.append([name, 0.0, 0.0, parent])
        self._open.append(slot)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self._pending[slot][1:3] = [start, end]
            self.counts[name + "_calls"] += 1

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    @property
    def installed(self):
        return bool(self._originals)

    def install(self):
        for owner, attr, name in TRACED:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def take(self):
        """Close the current window: returns (spans, counts) since the last take."""
        spans = [tuple(s) for s in self._pending]
        counts = dict(self.counts)
        offset = len(self.spans)
        self.spans.extend(
            (name, start, end, parent + offset if parent >= 0 else -1)
            for name, start, end, parent in spans
        )
        self._pending.clear()
        self.counts.clear()
        return spans, counts

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh
            )


def layer_times(spans):
    """Per span name: (total time, self time) summed over `spans`.

    Self time is a span's duration minus the durations of its direct children;
    the session is single-threaded, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    total, own = defaultdict(float), defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child[i]
    return total, own
