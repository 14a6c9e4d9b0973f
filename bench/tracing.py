"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of every groupcomm layer from the
benchmark's own files; no program file is touched.  Most layers import each
other's functions with ``from .x import y``, so a function is replaced in
every module that binds it (``simnet.attention_score``,
``neuralnet.build_matching_matrix``, ``evalcli.train`` ...), not only where it
is defined: patching the defining module alone would measure nothing.  Rng
methods are replaced on the class.

Each call records a span in compact in-memory columns: name, tag (the case or
policy argument where the span is split by one), start, end, the enclosing
span, and the id of the unit of work it belongs to (the episode being
generated, the training step, or the policy episode being evaluated; the id
is the number of such units finished when the span started).  Aggregates are
computed once, when the run ends: inclusive time, self time (duration minus
the part covered by direct child spans) and per-call percentiles.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from array import array
from collections import Counter

import numpy as np

BASIC = ("calls", "s", "self_s")
TIMED = BASIC + ("us_p50", "us_p99")

# Declared spans, "<module>.<attribute>", and the statistics each reports.
SPANS = {
    "densemath.Rng.u64": BASIC,
    "densemath.Rng.randint": BASIC,
    "densemath.Rng.normal": BASIC,
    "densemath.softmax_row": BASIC,
    "scenarios.generate_episode": TIMED,
    "scenarios.save_dataset": ("s",),
    "scenarios.load_dataset": ("s",),
    "scenarios.make_world": ("s",),
    "commgraph.build_matching_matrix": TIMED,
    "commgraph.attention_score": BASIC,
    "commgraph.fuse": BASIC,
    "commgraph.prune": BASIC,
    "neuralnet.train": ("s",),
    "neuralnet.episode_loss_and_grads": BASIC,
    "neuralnet.pipeline_forward": TIMED,
    "neuralnet.pipeline_backward": TIMED,
    "neuralnet.adam_step": TIMED,
    "neuralnet.mlp_forward": BASIC,
    "neuralnet.mlp_backward": BASIC,
    "neuralnet.evaluate_task_accuracy": ("calls", "s"),
    "neuralnet.load_checkpoint": ("s",),
    "simnet.make_agents": BASIC,
    "simnet.run_handshake": TIMED,
    "simnet.run_transmission": TIMED,
    "simnet.ledger_from_trace": BASIC,
    "simnet.dump_trace": ("s",),
    "evalcli.evaluate": (),
    "evalcli.run_policy_episode": (),
    "evalcli.grouping_accuracy": ("s",),
}


def _case(args, kwargs):
    return (args[0] if args else kwargs["world"]).case


def _policy(args, kwargs):
    return args[0] if args else kwargs["policy"]


# Spans also reported per value of one argument: (tag source, statistics).
TAGGED = {
    "scenarios.generate_episode": (_case, ("us_p50",)),
    "evalcli.evaluate": (_policy, ("s",)),
    "evalcli.run_policy_episode": (_policy, ("us_p50", "us_p99")),
}

# A span of these names finishes one unit of work (episode or step).
UNIT_SPANS = ("scenarios.generate_episode", "neuralnet.adam_step", "evalcli.run_policy_episode")

OVERHEAD = "tracing.overhead"


def _count_words(tracer, args, result):
    tracer.counts["u64_words"] += int(result.size)


def _count_saved(tracer, args, result):
    tracer.counts["saved_bytes"] += os.path.getsize(args[0])


def _count_dump(tracer, args, result):
    tracer.counts["dumped_bytes"] += os.path.getsize(args[0])
    if tracer.first_dump is None:
        tracer.first_dump = list(args[1])


HOOKS = {
    "densemath.Rng.u64": _count_words,
    "scenarios.save_dataset": _count_saved,
    "simnet.dump_trace": _count_dump,
}


class Tracer:
    """Records spans of the declared functions while installed."""

    def __init__(self):
        self._names: list[str] = []
        self._tags: list[str] = [""]
        self.name = array("i")
        self.tag = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.units = 0
        self.counts: Counter = Counter()
        self.first_dump: list | None = None

    def _tag_id(self, tag: str) -> int:
        try:
            return self._tags.index(tag)
        except ValueError:
            self._tags.append(tag)
            return len(self._tags) - 1

    def _wrap(self, span: str, fn):
        self._names.append(span)
        name_id = len(self._names) - 1
        tag_of = TAGGED[span][0] if span in TAGGED else None
        ends_unit = span in UNIT_SPANS
        hook = HOOKS.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.tag.append(self._tag_id(tag_of(args, kwargs)) if tag_of else 0)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.unit.append(self.units)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if ends_unit:
                self.units += 1
            if hook:
                hook(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Wrap every declared span at each binding in ``modules``; undo on exit."""
        patches = []
        try:
            for span in SPANS:
                layer, attr = span.split(".", 1)
                owner = modules[layer]
                if "." in attr:  # a method: replace it on its class
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[method]
                    patches.append((cls, method, original))
                    setattr(cls, method, self._wrap(span, original))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(span, original)
                for module in modules.values():
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, binding, original))
                            setattr(module, binding, wrapper)
            yield self
        finally:
            for obj, attr, original in reversed(patches):
                setattr(obj, attr, original)

    def metrics(self, cases, policies, ledger_from_trace) -> dict[str, float]:
        """Aggregate the recorded spans into the per-layer metrics.

        Raises RuntimeError naming every declared span (or span and tag) that
        recorded no call, since its wrapper then sits where no caller looks.
        """
        name = np.asarray(self.name, dtype=np.int64)
        tag = np.asarray(self.tag, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        unit = np.asarray(self.unit, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        covered = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        self_time = dur - covered

        def stat(mask, which):
            if which == "calls":
                return int(mask.sum())
            if which == "s":
                return float(dur[mask].sum())
            if which == "self_s":
                return float(self_time[mask].sum())
            pct = {"us_p50": 50, "us_p99": 99}[which]
            return float(np.percentile(dur[mask], pct) * 1e6)

        out: dict[str, float] = {}
        silent = []
        for span, stats in SPANS.items():
            mask = name == self._names.index(span)
            if not mask.any():
                silent.append(span)
                continue
            for which in stats:
                out[f"{span}.{which}"] = stat(mask, which)
            if span in TAGGED:
                tags = cases if span.startswith("scenarios.") else policies
                for value in tags:
                    tag_mask = mask & (tag == self._tag_id(value))
                    if not tag_mask.any():
                        silent.append(f"{span}[{value}]")
                        continue
                    for which in TAGGED[span][1]:
                        out[f"{span}.{value}.{which}"] = stat(tag_mask, which)
        if silent or self.first_dump is None:
            raise RuntimeError(f"declared spans recorded no calls: {silent or ['simnet.dump_trace']}")

        u64 = name == self._names.index("densemath.Rng.u64")
        out["densemath.Rng.words_per_call"] = self.counts["u64_words"] / int(u64.sum())
        out["scenarios.save_dataset.bytes"] = self.counts["saved_bytes"]
        out["simnet.dump_trace.bytes"] = self.counts["dumped_bytes"]

        # mlp_forward calls made inside training episodes, per training step:
        # spans below an episode_loss_and_grads span, grouped by step id.
        in_training = np.zeros(len(name), dtype=bool)
        episode_span = self._names.index("neuralnet.episode_loss_and_grads")
        ancestor = parent.copy()
        while (ancestor >= 0).any():
            live = ancestor >= 0
            in_training[live] |= name[ancestor[live]] == episode_span
            ancestor[live] = parent[ancestor[live]]
        forward = in_training & (name == self._names.index("neuralnet.mlp_forward"))
        out["neuralnet.mlp_forward.per_step"] = int(forward.sum()) / len(np.unique(unit[forward]))

        # Message counts of the first dumped (when2com) evaluation pass.
        kinds = Counter(msg.kind for msg in self.first_dump)
        for kind in ("query", "score", "request", "transfer"):
            out[f"simnet.msgs.{kind}"] = kinds[kind]
        ledger = ledger_from_trace(self.first_dump, frames=0)
        out["simnet.counted_bytes"] = ledger.counted_bytes
        out["simnet.control_bytes"] = ledger.control_bytes
        # Every episode broadcasts N(N-1) queries, so queries count the
        # possible directed transfers.
        out["simnet.transfer_yield"] = kinds["transfer"] / kinds["query"]
        return out
