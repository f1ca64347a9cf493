"""Spans and counts recorded from outside the program.

``Tracer.install`` wraps public functions of ``quest.*``: every module
attribute that holds the original function is replaced by the wrapper, so
calls through ``from .x import f`` bindings are seen too. A wrapper records
one span (name, request id, parent span, start, end, phase) and, on return,
adds to the layer's counters. Spans stay in memory until ``write`` is called.

A span's request id is the ``Query.id`` among its arguments, else its
parent's. Self time is a span's duration minus that of its child spans; the
benchmark runs in one thread, so children never overlap.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

from quest import cli, engine, evalkit, optim, supervision
from quest.backend import reference, serialize


def _request_of(args, kwargs) -> Optional[str]:
    query = kwargs.get("query", args[1] if len(args) > 1 else None)
    return getattr(query, "id", None) if isinstance(query, supervision.Query) else None


def _count_generate(counts, args, kwargs, result):
    prompt = kwargs.get("prompt", args[1] if len(args) > 1 else ())
    counts["backend.generate.calls"] += 1
    counts["backend.generate.prompt_tokens"] += len(prompt)
    counts["backend.generate.new_tokens"] += len(result)


def _count_grads(counts, args, kwargs, result):
    tokens = kwargs.get("tokens", args[1] if len(args) > 1 else ())
    counts["backend.grads.calls"] += 1
    counts["backend.grads.tokens"] += len(tokens)


def _count_adamw(counts, args, kwargs, result):
    counts["optim.adamw_step.calls"] += 1


def _count_dataset(counts, args, kwargs, result):
    counts["supervision.pairs"] += len(result.pairs)
    counts["supervision.generation_calls"] += result.calls


# (owner, attribute, span name, counter); the owner is a class for methods.
TARGETS = [
    (reference.ReferenceBackend, "generate", "backend.generate", _count_generate),
    (reference.ReferenceBackend, "masked_nll_with_grads", "backend.grads", _count_grads),
    (reference.ReferenceBackend, "entropy_with_grads", "backend.grads", _count_grads),
    (optim.AdamW, "step", "optim.adamw_step", _count_adamw),
    (engine, "adapt", "engine.adapt", None),
    (engine, "base_answer", "engine.base_answer", None),
    (engine, "quest", "engine.quest", None),
    (engine, "self_consistency", "engine.self_consistency", None),
    (engine, "tent", "engine.objective", None),
    (engine, "tlm", "engine.objective", None),
    (supervision, "generate_dataset", "supervision.generate_dataset", _count_dataset),
    (supervision, "parse_pairs", "supervision.parse_pairs", None),
    (evalkit, "evaluate", "evalkit.evaluate", None),
    (evalkit, "emit_report", "evalkit.emit_report", None),
    (serialize, "load_checkpoint", "backend.serialize.load_checkpoint", None),
    (cli, "run_command", "cli.run_command", None),
    (reference, "train_reference", "backend.train_reference", None),
]


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.phase = "setup"
        # [name, request, parent index, start, end, phase]
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            request = _request_of(args, kwargs)
            if request is None and parent is not None:
                request = tracer.spans[parent][1]
            span = [name, request, parent, time.perf_counter(), 0.0, tracer.phase]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                count(tracer.counts[span[5]], args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def count(self, key: str, value: float) -> None:
        self.counts[self.phase][key] += value

    def install(self) -> None:
        for owner, attr, name, count in TARGETS:
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, count)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for module_name, module in list(sys.modules.items()):
                if not module_name.startswith("quest") or module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, request, parent, start, end, phase in self.spans:
                f.write(
                    json.dumps(
                        {
                            "name": name,
                            "request": request,
                            "parent": parent,
                            "start": start - self.origin,
                            "end": end - self.origin,
                            "phase": phase,
                        }
                    )
                    + "\n"
                )

    def self_times(self, phase: str) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, _, parent, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, _, _, start, end, span_phase) in enumerate(self.spans):
            if span_phase == phase:
                out[name] += (end - start) - child[i]
        return out

    def spans_in(self, phase: str) -> int:
        return sum(1 for span in self.spans if span[5] == phase)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


SELF_TIME_LAYERS = [
    "backend.generate",
    "backend.grads",
    "optim.adamw_step",
    "engine.adapt",
    "supervision.generate_dataset",
    "supervision.parse_pairs",
    "engine.quest",
    "engine.self_consistency",
    "engine.objective",
    "evalkit.evaluate",
    "evalkit.emit_report",
    "backend.serialize.load_checkpoint",
    "cli.run_command",
]


def unit_of(metric: str) -> str:
    if metric == "backend.train_reference.self_s":
        return "s"
    for suffix, unit in (
        (".self_s", "s/query"),
        (".us_per_token", "us/tok"),
        ("tokens", "tok/query"),
        (".pair_yield", "pairs/call"),
        (".pairs", "pairs/query"),
    ):
        if metric.endswith(suffix):
            return unit
    return "calls/query"


def layer_metrics(tracer: Tracer, queries: int) -> dict[str, float]:
    """Per-layer figures of the timed phase, per query, plus set-up training."""
    c = tracer.counts["timed"]
    self_s = tracer.self_times("timed")
    out = {}
    for key in (
        "backend.generate.calls",
        "backend.generate.prompt_tokens",
        "backend.generate.new_tokens",
        "backend.grads.calls",
        "backend.grads.tokens",
        "optim.adamw_step.calls",
        "supervision.pairs",
        "supervision.generation_calls",
    ):
        out[key] = c[key] / queries
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = self_s[layer] / queries
    gen_tokens = c["backend.generate.prompt_tokens"] + c["backend.generate.new_tokens"]
    out["backend.generate.us_per_token"] = 1e6 * _ratio(self_s["backend.generate"], gen_tokens)
    out["backend.grads.us_per_token"] = 1e6 * _ratio(self_s["backend.grads"], c["backend.grads.tokens"])
    out["supervision.pair_yield"] = _ratio(c["supervision.pairs"], c["supervision.generation_calls"])
    out["backend.train_reference.self_s"] = tracer.self_times("setup")["backend.train_reference"]
    return out


def wrapper_cost_s(calls: int = 20000) -> float:
    """Seconds one wrapper adds to a call, measured on a no-op function."""
    tracer = Tracer()
    tracer.phase = "calibration"

    def noop():
        return None

    wrapped = tracer.wrap("noop", noop)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        tracer.spans.clear()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)
