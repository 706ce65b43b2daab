"""Spans around the public entry points of each layer, for traced runs.

The recorder patches methods on the classes (``ExactRuleSearch``,
``SearchCache``, ``CoverState``, ``NativeKernel``, ...), so calls are
seen however a module imported the class.  The two mining functions are
replaced in every ``repro`` module that holds them, because
``repro.core.translator`` imports them by value.  A name that no longer
exists is reported as absent; timed runs install nothing.

Spans stay in memory as ``[name, parent, start, end, child_seconds,
result]`` lists; the last traced op's are written out when the run
ends.  A span's self time is its duration minus the time of its direct
children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

#: (span name, module, class, method)
METHODS = (
    ("core.translator.fit", "repro.core.translator", "TranslatorExact", "fit"),
    ("core.translator.fit", "repro.core.translator", "TranslatorSelect", "fit"),
    ("core.translator.fit", "repro.core.translator", "TranslatorGreedy", "fit"),
    ("core.search.cache_build", "repro.core.search", "SearchCache", "__init__"),
    ("core.search.find_best_rule", "repro.core.search", "ExactRuleSearch", "find_best_rule"),
    ("core.state.init", "repro.core.state", "CoverState", "__init__"),
    ("core.state.add_rule", "repro.core.state", "CoverState", "add_rule"),
    ("core.state.best_direction", "repro.core.state", "CoverState", "best_direction"),
    ("core.state.gain", "repro.core.state", "CoverState", "gain"),
    ("serve.registry.publish", "repro.serve.registry", "ModelRegistry", "publish"),
)
#: (span name, module, function) — patched wherever a repro module binds it.
FUNCTIONS = (
    ("mining.auto_minsup", "repro.mining.twoview", "auto_minsup"),
    ("mining.pass", "repro.mining.twoview", "two_view_candidates"),
)
#: Every public method of this class becomes a ``native.<method>`` span.
NATIVE = ("repro.native", "NativeKernel")

#: What a span keeps of its call's return value; other spans keep nothing.
KEEP = {
    "core.translator.fit": lambda result: result,
    "core.search.find_best_rule": lambda result: result[2],
    "mining.auto_minsup": lambda result: result,
    "mining.pass": len,
}

#: Span-name prefixes that own self time, longest match first.
LAYERS = (
    "serve.registry",
    "core.translator",
    "core.search",
    "core.state",
    "mining",
    "native",
)

NAME, PARENT, START, END, CHILD, RESULT = range(6)


def layer_of(name: str) -> str:
    """The layer a span name belongs to."""
    for layer in LAYERS:
        if name.startswith(layer + "."):
            return layer
    return name


class Recorder:
    """Installs the wrappers and keeps every finished span in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, function):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = KEEP.get(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, parent, clock(), 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += span[END] - span[START]
            if keep is not None:
                span[RESULT] = keep(result)
            return result

        return traced

    def _patch(self, owner, attr: str, original, name: str) -> None:
        setattr(owner, attr, self._wrap(name, original))
        self._restore.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every target that exists; ``absent`` names the spans that cannot be."""
        self.absent = []
        for name, module, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if not inspect.isfunction(original):
                self.absent.append(name)
                continue
            self._patch(cls, attr, original, name)
        for name, module, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr, None)
            if not inspect.isfunction(original):
                self.absent.append(name)
                continue
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").split(".")[0] != "repro":
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, original, name)
        module, cls_name = NATIVE
        cls = getattr(importlib.import_module(module), cls_name, None)
        methods = [
            (attr, value)
            for attr, value in (vars(cls).items() if cls is not None else ())
            if not attr.startswith("_") and inspect.isfunction(value)
        ]
        if not methods:
            self.absent.append("native")
        for attr, value in methods:
            self._patch(cls, attr, value, f"native.{attr}")

    def uninstall(self) -> None:
        """Put every patched name back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a new list."""
        taken = self.spans[:]
        self.spans.clear()
        return taken


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_ms`` and ``self_ms``."""
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = out.setdefault(span[NAME], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["total_ms"] += 1000.0 * duration
        entry["self_ms"] += 1000.0 * (duration - span[CHILD])
    return out


def layer_self_ms(spans: list[list]) -> dict[str, float]:
    """Self time per layer, in ms."""
    out: dict[str, float] = {}
    for name, entry in summarize(spans).items():
        layer = layer_of(name)
        out[layer] = out.get(layer, 0.0) + entry["self_ms"]
    return out


def results(spans: list[list], name: str) -> list:
    """What the spans called ``name`` kept of their results, in call order."""
    return [span[RESULT] for span in spans if span[NAME] == name]


def write_spans(path, spans: list[list], op_index: int) -> None:
    """Write one op's spans as JSON lines."""
    with open(path, "w", encoding="utf-8") as handle:
        for index, span in enumerate(spans):
            handle.write(
                json.dumps(
                    {
                        "op": op_index,
                        "index": index,
                        "name": span[NAME],
                        "parent": span[PARENT],
                        "start": span[START],
                        "end": span[END],
                        "self_ms": 1000.0 * (span[END] - span[START] - span[CHILD]),
                    }
                )
                + "\n"
            )
