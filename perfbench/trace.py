"""In-memory span tracing around scenemon's layer boundaries.

`Tracer.install` wraps the public functions the monitor pipeline calls
through, at every `scenemon` module attribute that holds them, and
`uninstall` puts the originals back. Each span records its name, start,
end and parent span; spans stay in memory until `dump` writes them out.
A span's self time is its duration minus the durations of its children.
Times are CPU time of the traced thread, like the end-to-end stamps.

Nothing in scenemon is edited: only module attributes are swapped for the
duration of a traced pass.
"""
from __future__ import annotations

import importlib
import json
import os
import sys
from array import array
from collections import Counter
from time import thread_time_ns

# (module, attribute, span name); a generator function gets one span per
# next() call. A missing attribute is skipped, so the traced run keeps
# working when the pipeline stops calling through one of them.
FUNCTIONS = (
    ("scenemon.scene_graph", "read_scene_stream", "scene_graph.read"),
    ("scenemon.scene_graph", "parse_csg", "scene_graph.parse_csg"),
    ("scenemon.monitor", "sg_comparison", "monitor.sg_comparison"),
    ("scenemon.matching", "iter_embeddings", "matching.next"),
    ("scenemon.matching", "pattern_order", "matching.pattern_order"),
    ("scenemon.predicates", "bind", "predicates.bind"),
    ("scenemon.predicates", "evaluate", "predicates.evaluate"),
    ("scenemon.monitor", "serialize_verdict", "monitor.serialize_verdict"),
    ("scenemon.object_model", "load_object_model", "object_model.load"),
    ("scenemon.dsl", "parse_asg", "dsl.load_asg"),
)
METHODS = (
    ("scenemon.monitor", "PhaseAutomaton", "step", "monitor.automaton_step"),
)
# counts taken from a call's result: span name -> (counter, amount)
OBSERVE = {
    "scene_graph.parse_csg": ("scene_graph.edges", lambda csg: len(csg.edges)),
    "predicates.evaluate": ("predicates.satisfied", lambda ok_index: int(ok_index[0])),
}
# generator spans, with the name of the first next() span where it differs
GENERATORS = {"scene_graph.read": "scene_graph.read",
              "matching.next": "matching.first_next"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(thread_time_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = thread_time_ns()
        self.stack.pop()

    # The wrappers below inline open() and close(): they run once or more
    # per embedding, and every instruction they add is tracing overhead.

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, counts = self.stack, self.counts
        counter, amount = OBSERVE.get(name, (None, None))

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(thread_time_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = thread_time_ns()
                stack.pop()
            if counter is not None:
                counts[counter] += amount(result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """One span per next() of the generator `fn` returns."""
        first_id = self.name_id(GENERATORS[name])
        next_id = self.name_id(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, counts = self.stack, self.counts

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            nid = first_id
            while True:
                idx = len(span_name)
                span_name.append(nid)
                parent.append(stack[-1])
                end.append(0)
                stack.append(idx)
                start.append(thread_time_ns())
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    end[idx] = thread_time_ns()
                    stack.pop()
                counts[name] += 1
                nid = next_id
                yield item

        return traced

    # -- installing ----------------------------------------------------

    def install(self) -> None:
        # the CLI imports every layer; import it first so that no module
        # picks up a wrapper by importing it while the tracer is installed
        importlib.import_module("scenemon.cli")
        for module, attr, name in FUNCTIONS:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                continue
            if name in GENERATORS:
                wrapper = self.wrap_generator(name, original)
            else:
                wrapper = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "scenemon" and getattr(mod, attr, None) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for module, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules.get(module), cls_name, None)
            original = getattr(cls, attr, None)
            if original is not None:
                self._undo.append((cls, attr, original))
                setattr(cls, attr, self.wrap(name, original))
        om_cls = getattr(sys.modules.get("scenemon.object_model"), "ObjectModel", None)
        if om_cls is not None:
            original = om_cls.is_subclass
            counts = self.counts

            def is_subclass(om, sub, sup):
                counts["object_model.is_subclass_calls"] += 1
                return original(om, sub, sup)

            self._undo.append((om_cls, "is_subclass", original))
            om_cls.is_subclass = is_subclass

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Span count, total and self duration (ns) per span name."""
        calls: Counter = Counter()
        total: Counter = Counter()
        child = [0] * len(self.span_name)
        for idx in range(len(self.span_name)):
            dur = self.end[idx] - self.start[idx]
            parent = self.parent[idx]
            if parent >= 0:
                child[parent] += dur
            total[self.names[self.span_name[idx]]] += dur
        own: Counter = Counter()
        for idx in range(len(self.span_name)):
            name = self.names[self.span_name[idx]]
            calls[name] += 1
            own[name] += self.end[idx] - self.start[idx] - child[idx]
        return calls, total, own

    def dump(self, path: str) -> None:
        """Write the spans: a JSON header plus four int64 arrays."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.span_name, self.parent, self.start, self.end):
                arr.tofile(fh)
        header = {
            "spans": len(self.span_name),
            "names": self.names,
            "layout": "int64 arrays in order: name index, parent span "
                      "index (-1 for a root), start and end in thread CPU ns",
            "counts": dict(self.counts),
        }
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1, sort_keys=True)
