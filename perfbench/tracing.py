"""In-memory spans around the calls into each doctext layer.

The tracer wraps module attributes by name (the name a calling module
looks up at call time), so no source file of the library changes.  A
span records its name, start, end, parent span and operation id; spans
stay in a list until the run ends and are then written out as JSON.  A
layer's self time is its span's duration minus the durations of its
direct children.

Names that would cost more to time than they take (called per box
inside an O(n^2) loop) are wrapped with a call counter instead.  A
wrapped name that no longer exists is recorded as missing, so the
metrics derived from it are reported as missing rather than failing
the run.
"""

import functools
import importlib
import json
import time
from collections import defaultdict

# (module, attribute, span name): the module whose global the caller
# looks up, so wrapping it intercepts exactly the calls that module makes
SPAN_TARGETS = (
    ("doctext.pipeline", "rectify", "geometry.rectify"),
    ("doctext.pipeline", "arrange_document", "layout.arrange_document"),
    ("doctext.pipeline", "beam_decode", "ctc.beam_decode"),
    ("doctext.pipeline", "correct", "corrector.correct"),
    ("doctext.layout", "group", "layout.group"),
    ("doctext.layout", "arrange", "layout.arrange"),
    ("doctext.corrector.network", "_encode_batch", "corrector.encode"),
    ("doctext.corrector.network", "_infer_logprobs", "corrector.decode_step"),
    ("doctext.corrector.training", "build_pairs", "corrector.train.build_pairs"),
    ("doctext.corrector.training", "_forward_batch", "corrector.train.forward"),
    ("doctext.corrector.training", "_backward_batch", "corrector.train.backward"),
)
COUNT_TARGETS = (
    ("doctext.layout", "find_next_text", "layout.find_next_text"),
)


class Tracer:
    """Collects spans and counters for the traced operations of a run.

    ``observers`` maps a span name to a callback ``(tracer, args,
    result)`` that records counts from a wrapped call.  ``install`` and
    ``uninstall`` swap the wrappers in and out, so traced and untraced
    operations can alternate within one run.
    """

    def __init__(self, observers=None):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        observers = observers or {}
        for module_name, attr, name in SPAN_TARGETS:
            self._prepare(module_name, attr, self._span_wrapper(name, observers.get(name)))
        for module_name, attr, name in COUNT_TARGETS:
            self._prepare(module_name, attr, self._count_wrapper(name))

    # ------------------------------------------------------------ spans

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``; return its result."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.op_id))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    # --------------------------------------------------------- patching

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _prepare(self, module_name, attr, make_wrapper) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = functools.wraps(original)(make_wrapper(original))
        self._patches.append((module, attr, original, wrapper))

    def _span_wrapper(self, name, observer):
        def make(original):
            def wrapper(*args, **kwargs):
                result = self.span(name, original, *args, **kwargs)
                if observer is not None:
                    observer(self, args, result)
                return result

            return wrapper

        return make

    def _count_wrapper(self, name):
        def make(original):
            def wrapper(*args, **kwargs):
                self.counts[name + ".calls"] += 1
                return original(*args, **kwargs)

            return wrapper

        return make

    # ---------------------------------------------------------- results

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: summed self seconds, summed inclusive seconds
        and call count."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            self_s[name] += end - start - inner
            incl_s[name] += end - start
            calls[name] += 1
        return self_s, incl_s, calls

    def dump(self, path) -> None:
        payload = {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
