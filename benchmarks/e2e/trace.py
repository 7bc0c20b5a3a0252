"""The benchmark's own span recorder.

Spans are taken from outside the library: either the benchmark brackets
a call it makes itself (``with tracer.span(...)``), or it shadows a
public method on an object it holds with a recording wrapper
(``tracer.wrap(obj, "method", name)``), which the library then calls in
its normal course.  Nothing under ``src/`` is edited and no module
attribute is patched.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Spans written to the trace file (all spans are kept for the sums).
DUMP_LIMIT = 50_000


class Tracer:
    """name / start / end / parent / operation id, per thread stack."""

    def __init__(self) -> None:
        # One row per span: [name, start, end, parent index or -1, op id].
        self.spans: List[List[Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._wrapped: List[Tuple[object, str]] = []
        self.op_id = -1

    # ---------------------------------------------------------- recording

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        row = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
        with self._lock:
            self.spans.append(row)
            index = len(self.spans) - 1
        stack.append(index)
        row[1] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, obj: object, attr: str, name: str,
             on_result: Optional[Callable[..., None]] = None) -> None:
        """Shadow ``obj.attr`` with a wrapper that records a span.

        ``on_result(result, *args)`` runs after the span closes, so
        counting never sits inside a timed interval.
        """
        inner = getattr(obj, attr)

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self._open(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                self._close(index)
            if on_result is not None:
                on_result(result, *args)
            return result

        setattr(obj, attr, traced)
        self._wrapped.append((obj, attr))

    def unwrap_all(self) -> None:
        """Drop every shadowing wrapper (the class attribute shows again)."""
        for obj, attr in self._wrapped:
            try:
                delattr(obj, attr)
            except AttributeError:
                pass
        self._wrapped.clear()

    # ------------------------------------------------------------ analysis

    def self_times(self) -> Dict[str, float]:
        """Σ self time per span name: duration minus direct children."""
        child_sum = defaultdict(float)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_sum[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name] += (end - start) - child_sum.get(index, 0.0)
        return dict(out)

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _p, _o in self.spans
                if n == name]

    def count(self, name: str) -> int:
        return sum(1 for row in self.spans if row[0] == name)

    def children_of(self, name: str) -> Dict[int, float]:
        """index of each ``name`` span -> Σ duration of its direct children."""
        wanted = {i for i, row in enumerate(self.spans) if row[0] == name}
        out = {i: 0.0 for i in wanted}
        for _n, start, end, parent, _o in self.spans:
            if parent in wanted:
                out[parent] += end - start
        return out

    def dump(self, path: str, header: Dict[str, object]) -> None:
        body = dict(header)
        body["n_spans"] = len(self.spans)
        body["truncated"] = len(self.spans) > DUMP_LIMIT
        body["columns"] = ["name", "start", "end", "parent", "op"]
        body["spans"] = self.spans[:DUMP_LIMIT]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh)
