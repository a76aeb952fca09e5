"""Outside-in span tracing for the traced benchmark run.

The program under test is not edited: :class:`Tracer` wraps public
functions and methods of ``repro`` from here, records one span per call
(name, layer, start, end, parent, and the id of the solve, canvas or
job it belongs to), keeps them in memory, and writes them once at the
end.  Wrappers exist only between the ``patch_*`` calls (see
``layers.install``) and :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    root: Optional[str] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - union_length(children.get(s.id, ())) for s in spans}


def layer_table(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer: span count, busy time (union of its spans) and self time."""
    selfs = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    by_layer: Dict[str, List[Span]] = {}
    for s in spans:
        by_layer.setdefault(s.layer, []).append(s)
    for layer, members in sorted(by_layer.items()):
        table[layer] = {
            "count": len(members),
            "busy_s": union_length((s.start, s.end) for s in members),
            "self_s": sum(selfs[s.id] for s in members),
        }
    return table


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    The traced paths run on one thread (tiles are solved inline), so a
    plain stack gives each span its parent.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._root: Optional[str] = None
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def begin(self, name: str, layer: str, root: Optional[str] = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans),
            name=name,
            layer=layer,
            start=time.perf_counter(),
            parent=parent.id if parent else None,
            root=root or (parent.root if parent else self._root),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    @contextmanager
    def sample(self, root: str, name: str, layer: str) -> Iterator[Span]:
        """One timed sample (solve, canvas or job); its spans carry ``root``."""
        self._root = root
        span = self.begin(name, layer, root=root)
        try:
            yield span
        finally:
            self.end(span)
            self._root = None

    def wrap(
        self,
        func: Callable,
        name: str,
        layer: str,
        note: Optional[Callable[[Span, tuple, dict, object], None]] = None,
    ) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.begin(name, layer)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(span)
            if note is not None:
                note(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    # -- patching -------------------------------------------------------------

    def patch_function(self, func: Callable, name: str, layer: str, note=None) -> None:
        """Replace ``func`` in every loaded ``repro`` module that holds it
        (``from x import f`` copies the reference into the importer)."""
        wrapper = self.wrap(func, name, layer, note)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def patch_method(self, cls: type, attr: str, name: str, layer: str, note=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(raw.__func__, name, layer, note))
        else:
            wrapped = self.wrap(raw, name, layer, note)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- queries --------------------------------------------------------------

    def of(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path: Path, extra: Dict[str, object]) -> None:
        """Span file: every span plus the per-layer table, written once."""
        document = {
            "clock": "time.perf_counter seconds",
            "layers": layer_table(self.spans),
            "spans": [asdict(s) for s in self.spans],
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")

    def write_chrome_trace(self, path: Path) -> List[str]:
        """Perfetto-loadable trace through ``repro.obs.export``; returns
        the validator's problems (empty when valid)."""
        from repro.obs.export import TraceLane, chrome_trace_events, validate_chrome_trace, write_chrome_trace
        from repro.obs.trace import TraceSlice

        by_id = {s.id: s for s in self.spans}
        epoch_offset_us = (time.time() - time.perf_counter()) * 1e6

        def path_of(span: Span) -> str:
            names = [span.name]
            while span.parent is not None:
                span = by_id[span.parent]
                names.append(span.name)
            return "/".join(reversed(names))

        lane = TraceLane(
            pid=os.getpid(),
            label="perfbench",
            slices=[
                TraceSlice(path_of(s), s.start * 1e6 + epoch_offset_us, s.duration * 1e6)
                for s in self.spans
            ],
        )
        write_chrome_trace(path, [lane])
        return validate_chrome_trace({"traceEvents": chrome_trace_events([lane])})
