"""Outside-in span recording for the traced run.

The program has no tracer yet (ROADMAP item 1), so the benchmark wraps the
entry points listed in :mod:`bench.layers` from outside.  A span is (name,
layer, start, end, parent id, op id); spans of one operation share its op
id.  They stay in memory and are written once, at the end, as Chrome
trace-event JSON.  A span's *self time* is its duration minus the part its
direct children cover, so the self times of an operation's spans add up to
its wall time exactly.

``python3 -m bench.trace OUT.json ARGV...`` runs ``repro.cli.main(ARGV)``
in this process under the tracer and writes the spans to ``OUT.json``; the
``cold_cli`` workload uses it so that a CLI launch can be split by layer.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    op: str | None
    start: float
    end: float = 0.0
    thread: int = 0
    returned_false: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "bench_span", default=None
        )
        self._patched: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    def install(self, table: Iterable[tuple[str, str, str]]) -> None:
        """Wrap every ``(layer, "module[:Class]", attribute)`` of ``table``."""
        for layer, owner_path, attr in table:
            module_name, _, class_name = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            label = f"{class_name or module_name.removeprefix('repro.')}.{attr}"
            setattr(owner, attr, self._wrap(original, layer, label))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, func: Callable, layer: str, name: str) -> Callable:
        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span, token = self._open(name, layer, None)
            try:
                result = func(*args, **kwargs)
                span.returned_false = result is False
                return result
            finally:
                self._close(span, token)

        return traced

    # ------------------------------------------------------------------ #
    def _open(self, name: str, layer: str, op: str | None):
        parent = self._current.get()
        span = Span(
            id=next(self._ids),
            name=name,
            layer=layer,
            parent=parent.id if parent else None,
            op=op if op is not None else (parent.op if parent else None),
            start=time.perf_counter(),
            thread=threading.get_ident(),
        )
        return span, self._current.set(span)

    def _close(self, span: Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter()
        self._current.reset(token)
        self.spans.append(span)

    def root(self, name: str, layer: str, op: str) -> "_Root":
        """Context manager for the span the harness opens around one
        operation; everything recorded inside carries ``op``."""
        return _Root(self, name, layer, op)

    # ------------------------------------------------------------------ #
    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(chrome_trace(self.spans), handle)


class _Root:
    def __init__(self, tracer: Tracer, name: str, layer: str, op: str):
        self._tracer, self._args = tracer, (name, layer, op)

    def __enter__(self) -> Span:
        self.span, self._token = self._tracer._open(*self._args)
        return self.span

    def __exit__(self, *exc_info: Any) -> None:
        self._tracer._close(self.span, self._token)


# ---------------------------------------------------------------------- #
# Analysis and export
# ---------------------------------------------------------------------- #
def self_times(spans: Iterable[Span]) -> dict[int, float]:
    spans = list(spans)
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in out:
            out[s.parent] -= s.duration
    return out


def chrome_trace(spans: Iterable[Span]) -> dict:
    """Trace-event JSON (``ph: "X"`` complete events, microseconds)."""
    events = [
        {
            "name": s.name, "cat": s.layer, "ph": "X", "pid": 1, "tid": s.thread,
            "ts": s.start * 1e6, "dur": s.duration * 1e6,
            "args": {
                "id": s.id, "parent": s.parent, "op": s.op,
                "returned_false": s.returned_false,
            },
        }
        for s in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def spans_from_chrome(trace: dict) -> list[Span]:
    return [
        Span(
            id=e["args"]["id"], name=e["name"], layer=e["cat"],
            parent=e["args"]["parent"], op=e["args"]["op"],
            start=e["ts"] / 1e6, end=(e["ts"] + e["dur"]) / 1e6, thread=e["tid"],
            returned_false=e["args"]["returned_false"],
        )
        for e in trace["traceEvents"]
    ]


def main(argv: list[str]) -> int:
    from .layers import LAYER_TABLE

    out, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install(LAYER_TABLE)
    import repro.cli

    try:
        with tracer.root("cli.main", "cli", "cli"):
            code = repro.cli.main(cli_argv)
    finally:
        tracer.uninstall()
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
