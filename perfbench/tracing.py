"""Spans around calls into the engine's public functions.

The traced run wraps module functions and methods of ``pdfsearch_ray``
from outside (the package itself is not changed): each call records a
span ``(name, parent, start, end, count)`` in memory, where ``parent``
is the index of the span that was open when the call began.  Top-level
spans therefore identify one request or one build, and nested spans the
layers it went through.  Only the driver process is traced; calls inside
Ray workers and actors are seen as the driver-side call that awaited
them.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    count: float | None = None  # optional work count taken from the result

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, owner, attr: str, name: str | None = None,
             count=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.  ``count``
        maps the call's result to a work count stored on the span."""
        orig = getattr(owner, attr)
        label = name or attr

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = Span(label, self._open[-1] if self._open else None,
                        time.perf_counter())
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                out = orig(*args, **kwargs)
                if count is not None:
                    span.count = count(out)
                return out
            finally:
                span.end = time.perf_counter()
                self._open.pop()

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def unwrap(self, keep: int = 0) -> None:
        """Restore every wrapped attribute but the first ``keep``."""
        while len(self._patches) > keep:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    @property
    def n_wrapped(self) -> int:
        return len(self._patches)

    def named(self, name: str, under: str | None = None) -> list[Span]:
        """Spans called ``name``; with ``under``, only those whose parent
        span is called ``under``."""
        return [s for s in self.spans if s.name == name and (
            under is None or (s.parent is not None
                              and self.spans[s.parent].name == under))]

    def median_s(self, name: str, under: str | None = None) -> float:
        spans = self.named(name, under)
        return statistics.median(s.dur for s in spans) if spans else 0.0

    def child_s(self, name: str, root: str, first: bool = False) -> list[float]:
        """For each ``root`` span, the summed duration of the ``name``
        spans directly under it (with ``first``, only the first such
        span), skipping roots that made no such call."""
        totals: dict[int, float] = {}
        for s in self.spans:
            if (s.name == name and s.parent is not None
                    and self.spans[s.parent].name == root):
                if first and s.parent in totals:
                    continue
                totals[s.parent] = totals.get(s.parent, 0.0) + s.dur
        return list(totals.values())


def install_build_spans(tracer: Tracer) -> None:
    """Spans on the build and lifecycle layers (one call per stage, so
    the wrappers cost nothing measurable)."""
    from pdfsearch_ray.pipelines import build
    from pdfsearch_ray.sources import pages_source

    tracer.wrap(build, "build_from_pages")
    tracer.wrap(pages_source, "extract_pages",
                count=lambda s: s.get("rows_out", 0))
    tracer.wrap(pages_source, "dup_loser_ids_from_extract",
                name="dedup", count=len)
    tracer.wrap(build, "build_index")
    tracer.wrap(build, "append_index")
    tracer.wrap(build, "delete_docs")
    tracer.wrap(build, "compact_index")


def install_query_spans(tracer: Tracer) -> None:
    """Spans on the per-request layers: the request itself, query
    analysis and the docs hydration read."""
    from pdfsearch_ray.pipelines import query

    tracer.wrap(query.BM25Index, "search")
    tracer.wrap(query, "analyze_en")
    tracer.wrap(query.BM25Index, "fetch_doc_meta")
