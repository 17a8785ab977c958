"""In-memory span tracer for the traced benchmark run (``--trace 1``).

Nothing under ``src/`` is instrumented.  The tracer records a span around a
layer's *public* callable by replacing the attribute its callers look it up
through (``repro.session.session.compile_plan``, ``CompiledProgram.run``,
…) with a timing wrapper, and restores the original on :meth:`uninstall`.
Spans stay in memory until the benchmark ends; :meth:`chrome_trace` dumps
them in the Chrome trace-event format (open in ``chrome://tracing`` or
Perfetto).

A span's *self time* is its duration minus the part covered by child spans
on the same thread — the time the layer spent in its own code.
"""

from __future__ import annotations

import threading
import time


class Span:
    """One timed call: name, layer, thread, start, end, parent, job id."""

    __slots__ = ("name", "layer", "thread", "start", "end", "parent", "job", "note")

    def __init__(self, name, layer, thread, start, parent, job):
        self.name = name
        self.layer = layer
        self.thread = thread
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        #: Optional small dict of counts read off the call (ops, bytes, …).
        self.note = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps callables, collects spans, computes self times."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._tls = threading.local()
        self._sites: list[tuple] = []
        self._installed = False
        #: Job id for spans on threads that never called :meth:`set_job`
        #: (the parallel runtime's pool workers run one job at a time).
        self.shared_job = None

    # ------------------------------------------------------------------
    # Job attribution
    # ------------------------------------------------------------------

    def set_job(self, job) -> None:
        """Attribute this thread's following spans to *job*."""
        self._tls.job = job

    def current_job(self):
        return getattr(self._tls, "job", None)

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------

    def add_site(self, owner, attr, name, layer, note=None, on_enter=None) -> None:
        """Register ``owner.attr`` to be wrapped while installed.

        *name* is the span name, or a callable ``(args, kwargs) -> name``
        when one callable serves two roles (cold compile vs rebind).
        *note* ``(args, kwargs, result) -> dict | None`` reads counts off the
        call; *on_enter* ``(tracer, args, kwargs)`` runs before the span
        opens (used to pick up the job id a thread is about to work on).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(original)
        function = original.__func__ if kind in (staticmethod, classmethod) else original
        wrapper = self._wrap(function, name, layer, note, on_enter)
        if kind in (staticmethod, classmethod):
            wrapper = kind(wrapper)
        self._sites.append((owner, attr, original, wrapper))

    def _wrap(self, function, name, layer, note, on_enter):
        tracer = self
        spans = self.spans
        tls = self._tls
        clock = time.perf_counter
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(tracer, args, kwargs)
            parent = getattr(tls, "top", None)
            job = getattr(tls, "job", None)
            if job is None:
                job = tracer.shared_job
            span = Span(
                name(args, kwargs) if callable(name) else name,
                layer,
                get_ident(),
                clock(),
                parent,
                job,
            )
            spans.append(span)
            tls.top = span
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = clock()
                tls.top = parent
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", "traced")
        return traced

    def install(self) -> None:
        if self._installed:
            return
        for owner, attr, _original, wrapper in self._sites:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        for owner, attr, original, _wrapper in self._sites:
            setattr(owner, attr, original)
        self._installed = False

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def self_seconds(self) -> dict[Span, float]:
        """Self time of every span: duration minus same-thread children."""
        own = {span: span.seconds for span in self.spans}
        for span in self.spans:
            parent = span.parent
            if parent is not None and parent.thread == span.thread:
                own[parent] -= span.seconds
        return own

    def chrome_trace(self) -> dict:
        """The spans as a Chrome trace-event document."""
        if not self.spans:
            return {"traceEvents": []}
        origin = min(span.start for span in self.spans)
        ids = {span: i for i, span in enumerate(self.spans)}
        events = []
        for span in self.spans:
            args = {"id": ids[span], "job": span.job}
            if span.parent is not None:
                args["parent"] = ids[span.parent]
            if span.note:
                args.update(span.note)
            events.append(
                {
                    "name": span.name,
                    "cat": span.layer,
                    "ph": "X",
                    "pid": 0,
                    "tid": span.thread,
                    "ts": (span.start - origin) * 1e6,
                    "dur": span.seconds * 1e6,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}
