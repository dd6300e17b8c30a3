"""Outside-in span tracing: class-level wrappers around public `repro` calls.

Nothing under ``src/`` is instrumented.  :meth:`Tracer.install` replaces
selected public methods and functions of the ``repro`` modules with
wrappers that record one span per call, and :meth:`Tracer.uninstall`
puts the originals back.  Wrappers go onto the *classes* (and module
namespaces), so they must be installed before any context is built: a
bound method captured at construction would otherwise escape them.

A span records its name, start, end, parent span, thread and the
request it served (set on the root span: a request number on the job
workloads, a batch tag on serve-mix).  Each
thread keeps its own span stack, because the serving layer runs
``CircuitPlan.run`` on an executor thread while encrypt and decrypt run
on the event-loop thread.  Spans stay in memory; :meth:`Tracer.dump`
writes them once at the end.  A span's *self time* is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import json
import threading
import time

#: (import path, class or None, attribute, span name, is a layer).
#: Layer spans own a per-layer metric; the other spans are structure
#: (set-up steps, the context's encrypt/decrypt wrappers) whose self
#: time counts as unattributed glue.
TARGETS = (
    ("repro.poly.batch_ntt", "BatchNTT", "forward", "poly.ntt", True),
    ("repro.poly.batch_ntt", "BatchNTT", "inverse", "poly.ntt", True),
    ("repro.poly.batch_ntt", "BatchNTT", "pointwise_prepared",
     "poly.pointwise", True),
    ("repro.poly.batch_ntt", "BatchNTT", "automorphism_coeff",
     "poly.automorphism", True),
    ("repro.poly.batch_ntt", "BatchNTT", "automorphism_ntt",
     "poly.automorphism", True),
    ("repro.poly.basis_conv", "KeySwitcher", "run", "poly.key_switch", True),
    ("repro.poly.basis_conv", "KeySwitcher", "hoist", "poly.key_switch", True),
    ("repro.poly.basis_conv", "KeySwitcher", "run_hoisted",
     "poly.key_switch", True),
    ("repro.poly.basis_conv", "BasisConverter", "convert",
     "poly.basis_conv", True),
    ("repro.poly.rns_poly", "RnsPolynomial", "multiply_accumulate",
     "poly.mac", True),
    ("repro.poly.rns_poly", "RnsPolynomial", "exact_rescale",
     "poly.rescale", True),
    ("repro.scheme.encoder", "CanonicalEncoder", "encode",
     "scheme.encode", True),
    ("repro.scheme.encoder", "CanonicalEncoder", "decode",
     "scheme.decode", True),
    ("repro.scheme._linalg", "SlotLinalg", "matvec", "scheme.eager", True),
    ("repro.scheme._linalg", "SlotLinalg", "poly_eval", "scheme.eager", True),
    ("repro.scheme._circuit", "CircuitPlan", "run", "scheme.plan_run", True),
    ("repro.scheme.evaluator", "Evaluator", "encrypt", "scheme.encrypt", True),
    ("repro.scheme.evaluator", "Evaluator", "decrypt", "scheme.decrypt", True),
    ("repro.context", "CkksContext", "encrypt", "context.encrypt", False),
    ("repro.context", "CkksContext", "decrypt", "context.decrypt", False),
    ("repro.scheme.evaluator", "Evaluator", "from_keygen", "setup.keygen",
     False),
    ("repro.scheme._circuit", "CircuitTracer", "compile", "setup.compile",
     False),
    ("repro.scheme._circuit", "CircuitPlan", "analyze", "setup.analyze",
     False),
    ("repro.ml.model", None, "train_mlp", "setup.train", False),
    ("repro.serving.scheduler", "CkksServer", "register_tenant",
     "setup.register", False),
)

#: span names whose wrapper also records the argument's ``nbytes``
BYTES_OF_FIRST_ARG = {"poly.ntt"}


class Span:
    """One recorded call."""

    __slots__ = ("name", "layer", "start", "end", "parent", "child_s",
                 "thread", "nbytes", "tag", "request")

    def __init__(self, name, layer, parent, thread):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.thread = thread
        self.child_s = 0.0
        self.nbytes = 0
        self.tag = None
        self.request = None
        self.start = 0.0
        self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    def root(self) -> "Span":
        span = self
        while span.parent is not None:
            span = span.parent
        return span


class Tracer:
    """Records spans from wrapped ``repro`` calls; see the module docs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: bool = False) -> Span:
        stack = self._stack()
        span = Span(name, layer, stack[-1] if stack else None,
                    threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start
        self.spans.append(span)  # list.append is atomic under the GIL

    def span(self, name: str, request=None):
        """Context manager for a structural (non-layer) span."""
        tracer = self

        class _Scope:
            def __enter__(self):
                self.span = tracer.open(name)
                self.span.request = request
                return self.span

            def __exit__(self, *exc):
                tracer.close(self.span)
                return False

        return _Scope()

    def _wrap(self, fn, name: str, layer: bool):
        tracer = self
        with_bytes = name in BYTES_OF_FIRST_ARG

        def wrapper(*args, **kwargs):
            span = tracer.open(name, layer)
            if with_bytes:
                span.nbytes = getattr(args[1], "nbytes", 0)
            if "tag" in kwargs:
                span.tag = kwargs["tag"]
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------------
    def install(self) -> set[str]:
        """Wrap every target; call before any context is built.

        Returns the span names none of whose targets exist (the code was
        moved or renamed), so their metrics can be reported as untraced
        rather than failing the run.
        """
        installed = set()
        for module_name, cls_name, attr, name, layer in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner = module if cls_name is None else getattr(module, cls_name)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                continue
            installed.add(name)
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, name, layer))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, layer))
            else:
                new = self._wrap(raw, name, layer)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        return {target[3] for target in TARGETS} - installed

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- output ----------------------------------------------------------------
    def dump(self, path, t0: float) -> None:
        """Write every span once: name, thread, start/end (s from ``t0``),
        parent index (-1 for a root) and its root's request."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            [s.name, s.thread, round(s.start - t0, 7), round(s.end - t0, 7),
             index.get(id(s.parent), -1), s.root().request]
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "thread", "start_s", "end_s",
                                  "parent", "request"], "spans": rows}, fh)
