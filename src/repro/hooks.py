"""Process-wide kernel event hooks (fault injection / instrumentation).

The polynomial and circuit layers emit a named event at the entry of
their hot kernels — ``batch_ntt.forward`` / ``batch_ntt.inverse``,
``rns_poly.mac`` / ``rns_poly.rescale``, and ``circuit.step`` (payload:
the step's trace-node label).  With no handler installed, :func:`emit`
is one attribute load and a ``None`` check — nothing on the hot path
changes.  With a handler installed, every event is forwarded to it; the
handler may observe (instrumentation), stall (sleep), or raise (fault
injection) — whatever it raises propagates out of the kernel exactly as
a real failure would.

The registry is deliberately process-global and single-slot: the one
production consumer is the serving layer's deterministic fault injector
(:mod:`repro.serving.faults`), which arms a handler around a single
batch execution at a time and uninstalls it on exit.  Handlers run on
whatever thread executes the kernel, so they must be thread-safe.
"""

from __future__ import annotations

from collections.abc import Callable

__all__ = ["emit", "install", "uninstall"]

#: the single installed handler, or None (the common case)
_handler: Callable[[str, object], None] | None = None


def install(handler: Callable[[str, object], None]) -> None:
    """Install ``handler`` as the process-wide event hook.

    Replaces any previously installed handler (last writer wins; the
    fault injector serializes arm windows itself).
    """
    global _handler
    _handler = handler


def uninstall() -> None:
    """Remove the installed handler, restoring zero-cost emits."""
    global _handler
    _handler = None


def emit(site: str, payload: object = None) -> None:
    """Emit one kernel event; a no-op unless a handler is installed."""
    h = _handler
    if h is not None:
        h(site, payload)
