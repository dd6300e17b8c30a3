"""Exception hierarchy for the repro library.

All library-raised errors derive from :class:`CheddarError` so callers can
catch library failures without masking programming errors.
"""

from __future__ import annotations


class CheddarError(Exception):
    """Base class for every error raised by this library."""


class ParameterError(CheddarError):
    """A parameter set is inconsistent or unsupported.

    Examples: a ring degree that is not a power of two, a scale for which no
    rescaling cycle exists, or a modulus chain that exceeds the security
    budget recorded in the parameter set.
    """


class ModelPlanError(ParameterError):
    """An encrypted-model layer cannot be deployed on these parameters.

    Raised *statically* by the :class:`repro.ml.LevelPlanner` — before
    any ciphertext exists — when a layer's depth or scale requirement
    does not fit the modulus chain.  Mirrors the
    ``PolyContext.mismatch_reason`` convention: the message names the
    offending ``layer`` and the failing budget (levels or bits, needed
    vs available), and the layer name also rides along as an attribute
    for programmatic handling.
    """

    def __init__(self, message: str, *, layer: str | None = None) -> None:
        super().__init__(message)
        self.layer = layer


class PrimeSearchError(CheddarError):
    """Prime generation could not find enough NTT-friendly primes."""


class LevelError(CheddarError):
    """An operation was requested at an invalid or exhausted level."""


class ScaleMismatchError(CheddarError):
    """Two operands carry scales too far apart to combine soundly."""


class KeyError_(CheddarError):
    """A required evaluation key is missing or incompatible."""


class LayoutError(CheddarError):
    """A polynomial's limb layout does not match the requested basis."""


class AccumulatorOverflowError(CheddarError):
    """A lazy-reduction accumulator was asked to exceed its range bound.

    Raised *before* the offending accumulation so no wrapped value can
    silently corrupt a result (§4.2's deferred-fold range discipline).
    """


class TraceError(CheddarError):
    """A trace-mode operation was asked to produce real numeric data."""


class StaticAnalysisError(CheddarError):
    """A static-analysis pass could not prove a required invariant.

    Raised by :meth:`repro.analysis.KernelCertificate.raise_if_failed` and
    :meth:`repro.analysis.PlanReport.raise_if_failed` when the interval
    analysis finds a carrier overflow, a broken 2q-lazy invariant, or a
    plan whose noise budget is statically exhausted.
    """


class SanitizerError(CheddarError):
    """Checked-mode execution observed a value outside its proved bound.

    Raised by the ``REPRO_CHECKED=1`` instrumentation when a real kernel
    produces a value that violates the statically derived per-stage range
    certificate — the runtime half of the analyzer/implementation
    cross-check.
    """


class InjectedFaultError(CheddarError):
    """A seeded fault-injection hook induced this kernel failure.

    Raised by the serving layer's deterministic fault harness
    (:mod:`repro.serving.faults`) from inside a real kernel via
    :mod:`repro.hooks`, so recovery paths are exercised against genuine
    mid-execution failures.  The scheduler treats it — like
    :class:`SanitizerError` — as transient and retries with backoff.
    """


class PlanExecutionError(CheddarError):
    """A compiled-plan step failed during replay; names the step.

    Wraps the underlying kernel/evaluator error so a failure deep inside
    :meth:`~repro.scheme._circuit.CircuitPlan.run` surfaces with plan
    context instead of a bare kernel message: ``step_index`` into the
    step list, the trace-node provenance ``label`` (``"n<id>:<op>"``),
    and the caller-supplied ``tag`` (the serving layer passes its
    ``tenant/request`` identity).  The original exception rides along as
    ``__cause__``.
    """

    def __init__(
        self,
        message: str,
        *,
        step_index: int,
        label: str,
        tag: str | None = None,
    ) -> None:
        super().__init__(message)
        self.step_index = int(step_index)
        self.label = label
        self.tag = tag


class ServingError(CheddarError):
    """Base of the serving-layer hierarchy: a structured rejection.

    Every serving failure delivered to a client names its cause: a
    stable machine-matchable ``code`` (e.g. ``"corrupted-payload"``,
    ``"retries-exhausted"``, ``"watchdog-timeout"``), plus the
    ``tenant`` and ``request_id`` it applies to when known.  Subclasses
    carry a ``default_code`` so the common cases need no boilerplate.
    """

    default_code = "serving"

    def __init__(
        self,
        message: str,
        *,
        code: str | None = None,
        tenant: str | None = None,
        request_id: int | None = None,
    ) -> None:
        super().__init__(message)
        self.code = code if code is not None else self.default_code
        self.tenant = tenant
        self.request_id = request_id


class AdmissionError(ServingError):
    """A tenant circuit was rejected at registration.

    Raised before any request is accepted: the circuit failed to trace,
    failed :meth:`~repro.scheme._circuit.CircuitPlan.analyze` (budget
    exhaustion, scale mismatch, key-level mismatch, ...), or the tenant
    name is unknown/duplicate.  The ``code`` distinguishes the cases.
    """

    default_code = "admission-rejected"


class QueueFullError(ServingError):
    """Backpressure: the bounded request queue rejected or shed a request."""

    default_code = "queue-full"


class DeadlineExceededError(ServingError):
    """A request's deadline passed before a result could be delivered."""

    default_code = "deadline-exceeded"


class CircuitOpenError(ServingError):
    """The tenant's circuit breaker is open: requests fast-fail.

    The breaker quarantines a plan after repeated batch failures; the
    message names the consecutive-failure count and the remaining
    cool-down before a trial batch is admitted again.
    """

    default_code = "circuit-open"
