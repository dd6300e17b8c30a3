"""The ``Plan`` protocol: the public shape of an ahead-of-time schedule.

A plan precomputes a schedule once and replays it many times.  Its
contract:

* ``SomePlan.build(...)`` constructs a plan from a configuration,
* ``plan.run(...)`` replays it against fresh inputs,
* ``plan.cost()`` prices one run in Table-3 int32 instructions,
* ``plan.validate(config)`` rejects a stale plan (wrong basis, wrong
  context, wrong level) with a descriptive error instead of corrupt
  output.

Whole-circuit :class:`repro.scheme._circuit.CircuitPlan` objects (what
``CkksContext.compile`` returns) are its one implementation, and
``repro.Plan`` is the public name for their type, which lives in a
private module.  The protocol is structural (``runtime_checkable``), so
an implementation needs no base class.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

__all__ = ["Plan"]


@runtime_checkable
class Plan(Protocol):
    """Structural protocol for ahead-of-time execution plans.

    Implementations additionally expose a ``build(...)`` classmethod
    (signatures differ per plan kind, so it is a documented convention
    rather than part of the structural type).
    """

    def run(self, *args: Any, **kwargs: Any) -> Any:
        """Replay the plan against fresh inputs; no planning, no allocation."""
        ...

    def cost(self) -> Any:
        """Price one ``run`` (an ``OpCost``; Table-3 int32 instructions)."""
        ...

    def validate(self, config: Any) -> None:
        """Raise a descriptive error if the plan does not match ``config``."""
        ...
