"""One-call construction of a complete CKKS instance — the public API.

Standing up a working instance previously meant wiring six layers by
hand in the right order — prime pool, polynomial context, extension
basis, key generator, encoder, evaluator, slot-linear algebra — each
with parameters that must agree (the aux basis must cover the digit
products, the Galois keys must cover the rotations the workload will
ask for, ...).  :class:`CkksContext` owns that wiring and, as of the
PR 10 API redesign, is the **single public entry point**: user programs
encrypt/decrypt through it, run slot workloads through it
(:meth:`matvec` / :meth:`poly_eval` / :meth:`multiply_vector` /
:meth:`add_vector`), compile circuits through :meth:`compile`, and
train-and-compile encrypted models through :meth:`model` — without
importing ``SlotLinalg``, ``CircuitTracer`` or any other internal.

>>> cc = CkksContext(ring_degree=1024, num_main=5, num_aux=6, dnum=2,
...                  seed=0, rotations=(1, 2))
>>> ct = cc.encrypt([0.5, -0.25])                  # at cc.scale
>>> plan = cc.compile(lambda p, x: p.matvec(x, M)) # reusable CircuitPlan
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.poly.rns_poly import PolyContext
from repro.rns.primes import PrimePool
from repro.scheme._linalg import SlotLinalg
from repro.scheme.encoder import CanonicalEncoder
from repro.scheme.evaluator import Evaluator
from repro.scheme.keys import DEFAULT_SIGMA, KeyGenerator

__all__ = ["CkksContext", "Program"]


class Program:
    """The handle a :meth:`CkksContext.compile` build function receives.

    Wraps the recording tracer together with a tracer-bound slot-linalg
    helper: evaluator ops (``add`` / ``multiply`` / ``rotate`` /
    ``rescale`` / ...) delegate to the tracer, and the slot workloads
    (:meth:`matvec`, :meth:`poly_eval`, :meth:`multiply_vector`,
    :meth:`add_vector`) trace their *naive* compositions — the planner
    rediscovers the hoisted/fused fast paths at compile time, so the
    compiled plan stays bit-identical to the eager helpers.
    """

    def __init__(self, tracer, linalg: SlotLinalg) -> None:
        self._tracer = tracer
        self._linalg = linalg

    def matvec(self, ct, matrix, **kwargs):
        """Trace ``matrix @ slots`` (BSGS diagonal form)."""
        return self._linalg.matvec_naive(ct, matrix, **kwargs)

    def poly_eval(self, ct, coeffs, **kwargs):
        """Trace slot-wise polynomial evaluation (scale stacking)."""
        return self._linalg.poly_eval(ct, coeffs, **kwargs)

    def multiply_vector(self, ct, vector, **kwargs):
        return self._linalg.multiply_vector(ct, vector, **kwargs)

    def add_vector(self, ct, vector):
        return self._linalg.add_vector(ct, vector)

    def __getattr__(self, name):
        # evaluator surface (add, sub, multiply, rotate, conjugate,
        # rescale, input, compile, ...) passes straight through
        return getattr(self._tracer, name)


class CkksContext:
    """A fully wired CKKS instance behind one seeded constructor.

    Layers (all public attributes, in wiring order):

    ``pool``       :class:`~repro.rns.primes.PrimePool`
    ``poly_ctx``   :class:`~repro.poly.rns_poly.PolyContext`
    ``keygen``     :class:`~repro.scheme.keys.KeyGenerator`
    ``encoder``    :class:`~repro.scheme.encoder.CanonicalEncoder`
    ``evaluator``  :class:`~repro.scheme.evaluator.Evaluator`

    Canonical construction kwargs (shared with
    :class:`~repro.serving.ServingConfig` and the bench/soak CLIs):
    ``backend`` names the execution tier, ``seed`` drives all
    randomness, ``scale_bits`` fixes the default encoding scale
    ``2**scale_bits`` (defaults to ``main_bits``, the size of the limb a
    rescale drops), and ``checked`` toggles sanitizer-checked execution
    (``None`` defers to ``REPRO_CHECKED``).

    All randomness — prime-independent key material and encryption
    noise — flows from the single ``seed`` through one
    ``numpy.random.Generator``, so two contexts built with the same
    arguments produce bit-identical keys and (with
    :meth:`encrypt` called in the same order) bit-identical
    ciphertexts.
    """

    def __init__(
        self,
        *,
        ring_degree: int,
        num_main: int,
        num_aux: int,
        dnum: int,
        seed: int,
        num_terminal: int = 1,
        method: str = "smr",
        backend: str | None = None,
        rotations=(),
        conjugate: bool = False,
        sigma: float = DEFAULT_SIGMA,
        hamming_weight: int | None = None,
        main_bits: int = 30,
        terminal_bits: int = 25,
        aux_bits: int | None = None,
        scale_bits: int | None = None,
        checked: bool | None = None,
    ) -> None:
        #: nominal prime sizes — the level planner budgets against these
        self.main_bits = int(main_bits)
        self.terminal_bits = int(terminal_bits)
        #: default encoding scale is 2**scale_bits (= main_bits unless
        #: overridden: one rescale then restores the level-entry scale)
        self.scale_bits = self.main_bits if scale_bits is None else int(scale_bits)
        self.scale = 2.0 ** self.scale_bits
        self.pool = PrimePool.generate(
            ring_degree,
            main_bits=main_bits,
            terminal_bits=terminal_bits,
            num_main=num_main,
            num_terminal=num_terminal,
            num_aux=num_aux,
            aux_bits=aux_bits,
        )
        self.poly_ctx = PolyContext.from_pool(
            self.pool,
            num_terminal=num_terminal,
            num_main=num_main,
            method=method,
            backend=backend,
            checked=checked,
        )
        #: resolved execution tier (numpy / compiled) every
        #: kernel under this instance dispatches through — see
        #: :mod:`repro.poly.backends`
        self.backend = self.poly_ctx.backend
        #: resolved sanitizer mode (constructor arg > REPRO_CHECKED env)
        self.checked = self.poly_ctx.checked
        aux_primes = self.pool.extension_basis(
            num_terminal, num_main, dnum=dnum
        )
        self.rng = np.random.default_rng(seed)
        self.keygen = KeyGenerator(
            self.poly_ctx,
            aux_primes,
            dnum,
            self.rng,
            sigma=sigma,
            hamming_weight=hamming_weight,
        )
        self.encoder = CanonicalEncoder(self.poly_ctx)
        self.evaluator = Evaluator.from_keygen(
            self.keygen, rotations=rotations, conjugate=conjugate
        )
        self._linalg = SlotLinalg(self.encoder, self.evaluator)

    # -- passthrough conveniences -------------------------------------------
    @property
    def ctx(self) -> PolyContext:
        """The polynomial context (for Plan.validate and friends)."""
        return self.poly_ctx

    @property
    def num_slots(self) -> int:
        return self.poly_ctx.ring_degree // 2

    def encrypt(
        self,
        values,
        *,
        scale: float | None = None,
        num_slots: int | None = None,
    ):
        """Encode a slot vector (at ``cc.scale`` unless overridden) and
        encrypt it under the public key."""
        pt = self.encoder.encode(
            values, self.scale if scale is None else scale,
            num_slots=num_slots,
        )
        return self.evaluator.encrypt(pt, self.keygen.public, self.rng)

    def decrypt(self, ct, *, num_slots: int | None = None) -> np.ndarray:
        """Decrypt and decode back to a complex slot vector."""
        pt = self.evaluator.decrypt(ct, self.keygen.secret)
        return self.encoder.decode(pt, num_slots=num_slots)

    # -- eager slot workloads ------------------------------------------------
    def matvec(self, ct, matrix, **kwargs):
        """``matrix @ slots`` eagerly (hoisted + fused BSGS form)."""
        return self._linalg.matvec(ct, matrix, **kwargs)

    def poly_eval(self, ct, coeffs, **kwargs):
        """Slot-wise ``p(ct)`` eagerly (BSGS scale stacking)."""
        return self._linalg.poly_eval(ct, coeffs, **kwargs)

    def multiply_vector(self, ct, vector, **kwargs):
        """Slot-wise product with a plaintext vector, eagerly."""
        return self._linalg.multiply_vector(ct, vector, **kwargs)

    def add_vector(self, ct, vector):
        """Slot-wise sum with a plaintext vector, eagerly."""
        return self._linalg.add_vector(ct, vector)

    @staticmethod
    def matvec_rotations(dim: int, *, baby_steps: int | None = None):
        """The Galois rotation set a ``dim``-slot matvec needs at keygen.

        Pass this as ``rotations=`` when constructing the context so the
        BSGS schedule finds every key it asks for.
        """
        return SlotLinalg.matvec_rotations(dim, baby_steps=baby_steps)

    # -- circuit compilation -------------------------------------------------
    def compile(self, build, *, scale: float | None = None,
                input_names=("x",)):
        """Trace ``build(program, *inputs)`` and compile it to a plan.

        ``build`` receives a :class:`Program` (evaluator ops plus slot
        workloads, all recording) and one traced input handle per name
        in ``input_names``, each declared at ``scale`` (default
        ``cc.scale``); it returns the traced output — a single handle
        or a ``{name: handle}`` mapping.  The returned
        :class:`~repro.scheme._circuit.CircuitPlan` replays against
        fresh ciphertexts via ``plan.run(...)``.
        """
        tracer = self._tracer()
        program = Program(tracer, SlotLinalg(self.encoder, tracer))
        use_scale = self.scale if scale is None else float(scale)
        handles = [
            tracer.input(name, scale=use_scale) for name in input_names
        ]
        out = build(program, *handles)
        return tracer.compile(out)

    def model(self, kind: str, x, y, **kwargs):
        """Train + compile a bundled encrypted model on ``(x, y)``.

        ``kind`` is ``"logreg"`` (binary logistic regression) or
        ``"mlp"`` (one hidden layer, softmax-trained); keyword
        arguments pass through to
        :func:`repro.ml.logistic_regression` / :func:`repro.ml.mlp`.
        Returns a :class:`repro.ml.CompiledModel`.
        """
        from repro import ml

        if kind == "logreg":
            return ml.logistic_regression(self, x, y, **kwargs)
        if kind == "mlp":
            return ml.mlp(self, x, y, **kwargs)
        raise ParameterError(
            f"unknown model kind {kind!r} (choose 'logreg' or 'mlp')"
        )

    # -- internals ------------------------------------------------------------
    def _tracer(self):
        """A fresh recording tracer over the evaluator (internal)."""
        from repro.scheme._circuit import CircuitTracer

        return CircuitTracer(self.evaluator)
